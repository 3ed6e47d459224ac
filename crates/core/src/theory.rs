//! Closed-form predictions from the paper's theorems and lemmas.
//!
//! These are the quantities the experiment reports print next to the measured
//! values. Each function documents which statement of the paper it comes
//! from. All bounds are asymptotic ("for sufficiently large n",
//! "w.h.p."), so at simulation sizes they predict *shapes and orderings* rather
//! than exact values; the constants are the paper's.

/// The vertex-expansion threshold the paper proves for every positive result
/// (Lemmas 3.6, 4.11, Theorems 3.15, 4.16): `h_out ≥ 0.1`.
pub const EXPANSION_THRESHOLD: f64 = 0.1;

/// Lower bound on the fraction of nodes of an SDG snapshot that are isolated for
/// their whole residual lifetime (Lemma 3.5): `e^{−2d}/6`.
#[must_use]
pub fn isolated_fraction_streaming(d: usize) -> f64 {
    (-2.0 * d as f64).exp() / 6.0
}

/// Lower bound on the lifetime-isolated fraction for the Poisson model without
/// regeneration (Lemma 4.10): `e^{−2d}/18`.
#[must_use]
pub fn isolated_fraction_poisson(d: usize) -> f64 {
    (-2.0 * d as f64).exp() / 18.0
}

/// Smallest subset size (as a fraction of `n`) covered by the large-set
/// expansion lemma: `e^{−d/10}` for the streaming model (Lemma 3.6),
/// `e^{−d/20}` for the Poisson model (Lemma 4.11).
#[must_use]
pub fn large_set_min_fraction(d: usize, streaming: bool) -> f64 {
    let scale = if streaming { 10.0 } else { 20.0 };
    (-(d as f64) / scale).exp()
}

/// Fraction of the network that partial flooding reaches in the models without
/// regeneration: `1 − e^{−d/10}` (Theorem 3.8) or `1 − e^{−d/20}`
/// (Theorem 4.13).
#[must_use]
pub fn partial_flooding_fraction(d: usize, streaming: bool) -> f64 {
    1.0 - large_set_min_fraction(d, streaming)
}

/// Probability with which the partial flooding result holds:
/// `1 − 4·e^{−d/100}` for the streaming model (Theorem 3.8),
/// `1 − 2·e^{−d/576}` for the Poisson model (Theorem 4.13).
///
/// For small `d` these expressions are negative, meaning the theorem gives no
/// guarantee at that degree; the value is clamped to `[0, 1]`.
#[must_use]
pub fn partial_flooding_success_probability(d: usize, streaming: bool) -> f64 {
    let p = if streaming {
        1.0 - 4.0 * (-(d as f64) / 100.0).exp()
    } else {
        1.0 - 2.0 * (-(d as f64) / 576.0).exp()
    };
    p.clamp(0.0, 1.0)
}

/// The per-phase multiplicative growth factor of the onion-skin process
/// (Claim 3.10): `d/20`.
#[must_use]
pub fn onion_skin_growth_factor(d: usize) -> f64 {
    d as f64 / 20.0
}

/// Expected degree of a node in a warm SDG/PDG snapshot (Lemma 6.1): exactly `d`.
#[must_use]
pub fn expected_degree(d: usize) -> f64 {
    d as f64
}

/// The band the Poisson population stays in w.h.p. after warm-up (Lemma 4.4):
/// `[0.9·n, 1.1·n]`.
#[must_use]
pub fn poisson_population_band(n: usize) -> (f64, f64) {
    (0.9 * n as f64, 1.1 * n as f64)
}

/// The interval the jump-chain transition probabilities stay in once the
/// population is in the Lemma 4.4 band (Lemma 4.7, equation (3)):
/// both the birth and the death probability lie in `[0.47, 0.53]`.
#[must_use]
pub fn jump_probability_band() -> (f64, f64) {
    (0.47, 0.53)
}

/// Which statement of the paper a degree threshold comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Claim {
    /// Lemma 3.6 — large-set expansion of SDG.
    LargeSetExpansionStreaming,
    /// Lemma 4.11 — large-set expansion of PDG.
    LargeSetExpansionPoisson,
    /// Theorem 3.8 — partial flooding in SDG.
    PartialFloodingStreaming,
    /// Theorem 4.13 — partial flooding in PDG.
    PartialFloodingPoisson,
    /// Theorem 3.15 — full expansion of SDGR.
    ExpansionStreamingRegen,
    /// Theorem 4.16 — full expansion of PDGR.
    ExpansionPoissonRegen,
    /// Theorem 3.16 — logarithmic flooding in SDGR.
    FloodingStreamingRegen,
    /// Theorem 4.20 — logarithmic flooding in PDGR.
    FloodingPoissonRegen,
}

impl Claim {
    /// The smallest degree `d` for which the paper states the claim.
    ///
    /// The proofs are not optimised in the constants; simulations typically show
    /// the qualitative behaviour at much smaller degrees, which is exactly what
    /// the experiments report.
    #[must_use]
    pub fn min_degree(self) -> usize {
        match self {
            Claim::LargeSetExpansionStreaming | Claim::LargeSetExpansionPoisson => 20,
            Claim::PartialFloodingStreaming => 200,
            Claim::PartialFloodingPoisson => 1152,
            Claim::ExpansionStreamingRegen => 14,
            Claim::ExpansionPoissonRegen => 35,
            Claim::FloodingStreamingRegen => 21,
            Claim::FloodingPoissonRegen => 35,
        }
    }

    /// Human-readable reference to the statement in the paper.
    #[must_use]
    pub fn reference(self) -> &'static str {
        match self {
            Claim::LargeSetExpansionStreaming => "Lemma 3.6",
            Claim::LargeSetExpansionPoisson => "Lemma 4.11",
            Claim::PartialFloodingStreaming => "Theorem 3.8",
            Claim::PartialFloodingPoisson => "Theorem 4.13",
            Claim::ExpansionStreamingRegen => "Theorem 3.15",
            Claim::ExpansionPoissonRegen => "Theorem 4.16",
            Claim::FloodingStreamingRegen => "Theorem 3.16",
            Claim::FloodingPoissonRegen => "Theorem 4.20",
        }
    }
}

/// Predicted shape of the flooding time of the regeneration models
/// (Theorems 3.16 and 4.20): `O(log n)`. Returns `c · log₂(n)` for the caller's
/// choice of constant, as a comparison curve for plots.
#[must_use]
pub fn logarithmic_flooding_curve(n: usize, constant: f64) -> f64 {
    constant * (n as f64).log2()
}

/// Predicted shape of the time needed by flooding to *complete* in the models
/// without regeneration (Theorems 3.7 / 4.12): `Ω_d(n)` — linear in `n`, because
/// the lifetime-isolated nodes can only be "informed" by dying and being
/// replaced.
#[must_use]
pub fn linear_completion_curve(n: usize, constant: f64) -> f64 {
    constant * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_fraction_decays_exponentially_in_d() {
        assert!(isolated_fraction_streaming(1) > isolated_fraction_streaming(2));
        assert!(isolated_fraction_streaming(2) > isolated_fraction_streaming(4));
        // Streaming bound is three times the Poisson bound (1/6 vs 1/18).
        for d in 1..6 {
            assert!(
                (isolated_fraction_streaming(d) / isolated_fraction_poisson(d) - 3.0).abs() < 1e-12
            );
        }
        // Concrete value: e^{-2}/6 ≈ 0.02255.
        assert!((isolated_fraction_streaming(1) - 0.022_555).abs() < 1e-4);
    }

    #[test]
    fn partial_flooding_fraction_tends_to_one() {
        assert!(partial_flooding_fraction(10, true) < partial_flooding_fraction(40, true));
        assert!(partial_flooding_fraction(200, true) > 0.999);
        assert!(partial_flooding_fraction(40, false) < partial_flooding_fraction(40, true));
        assert!((partial_flooding_fraction(0, true) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn success_probability_is_clamped_and_monotone() {
        assert_eq!(partial_flooding_success_probability(1, true), 0.0);
        assert!(partial_flooding_success_probability(200, true) > 0.4);
        assert!(
            partial_flooding_success_probability(400, true)
                > partial_flooding_success_probability(200, true)
        );
        assert!(partial_flooding_success_probability(4000, false) > 0.99);
        assert!(partial_flooding_success_probability(100_000, true) <= 1.0);
    }

    #[test]
    fn thresholds_match_the_paper() {
        assert_eq!(Claim::LargeSetExpansionStreaming.min_degree(), 20);
        assert_eq!(Claim::PartialFloodingStreaming.min_degree(), 200);
        assert_eq!(Claim::PartialFloodingPoisson.min_degree(), 1152);
        assert_eq!(Claim::ExpansionStreamingRegen.min_degree(), 14);
        assert_eq!(Claim::ExpansionPoissonRegen.min_degree(), 35);
        assert_eq!(Claim::FloodingStreamingRegen.min_degree(), 21);
        for claim in [
            Claim::LargeSetExpansionStreaming,
            Claim::FloodingPoissonRegen,
            Claim::PartialFloodingPoisson,
        ] {
            assert!(!claim.reference().is_empty());
        }
    }

    #[test]
    fn curves_scale_as_expected() {
        assert!(logarithmic_flooding_curve(1024, 1.0) > logarithmic_flooding_curve(256, 1.0));
        assert!((logarithmic_flooding_curve(1024, 2.0) - 20.0).abs() < 1e-12);
        assert!((linear_completion_curve(500, 0.1) - 50.0).abs() < 1e-12);
        // The gap between O(log n) and Ω(n) completion is the paper's headline
        // contrast between the models with and without regeneration.
        assert!(linear_completion_curve(4096, 0.01) > logarithmic_flooding_curve(4096, 2.0));
    }

    #[test]
    fn other_constants() {
        assert_eq!(EXPANSION_THRESHOLD, 0.1);
        assert_eq!(expected_degree(7), 7.0);
        assert_eq!(onion_skin_growth_factor(200), 10.0);
        let (lo, hi) = poisson_population_band(1000);
        assert_eq!((lo, hi), (900.0, 1100.0));
        let (plo, phi) = jump_probability_band();
        assert!(plo < 0.5 && phi > 0.5);
        assert!(large_set_min_fraction(20, true) > large_set_min_fraction(40, true));
        assert!((large_set_min_fraction(20, false) - (-1.0f64).exp()).abs() < 1e-12);
    }
}
