//! Configuration of the RAES maintenance protocol.

use churn_core::{ModelError, Result, VictimPolicy};

use crate::behavior::AdversaryModel;

/// What a contacted node does with a connection request once its in-degree has
/// reached the cap `⌊c·d⌋`.
///
/// * [`SaturationPolicy::RejectRetry`] — the classic RAES rule: the request is
///   rejected and its owner resamples a fresh uniform target in the next
///   round. In-links, once accepted, are only severed by churn.
/// * [`SaturationPolicy::EvictOldest`] — the saturated node accepts the
///   request but sheds its (approximately) oldest incoming link to stay at the
///   cap; the evicted requester re-enters the pending queue. This trades churn
///   amplification for zero rejections, the way some DHT neighbour tables
///   prefer fresh links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SaturationPolicy {
    /// Reject the request; the owner retries next round (classic RAES).
    #[default]
    RejectRetry,
    /// Accept the request and evict the oldest in-link to make room.
    EvictOldest,
}

impl SaturationPolicy {
    /// Short label used in reports and bench ids.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SaturationPolicy::RejectRetry => "reject-retry",
            SaturationPolicy::EvictOldest => "evict-oldest",
        }
    }
}

impl std::fmt::Display for SaturationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which churn process drives node arrivals and departures underneath the
/// protocol — the same two options as the paper's models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChurnDriver {
    /// Streaming churn (Definition 3.2): one join and one leave per round,
    /// every node lives exactly `n` rounds.
    #[default]
    Streaming,
    /// Poisson churn (Definition 4.1): arrivals at rate λ = 1, exponential
    /// lifetimes with rate µ = 1/n, simulated along the jump chain.
    Poisson,
}

impl ChurnDriver {
    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ChurnDriver::Streaming => "streaming",
            ChurnDriver::Poisson => "poisson",
        }
    }
}

impl std::fmt::Display for ChurnDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of a [`crate::RaesModel`].
///
/// Built with the same consuming builder style as the core model configs:
///
/// ```
/// use churn_protocol::{ChurnDriver, RaesConfig, SaturationPolicy};
///
/// let config = RaesConfig::new(1_000, 8)
///     .capacity_factor(2.0)
///     .saturation(SaturationPolicy::EvictOldest)
///     .churn(ChurnDriver::Poisson)
///     .seed(7);
/// assert_eq!(config.in_degree_cap(), 16);
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RaesConfig {
    /// Expected network size (streaming: exact after warm-up; Poisson: λ/µ).
    pub n: usize,
    /// Number of out-links every alive node maintains.
    pub d: usize,
    /// In-degree capacity factor: a node accepts requests only while its
    /// in-degree is below `⌊c·d⌋`. Must be at least 1; RAES needs `c > 1` for
    /// fast convergence (at `c = 1` total capacity exactly equals demand).
    pub c: f64,
    /// What a saturated node does with an incoming request.
    pub saturation: SaturationPolicy,
    /// How many contacts a pending request may make within one repair round
    /// (at least 1; the classic RAES rule is 1). Under
    /// [`SaturationPolicy::RejectRetry`], a rejected request immediately
    /// resamples a fresh uniform target up to this many times in the same
    /// round before it is carried over — trading extra messages for lower
    /// repair latency near saturation. [`SaturationPolicy::EvictOldest`]
    /// serves every request on the first contact, so the knob has no effect
    /// there.
    pub attempts_per_round: usize,
    /// The churn process underneath the protocol.
    pub churn: ChurnDriver,
    /// How Poisson death events pick their victim: the paper's uniform
    /// churn, or an adversarial (oldest-first / highest-degree) selection —
    /// the robustness question for a bounded-degree expander-maintenance
    /// protocol. Streaming churn is structurally oldest-first, so only
    /// [`VictimPolicy::Uniform`] and [`VictimPolicy::OldestFirst`] validate
    /// there.
    pub victim_policy: VictimPolicy,
    /// How Byzantine behaviors are assigned to newborn nodes (default:
    /// [`AdversaryModel::None`]). Adversary decisions draw from a dedicated
    /// substream, so any model with an effective corrupted fraction of 0 is
    /// RNG-stream-identical to one with no adversary at all.
    pub adversary: AdversaryModel,
    /// RNG seed; identical configurations evolve identically.
    pub seed: u64,
}

impl RaesConfig {
    /// The default capacity factor. `1.5` keeps the in-degree cap at `12` for
    /// the workspace's standard `d = 8`, which fits the graph records' inline
    /// in-reference capacity — steady-state protocol rounds then perform no
    /// heap allocation at all.
    pub const DEFAULT_CAPACITY_FACTOR: f64 = 1.5;

    /// Creates a configuration with the given size and degree, capacity
    /// factor [`Self::DEFAULT_CAPACITY_FACTOR`], reject-and-retry saturation,
    /// streaming churn and seed 0.
    #[must_use]
    pub fn new(n: usize, d: usize) -> Self {
        RaesConfig {
            n,
            d,
            c: Self::DEFAULT_CAPACITY_FACTOR,
            saturation: SaturationPolicy::default(),
            attempts_per_round: 1,
            churn: ChurnDriver::default(),
            victim_policy: VictimPolicy::Uniform,
            adversary: AdversaryModel::None,
            seed: 0,
        }
    }

    /// Sets the Byzantine adversary model (see [`Self::adversary`]).
    #[must_use]
    pub fn adversary(mut self, adversary: AdversaryModel) -> Self {
        self.adversary = adversary;
        self
    }

    /// Sets the number of contacts a pending request may make per round
    /// (see [`Self::attempts_per_round`]).
    #[must_use]
    pub fn attempts_per_round(mut self, attempts: usize) -> Self {
        self.attempts_per_round = attempts;
        self
    }

    /// Sets the death-victim selection policy.
    #[must_use]
    pub fn victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Sets the in-degree capacity factor `c`.
    #[must_use]
    pub fn capacity_factor(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Sets the saturation policy.
    #[must_use]
    pub fn saturation(mut self, policy: SaturationPolicy) -> Self {
        self.saturation = policy;
        self
    }

    /// Sets the churn driver.
    #[must_use]
    pub fn churn(mut self, churn: ChurnDriver) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The absolute in-degree cap `⌊c·d⌋`: a node accepts a request only
    /// while its in-degree is strictly below this, so the cap is also the
    /// largest in-degree the protocol ever produces.
    #[must_use]
    pub fn in_degree_cap(&self) -> usize {
        (self.c * self.d as f64).floor() as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] if `n < 2`,
    /// [`ModelError::InvalidDegree`] if `d == 0`,
    /// [`ModelError::InvalidCapacityFactor`] unless `c` is finite and at
    /// least 1, and [`ModelError::UnsupportedVictimPolicy`] for
    /// degree-targeted deaths on streaming churn (whose death schedule is
    /// structurally fixed).
    pub fn validate(&self) -> Result<()> {
        if self.n < churn_core::MIN_NETWORK_SIZE {
            return Err(ModelError::NetworkTooSmall {
                requested: self.n,
                minimum: churn_core::MIN_NETWORK_SIZE,
            });
        }
        if self.d == 0 {
            return Err(ModelError::InvalidDegree { requested: self.d });
        }
        if !(self.c.is_finite() && self.c >= 1.0) {
            return Err(ModelError::InvalidCapacityFactor { value: self.c });
        }
        if self.attempts_per_round == 0 {
            return Err(ModelError::InvalidAttempts {
                requested: self.attempts_per_round,
            });
        }
        if self.churn == ChurnDriver::Streaming && self.victim_policy == VictimPolicy::HighestDegree
        {
            return Err(ModelError::UnsupportedVictimPolicy {
                kind: "RAES",
                policy: self.victim_policy.label(),
            });
        }
        if self.adversary.is_active() {
            let fraction = self.adversary.fraction();
            if !(fraction.is_finite() && (0.0..1.0).contains(&fraction)) {
                return Err(ModelError::InvalidRate {
                    parameter: "adversary fraction",
                    value: fraction,
                });
            }
            if let AdversaryModel::JoinFlood { cohort: 0, .. } = self.adversary {
                return Err(ModelError::InvalidRate {
                    parameter: "join-flood cohort",
                    value: 0.0,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields_and_validates() {
        let c = RaesConfig::new(100, 4)
            .capacity_factor(2.0)
            .saturation(SaturationPolicy::EvictOldest)
            .churn(ChurnDriver::Poisson)
            .seed(9);
        assert_eq!((c.n, c.d, c.seed), (100, 4, 9));
        assert_eq!(c.saturation, SaturationPolicy::EvictOldest);
        assert_eq!(c.churn, ChurnDriver::Poisson);
        assert_eq!(c.in_degree_cap(), 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn default_capacity_fits_inline_in_refs_at_d_8() {
        assert_eq!(RaesConfig::new(100, 8).in_degree_cap(), 12);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(matches!(
            RaesConfig::new(1, 4).validate(),
            Err(ModelError::NetworkTooSmall { .. })
        ));
        assert!(matches!(
            RaesConfig::new(100, 0).validate(),
            Err(ModelError::InvalidDegree { .. })
        ));
        for bad in [0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                RaesConfig::new(100, 4).capacity_factor(bad).validate(),
                Err(ModelError::InvalidCapacityFactor { .. })
            ));
        }
        assert!(RaesConfig::new(100, 4)
            .capacity_factor(1.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn adversary_validation_bounds_fraction_and_cohort() {
        use crate::behavior::{AdversaryModel, AttackKind};
        let base = |adv| RaesConfig::new(100, 4).adversary(adv);
        assert_eq!(RaesConfig::new(100, 4).adversary, AdversaryModel::None);
        assert!(base(AdversaryModel::Uniform {
            fraction: 0.0,
            attack: AttackKind::RefuseAll,
        })
        .validate()
        .is_ok());
        assert!(base(AdversaryModel::Eclipse {
            fraction: 0.2,
            attack: AttackKind::CapSaturator,
        })
        .validate()
        .is_ok());
        for bad in [-0.1, 1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                base(AdversaryModel::Uniform {
                    fraction: bad,
                    attack: AttackKind::SilentOnFlood,
                })
                .validate(),
                Err(ModelError::InvalidRate { .. })
            ));
        }
        assert!(matches!(
            base(AdversaryModel::JoinFlood {
                fraction: 0.1,
                cohort: 0,
                attack: AttackKind::AcceptThenDrop,
            })
            .validate(),
            Err(ModelError::InvalidRate { .. })
        ));
        assert!(base(AdversaryModel::JoinFlood {
            fraction: 0.1,
            cohort: 4,
            attack: AttackKind::AcceptThenDrop,
        })
        .validate()
        .is_ok());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SaturationPolicy::RejectRetry.to_string(), "reject-retry");
        assert_eq!(SaturationPolicy::EvictOldest.to_string(), "evict-oldest");
        assert_eq!(ChurnDriver::Streaming.to_string(), "streaming");
        assert_eq!(ChurnDriver::Poisson.to_string(), "poisson");
    }
}
