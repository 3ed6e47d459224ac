//! The birth–death jump chain behind the paper's Poisson churn (Definitions
//! 4.1 and 4.5, Lemma 4.6).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::distributions::Exponential;

/// The kind of transition taken by the birth–death jump chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JumpKind {
    /// A new node joins the network.
    Birth,
    /// An existing node dies (the caller picks *which* node uniformly — every
    /// alive node is equally likely, by exchangeability of i.i.d. exponential
    /// residual lifetimes).
    Death,
}

/// One transition of the jump chain: how long the chain waited and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Jump {
    /// Exponential waiting time until this event, with rate `N·µ + λ`
    /// (Lemma 4.6).
    pub waiting_time: f64,
    /// Whether the event is a birth or a death.
    pub kind: JumpKind,
}

/// The birth–death jump chain of Definition 4.5 / Lemma 4.6.
///
/// With `N` nodes alive, the time to the next event is `Exp(N·µ + λ)`; the event
/// is a birth with probability `λ / (N·µ + λ)` and a death with probability
/// `N·µ / (N·µ + λ)`, in which case the dying node is uniform among the alive
/// ones.
///
/// # Example
///
/// ```
/// use churn_stochastic::process::{BirthDeathChain, JumpKind};
/// use churn_stochastic::rng::seeded_rng;
///
/// let chain = BirthDeathChain::new(1.0, 0.001); // n = λ/µ = 1000
/// let mut rng = seeded_rng(0);
/// let jump = chain.next_jump(0, &mut rng);
/// // With zero nodes alive only a birth can happen.
/// assert_eq!(jump.kind, JumpKind::Birth);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BirthDeathChain {
    lambda: f64,
    mu: f64,
}

impl BirthDeathChain {
    /// Creates a chain with birth rate `lambda` and per-node death rate `mu`.
    ///
    /// # Panics
    ///
    /// Panics unless both rates are finite and strictly positive.
    #[must_use]
    pub fn new(lambda: f64, mu: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "birth rate must be positive"
        );
        assert!(mu.is_finite() && mu > 0.0, "death rate must be positive");
        BirthDeathChain { lambda, mu }
    }

    /// The birth rate λ.
    #[must_use]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The per-node death rate µ.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Probability that the next event is a death, given `alive` nodes
    /// (Lemma 4.6).
    #[must_use]
    pub fn death_probability(&self, alive: u64) -> f64 {
        let total = alive as f64 * self.mu + self.lambda;
        alive as f64 * self.mu / total
    }

    /// Probability that the next event is a birth, given `alive` nodes.
    #[must_use]
    pub fn birth_probability(&self, alive: u64) -> f64 {
        1.0 - self.death_probability(alive)
    }

    /// Probability that a *specific* alive node is the one that dies at the next
    /// event, given `alive` nodes (Lemma 4.6: `µ / (N·µ + λ)`).
    #[must_use]
    pub fn specific_death_probability(&self, alive: u64) -> f64 {
        let total = alive as f64 * self.mu + self.lambda;
        self.mu / total
    }

    /// Samples the next transition of the chain given the current population.
    pub fn next_jump<R: Rng + ?Sized>(&self, alive: u64, rng: &mut R) -> Jump {
        let total_rate = alive as f64 * self.mu + self.lambda;
        let waiting_time = Exponential::new(total_rate)
            .expect("total rate is positive")
            .sample(rng);
        let kind = if rng.gen::<f64>() < self.death_probability(alive) {
            JumpKind::Death
        } else {
            JumpKind::Birth
        };
        Jump { waiting_time, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::OnlineStats;

    #[test]
    fn chain_probabilities_match_lemma_4_6() {
        // λ = 1, µ = 1/n.
        let n = 1000.0;
        let chain = BirthDeathChain::new(1.0, 1.0 / n);
        // At the stationary population N = n the death probability is 1/2.
        assert!((chain.death_probability(1000) - 0.5).abs() < 1e-12);
        assert!((chain.birth_probability(1000) - 0.5).abs() < 1e-12);
        // Lemma 4.7: with N in [0.9n, 1.1n] both probabilities are in [0.47, 0.53].
        for alive in [900u64, 1000, 1100] {
            let p = chain.death_probability(alive);
            assert!((0.47..=0.53).contains(&p), "death prob {p} out of range");
        }
        // Lemma 4.6: specific node death probability is µ/(Nµ + λ).
        let p = chain.specific_death_probability(1000);
        assert!((p - (1.0 / n) / (1000.0 / n + 1.0)).abs() < 1e-15);
        // Lemma 4.7 equation (4): bounds 1/(2.2 n) <= p <= 1/(1.8 n) near N = n.
        assert!(p >= 1.0 / (2.2 * n) && p <= 1.0 / (1.8 * n));
    }

    #[test]
    fn chain_with_zero_population_only_births() {
        let chain = BirthDeathChain::new(1.0, 0.01);
        assert_eq!(chain.death_probability(0), 0.0);
        let mut rng = seeded_rng(24);
        for _ in 0..50 {
            assert_eq!(chain.next_jump(0, &mut rng).kind, JumpKind::Birth);
        }
    }

    #[test]
    fn chain_population_concentrates_around_lambda_over_mu() {
        // Lemma 4.4: after enough steps the population is Θ(n), concretely within
        // [0.9n, 1.1n] with overwhelming probability.
        let n = 500.0;
        let chain = BirthDeathChain::new(1.0, 1.0 / n);
        let mut rng = seeded_rng(25);
        let mut population = 0u64;
        let trajectory: Vec<u64> = (0..40_000)
            .map(|_| {
                match chain.next_jump(population, &mut rng).kind {
                    JumpKind::Birth => population += 1,
                    JumpKind::Death => population -= 1,
                }
                population
            })
            .collect();
        let late = &trajectory[20_000..];
        let mean: f64 = late.iter().map(|&x| x as f64).sum::<f64>() / late.len() as f64;
        assert!(
            (mean - n).abs() < 0.1 * n,
            "late population mean {mean} should be near {n}"
        );
        let in_band = late
            .iter()
            .filter(|&&x| (x as f64) >= 0.9 * n && (x as f64) <= 1.1 * n)
            .count() as f64
            / late.len() as f64;
        assert!(
            in_band > 0.9,
            "population stays in [0.9n, 1.1n] most of the time"
        );
    }

    #[test]
    fn chain_waiting_times_shrink_with_population() {
        let chain = BirthDeathChain::new(1.0, 0.01);
        let mut rng = seeded_rng(26);
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for _ in 0..20_000 {
            small.push(chain.next_jump(10, &mut rng).waiting_time);
            large.push(chain.next_jump(1000, &mut rng).waiting_time);
        }
        // Expected waiting times are 1/(λ+Nµ): 1/1.1 vs 1/11.
        assert!((small.mean() - 1.0 / 1.1).abs() < 0.03);
        assert!((large.mean() - 1.0 / 11.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "birth rate")]
    fn chain_rejects_non_positive_lambda() {
        let _ = BirthDeathChain::new(0.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "death rate")]
    fn chain_rejects_non_positive_mu() {
        let _ = BirthDeathChain::new(1.0, 0.0);
    }
}
