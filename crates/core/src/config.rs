//! Configuration of the four dynamic network models.

use serde::{Deserialize, Serialize};

use crate::driver::VictimPolicy;
use crate::{ModelError, Result};

/// Smallest supported expected network size.
pub const MIN_NETWORK_SIZE: usize = 2;

/// How the topology reacts to a neighbour's death.
///
/// * [`EdgePolicy::Static`] — edges are created only when a node joins
///   (Definitions 3.4 and 4.9); a request whose target dies stays dangling.
///   Combined with the streaming / Poisson churn this gives the SDG / PDG
///   models.
/// * [`EdgePolicy::Regenerate`] — a node immediately replaces any request whose
///   target died by a new uniformly random one (Definitions 3.13 and 4.14),
///   keeping its out-degree at `d` forever. This gives the SDGR / PDGR models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EdgePolicy {
    /// No edge regeneration (SDG / PDG).
    #[default]
    Static,
    /// Edge regeneration on neighbour death (SDGR / PDGR).
    Regenerate,
}

impl EdgePolicy {
    /// Returns `true` for [`EdgePolicy::Regenerate`].
    #[must_use]
    pub fn regenerates(self) -> bool {
        matches!(self, EdgePolicy::Regenerate)
    }
}

impl std::fmt::Display for EdgePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgePolicy::Static => f.write_str("static"),
            EdgePolicy::Regenerate => f.write_str("regenerate"),
        }
    }
}

/// Configuration of a [`crate::StreamingModel`] (SDG / SDGR, Definitions 3.4 and
/// 3.13).
///
/// Built with a consuming builder style:
///
/// ```
/// use churn_core::{EdgePolicy, StreamingConfig};
///
/// let config = StreamingConfig::new(1_000, 8)
///     .edge_policy(EdgePolicy::Regenerate)
///     .seed(7);
/// assert_eq!(config.n, 1_000);
/// assert!(config.edge_policy.regenerates());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamingConfig {
    /// Lifetime of every node in rounds; after warm-up this is also the exact
    /// network size.
    pub n: usize,
    /// Number of connection requests every node opens when it joins.
    pub d: usize,
    /// Topology reaction to neighbour deaths.
    pub edge_policy: EdgePolicy,
    /// RNG seed; two models built from identical configurations evolve
    /// identically.
    pub seed: u64,
}

impl StreamingConfig {
    /// Creates a configuration with the given network size and degree, static
    /// edge policy and seed 0.
    #[must_use]
    pub fn new(n: usize, d: usize) -> Self {
        StreamingConfig {
            n,
            d,
            edge_policy: EdgePolicy::Static,
            seed: 0,
        }
    }

    /// Sets the edge policy.
    #[must_use]
    pub fn edge_policy(mut self, policy: EdgePolicy) -> Self {
        self.edge_policy = policy;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] if `n < 2` and
    /// [`ModelError::InvalidDegree`] if `d == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.n < MIN_NETWORK_SIZE {
            return Err(ModelError::NetworkTooSmall {
                requested: self.n,
                minimum: MIN_NETWORK_SIZE,
            });
        }
        if self.d == 0 {
            return Err(ModelError::InvalidDegree { requested: self.d });
        }
        Ok(())
    }
}

/// Configuration of a [`crate::PoissonModel`] (PDG / PDGR, Definitions 4.9 and
/// 4.14).
///
/// The paper normalises λ = 1 and calls `n = 1/µ` the expected network size;
/// [`PoissonConfig::with_expected_size`] builds exactly that parameterisation,
/// while [`PoissonConfig::with_rates`] accepts arbitrary (λ, µ).
///
/// ```
/// use churn_core::PoissonConfig;
///
/// let config = PoissonConfig::with_expected_size(1_000, 8).seed(3);
/// assert_eq!(config.lambda, 1.0);
/// assert!((config.mu - 0.001).abs() < 1e-12);
/// assert_eq!(config.expected_size(), 1_000);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoissonConfig {
    /// Node arrival rate λ.
    pub lambda: f64,
    /// Per-node death rate µ (mean lifetime `1/µ`).
    pub mu: f64,
    /// Number of connection requests every node opens when it joins.
    pub d: usize,
    /// Topology reaction to neighbour deaths.
    pub edge_policy: EdgePolicy,
    /// RNG seed.
    pub seed: u64,
    /// How death events pick their victim: the paper's uniform churn, or an
    /// adversarial (oldest-first / highest-degree) selection.
    pub victim_policy: VictimPolicy,
}

impl PoissonConfig {
    /// The paper's normalisation: λ = 1, µ = 1/n.
    #[must_use]
    pub fn with_expected_size(n: usize, d: usize) -> Self {
        PoissonConfig {
            lambda: 1.0,
            mu: 1.0 / n as f64,
            d,
            edge_policy: EdgePolicy::Static,
            seed: 0,
            victim_policy: VictimPolicy::Uniform,
        }
    }

    /// Arbitrary arrival and death rates.
    #[must_use]
    pub fn with_rates(lambda: f64, mu: f64, d: usize) -> Self {
        PoissonConfig {
            lambda,
            mu,
            d,
            edge_policy: EdgePolicy::Static,
            seed: 0,
            victim_policy: VictimPolicy::Uniform,
        }
    }

    /// Sets the death-victim selection policy.
    #[must_use]
    pub fn victim_policy(mut self, policy: VictimPolicy) -> Self {
        self.victim_policy = policy;
        self
    }

    /// Sets the edge policy.
    #[must_use]
    pub fn edge_policy(mut self, policy: EdgePolicy) -> Self {
        self.edge_policy = policy;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expected stationary network size `λ / µ`, rounded to the nearest integer.
    #[must_use]
    pub fn expected_size(&self) -> usize {
        (self.lambda / self.mu).round() as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidRate`] if either rate is non-positive or not
    /// finite, [`ModelError::NetworkTooSmall`] if `λ/µ < 2`, and
    /// [`ModelError::InvalidDegree`] if `d == 0`.
    pub fn validate(&self) -> Result<()> {
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return Err(ModelError::InvalidRate {
                parameter: "lambda",
                value: self.lambda,
            });
        }
        if !(self.mu.is_finite() && self.mu > 0.0) {
            return Err(ModelError::InvalidRate {
                parameter: "mu",
                value: self.mu,
            });
        }
        if self.expected_size() < MIN_NETWORK_SIZE {
            return Err(ModelError::NetworkTooSmall {
                requested: self.expected_size(),
                minimum: MIN_NETWORK_SIZE,
            });
        }
        if self.d == 0 {
            return Err(ModelError::InvalidDegree { requested: self.d });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_policy_default_is_static() {
        assert_eq!(EdgePolicy::default(), EdgePolicy::Static);
        assert!(!EdgePolicy::Static.regenerates());
        assert!(EdgePolicy::Regenerate.regenerates());
        assert_eq!(EdgePolicy::Static.to_string(), "static");
        assert_eq!(EdgePolicy::Regenerate.to_string(), "regenerate");
    }

    #[test]
    fn streaming_config_builder_sets_fields() {
        let c = StreamingConfig::new(100, 4)
            .edge_policy(EdgePolicy::Regenerate)
            .seed(9);
        assert_eq!(c.n, 100);
        assert_eq!(c.d, 4);
        assert_eq!(c.edge_policy, EdgePolicy::Regenerate);
        assert_eq!(c.seed, 9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn streaming_config_validation_rejects_bad_values() {
        assert!(matches!(
            StreamingConfig::new(1, 4).validate(),
            Err(ModelError::NetworkTooSmall { .. })
        ));
        assert!(matches!(
            StreamingConfig::new(100, 0).validate(),
            Err(ModelError::InvalidDegree { .. })
        ));
    }

    #[test]
    fn poisson_config_expected_size_matches_lambda_over_mu() {
        let c = PoissonConfig::with_expected_size(500, 6);
        assert_eq!(c.expected_size(), 500);
        assert!(c.validate().is_ok());
        let c = PoissonConfig::with_rates(2.0, 0.01, 6);
        assert_eq!(c.expected_size(), 200);
    }

    #[test]
    fn poisson_config_validation_rejects_bad_values() {
        assert!(matches!(
            PoissonConfig::with_rates(0.0, 0.1, 3).validate(),
            Err(ModelError::InvalidRate {
                parameter: "lambda",
                ..
            })
        ));
        assert!(matches!(
            PoissonConfig::with_rates(1.0, f64::NAN, 3).validate(),
            Err(ModelError::InvalidRate {
                parameter: "mu",
                ..
            })
        ));
        assert!(matches!(
            PoissonConfig::with_rates(1.0, 1.0, 3).validate(),
            Err(ModelError::NetworkTooSmall { .. })
        ));
        assert!(matches!(
            PoissonConfig::with_expected_size(100, 0).validate(),
            Err(ModelError::InvalidDegree { .. })
        ));
    }
}
