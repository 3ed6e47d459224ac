//! Per-message delivery-delay models.

use churn_stochastic::{Exponential, LogNormal};
use rand::Rng;

/// A pluggable distribution of per-message network latency.
///
/// Every message sampled through the same model draws independently; the
/// draw order is fixed by the total event order, so latency sampling never
/// breaks run determinism. All variants produce finite, non-negative delays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long. `Fixed(0.0)` is the
    /// zero-latency limit the sync-equivalence tests use.
    Fixed(f64),
    /// Uniform on `[low, high)`.
    Uniform {
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (exclusive; must be ≥ `low`).
        high: f64,
    },
    /// Exponential with the given mean (memoryless links).
    Exponential {
        /// Mean delay `1/λ`.
        mean: f64,
    },
    /// Log-normal with the given median and log-scale shape σ (heavy-tailed
    /// wide-area links: a few messages take much longer than the median).
    LogNormal {
        /// Median delay `exp(μ)`.
        median: f64,
        /// Log-scale shape σ.
        sigma: f64,
    },
}

impl LatencyModel {
    /// Checks the parameters: all must be finite, delays non-negative,
    /// `high ≥ low`, `median > 0`, `sigma > 0`, and `mean > 0` with a finite
    /// rate `1/mean` (a subnormal mean such as `1e-310` overflows it). The
    /// random models are checked through the constructors [`sample`] calls,
    /// so a model that validates never panics there.
    ///
    /// [`sample`]: LatencyModel::sample
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        let ok = match *self {
            LatencyModel::Fixed(delay) => delay.is_finite() && delay >= 0.0,
            LatencyModel::Uniform { low, high } => {
                low.is_finite() && high.is_finite() && low >= 0.0 && high >= low
            }
            LatencyModel::Exponential { mean } => Exponential::new(1.0 / mean).is_some(),
            LatencyModel::LogNormal { median, sigma } => {
                LogNormal::new(median.ln(), sigma).is_some()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("invalid latency model {self:?}"))
        }
    }

    /// The mean delay of the model (exact, not sampled).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            LatencyModel::Fixed(delay) => delay,
            LatencyModel::Uniform { low, high } => 0.5 * (low + high),
            LatencyModel::Exponential { mean } => mean,
            LatencyModel::LogNormal { median, sigma } => median * (0.5 * sigma * sigma).exp(),
        }
    }

    /// Draws one delay. Constant models consume no randomness, so swapping
    /// `Fixed` in or out never perturbs the other streams of a run.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencyModel::Fixed(delay) => delay,
            LatencyModel::Uniform { low, high } => {
                if high == low {
                    low
                } else {
                    low + (high - low) * rng.gen::<f64>()
                }
            }
            LatencyModel::Exponential { mean } => Exponential::new(1.0 / mean)
                .expect("validated: 1/mean is finite and positive")
                .sample(rng),
            LatencyModel::LogNormal { median, sigma } => LogNormal::new(median.ln(), sigma)
                .expect("validated: ln(median) and sigma are finite, sigma positive")
                .sample(rng),
        }
    }

    /// Short label for bench ids and report headers (`fixed0`, `uni0.5-2`,
    /// `exp1`, `logn1s0.5`).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            LatencyModel::Fixed(delay) => format!("fixed{delay}"),
            LatencyModel::Uniform { low, high } => format!("uni{low}-{high}"),
            LatencyModel::Exponential { mean } => format!("exp{mean}"),
            LatencyModel::LogNormal { median, sigma } => format!("logn{median}s{sigma}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_stochastic::rng::seeded_rng;
    use churn_stochastic::OnlineStats;

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(LatencyModel::Fixed(-1.0).validate().is_err());
        assert!(LatencyModel::Fixed(f64::NAN).validate().is_err());
        assert!(LatencyModel::Uniform {
            low: 2.0,
            high: 1.0
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Exponential { mean: 0.0 }.validate().is_err());
        // Finite and positive, but 1/mean overflows to infinity.
        assert!(LatencyModel::Exponential { mean: 1e-310 }
            .validate()
            .is_err());
        assert!(LatencyModel::LogNormal {
            median: 1.0,
            sigma: 0.0
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Fixed(0.0).validate().is_ok());
    }

    #[test]
    fn samples_match_the_declared_mean() {
        let mut rng = seeded_rng(42);
        for model in [
            LatencyModel::Fixed(0.75),
            LatencyModel::Uniform {
                low: 0.5,
                high: 2.5,
            },
            LatencyModel::Exponential { mean: 1.5 },
            LatencyModel::LogNormal {
                median: 1.0,
                sigma: 0.5,
            },
        ] {
            model.validate().unwrap();
            let mut stats = OnlineStats::new();
            for _ in 0..50_000 {
                let x = model.sample(&mut rng);
                assert!(x.is_finite() && x >= 0.0);
                stats.push(x);
            }
            let err = (stats.mean() - model.mean()).abs() / model.mean();
            assert!(err < 0.03, "{model:?}: mean off by {err}");
        }
    }

    #[test]
    fn fixed_consumes_no_randomness() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        let _ = LatencyModel::Fixed(1.0).sample(&mut a);
        assert_eq!(a, b);
        let _: f64 = rand::Rng::gen(&mut b);
        assert_ne!(a, b);
    }
}
