//! Error type for model construction and use.

use std::error::Error;
use std::fmt;

/// Errors produced when building or driving a dynamic network model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ModelError {
    /// The target network size is too small to be meaningful.
    NetworkTooSmall {
        /// Requested expected network size.
        requested: usize,
        /// Smallest supported size.
        minimum: usize,
    },
    /// The per-node out-degree `d` is invalid.
    InvalidDegree {
        /// Requested degree.
        requested: usize,
    },
    /// A rate parameter (λ or µ) of the Poisson model is invalid.
    InvalidRate {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The in-degree capacity factor `c` of a maintenance protocol (e.g. the
    /// RAES cap `c·d`) is invalid.
    InvalidCapacityFactor {
        /// The rejected value.
        value: f64,
    },
    /// The attempts-per-round knob of a maintenance protocol (how many
    /// contacts a pending repair request may make within one round) is
    /// invalid.
    InvalidAttempts {
        /// The rejected value (must be at least 1).
        requested: usize,
    },
    /// The requested [`crate::driver::VictimPolicy`] cannot run on this model
    /// kind (e.g. degree-targeted deaths on streaming churn, whose death
    /// schedule is structurally fixed to oldest-first).
    UnsupportedVictimPolicy {
        /// Label of the model kind.
        kind: &'static str,
        /// Label of the rejected policy.
        policy: &'static str,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::NetworkTooSmall { requested, minimum } => write!(
                f,
                "network size {requested} is too small (minimum supported is {minimum})"
            ),
            ModelError::InvalidDegree { requested } => {
                write!(f, "out-degree {requested} is invalid (must be at least 1)")
            }
            ModelError::InvalidRate { parameter, value } => write!(
                f,
                "rate parameter {parameter} = {value} is invalid (must be finite and positive)"
            ),
            ModelError::InvalidAttempts { requested } => write!(
                f,
                "attempts-per-round {requested} is invalid (must be at least 1)"
            ),
            ModelError::InvalidCapacityFactor { value } => write!(
                f,
                "capacity factor c = {value} is invalid (must be finite and at least 1)"
            ),
            ModelError::UnsupportedVictimPolicy { kind, policy } => write!(
                f,
                "victim policy {policy} is not supported by model kind {kind} \
                 (streaming churn kills deterministically oldest-first)"
            ),
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ModelError::NetworkTooSmall {
            requested: 1,
            minimum: 2,
        };
        assert!(e.to_string().contains("too small"));
        let e = ModelError::InvalidDegree { requested: 0 };
        assert!(e.to_string().contains("out-degree"));
        let e = ModelError::InvalidRate {
            parameter: "lambda",
            value: -1.0,
        };
        assert!(e.to_string().contains("lambda"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<ModelError>();
    }
}
