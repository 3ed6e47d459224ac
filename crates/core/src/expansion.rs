//! Vertex-expansion measurements on dynamic network snapshots.
//!
//! Bridges the models of this crate with the candidate-set expansion estimator
//! of [`churn_graph::expansion`], pre-configuring the size ranges the paper's
//! statements are about:
//!
//! * [`SizeRange::Full`] — all sets with `1 ≤ |S| ≤ n/2`, the range of the
//!   regeneration-model expansion theorems (3.15 and 4.16);
//! * [`SizeRange::LargeSets`] — only sets with `n·e^{−d/10} ≤ |S| ≤ n/2`
//!   (streaming) or `n·e^{−d/20} ≤ |S| ≤ n/2` (Poisson), the weaker property
//!   that still holds *without* regeneration (Lemmas 3.6 and 4.11);
//! * [`SizeRange::Custom`] — any explicit range.

use rand::Rng;

use churn_graph::expansion::{ExpansionConfig, ExpansionEstimate, ExpansionEstimator};

use crate::model::DynamicNetwork;

/// Which subset sizes an expansion measurement ranges over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeRange {
    /// Every size from 1 to `n/2` (Theorems 3.15 / 4.16).
    Full,
    /// Only "large" sets, from the paper's `n·e^{−d/10}` (streaming) or
    /// `n·e^{−d/20}` (Poisson) up to `n/2` (Lemmas 3.6 / 4.11).
    LargeSets,
    /// An explicit `[min, max]` size range.
    Custom {
        /// Smallest set size considered.
        min: usize,
        /// Largest set size considered.
        max: usize,
    },
}

impl SizeRange {
    /// Resolves the range to concrete `(min, max)` bounds for a model's current
    /// snapshot size.
    #[must_use]
    pub fn bounds<M: DynamicNetwork>(&self, model: &M) -> (usize, usize) {
        self.bounds_for(
            model.alive_count(),
            model.degree_parameter(),
            model.has_streaming_churn(),
        )
    }

    /// Resolves the range from raw parameters — for callers measuring on a
    /// snapshot maintained *outside* the model (e.g. an incrementally patched
    /// `churn-observe` snapshot) where no model reference is at hand.
    #[must_use]
    pub fn bounds_for(&self, alive: usize, d: usize, streaming_churn: bool) -> (usize, usize) {
        let half = (alive / 2).max(1);
        match *self {
            SizeRange::Full => (1, half),
            SizeRange::LargeSets => {
                let d = d as f64;
                let exponent = if streaming_churn {
                    -d / 10.0
                } else {
                    -d / 20.0
                };
                let min = (alive as f64 * exponent.exp()).ceil() as usize;
                (min.clamp(1, half), half)
            }
            SizeRange::Custom { min, max } => (min.max(1), max.min(half).max(1)),
        }
    }
}

/// Result of one expansion measurement on one snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionReport {
    /// The underlying candidate-set estimate.
    pub estimate: ExpansionEstimate,
    /// Number of alive nodes in the measured snapshot.
    pub alive: usize,
    /// The concrete `(min, max)` size bounds that were searched.
    pub size_bounds: (usize, usize),
    /// Model time of the measurement.
    pub time: f64,
}

impl ExpansionReport {
    /// The estimated minimum expansion ratio (an upper bound on `h_out` over the
    /// searched range), or `None` when the range was empty.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.estimate.value()
    }
}

/// Measures the vertex expansion of the model's current snapshot over the given
/// size range.
pub fn measure_expansion<M: DynamicNetwork, R: Rng + ?Sized>(
    model: &M,
    range: SizeRange,
    config: &ExpansionConfig,
    rng: &mut R,
) -> ExpansionReport {
    let snapshot = model.snapshot();
    let (min, max) = range.bounds(model);
    measure_expansion_on(&snapshot, (min, max), config, rng, model.time())
}

/// Measures the vertex expansion of a caller-supplied snapshot over explicit
/// size bounds (resolve them with [`SizeRange::bounds_for`]).
///
/// This is the entry point for observation pipelines that keep the snapshot
/// *incremental* (`churn-observe`): the per-round maintenance stays O(churn)
/// and only an actual expansion measurement pays the materialisation — the
/// model is never asked to rebuild a CSR view it already has.
pub fn measure_expansion_on<R: Rng + ?Sized>(
    snapshot: &churn_graph::Snapshot,
    bounds: (usize, usize),
    config: &ExpansionConfig,
    rng: &mut R,
    time: f64,
) -> ExpansionReport {
    let (min, max) = bounds;
    let estimate = ExpansionEstimator::new(config.clone()).estimate(snapshot, min, max, rng);
    ExpansionReport {
        estimate,
        alive: snapshot.len(),
        size_bounds: (min, max),
        time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DynamicNetwork, EdgePolicy, StreamingConfig, StreamingModel};
    use churn_stochastic::rng::seeded_rng;

    fn warm_model(n: usize, d: usize, policy: EdgePolicy, seed: u64) -> StreamingModel {
        let mut m =
            StreamingModel::new(StreamingConfig::new(n, d).edge_policy(policy).seed(seed)).unwrap();
        m.warm_up();
        for _ in 0..n {
            m.advance_time_unit();
        }
        m
    }

    #[test]
    fn size_range_bounds_are_sane() {
        let model = warm_model(200, 10, EdgePolicy::Static, 1);
        let (min, max) = SizeRange::Full.bounds(&model);
        assert_eq!((min, max), (1, 100));
        let (min, max) = SizeRange::LargeSets.bounds(&model);
        assert!(min >= 1 && min <= max);
        // e^{-1} * 200 ≈ 74 for d = 10 in the streaming model.
        assert!((70..=80).contains(&min), "large-set lower bound {min}");
        let (min, max) = SizeRange::Custom { min: 5, max: 5000 }.bounds(&model);
        assert_eq!((min, max), (5, 100));
    }

    #[test]
    fn sdgr_full_range_expansion_beats_sdg() {
        // The qualitative heart of Table 1: with regeneration every snapshot
        // expands, without it the isolated nodes destroy full-range expansion.
        let mut rng = seeded_rng(7);
        let config = ExpansionConfig::fast();
        let sdg = warm_model(300, 4, EdgePolicy::Static, 2);
        let sdgr = warm_model(300, 4, EdgePolicy::Regenerate, 2);
        let sdg_report = measure_expansion(&sdg, SizeRange::Full, &config, &mut rng);
        let sdgr_report = measure_expansion(&sdgr, SizeRange::Full, &config, &mut rng);
        let sdg_value = sdg_report.value().unwrap();
        let sdgr_value = sdgr_report.value().unwrap();
        assert!(
            sdgr_value > sdg_value,
            "SDGR expansion ({sdgr_value}) should exceed SDG expansion ({sdg_value})"
        );
        assert_eq!(
            sdg_value, 0.0,
            "SDG with d = 4 contains isolated nodes, so the full-range minimum is 0"
        );
    }

    #[test]
    fn large_set_range_hides_isolated_nodes() {
        // Lemma 3.6: even SDG expands once sets smaller than n e^{-d/10} are
        // excluded (isolated singletons are below the threshold for small d...
        // here we use d large enough that the threshold is tiny but singletons
        // are still excluded because min size > 1).
        let model = warm_model(300, 24, EdgePolicy::Static, 3);
        let mut rng = seeded_rng(8);
        let report = measure_expansion(
            &model,
            SizeRange::LargeSets,
            &ExpansionConfig::fast(),
            &mut rng,
        );
        let value = report.value().unwrap();
        assert!(
            value > 0.0,
            "large subsets of a d = 24 SDG snapshot should expand, got {value}"
        );
        assert!(report.size_bounds.0 > 1);
    }
}
