//! Isolated-node census and lifetime-isolation measurement (Lemmas 3.5 and 4.10).
//!
//! In the models *without* edge regeneration a node becomes isolated when all of
//! the `d` requests it opened at birth point at nodes that have meanwhile died
//! and no younger node ever picked it. Lemmas 3.5 and 4.10 show that, w.h.p., a
//! constant fraction of the network (at least `n·e^{−2d}/6` in the streaming
//! model, `n·e^{−2d}/18` in the Poisson model) is isolated *and stays isolated
//! for the rest of its lifetime* — which is why flooding cannot complete
//! quickly in SDG/PDG. This module measures both quantities.

use std::collections::HashSet;

use churn_graph::NodeId;

use crate::model::DynamicNetwork;

/// Result of an isolation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct IsolationReport {
    /// Number of alive nodes at measurement time.
    pub alive: usize,
    /// Nodes with degree zero at measurement time.
    pub isolated_now: Vec<NodeId>,
    /// Subset of `isolated_now` that stayed isolated until they died (or until
    /// the observation horizon expired while they were still isolated).
    pub lifetime_isolated: Vec<NodeId>,
    /// Time units the follow-up observation ran for.
    pub horizon: u64,
}

impl IsolationReport {
    /// Fraction of alive nodes isolated at measurement time.
    #[must_use]
    pub fn isolated_fraction(&self) -> f64 {
        if self.alive == 0 {
            0.0
        } else {
            self.isolated_now.len() as f64 / self.alive as f64
        }
    }
}

/// Identifiers of the nodes currently isolated (degree zero) in the model.
#[must_use]
pub fn isolated_now<M: DynamicNetwork>(model: &M) -> Vec<NodeId> {
    let graph = model.graph();
    let mut isolated: Vec<NodeId> = graph
        .node_ids()
        .filter(|&id| graph.is_isolated(id).unwrap_or(false))
        .collect();
    isolated.sort_unstable();
    isolated
}

/// A reasonable follow-up horizon for [`lifetime_isolation_report`]: the exact
/// residual lifetime bound `n` for streaming models, `5·n` time units (after
/// which only an `e^{−5}` fraction of the observed nodes can still be alive) for
/// Poisson models.
#[must_use]
pub fn default_isolation_horizon<M: DynamicNetwork>(model: &M) -> u64 {
    let n = model.expected_size() as u64;
    if model.has_streaming_churn() {
        n
    } else {
        5 * n
    }
}

/// Measures isolation now and follows the currently isolated nodes forward in
/// time (on a clone of the model, leaving the original untouched) to determine
/// which of them remain isolated for the rest of their lifetime.
///
/// A node counts as *lifetime isolated* if its degree stays zero from the
/// measurement instant until it dies; nodes still alive (and still isolated)
/// when the horizon expires are also counted, since they have been isolated for
/// the entire observation window.
pub fn lifetime_isolation_report<M: DynamicNetwork + Clone>(
    model: &M,
    horizon: u64,
) -> IsolationReport {
    let isolated = isolated_now(model);
    let alive = model.alive_count();

    let mut future = model.clone();
    // Candidates still alive and never seen with positive degree.
    let mut candidates: HashSet<NodeId> = isolated.iter().copied().collect();
    // Candidates that already died while still isolated.
    let mut confirmed: HashSet<NodeId> = HashSet::new();

    for _ in 0..horizon {
        if candidates.is_empty() {
            break;
        }
        let summary = future.advance_time_unit();
        for dead in &summary.deaths {
            if candidates.remove(dead) {
                confirmed.insert(*dead);
            }
        }
        let graph = future.graph();
        candidates.retain(|&id| graph.is_isolated(id).unwrap_or(false));
    }

    // Whatever survived the horizon while remaining isolated also counts.
    confirmed.extend(candidates);
    let mut lifetime: Vec<NodeId> = confirmed.into_iter().collect();
    lifetime.sort_unstable();

    IsolationReport {
        alive,
        isolated_now: isolated,
        lifetime_isolated: lifetime,
        horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        DynamicNetwork, EdgePolicy, PoissonConfig, PoissonModel, StreamingConfig, StreamingModel,
    };

    #[test]
    fn sdg_has_isolated_nodes_but_sdgr_has_none() {
        // Lemma 3.5 vs. Theorem 3.15: without regeneration a constant fraction of
        // nodes is isolated; with regeneration every node keeps d live out-edges
        // so nobody is isolated.
        let n = 300;
        let d = 2;
        let mut sdg = StreamingModel::new(StreamingConfig::new(n, d).seed(1)).unwrap();
        sdg.warm_up();
        for _ in 0..n {
            sdg.advance_time_unit();
        }
        let isolated = isolated_now(&sdg);
        assert!(
            !isolated.is_empty(),
            "a warm SDG network with d = 2 should contain isolated nodes"
        );

        let mut sdgr = StreamingModel::new(
            StreamingConfig::new(n, d)
                .edge_policy(EdgePolicy::Regenerate)
                .seed(1),
        )
        .unwrap();
        sdgr.warm_up();
        for _ in 0..n {
            sdgr.advance_time_unit();
        }
        assert!(
            isolated_now(&sdgr).is_empty(),
            "SDGR nodes always hold d live out-edges"
        );
    }

    #[test]
    fn lifetime_isolation_is_a_subset_of_current_isolation() {
        let mut model = StreamingModel::new(StreamingConfig::new(200, 2).seed(2)).unwrap();
        model.warm_up();
        for _ in 0..200 {
            model.advance_time_unit();
        }
        let report = lifetime_isolation_report(&model, 200);
        let now: HashSet<NodeId> = report.isolated_now.iter().copied().collect();
        for id in &report.lifetime_isolated {
            assert!(now.contains(id));
        }
        assert!(report.lifetime_isolated.len() <= report.isolated_now.len());
        assert!(report.alive == 200);
        assert_eq!(report.horizon, 200);
    }

    #[test]
    fn lifetime_isolation_does_not_mutate_the_original_model() {
        let mut model = StreamingModel::new(StreamingConfig::new(100, 2).seed(3)).unwrap();
        model.warm_up();
        let round_before = model.round();
        let _ = lifetime_isolation_report(&model, 100);
        assert_eq!(model.round(), round_before);
    }

    #[test]
    fn isolated_fraction_grows_as_d_shrinks() {
        // The e^{-2d} scaling of Lemma 3.5: halving d should (greatly) increase
        // the isolated fraction.
        let n = 400;
        let run = |d: usize| {
            let mut m = StreamingModel::new(StreamingConfig::new(n, d).seed(4)).unwrap();
            m.warm_up();
            for _ in 0..n {
                m.advance_time_unit();
            }
            isolated_now(&m).len()
        };
        let isolated_d1 = run(1);
        let isolated_d4 = run(4);
        assert!(
            isolated_d1 > isolated_d4,
            "d = 1 ({isolated_d1} isolated) should isolate more nodes than d = 4 ({isolated_d4})"
        );
    }

    #[test]
    fn pdg_also_exhibits_isolated_nodes() {
        // Lemma 4.10: the Poisson model without regeneration has isolated nodes.
        let mut model =
            PoissonModel::new(PoissonConfig::with_expected_size(300, 2).seed(5)).unwrap();
        model.warm_up();
        let report = lifetime_isolation_report(&model, 50);
        assert!(
            !report.isolated_now.is_empty(),
            "a warm PDG network with d = 2 should contain isolated nodes"
        );
        assert!(report.isolated_fraction() > 0.0);
    }

    #[test]
    fn default_horizon_scales_with_model() {
        let streaming = StreamingModel::new(StreamingConfig::new(100, 2).seed(0)).unwrap();
        assert_eq!(default_isolation_horizon(&streaming), 100);
        let poisson = PoissonModel::new(PoissonConfig::with_expected_size(100, 2).seed(0)).unwrap();
        assert_eq!(default_isolation_horizon(&poisson), 500);
    }

    #[test]
    fn empty_report_fractions_are_zero() {
        let report = IsolationReport {
            alive: 0,
            isolated_now: vec![],
            lifetime_isolated: vec![],
            horizon: 10,
        };
        assert_eq!(report.isolated_fraction(), 0.0);
    }
}
