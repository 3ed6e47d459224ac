//! Per-round observation plumbing over the graph's change feed.
//!
//! Experiment bodies that maintain incremental observers (`churn-observe`'s
//! metric and isolation trackers) all need the same loop: enable
//! [`churn_graph::GraphDelta`] recording, advance the model one
//! message-delay unit, drain the recorded window into a reused buffer, and
//! hand `(round, model, summary, delta)` to the observers. This module is
//! that loop, written once, with the buffer reuse (steady-state observation
//! allocates nothing in the harness) and the enable-after-warm-up footgun
//! handled in one place.

use churn_core::{ChurnSummary, DynamicNetwork, GraphDelta};

/// Advances `model` by `rounds` message-delay units with delta recording
/// enabled, invoking `observer(round, model, summary, delta)` after every
/// unit. Rounds are numbered from 1.
///
/// Recording is restarted on entry — any window recorded *before* the call
/// (a warm-up performed with recording enabled, a half-drained window) is
/// **discarded**, so a stale giant delta can never leak into the first
/// observed round. The flip side: consecutive `observe_rounds` calls over
/// one model compose only while the model is *not mutated in between* —
/// mutations between calls land in the discarded window and observers that
/// were already attached silently desynchronise. If the model must advance
/// between observation windows, either rebuild the observers from the graph
/// (`LiveMetrics::new`, `LifetimeIsolation::start`) or drain the graph's
/// delta manually instead of relying on this helper. Recording is left
/// enabled on exit; call `model.graph_mut().set_delta_recording(false)` to
/// detach.
///
/// Observers built from the graph between the model's last mutation and
/// this call (e.g. `LiveMetrics::new`) see exactly the windows their
/// `apply` expects.
///
/// Only a value read after every round needs an observer; a value read at
/// a few sample points is cheaper to compute from the graph at the read
/// (`Snapshot::of`), with the model advanced by plain `advance_time_unit`
/// calls in between.
pub fn observe_rounds<M, F>(model: &mut M, rounds: u64, mut observer: F)
where
    M: DynamicNetwork + ?Sized,
    F: FnMut(u64, &M, &ChurnSummary, &GraphDelta),
{
    // Restart recording so a stale half-window from before the call cannot
    // desynchronise the observers.
    model.graph_mut().set_delta_recording(false);
    model.graph_mut().set_delta_recording(true);
    let mut delta = GraphDelta::new();
    for round in 1..=rounds {
        let summary = {
            let _churn = churn_telemetry::span("churn");
            model.advance_time_unit()
        };
        model.graph_mut().take_delta_into(&mut delta);
        let _observe = churn_telemetry::span("observe");
        observer(round, &*model, &summary, &delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_core::ModelKind;

    #[test]
    fn observer_sees_every_round_with_matching_lifecycle_events() {
        let mut model = ModelKind::Sdgr.build(32, 3, 5).unwrap();
        model.warm_up();
        let mut seen = Vec::new();
        observe_rounds(&mut model, 10, |round, m, summary, delta| {
            // Streaming: one birth and one death per warm round, visible in
            // both the summary and the delta.
            assert_eq!(summary.births.len(), 1);
            assert_eq!(summary.deaths.len(), 1);
            assert_eq!(delta.births.len(), 1);
            assert_eq!(delta.deaths.len(), 1);
            assert_eq!(delta.births[0].1, summary.births[0]);
            assert_eq!(delta.deaths[0].1, summary.deaths[0]);
            assert!(!delta.dirty.is_empty());
            assert_eq!(m.alive_count(), 32);
            seen.push(round);
        });
        assert_eq!(seen, (1..=10).collect::<Vec<_>>());
        assert!(
            model.graph().delta_recording(),
            "recording stays enabled so an immediate follow-up window \
             (no mutations in between) continues seamlessly"
        );
    }

    #[test]
    fn warm_up_churn_never_leaks_into_the_first_window() {
        let mut model = ModelKind::Pdg.build(64, 2, 6).unwrap();
        // Pathological caller: recording enabled across the warm-up.
        model.graph_mut().set_delta_recording(true);
        model.warm_up();
        observe_rounds(&mut model, 1, |_, _, summary, delta| {
            assert_eq!(
                delta.churn_events(),
                summary.births.len() + summary.deaths.len(),
                "the first observed window must cover exactly one round"
            );
        });
    }
}
