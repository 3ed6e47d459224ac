//! Determinism: a fixed seed must reproduce byte-identical trajectories.
//!
//! The slab-indexed graph core iterates everything in dense-index order and
//! samples through the member table, so no hash-map iteration order can leak
//! into model evolution. These tests pin that property: two independent runs
//! from the same configuration must produce identical churn summaries,
//! flooding traces, change feeds and final topologies — on every platform.

use churn_core::flooding::{run_flooding, FloodingConfig, FloodingRecord, FloodingSource};
use churn_core::{ChurnSummary, DynamicNetwork, ModelKind, Snapshot};
use churn_graph::GraphDelta;

/// Advances a freshly built model for `units` time units, returning every
/// per-unit churn summary plus the final snapshot.
fn churn_trace(kind: ModelKind, seed: u64, units: u64) -> (Vec<ChurnSummary>, Snapshot) {
    let mut model = kind.build(96, 4, seed).unwrap();
    model.warm_up();
    let summaries: Vec<ChurnSummary> = (0..units).map(|_| model.advance_time_unit()).collect();
    let snapshot = model.snapshot();
    (summaries, snapshot)
}

fn flooding_trace(kind: ModelKind, seed: u64) -> FloodingRecord {
    let mut model = kind.build(128, 6, seed).unwrap();
    model.warm_up();
    run_flooding(
        &mut model,
        FloodingSource::NextToJoin,
        &FloodingConfig::default(),
    )
}

#[test]
fn same_seed_reproduces_identical_churn_summaries_and_topology() {
    for kind in ModelKind::ALL {
        let (summaries_a, snap_a) = churn_trace(kind, 0xC0FFEE, 64);
        let (summaries_b, snap_b) = churn_trace(kind, 0xC0FFEE, 64);
        assert_eq!(
            summaries_a, summaries_b,
            "{kind}: churn summaries must be identical across runs"
        );
        assert_eq!(
            snap_a, snap_b,
            "{kind}: final topology must be identical across runs"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_flooding_traces() {
    for kind in ModelKind::ALL {
        let record_a = flooding_trace(kind, 7);
        let record_b = flooding_trace(kind, 7);
        assert_eq!(record_a.source, record_b.source, "{kind}: same source");
        assert_eq!(
            record_a.rounds, record_b.rounds,
            "{kind}: per-round flooding stats must be identical across runs"
        );
        assert_eq!(
            record_a.outcome, record_b.outcome,
            "{kind}: flooding outcome must be identical across runs"
        );
    }
}

#[test]
fn same_seed_reproduces_identical_graph_delta_windows() {
    for kind in ModelKind::ALL {
        let run = || {
            let mut model = kind.build(48, 3, 11).unwrap();
            model.graph_mut().set_delta_recording(true);
            let windows: Vec<GraphDelta> = (0..150)
                .map(|_| {
                    model.advance_time_unit();
                    let mut delta = GraphDelta::new();
                    model.graph_mut().take_delta_into(&mut delta);
                    delta
                })
                .collect();
            windows
        };
        let windows = run();
        assert!(
            windows.iter().any(|delta| !delta.deaths.is_empty()),
            "{kind}: the windows recorded deaths"
        );
        assert_eq!(
            windows,
            run(),
            "{kind}: per-unit change feeds must be identical across runs"
        );
    }
}

#[test]
fn different_seeds_still_diverge() {
    // Sanity counterpart: determinism must not come from ignoring the seed.
    for kind in ModelKind::ALL {
        let (_, snap_a) = churn_trace(kind, 1, 64);
        let (_, snap_b) = churn_trace(kind, 2, 64);
        assert_ne!(snap_a, snap_b, "{kind}: different seeds must diverge");
    }
}
