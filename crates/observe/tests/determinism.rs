//! Determinism suite: the live trackers match their from-scratch
//! recomputation at every round, for all five `ModelKind`s (the four paper
//! baselines plus the RAES protocol model on both churn drivers), and the
//! lifecycle trackers agree with the pre-existing O(n)-per-round analyses.

use churn_core::flooding::{FloodingProcess, FloodingSource};
use churn_core::isolated::lifetime_isolation_report;
use churn_core::{DynamicNetwork, GraphDelta, ModelKind, Snapshot};
use churn_observe::{IncrementalSnapshot, InformedOverlap, LifetimeIsolation, LiveMetrics};
use churn_protocol::{ChurnDriver, RaesConfig, RaesModel};

/// Drives `model` for `rounds` rounds with observers attached, asserting the
/// tracker state matches a from-scratch recomputation after every round and
/// the incremental snapshot materialises exactly per checkpoint.
fn assert_observers_track<M: DynamicNetwork>(model: &mut M, rounds: u64, label: &str) {
    model.graph_mut().set_delta_recording(true);
    let mut inc = IncrementalSnapshot::new(model.graph()).with_threads(2);
    let mut metrics = LiveMetrics::new(model.graph());
    let mut delta = GraphDelta::new();
    for round in 1..=rounds {
        model.advance_time_unit();
        model.graph_mut().take_delta_into(&mut delta);
        inc.apply(model.graph(), &delta);
        metrics.apply(model.graph(), &delta);

        let fresh = LiveMetrics::new(model.graph());
        assert_eq!(
            metrics.summary(),
            fresh.summary(),
            "{label}: tracker diverged at round {round}"
        );
        assert_eq!(metrics.alive(), model.alive_count(), "{label}");
        assert_eq!(
            inc.to_snapshot(),
            Snapshot::of(model.graph()),
            "{label}: incremental snapshot diverged at round {round}"
        );
    }
}

#[test]
fn trackers_match_from_scratch_for_all_five_model_kinds() {
    for kind in ModelKind::ALL {
        let mut model = kind.build(60, 3, 0xD5).expect("valid parameters");
        model.warm_up();
        assert_observers_track(&mut model, 40, kind.label());
    }
    for churn in [ChurnDriver::Streaming, ChurnDriver::Poisson] {
        let mut model = RaesModel::new(RaesConfig::new(60, 3).churn(churn).seed(0xD5))
            .expect("valid parameters");
        model.warm_up();
        assert_observers_track(&mut model, 40, &format!("RAES/{churn}"));
    }
}

#[test]
fn raes_cap_occupancy_is_tracked_live() {
    // Tight capacity (c = 1) keeps nodes pinned at the cap, so the
    // saturated count is non-trivial.
    let mut model = RaesModel::new(
        RaesConfig::new(60, 4)
            .capacity_factor(1.0)
            .seed(7)
            .churn(ChurnDriver::Streaming),
    )
    .unwrap();
    model.warm_up();
    model.graph_mut().set_delta_recording(true);
    let cap = model.in_degree_cap();
    let mut metrics = LiveMetrics::new(model.graph());
    let mut delta = GraphDelta::new();
    let mut saw_saturation = false;
    for _ in 0..80 {
        model.advance_time_unit();
        model.graph_mut().take_delta_into(&mut delta);
        metrics.apply(model.graph(), &delta);
        assert!(metrics.max_in_requests() <= cap, "cap must hold");
        let expected = model
            .graph()
            .member_indices()
            .iter()
            .filter(|&&idx| model.graph().in_request_count_at(idx).unwrap() >= cap)
            .count();
        assert_eq!(metrics.saturated_count(cap), expected);
        saw_saturation |= expected > 0;
    }
    assert!(saw_saturation, "tight capacity must exercise the cap");
}

#[test]
fn lifetime_isolation_tracker_matches_report_on_streaming_churn() {
    // Streaming churn: one death + one birth per round, so the tracker's
    // event-level view and the report's round-boundary view coincide exactly.
    let mut model = ModelKind::Sdg.build(200, 2, 11).unwrap();
    model.warm_up();
    let horizon = 200u64;
    let report = lifetime_isolation_report(&model, horizon);

    let mut future = model.clone();
    future.graph_mut().set_delta_recording(true);
    let tracker = LifetimeIsolation::start(future.graph());
    assert_eq!(
        tracker.initial_isolated(),
        report.isolated_now.as_slice(),
        "initial censuses must agree"
    );
    let mut tracker = tracker;
    let mut delta = GraphDelta::new();
    for _ in 0..horizon {
        if tracker.remaining_candidates() == 0 {
            break;
        }
        future.advance_time_unit();
        future.graph_mut().take_delta_into(&mut delta);
        tracker.apply(future.graph(), &delta);
    }
    let lifetime = tracker.finish(future.graph());
    assert_eq!(
        lifetime, report.lifetime_isolated,
        "O(churn) tracker must reproduce the O(candidates)-per-round report"
    );
    assert!(
        !report.isolated_now.is_empty(),
        "a warm SDG network at d = 2 should have isolated nodes to track"
    );
}

#[test]
fn lifetime_isolation_tracker_matches_report_on_poisson_churn() {
    // Poisson time units span many events, but the tracker reconciles each
    // window against its final state — the same granularity as the per-unit
    // boundary rescan — so the two computations agree exactly here too.
    let mut model = ModelKind::Pdg.build(200, 2, 12).unwrap();
    model.warm_up();
    let horizon = 150u64;
    let report = lifetime_isolation_report(&model, horizon);

    let mut future = model.clone();
    future.graph_mut().set_delta_recording(true);
    let mut tracker = LifetimeIsolation::start(future.graph());
    let mut delta = GraphDelta::new();
    for _ in 0..horizon {
        future.advance_time_unit();
        future.graph_mut().take_delta_into(&mut delta);
        tracker.apply(future.graph(), &delta);
    }
    let lifetime = tracker.finish(future.graph());
    assert_eq!(
        lifetime, report.lifetime_isolated,
        "tracker must match the round-boundary report at window granularity"
    );
    assert!(
        !report.isolated_now.is_empty(),
        "a warm PDG network at d = 2 should have isolated nodes to track"
    );
}

#[test]
fn informed_overlap_tracks_flooding_informed_count() {
    let mut model = ModelKind::Sdgr.build(128, 5, 13).unwrap();
    model.warm_up();
    model.graph_mut().set_delta_recording(true);
    let mut process = FloodingProcess::start(&mut model, FloodingSource::Newest, 1);
    // Starting the process may advance the model; drop whatever churn that
    // recorded before wiring the tracker.
    let mut delta = GraphDelta::new();
    model.graph_mut().take_delta_into(&mut delta);
    let mut overlap = InformedOverlap::new();
    for idx in process.informed_dense() {
        overlap.mark(idx);
    }
    for _ in 0..40 {
        let stats = process.step(&mut model);
        model.graph_mut().take_delta_into(&mut delta);
        // Deaths first, then the round's new marks: a recycled cell whose
        // newborn got informed in the same round must survive.
        overlap.apply(&delta);
        for idx in process.newly_informed_dense() {
            overlap.mark(idx);
        }
        assert_eq!(overlap.informed_alive(), process.informed_count());
        assert!((overlap.overlap_fraction(stats.alive) - stats.informed_fraction()).abs() < 1e-12);
        if stats.complete {
            break;
        }
    }
    assert!(process.is_complete(), "SDGR flooding should complete");
}
