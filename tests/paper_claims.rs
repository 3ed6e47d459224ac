//! Integration tests checking the qualitative content of the paper's Table 1 at
//! small scale: every cell's *direction* (who has isolated nodes, who expands,
//! who completes flooding, who merely reaches most nodes) must be reproduced.
//!
//! These are deliberately modest in size so they run in seconds; the full-size
//! reproductions live in the `churn-bench` experiment binaries.

use dynamic_churn_networks::core::expansion::{measure_expansion, SizeRange};
use dynamic_churn_networks::core::flooding::{run_flooding, FloodingConfig, FloodingSource};
use dynamic_churn_networks::core::isolated::{isolated_now, lifetime_isolation_report};
use dynamic_churn_networks::core::theory;
use dynamic_churn_networks::core::{DynamicNetwork, ModelKind};
use dynamic_churn_networks::graph::expansion::ExpansionConfig;
use dynamic_churn_networks::stochastic::rng::seeded_rng;

/// Lemma 3.5 / 4.10 (Table 1, top-left): the models without edge regeneration
/// have isolated nodes, and a sizable share of them stay isolated for life.
#[test]
fn without_regeneration_isolated_nodes_exist_and_persist() {
    for kind in [ModelKind::Sdg, ModelKind::Pdg] {
        let mut model = kind.build(256, 2, 5).unwrap();
        model.warm_up();
        let report = lifetime_isolation_report(&model, 256);
        assert!(
            !report.isolated_now.is_empty(),
            "{kind}: expected isolated nodes at d = 2"
        );
        assert!(
            !report.lifetime_isolated.is_empty(),
            "{kind}: some isolated nodes should remain isolated for life"
        );
        // The paper's lower bound e^{-2d}/6 (or /18) is far below the measured
        // value, so it must certainly be satisfied.
        let bound = if kind.is_streaming() {
            theory::isolated_fraction_streaming(2)
        } else {
            theory::isolated_fraction_poisson(2)
        };
        assert!(
            report.isolated_fraction() >= bound,
            "{kind}: measured isolated fraction {} below the paper bound {bound}",
            report.isolated_fraction()
        );
    }
}

/// Theorems 3.15 / 4.16 (Table 1, right column): with edge regeneration no node
/// is ever isolated and snapshots expand.
#[test]
fn with_regeneration_no_isolated_nodes_and_snapshots_expand() {
    let mut rng = seeded_rng(1);
    for kind in [ModelKind::Sdgr, ModelKind::Pdgr] {
        let mut model = kind.build(256, 8, 6).unwrap();
        model.warm_up();
        assert!(
            isolated_now(&model).is_empty(),
            "{kind}: regeneration keeps every node connected"
        );
        let report = measure_expansion(
            &model,
            SizeRange::Full,
            &ExpansionConfig::default(),
            &mut rng,
        );
        let value = report.value().unwrap();
        assert!(
            value >= theory::EXPANSION_THRESHOLD,
            "{kind}: estimated expansion {value} below the paper's 0.1 threshold"
        );
    }
}

/// Lemmas 3.6 / 4.11 (Table 1, bottom-left positive part): even without
/// regeneration, *large* subsets expand.
#[test]
fn without_regeneration_large_subsets_still_expand() {
    let mut rng = seeded_rng(2);
    for kind in [ModelKind::Sdg, ModelKind::Pdg] {
        let mut model = kind.build(256, 20, 7).unwrap();
        model.warm_up();
        let full = measure_expansion(
            &model,
            SizeRange::Full,
            &ExpansionConfig::default(),
            &mut rng,
        );
        let large = measure_expansion(
            &model,
            SizeRange::LargeSets,
            &ExpansionConfig::default(),
            &mut rng,
        );
        let large_value = large.value().unwrap();
        assert!(
            large_value > 0.0,
            "{kind}: large subsets should expand, got {large_value}"
        );
        // Note: the full-range and large-set estimates come from independent
        // candidate searches, so they are not directly comparable run to run;
        // the quantitative comparison lives in experiment E2.
        let _ = full;
    }
}

/// Theorems 3.16 / 4.20 (Table 1, bottom-right): with regeneration flooding
/// completes, and it does so in a number of rounds consistent with O(log n).
#[test]
fn with_regeneration_flooding_completes_fast() {
    for kind in [ModelKind::Sdgr, ModelKind::Pdgr] {
        let mut model = kind.build(256, 8, 8).unwrap();
        model.warm_up();
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            1,
        );
        assert!(
            record.outcome.is_complete(),
            "{kind}: flooding should complete, got {:?}",
            record.outcome
        );
        let rounds = record.outcome.rounds().unwrap();
        assert!(
            rounds as f64 <= theory::logarithmic_flooding_curve(256, 5.0),
            "{kind}: {rounds} rounds is not consistent with O(log n)"
        );
    }
}

/// Theorems 3.8 / 4.13 (Table 1, bottom-left): without regeneration flooding
/// still reaches a large constant fraction of the nodes quickly, and the
/// fraction grows with d.
#[test]
fn without_regeneration_flooding_reaches_most_nodes() {
    for kind in [ModelKind::Sdg, ModelKind::Pdg] {
        let coverage = |d: usize| {
            // Average over a few seeds to smooth out the constant failure
            // probability of Theorem 3.7.
            let mut total = 0.0;
            let seeds = 4;
            for seed in 0..seeds {
                let mut model = kind.build(256, d, 100 + seed).unwrap();
                model.warm_up();
                let record = run_flooding(
                    &mut model,
                    FloodingSource::NextToJoin,
                    &FloodingConfig::with_max_rounds(60),
                    1,
                );
                total += record.final_fraction();
            }
            total / seeds as f64
        };
        let low_d = coverage(2);
        let high_d = coverage(10);
        assert!(
            high_d > 0.85,
            "{kind}: with d = 10 flooding should reach most nodes, got {high_d}"
        );
        assert!(
            high_d >= low_d - 0.05,
            "{kind}: coverage should not degrade as d grows ({low_d} -> {high_d})"
        );
    }
}

/// Theorems 3.7 / 4.12 (Table 1, bottom-left negative part): without
/// regeneration, flooding *can* die out after informing only a handful of
/// nodes, and this actually happens with noticeable probability at small d.
#[test]
fn without_regeneration_flooding_sometimes_dies_out() {
    // A run "dies out" when the informed set never grows past d + 1 nodes.
    // The per-run die-out probability is a constant (Theorems 3.7 / 4.12), so
    // a healthy number of seeds on a network large enough that newborn
    // attachments rarely rescue a stalled broadcast makes this deterministic
    // in practice.
    let mut died_somewhere = false;
    for kind in [ModelKind::Sdg, ModelKind::Pdg] {
        for seed in 0..16 {
            let mut model = kind.build(512, 1, 200 + seed).unwrap();
            model.warm_up();
            let record = run_flooding(
                &mut model,
                FloodingSource::NextToJoin,
                &FloodingConfig::with_max_rounds(60),
                1,
            );
            if record.outcome.is_died_out() {
                died_somewhere = true;
            }
        }
    }
    assert!(
        died_somewhere,
        "with d = 1, at least one of 32 broadcasts should die out"
    );
}

/// Lemma B.1 baseline: the static d-out random graph (no churn at all) is a
/// good expander and floods in O(log n) — the reference point the dynamic
/// models are compared against.
#[test]
fn static_d_out_baseline_expands_and_floods() {
    use dynamic_churn_networks::graph::expansion::{ExpansionConfig, ExpansionEstimator};
    use dynamic_churn_networks::graph::generators::d_out_random_graph;
    use dynamic_churn_networks::graph::traversal::static_flooding_time;
    use dynamic_churn_networks::graph::Snapshot;

    let mut rng = seeded_rng(3);
    let graph = d_out_random_graph(512, 3, &mut rng);
    let snapshot = Snapshot::of(&graph);
    let estimate = ExpansionEstimator::new(ExpansionConfig::default()).estimate(
        &snapshot,
        1,
        snapshot.len() / 2,
        &mut rng,
    );
    assert!(
        estimate.value().unwrap() > 0.0,
        "the 3-out static random graph is an expander (Lemma B.1)"
    );
    let flood_time = static_flooding_time(&snapshot, 0).expect("connected graph");
    assert!(
        (flood_time as f64) <= 4.0 * (512.0f64).log2(),
        "static flooding time {flood_time} should be O(log n)"
    );
}

/// Lemmas 4.4 / 4.7: the Poisson population concentrates in [0.9n, 1.1n] and
/// birth/death events are near-balanced after warm-up.
#[test]
fn poisson_churn_demographics_match_lemmas() {
    use dynamic_churn_networks::core::{PoissonConfig, PoissonModel};

    let n = 400usize;
    let mut model = PoissonModel::new(PoissonConfig::with_expected_size(n, 3).seed(9)).unwrap();
    model.warm_up();
    model.advance_until(6.0 * n as f64);

    let (lo, hi) = theory::poisson_population_band(n);
    let mut in_band = 0usize;
    let mut births = 0usize;
    let mut deaths = 0usize;
    let observations = 200;
    for _ in 0..observations {
        let summary = model.advance_time_unit();
        births += summary.births.len();
        deaths += summary.deaths.len();
        let size = model.alive_count() as f64;
        if size >= lo && size <= hi {
            in_band += 1;
        }
    }
    assert!(
        in_band as f64 / observations as f64 > 0.8,
        "population should stay within [0.9n, 1.1n] most of the time ({in_band}/{observations})"
    );
    let death_share = deaths as f64 / (births + deaths) as f64;
    let (plo, phi) = theory::jump_probability_band();
    assert!(
        death_share > plo - 0.05 && death_share < phi + 0.05,
        "death share {death_share} should be near 1/2 (Lemma 4.7)"
    );
}
