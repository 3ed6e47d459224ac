//! Cross-crate integration tests: models built through the public facade,
//! driven by the scenario engine, measured by the analysis crate.

use dynamic_churn_networks::analysis::{classify_scaling, Comparison, ComparisonSet, ScalingClass};
use dynamic_churn_networks::core::{DynamicNetwork, ModelKind};
use dynamic_churn_networks::sim::scenario::{
    run_scenario, CellRecord, FloodingSpec, Grid, Measurement, NetSpec, RoundBudget, RunOptions,
    Scenario,
};
use dynamic_churn_networks::sim::Aggregate;

/// Runs a scenario's full grid into a scratch directory and returns its
/// records in cell order.
fn run_grid(scenario: &Scenario) -> Vec<CellRecord> {
    let dir = std::env::temp_dir().join(format!(
        "churn-e2e-{}-{}",
        scenario.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = RunOptions {
        dir: dir.clone(),
        ..RunOptions::default()
    };
    let outcome = run_scenario(scenario, &opts).expect("scenario runs");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    std::fs::remove_dir_all(&dir).ok();
    outcome.records
}

/// Mean of `metric` over the records matching `keep`.
fn mean_of(records: &[CellRecord], metric: &str, keep: impl Fn(&CellRecord) -> bool) -> Aggregate {
    let values: Vec<f64> = records
        .iter()
        .filter(|r| keep(r))
        .map(|r| r.metric(metric).expect("metric recorded"))
        .collect();
    Aggregate::from_values(&values)
}

#[test]
fn sweep_over_all_models_flooding_coverage() {
    // One small grid across all four models; the regeneration models must
    // beat the static ones in coverage at equal (n, d).
    let scenario = Scenario::new(
        "integration-coverage",
        "flooding coverage over the four models",
        Measurement::Flooding(FloodingSpec {
            budget: RoundBudget::Fixed(80),
            record_isolation: false,
        }),
    )
    .nets(ModelKind::ALL.map(NetSpec::Baseline))
    .full_grid(Grid::new([192], [6], 3))
    .base_seed(1);

    let records = run_grid(&scenario);
    assert_eq!(records.len(), 4 * 3);

    let coverage =
        |kind: ModelKind| mean_of(&records, "final_fraction", |r| r.net == kind.label()).mean;

    assert!(
        coverage(ModelKind::Sdgr) >= coverage(ModelKind::Sdg),
        "SDGR coverage {} should be at least SDG coverage {}",
        coverage(ModelKind::Sdgr),
        coverage(ModelKind::Sdg)
    );
    assert!(
        coverage(ModelKind::Pdgr) >= coverage(ModelKind::Pdg) - 0.02,
        "PDGR coverage {} should be at least PDG coverage {}",
        coverage(ModelKind::Pdgr),
        coverage(ModelKind::Pdg)
    );
    assert!(coverage(ModelKind::Sdgr) > 0.99);
    assert!(coverage(ModelKind::Pdgr) > 0.99);
}

#[test]
fn flooding_time_of_sdgr_scales_logarithmically_not_linearly() {
    // The shape distinction at the heart of Table 1, measured end to end through
    // the engine and classified by the analysis crate.
    let sizes = [64usize, 128, 256, 512, 1024];
    let scenario = Scenario::new(
        "scaling",
        "SDGR flooding time over n",
        Measurement::Flooding(FloodingSpec {
            budget: RoundBudget::EngineDefault,
            record_isolation: false,
        }),
    )
    .nets([NetSpec::Baseline(ModelKind::Sdgr)])
    .full_grid(Grid::new(sizes, [8], 3))
    .base_seed(7);

    let records = run_grid(&scenario);
    assert!(
        records.iter().all(|r| r.metric("completed") == Some(1.0)),
        "SDGR flooding completes"
    );
    let points: Vec<(f64, f64)> = sizes
        .iter()
        .map(|&n| {
            let mean = mean_of(&records, "flooding_rounds", |r| r.n == n).mean;
            (n as f64, mean)
        })
        .collect();

    // Flooding time grows with n but far slower than linearly.
    let first = points.first().unwrap().1;
    let last = points.last().unwrap().1;
    assert!(last >= first, "flooding time should not shrink with n");
    assert!(
        last <= 4.0 * first + 8.0,
        "a 16x larger network should cost only a few extra rounds (got {first} -> {last})"
    );
    assert_ne!(
        classify_scaling(&points),
        ScalingClass::Linear,
        "SDGR flooding time must not look linear in n: {points:?}"
    );
}

#[test]
fn comparison_set_renders_measured_sweep() {
    // The reporting pipeline used by `exp report`, end to end.
    let nets = [ModelKind::Sdg, ModelKind::Sdgr];
    let scenario = Scenario::new("report", "isolated nodes", Measurement::Isolation)
        .nets(nets.map(NetSpec::Baseline))
        .full_grid(Grid::new([128], [4], 2))
        .base_seed(3);
    let records = run_grid(&scenario);

    let mut set = ComparisonSet::new("integration — isolated nodes");
    for kind in nets {
        let agg = mean_of(&records, "isolated_fraction", |r| r.net == kind.label());
        assert_eq!(agg.count, 2);
        let regenerates = kind.label().ends_with('R');
        set.push(Comparison::new(
            format!("isolated fraction, {kind} n=128 d=4"),
            if regenerates {
                "Theorem 3.15"
            } else {
                "Lemma 3.5"
            },
            if regenerates { "0" } else { "> 0" },
            format!("{:.4}", agg.mean),
            if regenerates {
                agg.mean == 0.0
            } else {
                agg.mean > 0.0
            },
        ));
    }
    assert_eq!(set.len(), 2);
    assert!(set.all_hold(), "{}", set.to_markdown());
    let markdown = set.to_markdown();
    assert!(markdown.contains("SDG") && markdown.contains("SDGR"));
}

#[test]
fn facade_reexports_are_usable_together() {
    // Types from different member crates interoperate through the facade.
    use dynamic_churn_networks::graph::Snapshot;
    use dynamic_churn_networks::stochastic::rng::seeded_rng;

    let mut model = ModelKind::Pdgr.build(96, 5, 11).unwrap();
    model.warm_up();
    let snapshot = Snapshot::of(model.graph());
    assert_eq!(snapshot.len(), model.alive_count());

    let mut rng = seeded_rng(0);
    let estimate = dynamic_churn_networks::graph::expansion::ExpansionEstimator::new(
        dynamic_churn_networks::graph::expansion::ExpansionConfig::fast(),
    )
    .estimate(&snapshot, 1, snapshot.len() / 2, &mut rng);
    assert!(estimate.value().unwrap() > 0.0, "PDGR snapshots expand");
}
