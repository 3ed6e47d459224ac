//! Determinism and non-interference suite for the telemetry layer.
//!
//! The per-round series side file is an *observation*, never an input: these
//! tests pin that
//!
//! * `.series.jsonl` replays byte-identically across reruns and across an
//!   interrupted + resumed run (the side file is checkpoint-shaped, keyed by
//!   the same deterministic cell seeds as the main file),
//! * running with series recording **and** the phase-profiler subscriber
//!   attached leaves the main records byte-identical to the recorded E16/E17
//!   golden fixtures — trace recording consumes no randomness and the
//!   subscriber only observes,
//! * no wall-clock key ever leaks into the series file (wall-clock data is
//!   quarantined in the non-checkpointed `.load.jsonl`),
//! * a run without `--series` removes a stale series file, so the side file
//!   on disk always describes the checkpoint next to it,
//! * `exp report` input (`report_from_disk`) rebuilds the verdict tables
//!   from the stored files alone, without rewriting the checkpoint.

use std::fs;
use std::path::PathBuf;

use churn_bench::scenarios::{self, registry};
use churn_sim::scenario::{
    load_series_records, run_scenario, scenario_series_path, GridPreset, RunOptions, Scenario,
};

fn smoke_opts(dir: PathBuf) -> RunOptions {
    RunOptions {
        preset: GridPreset::Smoke,
        dir,
        series: true,
        ..RunOptions::default()
    }
}

fn run_series_smoke(scenario: &Scenario, opts: &RunOptions) -> (Vec<u8>, Vec<u8>) {
    let outcome = run_scenario(scenario, opts).expect("scenario runs");
    assert!(outcome.failures.is_empty());
    let main = fs::read(&outcome.path).expect("main checkpoint written");
    let series_path = scenario_series_path(scenario, opts);
    let series = fs::read(&series_path).expect("series side file written");
    (main, series)
}

#[test]
fn series_files_replay_byte_identically_across_reruns() {
    let registry = registry();
    let scenario = registry.get("flooding-scaling").unwrap();
    let base = std::env::temp_dir().join(format!("churn-series-rerun-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);

    let first = run_series_smoke(scenario, &smoke_opts(base.join("first")));
    let second = run_series_smoke(scenario, &smoke_opts(base.join("second")));
    assert_eq!(first.0, second.0, "main records replay byte-identically");
    assert_eq!(first.1, second.1, "series records replay byte-identically");

    // Wall-clock data never leaks into either checkpoint-shaped file.
    let series_text = String::from_utf8(first.1).unwrap();
    assert!(!series_text.is_empty());
    for key in ["wall_s", "units_per_s", "phases"] {
        assert!(
            !series_text.contains(key),
            "{key} leaked into the series side file"
        );
    }
    // One series line per cell, each parseable and non-empty.
    let opts = smoke_opts(base.join("first"));
    let records = load_series_records(&scenario_series_path(scenario, &opts)).unwrap();
    assert_eq!(records.len(), scenario.cells(GridPreset::Smoke).len());
    assert!(records.iter().all(|r| r.rounds() > 0));
    assert!(records
        .iter()
        .all(|r| r.column("informed_fraction").is_some()));
    fs::remove_dir_all(&base).ok();
}

#[test]
fn interrupted_series_run_resumes_bit_identically() {
    let registry = registry();
    let scenario = registry.get("raes-flooding").unwrap();
    let base = std::env::temp_dir().join(format!("churn-series-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);

    let reference = run_series_smoke(scenario, &smoke_opts(base.join("reference")));

    // Kill after 4 cells, then resume with series still on: carried-over
    // cells must re-emit their recorded series lines verbatim.
    let interrupted = RunOptions {
        limit: Some(4),
        ..smoke_opts(base.join("resumed"))
    };
    let partial = run_scenario(scenario, &interrupted).unwrap();
    assert_eq!(partial.executed, 4);
    let resumed_opts = RunOptions {
        resume: true,
        limit: None,
        ..interrupted
    };
    let resumed = run_scenario(scenario, &resumed_opts).unwrap();
    assert_eq!(resumed.skipped, 4);
    assert_eq!(
        fs::read(&resumed.path).unwrap(),
        reference.0,
        "resumed main records must match an uninterrupted run bit for bit"
    );
    assert_eq!(
        fs::read(scenario_series_path(scenario, &resumed_opts)).unwrap(),
        reference.1,
        "resumed series records must match an uninterrupted run bit for bit"
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn series_and_profiler_leave_the_async_golden_fixtures_byte_identical() {
    // The acceptance gate for "telemetry is an observer": the E16/E17 smoke
    // fixtures were recorded before the telemetry layer existed; replaying
    // them with series recording on (event traces captured, phase-profiler
    // subscriber attached around every cell) must yield the same main-file
    // bytes.
    let registry = registry();
    for (name, fixture) in [
        ("async-flooding", "async-flooding.smoke.jsonl"),
        ("async-raes-load", "async-raes-load.smoke.jsonl"),
    ] {
        let scenario = registry.get(name).unwrap();
        let base = std::env::temp_dir().join(format!("churn-series-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);
        let opts = smoke_opts(base.clone());
        let (main, series) = run_series_smoke(scenario, &opts);
        let fixture_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(fixture);
        assert_eq!(
            main,
            fs::read(&fixture_path).unwrap(),
            "{name} main records must stay byte-identical with telemetry attached"
        );
        assert!(!series.is_empty(), "{name} recorded a series side file");
        fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn series_off_run_removes_a_stale_series_file() {
    let registry = registry();
    let scenario = registry.get("flooding-scaling").unwrap();
    let base = std::env::temp_dir().join(format!("churn-series-stale-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);

    let with_series = smoke_opts(base.clone());
    run_series_smoke(scenario, &with_series);
    let series_path = scenario_series_path(scenario, &with_series);
    assert!(series_path.exists());

    // A series-off rerun (the default) must not leave the stale side file
    // next to a checkpoint it no longer describes.
    let without = RunOptions {
        series: false,
        ..with_series
    };
    run_scenario(scenario, &without).unwrap();
    assert!(
        !series_path.exists(),
        "stale series file must be removed by a series-off run"
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn report_from_disk_rebuilds_verdicts_without_rewriting_the_checkpoint() {
    let registry = registry();
    let scenario = registry.get("flooding-scaling").unwrap();
    let base = std::env::temp_dir().join(format!("churn-series-report-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);

    let opts = smoke_opts(base.clone());
    let (main_before, series_before) = run_series_smoke(scenario, &opts);

    let report = scenarios::report_from_disk(scenario, &opts)
        .expect("report regenerates from the stored files");
    assert_eq!(
        report.tables.len(),
        3,
        "per-point means, the trajectory table from the series file, and \
         the throughput table from the load file"
    );
    assert!(
        report.tables[1].to_markdown().contains("rounds_to_half"),
        "trajectory table carries series-derived metrics"
    );
    assert!(
        report.tables[2].title().contains("machine-dependent"),
        "throughput table is flagged as machine-dependent"
    );
    assert!(
        report.tables[2].to_markdown().contains("units/s"),
        "throughput table carries the rate column"
    );
    assert!(!report.comparisons.is_empty(), "verdict rows derived");
    assert!(report.all_hold(), "flooding completes at smoke sizes");

    // Regeneration is read-only: neither stored file changed.
    let outcome_path = base.join("flooding-scaling.smoke.jsonl");
    assert_eq!(fs::read(&outcome_path).unwrap(), main_before);
    assert_eq!(
        fs::read(scenario_series_path(scenario, &opts)).unwrap(),
        series_before
    );

    // Missing checkpoint → a human-readable error, not a panic.
    let missing = RunOptions {
        dir: base.join("nowhere"),
        ..smoke_opts(base.clone())
    };
    let err = scenarios::report_from_disk(scenario, &missing).unwrap_err();
    assert!(err.contains("run the scenario first"), "{err}");
    fs::remove_dir_all(&base).ok();
}
