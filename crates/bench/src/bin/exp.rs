//! The single experiment runner over the scenario registry.
//!
//! ```text
//! exp list                          # registered scenarios (+ series support)
//! exp run <name> [<name>…]         # run scenarios (full preset)
//! exp run --all                    # run every registered scenario
//!   --smoke                        # tiny-n smoke grids (CI runs this per PR)
//!   --resume                       # skip cells already in the checkpoint
//!   --series                       # record per-round series + phase profiles
//!   --out <dir>                    # output directory (default: results/)
//! exp report <name> [<name>…]      # regenerate the verdict report from the
//!   [--smoke] [--out <dir>]        # stored records — no cell is re-run
//! ```
//!
//! Every run streams one JSON record per completed cell to
//! `<out>/<name>.jsonl` (`.smoke.jsonl` on the smoke preset). Cells already
//! present in the file are skipped under `--resume`; because cell identity
//! is the deterministic per-cell seed and every engine is thread-count
//! independent, a resumed file is bit-identical to an uninterrupted run.
//!
//! Runs keep going past trouble: a panicking cell is caught and recorded in
//! the scenario's `.failures.jsonl` side file, the rest of the grid (and
//! every later scenario of a multi-scenario invocation) still runs, and the
//! process exits non-zero after printing an end-of-run failure summary —
//! `--resume` then retries exactly the failed cells.

use std::path::PathBuf;
use std::process::ExitCode;

use churn_bench::scenarios;
use churn_sim::scenario::{scenario_series_path, GridPreset, RunOptions};

fn usage() -> ExitCode {
    eprintln!(
        "usage: exp list\n       exp run <name>… | --all  [--smoke] [--resume] [--series] [--out <dir>]\n       exp report <name>… | --all  [--smoke] [--out <dir>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = scenarios::registry();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<22} {:<21} {:>5} {:>5} {:<6}  title",
                "name", "measurement", "full", "smoke", "series"
            );
            let full_opts = RunOptions::default();
            let smoke_opts = RunOptions {
                preset: GridPreset::Smoke,
                ..RunOptions::default()
            };
            for scenario in registry.scenarios() {
                // "series" column: `-` when the measurement has no per-round
                // output, `yes` when `--series` would record one, `disk` when
                // a .series.jsonl file from an earlier run is present.
                let series = if !scenario.measurement().supports_series() {
                    "-"
                } else if scenario_series_path(scenario, &full_opts).exists()
                    || scenario_series_path(scenario, &smoke_opts).exists()
                {
                    "disk"
                } else {
                    "yes"
                };
                println!(
                    "{:<22} {:<21} {:>5} {:>5} {:<6}  {}",
                    scenario.name(),
                    scenario.measurement().kind(),
                    scenario.cells(GridPreset::Full).len(),
                    scenario.cells(GridPreset::Smoke).len(),
                    series,
                    scenario.title()
                );
                if scenario.has_fault_axis() {
                    let labels: Vec<String> = scenario
                        .fault_axis()
                        .iter()
                        .map(churn_sim::scenario::FaultSpec::label)
                        .collect();
                    println!(
                        "{:<22} {:<21} {:>5} {:>5} {:<6}  faults: {}",
                        "",
                        "",
                        "",
                        "",
                        "",
                        labels.join(", ")
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let mut names: Vec<String> = Vec::new();
            let mut all = false;
            let mut opts = RunOptions::default();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--all" => all = true,
                    "--smoke" => opts.preset = GridPreset::Smoke,
                    "--resume" => opts.resume = true,
                    "--series" => opts.series = true,
                    "--out" => match rest.next() {
                        Some(dir) => opts.dir = PathBuf::from(dir),
                        None => return usage(),
                    },
                    name if !name.starts_with('-') => names.push(name.to_string()),
                    _ => return usage(),
                }
            }
            if all {
                names = registry.names().into_iter().map(str::to_string).collect();
            }
            if names.is_empty() {
                return usage();
            }
            for name in &names {
                if registry.get(name).is_none() {
                    eprintln!("unknown scenario {name:?}; `exp list` shows the registry");
                    return ExitCode::FAILURE;
                }
            }
            let mut failures: Vec<(String, usize)> = Vec::new();
            let mut shed: Vec<(String, usize)> = Vec::new();
            for name in &names {
                let outcome = scenarios::run_and_report(&registry, name, &opts);
                // Retry-budget exhaustion is in-band graceful degradation:
                // the cell completed and recorded how many repairs it shed.
                // Keep it out of the exit code but visible in the summary.
                let exhausted = outcome
                    .records
                    .iter()
                    .filter(|r| r.metric("retries_exhausted").is_some_and(|v| v > 0.0))
                    .count();
                if exhausted > 0 {
                    shed.push((name.clone(), exhausted));
                }
                if !outcome.failures.is_empty() {
                    failures.push((name.clone(), outcome.failures.len()));
                }
            }
            if !failures.is_empty() || !shed.is_empty() {
                eprintln!("failure summary:");
                for (name, count) in &shed {
                    eprintln!(
                        "  {name}: {count} cell(s) exhausted a retry budget \
                         (in-band: completed, shed repairs counted in `retries_exhausted`)"
                    );
                }
                for (name, count) in &failures {
                    eprintln!(
                        "  {name}: {count} cell(s) panicked (see the .failures.jsonl side file)"
                    );
                }
            }
            if failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("rerun with --resume to retry exactly the failed cells");
                ExitCode::FAILURE
            }
        }
        Some("report") => {
            let mut names: Vec<String> = Vec::new();
            let mut all = false;
            let mut opts = RunOptions::default();
            let mut rest = args[1..].iter();
            while let Some(arg) = rest.next() {
                match arg.as_str() {
                    "--all" => all = true,
                    "--smoke" => opts.preset = GridPreset::Smoke,
                    "--out" => match rest.next() {
                        Some(dir) => opts.dir = PathBuf::from(dir),
                        None => return usage(),
                    },
                    name if !name.starts_with('-') => names.push(name.to_string()),
                    _ => return usage(),
                }
            }
            if all {
                names = registry.names().into_iter().map(str::to_string).collect();
            }
            if names.is_empty() {
                return usage();
            }
            let mut failed = false;
            for name in &names {
                match scenarios::report_from_disk(&registry, name, &opts) {
                    Ok(report) => {
                        let title = registry
                            .get(name)
                            .map_or_else(|| name.clone(), |s| s.title().to_string());
                        let artifact = registry
                            .get(name)
                            .map_or("", |s| s.reproduced_artifact())
                            .to_string();
                        churn_bench::print_report(
                            &title,
                            &artifact,
                            opts.preset,
                            &report.tables,
                            std::slice::from_ref(&report.comparisons),
                        );
                        if !report.all_hold() {
                            failed = true;
                        }
                    }
                    Err(message) => {
                        eprintln!("report {name}: {message}");
                        failed = true;
                    }
                }
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => usage(),
    }
}
