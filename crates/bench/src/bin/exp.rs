//! The single experiment runner over the scenario registry.
//!
//! ```text
//! exp list                          # registered scenarios (+ series support)
//! exp run <name> [<name>…]         # run scenarios (full preset)
//! exp run --all                    # run every registered scenario
//!   --smoke                        # tiny-n smoke grids (CI runs this per PR)
//!   --large                        # the entries' n = 10^6 rows instead
//!   --resume                       # skip cells already in the checkpoint
//!   --series                       # record per-round series + phase profiles
//!   --out <dir>                    # output directory (default: results/)
//! exp report <name> [<name>…]      # regenerate the verdict report from the
//!   [--smoke|--large] [--out <dir>] # stored records — no cell is re-run
//! ```
//!
//! Every run streams one JSON record per completed cell to
//! `<out>/<name>.jsonl` (`.smoke.jsonl` on the smoke preset, `<name>-1m.jsonl`
//! under `--large`; `--all --large` means every entry that declares large
//! rows). Cells already
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
use churn_sim::scenario::{
    scenario_series_path, GridPreset, RunOptions, Scenario, ScenarioRegistry,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: exp list\n       exp run <name>… | --all  [--smoke|--large] [--resume] [--series] [--out <dir>]\n       exp report <name>… | --all  [--smoke|--large] [--out <dir>]"
    );
    ExitCode::FAILURE
}

/// Parses the arguments of `exp <command>` (`run` or `report`; only `run`
/// takes `--resume` and `--series`) into the scenarios to process, in order,
/// and the run options. On a bad invocation it prints why and returns the
/// exit code.
fn parse<'r>(
    command: &str,
    args: &[String],
    registry: &'r ScenarioRegistry,
) -> Result<(Vec<&'r Scenario>, RunOptions), ExitCode> {
    let mut names: Vec<&str> = Vec::new();
    let (mut all, mut large) = (false, false);
    let mut opts = RunOptions::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--smoke" => opts.preset = GridPreset::Smoke,
            "--large" => large = true,
            "--resume" if command == "run" => opts.resume = true,
            "--series" if command == "run" => opts.series = true,
            "--out" => match rest.next() {
                Some(dir) => opts.dir = PathBuf::from(dir),
                None => return Err(usage()),
            },
            name if !name.starts_with('-') => names.push(name),
            _ => return Err(usage()),
        }
    }
    if large && opts.preset == GridPreset::Smoke {
        eprintln!("--smoke and --large exclude each other: the large rows have no smoke grid");
        return Err(usage());
    }
    if all {
        names = registry.names();
    }
    if names.is_empty() {
        return Err(usage());
    }
    let mut scenarios = Vec::new();
    for name in names {
        let Some(entry) = registry.get(name) else {
            match name.strip_suffix("-1m").and_then(|base| registry.get(base)) {
                Some(base) if base.large_rows().is_some() => eprintln!(
                    "scenario {name:?} is the large rows of {base:?}: exp {command} {base} --large",
                    base = base.name()
                ),
                _ => eprintln!("unknown scenario {name:?}; `exp list` shows the registry"),
            }
            return Err(ExitCode::FAILURE);
        };
        match (large, entry.large_rows()) {
            (false, _) => scenarios.push(entry),
            (true, Some(rows)) => scenarios.push(rows),
            // `--all --large` means every entry that has large rows.
            (true, None) if all => {}
            (true, None) => {
                eprintln!("scenario {name:?} declares no large rows; `exp list` shows which do");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok((scenarios, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = scenarios::registry();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!(
                "{:<22} {:<21} {:>5} {:>5} {:>5} {:<6}  title",
                "name", "measurement", "full", "smoke", "large", "series"
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
                // "large" column: cells of the n = 10^6 rows `--large` runs.
                let large = scenario.large_rows().map_or_else(
                    || "-".to_string(),
                    |rows| rows.cells(GridPreset::Full).len().to_string(),
                );
                println!(
                    "{:<22} {:<21} {:>5} {:>5} {:>5} {:<6}  {}",
                    scenario.name(),
                    scenario.measurement().kind(),
                    scenario.cells(GridPreset::Full).len(),
                    scenario.cells(GridPreset::Smoke).len(),
                    large,
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
                        "{:<22} {:<21} {:>5} {:>5} {:>5} {:<6}  faults: {}",
                        "",
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
        Some(command @ "run") => {
            let (selected, opts) = match parse(command, &args[1..], &registry) {
                Ok(parsed) => parsed,
                Err(code) => return code,
            };
            let mut failures: Vec<(&str, usize)> = Vec::new();
            let mut shed: Vec<(&str, usize)> = Vec::new();
            for scenario in selected {
                let name = scenario.name();
                let outcome = scenarios::run_and_report(scenario, &opts);
                // Retry-budget exhaustion is in-band graceful degradation:
                // the cell completed and recorded how many repairs it shed.
                // Keep it out of the exit code but visible in the summary.
                let exhausted = outcome
                    .records
                    .iter()
                    .filter(|r| r.metric("retries_exhausted").is_some_and(|v| v > 0.0))
                    .count();
                if exhausted > 0 {
                    shed.push((name, exhausted));
                }
                if !outcome.failures.is_empty() {
                    failures.push((name, outcome.failures.len()));
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
        Some(command @ "report") => {
            let (selected, opts) = match parse(command, &args[1..], &registry) {
                Ok(parsed) => parsed,
                Err(code) => return code,
            };
            let mut failed = false;
            for scenario in selected {
                match scenarios::report_from_disk(scenario, &opts) {
                    Ok(report) => {
                        churn_bench::print_report(
                            scenario.title(),
                            scenario.reproduced_artifact(),
                            opts.preset,
                            &report.tables,
                            std::slice::from_ref(&report.comparisons),
                        );
                        if !report.all_hold() {
                            failed = true;
                        }
                    }
                    Err(message) => {
                        eprintln!("report {}: {message}", scenario.name());
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
