//! # churn-bench
//!
//! Experiment binaries and Criterion benches for the churn-network
//! reproduction.
//!
//! * Every experiment is a registered scenario ([`scenarios::registry`]) run
//!   through the single `exp` binary:
//!   `cargo run --release -p churn-bench --bin exp -- run isolated-nodes`,
//!   etc. `--smoke` shrinks the grid for a fast smoke run; the default is the
//!   full laptop-scale grid each scenario declares in the registry.
//! * The Criterion benches in `benches/` measure the library's own throughput
//!   (model stepping, snapshotting, flooding, expansion estimation, jump-chain
//!   sampling) plus two design ablations of the graph core (`ablation.rs`).
//!   Passing `--json <path>` after `--` (or setting `CHURN_BENCH_JSON`) makes
//!   every bench append one machine-readable JSON line to `<path>`; the
//!   `bench_report` binary joins a baseline and an optimized run into a
//!   comparison file (this is how `BENCH_PR1.json` is produced). Set
//!   `CHURN_BENCH_FAST=1` for a one-sample smoke run (used by CI).
//!
//! This crate's library part holds the scenario registry and the report
//! printing the `exp` binary uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scenarios;

use churn_analysis::ComparisonSet;
use churn_sim::scenario::GridPreset;
use churn_sim::Table;

/// Prints an experiment report: a header, the result tables (as Markdown, so
/// the output can be pasted into a document verbatim) and the
/// paper-vs-measured comparison sets with an overall verdict.
pub fn print_report(
    experiment: &str,
    paper_artifact: &str,
    preset: GridPreset,
    tables: &[Table],
    comparisons: &[ComparisonSet],
) {
    println!("## {experiment}");
    println!();
    println!("Reproduces: {paper_artifact}  (preset: {})", preset.label());
    println!();
    for table in tables {
        println!("{}", table.to_markdown());
    }
    for set in comparisons {
        println!("{}", set.to_markdown());
        let verdict = if set.all_hold() {
            "all comparisons hold"
        } else {
            "SOME COMPARISONS FAIL"
        };
        println!("Verdict: {verdict} ({}/{}).", set.holding(), set.len());
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_report_does_not_panic() {
        let mut table = Table::new("t", ["a"]);
        table.push_row(["1"]);
        let mut set = ComparisonSet::new("c");
        set.push(churn_analysis::Comparison::new(
            "x", "Lemma", "1", "1", true,
        ));
        print_report("E0", "demo", GridPreset::Smoke, &[table], &[set]);
    }
}
