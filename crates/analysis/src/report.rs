//! Report regeneration from stored scenario records.
//!
//! The scenario engine persists everything a verdict needs: the main
//! `results/<name>.jsonl` checkpoint (one [`CellRecord`] per cell) and, for
//! series-enabled runs, the `results/<name>.series.jsonl` side file (one
//! [`SeriesRecord`] per supporting cell). This module rebuilds the
//! `EXPERIMENTS.md`-style report — per-point summary table, trajectory
//! summaries, and the paper-claim verdict table — from those files alone,
//! without re-running a single cell. `exp report <name>` is a thin wrapper
//! around [`scenario_report`].
//!
//! The verdict rules are keyed on metric *presence*, not on scenario names:
//! a scenario that records `completed` gets the majority-completion check, a
//! scenario that records both `max_in_degree` and `in_degree_cap` gets the
//! RAES cap check, and so on. New scenarios inherit verdicts by emitting the
//! shared metric vocabulary.

use churn_sim::scenario::{CellRecord, LoadRecord, SeriesRecord};
use churn_sim::Table;

use crate::comparison::{Comparison, ComparisonSet};
use crate::records::summarize_cells;

/// A regenerated scenario report: summary tables plus the verdict rows.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Summary tables — per-point means over the stored cell records, and
    /// (when series records are present) per-point trajectory summaries.
    pub tables: Vec<Table>,
    /// The paper-claim verdict rows derived from the stored metrics.
    pub comparisons: ComparisonSet,
}

impl ScenarioReport {
    /// Returns `true` when every derived comparison holds (vacuously true
    /// when the scenario's metrics trigger no rule).
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.comparisons.all_hold()
    }
}

/// Rebuilds the report for `scenario` from stored records.
///
/// `records` comes from `load_cell_records` on the main checkpoint and must
/// be non-empty for a meaningful report; `series` comes from
/// `load_series_records` on the side file and may be empty (series-off runs,
/// or measurements without per-round output); `loads` comes from
/// `load_load_records` on the `.load.jsonl` side file and may be empty (the
/// file only covers cells executed by the *last* invocation — resumed runs
/// re-create it). The throughput table it feeds is explicitly marked
/// machine-dependent: wall-clock never enters the deterministic checkpoint,
/// and its numbers are only comparable on one machine.
#[must_use]
pub fn scenario_report(
    scenario: &str,
    records: &[CellRecord],
    series: &[SeriesRecord],
    loads: &[LoadRecord],
) -> ScenarioReport {
    let mut tables = vec![summarize_cells(
        format!("{scenario} — per-point means"),
        records,
    )];
    if !series.is_empty() {
        let derived: Vec<CellRecord> = series.iter().map(series_summary_record).collect();
        tables.push(summarize_cells(
            format!("{scenario} — trajectory summaries (from .series.jsonl)"),
            &derived,
        ));
    }
    if !loads.is_empty() {
        tables.push(throughput_table(scenario, loads));
    }
    ScenarioReport {
        tables,
        comparisons: derive_comparisons(scenario, records),
    }
}

/// Renders per-point wall-clock throughput from the `.load.jsonl` side
/// file: records grouped by [`load_key`] in first-appearance order, with total wall time, total work units and the aggregate rate
/// (total units over total seconds — the mean of per-cell rates would
/// over-weight short cells). When any record carries a phase breakdown the
/// dominant phase and its share of the group's phase time are appended.
fn throughput_table(scenario: &str, loads: &[LoadRecord]) -> Table {
    let mut groups: Vec<(String, usize, usize, String)> = Vec::new();
    for load in loads {
        let key = load_key(load);
        if !groups.contains(&key) {
            groups.push(key);
        }
    }
    let has_phases = loads.iter().any(|l| !l.phases.is_empty());
    let mut header: Vec<String> = vec![
        "net".into(),
        "n".into(),
        "d".into(),
        "victim".into(),
        "cells".into(),
        "unit".into(),
        "units".into(),
        "wall_s".into(),
        "units/s".into(),
    ];
    if has_phases {
        header.push("top phase".into());
    }
    let mut table = Table::new(
        format!("{scenario} — wall-clock throughput (from .load.jsonl; machine-dependent, not checkpointed)"),
        header,
    );
    for key in &groups {
        let rows: Vec<&LoadRecord> = loads.iter().filter(|l| load_key(l) == *key).collect();
        let wall_s: f64 = rows.iter().map(|l| l.wall_s).sum();
        let units: f64 = rows.iter().map(|l| l.units).sum();
        let rate = if wall_s > 0.0 {
            units / wall_s
        } else {
            f64::NAN
        };
        // The unit is uniform within a scenario; tolerate mixtures anyway.
        let unit = rows
            .iter()
            .map(|l| l.unit)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .join("+");
        let mut cells = vec![
            key.0.clone(),
            key.1.to_string(),
            key.2.to_string(),
            key.3.clone(),
            rows.len().to_string(),
            unit,
            format!("{units:.0}"),
            format!("{wall_s:.3}"),
            format!("{rate:.0}"),
        ];
        if has_phases {
            let mut phase_totals: Vec<(String, f64)> = Vec::new();
            for row in &rows {
                for (phase, seconds) in &row.phases {
                    match phase_totals.iter_mut().find(|(name, _)| name == phase) {
                        Some((_, total)) => *total += seconds,
                        None => phase_totals.push((phase.clone(), *seconds)),
                    }
                }
            }
            let phase_sum: f64 = phase_totals.iter().map(|(_, s)| s).sum();
            let top = phase_totals
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .filter(|_| phase_sum > 0.0)
                .map_or_else(
                    || "-".to_string(),
                    |(name, seconds)| format!("{name} ({:.0}%)", 100.0 * seconds / phase_sum),
                );
            cells.push(top);
        }
        table.push_row(cells);
    }
    table
}

/// The per-point key of a load record, by the rule of
/// [`CellRecord::group_key`]: `(net, n, d, victim)` with the fault label
/// folded into the net column (`SDGR/loss0.1`), so the throughput table
/// keeps fault points apart exactly as the per-point means table does.
fn load_key(load: &LoadRecord) -> (String, usize, usize, String) {
    let net = match &load.fault {
        Some(fault) => format!("{}/{fault}", load.net),
        None => load.net.clone(),
    };
    (net, load.n, load.d, load.victim.clone())
}

/// Collapses one per-round series into a flat metric record with the same
/// cell identity, so the trajectory table reuses [`summarize_cells`] grouping.
fn series_summary_record(series: &SeriesRecord) -> CellRecord {
    let mut metrics: Vec<(String, f64)> = vec![("rounds".into(), series.rounds() as f64)];
    for (name, values) in &series.series {
        match name.as_str() {
            "informed_fraction" => {
                metrics.push(("final_informed".into(), last_finite(values)));
                metrics.push(("rounds_to_half".into(), rounds_to(values, 0.5)));
                metrics.push(("rounds_to_99".into(), rounds_to(values, 0.99)));
            }
            // Per-round deltas: the interesting summary is the total.
            "newly_informed" | "duplicates" | "lost" | "blocked" | "requests" | "replies"
            | "repaired" | "sheds" | "crashes" | "restarts" | "pulls" => {
                metrics.push((format!("total_{name}"), finite_sum(values)));
            }
            // Peaks for load/saturation-shaped columns.
            "max_in_degree" | "saturated_fraction" | "informed" => {
                metrics.push((format!("peak_{name}"), finite_max(values)));
            }
            // Population columns: the end state tells the story.
            _ => metrics.push((format!("final_{name}"), last_finite(values))),
        }
    }
    CellRecord {
        scenario: series.scenario.clone(),
        net: series.net.clone(),
        n: series.n,
        d: series.d,
        victim: series.victim.clone(),
        fault: series.fault.clone(),
        trial: series.trial,
        seed: series.seed,
        metrics,
    }
}

/// First round index (1-based, as a count of rounds) at which `values`
/// reaches `threshold`; `NaN` when it never does.
fn rounds_to(values: &[f64], threshold: f64) -> f64 {
    values
        .iter()
        .position(|&v| v >= threshold)
        .map_or(f64::NAN, |i| (i + 1) as f64)
}

fn last_finite(values: &[f64]) -> f64 {
    values
        .iter()
        .rev()
        .copied()
        .find(|v| v.is_finite())
        .unwrap_or(f64::NAN)
}

fn finite_sum(values: &[f64]) -> f64 {
    values.iter().copied().filter(|v| v.is_finite()).sum()
}

fn finite_max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(f64::NAN, f64::max)
}

/// Mean of a metric over the records that carry it; `None` when absent.
fn metric_mean(records: &[CellRecord], name: &str) -> Option<f64> {
    let values: Vec<f64> = records
        .iter()
        .filter_map(|r| r.metric(name))
        .filter(|v| v.is_finite())
        .collect();
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Max of a metric over the records that carry it; `None` when absent.
fn metric_max(records: &[CellRecord], name: &str) -> Option<f64> {
    records
        .iter()
        .filter_map(|r| r.metric(name))
        .filter(|v| v.is_finite())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

/// Min of a metric over the records that carry it; `None` when absent.
fn metric_min(records: &[CellRecord], name: &str) -> Option<f64> {
    records
        .iter()
        .filter_map(|r| r.metric(name))
        .filter(|v| v.is_finite())
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.min(v))))
}

/// Derives the verdict rows the scenario's metric vocabulary supports.
fn derive_comparisons(scenario: &str, records: &[CellRecord]) -> ComparisonSet {
    let mut set = ComparisonSet::new(format!("{scenario} — paper-claim verdicts"));
    if let Some(mean) = metric_mean(records, "completed") {
        set.push(
            Comparison::new(
                "flooding completion rate",
                "Theorems 3.16 / 4.20",
                ">= 0.50 of trials",
                format!("{mean:.2}"),
                mean >= 0.5,
            )
            .with_note("fraction of cells whose flooding completed"),
        );
    }
    if let (Some(max_deg), Some(cap)) = (
        metric_max(records, "max_in_degree"),
        metric_max(records, "in_degree_cap"),
    ) {
        set.push(
            Comparison::new(
                "peak RAES in-degree",
                "RAES accept rule (Becchetti et al.)",
                format!("<= cap {cap:.0}"),
                format!("{max_deg:.0}"),
                max_deg <= cap,
            )
            .with_note("max over every stored cell"),
        );
    }
    if let Some(min_h_out) = metric_min(records, "min_h_out") {
        set.push(
            Comparison::new(
                "min honest out-degree",
                "RAES out-degree repair",
                "> 0 (no honest node stranded)",
                format!("{min_h_out:.0}"),
                min_h_out > 0.0,
            )
            .with_note("min over every stored cell"),
        );
    }
    if let Some(expansion) = metric_min(records, "expansion") {
        set.push(
            Comparison::new(
                "snapshot expansion",
                "Theorems 3.15 / 4.16",
                "> 0 on every cell",
                format!("{expansion:.4}"),
                expansion > 0.0,
            )
            .with_note("min over every stored cell"),
        );
    }
    if let Some(recovered) = metric_mean(records, "partition_recovered") {
        set.push(
            Comparison::new(
                "partition recovery rate",
                "partition-healing scenario",
                ">= 0.50 of trials",
                format!("{recovered:.2}"),
                recovered >= 0.5,
            )
            .with_note("fraction of cells that re-healed after the partition"),
        );
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(metrics: &[(&str, f64)]) -> CellRecord {
        CellRecord {
            scenario: "s".into(),
            net: "SDGR".into(),
            n: 256,
            d: 4,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed: 7,
            metrics: metrics.iter().map(|&(m, v)| (m.to_string(), v)).collect(),
        }
    }

    fn series(columns: &[(&str, &[f64])]) -> SeriesRecord {
        SeriesRecord {
            scenario: "s".into(),
            net: "SDGR".into(),
            n: 256,
            d: 4,
            victim: "uniform".into(),
            fault: None,
            trial: 0,
            seed: 7,
            series: columns
                .iter()
                .map(|&(name, values)| (name.to_string(), values.to_vec()))
                .collect(),
        }
    }

    #[test]
    fn verdict_rules_fire_only_on_present_metrics() {
        let records = vec![
            cell(&[
                ("completed", 1.0),
                ("max_in_degree", 11.0),
                ("in_degree_cap", 12.0),
            ]),
            cell(&[
                ("completed", 1.0),
                ("max_in_degree", 9.0),
                ("in_degree_cap", 12.0),
            ]),
        ];
        let report = scenario_report("demo", &records, &[], &[]);
        assert_eq!(report.comparisons.len(), 2, "completion + cap rules");
        assert!(report.all_hold());
        // A cap violation flips the verdict.
        let bad = vec![cell(&[("max_in_degree", 13.0), ("in_degree_cap", 12.0)])];
        assert!(!scenario_report("demo", &bad, &[], &[]).all_hold());
        // No known metrics → vacuous verdict set.
        let none = vec![cell(&[("rounds", 5.0)])];
        let empty = scenario_report("demo", &none, &[], &[]);
        assert!(empty.comparisons.is_empty());
        assert!(empty.all_hold());
    }

    #[test]
    fn trajectory_table_summarizes_series_columns() {
        let records = vec![cell(&[("rounds", 3.0)])];
        let run = series(&[
            ("informed_fraction", &[0.2, 0.6, 1.0][..]),
            ("newly_informed", &[50.0, 100.0, 102.0][..]),
            ("alive", &[250.0, 252.0, 249.0][..]),
        ]);
        let report = scenario_report("demo", &records, std::slice::from_ref(&run), &[]);
        assert_eq!(report.tables.len(), 2);
        let md = report.tables[1].to_markdown();
        assert!(md.contains("trajectory summaries"));
        assert!(md.contains("rounds_to_half"), "{md}");
        assert!(md.contains("total_newly_informed"), "{md}");
        assert!(md.contains("final_alive"), "{md}");
        // rounds_to_half: first round reaching 0.5 is round 2.
        let derived = series_summary_record(&run);
        assert_eq!(derived.metric("rounds_to_half"), Some(2.0));
        assert_eq!(derived.metric("rounds_to_99"), Some(3.0));
        assert_eq!(derived.metric("final_informed"), Some(1.0));
        assert_eq!(derived.metric("total_newly_informed"), Some(252.0));
    }

    fn load(
        net: &str,
        trial: usize,
        wall_s: f64,
        units: f64,
        phases: &[(&str, f64)],
    ) -> LoadRecord {
        LoadRecord {
            scenario: "s".into(),
            net: net.into(),
            n: 256,
            d: 4,
            victim: "uniform".into(),
            fault: None,
            trial,
            seed: 7,
            wall_s,
            unit: "events",
            units,
            units_per_s: units / wall_s,
            phases: phases
                .iter()
                .map(|&(name, s)| (name.to_string(), s))
                .collect(),
        }
    }

    #[test]
    fn throughput_table_aggregates_load_records_per_point() {
        let loads = vec![
            load(
                "SDG",
                0,
                1.0,
                1000.0,
                &[("event-loop", 0.9), ("churn", 0.1)],
            ),
            load(
                "SDG",
                1,
                3.0,
                9000.0,
                &[("event-loop", 2.4), ("churn", 0.6)],
            ),
            load("RAES", 0, 1.0, 500.0, &[]),
        ];
        let report = scenario_report("demo", &[cell(&[])], &[], &loads);
        let table = report.tables.last().unwrap();
        assert!(table.title().contains("machine-dependent"));
        let md = table.to_markdown();
        // SDG: 10000 units over 4 s — the aggregate rate, not the mean of
        // per-cell rates (which would be 2000).
        assert!(md.contains("2500"), "{md}");
        assert!(md.contains("10000"), "{md}");
        // Dominant phase with its share of the group's phase time.
        assert!(md.contains("event-loop (82%)"), "{md}");
        // The phase-free RAES group dashes the phase column.
        assert!(md.contains('-'), "{md}");

        // No load records → no throughput table at all.
        let without = scenario_report("demo", &[cell(&[])], &[], &[]);
        assert_eq!(without.tables.len(), 1);
    }

    #[test]
    fn throughput_table_keeps_fault_points_apart() {
        let loads: Vec<LoadRecord> = [None, Some("loss0.1")]
            .into_iter()
            .map(|fault| LoadRecord {
                fault: fault.map(str::to_string),
                ..load("SDGR", 0, 1.0, 100.0, &[])
            })
            .collect();
        let report = scenario_report("demo", &[cell(&[])], &[], &loads);
        let rows = report.tables.last().unwrap().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], "SDGR");
        assert_eq!(rows[1][0], "SDGR/loss0.1");
        assert_eq!(rows[1][4], "1", "one cell per fault point");
    }

    #[test]
    fn threshold_never_reached_yields_nan_and_is_dashed_in_the_table() {
        let run = series(&[("informed_fraction", &[0.1, 0.2][..])]);
        let derived = series_summary_record(&run);
        assert!(derived.metric("rounds_to_99").unwrap().is_nan());
        let report = scenario_report("demo", &[cell(&[])], &[run], &[]);
        assert!(report.tables[1].to_markdown().contains('-'));
    }
}
