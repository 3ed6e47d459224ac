//! Summaries over scenario cell records.
//!
//! The scenario engine (`churn_sim::scenario`) emits one [`CellRecord`] per
//! grid cell with a flat named-metric map — a uniform schema across every
//! registered scenario. This module turns a record list into the per-point
//! summary table the `exp` runner prints: records grouped by
//! `(net, n, d, victim)` in first-appearance order, one column per metric
//! (union over the group rows, in first-appearance order), each cell the mean
//! over the group's trials.

use churn_sim::scenario::CellRecord;
use churn_sim::{Aggregate, Table};

/// Groups records by `(net, n, d, victim)` and renders one mean-per-metric
/// row per group. Metrics absent from a group (e.g. protocol health on
/// non-RAES rows) render as `-`.
#[must_use]
pub fn summarize_cells(title: impl Into<String>, records: &[CellRecord]) -> Table {
    // First-appearance orders for groups and metric columns.
    let mut groups: Vec<(String, usize, usize, String)> = Vec::new();
    let mut metrics: Vec<String> = Vec::new();
    for record in records {
        let key = record.group_key();
        if !groups.contains(&key) {
            groups.push(key);
        }
        for (metric, _) in &record.metrics {
            if !metrics.contains(metric) {
                metrics.push(metric.clone());
            }
        }
    }

    let mut header: Vec<String> = vec![
        "net".into(),
        "n".into(),
        "d".into(),
        "victim".into(),
        "trials".into(),
    ];
    header.extend(metrics.iter().cloned());
    let mut table = Table::new(title, header);

    for key in &groups {
        let rows: Vec<&CellRecord> = records.iter().filter(|r| &r.group_key() == key).collect();
        let mut cells = vec![
            key.0.clone(),
            key.1.to_string(),
            key.2.to_string(),
            key.3.clone(),
            rows.len().to_string(),
        ];
        for metric in &metrics {
            let values: Vec<f64> = rows
                .iter()
                .filter_map(|r| r.metric(metric))
                .filter(|v| !v.is_nan())
                .collect();
            if values.is_empty() {
                cells.push("-".to_string());
            } else {
                let agg = Aggregate::from_values(&values);
                cells.push(format_metric(agg.mean));
            }
        }
        table.push_row(cells);
    }
    table
}

/// Compact fixed-ish formatting: integers verbatim, small magnitudes with 4
/// decimals, everything else with 2.
fn format_metric(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e12 {
        format!("{value:.0}")
    } else if value.abs() < 10.0 {
        format!("{value:.4}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(net: &str, n: usize, trial: usize, metrics: &[(&str, f64)]) -> CellRecord {
        CellRecord {
            scenario: "s".into(),
            net: net.into(),
            n,
            d: 4,
            victim: "uniform".into(),
            fault: None,
            trial,
            seed: (n + trial) as u64,
            metrics: metrics.iter().map(|&(m, v)| (m.to_string(), v)).collect(),
        }
    }

    #[test]
    fn groups_and_metric_columns_keep_first_appearance_order() {
        let records = vec![
            record("SDG", 64, 0, &[("rounds", 6.0), ("completed", 1.0)]),
            record("SDG", 64, 1, &[("rounds", 8.0), ("completed", 1.0)]),
            record("RAES", 64, 0, &[("rounds", 7.0), ("cap", 12.0)]),
        ];
        let table = summarize_cells("t", &records);
        let markdown = table.to_markdown();
        // Metric columns in first-appearance order, groups aggregated.
        let header_pos = |s: &str| markdown.find(s).unwrap_or(usize::MAX);
        assert!(header_pos("rounds") < header_pos("completed"));
        assert!(header_pos("completed") < header_pos("cap"));
        assert!(markdown.contains('7'), "SDG mean of 6 and 8 is 7");
        // RAES has no "completed" metric: rendered as "-".
        assert!(markdown.contains('-'));
    }

    #[test]
    fn nan_metrics_are_skipped_in_the_mean() {
        let records = vec![
            record("SDG", 64, 0, &[("x", f64::NAN)]),
            record("SDG", 64, 1, &[("x", 4.0)]),
        ];
        let table = summarize_cells("t", &records);
        assert!(table.to_markdown().contains('4'));
    }
}
