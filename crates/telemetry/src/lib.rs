//! Instrumentation layer for the churn workspace.
//!
//! Two pieces, both observers rather than participants:
//!
//! - **Phase profiling.** Engine code opens named wall-clock spans
//!   ([`span`], re-exported from the vendored `tracing` facade) around its
//!   phases — churn sweeps, flooding sweeps, snapshot maintenance, event
//!   loops. [`PhaseProfiler`] is a [`Subscriber`] that aggregates the closed
//!   spans per name; the scenario runner attaches one per cell with
//!   [`subscriber::with_default`] and folds the totals into the `.load.jsonl`
//!   side file.
//! - **Per-round time series.** [`RoundSeries`] is a column-oriented buffer
//!   measurements fill with one value per named column per round; the
//!   scenario runner streams it to a `.series.jsonl` side file keyed by the
//!   cell's deterministic seed.
//!
//! When nothing is attached, every emission site costs one relaxed atomic
//! load and one branch — no clock read, no allocation. The counting-allocator
//! and golden-trajectory tests elsewhere in the workspace pin that contract.

pub use tracing::{counter, enabled, span, subscriber, Level, Span, Subscriber};

use std::sync::Mutex;

/// Aggregates closed spans and counters by name, preserving first-appearance
/// order so profiles print in execution order.
///
/// One profiler is attached per scenario cell via
/// [`subscriber::with_default`]; its totals become the `phases` breakdown in
/// the cell's load record. Interior mutability is a [`Mutex`] because the
/// [`Subscriber`] trait takes `&self` and must be `Sync`; contention is nil
/// (a thread-scoped profiler only ever hears from its own thread).
#[derive(Default)]
pub struct PhaseProfiler {
    inner: Mutex<ProfilerState>,
}

#[derive(Default)]
struct ProfilerState {
    /// (name, total nanoseconds) in first-appearance order.
    spans: Vec<(&'static str, u64)>,
    /// (name, total) in first-appearance order.
    counters: Vec<(&'static str, u64)>,
}

impl PhaseProfiler {
    /// A fresh, empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total seconds per span name, in first-appearance order.
    #[must_use]
    pub fn phases(&self) -> Vec<(&'static str, f64)> {
        let state = self.inner.lock().unwrap();
        state
            .spans
            .iter()
            .map(|&(name, nanos)| (name, nanos as f64 / 1e9))
            .collect()
    }

    /// Counter totals, in first-appearance order.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let state = self.inner.lock().unwrap();
        state.counters.clone()
    }

    /// True when no span ever closed and no counter ever fired.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let state = self.inner.lock().unwrap();
        state.spans.is_empty() && state.counters.is_empty()
    }
}

impl Subscriber for PhaseProfiler {
    fn span_close(&self, name: &'static str, nanos: u64) {
        add(&mut self.inner.lock().unwrap().spans, name, nanos);
    }

    fn counter(&self, name: &'static str, value: u64) {
        add(&mut self.inner.lock().unwrap().counters, name, value);
    }
}

/// Adds `value` to `name`'s total, appending the name on first sight.
fn add(totals: &mut Vec<(&'static str, u64)>, name: &'static str, value: u64) {
    if let Some(entry) = totals.iter_mut().find(|e| e.0 == name) {
        entry.1 = entry.1.saturating_add(value);
    } else {
        totals.push((name, value));
    }
}

/// A column-oriented per-round time series for one scenario cell.
///
/// Columns are declared up front (or on first push) and hold one `f64` per
/// round; all columns must stay the same length, which [`push_round`]
/// enforces by taking a full row at a time.
///
/// [`push_round`]: RoundSeries::push_round
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSeries {
    columns: Vec<(&'static str, Vec<f64>)>,
}

impl RoundSeries {
    /// An empty series with no columns.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one round: `row` pairs each column name with its value for
    /// this round. Missing columns are created (back-filled with NaN for
    /// prior rounds); columns absent from `row` get NaN for this round, so
    /// every column always has exactly one value per round.
    pub fn push_round(&mut self, row: &[(&'static str, f64)]) {
        let len = self.len();
        for &(name, _) in row {
            if !self.columns.iter().any(|(n, _)| *n == name) {
                self.columns.push((name, vec![f64::NAN; len]));
            }
        }
        for (name, values) in &mut self.columns {
            let v = row
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |&(_, v)| v);
            values.push(v);
        }
    }

    /// Number of rounds recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, |(_, v)| v.len())
    }

    /// True when no rounds have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The columns: `(name, one value per round)`.
    #[must_use]
    pub fn columns(&self) -> &[(&'static str, Vec<f64>)] {
        &self.columns
    }

    /// The values of the named column, if present.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn profiler_aggregates_spans_in_first_appearance_order() {
        let profiler = Arc::new(PhaseProfiler::new());
        subscriber::with_default(profiler.clone(), || {
            {
                let _a = span("churn");
            }
            {
                let _b = span("sweep");
            }
            {
                let _a = span("churn");
            }
            counter("events", 10);
            counter("events", 5);
            counter("drops", 1);
        });
        let phases = profiler.phases();
        assert_eq!(
            phases.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec!["churn", "sweep"]
        );
        assert!(phases.iter().all(|&(_, s)| s >= 0.0));
        assert_eq!(profiler.counters(), vec![("events", 15), ("drops", 1)]);
        assert!(!profiler.is_empty());
    }

    #[test]
    fn detached_profiler_records_nothing() {
        let profiler = PhaseProfiler::new();
        {
            let _s = span("unheard");
        }
        assert!(profiler.is_empty());
    }

    #[test]
    fn series_rows_keep_columns_aligned() {
        let mut series = RoundSeries::new();
        series.push_round(&[("informed", 0.1), ("alive", 100.0)]);
        series.push_round(&[("informed", 0.4), ("alive", 99.0), ("lost", 2.0)]);
        series.push_round(&[("informed", 1.0)]);
        assert_eq!(series.len(), 3);
        assert_eq!(series.column("informed"), Some(&[0.1, 0.4, 1.0][..]));
        assert_eq!(series.column("alive").unwrap()[1], 99.0);
        assert!(series.column("alive").unwrap()[2].is_nan());
        let lost = series.column("lost").unwrap();
        assert!(lost[0].is_nan());
        assert_eq!(lost[1], 2.0);
        assert!(lost[2].is_nan());
    }

    #[test]
    fn empty_series_reports_empty() {
        let series = RoundSeries::new();
        assert!(series.is_empty());
        assert_eq!(series.len(), 0);
        assert!(series.column("x").is_none());
    }
}
