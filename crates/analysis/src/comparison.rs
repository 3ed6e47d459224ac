//! Paper-claim vs measured-value comparisons.

use serde::{Deserialize, Serialize};

use churn_sim::Table;

/// One "paper says X, we measured Y" row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// What is being compared (e.g. `isolated fraction, SDG n=4096 d=2`).
    pub label: String,
    /// Where the claim comes from (e.g. `Lemma 3.5`).
    pub paper_reference: String,
    /// The paper's prediction, as a display string.
    pub predicted: String,
    /// The measured value, as a display string.
    pub measured: String,
    /// Whether the qualitative claim holds in the measurement.
    pub holds: bool,
    /// Free-form note (how the verdict was decided, caveats).
    pub note: String,
}

impl Comparison {
    /// Creates a comparison row.
    #[must_use]
    pub fn new(
        label: impl Into<String>,
        paper_reference: impl Into<String>,
        predicted: impl Into<String>,
        measured: impl Into<String>,
        holds: bool,
    ) -> Self {
        Comparison {
            label: label.into(),
            paper_reference: paper_reference.into(),
            predicted: predicted.into(),
            measured: measured.into(),
            holds,
            note: String::new(),
        }
    }

    /// Attaches a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// The verdict symbol used in reports.
    #[must_use]
    pub fn verdict_symbol(&self) -> &'static str {
        if self.holds {
            "✓"
        } else {
            "✗"
        }
    }
}

/// A named collection of comparisons, renderable as a report table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ComparisonSet {
    /// Name of the experiment the comparisons belong to.
    pub name: String,
    /// The comparison rows.
    pub comparisons: Vec<Comparison>,
}

impl ComparisonSet {
    /// Creates an empty set with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ComparisonSet {
            name: name.into(),
            comparisons: Vec::new(),
        }
    }

    /// Appends a comparison.
    pub fn push(&mut self, comparison: Comparison) {
        self.comparisons.push(comparison);
    }

    /// Number of comparisons.
    #[must_use]
    pub fn len(&self) -> usize {
        self.comparisons.len()
    }

    /// Returns `true` when the set holds no comparisons.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.comparisons.is_empty()
    }

    /// Returns `true` when every comparison holds.
    #[must_use]
    pub fn all_hold(&self) -> bool {
        self.comparisons.iter().all(|c| c.holds)
    }

    /// Number of comparisons that hold.
    #[must_use]
    pub fn holding(&self) -> usize {
        self.comparisons.iter().filter(|c| c.holds).count()
    }

    /// Renders the set as a `churn-sim` table (the format of the `exp`
    /// reports).
    #[must_use]
    pub fn to_table(&self) -> Table {
        let mut table = Table::new(
            self.name.clone(),
            [
                "quantity",
                "paper",
                "predicted",
                "measured",
                "holds",
                "note",
            ],
        );
        for c in &self.comparisons {
            table.push_row([
                c.label.clone(),
                c.paper_reference.clone(),
                c.predicted.clone(),
                c.measured.clone(),
                c.verdict_symbol().to_string(),
                c.note.clone(),
            ]);
        }
        table
    }

    /// Markdown rendering of [`Self::to_table`].
    #[must_use]
    pub fn to_markdown(&self) -> String {
        self.to_table().to_markdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ComparisonSet {
        let mut set = ComparisonSet::new("E1 — isolated nodes");
        set.push(
            Comparison::new(
                "isolated fraction, SDG d=2",
                "Lemma 3.5",
                ">= e^{-4}/6 = 0.0031",
                "0.0170",
                true,
            )
            .with_note("measured mean over 20 trials"),
        );
        set.push(Comparison::new(
            "isolated fraction, SDGR d=2",
            "Theorem 3.15",
            "0 (expander)",
            "0.0000",
            true,
        ));
        set
    }

    #[test]
    fn set_accounting() {
        let set = sample();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert!(set.all_hold());
        assert_eq!(set.holding(), 2);
    }

    #[test]
    fn failing_comparison_breaks_all_hold() {
        let mut set = sample();
        set.push(Comparison::new("bogus", "none", "1", "2", false));
        assert!(!set.all_hold());
        assert_eq!(set.holding(), 2);
        assert_eq!(set.comparisons[2].verdict_symbol(), "✗");
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let set = sample();
        let table = set.to_table();
        assert_eq!(table.rows().len(), 2);
        assert_eq!(table.columns().len(), 6);
        let md = set.to_markdown();
        assert!(md.contains("E1 — isolated nodes"));
        assert!(md.contains("Lemma 3.5"));
        assert!(md.contains("✓"));
        assert!(md.contains("measured mean over 20 trials"));
    }

    #[test]
    fn empty_set_renders_header_only() {
        let set = ComparisonSet::new("empty");
        assert!(set.is_empty());
        assert!(set.all_hold(), "vacuously true");
        assert_eq!(set.to_table().rows().len(), 0);
    }
}
