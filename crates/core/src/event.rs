//! Per-step churn summaries.

use serde::{Deserialize, Serialize};

use churn_graph::NodeId;

/// Summary of the churn that happened during one call to
/// [`crate::DynamicNetwork::advance_time_unit`].
///
/// The flooding process needs exactly this information: which nodes appeared
/// (they cannot have been informed before the interval) and which disappeared
/// (they drop out of the informed set), per Definitions 3.3 and 4.2.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSummary {
    /// Nodes that joined during the interval and are still alive at its end.
    pub births: Vec<NodeId>,
    /// Nodes that died during the interval.
    pub deaths: Vec<NodeId>,
}

impl ChurnSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another summary into this one, keeping the net effect: a node that
    /// both joined and died within the merged window is dropped from `births`
    /// and kept in `deaths` only if it was alive before the window.
    pub fn absorb(&mut self, later: ChurnSummary) {
        for death in later.deaths {
            if let Some(pos) = self.births.iter().position(|&b| b == death) {
                // Born and dead within the merged window: it never existed as far
                // as interval endpoints are concerned.
                self.births.swap_remove(pos);
            } else {
                self.deaths.push(death);
            }
        }
        self.births.extend(later.births);
    }

    /// Empties the summary while keeping the vectors' capacity, so a
    /// caller-owned summary can be reused across steps without reallocating
    /// (see `RaesModel::step_round_into` in `churn-protocol`).
    pub fn clear(&mut self) {
        self.births.clear();
        self.deaths.clear();
    }

    /// Records a birth observed while accumulating a summary in place.
    pub fn record_birth(&mut self, id: NodeId) {
        self.births.push(id);
    }

    /// Records a death observed while accumulating a summary in place, with
    /// the same net-effect semantics as [`Self::absorb`]: a node that was born
    /// within this summary's window simply vanishes from `births`.
    pub fn record_death(&mut self, id: NodeId) {
        if let Some(pos) = self.births.iter().position(|&b| b == id) {
            self.births.swap_remove(pos);
        } else {
            self.deaths.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn churn_summary_absorb_cancels_short_lived_nodes() {
        let mut first = ChurnSummary {
            births: vec![id(10)],
            deaths: vec![id(1)],
        };
        let second = ChurnSummary {
            births: vec![id(11)],
            deaths: vec![id(10), id(2)],
        };
        first.absorb(second);
        assert_eq!(first.births, vec![id(11)]);
        let mut deaths = first.deaths.clone();
        deaths.sort();
        assert_eq!(deaths, vec![id(1), id(2)]);
    }

    #[test]
    fn empty_summary_has_no_churn() {
        let s = ChurnSummary::new();
        assert!(s.births.is_empty() && s.deaths.is_empty());
    }
}
