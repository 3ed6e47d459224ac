//! Lifecycle-aware trackers: lifetime isolation, informed-set overlap and
//! the partition-recovery census.

use churn_graph::{DynamicGraph, GraphDelta, NodeId};

/// Tracks which of a population of *currently isolated* nodes stay isolated
/// for the rest of their lifetime (Lemmas 3.5 / 4.10): a candidate is
/// *confirmed* when it dies without ever having been seen with an incident
/// edge, and *disqualified* the moment a delta window leaves it with one.
///
/// Per-round cost is O(delta): deaths are checked against the candidate set
/// by slab index, and only dirty cells pay the incident-link probe. This
/// replaces the `lifetime_isolation_report` pattern of cloning the model and
/// re-scanning every candidate per round, which capped the isolation
/// experiments at `n ≈ 10^4`.
///
/// Granularity: like every observer in this crate, the disqualification
/// probe reconciles against the window's **final** state — a candidate that
/// transiently gains and loses an edge *inside* one window (possible under
/// Poisson churn, where a time unit spans many events) is kept, exactly as
/// the per-unit boundary rescan of `lifetime_isolation_report` keeps it.
/// With one delta window per `advance_time_unit` the two computations agree
/// exactly, on both churn drivers (pinned by `tests/determinism.rs`); only
/// the cost model differs.
#[derive(Debug, Clone)]
pub struct LifetimeIsolation {
    /// Candidate flags by slab index.
    candidate: Vec<bool>,
    remaining: usize,
    /// Identifiers of the initial isolated population, sorted.
    initial: Vec<NodeId>,
    /// Candidates that died while still isolated.
    confirmed: Vec<NodeId>,
}

impl LifetimeIsolation {
    /// Starts tracking from the graph's currently isolated nodes.
    #[must_use]
    pub fn start(graph: &DynamicGraph) -> Self {
        let mut candidate = vec![false; graph.slab_len()];
        let mut initial = Vec::new();
        for &idx in graph.member_indices() {
            if graph.incident_link_count_at(idx) == Some(0) {
                candidate[idx as usize] = true;
                initial.push(graph.id_at(idx).expect("member cells are occupied"));
            }
        }
        initial.sort_unstable();
        let remaining = initial.len();
        LifetimeIsolation {
            candidate,
            remaining,
            initial,
            confirmed: Vec::new(),
        }
    }

    /// The isolated population at start time, sorted by identifier.
    #[must_use]
    pub fn initial_isolated(&self) -> &[NodeId] {
        &self.initial
    }

    /// Candidates still alive and never seen with an edge.
    #[must_use]
    pub fn remaining_candidates(&self) -> usize {
        self.remaining
    }

    /// Processes one delta window: candidate deaths confirm (death order in
    /// the feed precedes any same-window rebirth of the cell, so recycling
    /// cannot resurrect a candidacy), and dirty candidates that picked up an
    /// incident link are disqualified for good.
    pub fn apply(&mut self, graph: &DynamicGraph, delta: &GraphDelta) {
        // Cells appended to the slab after `start` can never be candidates;
        // grow the flag array so their indices stay addressable.
        if self.candidate.len() < graph.slab_len() {
            self.candidate.resize(graph.slab_len(), false);
        }
        for &(idx, id) in &delta.deaths {
            let slot = &mut self.candidate[idx as usize];
            if *slot {
                *slot = false;
                self.remaining -= 1;
                self.confirmed.push(id);
            }
        }
        for &idx in &delta.dirty {
            let slot = &mut self.candidate[idx as usize];
            if *slot && graph.incident_link_count_at(idx) != Some(0) {
                *slot = false;
                self.remaining -= 1;
            }
        }
    }

    /// Finishes the observation: every confirmed candidate plus every
    /// candidate still alive (and still isolated — it has been for the whole
    /// window), sorted by identifier. Mirrors the counting rule of
    /// `churn_core::isolated::lifetime_isolation_report`.
    #[must_use]
    pub fn finish(mut self, graph: &DynamicGraph) -> Vec<NodeId> {
        for (idx, &is_candidate) in self.candidate.iter().enumerate() {
            if is_candidate {
                let id = graph
                    .id_at(idx as u32)
                    .expect("alive candidates occupy their recorded cell");
                self.confirmed.push(id);
            }
        }
        self.confirmed.sort_unstable();
        self.confirmed
    }
}

/// Tracks the overlap between a flooding process's informed set and the
/// alive population, O(newly informed + deaths) per round: the flooding
/// engine feeds `newly_informed_dense` after each step, the delta's deaths
/// retire entries, and the count is available without rescanning either set.
#[derive(Debug, Clone, Default)]
pub struct InformedOverlap {
    informed: Vec<bool>,
    count: usize,
}

impl InformedOverlap {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the node in slab cell `idx` informed (idempotent).
    pub fn mark(&mut self, idx: u32) {
        let i = idx as usize;
        if self.informed.len() <= i {
            self.informed.resize(i + 1, false);
        }
        if !self.informed[i] {
            self.informed[i] = true;
            self.count += 1;
        }
    }

    /// Retires the informed marks of every death in the window. Process the
    /// delta **before** marking the round's newly informed nodes, so a cell
    /// recycled by a newborn that got informed in the same round survives.
    pub fn apply(&mut self, delta: &GraphDelta) {
        for &(idx, _) in &delta.deaths {
            if let Some(flag) = self.informed.get_mut(idx as usize) {
                if *flag {
                    *flag = false;
                    self.count -= 1;
                }
            }
        }
    }

    /// Number of informed alive nodes.
    #[must_use]
    pub fn informed_alive(&self) -> usize {
        self.count
    }

    /// Whether the node in slab cell `idx` is currently marked informed (and
    /// alive — deaths retire their marks). Lets end-of-run reports classify
    /// the *uninformed* population structurally (degree class, isolation)
    /// without keeping a second set.
    #[must_use]
    pub fn is_informed(&self, idx: u32) -> bool {
        self.informed.get(idx as usize).copied().unwrap_or(false)
    }

    /// Fraction of `alive` nodes that are informed (0 for an empty network).
    #[must_use]
    pub fn overlap_fraction(&self, alive: usize) -> f64 {
        if alive == 0 {
            0.0
        } else {
            self.count as f64 / alive as f64
        }
    }
}

/// A point-in-time census of flood recovery across partition blocks: for
/// each block of a (healed or active) partition, how many alive nodes it
/// holds and how many of them are informed. The block assignment is a pure
/// function of the node identifier — exactly the contract of the fault
/// layer's deterministic partition hash — so the census needs no membership
/// state and can be taken at any instant: at the heal (the state
/// anti-entropy must recover from) or at the end of a run (did the minority
/// block catch up?).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryCensus {
    alive: Vec<usize>,
    informed: Vec<usize>,
}

impl RecoveryCensus {
    /// Takes the census over the graph's alive population. `block_of` maps
    /// a raw node identifier to its block (values `≥ blocks` are clamped
    /// into the last block), `is_informed` marks rumor possession.
    #[must_use]
    pub fn take(
        graph: &DynamicGraph,
        blocks: u32,
        block_of: impl Fn(u64) -> u32,
        is_informed: impl Fn(u64) -> bool,
    ) -> Self {
        let blocks = blocks.max(1) as usize;
        let mut census = RecoveryCensus {
            alive: vec![0; blocks],
            informed: vec![0; blocks],
        };
        for &idx in graph.member_indices() {
            let id = graph.id_at(idx).expect("member cells are occupied").raw();
            let block = (block_of(id) as usize).min(blocks - 1);
            census.alive[block] += 1;
            if is_informed(id) {
                census.informed[block] += 1;
            }
        }
        census
    }

    /// Number of blocks the census was taken over.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.alive.len()
    }

    /// Informed alive nodes across all blocks.
    #[must_use]
    pub fn informed_total(&self) -> usize {
        self.informed.iter().sum()
    }

    /// `(alive, informed)` of one block (0s past the end).
    #[must_use]
    pub fn block(&self, block: usize) -> (usize, usize) {
        (
            self.alive.get(block).copied().unwrap_or(0),
            self.informed.get(block).copied().unwrap_or(0),
        )
    }

    /// Informed fraction of one block (1 for an empty block — nothing left
    /// to recover).
    #[must_use]
    pub fn block_fraction(&self, block: usize) -> f64 {
        let (alive, informed) = self.block(block);
        if alive == 0 {
            1.0
        } else {
            informed as f64 / alive as f64
        }
    }

    /// Per-block informed fractions, in block order.
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.blocks()).map(|b| self.block_fraction(b)).collect()
    }

    /// The worst block's informed fraction — the recovery floor. During a
    /// partition this is (near) zero for every block the source is not in;
    /// after a healed, recovered flood it returns to 1.
    #[must_use]
    pub fn min_fraction(&self) -> f64 {
        self.fractions().iter().copied().fold(1.0, f64::min)
    }

    /// `true` once every block is fully informed — the flood recovered from
    /// the partition.
    #[must_use]
    pub fn recovered(&self) -> bool {
        self.alive
            .iter()
            .zip(&self.informed)
            .all(|(&alive, &informed)| informed == alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(n: u64) -> DynamicGraph {
        let mut graph = DynamicGraph::with_capacity(n as usize);
        for i in 0..n {
            graph.add_node(NodeId::new(i), 0).unwrap();
        }
        graph
    }

    #[test]
    fn recovery_census_counts_blocks_and_fractions() {
        // Even ids in block 0, odd ids in block 1; ids < 4 informed.
        let graph = graph_of(8);
        let census = RecoveryCensus::take(&graph, 2, |id| (id % 2) as u32, |id| id < 4);
        assert_eq!(census.blocks(), 2);
        assert_eq!(census.informed_total(), 4);
        assert_eq!(census.block(0), (4, 2));
        assert_eq!(census.block(1), (4, 2));
        assert_eq!(census.block(7), (0, 0));
        assert!((census.block_fraction(0) - 0.5).abs() < 1e-12);
        assert!((census.min_fraction() - 0.5).abs() < 1e-12);
        assert!(!census.recovered());
    }

    #[test]
    fn recovery_census_majority_and_recovery() {
        // 6 nodes in block 0, 2 in block 1, everyone informed.
        let graph = graph_of(8);
        let census = RecoveryCensus::take(&graph, 2, |id| u32::from(id >= 6), |_| true);
        assert_eq!(census.block(0), (6, 6), "the majority block");
        assert_eq!(census.block(1), (2, 2));
        assert!(census.recovered());
        assert_eq!(census.fractions(), vec![1.0, 1.0]);
        assert!((census.min_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_census_clamps_out_of_range_blocks_and_empty_graphs() {
        let graph = graph_of(3);
        // A block function pointing past the range lands in the last block.
        let census = RecoveryCensus::take(&graph, 2, |_| 9, |_| false);
        assert_eq!(census.block(1), (3, 0));
        assert_eq!(census.min_fraction(), 0.0);
        // Empty graph: everything trivially recovered, majority 0.
        let empty = DynamicGraph::with_capacity(4);
        let census = RecoveryCensus::take(&empty, 3, |_| 0, |_| true);
        assert!(census.recovered());
        assert_eq!(census.block_fraction(0), 1.0);
    }
}
