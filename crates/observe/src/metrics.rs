//! Live structural metric trackers.

use churn_graph::{DynamicGraph, GraphDelta};

/// Per-cell mirrored state of [`LiveMetrics`].
#[derive(Debug, Clone, Copy, Default)]
struct CellState {
    alive: bool,
    /// Distinct-neighbour degree.
    degree: u32,
    /// In-requests with multiplicity (the RAES saturation quantity).
    in_requests: u32,
}

/// A normalised, comparable digest of a [`LiveMetrics`] state (histograms
/// trimmed of trailing zeros, so an incrementally maintained tracker and a
/// freshly built one compare equal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Alive nodes.
    pub alive: usize,
    /// `degree_histogram[k]` = alive nodes with distinct-neighbour degree `k`.
    pub degree_histogram: Vec<u64>,
    /// `in_request_histogram[k]` = alive nodes with `k` in-requests.
    pub in_request_histogram: Vec<u64>,
}

/// Live structural metrics of a churning graph, maintained O(delta) per
/// round: the degree histogram (hence isolated and low-degree node counts —
/// Lemmas 3.5 / 4.10's census quantities) and the in-request histogram
/// (hence the realized in-degree-cap occupancy of bounded-degree protocols
/// like RAES).
///
/// Like every observer in this crate, the tracker reconciles dirty cells
/// against the graph's final per-round state, so it is exact at round
/// granularity for any event interleaving (including cell recycling).
/// Building one ([`LiveMetrics::new`]) *is* the from-scratch recomputation,
/// which is what the determinism suite compares against every round.
#[derive(Debug, Clone)]
pub struct LiveMetrics {
    state: Vec<CellState>,
    degree_hist: Vec<u64>,
    in_req_hist: Vec<u64>,
    alive: usize,
    seen: Vec<u32>,
    epoch: u32,
    scratch: Vec<u32>,
}

fn bump(hist: &mut Vec<u64>, bucket: usize) {
    if hist.len() <= bucket {
        hist.resize(bucket + 1, 0);
    }
    hist[bucket] += 1;
}

fn trimmed(hist: &[u64]) -> Vec<u64> {
    let len = hist.iter().rposition(|&c| c != 0).map_or(0, |p| p + 1);
    hist[..len].to_vec()
}

impl LiveMetrics {
    /// Builds the tracker from the graph's current state (one full pass).
    #[must_use]
    pub fn new(graph: &DynamicGraph) -> Self {
        let mut this = LiveMetrics {
            state: Vec::new(),
            degree_hist: Vec::new(),
            in_req_hist: Vec::new(),
            alive: 0,
            seen: Vec::new(),
            epoch: 0,
            scratch: Vec::new(),
        };
        this.grow(graph.slab_len());
        for &idx in graph.member_indices() {
            this.refresh(graph, idx);
        }
        this
    }

    /// Brings the tracker up to date with one recorded delta window —
    /// O(distinct dirty cells · d log d).
    pub fn apply(&mut self, graph: &DynamicGraph, delta: &GraphDelta) {
        self.grow(graph.slab_len());
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        for i in 0..delta.dirty.len() {
            let idx = delta.dirty[i];
            let slot = &mut self.seen[idx as usize];
            if *slot == self.epoch {
                continue;
            }
            *slot = self.epoch;
            self.refresh(graph, idx);
        }
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive(&self) -> usize {
        self.alive
    }

    /// Alive nodes with no incident edges at all (the isolated-node census of
    /// Lemmas 3.5 and 4.10).
    #[must_use]
    pub fn isolated_count(&self) -> usize {
        self.degree_hist.first().copied().unwrap_or(0) as usize
    }

    /// The degree histogram (index = distinct-neighbour degree; may carry
    /// trailing zero buckets — compare through [`Self::summary`]).
    #[must_use]
    pub fn degree_histogram(&self) -> &[u64] {
        &self.degree_hist
    }

    /// Alive nodes whose in-request count is at least `cap` — with RAES's
    /// accept rule (`accept while in-degree < ⌊c·d⌋`) this is exactly the
    /// number of nodes sitting *at* the cap, i.e. the cap occupancy.
    #[must_use]
    pub fn saturated_count(&self, cap: usize) -> usize {
        self.in_req_hist.iter().skip(cap).sum::<u64>() as usize
    }

    /// Largest in-request count over the alive nodes.
    #[must_use]
    pub fn max_in_requests(&self) -> usize {
        self.in_req_hist.iter().rposition(|&c| c != 0).unwrap_or(0)
    }

    /// A normalised digest for equality comparisons.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            alive: self.alive,
            degree_histogram: trimmed(&self.degree_hist),
            in_request_histogram: trimmed(&self.in_req_hist),
        }
    }

    fn grow(&mut self, slab_len: usize) {
        if self.state.len() < slab_len {
            self.state.resize(slab_len, CellState::default());
            self.seen.resize(slab_len, 0);
        }
    }

    fn refresh(&mut self, graph: &DynamicGraph, idx: u32) {
        let old = self.state[idx as usize];
        if old.alive {
            self.degree_hist[old.degree as usize] -= 1;
            self.in_req_hist[old.in_requests as usize] -= 1;
            self.alive -= 1;
        }
        match graph.in_request_count_at(idx) {
            None => {
                self.state[idx as usize] = CellState::default();
            }
            Some(in_requests) => {
                self.scratch.clear();
                self.scratch.extend(graph.neighbor_indices_at(idx));
                self.scratch.sort_unstable();
                self.scratch.dedup();
                let degree = self.scratch.len();
                bump(&mut self.degree_hist, degree);
                bump(&mut self.in_req_hist, in_requests);
                self.alive += 1;
                self.state[idx as usize] = CellState {
                    alive: true,
                    degree: degree as u32,
                    in_requests: in_requests as u32,
                };
            }
        }
    }
}
