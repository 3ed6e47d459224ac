//! Vertex expansion: outer boundaries, exact isoperimetric numbers for small
//! graphs, and a candidate-set estimator for simulation-sized graphs.
//!
//! The paper's central structural quantity is the *vertex isoperimetric number*
//!
//! ```text
//! h_out(G) = min_{0 < |S| <= |N|/2}  |∂_out(S)| / |S|
//! ```
//!
//! where `∂_out(S)` is the set of nodes outside `S` adjacent to `S`
//! (Definition 3.1). Computing `h_out` exactly is NP-hard, so this module offers
//! two levels:
//!
//! * [`exact_isoperimetric`] enumerates all subsets — only feasible for graphs
//!   with at most ~22 nodes, used by tests to validate the estimator;
//! * [`ExpansionEstimator`] searches a structured family of candidate sets
//!   (connected components, BFS balls, spectral sweep prefixes, random sets,
//!   singletons) and reports the *worst* ratio found. Because it minimises over
//!   a subset of all sets it returns an **upper bound** on `h_out`; an estimate
//!   above the paper's 0.1 threshold is evidence (not proof) of expansion, while
//!   an estimate below the threshold is a genuine witness of poor expansion.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::traversal::connected_components;
use crate::Snapshot;

/// Outer boundary `∂_out(S)`: the nodes outside `S` with at least one neighbour
/// inside `S`. `set` contains node indices of the snapshot; duplicates are
/// ignored.
///
/// # Panics
///
/// Panics if any index in `set` is out of range.
#[must_use]
pub fn outer_boundary(snapshot: &Snapshot, set: &[usize]) -> Vec<usize> {
    let mut member = vec![false; snapshot.len()];
    for &i in set {
        member[i] = true;
    }
    let mut boundary = vec![false; snapshot.len()];
    for &i in set {
        for &j in snapshot.neighbors_of(i) {
            if !member[j] {
                boundary[j] = true;
            }
        }
    }
    boundary
        .iter()
        .enumerate()
        .filter_map(|(i, &b)| b.then_some(i))
        .collect()
}

/// Size of the outer boundary of `set`. `set` need not be deduplicated:
/// duplicates are ignored, as in [`outer_boundary`].
#[must_use]
pub fn outer_boundary_size(snapshot: &Snapshot, set: &[usize]) -> usize {
    outer_boundary(snapshot, set).len()
}

/// The expansion ratio `|∂_out(S)| / |S|` of a set of node indices.
///
/// Returns `None` for an empty set.
#[must_use]
pub fn expansion_of(snapshot: &Snapshot, set: &[usize]) -> Option<f64> {
    let distinct: HashSet<usize> = set.iter().copied().collect();
    if distinct.is_empty() {
        return None;
    }
    let members: Vec<usize> = distinct.iter().copied().collect();
    let boundary = outer_boundary_size(snapshot, &members);
    Some(boundary as f64 / members.len() as f64)
}

/// Which candidate family produced an expansion witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CandidateFamily {
    /// A whole connected component of size at most `n/2` (ratio is always 0).
    Component,
    /// A single vertex.
    Singleton,
    /// A BFS ball around a sampled source.
    BfsBall,
    /// A prefix of the approximate-Fiedler-vector ordering.
    SpectralSweep,
    /// A uniformly random subset.
    RandomSet,
}

impl std::fmt::Display for CandidateFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CandidateFamily::Component => "component",
            CandidateFamily::Singleton => "singleton",
            CandidateFamily::BfsBall => "bfs-ball",
            CandidateFamily::SpectralSweep => "spectral-sweep",
            CandidateFamily::RandomSet => "random-set",
        };
        f.write_str(s)
    }
}

/// The worst (smallest-ratio) candidate set found by an expansion search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionWitness {
    /// Size `|S|` of the witness set.
    pub size: usize,
    /// Size `|∂_out(S)|` of its outer boundary.
    pub boundary: usize,
    /// The ratio `boundary / size`.
    pub ratio: f64,
    /// Which family of candidate sets produced the witness.
    pub family: CandidateFamily,
}

/// Result of an [`ExpansionEstimator`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionEstimate {
    /// The worst candidate found, or `None` when no candidate fell inside the
    /// requested size range (e.g. an empty graph).
    pub worst: Option<ExpansionWitness>,
    /// Number of candidate sets evaluated.
    pub candidates_evaluated: usize,
}

impl ExpansionEstimate {
    /// The estimated vertex expansion (upper bound on `h_out` restricted to the
    /// requested size range), or `None` when nothing was evaluated.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.worst.as_ref().map(|w| w.ratio)
    }
}

/// Exact isoperimetric result for small graphs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExactExpansion {
    /// `h_out(G)`.
    pub value: f64,
    /// A minimising set (node indices).
    pub witness: Vec<usize>,
}

/// Maximum graph size accepted by [`exact_isoperimetric`].
pub const EXACT_EXPANSION_LIMIT: usize = 22;

/// Exact vertex isoperimetric number by exhaustive subset enumeration.
///
/// Returns `None` if the graph is empty, has a single node (no valid `S` with
/// `|S| <= n/2` exists when `n = 1` gives `n/2 = 0`), or has more than
/// [`EXACT_EXPANSION_LIMIT`] nodes.
#[must_use]
pub fn exact_isoperimetric(snapshot: &Snapshot) -> Option<ExactExpansion> {
    let n = snapshot.len();
    if !(2..=EXACT_EXPANSION_LIMIT).contains(&n) {
        return None;
    }
    let half = n / 2;
    let mut best: Option<ExactExpansion> = None;
    for mask in 1u32..(1u32 << n) {
        let size = mask.count_ones() as usize;
        if size > half {
            continue;
        }
        let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let ratio = outer_boundary_size(snapshot, &set) as f64 / size as f64;
        let better = best.as_ref().is_none_or(|b| ratio < b.value);
        if better {
            best = Some(ExactExpansion {
                value: ratio,
                witness: set,
            });
        }
    }
    best
}

/// Configuration of the candidate-set expansion estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionConfig {
    /// Number of BFS-ball source vertices sampled.
    pub bfs_sources: usize,
    /// Number of random set sizes sampled from the requested range.
    pub random_size_samples: usize,
    /// Number of random sets drawn per sampled size.
    pub random_sets_per_size: usize,
    /// Whether to run the spectral sweep.
    pub spectral_sweep: bool,
    /// Power-iteration steps for the spectral ordering.
    pub spectral_iterations: usize,
    /// Whether to consider whole small connected components as candidates.
    pub include_components: bool,
    /// Whether to consider singletons (all of them if `n` is small, a sample
    /// otherwise).
    pub include_singletons: bool,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        ExpansionConfig {
            bfs_sources: 32,
            random_size_samples: 8,
            random_sets_per_size: 16,
            spectral_sweep: true,
            spectral_iterations: 60,
            include_components: true,
            include_singletons: true,
        }
    }
}

impl ExpansionConfig {
    /// A cheaper configuration for use inside benchmarks and large sweeps.
    #[must_use]
    pub fn fast() -> Self {
        ExpansionConfig {
            bfs_sources: 8,
            random_size_samples: 4,
            random_sets_per_size: 4,
            spectral_sweep: true,
            spectral_iterations: 25,
            include_components: true,
            include_singletons: true,
        }
    }
}

/// Candidate-set minimiser producing an upper bound on the vertex expansion of a
/// snapshot, restricted to sets whose size lies in a caller-chosen range.
///
/// # Example
///
/// ```
/// use churn_graph::expansion::{ExpansionConfig, ExpansionEstimator};
/// use churn_graph::generators;
/// use rand::SeedableRng;
/// use rand::rngs::StdRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = generators::d_out_random_graph(200, 4, &mut rng);
/// let snap = churn_graph::Snapshot::of(&g);
/// let est = ExpansionEstimator::new(ExpansionConfig::fast())
///     .estimate(&snap, 1, snap.len() / 2, &mut rng);
/// assert!(est.value().unwrap() > 0.0, "a 4-out random graph expands");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExpansionEstimator {
    config: ExpansionConfig,
}

impl ExpansionEstimator {
    /// Creates an estimator with the given configuration.
    #[must_use]
    pub fn new(config: ExpansionConfig) -> Self {
        ExpansionEstimator { config }
    }

    /// Access to the configuration.
    #[must_use]
    pub fn config(&self) -> &ExpansionConfig {
        &self.config
    }

    /// Estimates the minimum expansion ratio over sets with
    /// `min_size <= |S| <= max_size` (the latter additionally capped at `n/2`).
    ///
    /// Returns an estimate whose [`ExpansionEstimate::worst`] is `None` when the
    /// effective size range is empty.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        snapshot: &Snapshot,
        min_size: usize,
        max_size: usize,
        rng: &mut R,
    ) -> ExpansionEstimate {
        let n = snapshot.len();
        let min_size = min_size.max(1);
        let max_size = max_size.min(n / 2);
        let mut state = SearchState::new(n, min_size, max_size);
        if n == 0 || min_size > max_size {
            return state.finish();
        }

        if self.config.include_components {
            self.component_candidates(snapshot, &mut state);
        }
        if self.config.include_singletons && min_size == 1 {
            self.singleton_candidates(snapshot, rng, &mut state);
        }
        self.bfs_ball_candidates(snapshot, rng, &mut state);
        if self.config.spectral_sweep {
            self.spectral_candidates(snapshot, rng, &mut state);
        }
        self.random_candidates(snapshot, rng, &mut state);

        state.finish()
    }

    fn component_candidates(&self, snapshot: &Snapshot, state: &mut SearchState) {
        // A whole component has an empty outer boundary by definition.
        let comps = connected_components(snapshot);
        for &size in &comps.sizes {
            state.record_counts(size, 0, CandidateFamily::Component);
        }
    }

    fn singleton_candidates<R: Rng + ?Sized>(
        &self,
        snapshot: &Snapshot,
        rng: &mut R,
        state: &mut SearchState,
    ) {
        let n = snapshot.len();
        let mut record = |i| {
            state.record_counts(
                1,
                singleton_boundary(snapshot, i),
                CandidateFamily::Singleton,
            )
        };
        if n <= 4096 {
            (0..n).for_each(&mut record);
        } else {
            for _ in 0..4096 {
                record(rng.gen_range(0..n));
            }
        }
    }

    fn bfs_ball_candidates<R: Rng + ?Sized>(
        &self,
        snapshot: &Snapshot,
        rng: &mut R,
        state: &mut SearchState,
    ) {
        let n = snapshot.len();
        let mut balls = BfsBalls::new(n);
        for _ in 0..self.config.bfs_sources {
            let source = rng.gen_range(0..n);
            balls.for_each_ball(snapshot, source, state.max_size, |size, boundary| {
                state.record_counts(size, boundary, CandidateFamily::BfsBall);
            });
        }
    }

    fn spectral_candidates<R: Rng + ?Sized>(
        &self,
        snapshot: &Snapshot,
        rng: &mut R,
        state: &mut SearchState,
    ) {
        let order = spectral_order(snapshot, self.config.spectral_iterations, rng);
        // Sweep prefixes from both ends of the ordering, each end as one
        // incremental sweep (O(n + m) for all prefixes of an ordering — the
        // classic sweep cut — instead of O(n) per prefix, which is what
        // makes the estimator usable at n = 10^6).
        for dir in 0..2 {
            let iter: Box<dyn Iterator<Item = &usize>> = if dir == 0 {
                Box::new(order.iter())
            } else {
                Box::new(order.iter().rev())
            };
            state.begin();
            for &i in iter {
                if state.size + 1 > state.max_size {
                    break;
                }
                state.push(snapshot, i);
                state.record(CandidateFamily::SpectralSweep);
            }
        }
    }

    fn random_candidates<R: Rng + ?Sized>(
        &self,
        snapshot: &Snapshot,
        rng: &mut R,
        state: &mut SearchState,
    ) {
        let n = snapshot.len();
        let mut indices: Vec<usize> = (0..n).collect();
        let mut bits = SetBits::new(n);
        for _ in 0..self.config.random_size_samples {
            let size = if state.min_size >= state.max_size {
                state.min_size
            } else {
                rng.gen_range(state.min_size..=state.max_size)
            };
            for _ in 0..self.config.random_sets_per_size {
                // The whole permutation carries over to the next set, so the
                // shuffle stays full even though only a prefix is used.
                indices.shuffle(rng);
                let boundary = bits.boundary_size(snapshot, &indices[..size]);
                state.record_counts(size, boundary, CandidateFamily::RandomSet);
            }
        }
    }
}

/// `|∂_out({i})|`: the neighbours of `i` other than `i` itself (snapshot rows
/// are deduplicated, but may hold a self entry).
fn singleton_boundary(snapshot: &Snapshot, i: usize) -> usize {
    snapshot.neighbors_of(i).iter().filter(|&&j| j != i).count()
}

/// Level-synchronous BFS scratch, reused across sources: a visited flag per
/// vertex and one queue holding the visited vertices layer after layer.
struct BfsBalls {
    visited: Vec<bool>,
    queue: Vec<usize>,
}

impl BfsBalls {
    fn new(n: usize) -> Self {
        BfsBalls {
            visited: vec![false; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Calls `visit(|B_k|, |∂_out(B_k)|)` for the balls `B_k` of radius
    /// `k = 0, 1, …` around `source`, as long as `|B_k| <= max_size`. The
    /// outer boundary of `B_k` is exactly BFS layer `k + 1`, so each ball
    /// costs one layer expansion and no per-vertex boundary bookkeeping. The
    /// last ball of a component has an empty boundary.
    fn for_each_ball(
        &mut self,
        snapshot: &Snapshot,
        source: usize,
        max_size: usize,
        mut visit: impl FnMut(usize, usize),
    ) {
        // Undo only the previous source's flags.
        for &v in &self.queue {
            self.visited[v] = false;
        }
        self.queue.clear();
        self.queue.push(source);
        self.visited[source] = true;
        let mut start = 0;
        // The queue holds exactly the current ball B_k.
        while self.queue.len() <= max_size {
            let end = self.queue.len();
            for idx in start..end {
                let u = self.queue[idx];
                for &v in snapshot.neighbors_of(u) {
                    if !self.visited[v] {
                        self.visited[v] = true;
                        self.queue.push(v);
                    }
                }
            }
            visit(end, self.queue.len() - end);
            if self.queue.len() == end {
                break;
            }
            start = end;
        }
    }
}

/// Member and neighbour bitsets (one bit per vertex) for counting the outer
/// boundary of an explicit set without per-vertex branching.
struct SetBits {
    member: Vec<u64>,
    hit: Vec<u64>,
}

impl SetBits {
    fn new(n: usize) -> Self {
        SetBits {
            member: vec![0; n.div_ceil(64)],
            hit: vec![0; n.div_ceil(64)],
        }
    }

    /// `|∂_out(set)|`, as the popcount of `hit & !member` where `hit` has the
    /// bit of every neighbour of a member. Duplicates in `set` are ignored.
    fn boundary_size(&mut self, snapshot: &Snapshot, set: &[usize]) -> usize {
        self.member.fill(0);
        self.hit.fill(0);
        for &v in set {
            self.member[v >> 6] |= 1 << (v & 63);
            for &u in snapshot.neighbors_of(v) {
                self.hit[u >> 6] |= 1 << (u & 63);
            }
        }
        self.hit
            .iter()
            .zip(&self.member)
            .map(|(&h, &m)| (h & !m).count_ones() as usize)
            .sum()
    }
}

/// The estimator's search accumulator: tracks the worst witness found from
/// the `(size, boundary)` counts each candidate family reports. Components,
/// singletons, BFS balls and random sets compute their counts directly (see
/// the family methods); only the spectral sweep, whose prefixes follow an
/// arbitrary vertex order, uses the **incremental** boundary sweep kept here.
/// Its member/boundary flag arrays are allocated once per estimate and reset
/// by undoing only the flags the previous sweep touched, so all prefixes of
/// one ordering evaluate in one `O(n + m)` pass instead of `O(n)` per prefix.
struct SearchState {
    min_size: usize,
    max_size: usize,
    worst: Option<ExpansionWitness>,
    evaluated: usize,
    /// `member[v]` — v is in the current candidate set S.
    member: Vec<bool>,
    /// `in_boundary[v]` — v is in ∂_out(S).
    in_boundary: Vec<bool>,
    /// Every vertex whose flag was set by the current sweep (for O(Δ) reset).
    touched: Vec<usize>,
    /// |S| of the current sweep.
    size: usize,
    /// |∂_out(S)| of the current sweep.
    boundary: usize,
}

impl SearchState {
    fn new(n: usize, min_size: usize, max_size: usize) -> Self {
        SearchState {
            min_size,
            max_size,
            worst: None,
            evaluated: 0,
            member: vec![false; n],
            in_boundary: vec![false; n],
            touched: Vec::new(),
            size: 0,
            boundary: 0,
        }
    }

    /// Starts a fresh candidate sweep, undoing only the previous one's flags.
    fn begin(&mut self) {
        for &v in &self.touched {
            self.member[v] = false;
            self.in_boundary[v] = false;
        }
        self.touched.clear();
        self.size = 0;
        self.boundary = 0;
    }

    /// Adds `v` to the current candidate set, maintaining the boundary:
    /// `v` leaves the boundary if it was in it, and each of its neighbours
    /// outside the set joins it. Duplicate pushes are ignored.
    fn push(&mut self, snapshot: &Snapshot, v: usize) {
        if self.member[v] {
            return;
        }
        if self.in_boundary[v] {
            self.in_boundary[v] = false;
            self.boundary -= 1;
        } else {
            self.touched.push(v);
        }
        self.member[v] = true;
        self.size += 1;
        for &u in snapshot.neighbors_of(v) {
            if !self.member[u] && !self.in_boundary[u] {
                self.in_boundary[u] = true;
                self.boundary += 1;
                self.touched.push(u);
            }
        }
    }

    /// Records the current sweep state as a candidate if its size is in range.
    fn record(&mut self, family: CandidateFamily) {
        self.record_counts(self.size, self.boundary, family);
    }

    /// Records a candidate with `|S| = size` and `|∂_out(S)| = boundary` if
    /// its size is in range.
    fn record_counts(&mut self, size: usize, boundary: usize, family: CandidateFamily) {
        if size < self.min_size || size > self.max_size || size == 0 {
            return;
        }
        self.evaluated += 1;
        let ratio = boundary as f64 / size as f64;
        if self.worst.as_ref().is_none_or(|w| ratio < w.ratio) {
            self.worst = Some(ExpansionWitness {
                size,
                boundary,
                ratio,
                family,
            });
        }
    }

    fn finish(self) -> ExpansionEstimate {
        ExpansionEstimate {
            worst: self.worst,
            candidates_evaluated: self.evaluated,
        }
    }
}

/// Orders vertices by an approximation of the Fiedler vector of the lazy
/// random-walk matrix, computed by power iteration with deflation of the
/// stationary distribution. Ties (and isolated vertices) are broken by index.
///
/// The ordering is the standard "sweep" heuristic: low-conductance cuts tend to
/// appear as prefixes of this ordering, which is how the estimator finds
/// weakly-connected node subsets in the models without edge regeneration.
#[must_use]
pub fn spectral_order<R: Rng + ?Sized>(
    snapshot: &Snapshot,
    iterations: usize,
    rng: &mut R,
) -> Vec<usize> {
    let n = snapshot.len();
    if n == 0 {
        return Vec::new();
    }
    let degrees: Vec<f64> = (0..n).map(|i| snapshot.degree_of(i) as f64).collect();
    let total_degree: f64 = degrees.iter().sum();

    // Random start vector, orthogonalised against the stationary distribution.
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();

    let mut y = vec![0.0f64; n];
    for _ in 0..iterations.max(1) {
        deflate(&mut x, &degrees, total_degree);
        lazy_walk_step(snapshot, &x, &mut y);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-12 {
            // Degenerate (e.g. graph with no edges): fall back to index order.
            return (0..n).collect();
        }
        for v in &mut y {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
    }
    deflate(&mut x, &degrees, total_degree);

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        x[a].partial_cmp(&x[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// `y = (I + P) / 2 · x` with `P = D^{-1} A` the random-walk matrix; isolated
/// vertices keep their value (pure laziness).
///
/// Rows are processed [`ROW_LANES`] at a time with their neighbour sums
/// interleaved, so the independent add chains overlap instead of each row
/// waiting on the previous one's. Every row still sums its neighbours left
/// to right from `Iterator::sum`'s starting value, so each `y[i]` is
/// bit-identical to `0.5 * x[i] + 0.5 * (Σ x[j] / deg)` summed row by row.
fn lazy_walk_step(snapshot: &Snapshot, x: &[f64], y: &mut [f64]) {
    // `Iterator::sum`'s identity for f64 (its sign decides `-0.0 + -0.0`).
    let zero: f64 = std::iter::empty::<f64>().sum();
    let finish = |xi: f64, sum: f64, degree: usize| {
        if degree == 0 {
            xi
        } else {
            0.5 * xi + 0.5 * (sum / degree as f64)
        }
    };
    let n = x.len();
    let blocked = n - n % ROW_LANES;
    for base in (0..blocked).step_by(ROW_LANES) {
        let rows: [&[usize]; ROW_LANES] = std::array::from_fn(|l| snapshot.neighbors_of(base + l));
        let common = rows.iter().map(|r| r.len()).min().unwrap_or(0);
        let mut sums = [zero; ROW_LANES];
        for k in 0..common {
            for (sum, row) in sums.iter_mut().zip(&rows) {
                *sum += x[row[k]];
            }
        }
        for (l, (sum, row)) in sums.iter_mut().zip(&rows).enumerate() {
            for &j in &row[common..] {
                *sum += x[j];
            }
            y[base + l] = finish(x[base + l], *sum, row.len());
        }
    }
    for i in blocked..n {
        let row = snapshot.neighbors_of(i);
        let sum = row.iter().fold(zero, |acc, &j| acc + x[j]);
        y[i] = finish(x[i], sum, row.len());
    }
}

/// Rows whose neighbour sums [`lazy_walk_step`] interleaves.
const ROW_LANES: usize = 4;

/// Removes the component of `x` along the stationary distribution π ∝ degree
/// (the top eigenvector of the random-walk matrix).
fn deflate(x: &mut [f64], degrees: &[f64], total_degree: f64) {
    if total_degree <= 0.0 {
        // No edges: deflate against the uniform vector instead.
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        for v in x.iter_mut() {
            *v -= mean;
        }
        return;
    }
    // π-weighted projection: <x, 1>_π = Σ π_i x_i, with π_i = deg_i / total.
    let proj: f64 = x
        .iter()
        .zip(degrees)
        .map(|(v, d)| v * d / total_degree)
        .sum();
    for v in x.iter_mut() {
        *v -= proj;
    }
}

/// Fraction of nodes of the snapshot that are isolated (0 for an empty graph).
#[must_use]
pub fn isolated_fraction(snapshot: &Snapshot) -> f64 {
    if snapshot.is_empty() {
        0.0
    } else {
        snapshot.isolated_indices().len() as f64 / snapshot.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn outer_boundary_of_path_interior() {
        let snap = Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(outer_boundary(&snap, &[2]), vec![1, 3]);
        assert_eq!(outer_boundary(&snap, &[0, 1]), vec![2]);
        assert_eq!(outer_boundary(&snap, &[0, 1, 2, 3, 4]), Vec::<usize>::new());
    }

    #[test]
    fn expansion_of_handles_duplicates_and_empty_sets() {
        let snap = Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(expansion_of(&snap, &[]), None);
        let with_dup = expansion_of(&snap, &[1, 1]).unwrap();
        assert!(
            (with_dup - 2.0).abs() < 1e-12,
            "singleton {{1}} has boundary 2"
        );
    }

    #[test]
    fn exact_isoperimetric_of_complete_graph() {
        // K4: every subset S has boundary N \ S, so h = min over |S|<=2 of (4-|S|)/|S| = 1 at |S|=2.
        let snap = Snapshot::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let exact = exact_isoperimetric(&snap).unwrap();
        assert!((exact.value - 1.0).abs() < 1e-12);
        assert_eq!(exact.witness.len(), 2);
    }

    #[test]
    fn exact_isoperimetric_of_disconnected_graph_is_zero() {
        let snap = Snapshot::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let exact = exact_isoperimetric(&snap).unwrap();
        assert_eq!(exact.value, 0.0);
        assert!(exact.witness.len() <= 3);
    }

    #[test]
    fn exact_isoperimetric_of_path_is_one_over_half() {
        // Path of 6: the first half {0,1,2} has boundary {3}: ratio 1/3.
        let snap = Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let exact = exact_isoperimetric(&snap).unwrap();
        assert!((exact.value - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_isoperimetric_rejects_large_and_trivial_graphs() {
        assert!(exact_isoperimetric(&Snapshot::from_edges(1, &[])).is_none());
        assert!(exact_isoperimetric(&Snapshot::from_edges(0, &[])).is_none());
        let big = Snapshot::from_edges(EXACT_EXPANSION_LIMIT + 1, &[]);
        assert!(exact_isoperimetric(&big).is_none());
    }

    #[test]
    fn estimator_agrees_with_exact_on_small_graphs() {
        let mut r = rng();
        // Barbell-ish graph: two K4s joined by one edge — clear bottleneck.
        let mut edges = Vec::new();
        for i in 0..4usize {
            for j in (i + 1)..4 {
                edges.push((i, j));
                edges.push((i + 4, j + 4));
            }
        }
        edges.push((3, 4));
        let snap = Snapshot::from_edges(8, &edges);
        let exact = exact_isoperimetric(&snap).unwrap();
        let est = ExpansionEstimator::new(ExpansionConfig::default()).estimate(
            &snap,
            1,
            snap.len() / 2,
            &mut r,
        );
        let est_value = est.value().unwrap();
        assert!(
            est_value >= exact.value - 1e-12,
            "estimator is an upper bound on h_out"
        );
        assert!(
            est_value <= exact.value + 1e-9,
            "on an 8-node graph with spectral sweep the bottleneck {{one K4}} must be found: \
             est {est_value} vs exact {}",
            exact.value
        );
    }

    #[test]
    fn estimator_finds_isolated_vertex() {
        let mut r = rng();
        let snap = Snapshot::from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let est = ExpansionEstimator::new(ExpansionConfig::default()).estimate(&snap, 1, 5, &mut r);
        assert_eq!(est.value(), Some(0.0), "nodes 5..9 are isolated");
    }

    #[test]
    fn estimator_respects_size_range() {
        let mut r = rng();
        // Ring of 20 plus 2 isolated vertices; restricted to sets of size >= 5 the
        // isolated singletons are out of range but {isolated, isolated, ...} random
        // sets can still witness small boundaries — the point here is only that
        // min_size filters singletons.
        let mut edges: Vec<(usize, usize)> = (0..20).map(|i| (i, (i + 1) % 20)).collect();
        edges.push((20, 21));
        let snap = Snapshot::from_edges(22, &edges);
        let est =
            ExpansionEstimator::new(ExpansionConfig::default()).estimate(&snap, 5, 11, &mut r);
        if let Some(w) = &est.worst {
            assert!(w.size >= 5 && w.size <= 11);
        }
    }

    #[test]
    fn estimator_on_empty_and_tiny_graphs() {
        let mut r = rng();
        let empty = Snapshot::from_edges(0, &[]);
        let est = ExpansionEstimator::default().estimate(&empty, 1, 10, &mut r);
        assert!(est.worst.is_none());
        assert_eq!(est.candidates_evaluated, 0);

        let single = Snapshot::from_edges(1, &[]);
        let est = ExpansionEstimator::default().estimate(&single, 1, 10, &mut r);
        assert!(est.worst.is_none(), "n=1 has no sets of size <= n/2 = 0");
    }

    #[test]
    fn d_out_random_graph_expands_ring_does_not() {
        let mut r = rng();
        let g = generators::d_out_random_graph(400, 4, &mut r);
        let snap = Snapshot::of(&g);
        let est = ExpansionEstimator::new(ExpansionConfig::fast()).estimate(
            &snap,
            1,
            snap.len() / 2,
            &mut r,
        );
        let random_value = est.value().unwrap();

        let ring_edges: Vec<(usize, usize)> = (0..400).map(|i| (i, (i + 1) % 400)).collect();
        let ring = Snapshot::from_edges(400, &ring_edges);
        let ring_est = ExpansionEstimator::new(ExpansionConfig::fast()).estimate(
            &ring,
            1,
            ring.len() / 2,
            &mut r,
        );
        let ring_value = ring_est.value().unwrap();
        assert!(
            random_value > ring_value,
            "random 4-out graph ({random_value}) should out-expand the ring ({ring_value})"
        );
        assert!(ring_value < 0.1, "a long ring is a poor vertex expander");
    }

    #[test]
    fn incremental_sweep_matches_outer_boundary() {
        let mut r = rng();
        let g = generators::d_out_random_graph(120, 3, &mut r);
        let snap = Snapshot::of(&g);
        let mut state = SearchState::new(snap.len(), 1, snap.len() / 2);
        let mut indices: Vec<usize> = (0..snap.len()).collect();
        for _ in 0..20 {
            indices.shuffle(&mut r);
            let size = r.gen_range(1..=snap.len() / 2);
            let set = &indices[..size];
            state.begin();
            for &v in set {
                state.push(&snap, v);
            }
            assert_eq!(state.size, size);
            assert_eq!(
                state.boundary,
                outer_boundary_size(&snap, set),
                "incremental boundary must match the from-scratch count"
            );
        }
        // Duplicate pushes are ignored.
        state.begin();
        state.push(&snap, 0);
        state.push(&snap, 0);
        assert_eq!(state.size, 1);
    }

    /// A random graph on `n` vertices with about `n · degree / 2` edges,
    /// assembled through `from_csr_parts` so rows may hold a self entry
    /// (vertex 0's always does). Low `degree` leaves it disconnected:
    /// isolated vertices, small components.
    fn random_csr_graph(n: usize, degree: usize, r: &mut StdRng) -> Snapshot {
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        lists[0].push(0);
        for _ in 0..n * degree / 2 {
            let (u, v) = (r.gen_range(0..n), r.gen_range(0..n));
            lists[u].push(v);
            lists[v].push(u);
        }
        let mut offsets = vec![0];
        let mut adjacency = Vec::new();
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len());
        }
        let ids = (0..n as u64).map(NodeId::new).collect();
        Snapshot::from_csr_parts(ids, offsets, adjacency)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The counts the direct families record equal from-scratch
        /// `outer_boundary_size` counts of the sets they stand for.
        #[test]
        fn direct_counts_match_outer_boundary(
            n in 2usize..90,
            degree in 0usize..5,
            seed in proptest::arbitrary::any::<u64>()
        ) {
            let mut r = StdRng::seed_from_u64(seed);
            let snap = random_csr_graph(n, degree, &mut r);

            // BFS balls: |B_k| and |∂_out(B_k)| for every ball up to max_size.
            let mut balls = BfsBalls::new(n);
            for source in 0..n {
                let max_size = r.gen_range(1..=n);
                let mut recorded = Vec::new();
                balls.for_each_ball(&snap, source, max_size, |size, boundary| {
                    recorded.push((size, boundary));
                });
                let mut expected = Vec::new();
                let mut ball = Vec::new();
                for layer in crate::traversal::bfs_layers(&snap, source) {
                    ball.extend_from_slice(&layer);
                    if ball.len() > max_size {
                        break;
                    }
                    expected.push((ball.len(), outer_boundary_size(&snap, &ball)));
                }
                proptest::prop_assert_eq!(recorded, expected);
            }

            // Random sets, counted by bitset.
            let mut bits = SetBits::new(n);
            let mut indices: Vec<usize> = (0..n).collect();
            for _ in 0..8 {
                indices.shuffle(&mut r);
                let set = &indices[..r.gen_range(1..=n)];
                proptest::prop_assert_eq!(
                    bits.boundary_size(&snap, set),
                    outer_boundary_size(&snap, set)
                );
            }

            // Singletons, read off the adjacency row.
            proptest::prop_assert!(snap.neighbors_of(0).contains(&0));
            for i in 0..n {
                proptest::prop_assert_eq!(
                    singleton_boundary(&snap, i),
                    outer_boundary_size(&snap, &[i])
                );
            }

            // Whole components have an empty outer boundary.
            let comps = connected_components(&snap);
            for label in 0..comps.count() {
                let component: Vec<usize> =
                    (0..n).filter(|&i| comps.component[i] == label).collect();
                proptest::prop_assert_eq!(component.len(), comps.sizes[label]);
                proptest::prop_assert_eq!(outer_boundary_size(&snap, &component), 0);
            }
        }
    }

    #[test]
    fn spectral_order_separates_two_cliques() {
        let mut r = rng();
        let mut edges = Vec::new();
        for i in 0..5usize {
            for j in (i + 1)..5 {
                edges.push((i, j));
                edges.push((i + 5, j + 5));
            }
        }
        edges.push((0, 5));
        let snap = Snapshot::from_edges(10, &edges);
        let order = spectral_order(&snap, 200, &mut r);
        // The first five entries of the ordering should be one of the two cliques.
        let first: HashSet<usize> = order[..5].iter().copied().collect();
        let clique_a: HashSet<usize> = (0..5).collect();
        let clique_b: HashSet<usize> = (5..10).collect();
        assert!(
            first == clique_a || first == clique_b,
            "spectral sweep should isolate one clique, got {first:?}"
        );
    }

    #[test]
    fn isolated_census_counts_degree_zero_nodes() {
        let snap = Snapshot::from_edges(5, &[(0, 1)]);
        assert_eq!(snap.isolated_indices(), vec![2, 3, 4]);
        assert!((isolated_fraction(&snap) - 0.6).abs() < 1e-12);
        assert_eq!(isolated_fraction(&Snapshot::from_edges(0, &[])), 0.0);
    }
}
