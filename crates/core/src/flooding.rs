//! The flooding process over dynamic networks (Definitions 3.3, 4.2 and 4.3).
//!
//! Flooding is the diffusion process in which, one message delay after being
//! informed, a node forwards the information to all of its current neighbours.
//! Over a dynamic network this interacts with churn in two ways: newly informed
//! nodes can die before forwarding, and newly born nodes start uninformed.
//!
//! The implementation advances in *message-delay units*: one flooding round is
//! one call to [`DynamicNetwork::advance_time_unit`]. For streaming models this
//! is exactly Definition 3.3. For Poisson models it is the asynchronous process
//! of Definition 4.2 observed at integer times: the set `I_t` at observation
//! time `t` consists of the previously informed survivors plus every node that
//! was, at time `t − 1`, a neighbour of an informed node and is still alive at
//! `t`. (The fully "discretized" process of Definition 4.3 — which additionally
//! requires the connecting edge to persist throughout the interval — is a
//! pessimistic analysis device; the synchronous observation used here is the
//! natural simulation of the process the paper's theorems describe.)
//!
//! One engine drives the round, [`FloodingProcess`]. Its boundary sweep is
//! a plain sequential pass at or below [`PARALLEL_FLOODING_CUTOFF`] alive
//! nodes; above it, the sweep is sharded across the thread budget and
//! direction-switches between pushing from the informed set and pulling over
//! the alive slab range (Ligra-style) once the informed fraction crosses the
//! `≈ √(1/2d)` cost crossover. Every path produces the same informed set
//! round for round, so [`run_flooding`] returns the same record at any thread
//! budget. The informed set itself is an [`InformedSet`], which the
//! asynchronous rumor of `churn-event` shares.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use churn_graph::{DenseHandle, DynamicGraph, NodeId};

use crate::model::DynamicNetwork;
use crate::ChurnSummary;

/// Behavior-tag bit marking a node as Byzantine (assigned by a protocol
/// layer via [`DynamicGraph::set_tag_at`]; `0` = honest). The flooding
/// sweeps use this to split informed/alive counts into honest-only
/// variants — see [`RoundStats::informed_honest`].
pub const TAG_BYZANTINE: u8 = 0x1;

/// Behavior-tag bit marking a node that never forwards the broadcast
/// (protocol-honest on the repair path but silent on the flooding overlay).
/// A node carrying this bit still *becomes* informed — it just never acts
/// as a source in the boundary sweep.
pub const TAG_NO_FORWARD: u8 = 0x2;

/// How to pick the node that starts the broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloodingSource {
    /// Advance the model until the next node joins and start from it — the
    /// paper's convention ("the flooding process starting at `t0` from the node
    /// joining the network at round `t0`").
    NextToJoin,
    /// Start from the most recently joined node that is still alive (falls back
    /// to [`FloodingSource::NextToJoin`] if none is known).
    Newest,
    /// Start from a specific alive node (falls back to
    /// [`FloodingSource::NextToJoin`] if it is not alive).
    Node(NodeId),
}

/// Stopping rules and bookkeeping limits for [`run_flooding`].
#[derive(Debug, Clone, PartialEq)]
pub struct FloodingConfig {
    /// Hard cap on the number of flooding rounds simulated.
    pub max_rounds: u64,
    /// Optional early-stop: finish as soon as the informed fraction reaches this
    /// value (used by the partial-flooding experiments of Theorems 3.8 / 4.13).
    pub target_fraction: Option<f64>,
    /// Stop as soon as the broadcast is complete (`I_t ⊇ N_{t−1} ∩ N_t`).
    pub stop_when_complete: bool,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig {
            max_rounds: 4_096,
            target_fraction: None,
            stop_when_complete: true,
        }
    }
}

impl FloodingConfig {
    /// Configuration with a specific round cap.
    #[must_use]
    pub fn with_max_rounds(max_rounds: u64) -> Self {
        FloodingConfig {
            max_rounds,
            ..Self::default()
        }
    }

    /// Sets the early-stop target fraction.
    #[must_use]
    pub fn target_fraction(mut self, fraction: f64) -> Self {
        self.target_fraction = Some(fraction);
        self
    }
}

/// Per-round observation of a flooding run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// Rounds elapsed since the start of the flooding (1 for the first step).
    pub round: u64,
    /// Model time after the step.
    pub time: f64,
    /// Number of informed alive nodes after the step.
    pub informed: usize,
    /// Number of alive nodes after the step.
    pub alive: usize,
    /// Number of nodes informed for the first time in this step (and alive at
    /// its end).
    pub newly_informed: usize,
    /// Whether the broadcast is complete after this step.
    pub complete: bool,
    /// Informed alive nodes carrying no behavior tag ([`TAG_BYZANTINE`]).
    /// Equals `informed` while the graph has no tags.
    pub informed_honest: usize,
    /// Alive nodes carrying no behavior tag. Equals `alive` while the graph
    /// has no tags.
    pub alive_honest: usize,
    /// Completion restricted to the honest subpopulation: every honest node
    /// alive at the previous observation and still alive now is informed.
    /// Equals `complete` while the graph has no tags.
    pub honest_complete: bool,
}

impl RoundStats {
    /// Fraction of alive nodes that are informed (0 when the network is empty).
    #[must_use]
    pub fn informed_fraction(&self) -> f64 {
        if self.alive == 0 {
            0.0
        } else {
            self.informed as f64 / self.alive as f64
        }
    }

    /// Fraction of honest alive nodes that are informed (0 when no honest
    /// node is alive). Equals [`Self::informed_fraction`] on untagged graphs.
    #[must_use]
    pub fn honest_fraction(&self) -> f64 {
        if self.alive_honest == 0 {
            0.0
        } else {
            self.informed_honest as f64 / self.alive_honest as f64
        }
    }
}

/// How a flooding run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum FloodingOutcome {
    /// The broadcast completed: every node alive at the previous observation and
    /// still alive now is informed.
    Completed {
        /// Rounds needed (the paper's *flooding time*).
        rounds: u64,
    },
    /// The requested target fraction was reached before completion.
    ReachedTarget {
        /// Rounds needed to reach the target.
        rounds: u64,
        /// Informed fraction at that point.
        fraction: f64,
    },
    /// The broadcast died out: the informed set never grew beyond a handful of
    /// nodes (at most `d + 1`, the failure mode of Theorems 3.7 / 4.12) or every
    /// informed node died.
    DiedOut {
        /// Rounds simulated before dying out or hitting the cap.
        rounds: u64,
        /// Largest informed-set size ever observed.
        peak_informed: usize,
    },
    /// The round cap was reached without completing, reaching the target, or
    /// dying out.
    RoundLimit {
        /// Informed fraction when the cap was hit.
        fraction: f64,
    },
}

impl FloodingOutcome {
    /// Returns `true` when the broadcast completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, FloodingOutcome::Completed { .. })
    }

    /// Returns `true` when the broadcast died out.
    #[must_use]
    pub fn is_died_out(&self) -> bool {
        matches!(self, FloodingOutcome::DiedOut { .. })
    }

    /// The number of rounds after which the run ended, when meaningful.
    #[must_use]
    pub fn rounds(&self) -> Option<u64> {
        match self {
            FloodingOutcome::Completed { rounds }
            | FloodingOutcome::ReachedTarget { rounds, .. }
            | FloodingOutcome::DiedOut { rounds, .. } => Some(*rounds),
            FloodingOutcome::RoundLimit { .. } => None,
        }
    }
}

/// Complete record of one flooding run.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodingRecord {
    /// The source node.
    pub source: NodeId,
    /// Model time at which the source was informed.
    pub start_time: f64,
    /// Per-round observations, in order.
    pub rounds: Vec<RoundStats>,
    /// How the run ended.
    pub outcome: FloodingOutcome,
}

impl FloodingRecord {
    /// Number of rounds simulated.
    #[must_use]
    pub fn rounds_elapsed(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Informed fraction at the end of the run (0 if no round was simulated).
    #[must_use]
    pub fn final_fraction(&self) -> f64 {
        self.rounds
            .last()
            .map_or(0.0, RoundStats::informed_fraction)
    }

    /// Largest informed-set size observed during the run.
    #[must_use]
    pub fn peak_informed(&self) -> usize {
        self.rounds.iter().map(|r| r.informed).max().unwrap_or(0)
    }

    /// First round at which the informed fraction reached `fraction`, if ever.
    #[must_use]
    pub fn rounds_to_fraction(&self, fraction: f64) -> Option<u64> {
        self.rounds
            .iter()
            .find(|r| r.informed_fraction() >= fraction)
            .map(|r| r.round)
    }
}

/// A slab-indexed bitset whose 64-bit words are atomic, so parallel workers
/// can merge into it lock-free while sequential users pay nothing extra.
///
/// * **Sequential path** ([`Self::set`], [`Self::clear`]): exclusive `&mut`
///   access compiles the atomics down to plain loads and stores.
/// * **Parallel path** ([`Self::set_shared`]): workers share `&AtomicBitset`
///   and merge through a per-word atomic fetch-OR whose return value tells
///   the calling worker whether *it* switched the bit on — exactly one worker
///   claims each newly covered index, with no locks and no duplicate entries.
///
/// Set-union is order-independent, so the bitset contents after a parallel
/// merge are bit-identical to the sequential insertion of the same indices in
/// any order and at any thread count; `crates/core/tests/prop_flooding_bitset.rs`
/// pins this with a property test.
#[derive(Debug, Default)]
pub struct AtomicBitset {
    words: Vec<AtomicU64>,
}

impl Clone for AtomicBitset {
    fn clone(&self) -> Self {
        AtomicBitset {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
        }
    }
}

impl AtomicBitset {
    /// An empty bitset pre-sized for `bits` bits.
    #[must_use]
    pub fn with_bit_capacity(bits: usize) -> Self {
        let mut set = Self::default();
        set.ensure_bits(bits);
        set
    }

    /// Grows the word array (zero-filled) until it covers `bits` bits.
    /// [`Self::set_shared`] requires its index to be covered beforehand —
    /// shared workers cannot grow the array.
    pub fn ensure_bits(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize_with(words, AtomicU64::default);
        }
    }

    #[inline]
    fn split(idx: u32) -> (usize, u64) {
        ((idx / 64) as usize, 1u64 << (idx % 64))
    }

    /// Tests a bit (relaxed load; out-of-range indices read as unset).
    #[inline]
    #[must_use]
    pub fn test(&self, idx: u32) -> bool {
        let (word, mask) = Self::split(idx);
        self.words
            .get(word)
            .is_some_and(|w| w.load(Ordering::Relaxed) & mask != 0)
    }

    /// Exclusive-access set, growing the words on demand; returns `true` when
    /// the bit was newly set.
    #[inline]
    pub fn set(&mut self, idx: u32) -> bool {
        let (word, mask) = Self::split(idx);
        if word >= self.words.len() {
            self.words.resize_with(word + 1, AtomicU64::default);
        }
        let w = self.words[word].get_mut();
        if *w & mask != 0 {
            return false;
        }
        *w |= mask;
        true
    }

    /// Shared-access set: merges the bit through a per-word atomic fetch-OR.
    /// Returns `true` iff this call switched the bit from 0 to 1 (exactly one
    /// of any number of racing callers observes `true`).
    ///
    /// # Panics
    ///
    /// Panics when `idx` is beyond the capacity reserved with
    /// [`Self::ensure_bits`]: growth needs exclusive access, so shared
    /// writers must operate within the pre-sized range.
    #[inline]
    pub fn set_shared(&self, idx: u32) -> bool {
        let (word, mask) = Self::split(idx);
        let prev = self.words[word].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Shared-access clear: removes the bit through a per-word atomic
    /// fetch-AND. Safe to race with other shared *clears* (set-minus is
    /// order-independent); racing it with concurrent `set_shared` calls on
    /// the same word would make the outcome scheduling-dependent, so the
    /// sweeps never mix the two phases. Used by the sharded `is_current`
    /// revalidation sweep.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is beyond the capacity reserved with
    /// [`Self::ensure_bits`] (shared writers cannot grow the array).
    #[inline]
    pub fn clear_shared(&self, idx: u32) {
        let (word, mask) = Self::split(idx);
        self.words[word].fetch_and(!mask, Ordering::Relaxed);
    }

    /// Exclusive-access clear (out-of-range indices are a no-op).
    #[inline]
    pub fn clear(&mut self, idx: u32) {
        let (word, mask) = Self::split(idx);
        if let Some(w) = self.words.get_mut(word) {
            *w.get_mut() &= !mask;
        }
    }

    /// Copies the current words into `out` (replacing its contents): a frozen
    /// point-in-time snapshot that stays valid while shared writers keep
    /// merging into `self`. The sharded pull sweep reads the *pre-round*
    /// informed set from such a snapshot so that intra-round discoveries can
    /// never chain (which would break the one-hop-per-round semantics).
    pub fn snapshot_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.words.iter().map(|w| w.load(Ordering::Relaxed)));
    }
}

/// Probes a frozen [`AtomicBitset::snapshot_into`] word dump.
#[inline]
fn frozen_test(frozen: &[u64], idx: u32) -> bool {
    frozen
        .get((idx / 64) as usize)
        .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
}

/// The informed set, stored densely: one bit per slab cell of the underlying
/// [`DynamicGraph`], plus the list of informed `(DenseHandle, NodeId)`
/// entries. The bitset makes "is this node already informed?" a single word
/// probe, and the entry list bounds all per-round work by the informed
/// population instead of the network size.
///
/// Both the synchronous [`FloodingProcess`] and the asynchronous rumor of
/// `churn-event` keep their informed set here, so how it survives churn is
/// decided once. Slab cells are recycled, so after every churn interval the
/// owner calls [`Self::revalidate`]: entries whose generation-tagged handle
/// fails [`DynamicGraph::is_current`] (one flat counter probe, no identifier
/// compare) — dead nodes, or cells reused by newborns — drop out and their
/// bits are cleared. [`Self::contains`] takes a cell index, so it is exact
/// only between a revalidation and the next churn.
#[derive(Debug, Clone, Default)]
pub struct InformedSet {
    bits: AtomicBitset,
    entries: Vec<(DenseHandle, NodeId)>,
}

impl InformedSet {
    /// Number of informed nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no node is informed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The informed `(handle, id)` entries, in insertion order (removals
    /// keep the relative order of the rest).
    #[must_use]
    pub fn entries(&self) -> &[(DenseHandle, NodeId)] {
        &self.entries
    }

    /// Whether the node in slab cell `idx` is informed.
    #[inline]
    #[must_use]
    pub fn contains(&self, idx: u32) -> bool {
        self.bits.test(idx)
    }

    /// Marks the node at `handle` informed (a no-op when its cell already
    /// is).
    #[inline]
    pub fn insert(&mut self, handle: DenseHandle, id: NodeId) {
        if self.bits.set(handle.index) {
            self.entries.push((handle, id));
        }
    }

    /// Un-marks the node at `handle` (a no-op when it is not informed).
    pub fn remove(&mut self, handle: DenseHandle) {
        if !self.bits.test(handle.index) {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|&(h, _)| h == handle) {
            self.entries.remove(pos);
            self.bits.clear(handle.index);
        }
    }

    /// Drops the entries whose slab cell no longer holds their node and
    /// clears their bits, keeping the survivors' order. Returns how many of
    /// the first `prefix` entries survived.
    pub fn revalidate(&mut self, graph: &DynamicGraph, prefix: usize) -> usize {
        let mut surviving_prefix = 0usize;
        let mut write = 0usize;
        for read in 0..self.entries.len() {
            let (handle, id) = self.entries[read];
            if graph.is_current(handle) {
                if read < prefix {
                    surviving_prefix += 1;
                }
                self.entries[write] = (handle, id);
                write += 1;
            } else {
                self.bits.clear(handle.index);
            }
        }
        self.entries.truncate(write);
        surviving_prefix
    }
}

/// Expansion strategy a [`FloodingProcess`] round used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierDirection {
    /// At or below the size cutoff: plain sequential sweep.
    Sequential,
    /// Informed set still small: shard the informed entries and push along
    /// their adjacency.
    Push,
    /// Informed fraction past the crossover: shard the alive slab range and
    /// pull — each uninformed cell scans its neighbours for an informed one.
    Pull,
}

/// Alive-population cutoff at or below which [`FloodingProcess`] sweeps
/// sequentially: at small sizes a round is microseconds and fork-join
/// overhead would dominate.
pub const PARALLEL_FLOODING_CUTOFF: usize = 1 << 14;

/// Direction heuristic of the sharded sweep.
///
/// Per round, push costs ~`informed · 2d` random adjacency probes, while pull
/// costs ~`alive` sequential bit probes plus, per uninformed cell, an
/// early-exiting neighbour scan of expected length `min(2d, alive/informed)`.
/// Equating the two puts the crossover near `informed/alive ≈ √(1/2d)`, i.e.
/// pull wins once `informed² · 2d ≥ alive²` — for `d = 8` that is an informed
/// fraction of 25%. Late rounds (`informed ≈ alive`) then cost a near-pure
/// linear scan instead of `alive · 2d` random probes, which is where the bulk
/// of a complete broadcast's work lives.
#[must_use]
fn pull_is_cheaper(informed: usize, alive: usize, d: usize) -> bool {
    let informed = informed as u128;
    let alive = alive as u128;
    informed * informed * 2 * d.max(1) as u128 >= alive * alive
}

/// A step-by-step flooding process, for callers that want to interleave their
/// own measurements between rounds. [`run_flooding`] is the batteries-included
/// driver built on top of it.
///
/// Each round expands the [`InformedSet`] over the current snapshot, advances
/// the model one time unit and revalidates. The expansion takes one of two
/// paths, which produce identical per-round informed sets — pinned by
/// `tests/parallel_flooding.rs` at 1, 2, 4 and 8 threads over every model
/// kind:
///
/// * **Sequential** (at most [`PARALLEL_FLOODING_CUTOFF`] alive nodes, see
///   [`Self::with_sequential_cutoff`]): one pass over the informed entries'
///   adjacency, appending newly covered cells in discovery order.
/// * **Sharded** (above the cutoff): a fork-join over the thread budget.
///   - *Push* (small informed set): the informed entry list is cut into
///     `threads` contiguous chunks; each worker expands its chunk's
///     adjacency, claims newly covered cells through the shared
///     [`AtomicBitset`]'s per-word fetch-OR, and stages the indices it won in
///     a thread-local buffer.
///   - *Pull* (informed fraction past the push/pull crossover near
///     `√(1/2d)`, where `informed² · 2d ≥ alive²`): each worker walks one
///     contiguous slab range ([`DynamicGraph::par_alive_ranges`]) and informs
///     every uninformed alive cell that has a neighbour in the *frozen*
///     pre-round bitset snapshot — frozen, so intra-round discoveries cannot
///     chain into multi-hop spread. Late rounds therefore cost
///     `O(alive / threads)` per worker instead of `O(informed · d)` random
///     probes.
///   - *Merge*: the thread-local buffers are concatenated and sorted (which
///     shard won a boundary cell is scheduling-dependent; the sort restores
///     a schedule-independent ascending entry order), then appended to the
///     entry list. Set-union is order-independent, so the informed set is
///     bit-identical to the sequential sweep's at any thread count.
///
/// A one-thread budget keeps the sharded path above the cutoff: the
/// direction switch is an algorithmic win, independent of parallelism, and
/// the fork-join then runs inline with a single shard.
#[derive(Debug, Clone)]
pub struct FloodingProcess {
    source: NodeId,
    start_time: f64,
    informed: InformedSet,
    rounds: u64,
    complete: bool,
    peak_informed: usize,
    /// Entry-list position where the most recent round's newly informed
    /// entries start (everything before it survived from the previous round).
    last_new_from: usize,
    threads: usize,
    sequential_cutoff: usize,
    /// Frozen pre-round bitset words (reused across rounds).
    frozen: Vec<u64>,
    /// Per-shard staging buffers of newly informed dense indices (reused).
    shard_bufs: Vec<Vec<u32>>,
    /// Concatenation + sort scratch for the merge phase (reused).
    merge_scratch: Vec<u32>,
    /// Per-shard order-preserving compaction buffers of the sharded
    /// `is_current` revalidation sweep (reused).
    reval_bufs: Vec<Vec<(DenseHandle, NodeId)>>,
    /// Per-shard surviving-prefix counts of the same sweep (reused).
    reval_counts: Vec<usize>,
    last_direction: FrontierDirection,
}

impl FloodingProcess {
    /// Starts a flooding process from an alive source node with a thread
    /// budget (`0` = one shard per pool thread); `None` if `source` is not
    /// alive in `model`.
    fn from_source<M: DynamicNetwork + ?Sized>(
        model: &M,
        source: NodeId,
        threads: usize,
    ) -> Option<Self> {
        let source_handle = model.graph().handle_of(source)?;
        let mut informed = InformedSet::default();
        informed.bits.ensure_bits(model.graph().slab_len());
        informed.insert(source_handle, source);
        let threads = if threads == 0 {
            rayon::current_num_threads()
        } else {
            threads
        };
        Some(FloodingProcess {
            source,
            start_time: model.time(),
            informed,
            rounds: 0,
            complete: false,
            peak_informed: 1,
            last_new_from: 0,
            threads: threads.max(1),
            sequential_cutoff: PARALLEL_FLOODING_CUTOFF,
            frozen: Vec::new(),
            shard_bufs: Vec::new(),
            merge_scratch: Vec::new(),
            reval_bufs: Vec::new(),
            reval_counts: Vec::new(),
            last_direction: FrontierDirection::Sequential,
        })
    }

    /// Resolves a [`FloodingSource`] (possibly advancing the model to the next
    /// join) and starts the process from it with a thread budget (`0` = one
    /// shard per pool thread).
    pub fn start<M: DynamicNetwork + ?Sized>(
        model: &mut M,
        source: FloodingSource,
        threads: usize,
    ) -> Self {
        let source_id = match source {
            FloodingSource::Node(id) if model.contains(id) => Some(id),
            FloodingSource::Newest => model.newest_node(),
            _ => None,
        };
        let source_id = source_id.unwrap_or_else(|| loop {
            let summary = model.advance_time_unit();
            if let Some(&id) = summary.births.last() {
                break id;
            }
        });
        Self::from_source(model, source_id, threads).expect("source is alive by construction")
    }

    /// Overrides the sequential-sweep population cutoff (default
    /// [`PARALLEL_FLOODING_CUTOFF`]): `0` forces the sharded path at any
    /// size, `usize::MAX` the sequential sweep; the determinism tests use
    /// both.
    #[must_use]
    pub fn with_sequential_cutoff(mut self, cutoff: usize) -> Self {
        self.sequential_cutoff = cutoff;
        self
    }

    /// The configured thread budget (also the shard count).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Expansion strategy of the most recent round.
    #[must_use]
    pub fn last_direction(&self) -> FrontierDirection {
        self.last_direction
    }

    /// The source node.
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Model time at which the source was informed.
    #[must_use]
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// The currently informed (alive) nodes, as a set of identifiers.
    ///
    /// This is the API-boundary view of the internal bitset and is rebuilt on
    /// every call; prefer [`Self::informed_count`] in measurement loops.
    #[must_use]
    pub fn informed(&self) -> HashSet<NodeId> {
        self.informed.entries.iter().map(|&(_, id)| id).collect()
    }

    /// Number of currently informed nodes.
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed.len()
    }

    /// Whether the node in slab cell `idx` is informed. The set is
    /// revalidated after every round's churn, so this is exact until the
    /// model churns outside the process.
    #[must_use]
    pub fn is_informed(&self, idx: u32) -> bool {
        self.informed.contains(idx)
    }

    /// Dense slab indices of the currently informed entries, in entry order.
    /// Valid until the underlying graph churns; observers (e.g. the
    /// informed-overlap tracker in `churn-observe`) consume these instead of
    /// the identifier set to stay allocation- and hash-free.
    pub fn informed_dense(&self) -> impl Iterator<Item = u32> + '_ {
        self.informed
            .entries
            .iter()
            .map(|&(handle, _)| handle.index)
    }

    /// Dense slab indices of the nodes informed for the first time in the
    /// most recent round (and alive at its end) — the O(newly informed)
    /// feed for incremental observers. Before the first step this yields the
    /// source (the only node informed so far).
    pub fn newly_informed_dense(&self) -> impl Iterator<Item = u32> + '_ {
        let from = self.last_new_from.min(self.informed.entries.len());
        self.informed.entries[from..]
            .iter()
            .map(|&(handle, _)| handle.index)
    }

    /// Largest informed-set size observed so far.
    #[must_use]
    pub fn peak_informed(&self) -> usize {
        self.peak_informed
    }

    /// Number of rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Whether the broadcast is complete (`I_t ⊇ N_{t−1} ∩ N_t` at the last
    /// step).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Executes one flooding round: every neighbour (in the current snapshot) of
    /// an informed node becomes informed one time unit later, the model advances
    /// by that time unit, and informed nodes that died are dropped.
    pub fn step<M: DynamicNetwork + ?Sized>(&mut self, model: &mut M) -> RoundStats {
        // The caller may have churned the model between steps (the process
        // only observes it through this method), so first drop entries whose
        // slab cell was vacated or recycled — otherwise the boundary sweep
        // below would expand a newborn's adjacency as if it were informed.
        self.revalidate(model.graph(), 0);

        let prev_len = self.informed.len();
        {
            let graph = model.graph();
            self.informed.bits.ensure_bits(graph.slab_len());
            let alive = graph.len();
            if alive <= self.sequential_cutoff {
                self.last_direction = FrontierDirection::Sequential;
                self.expand_sequential(graph, prev_len);
            } else {
                let pull = pull_is_cheaper(prev_len, alive, model.degree_parameter());
                self.last_direction = if pull {
                    FrontierDirection::Pull
                } else {
                    FrontierDirection::Push
                };
                self.expand_sharded(graph, prev_len, pull);
            }
        }

        // One message-delay unit of churn.
        let summary = model.advance_time_unit();
        let surviving_prev = self.revalidate(model.graph(), prev_len);
        self.finish_round(model, &summary, surviving_prev)
    }

    /// Revalidates the informed entries against the live graph (see
    /// [`InformedSet::revalidate`]), sharding the `is_current` sweep across
    /// the thread budget once the entry list is past the sequential cutoff.
    /// Each worker compacts one contiguous chunk into a private buffer
    /// (relative order kept) and counts its survivors below the `prefix`
    /// boundary; the buffers concatenate in chunk order, so the surviving
    /// entry list — and the returned prefix count — are identical to the
    /// sequential sweep's at any thread count. Dropped entries clear their
    /// bits through the shared atomic fetch-AND (no sets race with it: the
    /// expansion phase is over).
    fn revalidate(&mut self, graph: &DynamicGraph, prefix: usize) -> usize {
        let len = self.informed.len();
        if self.threads == 1 || len <= self.sequential_cutoff {
            return self.informed.revalidate(graph, prefix);
        }
        let shards = self.threads.min(len);
        let chunk = len.div_ceil(shards);
        let shard_count = len.div_ceil(chunk);
        if self.reval_bufs.len() < shard_count {
            self.reval_bufs.resize_with(shard_count, Vec::new);
        }
        self.reval_counts.clear();
        self.reval_counts.resize(shard_count, 0);
        {
            let entries = &self.informed.entries;
            let bits = &self.informed.bits;
            rayon::scope(|s| {
                for (i, ((slice, buf), count)) in entries
                    .chunks(chunk)
                    .zip(self.reval_bufs.iter_mut())
                    .zip(self.reval_counts.iter_mut())
                    .enumerate()
                {
                    let offset = i * chunk;
                    s.spawn(move |_| {
                        buf.clear();
                        for (j, &(handle, id)) in slice.iter().enumerate() {
                            if graph.is_current(handle) {
                                if offset + j < prefix {
                                    *count += 1;
                                }
                                buf.push((handle, id));
                            } else {
                                bits.clear_shared(handle.index);
                            }
                        }
                    });
                }
            });
        }
        let entries = &mut self.informed.entries;
        entries.clear();
        for buf in &self.reval_bufs[..shard_count] {
            entries.extend_from_slice(buf);
        }
        self.reval_counts.iter().sum()
    }

    /// Boundary sweep in the current snapshot G_{t-1}: expands the bitset over
    /// the dense adjacency of the first `prev_len` entries. Entries appended
    /// during the sweep are the frontier of this round; they are not
    /// re-expanded (their bits are set, so the loop over the pre-existing
    /// prefix suffices).
    fn expand_sequential(&mut self, graph: &DynamicGraph, prev_len: usize) {
        let tagged = graph.tags_enabled();
        for i in 0..prev_len {
            let idx = self.informed.entries[i].0.index;
            if tagged && graph.tag_at(idx) & TAG_NO_FORWARD != 0 {
                continue; // informed but silent: never a source
            }
            for nb in graph.neighbor_indices_at(idx) {
                if !self.informed.contains(nb) {
                    let nb_handle = graph
                        .handle_at(nb)
                        .expect("adjacency points at alive cells");
                    let nb_id = graph.id_at(nb).expect("adjacency points at alive cells");
                    self.informed.insert(nb_handle, nb_id);
                }
            }
        }
    }

    /// The sharded boundary sweep (see the type docs for the push/pull
    /// mechanics). Only touches the graph read-only; all mutation goes
    /// through the atomic bitset and the post-join merge.
    fn expand_sharded(&mut self, graph: &DynamicGraph, prev_len: usize, pull: bool) {
        let informed = &self.informed;
        // Only pull reads the frozen pre-round snapshot (push dedups against
        // the live bits); skipping the O(slab_len/64) copy keeps the small
        // early push rounds cheap.
        if pull {
            informed.bits.snapshot_into(&mut self.frozen);
        }
        let frozen: &[u64] = &self.frozen;
        let bits = &informed.bits;
        let entries = &informed.entries[..prev_len];
        let tagged = graph.tags_enabled();

        if self.shard_bufs.len() < self.threads {
            self.shard_bufs.resize_with(self.threads, Vec::new);
        }
        for buf in &mut self.shard_bufs {
            buf.clear();
        }

        rayon::scope(|s| {
            if pull {
                for (range, buf) in graph
                    .par_alive_ranges(self.threads)
                    .zip(self.shard_bufs.iter_mut())
                {
                    s.spawn(move |_| {
                        for idx in range {
                            if frozen_test(frozen, idx) {
                                continue; // already informed before this round
                            }
                            // Vacant cells yield no neighbours and fall through.
                            for nb in graph.neighbor_indices_at(idx) {
                                // A silent neighbour is informed but never a
                                // source — keep scanning for a forwarding one.
                                if frozen_test(frozen, nb)
                                    && (!tagged || graph.tag_at(nb) & TAG_NO_FORWARD == 0)
                                {
                                    if bits.set_shared(idx) {
                                        buf.push(idx);
                                    }
                                    break;
                                }
                            }
                        }
                    });
                }
            } else {
                let chunk = prev_len.div_ceil(self.threads).max(1);
                for (slice, buf) in entries.chunks(chunk).zip(self.shard_bufs.iter_mut()) {
                    s.spawn(move |_| {
                        for &(handle, _) in slice {
                            if tagged && graph.tag_at(handle.index) & TAG_NO_FORWARD != 0 {
                                continue; // informed but silent: never a source
                            }
                            for nb in graph.neighbor_indices_at(handle.index) {
                                // The relaxed pre-test skips already-informed
                                // cells cheaply; the fetch-OR arbitrates races
                                // on genuinely new ones.
                                if !bits.test(nb) && bits.set_shared(nb) {
                                    buf.push(nb);
                                }
                            }
                        }
                    });
                }
            }
        });

        // Merge: every newly set bit was claimed by exactly one worker, so the
        // buffers concatenate without duplicates; sorting removes the only
        // scheduling-dependent artefact (which buffer a boundary cell landed
        // in), keeping the entry list identical at any thread count.
        self.merge_scratch.clear();
        for buf in &self.shard_bufs {
            self.merge_scratch.extend_from_slice(buf);
        }
        self.merge_scratch.sort_unstable();
        for &idx in &self.merge_scratch {
            let handle = graph
                .handle_at(idx)
                .expect("newly informed cells are alive");
            let id = graph.id_at(idx).expect("newly informed cells are alive");
            self.informed.entries.push((handle, id));
        }
    }

    /// Post-churn bookkeeping, with the revalidation against
    /// `I_t = (I_{t-1} ∪ ∂out(I_{t-1})) ∩ N_t` already done (`surviving_prev`
    /// of the pre-round entries survived): updates the counters and the
    /// completion flag, and builds the round stats.
    fn finish_round<M: DynamicNetwork + ?Sized>(
        &mut self,
        model: &M,
        summary: &ChurnSummary,
        surviving_prev: usize,
    ) -> RoundStats {
        let newly_informed = self.informed.len() - surviving_prev;
        self.last_new_from = surviving_prev;
        self.rounds += 1;
        self.peak_informed = self.peak_informed.max(self.informed.len());

        // Completion: every alive node that is not a newcomer of this interval
        // is informed, i.e. I_t ⊇ N_{t-1} ∩ N_t. Newborns are never informed
        // (the boundary sweep preceded their birth), so a counting argument
        // replaces the former full scan over the alive set.
        let alive = model.alive_count();
        let births_alive = summary
            .births
            .iter()
            .filter(|&&id| model.contains(id))
            .count();
        self.complete = self.informed.len() + births_alive == alive;

        // Honest-only accounting: on untagged graphs the honest figures
        // coincide with the global ones at zero extra cost; with tags the
        // split is one O(informed + births) pass over data already touched.
        let graph = model.graph();
        let (informed_honest, alive_honest, honest_complete) = if graph.tags_enabled() {
            let informed_honest = self
                .informed
                .entries
                .iter()
                .filter(|&&(handle, _)| graph.tag_at(handle.index) == 0)
                .count();
            let alive_honest = alive - graph.tagged_member_count();
            let honest_births = summary
                .births
                .iter()
                .filter_map(|&id| graph.dense_index_of(id))
                .filter(|&idx| graph.tag_at(idx) == 0)
                .count();
            (
                informed_honest,
                alive_honest,
                informed_honest + honest_births == alive_honest,
            )
        } else {
            (self.informed.len(), alive, self.complete)
        };

        RoundStats {
            round: self.rounds,
            time: model.time(),
            informed: self.informed.len(),
            alive,
            newly_informed,
            complete: self.complete,
            informed_honest,
            alive_honest,
            honest_complete,
        }
    }

    /// Steps the process until `config`'s stop rule fires and returns the
    /// record of those rounds. [`run_flooding`] is [`Self::start`] followed by
    /// this; a caller that keeps the process can read its final informed set
    /// afterwards ([`Self::is_informed`]).
    pub fn run<M: DynamicNetwork + ?Sized>(
        &mut self,
        model: &mut M,
        config: &FloodingConfig,
    ) -> FloodingRecord {
        self.run_with(model, config, |_, _| {})
    }

    /// [`Self::run`], calling `after_step` after every round.
    fn run_with<M: DynamicNetwork + ?Sized>(
        &mut self,
        model: &mut M,
        config: &FloodingConfig,
        mut after_step: impl FnMut(&mut M, &FloodingProcess),
    ) -> FloodingRecord {
        let d = model.degree_parameter();
        let mut rounds = Vec::new();
        let mut peak_informed = 1usize;

        let outcome = loop {
            let stats = {
                let _sweep = tracing::span("sweep");
                let stats = self.step(model);
                after_step(model, self);
                stats
            };
            let fraction = stats.informed_fraction();
            let informed = stats.informed;
            let round = stats.round;
            let complete = stats.complete;
            peak_informed = peak_informed.max(informed);
            rounds.push(stats);

            if config.stop_when_complete && complete {
                break FloodingOutcome::Completed { rounds: round };
            }
            if let Some(target) = config.target_fraction {
                if fraction >= target {
                    break FloodingOutcome::ReachedTarget {
                        rounds: round,
                        fraction,
                    };
                }
            }
            if informed == 0 {
                break FloodingOutcome::DiedOut {
                    rounds: round,
                    peak_informed,
                };
            }
            if round >= config.max_rounds {
                // Distinguish "never took off" (Theorem 3.7's failure mode) from
                // "still spreading when the cap was hit".
                if peak_informed <= d + 1 {
                    break FloodingOutcome::DiedOut {
                        rounds: round,
                        peak_informed,
                    };
                }
                break FloodingOutcome::RoundLimit { fraction };
            }
        };

        FloodingRecord {
            source: self.source,
            start_time: self.start_time,
            rounds,
            outcome,
        }
    }
}

/// Runs a flooding process to termination according to `config` with a
/// thread budget (`0` = one shard per pool thread) and returns the full
/// record. The record is identical at any thread budget; only the
/// wall-clock cost differs.
///
/// # Example
///
/// ```
/// use churn_core::{EdgePolicy, StreamingConfig, StreamingModel, DynamicNetwork};
/// use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
///
/// # fn main() -> Result<(), churn_core::ModelError> {
/// let mut model = StreamingModel::new(
///     StreamingConfig::new(128, 6).edge_policy(EdgePolicy::Regenerate).seed(3),
/// )?;
/// model.warm_up();
/// let record = run_flooding(&mut model, FloodingSource::NextToJoin, &FloodingConfig::default(), 1);
/// assert!(record.final_fraction() > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn run_flooding<M: DynamicNetwork + ?Sized>(
    model: &mut M,
    source: FloodingSource,
    config: &FloodingConfig,
    threads: usize,
) -> FloodingRecord {
    FloodingProcess::start(model, source, threads).run(model, config)
}

/// Like [`run_flooding`], with the graph's [`GraphDelta`] change
/// feed wired in: recording is (re)started before the run, and after every
/// round `observer(model, delta, process)` receives the round's drained churn
/// window plus the process (whose
/// [`FloodingProcess::newly_informed_dense`] lists the round's newly
/// informed cells). One initial call — empty-or-source-selection window, the
/// source already informed — precedes the first round, so incremental
/// overlap trackers (`churn-observe`'s `InformedOverlap`) can seed
/// themselves. Recording is disabled again on return.
///
/// The flooding trajectory is identical to [`run_flooding`]'s —
/// observation reads, never steers. The scenario engine no longer calls
/// this: it reads the finished process's own informed set
/// ([`FloodingProcess::is_informed`]) instead of a second tracker. The
/// remaining caller outside tests is the per-layer replay of the
/// `perfbench` harness.
///
/// [`GraphDelta`]: churn_graph::GraphDelta
pub fn run_flooding_parallel_observed<M, F>(
    model: &mut M,
    source: FloodingSource,
    config: &FloodingConfig,
    threads: usize,
    mut observer: F,
) -> FloodingRecord
where
    M: DynamicNetwork + ?Sized,
    F: FnMut(&M, &churn_graph::GraphDelta, &FloodingProcess),
{
    // Restart recording so a stale pre-run window (e.g. a warm-up performed
    // with recording enabled) cannot leak into the first observation.
    model.graph_mut().set_delta_recording(false);
    model.graph_mut().set_delta_recording(true);
    let mut process = FloodingProcess::start(model, source, threads);
    let mut delta = churn_graph::GraphDelta::new();
    // Source selection may have advanced the model (FloodingSource::NextToJoin
    // waits for a join); hand that window to the observer before round 1.
    model.graph_mut().take_delta_into(&mut delta);
    observer(&*model, &delta, &process);
    let record = process.run_with(model, config, |m, p| {
        m.graph_mut().take_delta_into(&mut delta);
        observer(&*m, &delta, p);
    });
    model.graph_mut().set_delta_recording(false);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgePolicy, PoissonConfig, PoissonModel, StreamingConfig, StreamingModel};

    fn sdgr(n: usize, d: usize, seed: u64) -> StreamingModel {
        let mut m = StreamingModel::new(
            StreamingConfig::new(n, d)
                .edge_policy(EdgePolicy::Regenerate)
                .seed(seed),
        )
        .unwrap();
        m.warm_up();
        m
    }

    fn sdg(n: usize, d: usize, seed: u64) -> StreamingModel {
        let mut m = StreamingModel::new(StreamingConfig::new(n, d).seed(seed)).unwrap();
        m.warm_up();
        m
    }

    #[test]
    fn flooding_on_sdgr_completes_quickly() {
        // Theorem 3.16: SDGR flooding completes in O(log n) rounds w.h.p.
        let mut model = sdgr(256, 8, 1);
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            1,
        );
        assert!(
            record.outcome.is_complete(),
            "outcome: {:?}",
            record.outcome
        );
        let rounds = record.outcome.rounds().unwrap();
        assert!(
            rounds <= 40,
            "completion in {rounds} rounds is far beyond O(log 256)"
        );
        assert!(record.final_fraction() > 0.99);
    }

    #[test]
    fn flooding_on_sdg_reaches_most_nodes_with_large_d() {
        // Theorem 3.8 (scaled down): with a healthy d, flooding informs a large
        // constant fraction of an SDG network within O(log n) rounds.
        let mut model = sdg(512, 12, 2);
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::with_max_rounds(60).target_fraction(0.8),
            1,
        );
        assert!(
            record.final_fraction() >= 0.8 || record.outcome.is_complete(),
            "informed only {:.2} of the nodes: {:?}",
            record.final_fraction(),
            record.outcome
        );
    }

    #[test]
    fn flooding_with_d_1_often_dies_out() {
        // Theorem 3.7: with constant (tiny) d, flooding fails with constant
        // probability. With d = 1 the source's only request frequently lands on a
        // node with no other connections. We run several seeds and require at
        // least one die-out, which is overwhelmingly likely.
        let mut died = 0;
        for seed in 0..12 {
            let mut model = sdg(128, 1, seed);
            let record = run_flooding(
                &mut model,
                FloodingSource::NextToJoin,
                &FloodingConfig::with_max_rounds(200),
                1,
            );
            if record.outcome.is_died_out() {
                died += 1;
            }
        }
        assert!(
            died > 0,
            "at least one of 12 runs with d = 1 should die out"
        );
    }

    #[test]
    fn flooding_on_pdgr_completes() {
        // Theorem 4.20: PDGR flooding completes in O(log n) rounds w.h.p.
        let mut model = PoissonModel::new(
            PoissonConfig::with_expected_size(256, 10)
                .edge_policy(EdgePolicy::Regenerate)
                .seed(3),
        )
        .unwrap();
        model.warm_up();
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            1,
        );
        assert!(
            record.outcome.is_complete(),
            "PDGR flooding should complete: {:?}",
            record.outcome
        );
        assert!(record.outcome.rounds().unwrap() <= 60);
    }

    #[test]
    fn informed_set_grows_monotonically_in_sdgr_until_completion() {
        let mut model = sdgr(128, 6, 4);
        let mut process = FloodingProcess::start(&mut model, FloodingSource::NextToJoin, 1);
        let mut last = 1usize;
        for _ in 0..40 {
            let stats = process.step(&mut model);
            // In SDGR at most one informed node dies per round while the boundary
            // typically adds many; allow small dips but require overall growth.
            assert!(stats.informed + 1 >= last);
            last = stats.informed;
            if stats.complete {
                break;
            }
        }
        assert!(process.is_complete());
    }

    #[test]
    fn external_churn_between_steps_does_not_corrupt_informed_set() {
        // The caller is allowed to advance the model outside step(). Any
        // informed node that dies in between — including one whose slab cell
        // is recycled by a newborn — must silently drop out instead of the
        // newborn's neighbourhood being treated as informed.
        let mut model = sdgr(64, 4, 21);
        let source = model.alive_ids()[5];
        let mut process = FloodingProcess::from_source(&model, source, 1).unwrap();
        // Churn the whole population over: every node alive at start (the
        // source included) dies, and every slab cell is recycled.
        for _ in 0..(2 * 64) {
            model.advance_time_unit();
        }
        assert!(!model.contains(source));
        let stats = process.step(&mut model);
        // The stale source entry must not seed the newborn occupying its
        // cell: the informed set collapses to empty (nobody was informed).
        assert_eq!(stats.informed, 0, "stale cell must not re-seed flooding");
        assert_eq!(process.informed_count(), 0);
        assert!(process.informed().is_empty());
    }

    #[test]
    fn from_source_rejects_dead_nodes() {
        let model = sdgr(64, 4, 5);
        assert!(FloodingProcess::from_source(&model, NodeId::new(u64::MAX), 1).is_none());
        let alive = model.alive_ids()[0];
        let process = FloodingProcess::from_source(&model, alive, 1).unwrap();
        assert_eq!(process.informed_count(), 1);
        assert_eq!(process.source(), alive);
        assert_eq!(process.rounds(), 0);
        assert!(!process.is_complete());
    }

    #[test]
    fn source_newest_uses_newest_alive_node() {
        let mut model = sdgr(64, 4, 6);
        let newest = model.newest_node().unwrap();
        let process = FloodingProcess::start(&mut model, FloodingSource::Newest, 1);
        assert_eq!(process.source(), newest);
    }

    #[test]
    fn source_specific_node_is_respected_when_alive() {
        let mut model = sdgr(64, 4, 7);
        let target = model.alive_ids()[10];
        let process = FloodingProcess::start(&mut model, FloodingSource::Node(target), 1);
        assert_eq!(process.source(), target);
        // A dead node falls back to the next joiner.
        let process =
            FloodingProcess::start(&mut model, FloodingSource::Node(NodeId::new(u64::MAX)), 1);
        assert!(model.contains(process.source()));
    }

    #[test]
    fn record_accessors_are_consistent() {
        let mut model = sdgr(128, 6, 8);
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            1,
        );
        assert_eq!(record.rounds_elapsed(), record.rounds.len() as u64);
        assert!(record.peak_informed() >= 1);
        assert!(record.rounds_to_fraction(0.5).is_some());
        assert!(record.rounds_to_fraction(0.5) <= record.rounds_to_fraction(0.9));
        // Round stats are monotone in round index and time.
        for w in record.rounds.windows(2) {
            assert_eq!(w[1].round, w[0].round + 1);
            assert!(w[1].time >= w[0].time);
        }
    }

    #[test]
    fn target_fraction_stops_early() {
        let mut model = sdgr(256, 8, 9);
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig {
                max_rounds: 100,
                target_fraction: Some(0.3),
                stop_when_complete: false,
            },
            1,
        );
        match record.outcome {
            FloodingOutcome::ReachedTarget { fraction, .. } => assert!(fraction >= 0.3),
            other => panic!("expected ReachedTarget, got {other:?}"),
        }
    }

    #[test]
    fn round_limit_outcome_reports_fraction() {
        let mut model = sdg(256, 8, 10);
        let record = run_flooding(
            &mut model,
            FloodingSource::NextToJoin,
            &FloodingConfig {
                max_rounds: 3,
                target_fraction: None,
                stop_when_complete: true,
            },
            1,
        );
        // After only 3 rounds the outcome is either an early die-out or a round
        // limit with a small fraction.
        match record.outcome {
            FloodingOutcome::RoundLimit { fraction } => assert!(fraction < 1.0),
            FloodingOutcome::DiedOut { .. } => {}
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(record.rounds_elapsed(), 3);
    }

    #[test]
    fn no_forward_tags_keep_engines_identical_and_split_honest_counts() {
        let mut seq_model = sdgr(512, 8, 21);
        let mut par_model = sdgr(512, 8, 21);
        let mut seq = FloodingProcess::start(&mut seq_model, FloodingSource::NextToJoin, 1)
            .with_sequential_cutoff(usize::MAX);
        let mut par = FloodingProcess::start(&mut par_model, FloodingSource::NextToJoin, 4)
            .with_sequential_cutoff(0);
        let source = seq.source();
        assert_eq!(source, par.source());

        // Untagged graph: the honest fields mirror the global ones.
        let untouched = seq.step(&mut seq_model);
        assert_eq!(untouched, par.step(&mut par_model));
        assert_eq!(untouched.informed_honest, untouched.informed);
        assert_eq!(untouched.alive_honest, untouched.alive);
        assert_eq!(untouched.honest_complete, untouched.complete);

        // Tag every third member (sparing the source) silent-Byzantine in
        // both models identically.
        let tag = TAG_BYZANTINE | TAG_NO_FORWARD;
        for model in [&mut seq_model, &mut par_model] {
            let members: Vec<u32> = model.graph().member_indices().to_vec();
            let source_idx = model.graph().dense_index_of(source);
            for idx in members.into_iter().step_by(3) {
                if Some(idx) != source_idx {
                    model.graph_mut().set_tag_at(idx, tag).unwrap();
                }
            }
        }

        for _ in 0..40 {
            let seq_stats = seq.step(&mut seq_model);
            let par_stats = par.step(&mut par_model);
            assert_eq!(seq_stats, par_stats, "sweeps diverge under tags");
            assert_eq!(seq.informed(), par.informed());
            // The honest split is consistent with a direct recount.
            let graph = seq_model.graph();
            let honest_recount = seq
                .informed_dense()
                .filter(|&idx| graph.tag_at(idx) == 0)
                .count();
            assert_eq!(seq_stats.informed_honest, honest_recount);
            assert_eq!(
                seq_stats.alive_honest,
                seq_stats.alive - graph.tagged_member_count()
            );
            assert!(seq_stats.informed_honest <= seq_stats.informed);
            if seq_stats.complete {
                assert!(
                    seq_stats.honest_complete,
                    "global completion implies honest completion"
                );
                break;
            }
        }
        assert!(seq.is_complete(), "silent minority only delays flooding");
    }

    #[test]
    fn silent_nodes_receive_but_never_forward() {
        let mut model = sdgr(128, 4, 7);
        let mut process = FloodingProcess::start(&mut model, FloodingSource::NextToJoin, 1);
        let source = process.source();
        let source_idx = model.graph().dense_index_of(source).unwrap();
        // Everyone except the source is silent: only the source ever forwards.
        let members: Vec<u32> = model.graph().member_indices().to_vec();
        for idx in members {
            if idx != source_idx {
                model
                    .graph_mut()
                    .set_tag_at(idx, TAG_BYZANTINE | TAG_NO_FORWARD)
                    .unwrap();
            }
        }
        let expected: HashSet<NodeId> = model
            .graph()
            .neighbor_indices_at(source_idx)
            .map(|nb| model.graph().id_at(nb).unwrap())
            .chain(std::iter::once(source))
            .collect();
        let stats = process.step(&mut model);
        assert!(
            process.informed().is_subset(&expected),
            "silent nodes must not spread the broadcast"
        );
        assert!(
            stats.informed > stats.informed_honest,
            "tagged receivers are informed but not honest-informed"
        );
    }

    #[test]
    fn round_stats_fraction_handles_empty_network() {
        let stats = RoundStats {
            round: 1,
            time: 1.0,
            informed: 0,
            alive: 0,
            newly_informed: 0,
            complete: false,
            informed_honest: 0,
            alive_honest: 0,
            honest_complete: false,
        };
        assert_eq!(stats.informed_fraction(), 0.0);
        assert_eq!(stats.honest_fraction(), 0.0);
    }

    #[test]
    fn atomic_bitset_exclusive_and_shared_paths_agree() {
        let mut set = AtomicBitset::with_bit_capacity(200);
        assert!(set.set(3) && !set.set(3));
        assert!(set.test(3) && !set.test(4));
        assert!(set.set_shared(130), "first shared set claims the bit");
        assert!(!set.set_shared(130), "second shared set loses the claim");
        assert!(set.test(130));
        set.clear(3);
        assert!(!set.test(3));
        assert!(!set.test(100_000), "out of range reads as unset");
        let mut frozen = Vec::new();
        set.snapshot_into(&mut frozen);
        assert!(frozen_test(&frozen, 130) && !frozen_test(&frozen, 3));
        assert!(!frozen_test(&frozen, 100_000));
        let cloned = set.clone();
        assert!(cloned.test(130) && !cloned.test(3));
        // Exclusive set grows on demand; shared set must not need to.
        let mut growing = AtomicBitset::default();
        assert!(growing.set(500));
        assert!(growing.test(500));
    }

    #[test]
    fn pull_crossover_scales_with_degree() {
        // d = 8 ⇒ crossover at informed/alive = 1/4.
        assert!(!pull_is_cheaper(249, 1000, 8));
        assert!(pull_is_cheaper(250, 1000, 8));
        // Larger degree pulls the crossover down.
        assert!(pull_is_cheaper(130, 1000, 32));
        // Degenerate degree never divides by zero.
        assert!(pull_is_cheaper(1000, 1000, 0));
    }

    /// Steps the sequential sweep and the sharded sweep at `threads` in
    /// lock-step over two identically seeded models and asserts the per-round
    /// stats and informed sets coincide exactly.
    fn assert_parallel_matches_sequential(threads: usize, n: usize, d: usize, seed: u64) {
        let mut seq_model = sdgr(n, d, seed);
        let mut par_model = sdgr(n, d, seed);
        let mut seq = FloodingProcess::start(&mut seq_model, FloodingSource::NextToJoin, 1)
            .with_sequential_cutoff(usize::MAX);
        let mut par = FloodingProcess::start(&mut par_model, FloodingSource::NextToJoin, threads)
            .with_sequential_cutoff(0);
        assert_eq!(seq.source(), par.source());
        let mut directions = Vec::new();
        for _ in 0..60 {
            let seq_stats = seq.step(&mut seq_model);
            let par_stats = par.step(&mut par_model);
            directions.push(par.last_direction());
            assert_eq!(seq_stats, par_stats, "threads={threads}");
            assert_eq!(seq.informed(), par.informed(), "threads={threads}");
            if seq_stats.complete {
                break;
            }
        }
        assert!(seq.is_complete() && par.is_complete());
        if threads > 1 {
            assert!(
                directions.contains(&FrontierDirection::Push)
                    && directions.contains(&FrontierDirection::Pull),
                "a complete broadcast must exercise both directions (saw {directions:?})"
            );
        }
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential_at_any_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            assert_parallel_matches_sequential(threads, 512, 8, 21);
        }
    }

    #[test]
    fn parallel_engine_handles_external_churn_between_steps() {
        // Mirror of external_churn_between_steps_does_not_corrupt_informed_set
        // for the sharded sweep: stale entries must drop out, not re-seed.
        let mut model = sdgr(64, 4, 21);
        let source = model.alive_ids()[5];
        let mut engine = FloodingProcess::start(&mut model, FloodingSource::Node(source), 4)
            .with_sequential_cutoff(0);
        for _ in 0..(2 * 64) {
            model.advance_time_unit();
        }
        assert!(!model.contains(source));
        let stats = engine.step(&mut model);
        assert_eq!(stats.informed, 0, "stale cell must not re-seed flooding");
        assert_eq!(engine.informed_count(), 0);
        assert!(engine.informed().is_empty());
    }

    #[test]
    fn sharded_run_matches_run_flooding() {
        // The sharded sweep at 4 threads, driven by the run loop, must
        // reproduce the sequential record of `run_flooding(…, 1)`.
        let mut a = sdgr(300, 6, 5);
        let mut b = sdgr(300, 6, 5);
        let seq = run_flooding(
            &mut a,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            1,
        );
        let mut sharded =
            FloodingProcess::start(&mut b, FloodingSource::NextToJoin, 4).with_sequential_cutoff(0);
        let par = sharded.run(&mut b, &FloodingConfig::default());
        assert_eq!(seq, par, "records must be identical sweep-for-sweep");
    }

    #[test]
    fn finished_process_reads_its_final_informed_set() {
        // Cut the run short so part of the population stays uninformed.
        let mut model = sdg(400, 3, 11);
        let mut process = FloodingProcess::start(&mut model, FloodingSource::NextToJoin, 1);
        let record = process.run(&mut model, &FloodingConfig::with_max_rounds(3));
        let graph = model.graph();
        let informed: HashSet<NodeId> = process.informed();
        let marked = graph
            .member_indices()
            .iter()
            .filter(|&&idx| process.is_informed(idx))
            .count();
        assert_eq!(marked, record.rounds.last().unwrap().informed);
        assert_eq!(marked, informed.len());
        for &idx in graph.member_indices() {
            let id = graph.id_at(idx).unwrap();
            assert_eq!(process.is_informed(idx), informed.contains(&id));
        }
        assert!(marked < graph.len(), "three rounds cannot inform 400 nodes");
    }

    #[test]
    fn parallel_engine_accessors_and_auto_threads() {
        let mut model = sdgr(64, 4, 9);
        let engine = FloodingProcess::start(&mut model, FloodingSource::Newest, 0);
        assert_eq!(engine.threads(), rayon::current_num_threads().max(1));
        assert_eq!(engine.rounds(), 0);
        assert_eq!(engine.informed_count(), 1);
        assert_eq!(engine.peak_informed(), 1);
        assert!(!engine.is_complete());
        assert!(engine.start_time() >= 0.0);
        assert_eq!(engine.last_direction(), FrontierDirection::Sequential);
    }

    #[test]
    fn dense_informed_accessors_track_rounds() {
        let mut model = sdgr(96, 5, 13);
        let mut process = FloodingProcess::start(&mut model, FloodingSource::NextToJoin, 1);
        assert_eq!(process.informed_dense().count(), 1);
        assert_eq!(
            process.newly_informed_dense().count(),
            1,
            "before the first round the source is the newly informed set"
        );
        let stats = process.step(&mut model);
        assert_eq!(process.informed_dense().count(), stats.informed);
        assert_eq!(process.newly_informed_dense().count(), stats.newly_informed);
        // The dense views agree with the identifier view.
        let graph = model.graph();
        let via_dense: HashSet<NodeId> = process
            .informed_dense()
            .map(|idx| graph.id_at(idx).unwrap())
            .collect();
        assert_eq!(via_dense, process.informed());
        // The sharded sweep feeds the same accessors.
        let mut par_model = sdgr(96, 5, 13);
        let mut engine = FloodingProcess::start(&mut par_model, FloodingSource::NextToJoin, 4)
            .with_sequential_cutoff(0);
        let par_stats = engine.step(&mut par_model);
        assert_eq!(par_stats, stats);
        assert_eq!(engine.informed_dense().count(), stats.informed);
        assert_eq!(engine.newly_informed_dense().count(), stats.newly_informed);
    }

    #[test]
    fn shared_clear_matches_exclusive_clear() {
        let mut set = AtomicBitset::with_bit_capacity(256);
        for idx in [1u32, 64, 65, 200] {
            set.set(idx);
        }
        set.clear_shared(64);
        set.clear_shared(200);
        assert!(set.test(1) && set.test(65));
        assert!(!set.test(64) && !set.test(200));
        // Clearing an unset bit is a no-op.
        set.clear_shared(2);
        assert!(!set.test(2) && set.test(1));
    }

    #[test]
    fn outcome_helpers() {
        assert!(FloodingOutcome::Completed { rounds: 3 }.is_complete());
        assert!(!FloodingOutcome::Completed { rounds: 3 }.is_died_out());
        assert_eq!(FloodingOutcome::Completed { rounds: 3 }.rounds(), Some(3));
        assert_eq!(FloodingOutcome::RoundLimit { fraction: 0.5 }.rounds(), None);
        assert!(FloodingOutcome::DiedOut {
            rounds: 5,
            peak_informed: 2
        }
        .is_died_out());
    }

    #[test]
    fn observed_parallel_run_matches_plain_and_feeds_the_observer() {
        let mut plain_model = sdgr(192, 6, 9);
        let plain = run_flooding(
            &mut plain_model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            2,
        );
        let mut observed_model = sdgr(192, 6, 9);
        let mut calls = 0u64;
        let mut informed_seen = 0usize;
        let observed = run_flooding_parallel_observed(
            &mut observed_model,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
            2,
            |m, delta, engine| {
                if calls == 0 {
                    // The pre-round call: only the source is informed, and the
                    // delta covers at most the source-selection round.
                    assert_eq!(engine.newly_informed_dense().count(), 1);
                } else {
                    // Streaming churn: exactly one birth and one death per
                    // warm round reach the observer through the delta.
                    assert_eq!(delta.births.len(), 1);
                    assert_eq!(delta.deaths.len(), 1);
                }
                informed_seen += engine.newly_informed_dense().count();
                assert_eq!(m.alive_count(), 192);
                calls += 1;
            },
        );
        assert_eq!(
            observed, plain,
            "observation must not change the trajectory"
        );
        assert_eq!(calls, observed.rounds_elapsed() + 1);
        assert!(
            informed_seen >= observed.rounds.last().map_or(0, |r| r.informed),
            "every informed entry is announced exactly once while alive"
        );
        assert!(
            !observed_model.graph().delta_recording(),
            "recording is detached on return"
        );
    }
}
