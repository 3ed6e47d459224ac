//! The mutable dynamic graph structure driven by the churn models.
//!
//! # Performance architecture
//!
//! Internally the graph is a **slab arena**: every alive node occupies one cell
//! of a `Vec<Option<NodeRecord>>`, vacated cells are recycled through a free
//! list, and all adjacency bookkeeping (out-slot targets, in-reference
//! multisets) is stored as dense `u32` slab indices rather than [`NodeId`]s.
//! A `NodeId → u32` map is maintained only for the identifier-based public
//! API; the churn models drive the graph through the `*_at` / `*_indexed`
//! dense methods and never touch a hash table on their hot paths. A dense
//! `members` vector of occupied cells (swap-remove order) supports O(1)
//! uniform alive-node sampling.
//!
//! The `NodeId ↔ dense index` contract: an index returned by
//! [`DynamicGraph::add_node_indexed`] or [`DynamicGraph::dense_index_of`]
//! stays valid exactly as long as that node is alive. Once the node is
//! removed, the index may be recycled for a *different* node, so callers
//! keeping indices across removals must re-validate them via
//! [`DynamicGraph::id_at`] (this is what the flooding bitset does after every
//! churn interval).

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::hashing::IdHashMap;
use crate::{GraphError, NodeId, Result};

/// A generation-tagged reference to a slab cell of a [`DynamicGraph`].
///
/// A bare dense index is only valid while the node it was obtained for is
/// alive; revalidating it requires comparing identifiers through
/// [`DynamicGraph::id_at`]. A `DenseHandle` additionally carries the cell's
/// *generation* — a counter bumped on every removal and every cell reuse
/// (odd while occupied, even while vacant) — so [`DynamicGraph::is_current`]
/// can check validity in O(1) with one flat array probe and no identifier
/// compare; the parity also keeps hand-constructed or deserialized handles
/// from ever validating against a vacant cell. This is the currency of
/// choice for queues that must survive churn, such as the RAES protocol's
/// pending-request queue in `churn-protocol`.
///
/// # Example
///
/// ```
/// use churn_graph::{DynamicGraph, NodeId};
///
/// # fn main() -> Result<(), churn_graph::GraphError> {
/// let mut g = DynamicGraph::new();
/// g.add_node(NodeId::new(0), 1)?;
/// let h = g.handle_of(NodeId::new(0)).unwrap();
/// assert!(g.is_current(h));
/// g.remove_node(NodeId::new(0))?;
/// assert!(!g.is_current(h));
/// // The cell is recycled for a different node, same index, new generation.
/// g.add_node(NodeId::new(1), 1)?;
/// let h2 = g.handle_of(NodeId::new(1)).unwrap();
/// assert_eq!(h.index, h2.index);
/// assert!(!g.is_current(h) && g.is_current(h2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DenseHandle {
    /// The slab index of the cell.
    pub index: u32,
    /// Generation of the cell's occupant at the time the handle was taken.
    pub generation: u32,
}

/// A compact per-round change feed of a [`DynamicGraph`], for observers that
/// want to keep derived structures (incremental snapshots, live metric
/// trackers) in sync at O(changes) cost instead of rescanning the graph.
///
/// Recording is opt-in ([`DynamicGraph::set_delta_recording`]); with no
/// subscriber attached every mutator pays exactly one branch. The feed is a
/// *dirty set*, not an event log: consumers reconcile each listed cell against
/// the graph's **final** state for the window (births/deaths carry the
/// identifiers so per-node lifecycle bookkeeping — e.g. lifetime-isolation
/// confirmation — stays possible even when a cell is recycled within one
/// window).
///
/// Contract:
///
/// * `dirty` lists every slab cell whose occupancy or undirected adjacency
///   *may* have changed since the last [`DynamicGraph::take_delta_into`].
///   Duplicates are allowed; vacant or recycled cells are allowed. A cell not
///   listed is guaranteed unchanged.
/// * `births` / `deaths` list node insertions/removals in event order, as
///   `(dense index, identifier)` pairs. A cell recycled within one window
///   appears in both (death of the old occupant, birth of the new one); the
///   indices of both are also in `dirty`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Nodes inserted during the window, in event order.
    pub births: Vec<(u32, NodeId)>,
    /// Nodes removed during the window, in event order.
    pub deaths: Vec<(u32, NodeId)>,
    /// Slab cells whose occupancy/adjacency may have changed (duplicates and
    /// since-vacated cells allowed; unlisted cells are unchanged).
    pub dirty: Vec<u32>,
}

impl GraphDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the delta, keeping buffer capacity.
    pub fn clear(&mut self) {
        self.births.clear();
        self.deaths.clear();
        self.dirty.clear();
    }

    /// Returns `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.births.is_empty() && self.deaths.is_empty() && self.dirty.is_empty()
    }

    /// Number of churn events (births plus deaths) in the window.
    #[must_use]
    pub fn churn_events(&self) -> usize {
        self.births.len() + self.deaths.len()
    }
}

/// Identifies one of the `d` out-going connection requests a node owns.
///
/// The paper distinguishes, for every node `v`, between *out-edges* (the
/// connections `v` itself requested when it was born or when regenerating) and
/// *in-edges* (connections requested by other nodes). An [`EdgeSlot`] names one
/// out-edge position of one node; the pair `(owner, slot)` stays stable for the
/// owner's entire lifetime even as the slot gets re-pointed by edge
/// regeneration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeSlot {
    /// Node that owns (requested) the edge.
    pub owner: NodeId,
    /// Index of the request in `0..out_degree(owner)`.
    pub slot: usize,
}

/// Summary of a node removal, returned by [`DynamicGraph::remove_node`].
///
/// The churn models need to know which out-slots of *surviving* nodes just
/// lost their target when a node dies — these are the slots that the
/// edge-regeneration rule (models SDGR and PDGR) must re-point to fresh
/// uniform targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemovedNode {
    /// Identifier of the removed node.
    pub id: NodeId,
    /// Out-slots of surviving nodes that pointed at the removed node and are now
    /// empty. Sorted by `(owner, slot)` for determinism.
    pub dangling_slots: Vec<EdgeSlot>,
    /// The same dangling slots as `(owner dense index, slot)` pairs, aligned
    /// element-wise with `dangling_slots`, so regeneration can re-point them
    /// without identifier lookups. The indices are valid until the owners die.
    pub dangling_dense: Vec<(u32, usize)>,
}

impl Default for RemovedNode {
    /// An empty record (id `u64::MAX`); used as the initial state of scratch
    /// buffers passed to [`DynamicGraph::remove_node_into`].
    fn default() -> Self {
        RemovedNode {
            id: NodeId::new(u64::MAX),
            dangling_slots: Vec::new(),
            dangling_dense: Vec::new(),
        }
    }
}

/// Sentinel for an unconnected out-slot (the dense-index equivalent of
/// `None`); slab indices never reach `u32::MAX`.
const NO_TARGET: u32 = u32::MAX;

/// A copy-on-write-free small vector: the first `N` elements live inline in
/// the record (one cache line away from the rest of the node), and only nodes
/// whose degree exceeds `N` spill to the heap. In the stationary regime of
/// the churn models almost no record spills, so node birth/death performs no
/// heap allocation and cloning a graph is a flat memcpy of the slab.
#[derive(Debug, Clone)]
struct MiniVec<const N: usize> {
    len: u32,
    inline: [u32; N],
    /// Boxed so the common no-spill record costs one pointer, not a Vec
    /// (the double indirection only ever costs on the rare spilled nodes).
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<u32>>>,
}

impl<const N: usize> MiniVec<N> {
    fn new() -> Self {
        MiniVec {
            len: 0,
            inline: [0; N],
            spill: None,
        }
    }

    fn filled(len: usize, value: u32) -> Self {
        let mut v = Self::new();
        for _ in 0..len {
            v.push(value);
        }
        v
    }

    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements stored inline (all of them unless the vector spilled).
    #[inline]
    fn inline_slice(&self) -> &[u32] {
        &self.inline[..self.len().min(N)]
    }

    fn spill_slice(&self) -> &[u32] {
        self.spill.as_ref().map_or(&[], |boxed| boxed.as_slice())
    }

    #[inline]
    fn get(&self, i: usize) -> u32 {
        if i < N {
            self.inline[i]
        } else {
            self.spill_slice()[i - N]
        }
    }

    #[inline]
    fn set(&mut self, i: usize, value: u32) {
        if i < N {
            self.inline[i] = value;
        } else {
            self.spill.as_mut().expect("index within spilled length")[i - N] = value;
        }
    }

    #[inline]
    fn push(&mut self, value: u32) {
        let i = self.len as usize;
        if i < N {
            self.inline[i] = value;
        } else {
            self.spill.get_or_insert_with(Default::default).push(value);
        }
        self.len += 1;
    }

    #[inline]
    fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        let moved = self.get(last);
        self.set(i, moved);
        if last >= N {
            self.spill
                .as_mut()
                .expect("spill exists for spilled length")
                .pop();
        }
        self.len -= 1;
    }

    /// Removes the first element, shifting the rest down (order-preserving,
    /// O(len) — trivial at the inline sizes used here). Needed where element
    /// order is meaningful, e.g. oldest-first in-reference eviction.
    fn remove_front(&mut self) {
        let len = self.len();
        debug_assert!(len > 0, "remove_front on an empty MiniVec");
        for j in 1..len.min(N) {
            self.inline[j - 1] = self.inline[j];
        }
        if len > N {
            let spill = self
                .spill
                .as_mut()
                .expect("spill exists for spilled length");
            self.inline[N - 1] = spill[0];
            spill.remove(0);
        }
        self.len -= 1;
    }

    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.inline_slice()
            .iter()
            .chain(self.spill_slice())
            .copied()
    }

    fn position(&self, value: u32) -> Option<usize> {
        self.iter().position(|x| x == value)
    }

    fn contains(&self, value: u32) -> bool {
        self.position(value).is_some()
    }
}

#[derive(Debug, Clone)]
struct NodeRecord {
    /// The node's identifier (the reverse of the `NodeId → index` map).
    id: NodeId,
    /// Position of this node's slab index inside `DynamicGraph::members`.
    member_pos: u32,
    /// The node's own connection requests as dense indices; [`NO_TARGET`]
    /// means the slot is currently unconnected (its target died and no
    /// regeneration happened).
    out_slots: MiniVec<8>,
    /// Flat multiset of the out-slots (of other nodes) pointing at this node:
    /// one entry per pointing slot, owners repeated with multiplicity.
    /// Expected length is O(d), so linear scans beat hashing here.
    in_refs: MiniVec<12>,
}

impl NodeRecord {
    fn filled_out(&self) -> usize {
        self.out_slots.iter().filter(|&s| s != NO_TARGET).count()
    }
}

/// A dynamic graph whose nodes own a fixed array of out-going request slots.
///
/// This is the topology object every model of the paper mutates:
///
/// * joining node `v` calls [`add_node`](Self::add_node) with out-degree `d` and
///   then [`set_out_slot`](Self::set_out_slot) for each request,
/// * a dying node is removed with [`remove_node`](Self::remove_node), which also
///   reports the surviving slots left dangling,
/// * the regeneration rule re-points dangling slots with
///   [`set_out_slot`](Self::set_out_slot).
///
/// For analysis (flooding, expansion) the graph is viewed *undirected*: `u` and
/// `v` are neighbours if any out-slot of `u` points at `v` or vice versa, exactly
/// as in the paper ("the considered graphs are always undirected", Section 3.1).
///
/// All mutators also exist in a dense-index flavour (`add_node_indexed`,
/// `set_out_slot_at`, `remove_node_at`, …) that skips identifier hashing; see
/// the module docs for the index-validity contract.
///
/// # Example
///
/// ```
/// use churn_graph::{DynamicGraph, NodeId};
///
/// # fn main() -> Result<(), churn_graph::GraphError> {
/// let mut g = DynamicGraph::new();
/// let (a, b) = (NodeId::new(0), NodeId::new(1));
/// g.add_node(a, 1)?;
/// g.add_node(b, 1)?;
/// g.set_out_slot(a, 0, b)?;
/// assert_eq!(g.degree(a), Some(1));
///
/// let removed = g.remove_node(b)?;
/// // a's only request pointed at b, so it is dangling now:
/// assert_eq!(removed.dangling_slots.len(), 1);
/// assert!(g.is_isolated(a).unwrap());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    slab: Vec<Option<NodeRecord>>,
    free: Vec<u32>,
    members: Vec<u32>,
    index: IdHashMap<NodeId, u32>,
    filled_slots: usize,
    /// Per-cell generation counters (parallel to `slab`), bumped on both
    /// removal and cell reuse so [`DenseHandle`]s of dead occupants fail
    /// [`Self::is_current`] in O(1). Parity encodes occupancy — odd while the
    /// cell is occupied, even while vacant — so even a handle that was never
    /// issued by this graph can never validate against a vacant cell.
    generations: Vec<u32>,
    /// While `true`, iterating occupied slab cells in index order yields node
    /// identifiers in increasing order: no cell was ever recycled and every
    /// insertion used a fresh identifier larger than all earlier ones. This is
    /// the precondition of [`Snapshot`](crate::Snapshot)'s sort-free fast
    /// path. Cleared permanently by the first free-list reuse or out-of-order
    /// insertion.
    id_sorted: bool,
    /// Smallest raw identifier the next insertion may use without clearing
    /// `id_sorted` (one past the largest identifier inserted so far).
    next_sorted_id: u64,
    /// Change feed for observers (`None` while no subscriber is attached, so
    /// the mutators pay one branch). Boxed to keep the graph struct lean.
    delta: Option<Box<GraphDelta>>,
    /// Opt-in degree-bucketed member index for adversarial victim selection
    /// (`None` unless [`Self::set_degree_index`] enabled it). Boxed like the
    /// delta so the common case stays lean.
    degree: Option<Box<DegreeIndex>>,
    /// Opt-in per-cell behavior tags (parallel to `slab`; `0` = untagged).
    /// Empty until the first nonzero [`Self::set_tag_at`], so graphs that
    /// never tag pay nothing — not even a branch on the mutator paths, since
    /// only node removal touches the tags and it checks `is_empty` first.
    tags: Vec<u8>,
    /// Number of alive members whose tag is nonzero (maintained by
    /// [`Self::set_tag_at`] and node removal), so callers can account for
    /// the tagged subpopulation in O(1).
    tagged_members: usize,
}

/// Sentinel in [`DynamicGraph::sample_members_each_excluding_into`]'s exclude
/// list: skip this entry without consuming a random draw (the caller's
/// request is void, e.g. its owner died). Echoed verbatim in the output.
pub const SAMPLE_SKIP: u32 = u32::MAX;

/// Sentinel in [`DynamicGraph::sample_members_each_excluding_into`]'s output:
/// no valid candidate existed for this entry (the excluded node is the only
/// alive one, or the graph is empty).
pub const SAMPLE_NONE: u32 = u32::MAX - 1;

/// Degree-bucketed index over the alive members, keyed by *incident link
/// count* (filled out-slots plus in-references, with multiplicity — the
/// quantity [`DynamicGraph::incident_link_count_at`] reports and the
/// degree-targeted adversarial victim policy maximises).
///
/// Mutators do O(1) work per incident edge change: they only append the
/// touched cell to a pending list (the same instrumentation points the
/// [`GraphDelta`] change feed uses). Reconciliation against the current
/// incident counts happens lazily at query time, so each change is processed
/// at most once — replacing the O(n) member scan per adversarial death that
/// previously made degree-targeted churn infeasible at `n = 10^6`.
#[derive(Debug, Clone, Default)]
struct DegreeIndex {
    /// Cells whose incident count may have changed since the last flush.
    pending: Vec<u32>,
    /// Last reconciled incident count per cell (`NOT_TRACKED` when vacant).
    known: Vec<u32>,
    /// Position of each tracked cell inside its bucket.
    pos: Vec<u32>,
    /// `buckets[k]` = tracked cells with incident count `k`.
    buckets: Vec<Vec<u32>>,
    /// Upper bound on the highest non-empty bucket.
    max_bucket: usize,
}

/// Marker in [`DegreeIndex::known`] for cells not currently tracked.
const NOT_TRACKED: u32 = u32::MAX;

impl DegreeIndex {
    fn grow(&mut self, slab_len: usize) {
        if self.known.len() < slab_len {
            self.known.resize(slab_len, NOT_TRACKED);
            self.pos.resize(slab_len, 0);
        }
    }

    fn insert(&mut self, idx: u32, count: usize) {
        if self.buckets.len() <= count {
            self.buckets.resize_with(count + 1, Vec::new);
        }
        self.pos[idx as usize] = self.buckets[count].len() as u32;
        self.buckets[count].push(idx);
        self.known[idx as usize] = count as u32;
        self.max_bucket = self.max_bucket.max(count);
    }

    fn remove(&mut self, idx: u32) {
        let count = self.known[idx as usize];
        if count == NOT_TRACKED {
            return;
        }
        let bucket = &mut self.buckets[count as usize];
        let pos = self.pos[idx as usize] as usize;
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.pos[moved as usize] = pos as u32;
        }
        self.known[idx as usize] = NOT_TRACKED;
    }

    /// Reconciles every pending cell against the graph's current incident
    /// counts. Amortised O(1) per recorded change (duplicates are cheap:
    /// an already-reconciled cell compares equal and is skipped).
    fn flush(&mut self, slab: &[Option<NodeRecord>]) {
        self.grow(slab.len());
        while let Some(idx) = self.pending.pop() {
            let current = slab
                .get(idx as usize)
                .and_then(|cell| cell.as_ref())
                .map(|rec| rec.filled_out() + rec.in_refs.len());
            match current {
                None => self.remove(idx),
                Some(count) => {
                    if self.known[idx as usize] != count as u32 {
                        self.remove(idx);
                        self.insert(idx, count);
                    }
                }
            }
        }
    }

    /// The tracked cell with the largest incident count, ties broken towards
    /// the smallest identifier — exactly the choice of the reference O(n)
    /// scan. Cost: the downward walk over empty buckets (amortised against
    /// the insertions that raised `max_bucket`) plus one scan of the top
    /// non-empty bucket for the identifier tie-break.
    fn best(&mut self, slab: &[Option<NodeRecord>]) -> Option<(NodeId, u32)> {
        let mut k = self.max_bucket;
        loop {
            if let Some(bucket) = self.buckets.get(k) {
                if !bucket.is_empty() {
                    self.max_bucket = k;
                    let mut best: Option<(NodeId, u32)> = None;
                    for &idx in bucket {
                        let id = slab[idx as usize]
                            .as_ref()
                            .expect("tracked cells are occupied after a flush")
                            .id;
                        if best.is_none_or(|(best_id, _)| id < best_id) {
                            best = Some((id, idx));
                        }
                    }
                    return best;
                }
            }
            if k == 0 {
                self.max_bucket = 0;
                return None;
            }
            k -= 1;
        }
    }
}

impl Default for DynamicGraph {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl DynamicGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with capacity reserved for `nodes` nodes.
    #[must_use]
    pub fn with_capacity(nodes: usize) -> Self {
        DynamicGraph {
            slab: Vec::with_capacity(nodes),
            free: Vec::new(),
            members: Vec::with_capacity(nodes),
            index: IdHashMap::with_capacity_and_hasher(nodes, Default::default()),
            filled_slots: 0,
            generations: Vec::with_capacity(nodes),
            id_sorted: true,
            next_sorted_id: 0,
            delta: None,
            degree: None,
            tags: Vec::new(),
            tagged_members: 0,
        }
    }

    // ------------------------------------------------------------------
    // Change feed
    // ------------------------------------------------------------------

    /// Enables or disables [`GraphDelta`] recording. Enabling starts an empty
    /// window; disabling drops whatever was recorded. With recording off (the
    /// default) every mutator pays exactly one branch for the feature.
    pub fn set_delta_recording(&mut self, enabled: bool) {
        if enabled {
            if self.delta.is_none() {
                self.delta = Some(Box::default());
            }
        } else {
            self.delta = None;
        }
    }

    /// Returns `true` while [`GraphDelta`] recording is enabled.
    #[must_use]
    pub fn delta_recording(&self) -> bool {
        self.delta.is_some()
    }

    /// Moves the recorded delta window into `out` (cleared first) and starts
    /// a fresh window. A no-op (beyond clearing `out`) when recording is
    /// disabled. Buffer capacity is recycled in both directions, so a caller
    /// draining once per round allocates nothing in steady state.
    pub fn take_delta_into(&mut self, out: &mut GraphDelta) {
        out.clear();
        if let Some(delta) = self.delta.as_deref_mut() {
            std::mem::swap(delta, out);
        }
    }

    /// Marks a cell dirty in the change feed and/or the degree index's
    /// pending list (no-op while neither is attached).
    #[inline]
    fn mark_dirty(&mut self, idx: u32) {
        if let Some(delta) = self.delta.as_deref_mut() {
            delta.dirty.push(idx);
        }
        if let Some(degree) = self.degree.as_deref_mut() {
            degree.pending.push(idx);
        }
    }

    /// Returns `true` while any mutation observer (change feed or degree
    /// index) is attached — the mutators' single-branch guard.
    #[inline]
    fn observing(&self) -> bool {
        self.delta.is_some() || self.degree.is_some()
    }

    // ------------------------------------------------------------------
    // Degree-bucketed member index
    // ------------------------------------------------------------------

    /// Enables or disables the degree-bucketed member index behind
    /// [`Self::highest_degree_member`]. Enabling builds the index from the
    /// current members (one O(n) pass); from then on every mutator records
    /// the touched cells in O(1) and queries reconcile lazily. Disabling
    /// drops the index. With the index off (the default) the mutators pay
    /// exactly one branch for the feature, shared with the change feed.
    pub fn set_degree_index(&mut self, enabled: bool) {
        if !enabled {
            self.degree = None;
            return;
        }
        if self.degree.is_some() {
            return;
        }
        let mut index = Box::<DegreeIndex>::default();
        index.grow(self.slab.len());
        for &idx in &self.members {
            let count = self
                .incident_link_count_at(idx)
                .expect("member cells are occupied");
            index.insert(idx, count);
        }
        self.degree = Some(index);
    }

    /// The alive node with the most incident links (with multiplicity,
    /// [`Self::incident_link_count_at`]), ties broken towards the smallest
    /// identifier, or `None` for an empty graph.
    ///
    /// With the degree index enabled ([`Self::set_degree_index`]) this
    /// reconciles the pending changes — amortised O(1) per incident edge
    /// change since the last query — and reads the top bucket; without it,
    /// one O(n) member scan. Both paths pick the identical node.
    pub fn highest_degree_member(&mut self) -> Option<(NodeId, u32)> {
        match self.degree.take() {
            Some(mut index) => {
                index.flush(&self.slab);
                let best = index.best(&self.slab);
                self.degree = Some(index);
                best
            }
            None => {
                let mut best: Option<(usize, NodeId, u32)> = None;
                for &idx in &self.members {
                    let rec = self.slab[idx as usize]
                        .as_ref()
                        .expect("member cells are occupied");
                    let links = rec.filled_out() + rec.in_refs.len();
                    let better = best.is_none_or(|(best_links, best_id, _)| {
                        links > best_links || (links == best_links && rec.id < best_id)
                    });
                    if better {
                        best = Some((links, rec.id, idx));
                    }
                }
                best.map(|(_, id, idx)| (id, idx))
            }
        }
    }

    // ------------------------------------------------------------------
    // Behavior tags
    // ------------------------------------------------------------------

    /// Assigns behavior tag `tag` to the alive node at dense index `idx`
    /// (`0` clears). Tags are an opt-in per-cell byte consumers interpret
    /// themselves (e.g. the protocol crate's Byzantine behavior codes); the
    /// graph only stores them and clears a cell's tag on removal, so a
    /// recycled cell never inherits its previous occupant's tag.
    ///
    /// Storage is allocated lazily on the first nonzero assignment: a graph
    /// that never tags stays tag-free ([`Self::tags_enabled`] is `false`)
    /// and pays nothing on any mutator path.
    ///
    /// # Errors
    ///
    /// [`GraphError::VacantIndex`] when `idx` holds no alive node.
    pub fn set_tag_at(&mut self, idx: u32, tag: u8) -> Result<()> {
        if !self.occupied(idx) {
            return Err(GraphError::VacantIndex(idx));
        }
        if tag == 0 && self.tags.is_empty() {
            return Ok(());
        }
        if self.tags.len() < self.slab.len() {
            self.tags.resize(self.slab.len(), 0);
        }
        let cell = &mut self.tags[idx as usize];
        self.tagged_members += usize::from(tag != 0);
        self.tagged_members -= usize::from(*cell != 0);
        *cell = tag;
        Ok(())
    }

    /// The behavior tag of the cell at dense index `idx` (`0` for untagged,
    /// vacant or out-of-range cells).
    #[inline]
    #[must_use]
    pub fn tag_at(&self, idx: u32) -> u8 {
        self.tags.get(idx as usize).copied().unwrap_or(0)
    }

    /// Returns `true` once any nonzero tag has ever been assigned — the
    /// single branch tag-aware consumers check before paying per-node tag
    /// lookups.
    #[inline]
    #[must_use]
    pub fn tags_enabled(&self) -> bool {
        !self.tags.is_empty()
    }

    /// Number of alive members carrying a nonzero tag, in O(1).
    #[must_use]
    pub fn tagged_member_count(&self) -> usize {
        self.tagged_members
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` when the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` when `id` is alive.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// Iterator over the identifiers of all alive nodes, in arbitrary order.
    ///
    /// Use [`Self::sorted_node_ids`] when deterministic iteration order matters.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().map(|&idx| self.record(idx).id)
    }

    /// All alive node identifiers in increasing order.
    #[must_use]
    pub fn sorted_node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.node_ids().collect();
        ids.sort_unstable();
        ids
    }

    /// Total number of currently connected out-slots across all nodes.
    ///
    /// This counts *requests*, not distinct undirected edges: if `u` and `v`
    /// each point a slot at the other, both slots are counted. See
    /// [`Self::distinct_edge_count`] for the undirected count.
    #[must_use]
    pub fn filled_slot_count(&self) -> usize {
        self.filled_slots
    }

    /// Number of distinct undirected edges `{u, v}`.
    ///
    /// Computed on demand in `O(n + m log d)` without hashing: the sum of
    /// distinct-neighbour degrees counts every undirected edge exactly twice.
    #[must_use]
    pub fn distinct_edge_count(&self) -> usize {
        let mut scratch: Vec<u32> = Vec::new();
        let mut total_degree = 0usize;
        for &idx in &self.members {
            scratch.clear();
            self.neighbors_dense_into(idx, &mut scratch);
            scratch.sort_unstable();
            scratch.dedup();
            total_degree += scratch.len();
        }
        total_degree / 2
    }

    // ------------------------------------------------------------------
    // Dense-index surface
    // ------------------------------------------------------------------

    /// Length of the slab arena, i.e. one more than the largest dense index
    /// ever in use. Vacant cells count; use this to size index-keyed arrays
    /// (e.g. the flooding bitset).
    #[must_use]
    pub fn slab_len(&self) -> usize {
        self.slab.len()
    }

    /// The dense index of an alive node.
    #[must_use]
    pub fn dense_index_of(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// The identifier stored at dense index `idx`, or `None` when the cell is
    /// vacant or out of range. This is the index-revalidation primitive: a
    /// cached `(idx, id)` pair is still current iff `id_at(idx) == Some(id)`.
    #[must_use]
    pub fn id_at(&self, idx: u32) -> Option<NodeId> {
        self.slab
            .get(idx as usize)
            .and_then(|cell| cell.as_ref())
            .map(|rec| rec.id)
    }

    /// A generation-tagged handle for the node currently at dense index `idx`,
    /// or `None` when the cell is vacant or out of range.
    #[must_use]
    pub fn handle_at(&self, idx: u32) -> Option<DenseHandle> {
        self.occupied(idx).then(|| DenseHandle {
            index: idx,
            generation: self.generations[idx as usize],
        })
    }

    /// A generation-tagged handle for an alive node.
    #[must_use]
    pub fn handle_of(&self, id: NodeId) -> Option<DenseHandle> {
        self.dense_index_of(id).and_then(|idx| self.handle_at(idx))
    }

    /// Returns `true` while `handle` still refers to the node it was taken
    /// for. O(1) — a single flat array probe, no identifier compare and no
    /// record access: generation counters bump on every removal *and* every
    /// reuse (odd while occupied, even while vacant), so a generation match
    /// on an odd generation implies the cell is still in the exact occupancy
    /// epoch the handle was issued in. The parity guard also makes this total
    /// over arbitrary (hand-constructed or deserialized) handles: no handle
    /// value can ever validate against a vacant cell.
    #[must_use]
    pub fn is_current(&self, handle: DenseHandle) -> bool {
        let current = handle.generation % 2 == 1
            && self.generations.get(handle.index as usize) == Some(&handle.generation);
        debug_assert!(
            !current || self.occupied(handle.index),
            "odd-generation match must imply an occupied cell"
        );
        current
    }

    /// Returns `true` while the slab layout is *identifier-sorted*: occupied
    /// cells visited in index order carry increasing identifiers. Holds until
    /// the first recycled cell or out-of-order insertion, after which it stays
    /// `false` for the graph's lifetime. [`Snapshot`](crate::Snapshot)
    /// construction uses this to skip its identifier sort.
    #[must_use]
    pub fn id_sorted_layout(&self) -> bool {
        self.id_sorted
    }

    /// The dense indices of all alive nodes, in arbitrary (swap-remove) order.
    #[must_use]
    pub fn member_indices(&self) -> &[u32] {
        &self.members
    }

    /// A uniformly random alive node's dense index, or `None` when empty.
    pub fn sample_member<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> Option<u32> {
        if self.members.is_empty() {
            None
        } else {
            Some(self.members[rng.gen_range(0..self.members.len())])
        }
    }

    /// A uniformly random alive dense index different from `exclude`, or
    /// `None` when no such node exists. Uniform over the alive set minus
    /// `exclude`; O(1) expected (rejection sampling).
    pub fn sample_member_excluding<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        exclude: u32,
    ) -> Option<u32> {
        match self.members.len() {
            0 => None,
            1 => {
                let only = self.members[0];
                (only != exclude).then_some(only)
            }
            len => loop {
                let candidate = self.members[rng.gen_range(0..len)];
                if candidate != exclude {
                    return Some(candidate);
                }
            },
        }
    }

    /// Draws `count` independent uniform alive indices, each different from
    /// `exclude`, appending them to `out`. Equivalent to `count` calls to
    /// [`Self::sample_member_excluding`] (same draws, same order). After the
    /// draws, one gather pass loads every sampled cell with independent
    /// reads, so their cache misses are in flight together; the caller's
    /// writes to those cells (e.g. [`Self::set_out_slot_at`]) then hit cache
    /// instead of missing one after another.
    ///
    /// Stops early (appending fewer than `count`) when no valid target exists.
    pub fn sample_members_excluding_into<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        exclude: u32,
        count: usize,
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        for _ in 0..count {
            match self.sample_member_excluding(rng, exclude) {
                Some(idx) => out.push(idx),
                None => break,
            }
        }
        self.gather(&out[start..]);
    }

    /// Bulk variant of [`Self::sample_member_excluding`] with a *per-entry*
    /// exclusion: for every entry of `excludes`, appends one uniformly random
    /// alive index different from that entry. An input of [`SAMPLE_SKIP`] is
    /// echoed verbatim without consuming a random draw (the caller's request
    /// is void — e.g. a repair request whose owner died); an entry with no
    /// valid candidate appends [`SAMPLE_NONE`].
    ///
    /// The output is aligned with `excludes` (`out` grows by exactly
    /// `excludes.len()`), and the random draws are **identical in number and
    /// order** to per-entry [`Self::sample_member_excluding`] calls over the
    /// non-skipped entries — so folding a per-request loop into one bulk call
    /// (the RAES repair sweep does) preserves recorded trajectories bit for
    /// bit. After the draws, one gather pass loads every sampled cell and
    /// every non-sentinel `excludes` entry (the requesters, whose out-slots
    /// the caller re-points next) with independent reads, so the whole
    /// batch's cache misses overlap before the caller's first write.
    pub fn sample_members_each_excluding_into<R: rand::Rng + ?Sized>(
        &self,
        rng: &mut R,
        excludes: &[u32],
        out: &mut Vec<u32>,
    ) {
        let start = out.len();
        out.reserve(excludes.len());
        for &exclude in excludes {
            if exclude == SAMPLE_SKIP {
                out.push(SAMPLE_SKIP);
                continue;
            }
            out.push(
                self.sample_member_excluding(rng, exclude)
                    .unwrap_or(SAMPLE_NONE),
            );
        }
        self.gather(&out[start..]);
        self.gather(excludes);
    }

    /// The gather pass of the batch mutators: independent reads of each
    /// listed cell's occupancy, identifier, member position and both list
    /// lengths. A 136-byte cell straddles up to three cache lines, and these
    /// fields sit on all of them. Nothing depends on the loaded values but a
    /// folded checksum, so the out-of-order core keeps every miss of the
    /// batch in flight at once; without the pass, the write sequence that
    /// follows takes them one at a time behind its own dependent checks.
    /// Sentinels ([`SAMPLE_SKIP`], [`SAMPLE_NONE`], [`NO_TARGET`]) fail the
    /// bounds check and vacant cells the occupancy check. Pure reads: no
    /// observable effect.
    #[inline]
    fn gather(&self, cells: &[u32]) {
        let mut fold = 0u64;
        for &idx in cells {
            if let Some(Some(rec)) = self.slab.get(idx as usize) {
                let lens = rec.in_refs.len ^ rec.out_slots.len ^ rec.member_pos;
                fold ^= rec.id.raw() ^ u64::from(lens);
            }
        }
        std::hint::black_box(fold);
    }

    /// Appends the dense indices of every undirected neighbour of `idx` to
    /// `out` (out-slot targets first, then in-referencing owners). Duplicates
    /// are *not* removed — callers that need a set deduplicate themselves
    /// (the flooding bitset gets deduplication for free).
    ///
    /// Appends nothing when `idx` is vacant.
    pub fn neighbors_dense_into(&self, idx: u32, out: &mut Vec<u32>) {
        let Some(rec) = self.slab.get(idx as usize).and_then(|cell| cell.as_ref()) else {
            return;
        };
        out.extend(rec.out_slots.iter().filter(|&t| t != NO_TARGET));
        out.extend(rec.in_refs.iter());
    }

    /// Iterates the dense indices of every undirected neighbour of `idx`
    /// (out-slot targets first, then in-referencing owners, duplicates kept),
    /// without touching the heap. Yields nothing when `idx` is vacant or out
    /// of range.
    ///
    /// This is the read-only shared-access flavour of
    /// [`Self::neighbors_dense_into`]: it borrows `self` immutably and
    /// allocates nothing, so any number of threads can expand adjacency
    /// concurrently over one `&DynamicGraph` (the parallel flooding engine in
    /// `churn-core` does exactly that across slab shards).
    pub fn neighbor_indices_at(&self, idx: u32) -> impl Iterator<Item = u32> + '_ {
        self.slab
            .get(idx as usize)
            .and_then(|cell| cell.as_ref())
            .into_iter()
            .flat_map(|rec| {
                rec.out_slots
                    .iter()
                    .filter(|&t| t != NO_TARGET)
                    .chain(rec.in_refs.iter())
            })
    }

    /// Splits the slab index space `0..slab_len` into at most `shards`
    /// contiguous, non-overlapping ranges that together cover every alive
    /// cell, for sharded parallel scans (each worker walks one range and
    /// skips vacant cells via [`Self::neighbor_indices_at`] /
    /// [`Self::id_at`]). Ranges are balanced by slab length; in the
    /// steady-state churn regime almost every cell is alive, so this is also
    /// balanced by population.
    ///
    /// Yields nothing for an empty slab; never yields an empty range.
    pub fn par_alive_ranges(&self, shards: usize) -> impl Iterator<Item = std::ops::Range<u32>> {
        let len = self.slab.len() as u32;
        let shards = (shards.max(1) as u32).min(len.max(1));
        let chunk = len.div_ceil(shards).max(1);
        (0..shards).filter_map(move |s| {
            let lo = s * chunk;
            let hi = ((s + 1) * chunk).min(len);
            (lo < hi).then_some(lo..hi)
        })
    }

    /// Dense-index variant of [`Self::in_request_count`]: the number of
    /// out-slots (of other nodes) currently pointing at the node in cell
    /// `idx`, with multiplicity. `None` when the cell is vacant.
    ///
    /// This is the saturation check of in-degree-bounded overlay protocols
    /// (accept a request only while `in_request_count_at < c·d`).
    #[must_use]
    pub fn in_request_count_at(&self, idx: u32) -> Option<usize> {
        self.slab
            .get(idx as usize)
            .and_then(|cell| cell.as_ref())
            .map(|rec| rec.in_refs.len())
    }

    /// Iterates the out-slot targets of the node at `idx`, in slot order —
    /// `None` for an unconnected slot. Yields nothing when the cell is vacant
    /// or out of range. This is the allocation-free dense flavour of
    /// [`Self::out_slots`]: overlay maintenance
    /// loops walk it to find empty slots without touching the identifier map.
    pub fn out_slot_targets_at(&self, idx: u32) -> impl Iterator<Item = Option<u32>> + '_ {
        self.slab
            .get(idx as usize)
            .and_then(|cell| cell.as_ref())
            .into_iter()
            .flat_map(|rec| rec.out_slots.iter().map(|t| (t != NO_TARGET).then_some(t)))
    }

    /// Returns `true` when the alive nodes at `u` and `v` are adjacent in
    /// either direction. Dense flavour of [`Self::has_edge`]: one record
    /// access and two short linear scans, no hashing. `false` when either
    /// cell is vacant or out of range.
    #[must_use]
    pub fn has_edge_at(&self, u: u32, v: u32) -> bool {
        let Some(rec) = self.slab.get(u as usize).and_then(|cell| cell.as_ref()) else {
            return false;
        };
        self.occupied(v) && (rec.out_slots.contains(v) || rec.in_refs.contains(v))
    }

    /// Number of incident links of the node at `idx`, *with multiplicity*
    /// (its own connected out-slots plus the out-slots of others pointing at
    /// it). `None` when the cell is vacant. O(d); zero iff the node is
    /// isolated in the sense of Lemmas 3.5 / 4.10. This is the degree proxy
    /// adversarial targeted-by-degree churn maximises — cheaper than the
    /// distinct-neighbour degree, and identical except on multi-edges.
    #[must_use]
    pub fn incident_link_count_at(&self, idx: u32) -> Option<usize> {
        self.slab
            .get(idx as usize)
            .and_then(|cell| cell.as_ref())
            .map(|rec| rec.filled_out() + rec.in_refs.len())
    }

    /// Severs the earliest-recorded in-reference of `idx` (its approximately
    /// oldest incoming link: exact while no in-reference was dropped, since
    /// other removals compact the list with swap-removes): the pointing
    /// out-slot of the owning node is cleared. Returns the owner's dense
    /// index and the cleared slot, or `None` when `idx` is vacant or has no
    /// in-references.
    ///
    /// The in-reference list's relative order is preserved (order-preserving
    /// front removal), so consecutive sheds walk the surviving links
    /// oldest-first — the behaviour eviction policies under sustained
    /// saturation depend on. Resolves each record once; this is the hot
    /// eviction step of in-degree-capped overlay policies (the RAES
    /// `evict-oldest` knob).
    pub fn shed_oldest_in_ref(&mut self, idx: u32) -> Option<(u32, usize)> {
        let rec = self.slab.get_mut(idx as usize)?.as_mut()?;
        if rec.in_refs.is_empty() {
            return None;
        }
        let owner = rec.in_refs.get(0);
        rec.in_refs.remove_front();
        let owner_rec = self.slab[owner as usize]
            .as_mut()
            .expect("in-reference owners are alive");
        let slot = owner_rec
            .out_slots
            .position(idx)
            .expect("in-reference implies a pointing out-slot");
        owner_rec.out_slots.set(slot, NO_TARGET);
        self.filled_slots -= 1;
        if self.observing() {
            self.mark_dirty(idx);
            self.mark_dirty(owner);
        }
        Some((owner, slot))
    }

    fn record(&self, idx: u32) -> &NodeRecord {
        self.slab[idx as usize]
            .as_ref()
            .expect("dense index of an alive node")
    }

    fn record_mut(&mut self, idx: u32) -> &mut NodeRecord {
        self.slab[idx as usize]
            .as_mut()
            .expect("dense index of an alive node")
    }

    fn occupied(&self, idx: u32) -> bool {
        self.slab
            .get(idx as usize)
            .is_some_and(|cell| cell.is_some())
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Adds a node with `out_degree` (initially unconnected) out-slots.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if a node with this identifier is
    /// already alive.
    pub fn add_node(&mut self, id: NodeId, out_degree: usize) -> Result<()> {
        self.add_node_indexed(id, out_degree).map(|_| ())
    }

    /// Adds a node like [`Self::add_node`] and returns its dense index.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if a node with this identifier is
    /// already alive.
    pub fn add_node_indexed(&mut self, id: NodeId, out_degree: usize) -> Result<u32> {
        let Entry::Vacant(entry) = self.index.entry(id) else {
            return Err(GraphError::DuplicateNode(id));
        };
        let record = NodeRecord {
            id,
            member_pos: self.members.len() as u32,
            out_slots: MiniVec::filled(out_degree, NO_TARGET),
            in_refs: MiniVec::new(),
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                // A recycled cell breaks the index-order = id-order property.
                self.id_sorted = false;
                self.slab[idx as usize] = Some(record);
                // Vacant-even → occupied-odd.
                self.generations[idx as usize] = self.generations[idx as usize].wrapping_add(1);
                idx
            }
            None => {
                let idx = self.slab.len() as u32;
                self.slab.push(Some(record));
                self.generations.push(1);
                idx
            }
        };
        if id.raw() < self.next_sorted_id {
            self.id_sorted = false;
        }
        self.next_sorted_id = self.next_sorted_id.max(id.raw().saturating_add(1));
        self.members.push(idx);
        entry.insert(idx);
        if self.observing() {
            if let Some(delta) = self.delta.as_deref_mut() {
                delta.births.push((idx, id));
            }
            self.mark_dirty(idx);
        }
        Ok(idx)
    }

    fn resolve(&self, id: NodeId) -> Result<u32> {
        self.index
            .get(&id)
            .copied()
            .ok_or(GraphError::UnknownNode(id))
    }

    /// Points out-slot `slot` of `owner` at `target`, returning the previous
    /// target of that slot (if any).
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if `owner` or `target` is not alive,
    /// * [`GraphError::SlotOutOfRange`] if `slot >= out_degree(owner)`,
    /// * [`GraphError::SelfLoop`] if `owner == target`.
    pub fn set_out_slot(
        &mut self,
        owner: NodeId,
        slot: usize,
        target: NodeId,
    ) -> Result<Option<NodeId>> {
        if owner == target {
            return Err(GraphError::SelfLoop(owner));
        }
        let target_idx = self.resolve(target)?;
        let owner_idx = self.resolve(owner)?;
        let prev = self.set_out_slot_at(owner_idx, slot, target_idx)?;
        Ok(prev.map(|idx| self.record(idx).id))
    }

    /// Dense-index variant of [`Self::set_out_slot`]; returns the previous
    /// target's dense index.
    ///
    /// # Errors
    ///
    /// As [`Self::set_out_slot`]; a vacant `owner_idx` or `target_idx` is
    /// reported as [`GraphError::VacantIndex`].
    pub fn set_out_slot_at(
        &mut self,
        owner_idx: u32,
        slot: usize,
        target_idx: u32,
    ) -> Result<Option<u32>> {
        if owner_idx == target_idx {
            let id = self
                .id_at(owner_idx)
                .ok_or(GraphError::VacantIndex(owner_idx))?;
            return Err(GraphError::SelfLoop(id));
        }
        if !self.occupied(target_idx) {
            return Err(GraphError::VacantIndex(target_idx));
        }
        let prev = {
            let Some(rec) = self
                .slab
                .get_mut(owner_idx as usize)
                .and_then(Option::as_mut)
            else {
                return Err(GraphError::VacantIndex(owner_idx));
            };
            let len = rec.out_slots.len();
            if slot >= len {
                return Err(GraphError::SlotOutOfRange {
                    node: rec.id,
                    slot,
                    len,
                });
            }
            let prev = rec.out_slots.get(slot);
            rec.out_slots.set(slot, target_idx);
            prev
        };
        if prev != NO_TARGET {
            if prev != target_idx {
                self.dec_in_ref(prev, owner_idx);
                self.inc_in_ref(target_idx, owner_idx);
                if self.observing() {
                    self.mark_dirty(owner_idx);
                    self.mark_dirty(prev);
                    self.mark_dirty(target_idx);
                }
            }
            // filled count unchanged: slot was already occupied
        } else {
            self.inc_in_ref(target_idx, owner_idx);
            self.filled_slots += 1;
            if self.observing() {
                self.mark_dirty(owner_idx);
                self.mark_dirty(target_idx);
            }
        }
        Ok((prev != NO_TARGET).then_some(prev))
    }

    /// Clears out-slot `slot` of `owner`, returning the target it pointed at.
    ///
    /// # Errors
    ///
    /// * [`GraphError::UnknownNode`] if `owner` is not alive,
    /// * [`GraphError::SlotOutOfRange`] if `slot >= out_degree(owner)`.
    pub fn clear_out_slot(&mut self, owner: NodeId, slot: usize) -> Result<Option<NodeId>> {
        let owner_idx = self.resolve(owner)?;
        let prev = self.clear_out_slot_at(owner_idx, slot)?;
        Ok(prev.map(|idx| self.record(idx).id))
    }

    /// Dense-index variant of [`Self::clear_out_slot`].
    ///
    /// # Errors
    ///
    /// As [`Self::clear_out_slot`]; a vacant `owner_idx` is reported as
    /// [`GraphError::VacantIndex`].
    pub fn clear_out_slot_at(&mut self, owner_idx: u32, slot: usize) -> Result<Option<u32>> {
        let prev = {
            let Some(rec) = self
                .slab
                .get_mut(owner_idx as usize)
                .and_then(Option::as_mut)
            else {
                return Err(GraphError::VacantIndex(owner_idx));
            };
            let len = rec.out_slots.len();
            if slot >= len {
                return Err(GraphError::SlotOutOfRange {
                    node: rec.id,
                    slot,
                    len,
                });
            }
            let prev = rec.out_slots.get(slot);
            rec.out_slots.set(slot, NO_TARGET);
            prev
        };
        if prev != NO_TARGET {
            self.dec_in_ref(prev, owner_idx);
            self.filled_slots -= 1;
            if self.observing() {
                self.mark_dirty(owner_idx);
                self.mark_dirty(prev);
            }
        }
        Ok((prev != NO_TARGET).then_some(prev))
    }

    /// Removes `id` and every edge incident to it.
    ///
    /// Returns a [`RemovedNode`] describing both the dead node's own requests and
    /// the out-slots of surviving nodes that were pointing at it (now cleared).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if `id` is not alive.
    pub fn remove_node(&mut self, id: NodeId) -> Result<RemovedNode> {
        let idx = self.resolve(id)?;
        self.remove_node_at(idx)
    }

    /// Dense-index variant of [`Self::remove_node`]. The removed cell is
    /// recycled by a later insertion, invalidating the index.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VacantIndex`] when `idx` holds no node.
    pub fn remove_node_at(&mut self, idx: u32) -> Result<RemovedNode> {
        let mut removed = RemovedNode::default();
        self.remove_node_into(idx, &mut removed)?;
        Ok(removed)
    }

    /// Like [`Self::remove_node_at`], but writes the removal report into a
    /// caller-owned scratch buffer (cleared first), so steady-state churn
    /// performs no heap allocation. The churn models pass the same buffer
    /// every round.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VacantIndex`] when `idx` holds no node; `out` is
    /// left cleared in that case.
    pub fn remove_node_into(&mut self, idx: u32, out: &mut RemovedNode) -> Result<()> {
        out.id = NodeId::new(u64::MAX);
        out.dangling_slots.clear();
        out.dangling_dense.clear();

        let record = self
            .slab
            .get_mut(idx as usize)
            .and_then(Option::take)
            .ok_or(GraphError::VacantIndex(idx))?;
        out.id = record.id;
        // Gather the cells the unhooking below writes — the dead node's
        // targets, the owners of the slots pointing at it, and the member
        // swapped into its member-table position — before the first write
        // (spilled list entries, rare past the inline capacity, are not
        // gathered).
        self.gather(record.out_slots.inline_slice());
        self.gather(record.in_refs.inline_slice());
        if let Some(last) = self.members.last() {
            self.gather(std::slice::from_ref(last));
        }
        self.index.remove(&record.id);
        // Clear the behavior tag so a recycled cell never inherits it. The
        // slab may have grown past the tag array since the last assignment,
        // hence the bounds-checked access.
        if !self.tags.is_empty() {
            if let Some(tag) = self.tags.get_mut(idx as usize) {
                if *tag != 0 {
                    self.tagged_members -= 1;
                }
                *tag = 0;
            }
        }
        if self.observing() {
            if let Some(delta) = self.delta.as_deref_mut() {
                delta.deaths.push((idx, record.id));
            }
            self.mark_dirty(idx);
            // Every endpoint of an incident edge changes adjacency: the dead
            // node's own targets and the owners of the slots pointing at it.
            for target in record.out_slots.iter().filter(|&t| t != NO_TARGET) {
                self.mark_dirty(target);
            }
            for owner in record.in_refs.iter() {
                self.mark_dirty(owner);
            }
        }

        // Unhook from the dense member list (swap-remove, O(1)).
        let pos = record.member_pos as usize;
        self.members.swap_remove(pos);
        if let Some(&moved) = self.members.get(pos) {
            self.record_mut(moved).member_pos = pos as u32;
        }
        self.free.push(idx);
        // Invalidate outstanding handles to this cell: occupied-odd →
        // vacant-even (wrapping: only equality with a live handle matters,
        // and 2^32 reuses cannot be outstanding).
        self.generations[idx as usize] = self.generations[idx as usize].wrapping_add(1);

        // The dead node's own requests: drop the in-references they created.
        for target in record.out_slots.iter().filter(|&t| t != NO_TARGET) {
            self.filled_slots -= 1;
            Self::dec_in_ref_list(&mut self.record_mut(target).in_refs, idx);
        }

        // Surviving out-slots pointing at the dead node become dangling. The
        // in-reference multiset holds one entry per pointing slot (owners
        // repeated with multiplicity), and each iteration clears exactly the
        // first still-pointing slot of that owner.
        for owner in record.in_refs.iter() {
            if owner == idx {
                continue;
            }
            let owner_rec = self.record_mut(owner);
            let owner_id = owner_rec.id;
            let slot = owner_rec
                .out_slots
                .position(idx)
                .expect("in-reference implies a pointing out-slot");
            owner_rec.out_slots.set(slot, NO_TARGET);
            out.dangling_slots.push(EdgeSlot {
                owner: owner_id,
                slot,
            });
            out.dangling_dense.push((owner, slot));
        }
        self.filled_slots -= out.dangling_slots.len();

        // Sort both dangling views in lockstep by (owner, slot). Degrees are
        // O(d), so an allocation-free insertion sort wins here.
        for i in 1..out.dangling_slots.len() {
            let mut j = i;
            while j > 0 && out.dangling_slots[j - 1] > out.dangling_slots[j] {
                out.dangling_slots.swap(j - 1, j);
                out.dangling_dense.swap(j - 1, j);
                j -= 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Identifier-based queries
    // ------------------------------------------------------------------

    /// The out-slot targets of `id`, or `None` if `id` is not alive.
    ///
    /// Allocates a fresh vector and resolves every target's identifier; loops
    /// over many nodes walk [`Self::out_slot_targets_at`] instead.
    #[must_use]
    pub fn out_slots(&self, id: NodeId) -> Option<Vec<Option<NodeId>>> {
        let idx = self.dense_index_of(id)?;
        Some(
            self.record(idx)
                .out_slots
                .iter()
                .map(|slot| (slot != NO_TARGET).then(|| self.record(slot).id))
                .collect(),
        )
    }

    /// Number of out-slots `id` owns (connected or not).
    #[must_use]
    pub fn out_slot_count(&self, id: NodeId) -> Option<usize> {
        let idx = self.dense_index_of(id)?;
        Some(self.record(idx).out_slots.len())
    }

    /// Number of currently connected out-slots of `id`.
    #[must_use]
    pub fn out_degree(&self, id: NodeId) -> Option<usize> {
        let idx = self.dense_index_of(id)?;
        Some(self.record(idx).filled_out())
    }

    /// Total number of out-slots (of other nodes) pointing at `id`, with
    /// multiplicity. This is the "in-degree" in the sense of requests received.
    #[must_use]
    pub fn in_request_count(&self, id: NodeId) -> Option<usize> {
        let idx = self.dense_index_of(id)?;
        Some(self.record(idx).in_refs.len())
    }

    /// Distinct undirected neighbours of `id` (union of out-targets and
    /// in-referencing nodes), sorted.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> Option<Vec<NodeId>> {
        let idx = self.dense_index_of(id)?;
        let mut dense = Vec::new();
        self.neighbors_dense_into(idx, &mut dense);
        let mut ids: Vec<NodeId> = dense.into_iter().map(|i| self.record(i).id).collect();
        ids.sort_unstable();
        ids.dedup();
        Some(ids)
    }

    /// Number of distinct undirected neighbours of `id`.
    #[must_use]
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        let idx = self.dense_index_of(id)?;
        let mut dense = Vec::new();
        self.neighbors_dense_into(idx, &mut dense);
        dense.sort_unstable();
        dense.dedup();
        Some(dense.len())
    }

    /// Returns `true` when `id` currently has no incident edges at all (its own
    /// requests are all dangling and no other node points at it). This is the
    /// notion of *isolated node* of Lemmas 3.5 and 4.10 of the paper.
    ///
    /// Returns `None` if `id` is not alive.
    #[must_use]
    pub fn is_isolated(&self, id: NodeId) -> Option<bool> {
        let idx = self.dense_index_of(id)?;
        let rec = self.record(idx);
        Some(rec.filled_out() == 0 && rec.in_refs.is_empty())
    }

    /// Returns `true` when `u` and `v` are adjacent (in either direction).
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (Some(u_idx), Some(v_idx)) = (self.dense_index_of(u), self.dense_index_of(v)) else {
            return false;
        };
        let rec = self.record(u_idx);
        rec.out_slots.contains(v_idx) || rec.in_refs.contains(v_idx)
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// Checks that the in-reference multiset of every node exactly mirrors the
    /// out-slots pointing at it, that no slot points at a vacant cell, that no
    /// self-loops exist, that the filled-slot counter, free list, member list
    /// and identifier map are consistent.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when an invariant is violated.
    pub fn assert_invariants(&self) {
        // Slab occupancy matches members + free list.
        assert_eq!(
            self.members.len() + self.free.len(),
            self.slab.len(),
            "member list and free list must partition the slab"
        );
        for &idx in &self.free {
            assert!(
                self.slab[idx as usize].is_none(),
                "free-list cell {idx} is occupied"
            );
        }
        assert_eq!(
            self.index.len(),
            self.members.len(),
            "identifier map out of sync with member list"
        );
        assert_eq!(
            self.generations.len(),
            self.slab.len(),
            "generation counters must cover the whole slab"
        );
        for (idx, cell) in self.slab.iter().enumerate() {
            assert_eq!(
                self.generations[idx] % 2 == 1,
                cell.is_some(),
                "generation parity of cell {idx} must encode its occupancy"
            );
        }
        if self.id_sorted {
            let mut last: Option<NodeId> = None;
            for cell in self.slab.iter().flatten() {
                assert!(
                    last.is_none_or(|prev| prev < cell.id),
                    "id_sorted layout flag is set but slab order is not id-sorted"
                );
                last = Some(cell.id);
            }
        }

        let mut expected_in: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut filled = 0usize;
        for &u in &self.members {
            let rec = self.record(u);
            assert_eq!(
                self.members[rec.member_pos as usize], u,
                "member_pos of {} is stale",
                rec.id
            );
            assert_eq!(
                self.index.get(&rec.id),
                Some(&u),
                "identifier map disagrees for {}",
                rec.id
            );
            for target in rec.out_slots.iter().filter(|&t| t != NO_TARGET) {
                assert!(
                    self.occupied(target),
                    "out-slot of {} points at vacant cell {target}",
                    rec.id
                );
                assert_ne!(u, target, "self-loop at {}", rec.id);
                filled += 1;
                expected_in.entry(target).or_default().push(u);
            }
        }
        assert_eq!(
            filled, self.filled_slots,
            "filled-slot counter out of sync (actual {filled}, cached {})",
            self.filled_slots
        );
        for &v in &self.members {
            let rec = self.record(v);
            let mut expected = expected_in.remove(&v).unwrap_or_default();
            let mut actual: Vec<u32> = rec.in_refs.iter().collect();
            expected.sort_unstable();
            actual.sort_unstable();
            assert_eq!(
                actual, expected,
                "in-reference multiset of {} is inconsistent",
                rec.id
            );
        }
        assert!(
            expected_in.is_empty(),
            "in-references recorded for vacant cells: {expected_in:?}"
        );
    }

    #[inline]
    fn inc_in_ref(&mut self, target: u32, owner: u32) {
        self.record_mut(target).in_refs.push(owner);
    }

    #[inline]
    fn dec_in_ref(&mut self, target: u32, owner: u32) {
        Self::dec_in_ref_list(&mut self.record_mut(target).in_refs, owner);
    }

    #[inline]
    fn dec_in_ref_list(refs: &mut MiniVec<12>, owner: u32) {
        if let Some(pos) = refs.position(owner) {
            refs.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn triangle() -> DynamicGraph {
        // a -> b, b -> c, c -> a
        let mut g = DynamicGraph::new();
        for raw in 0..3 {
            g.add_node(id(raw), 1).unwrap();
        }
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        g.set_out_slot(id(1), 0, id(2)).unwrap();
        g.set_out_slot(id(2), 0, id(0)).unwrap();
        g
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g = DynamicGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.filled_slot_count(), 0);
        assert_eq!(g.distinct_edge_count(), 0);
        g.assert_invariants();
    }

    #[test]
    fn add_node_rejects_duplicates() {
        let mut g = DynamicGraph::new();
        g.add_node(id(1), 3).unwrap();
        assert_eq!(g.add_node(id(1), 3), Err(GraphError::DuplicateNode(id(1))));
    }

    #[test]
    fn set_out_slot_connects_and_reports_previous_target() {
        let mut g = DynamicGraph::new();
        for raw in 0..3 {
            g.add_node(id(raw), 2).unwrap();
        }
        assert_eq!(g.set_out_slot(id(0), 0, id(1)).unwrap(), None);
        assert_eq!(g.set_out_slot(id(0), 0, id(2)).unwrap(), Some(id(1)));
        assert_eq!(g.degree(id(1)), Some(0));
        assert_eq!(g.degree(id(2)), Some(1));
        assert_eq!(g.filled_slot_count(), 1);
        g.assert_invariants();
    }

    #[test]
    fn set_out_slot_same_target_is_idempotent() {
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 1).unwrap();
        g.add_node(id(1), 1).unwrap();
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        assert_eq!(g.set_out_slot(id(0), 0, id(1)).unwrap(), Some(id(1)));
        assert_eq!(g.filled_slot_count(), 1);
        assert_eq!(g.in_request_count(id(1)), Some(1));
        g.assert_invariants();
    }

    #[test]
    fn set_out_slot_validates_arguments() {
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 1).unwrap();
        g.add_node(id(1), 1).unwrap();
        assert_eq!(
            g.set_out_slot(id(0), 0, id(0)),
            Err(GraphError::SelfLoop(id(0)))
        );
        assert_eq!(
            g.set_out_slot(id(0), 5, id(1)),
            Err(GraphError::SlotOutOfRange {
                node: id(0),
                slot: 5,
                len: 1
            })
        );
        assert_eq!(
            g.set_out_slot(id(0), 0, id(9)),
            Err(GraphError::UnknownNode(id(9)))
        );
        assert_eq!(
            g.set_out_slot(id(9), 0, id(1)),
            Err(GraphError::UnknownNode(id(9)))
        );
    }

    #[test]
    fn clear_out_slot_disconnects() {
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 1).unwrap();
        g.add_node(id(1), 1).unwrap();
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        assert_eq!(g.clear_out_slot(id(0), 0).unwrap(), Some(id(1)));
        assert_eq!(g.clear_out_slot(id(0), 0).unwrap(), None);
        assert!(g.is_isolated(id(1)).unwrap());
        assert_eq!(g.filled_slot_count(), 0);
        g.assert_invariants();
    }

    #[test]
    fn neighbors_union_out_and_in_edges() {
        let g = triangle();
        // Every node has one out-target and one in-reference, distinct.
        for raw in 0..3 {
            assert_eq!(g.degree(id(raw)), Some(2));
            assert_eq!(g.out_degree(id(raw)), Some(1));
        }
        assert_eq!(g.distinct_edge_count(), 3);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle();
        assert!(g.has_edge(id(0), id(1)));
        assert!(g.has_edge(id(1), id(0)));
        assert!(!g.has_edge(id(0), id(99)));
    }

    #[test]
    fn remove_node_reports_dangling_slots() {
        let mut g = DynamicGraph::new();
        for raw in 0..4 {
            g.add_node(id(raw), 2).unwrap();
        }
        // 1, 2, 3 all point at 0; 0 points at 1.
        g.set_out_slot(id(1), 0, id(0)).unwrap();
        g.set_out_slot(id(2), 1, id(0)).unwrap();
        g.set_out_slot(id(3), 0, id(0)).unwrap();
        g.set_out_slot(id(0), 0, id(1)).unwrap();

        let removed = g.remove_node(id(0)).unwrap();
        assert_eq!(removed.id, id(0));
        assert_eq!(
            removed.dangling_slots,
            vec![
                EdgeSlot {
                    owner: id(1),
                    slot: 0
                },
                EdgeSlot {
                    owner: id(2),
                    slot: 1
                },
                EdgeSlot {
                    owner: id(3),
                    slot: 0
                },
            ]
        );
        // The dense view names the same slots in the same order.
        assert_eq!(removed.dangling_dense.len(), removed.dangling_slots.len());
        for (edge_slot, &(owner_idx, slot)) in
            removed.dangling_slots.iter().zip(&removed.dangling_dense)
        {
            assert_eq!(g.id_at(owner_idx), Some(edge_slot.owner));
            assert_eq!(edge_slot.slot, slot);
        }
        assert!(!g.contains(id(0)));
        assert_eq!(g.filled_slot_count(), 0);
        for raw in 1..4 {
            assert!(g.is_isolated(id(raw)).unwrap());
        }
        g.assert_invariants();
    }

    #[test]
    fn remove_unknown_node_errors() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.remove_node(id(0)), Err(GraphError::UnknownNode(id(0))));
    }

    #[test]
    fn multiple_slots_to_same_target_tracked_with_multiplicity() {
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 3).unwrap();
        g.add_node(id(1), 3).unwrap();
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        g.set_out_slot(id(0), 1, id(1)).unwrap();
        assert_eq!(g.in_request_count(id(1)), Some(2));
        assert_eq!(g.degree(id(1)), Some(1));
        g.clear_out_slot(id(0), 0).unwrap();
        assert_eq!(g.in_request_count(id(1)), Some(1));
        assert!(!g.is_isolated(id(1)).unwrap());
        g.clear_out_slot(id(0), 1).unwrap();
        assert!(g.is_isolated(id(1)).unwrap());
        g.assert_invariants();
    }

    #[test]
    fn empty_out_slots_lists_dangling_requests() {
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 3).unwrap();
        g.add_node(id(1), 3).unwrap();
        g.set_out_slot(id(0), 1, id(1)).unwrap();
        assert_eq!(g.out_slots(id(0)), Some(vec![None, Some(id(1)), None]));
        assert_eq!(g.out_slots(id(7)), None);
    }

    #[test]
    fn isolated_after_neighbor_death_without_regeneration() {
        // The scenario behind Lemma 3.5: a node whose only connections die.
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 2).unwrap();
        g.add_node(id(1), 2).unwrap();
        g.add_node(id(2), 2).unwrap();
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        g.set_out_slot(id(0), 1, id(2)).unwrap();
        assert!(!g.is_isolated(id(0)).unwrap());
        g.remove_node(id(1)).unwrap();
        g.remove_node(id(2)).unwrap();
        assert!(g.is_isolated(id(0)).unwrap());
        g.assert_invariants();
    }

    #[test]
    fn sorted_node_ids_are_sorted() {
        let mut g = DynamicGraph::new();
        for raw in [5u64, 1, 9, 3] {
            g.add_node(id(raw), 0).unwrap();
        }
        assert_eq!(g.sorted_node_ids(), vec![id(1), id(3), id(5), id(9)]);
    }

    #[test]
    fn slab_cells_are_recycled_and_revalidated() {
        let mut g = DynamicGraph::new();
        let a = g.add_node_indexed(id(0), 1).unwrap();
        let b = g.add_node_indexed(id(1), 1).unwrap();
        g.set_out_slot_at(a, 0, b).unwrap();
        assert_eq!(g.id_at(a), Some(id(0)));
        g.remove_node_at(a).unwrap();
        assert_eq!(g.id_at(a), None, "vacated cell holds no node");

        // The freed cell is reused by the next insertion under a new id…
        let c = g.add_node_indexed(id(2), 1).unwrap();
        assert_eq!(c, a, "free list recycles the vacated cell");
        // …and revalidation by identifier detects the reuse.
        assert_eq!(g.id_at(a), Some(id(2)));
        assert_eq!(g.dense_index_of(id(0)), None);
        assert_eq!(g.slab_len(), 2, "slab does not grow while cells are free");
        g.assert_invariants();
    }

    #[test]
    fn dense_sampling_is_uniform_over_members() {
        use rand::SeedableRng;
        let mut g = DynamicGraph::new();
        for raw in 0..10 {
            g.add_node(id(raw), 0).unwrap();
        }
        g.remove_node(id(3)).unwrap();
        g.remove_node(id(7)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut counts: HashMap<NodeId, u32> = HashMap::new();
        for _ in 0..80_000 {
            let idx = g.sample_member(&mut rng).unwrap();
            *counts.entry(g.id_at(idx).unwrap()).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 8, "only alive nodes are sampled");
        for (&node, &count) in &counts {
            assert!(
                (count as i64 - 10_000).abs() < 800,
                "node {node} sampled {count} times, expected ~10000"
            );
        }
        // Exclusion removes exactly the excluded member.
        let excluded = g.dense_index_of(id(0)).unwrap();
        for _ in 0..1000 {
            let idx = g.sample_member_excluding(&mut rng, excluded).unwrap();
            assert_ne!(idx, excluded);
        }
    }

    #[test]
    fn handles_revalidate_in_o1_across_recycling() {
        let mut g = DynamicGraph::new();
        let a = g.add_node_indexed(id(0), 1).unwrap();
        let b = g.add_node_indexed(id(1), 1).unwrap();
        let ha = g.handle_at(a).unwrap();
        let hb = g.handle_of(id(1)).unwrap();
        assert_eq!(hb.index, b);
        assert!(g.is_current(ha) && g.is_current(hb));

        g.remove_node_at(a).unwrap();
        assert!(!g.is_current(ha), "handle dies with its node");
        assert_eq!(g.handle_at(a), None, "vacant cells yield no handle");

        // Recycling the cell must not resurrect the stale handle.
        let c = g.add_node_indexed(id(2), 1).unwrap();
        assert_eq!(c, a);
        assert!(!g.is_current(ha));
        let hc = g.handle_at(c).unwrap();
        assert!(g.is_current(hc));
        assert_eq!(hc.index, ha.index);
        assert_ne!(hc.generation, ha.generation);
        // Out-of-range indices are handled gracefully.
        assert_eq!(g.handle_at(99), None);
        assert!(!g.is_current(DenseHandle {
            index: 99,
            generation: 0
        }));
        g.assert_invariants();
    }

    #[test]
    fn forged_handles_never_validate_against_vacant_cells() {
        // DenseHandle's fields are public, so a caller (or a deserializer)
        // can construct handles the graph never issued. Those must never
        // report current for a vacant cell: vacant cells carry even
        // generations and valid handles only ever carry odd ones.
        let mut g = DynamicGraph::new();
        let a = g.add_node_indexed(id(0), 0).unwrap();
        g.remove_node_at(a).unwrap();
        let vacant_generation = {
            // Reconstruct the vacant cell's current counter by probing the
            // next occupancy: reuse bumps it by exactly one.
            let reused = g.add_node_indexed(id(1), 0).unwrap();
            assert_eq!(reused, a);
            let occupied = g.handle_at(a).unwrap().generation;
            g.remove_node_at(a).unwrap();
            occupied.wrapping_add(1)
        };
        for generation in [vacant_generation, 0, 1, 2, 3, u32::MAX] {
            assert!(
                !g.is_current(DenseHandle {
                    index: a,
                    generation
                }),
                "no handle value may validate against the vacant cell \
                 (tried generation {generation})"
            );
        }
        g.assert_invariants();
    }

    #[test]
    fn dense_protocol_queries_mirror_id_api() {
        let mut g = DynamicGraph::new();
        for raw in 0..4 {
            g.add_node(id(raw), 2).unwrap();
        }
        g.set_out_slot(id(1), 0, id(0)).unwrap();
        g.set_out_slot(id(2), 0, id(0)).unwrap();
        g.set_out_slot(id(2), 1, id(0)).unwrap();
        let zero = g.dense_index_of(id(0)).unwrap();
        assert_eq!(g.in_request_count_at(zero), Some(3));
        assert_eq!(g.in_request_count(id(0)), Some(3));
        assert_eq!(g.in_request_count_at(99), None);
    }

    #[test]
    fn shed_oldest_in_ref_clears_the_earliest_pointing_slot() {
        let mut g = DynamicGraph::new();
        for raw in 0..4 {
            g.add_node(id(raw), 2).unwrap();
        }
        g.set_out_slot(id(1), 1, id(0)).unwrap();
        g.set_out_slot(id(2), 0, id(0)).unwrap();
        let zero = g.dense_index_of(id(0)).unwrap();
        let one = g.dense_index_of(id(1)).unwrap();

        // The earliest in-reference (node 1, slot 1) is shed first.
        assert_eq!(g.shed_oldest_in_ref(zero), Some((one, 1)));
        assert_eq!(g.in_request_count(id(0)), Some(1));
        assert_eq!(g.out_degree(id(1)), Some(0));
        g.assert_invariants();

        // Then node 2's, after which nothing is left to shed.
        let two = g.dense_index_of(id(2)).unwrap();
        assert_eq!(g.shed_oldest_in_ref(zero), Some((two, 0)));
        assert_eq!(g.shed_oldest_in_ref(zero), None, "no in-references left");
        assert_eq!(g.shed_oldest_in_ref(99), None, "vacant index");
        assert!(g.is_isolated(id(0)).unwrap());
        assert_eq!(g.filled_slot_count(), 0);
        g.assert_invariants();
    }

    #[test]
    fn consecutive_sheds_walk_in_refs_oldest_first() {
        // Three or more links expose ordering bugs a pair cannot: a
        // swap-remove-based shed would evict newest after the first call.
        let mut g = DynamicGraph::new();
        for raw in 0..5 {
            g.add_node(id(raw), 1).unwrap();
        }
        for raw in 1..5 {
            g.set_out_slot(id(raw), 0, id(0)).unwrap();
        }
        let zero = g.dense_index_of(id(0)).unwrap();
        let shed_owner = |g: &mut DynamicGraph| {
            let (owner, _) = g.shed_oldest_in_ref(zero).unwrap();
            g.id_at(owner).unwrap()
        };
        assert_eq!(shed_owner(&mut g), id(1));
        assert_eq!(shed_owner(&mut g), id(2));
        assert_eq!(shed_owner(&mut g), id(3));
        assert_eq!(shed_owner(&mut g), id(4));
        g.assert_invariants();

        // Same walk with enough links to spill past the inline in-reference
        // capacity (12), covering remove_front's spill branch.
        let mut g = DynamicGraph::new();
        g.add_node(id(0), 1).unwrap();
        for raw in 1..=15 {
            g.add_node(id(raw), 1).unwrap();
            g.set_out_slot(id(raw), 0, id(0)).unwrap();
        }
        let zero = g.dense_index_of(id(0)).unwrap();
        for raw in 1..=15 {
            let (owner, _) = g.shed_oldest_in_ref(zero).unwrap();
            assert_eq!(g.id_at(owner), Some(id(raw)));
            g.assert_invariants();
        }
        assert!(g.is_isolated(id(0)).unwrap());
    }

    #[test]
    fn neighbor_indices_at_matches_neighbors_dense_into() {
        let mut g = DynamicGraph::new();
        for raw in 0..6 {
            g.add_node(id(raw), 3).unwrap();
        }
        g.set_out_slot(id(0), 0, id(1)).unwrap();
        g.set_out_slot(id(0), 2, id(2)).unwrap();
        g.set_out_slot(id(3), 1, id(0)).unwrap();
        g.set_out_slot(id(4), 0, id(0)).unwrap();
        g.remove_node(id(5)).unwrap();
        let mut scratch = Vec::new();
        for idx in 0..g.slab_len() as u32 {
            scratch.clear();
            g.neighbors_dense_into(idx, &mut scratch);
            let iterated: Vec<u32> = g.neighbor_indices_at(idx).collect();
            assert_eq!(iterated, scratch, "cell {idx}");
        }
        assert_eq!(g.neighbor_indices_at(99).count(), 0, "out of range");
    }

    #[test]
    fn par_alive_ranges_partition_the_slab() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.par_alive_ranges(4).count(), 0, "empty slab, no ranges");
        for raw in 0..37 {
            g.add_node(id(raw), 0).unwrap();
        }
        g.remove_node(id(5)).unwrap();
        for shards in [1usize, 2, 3, 4, 7, 36, 37, 64] {
            let ranges: Vec<_> = g.par_alive_ranges(shards).collect();
            assert!(ranges.len() <= shards.max(1));
            assert!(ranges.iter().all(|r| !r.is_empty()));
            // Contiguous cover of 0..slab_len with no overlap.
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, g.slab_len() as u32);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn id_sorted_layout_tracks_insertion_order_and_recycling() {
        let mut g = DynamicGraph::new();
        assert!(g.id_sorted_layout(), "empty graph is trivially sorted");
        for raw in 0..5 {
            g.add_node(id(raw), 0).unwrap();
        }
        assert!(g.id_sorted_layout());
        // Removal alone keeps the ordering of the surviving cells.
        g.remove_node(id(2)).unwrap();
        assert!(g.id_sorted_layout());
        g.assert_invariants();
        // The next insertion recycles the vacated cell and breaks it.
        g.add_node(id(7), 0).unwrap();
        assert!(!g.id_sorted_layout());
        g.assert_invariants();

        // Out-of-order identifiers also break it, even without recycling.
        let mut g = DynamicGraph::new();
        g.add_node(id(5), 0).unwrap();
        assert!(g.id_sorted_layout());
        g.add_node(id(3), 0).unwrap();
        assert!(!g.id_sorted_layout());
        g.assert_invariants();
    }

    #[test]
    fn dense_edge_and_slot_queries_mirror_id_api() {
        let mut g = DynamicGraph::new();
        for raw in 0..4 {
            g.add_node(id(raw), 2).unwrap();
        }
        g.set_out_slot(id(0), 1, id(1)).unwrap();
        g.set_out_slot(id(2), 0, id(0)).unwrap();
        let at = |raw: u64| g.dense_index_of(id(raw)).unwrap();
        let (zero, one, two, three) = (at(0), at(1), at(2), at(3));

        assert!(g.has_edge_at(zero, one) && g.has_edge_at(one, zero));
        assert!(g.has_edge_at(zero, two) && g.has_edge_at(two, zero));
        assert!(!g.has_edge_at(zero, three));
        assert!(!g.has_edge_at(99, zero) && !g.has_edge_at(zero, 99));

        let slots: Vec<Option<u32>> = g.out_slot_targets_at(zero).collect();
        assert_eq!(slots, vec![None, Some(one)]);
        assert_eq!(g.out_slot_targets_at(99).count(), 0);

        assert_eq!(g.incident_link_count_at(zero), Some(2));
        assert_eq!(g.incident_link_count_at(three), Some(0));
        assert_eq!(g.incident_link_count_at(99), None);

        g.remove_node(id(1)).unwrap();
        assert!(!g.has_edge_at(zero, one), "dead endpoint has no edges");
    }

    #[test]
    fn delta_recording_tracks_churn_and_dirty_cells() {
        let mut g = DynamicGraph::new();
        let mut delta = GraphDelta::new();
        // Recording off: mutations leave the drained delta empty.
        g.add_node(id(0), 2).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.is_empty());

        g.set_delta_recording(true);
        assert!(g.delta_recording());
        let b = g.add_node_indexed(id(1), 2).unwrap();
        let c = g.add_node_indexed(id(2), 2).unwrap();
        let a = g.dense_index_of(id(0)).unwrap();
        g.set_out_slot_at(a, 0, b).unwrap();
        g.take_delta_into(&mut delta);
        assert_eq!(delta.births, vec![(b, id(1)), (c, id(2))]);
        assert!(delta.deaths.is_empty());
        assert_eq!(delta.churn_events(), 2);
        // Births, the slot owner and the slot target are all dirty.
        for idx in [a, b, c] {
            assert!(delta.dirty.contains(&idx), "cell {idx} must be dirty");
        }

        // Re-pointing a slot dirties owner, old target and new target.
        g.set_out_slot_at(a, 0, c).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.births.is_empty() && delta.deaths.is_empty());
        for idx in [a, b, c] {
            assert!(delta.dirty.contains(&idx), "cell {idx} must be dirty");
        }

        // Idempotent re-point records nothing.
        g.set_out_slot_at(a, 0, c).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.is_empty());

        // A removal dirties the dead cell and every surviving endpoint.
        g.set_out_slot_at(b, 0, c).unwrap();
        g.take_delta_into(&mut delta);
        let removed = g.remove_node_at(c).unwrap();
        assert_eq!(removed.id, id(2));
        g.take_delta_into(&mut delta);
        assert_eq!(delta.deaths, vec![(c, id(2))]);
        for idx in [a, b, c] {
            assert!(delta.dirty.contains(&idx), "cell {idx} must be dirty");
        }

        // Recycling within one window reports both lifecycle events.
        let reused = g.add_node_indexed(id(3), 1).unwrap();
        assert_eq!(reused, c);
        g.remove_node_at(reused).unwrap();
        g.take_delta_into(&mut delta);
        assert_eq!(delta.births, vec![(c, id(3))]);
        assert_eq!(delta.deaths, vec![(c, id(3))]);

        g.set_delta_recording(false);
        g.add_node(id(9), 1).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.is_empty());
        g.assert_invariants();
    }

    #[test]
    fn delta_records_clear_and_shed_operations() {
        let mut g = DynamicGraph::new();
        for raw in 0..3 {
            g.add_node(id(raw), 2).unwrap();
        }
        let at = |raw: u64, g: &DynamicGraph| g.dense_index_of(id(raw)).unwrap();
        g.set_out_slot(id(1), 0, id(0)).unwrap();
        g.set_out_slot(id(2), 0, id(0)).unwrap();
        g.set_delta_recording(true);
        let mut delta = GraphDelta::new();

        g.clear_out_slot(id(1), 0).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.dirty.contains(&at(1, &g)) && delta.dirty.contains(&at(0, &g)));

        g.shed_oldest_in_ref(at(0, &g)).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.dirty.contains(&at(0, &g)) && delta.dirty.contains(&at(2, &g)));

        // Clearing an already-empty slot records nothing.
        g.clear_out_slot(id(1), 0).unwrap();
        g.take_delta_into(&mut delta);
        assert!(delta.is_empty());
    }

    #[test]
    fn vacant_index_operations_error() {
        let mut g = DynamicGraph::new();
        let a = g.add_node_indexed(id(0), 1).unwrap();
        assert_eq!(g.remove_node_at(99), Err(GraphError::VacantIndex(99)));
        assert_eq!(
            g.set_out_slot_at(a, 0, 42),
            Err(GraphError::VacantIndex(42))
        );
        assert_eq!(
            g.set_out_slot_at(17, 0, a),
            Err(GraphError::VacantIndex(17))
        );
        assert_eq!(g.clear_out_slot_at(17, 0), Err(GraphError::VacantIndex(17)));
        g.remove_node_at(a).unwrap();
        assert_eq!(g.remove_node_at(a), Err(GraphError::VacantIndex(a)));
    }

    #[test]
    fn degree_index_matches_scan_under_random_churn() {
        use rand::Rng;
        // Two copies of the same evolving graph: one answers the
        // highest-degree query through the bucketed index, the other through
        // the O(n) scan. They must agree after every mutation, including
        // removals, recycling and retargeted slots.
        let mut indexed = DynamicGraph::new();
        indexed.set_degree_index(true);
        let mut scanned = DynamicGraph::new();
        let mut rng = StdRng::seed_from_u64(42);
        let mut next_id = 0u64;
        let mut alive: Vec<NodeId> = Vec::new();
        for step in 0..600 {
            let action = rng.gen_range(0..10);
            if alive.len() < 3 || action < 3 {
                let node = id(next_id);
                next_id += 1;
                indexed.add_node(node, 3).unwrap();
                scanned.add_node(node, 3).unwrap();
                alive.push(node);
            } else if action < 5 && alive.len() > 3 {
                let victim = alive.swap_remove(rng.gen_range(0..alive.len()));
                indexed.remove_node(victim).unwrap();
                scanned.remove_node(victim).unwrap();
            } else {
                let owner = alive[rng.gen_range(0..alive.len())];
                let target = alive[rng.gen_range(0..alive.len())];
                let slot = rng.gen_range(0..3);
                if owner != target {
                    indexed.set_out_slot(owner, slot, target).unwrap();
                    scanned.set_out_slot(owner, slot, target).unwrap();
                } else {
                    indexed.clear_out_slot(owner, slot).unwrap();
                    scanned.clear_out_slot(owner, slot).unwrap();
                }
            }
            assert_eq!(
                indexed.highest_degree_member(),
                scanned.highest_degree_member(),
                "index and scan disagree after step {step}"
            );
        }
        // Disabling drops the index; the query falls back to the scan.
        indexed.set_degree_index(false);
        assert_eq!(
            indexed.highest_degree_member(),
            scanned.highest_degree_member()
        );
    }

    #[test]
    fn degree_index_tracks_shed_and_bulk_removal_endpoints() {
        let mut g = DynamicGraph::new();
        for raw in 0..4u64 {
            g.add_node(id(raw), 2).unwrap();
        }
        g.set_degree_index(true);
        g.set_out_slot(id(0), 0, id(2)).unwrap();
        g.set_out_slot(id(1), 0, id(2)).unwrap();
        g.set_out_slot(id(3), 0, id(2)).unwrap();
        assert_eq!(g.highest_degree_member(), Some((id(2), 2)));
        // Shedding the oldest in-link lowers both endpoints.
        g.shed_oldest_in_ref(2).unwrap();
        assert_eq!(g.incident_link_count_at(2), Some(2));
        // Removing the hub re-ranks everyone (the survivors drop to 0 links);
        // ties break towards the smallest identifier.
        g.remove_node(id(2)).unwrap();
        assert_eq!(g.highest_degree_member().map(|(i, _)| i), Some(id(0)));
        // Cell recycling: a newborn reusing the hub's cell starts at 0 links.
        g.add_node(id(9), 2).unwrap();
        g.set_out_slot(id(9), 0, id(3)).unwrap();
        g.set_out_slot(id(9), 1, id(1)).unwrap();
        assert_eq!(g.highest_degree_member(), Some((id(9), 2)));
    }

    #[test]
    fn empty_graph_has_no_highest_degree_member() {
        let mut g = DynamicGraph::new();
        assert_eq!(g.highest_degree_member(), None);
        g.set_degree_index(true);
        assert_eq!(g.highest_degree_member(), None);
        g.add_node(id(0), 1).unwrap();
        g.remove_node(id(0)).unwrap();
        assert_eq!(g.highest_degree_member(), None);
    }

    #[test]
    fn bulk_each_excluding_draw_matches_per_entry_calls() {
        let mut g = DynamicGraph::new();
        for raw in 0..20u64 {
            g.add_node(id(raw), 0).unwrap();
        }
        let excludes: Vec<u32> = vec![0, SAMPLE_SKIP, 5, 19, SAMPLE_SKIP, 3];
        let mut bulk = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        g.sample_members_each_excluding_into(&mut rng, &excludes, &mut bulk);
        let mut reference = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for &exclude in &excludes {
            if exclude == SAMPLE_SKIP {
                reference.push(SAMPLE_SKIP);
            } else {
                reference.push(
                    g.sample_member_excluding(&mut rng, exclude)
                        .unwrap_or(SAMPLE_NONE),
                );
            }
        }
        assert_eq!(bulk, reference, "bulk draw must preserve the RNG stream");
        for (&exclude, &drawn) in excludes.iter().zip(&bulk) {
            if exclude != SAMPLE_SKIP {
                assert_ne!(drawn, exclude);
                assert!(g.id_at(drawn).is_some());
            }
        }
        // Single-member graph: the only candidate is the excluded one.
        let mut lone = DynamicGraph::new();
        lone.add_node(id(0), 0).unwrap();
        let mut out = Vec::new();
        lone.sample_members_each_excluding_into(&mut rng, &[0], &mut out);
        assert_eq!(out, vec![SAMPLE_NONE]);
    }

    #[test]
    fn behavior_tags_are_lazy_counted_and_cleared_on_removal() {
        let mut g = DynamicGraph::new();
        for raw in 0..4u64 {
            g.add_node(id(raw), 1).unwrap();
        }
        // Untagged graph: no storage, zero reads everywhere.
        assert!(!g.tags_enabled());
        assert_eq!(g.tagged_member_count(), 0);
        assert_eq!(g.tag_at(0), 0);
        // Clearing an untagged cell must not allocate the tag array.
        g.set_tag_at(0, 0).unwrap();
        assert!(!g.tags_enabled());

        let a = g.dense_index_of(id(1)).unwrap();
        g.set_tag_at(a, 0x11).unwrap();
        assert!(g.tags_enabled());
        assert_eq!(g.tag_at(a), 0x11);
        assert_eq!(g.tagged_member_count(), 1);
        // Re-tagging the same cell does not double-count.
        g.set_tag_at(a, 0x21).unwrap();
        assert_eq!(g.tagged_member_count(), 1);
        // Explicit clear.
        g.set_tag_at(a, 0).unwrap();
        assert_eq!(g.tag_at(a), 0);
        assert_eq!(g.tagged_member_count(), 0);

        // Removal clears the tag so a recycled cell starts untagged.
        g.set_tag_at(a, 0x43).unwrap();
        assert_eq!(g.tagged_member_count(), 1);
        g.remove_node(id(1)).unwrap();
        assert_eq!(g.tagged_member_count(), 0);
        g.add_node(id(9), 1).unwrap();
        let recycled = g.dense_index_of(id(9)).unwrap();
        assert_eq!(recycled, a, "free list recycles the vacated cell");
        assert_eq!(g.tag_at(recycled), 0, "recycled cell must start untagged");

        // Vacant / out-of-range cells.
        assert!(g.set_tag_at(999, 1).is_err());
        assert_eq!(g.tag_at(999), 0);

        // Cells past the tag array (slab grown after allocation) read 0 and
        // can be tagged, growing the array on demand.
        for raw in 10..20u64 {
            g.add_node(id(raw), 1).unwrap();
        }
        let late = g.dense_index_of(id(19)).unwrap();
        assert_eq!(g.tag_at(late), 0);
        g.set_tag_at(late, 0x31).unwrap();
        assert_eq!(g.tag_at(late), 0x31);
        assert_eq!(g.tagged_member_count(), 1);
        g.remove_node(id(19)).unwrap();
        assert_eq!(g.tagged_member_count(), 0);
    }
}
