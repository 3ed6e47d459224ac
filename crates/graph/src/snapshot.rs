//! Immutable, compact snapshots of a [`DynamicGraph`].

use crate::{DynamicGraph, NodeId};

/// An immutable view of a dynamic graph at one instant, stored in CSR
/// (compressed sparse row) layout with deduplicated undirected adjacency.
///
/// A snapshot is what the paper calls `G_t`: the graph observed at a specific
/// round/time. All analysis routines ([`crate::traversal`], [`crate::expansion`],
/// [`crate::metrics`]) operate on snapshots because they need stable integer
/// indices `0..n` rather than sparse [`NodeId`]s.
///
/// Node identifiers are sorted increasingly, so index order is deterministic for
/// a given node set regardless of hash-map iteration order.
///
/// # Example
///
/// ```
/// use churn_graph::{DynamicGraph, NodeId, Snapshot};
///
/// # fn main() -> Result<(), churn_graph::GraphError> {
/// let mut g = DynamicGraph::new();
/// for raw in 0..3 {
///     g.add_node(NodeId::new(raw), 1)?;
/// }
/// g.set_out_slot(NodeId::new(0), 0, NodeId::new(1))?;
/// let snap = Snapshot::of(&g);
/// assert_eq!(snap.len(), 3);
/// assert_eq!(snap.edge_count(), 1);
/// assert_eq!(snap.neighbors_of(0), &[1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    ids: Vec<NodeId>,
    offsets: Vec<usize>,
    adjacency: Vec<usize>,
}

impl Snapshot {
    /// Builds a snapshot of the current state of `graph`.
    ///
    /// Hash-free: the graph's dense slab indices are translated to compact
    /// snapshot positions through a plain lookup array, so construction costs
    /// one `O(n log n)` identifier sort (snapshot indices are ordered by
    /// `NodeId`) plus a single `O(n + m log d)` adjacency pass. While the
    /// graph reports [`DynamicGraph::id_sorted_layout`] — no cell ever
    /// recycled, identifiers inserted in increasing order, as with the static
    /// generators and any model before its first churn — the sort is skipped
    /// entirely: a slab walk in index order already yields the nodes in
    /// identifier order, making construction `O(n + m log d)`.
    #[must_use]
    pub fn of(graph: &DynamicGraph) -> Self {
        // Pair every alive node's id with its slab index, ordered by id so
        // snapshot indices are deterministic regardless of slab layout.
        let mut nodes: Vec<(NodeId, u32)> = Vec::with_capacity(graph.len());
        if graph.id_sorted_layout() {
            // Monotone fast path: occupied cells in index order are id-sorted.
            nodes.extend(
                (0..graph.slab_len() as u32).filter_map(|idx| graph.id_at(idx).map(|id| (id, idx))),
            );
            debug_assert!(nodes.windows(2).all(|w| w[0].0 < w[1].0));
        } else {
            nodes.extend(
                graph
                    .member_indices()
                    .iter()
                    .map(|&idx| (graph.id_at(idx).expect("member cells are occupied"), idx)),
            );
            nodes.sort_unstable_by_key(|&(id, _)| id);
        }

        // slab index -> snapshot position, as a dense array (no hashing).
        let mut slab_to_snap: Vec<u32> = vec![u32::MAX; graph.slab_len()];
        for (pos, &(_, idx)) in nodes.iter().enumerate() {
            slab_to_snap[idx as usize] = pos as u32;
        }

        let mut ids = Vec::with_capacity(nodes.len());
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut adjacency = Vec::with_capacity(graph.filled_slot_count());
        let mut dense_scratch: Vec<u32> = Vec::new();
        let mut list_scratch: Vec<usize> = Vec::new();
        offsets.push(0);
        for &(id, idx) in &nodes {
            ids.push(id);
            dense_scratch.clear();
            graph.neighbors_dense_into(idx, &mut dense_scratch);
            list_scratch.clear();
            list_scratch.extend(
                dense_scratch
                    .iter()
                    .map(|&nb| slab_to_snap[nb as usize] as usize),
            );
            list_scratch.sort_unstable();
            list_scratch.dedup();
            adjacency.extend_from_slice(&list_scratch);
            offsets.push(adjacency.len());
        }

        Snapshot {
            ids,
            offsets,
            adjacency,
        }
    }

    /// Assembles a snapshot from pre-built CSR parts: `ids` strictly
    /// increasing, `offsets` of length `ids.len() + 1` starting at 0 and
    /// non-decreasing, every row of `adjacency` sorted and deduplicated. This
    /// is the hand-off point for observers that maintain the CSR arrays
    /// incrementally (`churn-observe`'s `IncrementalSnapshot`) and only
    /// materialise a `Snapshot` when an analysis needs one.
    ///
    /// # Panics
    ///
    /// Panics when the shape is inconsistent (length/ordering violations);
    /// full row-level validation runs under `debug_assertions` only.
    #[must_use]
    pub fn from_csr_parts(ids: Vec<NodeId>, offsets: Vec<usize>, adjacency: Vec<usize>) -> Self {
        assert_eq!(
            offsets.len(),
            ids.len() + 1,
            "offsets must have n + 1 entries"
        );
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            offsets.last(),
            Some(&adjacency.len()),
            "offsets must end at the adjacency length"
        );
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        debug_assert!(
            offsets.windows(2).all(|w| {
                let row = &adjacency[w[0]..w[1]];
                row.windows(2).all(|p| p[0] < p[1]) && row.iter().all(|&j| j < ids.len())
            }),
            "every adjacency row must be sorted, deduplicated and in range"
        );
        Snapshot {
            ids,
            offsets,
            adjacency,
        }
    }

    /// Builds a snapshot directly from an explicit undirected edge list over
    /// `0..n` indices. Mostly useful in tests and for static baselines.
    ///
    /// Duplicate edges and self-loops are ignored.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let ids: Vec<NodeId> = (0..n as u64).map(NodeId::new).collect();
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u == v || u >= n || v >= n {
                continue;
            }
            lists[u].push(v);
            lists[v].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacency = Vec::new();
        offsets.push(0);
        for list in &mut lists {
            list.sort_unstable();
            list.dedup();
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len());
        }
        Snapshot {
            ids,
            offsets,
            adjacency,
        }
    }

    /// Number of nodes in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the snapshot has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of distinct undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// All node identifiers, in increasing order (index order).
    #[must_use]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The compact index of `id`, or `None` if `id` is not in the snapshot.
    ///
    /// `O(log n)` binary search over the sorted identifier array.
    #[must_use]
    pub fn index_of(&self, id: NodeId) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Returns `true` when `id` is part of the snapshot.
    #[must_use]
    pub fn contains(&self, id: NodeId) -> bool {
        self.index_of(id).is_some()
    }

    /// Neighbour indices of the node at index `i` (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn neighbors_of(&self, i: usize) -> &[usize] {
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Neighbour identifiers of node `id`, or `None` if `id` is not present.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> Option<Vec<NodeId>> {
        let i = self.index_of(id)?;
        Some(self.neighbors_of(i).iter().map(|&j| self.ids[j]).collect())
    }

    /// Degree (number of distinct neighbours) of the node at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn degree_of(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Degree of node `id`, or `None` if `id` is not present.
    #[must_use]
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.index_of(id).map(|i| self.degree_of(i))
    }

    /// Returns `true` when nodes at indices `i` and `j` are adjacent.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn adjacent(&self, i: usize, j: usize) -> bool {
        self.neighbors_of(i).binary_search(&j).is_ok()
    }

    /// Iterator over all undirected edges as index pairs `(i, j)` with `i < j`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.len()).flat_map(move |i| {
            self.neighbors_of(i)
                .iter()
                .copied()
                .filter(move |&j| i < j)
                .map(move |j| (i, j))
        })
    }

    /// Indices of nodes with no neighbours (isolated in this snapshot).
    #[must_use]
    pub fn isolated_indices(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.degree_of(i) == 0)
            .collect()
    }

    /// Sum of all degrees (twice the edge count).
    #[must_use]
    pub fn total_degree(&self) -> usize {
        self.adjacency.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn path_graph(n: u64) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for raw in 0..n {
            g.add_node(id(raw), 1).unwrap();
        }
        for raw in 0..n - 1 {
            g.set_out_slot(id(raw), 0, id(raw + 1)).unwrap();
        }
        g
    }

    #[test]
    fn snapshot_of_empty_graph() {
        let snap = Snapshot::of(&DynamicGraph::new());
        assert!(snap.is_empty());
        assert_eq!(snap.edge_count(), 0);
        assert!(snap.isolated_indices().is_empty());
    }

    #[test]
    fn snapshot_indices_follow_sorted_ids() {
        let mut g = DynamicGraph::new();
        for raw in [7u64, 2, 5] {
            g.add_node(id(raw), 0).unwrap();
        }
        let snap = Snapshot::of(&g);
        assert_eq!(snap.ids(), &[id(2), id(5), id(7)]);
        assert_eq!(snap.index_of(id(5)), Some(1));
        assert_eq!(snap.index_of(id(99)), None);
    }

    #[test]
    fn snapshot_adjacency_is_undirected_and_deduplicated() -> Result<(), GraphError> {
        let mut g = DynamicGraph::new();
        for raw in 0..3 {
            g.add_node(id(raw), 2)?;
        }
        // Two parallel requests 0 -> 1 and one back-request 1 -> 0 collapse to a
        // single undirected edge {0, 1}.
        g.set_out_slot(id(0), 0, id(1))?;
        g.set_out_slot(id(0), 1, id(1))?;
        g.set_out_slot(id(1), 0, id(0))?;
        g.set_out_slot(id(2), 0, id(1))?;
        let snap = Snapshot::of(&g);
        assert_eq!(snap.edge_count(), 2);
        assert_eq!(snap.neighbors_of(0), &[1]);
        assert_eq!(snap.neighbors_of(1), &[0, 2]);
        assert!(snap.adjacent(0, 1));
        assert!(snap.adjacent(1, 0));
        assert!(!snap.adjacent(0, 2));
        Ok(())
    }

    #[test]
    fn path_snapshot_degrees_and_edges() {
        let snap = Snapshot::of(&path_graph(5));
        assert_eq!(snap.len(), 5);
        assert_eq!(snap.edge_count(), 4);
        assert_eq!(snap.degree_of(0), 1);
        assert_eq!(snap.degree_of(2), 2);
        assert_eq!(snap.total_degree(), 8);
        let edges: Vec<(usize, usize)> = snap.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn neighbors_by_id_translate_indices() {
        let snap = Snapshot::of(&path_graph(3));
        assert_eq!(snap.neighbors(id(1)), Some(vec![id(0), id(2)]));
        assert_eq!(snap.neighbors(id(42)), None);
        assert_eq!(snap.degree(id(0)), Some(1));
    }

    #[test]
    fn isolated_indices_found() {
        let mut g = path_graph(3);
        g.add_node(id(10), 0).unwrap();
        let snap = Snapshot::of(&g);
        assert_eq!(snap.isolated_indices(), vec![3]);
    }

    #[test]
    fn fast_and_sorting_paths_agree_across_recycling() {
        // Build the same logical graph twice: once with a monotone slab (fast
        // path), once with recycled cells and out-of-order insertions (slow
        // path). The snapshots must be identical.
        let mut monotone = DynamicGraph::new();
        for raw in 0..6 {
            monotone.add_node(id(raw), 1).unwrap();
        }
        for raw in 0..5 {
            monotone.set_out_slot(id(raw), 0, id(raw + 1)).unwrap();
        }
        assert!(monotone.id_sorted_layout());

        let mut churned = DynamicGraph::new();
        for raw in [10u64, 11, 0, 1, 2, 3, 4, 5] {
            churned.add_node(id(raw), 1).unwrap();
        }
        churned.remove_node(id(10)).unwrap();
        churned.remove_node(id(11)).unwrap();
        assert!(!churned.id_sorted_layout());
        for raw in 0..5 {
            churned.set_out_slot(id(raw), 0, id(raw + 1)).unwrap();
        }
        assert_eq!(Snapshot::of(&monotone), Snapshot::of(&churned));
    }

    #[test]
    fn fast_path_survives_pure_removals() {
        // Removals without reuse leave the layout id-sorted; the fast path
        // must skip the vacated cells.
        let mut g = path_graph(6);
        g.remove_node(id(0)).unwrap();
        g.remove_node(id(3)).unwrap();
        assert!(g.id_sorted_layout());
        let snap = Snapshot::of(&g);
        assert_eq!(snap.ids(), &[id(1), id(2), id(4), id(5)]);
        assert_eq!(snap.edge_count(), 2); // 1-2 and 4-5 survive
    }

    #[test]
    fn from_csr_parts_round_trips() {
        let reference = Snapshot::of(&path_graph(6));
        let rebuilt = Snapshot::from_csr_parts(
            reference.ids().to_vec(),
            reference.offsets.clone(),
            reference.adjacency.clone(),
        );
        assert_eq!(rebuilt, reference);
    }

    #[test]
    #[should_panic(expected = "offsets must have n + 1 entries")]
    fn from_csr_parts_rejects_malformed_shape() {
        let _ = Snapshot::from_csr_parts(vec![id(0), id(1)], vec![0], vec![]);
    }

    #[test]
    fn from_edges_ignores_self_loops_and_duplicates() {
        let snap = Snapshot::from_edges(4, &[(0, 1), (1, 0), (2, 2), (1, 3), (9, 1)]);
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.edge_count(), 2);
        assert_eq!(snap.neighbors_of(1), &[0, 3]);
        assert_eq!(snap.degree_of(2), 0);
    }
}
