//! Breadth-first traversal, connectivity and distance utilities over [`Snapshot`]s.
//!
//! Flooding over a *static* graph is exactly a breadth-first search: the set of
//! nodes informed after `k` rounds is the ball of radius `k` around the source.
//! The routines in this module provide that static picture (used by the paper's
//! Lemma B.1 baseline and by many tests), plus the connectivity diagnostics the
//! experiments report (component sizes).

use std::collections::VecDeque;

use crate::Snapshot;

/// Distances (in hops) from a source to every node, `None` if unreachable.
///
/// Runs in `O(n + m)`.
///
/// # Panics
///
/// Panics if `source >= snapshot.len()`.
#[must_use]
pub fn bfs_distances(snapshot: &Snapshot, source: usize) -> Vec<Option<u32>> {
    assert!(source < snapshot.len(), "source index out of range");
    let mut dist: Vec<Option<u32>> = vec![None; snapshot.len()];
    let mut queue = VecDeque::new();
    dist[source] = Some(0);
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for &v in snapshot.neighbors_of(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The BFS layers around `source`: `layers[k]` contains the indices at distance
/// exactly `k`. Unreachable nodes appear in no layer.
///
/// # Panics
///
/// Panics if `source >= snapshot.len()`.
#[must_use]
pub fn bfs_layers(snapshot: &Snapshot, source: usize) -> Vec<Vec<usize>> {
    let dist = bfs_distances(snapshot, source);
    let max = dist.iter().flatten().copied().max().unwrap_or(0) as usize;
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); max + 1];
    for (i, d) in dist.iter().enumerate() {
        if let Some(d) = d {
            layers[*d as usize].push(i);
        }
    }
    layers
}

/// Connected-component labelling of the snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component[i]` is the component label of node index `i` (labels are
    /// `0..count`, assigned in order of discovery from index 0 upwards).
    pub component: Vec<usize>,
    /// Size of every component, indexed by label.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    #[must_use]
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component, or 0 for an empty graph.
    #[must_use]
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }

    /// Fraction of nodes belonging to the largest component (0 for an empty graph).
    #[must_use]
    pub fn largest_fraction(&self) -> f64 {
        if self.component.is_empty() {
            0.0
        } else {
            self.largest() as f64 / self.component.len() as f64
        }
    }

    /// Returns `true` when the whole snapshot is a single connected component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.count() <= 1
    }
}

/// Computes connected components in `O(n + m)`.
#[must_use]
pub fn connected_components(snapshot: &Snapshot) -> Components {
    let n = snapshot.len();
    let mut component = vec![usize::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = VecDeque::new();
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let label = sizes.len();
        let mut size = 0usize;
        component[start] = label;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in snapshot.neighbors_of(u) {
                if component[v] == usize::MAX {
                    component[v] = label;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { component, sizes }
}

/// Rounds a synchronous flooding/BFS process needs to reach every node reachable
/// from `source`; `None` if the snapshot is not connected (some node is never
/// reached). This is the static analogue of the paper's flooding time.
///
/// # Panics
///
/// Panics if `source >= snapshot.len()`.
#[must_use]
pub fn static_flooding_time(snapshot: &Snapshot, source: usize) -> Option<u32> {
    let dist = bfs_distances(snapshot, source);
    let mut max = 0;
    for d in &dist {
        match d {
            Some(d) => max = max.max(*d),
            None => return None,
        }
    }
    Some(max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Snapshot {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Snapshot::from_edges(n, &edges)
    }

    fn two_triangles() -> Snapshot {
        Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let snap = path(5);
        let dist = bfs_distances(&snap, 0);
        assert_eq!(
            dist,
            vec![Some(0), Some(1), Some(2), Some(3), Some(4)],
            "distances along a path are hop counts"
        );
    }

    #[test]
    fn bfs_layers_partition_reachable_nodes() {
        let snap = path(4);
        let layers = bfs_layers(&snap, 1);
        assert_eq!(layers[0], vec![1]);
        assert_eq!(layers[1], vec![0, 2]);
        assert_eq!(layers[2], vec![3]);
        let total: usize = layers.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let snap = two_triangles();
        let dist = bfs_distances(&snap, 0);
        assert!(dist[3].is_none() && dist[4].is_none() && dist[5].is_none());
        assert_eq!(dist.iter().flatten().count(), 3);
    }

    #[test]
    fn connected_components_of_two_triangles() {
        let comps = connected_components(&two_triangles());
        assert_eq!(comps.count(), 2);
        assert_eq!(comps.sizes, vec![3, 3]);
        assert!(!comps.is_connected());
        assert!((comps.largest_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn connected_components_of_connected_graph() {
        let comps = connected_components(&path(6));
        assert_eq!(comps.count(), 1);
        assert!(comps.is_connected());
        assert_eq!(comps.largest(), 6);
    }

    #[test]
    fn components_of_empty_snapshot() {
        let comps = connected_components(&Snapshot::from_edges(0, &[]));
        assert_eq!(comps.count(), 0);
        assert_eq!(comps.largest(), 0);
        assert_eq!(comps.largest_fraction(), 0.0);
    }

    #[test]
    fn static_flooding_time_matches_eccentricity_when_connected() {
        let snap = path(7);
        assert_eq!(static_flooding_time(&snap, 0), Some(6));
        assert_eq!(static_flooding_time(&snap, 3), Some(3));
        assert_eq!(static_flooding_time(&two_triangles(), 0), None);
    }

    #[test]
    fn isolated_source_floods_only_itself() {
        let snap = Snapshot::from_edges(3, &[(1, 2)]);
        assert_eq!(bfs_distances(&snap, 0), vec![Some(0), None, None]);
        assert_eq!(static_flooding_time(&snap, 0), None);
    }
}
