//! Degree histogram and average degree of snapshots.

use crate::Snapshot;

/// Histogram of node degrees: `histogram[k]` is the number of nodes with degree
/// exactly `k`. The vector's length is `max_degree + 1` (empty for an empty
/// snapshot).
#[must_use]
pub fn degree_histogram(snapshot: &Snapshot) -> Vec<usize> {
    let n = snapshot.len();
    if n == 0 {
        return Vec::new();
    }
    let max = (0..n).map(|i| snapshot.degree_of(i)).max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for i in 0..n {
        hist[snapshot.degree_of(i)] += 1;
    }
    hist
}

/// Average degree of a snapshot (0 for an empty snapshot).
#[must_use]
pub fn average_degree(snapshot: &Snapshot) -> f64 {
    if snapshot.is_empty() {
        0.0
    } else {
        snapshot.total_degree() as f64 / snapshot.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_empty_snapshot_are_zero() {
        let snap = Snapshot::from_edges(0, &[]);
        assert!(degree_histogram(&snap).is_empty());
        assert_eq!(average_degree(&snap), 0.0);
    }

    #[test]
    fn stats_of_star_graph() {
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (0, i)).collect();
        let snap = Snapshot::from_edges(6, &edges);
        assert_eq!(degree_histogram(&snap), vec![0, 5, 0, 0, 0, 1]);
        assert!((average_degree(&snap) - 10.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stats_count_isolated_nodes() {
        let snap = Snapshot::from_edges(5, &[(0, 1)]);
        assert_eq!(degree_histogram(&snap), vec![3, 2]);
    }

    #[test]
    fn histogram_sums_to_node_count() {
        let snap = Snapshot::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        let hist = degree_histogram(&snap);
        assert_eq!(hist.iter().sum::<usize>(), 7);
        assert_eq!(hist[0], 1, "node 6 is isolated");
        assert_eq!(hist[1], 2, "nodes 4 and 5 have degree 1");
        assert_eq!(hist[2], 4, "the cycle nodes have degree 2");
    }

    #[test]
    fn average_degree_and_density_of_complete_graph() {
        let edges: Vec<(usize, usize)> = (0..5usize)
            .flat_map(|i| ((i + 1)..5).map(move |j| (i, j)))
            .collect();
        let snap = Snapshot::from_edges(5, &edges);
        assert!((average_degree(&snap) - 4.0).abs() < 1e-12);
        assert_eq!(snap.edge_count(), 5 * 4 / 2, "density 1");
    }
}
