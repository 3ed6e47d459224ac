//! Static random and deterministic graph generators.
//!
//! These serve as baselines and test fixtures:
//!
//! * [`d_out_random_graph`] is the static graph of the paper's Lemma B.1 ("the
//!   static random graph in which each node picks `d` random neighbors is a
//!   Θ(1)-expander w.h.p. for `d >= 3`") — the natural comparison point for the
//!   dynamic models, since SDG/PDG degrade it by churn while SDGR/PDGR maintain
//!   it;
//! * [`ring`], [`path`] and [`complete`] are deterministic fixtures
//!   used throughout the test suites.

use rand::Rng;

use crate::{DynamicGraph, NodeId};

/// Static `d`-out random graph on `n` nodes: every node points `d` out-slots at
/// uniformly random *other* nodes (with replacement across slots, so parallel
/// requests may collapse into a single undirected edge).
///
/// This is the model of the paper's Lemma B.1.
///
/// # Panics
///
/// Panics if `n < 2` and `d > 0` (no valid target exists).
#[must_use]
pub fn d_out_random_graph<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> DynamicGraph {
    assert!(
        d == 0 || n >= 2,
        "a d-out graph with d > 0 needs at least two nodes"
    );
    let mut g = DynamicGraph::with_capacity(n);
    for i in 0..n {
        g.add_node(NodeId::new(i as u64), d)
            .expect("fresh ids are unique");
    }
    for i in 0..n {
        let u = NodeId::new(i as u64);
        for slot in 0..d {
            let target = loop {
                let t = rng.gen_range(0..n);
                if t != i {
                    break NodeId::new(t as u64);
                }
            };
            g.set_out_slot(u, slot, target)
                .expect("slot and target are valid");
        }
    }
    g
}

/// Deterministic ring (cycle) on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn ring(n: usize) -> DynamicGraph {
    assert!(n >= 3, "a ring needs at least three nodes");
    let mut g = DynamicGraph::with_capacity(n);
    for i in 0..n {
        g.add_node(NodeId::new(i as u64), 1).expect("unique ids");
    }
    for i in 0..n {
        let next = NodeId::new(((i + 1) % n) as u64);
        g.set_out_slot(NodeId::new(i as u64), 0, next)
            .expect("valid edge");
    }
    g
}

/// Deterministic path on `n >= 1` nodes.
#[must_use]
pub fn path(n: usize) -> DynamicGraph {
    let mut g = DynamicGraph::with_capacity(n);
    for i in 0..n {
        g.add_node(NodeId::new(i as u64), 1).expect("unique ids");
    }
    for i in 0..n.saturating_sub(1) {
        g.set_out_slot(NodeId::new(i as u64), 0, NodeId::new((i + 1) as u64))
            .expect("valid edge");
    }
    g
}

/// Complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> DynamicGraph {
    let mut g = DynamicGraph::with_capacity(n);
    for i in 0..n {
        g.add_node(NodeId::new(i as u64), n.saturating_sub(i + 1))
            .expect("unique ids");
    }
    for i in 0..n {
        let u = NodeId::new(i as u64);
        for (slot, j) in ((i + 1)..n).enumerate() {
            g.set_out_slot(u, slot, NodeId::new(j as u64))
                .expect("valid edge");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;
    use crate::Snapshot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    #[test]
    fn d_out_graph_has_exactly_d_filled_slots_per_node() {
        let g = d_out_random_graph(100, 5, &mut rng());
        assert_eq!(g.len(), 100);
        assert_eq!(g.filled_slot_count(), 500);
        for id in g.node_ids() {
            assert_eq!(g.out_degree(id), Some(5));
        }
        g.assert_invariants();
    }

    #[test]
    fn d_out_graph_with_d_at_least_3_is_connected_whp() {
        // Lemma B.1: the static 3-out random graph is an expander (in particular
        // connected) w.h.p.; with n = 300 a disconnection would be astronomically
        // unlikely, so a seeded test is stable.
        let g = d_out_random_graph(300, 3, &mut rng());
        let comps = connected_components(&Snapshot::of(&g));
        assert!(
            comps.is_connected(),
            "3-out random graph should be connected"
        );
    }

    #[test]
    fn d_out_graph_zero_degree_is_all_isolated() {
        let g = d_out_random_graph(10, 0, &mut rng());
        for id in g.node_ids() {
            assert!(g.is_isolated(id).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn d_out_graph_rejects_single_node_with_positive_degree() {
        let _ = d_out_random_graph(1, 2, &mut rng());
    }

    #[test]
    fn ring_and_path_shapes() {
        let ring_g = ring(10);
        assert_eq!(ring_g.distinct_edge_count(), 10);
        for id in ring_g.node_ids() {
            assert_eq!(ring_g.degree(id), Some(2));
        }
        let path_g = path(10);
        assert_eq!(path_g.distinct_edge_count(), 9);
        assert_eq!(path_g.degree(NodeId::new(0)), Some(1));
        assert_eq!(path_g.degree(NodeId::new(5)), Some(2));
    }

    #[test]
    fn complete_graph_degrees() {
        let g = complete(8);
        assert_eq!(g.distinct_edge_count(), 8 * 7 / 2);
        for id in g.node_ids() {
            assert_eq!(g.degree(id), Some(7));
        }
        g.assert_invariants();
    }

    #[test]
    fn path_of_one_node_has_no_edges() {
        let g = path(1);
        assert_eq!(g.len(), 1);
        assert_eq!(g.distinct_edge_count(), 0);
    }
}
