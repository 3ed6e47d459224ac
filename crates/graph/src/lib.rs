//! # churn-graph
//!
//! Dynamic graph substrate for the reproduction of *"Expansion and Flooding in
//! Dynamic Random Networks with Node Churn"* (Becchetti, Clementi, Pasquale,
//! Trevisan, Ziccardi — ICDCS 2021).
//!
//! The paper's four dynamic network models (SDG, SDGR, PDG, PDGR) all mutate the
//! same kind of topology: every node owns a fixed number of *out-slots* (the `d`
//! random connection requests it opens), edges are undirected for the purposes of
//! information diffusion, and an edge disappears as soon as either endpoint dies.
//! This crate provides that topology as a reusable data structure, together with
//! the analysis machinery the paper's statements are about:
//!
//! * [`DynamicGraph`] — the mutable out-slot/in-reference adjacency structure with
//!   O(1) amortised join / leave / rewire operations,
//! * [`Snapshot`] — an immutable, CSR-style view of a graph at one instant,
//! * [`hashing`] — the fast identifier hasher backing the `NodeId → index` map,
//! * [`traversal`] — BFS distances and layers, connected components, static
//!   flooding time,
//! * [`expansion`] — outer boundaries, vertex expansion (exact for small graphs,
//!   candidate-set estimation for large ones), isolated node census,
//! * [`generators`] — the static `d`-out random graph of the paper's Lemma B.1
//!   and deterministic test fixtures,
//! * [`metrics`] — degree histograms and the average degree.
//!
//! Nothing in this crate knows about churn distributions or time; that lives in
//! `churn-core`, which drives a [`DynamicGraph`] according to the paper's models.
//!
//! ## Dense-index architecture
//!
//! [`DynamicGraph`] is a **slab arena**: each alive node occupies one cell of a
//! contiguous array addressed by a dense `u32` index, vacated cells are
//! recycled through a free list, and all adjacency state (out-slot targets,
//! the in-reference multiset) is stored as dense indices with small inline
//! capacity. Steady-state churn performs no heap allocation, and the only
//! hashing left on it is the `NodeId → index` side map: one insert per birth
//! and one remove per death. Edge mutations, target sampling and regeneration
//! hash nothing. The batch mutators gather the cells they are about to write
//! with independent loads first, so a churn step's cache misses overlap
//! instead of queueing. Every mutator exists in two flavours:
//!
//! * **identifier-based** (`add_node`, `set_out_slot`, `remove_node`, …) — the
//!   stable public API, resolving [`NodeId`]s through one hash lookup;
//! * **dense-index** (`add_node_indexed`, `set_out_slot_at`,
//!   `remove_node_at` / `remove_node_into`, `sample_member*`, …) — the hot
//!   path the churn models in `churn-core` drive.
//!
//! **The `NodeId ↔ dense index` contract:** a dense index is valid exactly for
//! the lifetime of the node it was returned for. After that node's removal the
//! cell may be recycled for a different node, so any cached `(index, id)` pair
//! must be revalidated with [`DynamicGraph::id_at`] before reuse across
//! removals (`id_at(index) == Some(id)` iff the pair is still current —
//! identifiers are never reused, which makes this check sound). For caches
//! that should not carry identifiers at all, [`DenseHandle`] packs the index
//! with the cell's generation counter, making revalidation
//! ([`DynamicGraph::is_current`]) a flat O(1) probe with no identifier
//! compare; this is what the RAES protocol's pending-request queue in
//! `churn-protocol` uses. Indices are *not* compaction-stable either:
//! [`Snapshot`] assigns its own `0..n` positions ordered by identifier,
//! independent of slab layout, so snapshots of equal graphs compare equal
//! regardless of the arena's churn history.
//!
//! ## Example
//!
//! ```
//! use churn_graph::{DynamicGraph, NodeId, Snapshot};
//!
//! # fn main() -> Result<(), churn_graph::GraphError> {
//! let mut g = DynamicGraph::new();
//! let a = NodeId::new(0);
//! let b = NodeId::new(1);
//! let c = NodeId::new(2);
//! g.add_node(a, 2)?;
//! g.add_node(b, 2)?;
//! g.add_node(c, 2)?;
//! g.set_out_slot(a, 0, b)?;
//! g.set_out_slot(b, 0, c)?;
//!
//! let snap = Snapshot::of(&g);
//! assert_eq!(snap.len(), 3);
//! assert_eq!(snap.degree(b), Some(2)); // adjacent to both a and c
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod graph;
mod node;
mod snapshot;

pub mod hashing;

pub mod expansion;
pub mod generators;
pub mod metrics;
pub mod traversal;

pub use error::GraphError;
pub use graph::{
    DenseHandle, DynamicGraph, EdgeSlot, GraphDelta, RemovedNode, SAMPLE_NONE, SAMPLE_SKIP,
};
pub use node::{NodeId, NodeIdAllocator};
pub use snapshot::Snapshot;

/// Convenience result alias used throughout the crate.
pub type Result<T, E = GraphError> = std::result::Result<T, E>;
