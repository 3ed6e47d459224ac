//! # churn-observe
//!
//! Incremental observation of dynamic churn networks: everything the paper
//! measures *per round* — degree structure, isolated nodes, informed-set
//! overlap, the realized in-degree of bounded-degree protocols — maintained
//! at **O(churn)** cost per round instead of the O(n + m) full rescan or
//! `Snapshot` rebuild the analyses used before.
//!
//! The input is the [`churn_graph::GraphDelta`] change feed: a compact dirty
//! set (plus birth/death lifecycle events) the slab graph core records at
//! near-zero overhead when a subscriber is attached
//! ([`churn_graph::DynamicGraph::set_delta_recording`]) and none when not.
//! Observers reconcile each dirty cell against the graph's final state for
//! the round, so they are insensitive to the order (or multiplicity) of
//! events inside one window — including a slab cell dying and being recycled
//! by a newborn within the same round.
//!
//! The pieces:
//!
//! * [`IncrementalSnapshot`] — a slab-mirrored undirected adjacency view
//!   patched in O(delta · d) per round, with a rayon-parallel full-rebuild
//!   fallback past a churn-fraction threshold, and an on-demand
//!   [`IncrementalSnapshot::to_snapshot`] materialisation pinned
//!   **bit-identical** to [`churn_graph::Snapshot::of`] by the property
//!   suite. Per-round structural observation becomes O(churn); only an
//!   actual heavyweight analysis (expansion estimation) pays the
//!   materialisation.
//! * [`LiveMetrics`] — degree and in-request histograms, isolated and
//!   low-degree node counts, RAES in-degree-cap occupancy, maintained per
//!   dirty cell.
//! * [`LifetimeIsolation`] — the Lemma 3.5 / 4.10 census: tracks which of
//!   the currently isolated nodes stay isolated until they die, at O(churn)
//!   per round instead of O(candidates).
//! * [`InformedOverlap`] — the alive-informed overlap of a flooding run,
//!   fed by `FloodingProcess::newly_informed_dense` (the observer of
//!   `run_flooding_parallel_observed` receives the process) and the delta's
//!   deaths. It repeats the process's own revalidated informed set
//!   (`FloodingProcess::is_informed`), which the scenario engine reads
//!   instead.
//! * [`RecoveryCensus`] — a point-in-time per-partition-block census of
//!   flood recovery (alive and informed counts per block of a deterministic
//!   id-hash partition), for the chaos scenarios' heal and end-of-run
//!   checkpoints.
//!
//! The scenario engine in `churn-sim` keeps an observer only where it reads
//! the value every round: [`LiveMetrics`] in RAES tracking and
//! [`LifetimeIsolation`] in the isolation census, both fed through
//! `churn_sim::observe_rounds`. A value read once per sample is computed at
//! the read instead (`Snapshot::of` at each expansion sample), so
//! [`IncrementalSnapshot`] and [`InformedOverlap`] have no caller there.
//!
//! Typical wiring of the change feed:
//!
//! ```
//! use churn_core::{DynamicNetwork, StreamingConfig, StreamingModel};
//! use churn_graph::{GraphDelta, Snapshot};
//! use churn_observe::{IncrementalSnapshot, LiveMetrics};
//!
//! # fn main() -> Result<(), churn_core::ModelError> {
//! let mut model = StreamingModel::new(StreamingConfig::new(64, 3).seed(7))?;
//! model.warm_up();
//! model.graph_mut().set_delta_recording(true);
//! let mut inc = IncrementalSnapshot::new(model.graph());
//! let mut metrics = LiveMetrics::new(model.graph());
//! let mut delta = GraphDelta::new();
//! for _ in 0..32 {
//!     model.advance_time_unit();
//!     model.graph_mut().take_delta_into(&mut delta);
//!     inc.apply(model.graph(), &delta);
//!     metrics.apply(model.graph(), &delta);
//! }
//! assert_eq!(inc.to_snapshot(), Snapshot::of(model.graph()));
//! assert_eq!(metrics.alive(), model.alive_count());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod incremental;
mod metrics;
mod trackers;

pub use incremental::{ApplyOutcome, IncrementalSnapshot};
pub use metrics::{LiveMetrics, MetricsSummary};
pub use trackers::{InformedOverlap, LifetimeIsolation, RecoveryCensus};
