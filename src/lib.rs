//! # dynamic-churn-networks
//!
//! Umbrella crate of the workspace reproducing *"Expansion and Flooding in
//! Dynamic Random Networks with Node Churn"* (Becchetti, Clementi, Pasquale,
//! Trevisan, Ziccardi — ICDCS 2021). It re-exports the member crates so that the
//! examples and integration tests (and downstream users who prefer a single
//! dependency) can reach the whole API through one name:
//!
//! * [`core`] (`churn-core`) — the four dynamic network models (SDG, SDGR, PDG,
//!   PDGR), flooding, onion-skin, isolation and expansion analyses, and the
//!   paper's closed-form predictions;
//! * [`graph`] (`churn-graph`) — the dynamic graph substrate, snapshots,
//!   traversal and vertex-expansion estimation;
//! * [`stochastic`] (`churn-stochastic`) — distributions, the birth–death jump
//!   chain, event queues and statistics;
//! * [`sim`] (`churn-sim`) — the experiment harness (the scenario engine,
//!   parallel seeded cells, tables);
//! * [`observe`] (`churn-observe`) — incremental snapshots and live metric
//!   trackers over the graph's change feed, for O(churn) per-round
//!   observation;
//! * [`p2p`] (`churn-p2p`) — the Bitcoin-Core-like overlay example application;
//! * [`protocol`] (`churn-protocol`) — the RAES-style bounded-in-degree
//!   expander maintenance protocol over the same churn processes;
//! * [`analysis`] (`churn-analysis`) — theory-vs-measured comparisons and
//!   scaling classification;
//! * [`telemetry`] (`churn-telemetry`) — zero-cost-when-detached spans,
//!   counters, phase profiling and per-round time-series buffers.
//!
//! See `ROADMAP.md` for the architecture and its measured numbers, and
//! `crates/sim/README.md` for how scenarios are declared, run and stored.
//!
//! ## Quick start
//!
//! ```
//! use dynamic_churn_networks::core::{
//!     DynamicNetwork, EdgePolicy, StreamingConfig, StreamingModel,
//! };
//! use dynamic_churn_networks::core::flooding::{run_flooding, FloodingConfig, FloodingSource};
//!
//! # fn main() -> Result<(), dynamic_churn_networks::core::ModelError> {
//! let mut network = StreamingModel::new(
//!     StreamingConfig::new(256, 8)
//!         .edge_policy(EdgePolicy::Regenerate)
//!         .seed(1),
//! )?;
//! network.warm_up();
//! let record = run_flooding(
//!     &mut network,
//!     FloodingSource::NextToJoin,
//!     &FloodingConfig::default(),
//!     1,
//! );
//! assert!(record.outcome.is_complete());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use churn_analysis as analysis;
pub use churn_core as core;
pub use churn_graph as graph;
pub use churn_observe as observe;
pub use churn_p2p as p2p;
pub use churn_protocol as protocol;
pub use churn_sim as sim;
pub use churn_stochastic as stochastic;
pub use churn_telemetry as telemetry;
