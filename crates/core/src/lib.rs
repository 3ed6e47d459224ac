//! # churn-core
//!
//! The primary contribution of *"Expansion and Flooding in Dynamic Random
//! Networks with Node Churn"* (Becchetti, Clementi, Pasquale, Trevisan,
//! Ziccardi — ICDCS 2021), implemented as a simulation library: four dynamic
//! random-graph models with node churn, the flooding process over them, and the
//! structural analyses (vertex expansion, isolated nodes, onion-skin growth)
//! that the paper's theorems are about.
//!
//! ## The four models
//!
//! | | no edge regeneration | edge regeneration |
//! |---|---|---|
//! | streaming churn | **SDG** ([`StreamingModel`] + [`EdgePolicy::Static`]) | **SDGR** ([`StreamingModel`] + [`EdgePolicy::Regenerate`]) |
//! | Poisson churn | **PDG** ([`PoissonModel`] + [`EdgePolicy::Static`]) | **PDGR** ([`PoissonModel`] + [`EdgePolicy::Regenerate`]) |
//!
//! * *Streaming churn* (Definition 3.2): at every round one node joins and the
//!   node that joined `n` rounds ago leaves; every node lives exactly `n` rounds.
//! * *Poisson churn* (Definition 4.1): nodes arrive as a Poisson process with
//!   rate λ and live for an exponential time with rate µ; the expected
//!   population is `n = λ/µ`.
//! * *Topology dynamics* (Definitions 3.4, 3.13, 4.9, 4.14): a joining node
//!   opens `d` connection requests to uniformly random alive nodes; edges vanish
//!   with either endpoint; with [`EdgePolicy::Regenerate`] a node immediately
//!   replaces a request whose target died by a fresh uniformly random one.
//!
//! ## What you can do with a model
//!
//! * advance it round by round or by whole message-delay units
//!   ([`DynamicNetwork::advance_time_unit`]),
//! * run the [`flooding`] process of Definitions 3.3 / 4.2 and measure how far
//!   and how fast information spreads,
//! * measure vertex [`expansion`] of snapshots and the census of
//!   [`isolated`] nodes,
//! * replay the paper's [`onion_skin`] argument on realized graphs,
//! * compare everything against the closed-form predictions in [`theory`].
//!
//! ## Quick start
//!
//! ```
//! use churn_core::{EdgePolicy, StreamingConfig, StreamingModel, DynamicNetwork};
//! use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
//!
//! # fn main() -> Result<(), churn_core::ModelError> {
//! // An SDGR network with n = 200 nodes of degree d = 8.
//! let config = StreamingConfig::new(200, 8)
//!     .edge_policy(EdgePolicy::Regenerate)
//!     .seed(42);
//! let mut model = StreamingModel::new(config)?;
//! model.warm_up();
//!
//! let record = run_flooding(
//!     &mut model,
//!     FloodingSource::NextToJoin,
//!     &FloodingConfig::default(),
//!     1,
//! );
//! assert!(record.outcome.is_complete(), "SDGR floods everyone quickly");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod any;
mod config;
mod error;
mod event;
mod model;
mod poisson;
mod streaming;

pub mod driver;
pub mod expansion;
pub mod flooding;
pub mod isolated;
pub mod onion_skin;
pub mod theory;

pub use any::{AnyModel, ModelKind};
pub use config::{EdgePolicy, PoissonConfig, StreamingConfig, MIN_NETWORK_SIZE};
pub use error::ModelError;
pub use event::ChurnSummary;
pub use model::DynamicNetwork;
pub use poisson::PoissonModel;
pub use streaming::StreamingModel;

pub use driver::VictimPolicy;

// Re-export the identifiers users constantly need alongside the models.
pub use churn_graph::{DynamicGraph, EdgeSlot, GraphDelta, GraphError, NodeId, Snapshot};

/// Convenience result alias for model construction.
pub type Result<T, E = ModelError> = std::result::Result<T, E>;
