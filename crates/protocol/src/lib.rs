//! # churn-protocol
//!
//! A *local maintenance protocol* layered on the churn processes of
//! *"Expansion and Flooding in Dynamic Random Networks with Node Churn"*
//! (Becchetti, Clementi, Pasquale, Trevisan, Ziccardi — ICDCS 2021).
//!
//! The paper's SDGR/PDGR models resample a dangling request *instantaneously*
//! and let in-degrees float freely. The natural follow-up question — posed by
//! the RAES line of work (Becchetti et al., "Finding a Bounded-Degree Expander
//! Inside a Dense One"; Cruciani, "Maintaining a Bounded Degree Expander in
//! Dynamic Peer-to-Peer Networks", 2025) — is whether a *protocol of local
//! rules* can keep the topology an expander with **bounded in-degree** while
//! nodes churn:
//!
//! * every alive node maintains exactly `d` out-links, re-requesting any link
//!   severed by churn;
//! * a contacted node **accepts** a link only while its in-degree is below
//!   `c·d`; otherwise it rejects (the requester retries next round) or, under
//!   the [`SaturationPolicy::EvictOldest`] knob, sheds its oldest in-link to
//!   make room;
//! * repairs are not instantaneous: an unfilled slot waits in a pending queue
//!   and is retried once per round, so churn shows up as measurable *repair
//!   latency* instead of being papered over.
//!
//! [`RaesModel`] implements `churn-core`'s `DynamicNetwork` trait, so
//! flooding, expansion and isolation analyses and the scenario engine treat
//! it exactly like the four baseline models (`exp run raes-flooding` in
//! `churn-bench` runs the side-by-side comparison).
//! Internally it drives the slab graph through the dense `*_at` API and keeps
//! its pending queue as generation-tagged `DenseHandle`s, so steady-state
//! rounds perform no hashing on the repair path and, under the streaming
//! driver, no heap allocation at all.
//!
//! ## Quick start
//!
//! ```
//! use churn_core::DynamicNetwork;
//! use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
//! use churn_protocol::{RaesConfig, RaesModel};
//!
//! # fn main() -> Result<(), churn_core::ModelError> {
//! let mut model = RaesModel::new(RaesConfig::new(256, 8).seed(42))?;
//! model.warm_up();
//! let record = run_flooding(
//!     &mut model,
//!     FloodingSource::NextToJoin,
//!     &FloodingConfig::default(),
//!     1,
//! );
//! assert!(record.outcome.is_complete(), "RAES topologies flood quickly");
//! println!(
//!     "rejection rate {:.3}, mean repair latency {:.3} rounds",
//!     model.stats().rejection_rate(),
//!     model.stats().mean_repair_latency(),
//! );
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod behavior;
mod config;
mod raes;

pub use behavior::{AdversaryModel, AttackKind, Behavior};
pub use config::{ChurnDriver, RaesConfig, SaturationPolicy};
pub use raes::{PendingRequest, RaesModel, RaesRoundStats, RaesStats};

// Re-export the handle type pending requests are keyed by.
pub use churn_graph::DenseHandle;
