//! # churn-p2p
//!
//! A Bitcoin-Core-flavoured unstructured peer-to-peer overlay built on top of
//! the `churn-core` dynamic-network machinery.
//!
//! The paper motivates its Poisson model with edge regeneration (PDGR) by the
//! way Bitcoin full nodes maintain their overlay (Section 1.1 and Section 2):
//! every node keeps a *target out-degree* (8 by default) and a *maximum
//! in-degree* (125), stores a large list of known peer addresses seeded by DNS
//! seeds and refreshed by address gossip, and opens a replacement connection to
//! a (nearly) random known address whenever one of its outbound connections is
//! lost. This crate implements exactly that protocol as an example application
//! of the library:
//!
//! * [`P2pNetwork`] — the overlay simulation: Poisson churn, DNS-seed bootstrap,
//!   address-manager gossip, outbound-connection maintenance under the
//!   in-degree cap. It implements [`churn_core::DynamicNetwork`], so all the
//!   library's analyses (flooding, expansion, isolation) run on it unchanged.
//! * [`gossip`] — block propagation over the overlay, reported in the same
//!   terms as the paper's flooding process.
//! * [`health`] — overlay health metrics (degrees, connectivity, address
//!   staleness).
//!
//! ## Example
//!
//! ```
//! use churn_p2p::{P2pConfig, P2pNetwork};
//! use churn_core::DynamicNetwork;
//!
//! let mut overlay = P2pNetwork::new(P2pConfig::new(200).seed(7)).unwrap();
//! overlay.warm_up();
//! let health = churn_p2p::health::overlay_health(&overlay);
//! assert!(health.largest_component_fraction > 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addrman;
mod config;
mod network;

pub mod gossip;
pub mod health;

pub use addrman::AddressManager;
pub use config::P2pConfig;
pub use network::P2pNetwork;
