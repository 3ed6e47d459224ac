//! # churn-stochastic
//!
//! Stochastic substrate for the reproduction of *"Expansion and Flooding in
//! Dynamic Random Networks with Node Churn"* (ICDCS 2021).
//!
//! The Poisson models of the paper (Definitions 4.1, 4.9, 4.14) need a small
//! continuous-time simulation toolkit: exponential and Poisson sampling, the
//! birth–death *jump chain* of Definition 4.5 / Lemma 4.6, and an event queue.
//! The experiments additionally need descriptive statistics (means, standard
//! errors, quantiles), the KL divergence of Theorem A.3, and simple
//! regression to fit the `O(log n)` flooding-time scalings. All of that lives
//! here, implemented on top of nothing but the `rand` crate.
//!
//! ## Modules
//!
//! * [`rng`] — deterministic seeding and independent sub-streams,
//! * [`distributions`] — exponential, Poisson, geometric and log-normal samplers
//!   with exact moments exposed for testing,
//! * [`process`] — the birth–death jump chain used by the Poisson churn,
//! * [`events`] — a generic future-event queue for discrete-event simulation,
//! * [`stats`] — online statistics, standard errors, quantiles, KL
//!   divergence and least-squares fits.
//!
//! ## Example: the jump chain of Definition 4.5
//!
//! ```
//! use churn_stochastic::process::{BirthDeathChain, JumpKind};
//! use churn_stochastic::rng::seeded_rng;
//!
//! let mut rng = seeded_rng(42);
//! // λ = 1, µ = 1/n with n = 100.
//! let chain = BirthDeathChain::new(1.0, 0.01);
//! let mut population = 0u64;
//! let mut time = 0.0;
//! for _ in 0..1_000 {
//!     let jump = chain.next_jump(population, &mut rng);
//!     time += jump.waiting_time;
//!     match jump.kind {
//!         JumpKind::Birth => population += 1,
//!         JumpKind::Death => population -= 1,
//!     }
//! }
//! assert!(population > 0, "after 1000 jumps the population is near n = 100");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distributions;
pub mod events;
pub mod process;
pub mod rng;
pub mod stats;

pub use distributions::{
    Exponential, Geometric, GilbertElliott, GilbertElliottState, LogNormal, Poisson,
};
pub use events::EventQueue;
pub use process::{BirthDeathChain, Jump, JumpKind};
pub use rng::{seeded_rng, SimRng};
pub use stats::{LinearFit, OnlineStats};
