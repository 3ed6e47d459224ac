//! # churn-event
//!
//! A deterministic discrete-event simulation core for the churn-network
//! reproduction — the asynchronous counterpart of the synchronous round
//! driver in `churn-core`.
//!
//! The synchronous engines impose a global round tick: every node acts once
//! per round, messages arrive "next round". This crate removes the tick.
//! Messages are *events* with individual delivery times drawn from a latency
//! model, senders push them through finite-bandwidth egress queues, and
//! protocol progress (flooding coverage, RAES repair) *emerges* from the
//! event order instead of being imposed by it. This is the asynchronous /
//! dynamic-graph spreading regime of Clementi–Silvestri–Trevisan that the
//! round driver cannot express.
//!
//! ## Event order and determinism
//!
//! All events live in one [`churn_stochastic::EventQueue`]: time-epoch
//! buckets sorted as each epoch opens, plus a small heap for events that
//! arrive in the open epoch, keyed by `f64` timestamp with a monotone
//! sequence number as tie-break. The ordering is therefore *total* — two
//! events never compare equal, and simultaneous events pop in the order
//! they were scheduled.
//! Every run is a pure function of its configuration and seed: same seed ⇒
//! identical event trace, identical statistics, identical final state, at
//! any queue capacity and on any machine. The [`Scheduler`] wrapper adds
//! the processed-event counter and an optional trace capture
//! ([`TraceMode`]: full buffering for the determinism suite, streaming
//! per-time-unit bins for the series pipeline) the determinism suite pins
//! this contract with.
//!
//! ## Module map
//!
//! * [`latency`] — pluggable per-message delay distributions
//!   ([`LatencyModel`]: fixed, uniform, exponential, log-normal — the latter
//!   two via `churn-stochastic`).
//! * [`bandwidth`] — per-node FIFO egress queues with a service rate, a
//!   capacity and a drop-or-delay overflow policy ([`BandwidthModel`],
//!   [`EgressQueues`]).
//! * [`stats`] — deterministic load counters ([`EventStats`]): events
//!   processed, messages sent/delivered/dropped/lost, peak backlog, mean and
//!   p99 queue delay in *simulated* time. (Wall-clock throughput is
//!   measured by the caller — it is machine-dependent and must stay out of
//!   the deterministic record.)
//! * [`faults`] — seeded, deterministic fault injection ([`FaultPlan`],
//!   [`FaultState`]): per-link loss (i.i.d. or Gilbert–Elliott bursts),
//!   duplication, bounded reordering, scheduled partitions enforced at
//!   delivery time, and node crash–restart — all on a dedicated RNG
//!   substream, so an empty plan is stream-identical to no fault layer.
//! * `wire` (crate-private) — the one message path both loops share:
//!   egress, link fate, reorder hold and latency draw on send; the four
//!   delivery gates; crash and restart; the rumor's informed set.
//! * [`flooding`] — asynchronous flooding: a node forwards when a message
//!   *arrives*; one event loop over a [`FloodHost`] — any
//!   [`churn_core::DynamicNetwork`] (churn ticks plug in through the model's
//!   own driver hooks) or a [`StaticGraph`].
//! * [`raes`] — asynchronous RAES repair: repair requests and accepts are
//!   messages that share the egress queues with flood traffic, so the run
//!   answers "does repair keep up under load?".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod faults;
pub mod flooding;
pub mod latency;
pub mod raes;
pub mod sched;
pub mod stats;
pub mod trace;
mod wire;

pub use bandwidth::{BandwidthModel, EgressQueues, Enqueue, OverflowPolicy};
pub use faults::{CrashRestart, FaultPlan, FaultState, LossModel, PartitionWindow};
pub use flooding::{
    run_async_flooding_faulty, AsyncFloodingConfig, AsyncFloodingRecord, AsyncSource, FloodHost,
    StaticGraph,
};
pub use latency::LatencyModel;
pub use raes::{run_async_raes_faulty, AsyncRaesConfig, AsyncRaesRecord, FloodSummary};
pub use sched::{Scheduler, TraceEvent};
pub use stats::EventStats;
pub use trace::{TraceBins, TraceMode};
