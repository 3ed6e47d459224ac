//! # churn-sim
//!
//! Experiment harness for the churn-network reproduction: the scenario
//! engine ([`scenario`]) that runs every `(network, n, d, victim, trial)`
//! grid of the workspace — seeded cells parallelised across CPU cores,
//! checkpointed JSON-lines records, resume — plus metric aggregation with
//! confidence intervals and table rendering (plain text, Markdown).
//!
//! Every registered experiment in `churn-bench` is produced through this
//! crate, so the paper's tables and figures are all regenerated by the same,
//! uniformly seeded machinery.
//!
//! ## Example
//!
//! ```
//! use churn_core::ModelKind;
//! use churn_sim::scenario::{
//!     run_scenario, Grid, Measurement, NetSpec, RunOptions, Scenario,
//! };
//! use churn_sim::Aggregate;
//!
//! // Isolated fraction of warm PDG snapshots over a small grid.
//! let scenario = Scenario::new("pdg-isolation", "PDG isolation", Measurement::Isolation)
//!     .nets([NetSpec::Baseline(ModelKind::Pdg)])
//!     .full_grid(Grid::new([100, 200], [3], 2))
//!     .base_seed(7);
//! let dir = std::env::temp_dir().join(format!("churn-sim-doc-{}", std::process::id()));
//! let opts = RunOptions { dir: dir.clone(), ..RunOptions::default() };
//! let outcome = run_scenario(&scenario, &opts).unwrap();
//! assert_eq!(outcome.records.len(), 4); // 2 sizes × 2 trials
//! let hundred: Vec<f64> = outcome
//!     .records
//!     .iter()
//!     .filter(|r| r.n == 100)
//!     .map(|r| r.metric("isolated_fraction").unwrap())
//!     .collect();
//! let agg = Aggregate::from_values(&hundred);
//! assert_eq!(agg.count, 2);
//! assert!((0.0..0.5).contains(&agg.mean));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod metrics;
mod minijson;
mod observer;
mod table;

pub mod scenario;

pub use metrics::Aggregate;
pub use observer::observe_rounds;
pub use table::Table;
