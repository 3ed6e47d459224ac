//! # churn-analysis
//!
//! Theory-vs-measured analysis for the churn-network reproduction.
//!
//! The paper's statements are asymptotic; at simulation sizes the meaningful
//! questions are about *shapes and orderings*: does the flooding time of the
//! regeneration models grow like `log n` rather than like `n`? Does the isolated
//! fraction decay exponentially in `d`? Does the regeneration column of Table 1
//! beat the no-regeneration column? This crate turns raw sweep results into
//! those verdicts:
//!
//! * [`scaling`] — least-squares classification of a measured series as
//!   logarithmic vs linear in `n` (the shape distinction between Theorems
//!   3.16/4.20 and Theorems 3.7/4.12),
//! * [`comparison`] — side-by-side "paper claim vs measured value" rows with a
//!   pass/fail verdict, rendered through `churn-sim` tables,
//! * [`report`] — report regeneration: rebuilds summary tables, trajectory
//!   summaries, and the verdict rows from the stored `results/*.jsonl` and
//!   `results/*.series.jsonl` files without re-running any cell.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod comparison;
pub mod records;
pub mod report;
pub mod scaling;

pub use comparison::{Comparison, ComparisonSet};
pub use records::summarize_cells;
pub use report::{scenario_report, ScenarioReport};
pub use scaling::{classify_scaling, fit_logarithmic, ScalingClass, ScalingFit};
