//! # wiki-bench
//!
//! The reproduction harness: one module per experiment of the paper plus
//! shared plumbing (dataset construction, matcher registry, text-table
//! rendering, JSON reports).
//!
//! Every table and figure of the paper has a corresponding binary under
//! `src/bin/` (`table2`, `figure5`, ...). Each binary calls into the
//! functions of [`experiments`] so the logic is unit-testable, prints a
//! text rendering of the paper's rows/series, and writes a JSON report to
//! `reports/` for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{ExperimentContext, StandardDatasets};
pub use report::{format_table, write_report};
