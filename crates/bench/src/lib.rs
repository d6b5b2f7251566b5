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

use wiki_corpus::{ScaleTier, SyntheticConfig};

/// Resolves a `--tiers` token to its generator config via [`ScaleTier`],
/// so every recording binary accepts the same tier names (including
/// `xlarge`) and cannot drift from the corpus crate's catalog.
pub fn tier_config(tier: &str) -> Option<SyntheticConfig> {
    tier.parse::<ScaleTier>().ok().map(|t| t.config())
}

/// The usage-error text for an unknown `--tiers` token: the canonical tier
/// list, derived from [`ScaleTier::ALL`] so it can never go stale.
pub fn tier_names() -> String {
    let names: Vec<&str> = ScaleTier::ALL.iter().map(|t| t.name()).collect();
    names.join("|")
}

#[cfg(test)]
mod tier_tests {
    use super::*;

    #[test]
    fn every_tier_name_resolves_and_round_trips() {
        for tier in ScaleTier::ALL {
            assert!(tier_config(tier.name()).is_some(), "{tier} unresolvable");
            assert_eq!(tier.name().parse::<ScaleTier>(), Ok(tier));
        }
        assert!(tier_config("galactic").is_none());
        assert_eq!(tier_names(), "tiny|small|medium|large|xlarge");
    }
}
