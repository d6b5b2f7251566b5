//! # wiki-baselines
//!
//! The competitor systems WikiMatch is compared against in Section 4 of the
//! paper, re-implemented so the comparison can be reproduced end to end:
//!
//! * [`lsi_topk`] — plain LSI used as a cross-language matcher: for every
//!   attribute of the foreign language, the top-`k` English attributes by
//!   LSI score are reported as matches (Figure 6; the `k = 1` configuration
//!   is the "LSI" column of Table 2).
//! * [`bouma`] — the value/link equality alignment strategy of Bouma et al.
//!   (CLIAWS3 2009): attribute values match when they are identical or when
//!   their link targets are connected by a cross-language link.
//! * [`coma`] — a COMA++-style composite matcher with name and instance
//!   matchers, optional label translation (simulated Google Translator) and
//!   optional value translation (the automatically derived title
//!   dictionary), covering the N / I / NI / N+G / I+D / NG+ID
//!   configurations of Appendix C (Figure 7).
//! * [`correlation`] — the alternative co-occurrence correlation measures
//!   X1, X2, X3 and a random ordering, used for the candidate-ordering MAP
//!   comparison of Appendix B (Table 7), plus a top-1
//!   [`CorrelationMatcher`] plugin so the orderings can be run as matchers.
//!
//! All matchers implement the [`wikimatch::SchemaMatcher`] trait — the same
//! trait the WikiMatch core implements — and produce cross-language pairs
//! `(foreign attribute, English attribute)` over the same
//! [`wikimatch::DualSchema`], so every approach is interchangeable behind a
//! `&dyn SchemaMatcher` and runs through one
//! [`wikimatch::MatchEngine`] session with identical metrics.
//!
//! ```
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wiki_baselines::{BoumaMatcher, LsiTopKMatcher};
//! use wikimatch::{MatchEngine, SchemaMatcher, WikiMatch};
//!
//! let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
//! let matchers: Vec<Box<dyn SchemaMatcher>> = vec![
//!     Box::new(WikiMatch::default()),
//!     Box::new(BoumaMatcher::default()),
//!     Box::new(LsiTopKMatcher::new(1)),
//! ];
//! for matcher in &matchers {
//!     let pairs = engine.align_with(matcher.as_ref(), "film").unwrap();
//!     println!("{}: {} pairs", matcher.label(), pairs.len());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bouma;
pub mod coma;
pub mod correlation;
pub mod lsi_topk;

pub use bouma::BoumaMatcher;
pub use coma::{ComaConfiguration, ComaMatcher};
pub use correlation::{ranked_candidates, CorrelationMatcher, CorrelationMeasure};
pub use lsi_topk::LsiTopKMatcher;

pub use wikimatch::SchemaMatcher;
