//! # wikimatch-suite
//!
//! Umbrella crate of the WikiMatch reproduction workspace. It re-exports the
//! public crates so the examples under `examples/` and the integration tests
//! under `tests/` can use a single dependency, and offers a couple of
//! convenience helpers shared by both.
//!
//! ## The session API in one minute
//!
//! All matching flows through [`wikimatch::MatchEngine`], a corpus-scoped
//! session: build it once per dataset, and the bilingual title dictionary,
//! the entity-type correspondences and the per-type schema/similarity
//! artifacts are computed exactly once and reused by every request.
//!
//! ```
//! use wikimatch_suite::{evaluate_alignment, wiki_corpus, wikimatch};
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wikimatch::MatchEngine;
//!
//! let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
//! let alignment = engine.align("film").expect("film type exists");
//! let scores = evaluate_alignment(&engine.dataset(), &alignment);
//! assert!(scores.f1 > 0.0);
//! ```
//!
//! Matchers — WikiMatch itself and every baseline — implement
//! [`wikimatch::SchemaMatcher`] and are interchangeable plugins:
//! `engine.align_with(&matcher, "film")` runs any of them over the same
//! cached artifacts.
//!
//! ## The individual crates
//!
//! * [`wiki_corpus`] — data model, wikitext parser, synthetic corpus
//!   generator and ground truth;
//! * [`wiki_text`] — normalisation, tokenisation, string similarity;
//! * [`wiki_linalg`] — SVD / LSI numerics;
//! * [`wiki_translate`] — bilingual title dictionary and simulated machine
//!   translation;
//! * [`wikimatch`] — the `MatchEngine` session, the `SchemaMatcher` plugin
//!   trait and the WikiMatch matcher itself;
//! * [`wiki_baselines`] — LSI, Bouma, COMA++-style and correlation-ordering
//!   baselines, all `SchemaMatcher` plugins;
//! * [`wiki_eval`] — weighted/macro metrics, MAP, cumulative gain, overlap;
//! * [`wiki_query`] — the WikiQuery-style case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;

pub use wiki_baselines;
pub use wiki_corpus;
pub use wiki_eval;
pub use wiki_linalg;
pub use wiki_query;
pub use wiki_text;
pub use wiki_translate;
pub use wikimatch;

use std::collections::HashMap;

use wiki_corpus::{Dataset, Language};
use wiki_eval::{weighted_scores, Scores};
use wikimatch::TypeAlignment;

/// Evaluates a set of derived cross-language pairs for one entity type of a
/// dataset with the paper's weighted metrics.
///
/// The pairs must be `(foreign-language attribute, English attribute)`, the
/// orientation produced by [`TypeAlignment::cross_pairs`] and by every
/// [`wikimatch::SchemaMatcher`] implementation.
pub fn evaluate_pairs(
    dataset: &Dataset,
    type_id: &str,
    freq_other: &HashMap<String, f64>,
    freq_en: &HashMap<String, f64>,
    pairs: &[(String, String)],
) -> Scores {
    let Some(gold) = dataset.ground_truth.for_type(type_id) else {
        return Scores::default();
    };
    weighted_scores(
        pairs,
        gold,
        dataset.other_language(),
        dataset.english(),
        freq_other,
        freq_en,
    )
}

/// Evaluates a [`TypeAlignment`] produced by a
/// [`wikimatch::MatchEngine`] against the dataset's ground truth.
pub fn evaluate_alignment(dataset: &Dataset, alignment: &TypeAlignment) -> Scores {
    let freq_other = alignment.schema.frequencies(dataset.other_language());
    let freq_en = alignment.schema.frequencies(&Language::En);
    evaluate_pairs(
        dataset,
        &alignment.type_id,
        &freq_other,
        &freq_en,
        &alignment.cross_pairs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::SyntheticConfig;
    use wikimatch::MatchEngine;

    #[test]
    fn evaluate_alignment_produces_bounded_scores() {
        let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
        let alignment = engine.align("film").unwrap();
        let scores = evaluate_alignment(&engine.dataset(), &alignment);
        assert!((0.0..=1.0).contains(&scores.precision));
        assert!((0.0..=1.0).contains(&scores.recall));
        assert!(scores.f1 > 0.0, "film alignment should find something");
    }

    #[test]
    fn unknown_type_evaluates_to_zero() {
        let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
        let scores = evaluate_pairs(
            &dataset,
            "not a type",
            &HashMap::new(),
            &HashMap::new(),
            &[("a".into(), "b".into())],
        );
        assert_eq!(scores, Scores::default());
    }
}
