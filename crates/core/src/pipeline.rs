//! The WikiMatch matcher configuration holder and the per-type alignment
//! result.
//!
//! [`WikiMatch`] carries the configuration and implements
//! [`SchemaMatcher`](crate::SchemaMatcher), which makes it one plugin among
//! the baselines. Sessions over a dataset — including the precomputation of
//! the title dictionary and the per-type schema caches — live in
//! [`MatchEngine`](crate::MatchEngine), which returns a [`TypeAlignment`]
//! per aligned type.

use std::sync::Arc;

use wiki_corpus::Language;

use crate::config::WikiMatchConfig;
use crate::matches::MatchSet;
use crate::schema::DualSchema;
use crate::similarity::SimilarityTable;

/// The result of aligning one entity type.
///
/// The schema and similarity table are shared (`Arc`) with the engine that
/// produced the alignment, so holding many alignments of the same type
/// does not duplicate the prepared artifacts.
#[derive(Debug, Clone)]
pub struct TypeAlignment {
    /// Language-independent type identifier.
    pub type_id: String,
    /// The dual-language schema the alignment was computed on.
    pub schema: Arc<DualSchema>,
    /// The pairwise similarity evidence.
    pub table: Arc<SimilarityTable>,
    /// The discovered match clusters.
    pub matches: MatchSet,
    /// Language pair `(foreign, English)`.
    pub languages: (Language, Language),
}

impl TypeAlignment {
    /// Derived cross-language correspondences as
    /// `(foreign-language attribute, English attribute)` pairs.
    pub fn cross_pairs(&self) -> Vec<(String, String)> {
        self.matches
            .cross_language_pairs(&self.schema, &self.languages.0, &self.languages.1)
    }

    /// Derived intra-language synonym pairs for one language.
    pub fn intra_pairs(&self, language: &Language) -> Vec<(String, String)> {
        self.matches.intra_language_pairs(&self.schema, language)
    }

    /// Human-readable rendering of the match clusters
    /// (e.g. `"died ~ falecimento ~ morte"`).
    pub fn rendered_clusters(&self) -> Vec<String> {
        self.matches.render(&self.schema)
    }
}

/// The WikiMatch matcher: the paper's configuration plus the
/// [`SchemaMatcher`](crate::SchemaMatcher) implementation.
///
/// To align a dataset, build a session with
/// [`MatchEngine::builder`](crate::MatchEngine::builder) and call
/// [`align`](crate::MatchEngine::align) /
/// [`align_all`](crate::MatchEngine::align_all) on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct WikiMatch {
    config: WikiMatchConfig,
}

impl WikiMatch {
    /// Creates a matcher with the given configuration.
    pub fn new(config: WikiMatchConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WikiMatchConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatchEngine;
    use wiki_corpus::{Dataset, SyntheticConfig};

    fn engine() -> MatchEngine {
        MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build()
    }

    #[test]
    fn type_matching_recovers_the_catalog_pairings() {
        let engine = engine();
        let type_matches = engine.type_matches();
        // Every catalog pairing should be recovered by majority voting.
        for pairing in &engine.dataset().types {
            let found = type_matches
                .iter()
                .find(|m| m.label_a == pairing.label_other)
                .unwrap_or_else(|| panic!("no type match for {}", pairing.label_other));
            assert_eq!(
                found.label_b, pairing.label_en,
                "wrong match for {}",
                pairing.label_other
            );
        }
    }

    #[test]
    fn film_alignment_contains_expected_pairs() {
        let alignment = engine().align("film").unwrap();
        let pairs = alignment.cross_pairs();
        assert!(
            pairs.contains(&("direcao".to_string(), "directed by".to_string())),
            "direcao ~ directed by not found in {pairs:?}"
        );
        assert!(
            pairs.contains(&("pais".to_string(), "country".to_string())),
            "pais ~ country not found"
        );
        // Every derived pair maps existing attributes.
        for (pt, en) in &pairs {
            assert!(alignment.schema.index_of(&Language::Pt, pt).is_some());
            assert!(alignment.schema.index_of(&Language::En, en).is_some());
        }
    }
}
