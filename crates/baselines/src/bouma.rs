//! The Bouma et al. value/link alignment baseline.
//!
//! Bouma, Duarte and Islam ("Cross-lingual alignment and completion of
//! Wikipedia templates", CLIAWS3 2009) align infobox attributes between
//! English and Dutch by matching attribute *values* of cross-linked article
//! pairs: two values match when they are identical, or when they are links
//! whose landing articles are connected by a cross-language link. An
//! attribute pair is aligned when its values match in a sufficient fraction
//! of the dual infoboxes in which both attributes appear.
//!
//! On our shared [`DualSchema`] representation the per-attribute evidence is
//! already pooled, so the matcher scores a pair by the overlap of its value
//! vectors (translated through the title dictionary, which encodes exactly
//! the "identical or cross-linked" equivalence) and of its link-cluster
//! vectors, and accepts pairs whose overlap exceeds a threshold. This keeps
//! the defining characteristics the paper attributes to Bouma: high
//! precision, recall limited to attributes whose values actually coincide,
//! and no use of co-occurrence statistics.

use wiki_corpus::Language;
use wikimatch::{DualSchema, SchemaMatcher, SimilarityTable};

/// The Bouma-style value/link equality matcher.
#[derive(Debug, Clone, Copy)]
pub struct BoumaMatcher {
    /// Minimum fraction of value/link mass that must coincide for a pair to
    /// be aligned.
    pub threshold: f64,
}

impl Default for BoumaMatcher {
    fn default() -> Self {
        Self { threshold: 0.5 }
    }
}

impl BoumaMatcher {
    /// Creates a matcher with a custom acceptance threshold.
    pub fn new(threshold: f64) -> Self {
        Self { threshold }
    }

    /// The value-equality score of a pair: the maximum of the raw-value
    /// overlap and the link-cluster overlap.
    ///
    /// Bouma's matching rule is literal: two values match when they are the
    /// *same string* or when their link targets are connected by a
    /// cross-language link. The raw (non-canonicalised) value atoms are used
    /// on purpose — a Portuguese date such as "18 de Dezembro de 1950" does
    /// not equal "December 18, 1950", which is what limits Bouma's recall in
    /// the paper. The overlap coefficient (`|A ∩ B| / min(|A|, |B|)`)
    /// mirrors Bouma's per-infobox matching: the attribute that is present
    /// less often is not penalised for the dual infoboxes in which it does
    /// not appear at all.
    fn score(schema: &DualSchema, p: usize, q: usize) -> f64 {
        let a = schema.attribute(p);
        let b = schema.attribute(q);
        let value_overlap = a.raw_values.overlap_coefficient(&b.raw_values);
        let link_overlap = a.links.overlap_coefficient(&b.links);
        value_overlap.max(link_overlap)
    }
}

impl SchemaMatcher for BoumaMatcher {
    fn name(&self) -> &'static str {
        "Bouma"
    }

    fn align(&self, schema: &DualSchema, _table: &SimilarityTable) -> Vec<(String, String)> {
        let (other, english) = (&schema.languages.0, &Language::En);
        let mut pairs = Vec::new();
        for p in schema.attributes_in(other) {
            // Bouma aligns each foreign attribute with the best-scoring
            // English attribute, provided the evidence is strong enough.
            let mut best: Option<(usize, f64)> = None;
            for q in schema.attributes_in(english) {
                let score = Self::score(schema, p, q);
                if score >= self.threshold && best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((q, score));
                }
            }
            if let Some((q, _)) = best {
                pairs.push((
                    schema.attribute(p).name.clone(),
                    schema.attribute(q).name.clone(),
                ));
            }
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wiki_corpus::{Dataset, SyntheticConfig};
    use wikimatch::MatchEngine;

    fn schema_and_table() -> (Arc<DualSchema>, Arc<SimilarityTable>) {
        let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
        let prepared = engine.prepared("film").unwrap();
        (prepared.schema, prepared.table)
    }

    #[test]
    fn finds_value_identical_attributes() {
        let (schema, table) = schema_and_table();
        let pairs = BoumaMatcher::default().align(&schema, &table);
        // Link-based attributes whose values coincide through cross-language
        // links must be found.
        assert!(
            pairs.contains(&("direcao".to_string(), "directed by".to_string())),
            "pairs = {pairs:?}"
        );
        assert!(!pairs.is_empty());
    }

    #[test]
    fn at_most_one_match_per_foreign_attribute() {
        let (schema, table) = schema_and_table();
        let pairs = BoumaMatcher::default().align(&schema, &table);
        let mut seen = std::collections::HashSet::new();
        for (pt, _) in &pairs {
            assert!(seen.insert(pt.clone()), "{pt} matched twice");
        }
    }

    #[test]
    fn higher_threshold_reduces_matches() {
        let (schema, table) = schema_and_table();
        let loose = BoumaMatcher::new(0.2).align(&schema, &table).len();
        let strict = BoumaMatcher::new(0.9).align(&schema, &table).len();
        assert!(strict <= loose);
    }

    #[test]
    fn missing_value_overlap_yields_no_match() {
        let (schema, table) = schema_and_table();
        let pairs = BoumaMatcher::default().align(&schema, &table);
        // Free-text attributes have language-specific values and therefore
        // no overlap — the alias attribute "outros nomes" appears only when
        // the alias strings coincide, never for e.g. "instrumentos".
        assert!(!pairs
            .iter()
            .any(|(pt, en)| pt == "instrumentos" && en == "instruments"));
    }
}
