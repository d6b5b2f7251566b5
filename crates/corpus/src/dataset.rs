//! Dataset bundles: corpus + ground truth + type pairings for one language
//! pair.
//!
//! The experiments in the paper are run per language pair (Portuguese-English
//! and Vietnamese-English) and per entity type. [`Dataset`] packages the
//! generated corpus, its gold standard and the list of type pairings so the
//! matcher, the baselines and the evaluation harness all consume the same
//! object.

use serde::{Deserialize, Serialize};

use crate::ground_truth::GroundTruth;
use crate::lang::Language;
use crate::store::Corpus;
use crate::synthetic::{SyntheticConfig, SyntheticGenerator};

/// A pairing of one entity type's labels across the two languages of a
/// dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypePairing {
    /// Language-independent type identifier (e.g. `"film"`).
    pub type_id: String,
    /// Type label in the foreign language (e.g. `"Filme"`, `"Phim"`).
    pub label_other: String,
    /// Type label in English (e.g. `"Film"`).
    pub label_en: String,
}

/// A complete experimental dataset for one language pair.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The languages of the pair: `(foreign, English)`.
    pub languages: (Language, Language),
    /// The article corpus (both editions).
    pub corpus: Corpus,
    /// Gold-standard attribute correspondences.
    pub ground_truth: GroundTruth,
    /// The entity types present in the pair.
    pub types: Vec<TypePairing>,
}

impl Dataset {
    /// Generates the Portuguese-English dataset (14 entity types).
    pub fn pt_en(config: &SyntheticConfig) -> Self {
        Self::generate(Language::Pt, config)
    }

    /// Generates the Vietnamese-English dataset (4 entity types).
    pub fn vn_en(config: &SyntheticConfig) -> Self {
        Self::generate(Language::Vn, config)
    }

    /// Generates the dataset for the pair (`other`, English).
    pub fn generate(other: Language, config: &SyntheticConfig) -> Self {
        let generator = SyntheticGenerator::new(*config);
        let (corpus, ground_truth) = generator.generate_pair(other.clone());
        let types = generator
            .catalog()
            .types_for(&other)
            .into_iter()
            .map(|t| TypePairing {
                type_id: t.id.to_string(),
                label_other: t.label(&other).unwrap_or(t.label_en).to_string(),
                label_en: t.label_en.to_string(),
            })
            .collect();
        Dataset {
            languages: (other, Language::En),
            corpus,
            ground_truth,
            types,
        }
    }

    /// The foreign (non-English) language of the pair.
    pub fn other_language(&self) -> &Language {
        &self.languages.0
    }

    /// The English side of the pair.
    pub fn english(&self) -> &Language {
        &self.languages.1
    }

    /// Looks up a type pairing by id.
    pub fn type_pairing(&self, type_id: &str) -> Option<&TypePairing> {
        self.types.iter().find(|t| t.type_id == type_id)
    }

    /// Short human-readable name of the pair ("Pt-En", "Vn-En", ...).
    pub fn pair_name(&self) -> String {
        fn cap(code: &str) -> String {
            let mut chars = code.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().chain(chars).collect(),
                None => String::new(),
            }
        }
        format!(
            "{}-{}",
            cap(self.languages.0.code()),
            cap(self.languages.1.code())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt_en_dataset_has_fourteen_types() {
        let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
        assert_eq!(dataset.types.len(), 14);
        assert_eq!(dataset.pair_name(), "Pt-En");
        assert_eq!(dataset.other_language(), &Language::Pt);
        let film = dataset.type_pairing("film").unwrap();
        assert_eq!(film.label_other, "Filme");
        assert_eq!(film.label_en, "Film");
    }

    #[test]
    fn vn_en_dataset_has_four_types() {
        let dataset = Dataset::vn_en(&SyntheticConfig::tiny());
        assert_eq!(dataset.types.len(), 4);
        assert_eq!(dataset.pair_name(), "Vi-En");
        assert!(dataset.type_pairing("film").is_some());
        assert!(dataset.type_pairing("book").is_none());
    }

    #[test]
    fn corpus_and_ground_truth_cover_the_same_types() {
        let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
        for pairing in &dataset.types {
            assert!(
                dataset.ground_truth.for_type(&pairing.type_id).is_some(),
                "ground truth missing for {}",
                pairing.type_id
            );
            assert!(
                dataset
                    .corpus
                    .articles_of_type(&Language::En, &pairing.label_en)
                    .count()
                    > 0,
                "no English articles for {}",
                pairing.type_id
            );
            assert!(
                dataset
                    .corpus
                    .articles_of_type(&Language::Pt, &pairing.label_other)
                    .count()
                    > 0,
                "no Portuguese articles for {}",
                pairing.type_id
            );
        }
    }
}
