//! Gold-standard attribute correspondences.
//!
//! In the paper a bilingual expert labelled every cross-language attribute
//! pair of every entity type as correct or incorrect (315 alignments for
//! Pt-En, 160 for Vn-En). In this reproduction the synthetic generator plays
//! the role of the expert: it knows which language-independent *concept*
//! each surface attribute name was generated from, so a pair of attribute
//! names is a correct alignment exactly when their concept sets intersect.
//! One-to-many gold alignments arise naturally from intra-language synonyms
//! (e.g. *died* ↔ *falecimento* and *died* ↔ *morte*).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use serde::{Deserialize, Serialize};

use crate::lang::Language;

/// A surface attribute name observed in the corpus together with the
/// concepts it can denote (more than one concept = polysemy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttributeSense {
    /// Language the surface name belongs to.
    pub language: Language,
    /// Normalised surface name.
    pub name: String,
    /// Concept identifiers this name was generated from.
    pub concepts: BTreeSet<String>,
}

/// Gold alignments for one entity type.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TypeGroundTruth {
    /// Entity-type identifier (language independent).
    pub type_id: String,
    /// Observed attribute senses.
    pub senses: Vec<AttributeSense>,
}

impl TypeGroundTruth {
    /// Registers that `name` (in `language`) was used for `concept`.
    ///
    /// Names are stored in normalised form (see
    /// [`wiki_text::normalize_label`]).
    pub fn add_sense(&mut self, language: Language, name: &str, concept: &str) {
        let name = wiki_text::normalize_label(name);
        if let Some(sense) = self
            .senses
            .iter_mut()
            .find(|s| s.language == language && s.name == name)
        {
            sense.concepts.insert(concept.to_string());
            return;
        }
        let mut concepts = BTreeSet::new();
        concepts.insert(concept.to_string());
        self.senses.push(AttributeSense {
            language,
            name,
            concepts,
        });
    }

    /// The concepts a surface name can denote (empty set when unknown).
    ///
    /// The lookup is tolerant: the name is normalised (lowercased,
    /// diacritics folded) before matching, so callers may pass either the
    /// raw surface form ("Direção") or the normalised one ("direcao").
    pub fn concepts_of(&self, language: &Language, name: &str) -> BTreeSet<String> {
        let wanted = wiki_text::normalize_label(name);
        self.senses
            .iter()
            .find(|s| &s.language == language && s.name == wanted)
            .map(|s| s.concepts.clone())
            .unwrap_or_default()
    }

    /// Whether `(a, b)` is a correct alignment (the names share a concept).
    pub fn is_correct(&self, lang_a: &Language, a: &str, lang_b: &Language, b: &str) -> bool {
        let ca = self.concepts_of(lang_a, a);
        if ca.is_empty() {
            return false;
        }
        let cb = self.concepts_of(lang_b, b);
        ca.intersection(&cb).next().is_some()
    }

    /// All observed attribute names of a language, sorted.
    pub fn attributes_in(&self, language: &Language) -> Vec<String> {
        let mut names: Vec<String> = self
            .senses
            .iter()
            .filter(|s| &s.language == language)
            .map(|s| s.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// The gold correspondents of `name` (in `lang_a`) among the attributes
    /// of `lang_b`.
    pub fn correspondents(&self, lang_a: &Language, name: &str, lang_b: &Language) -> Vec<String> {
        let concepts = self.concepts_of(lang_a, name);
        if concepts.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<String> = self
            .senses
            .iter()
            .filter(|s| &s.language == lang_b)
            .filter(|s| s.concepts.intersection(&concepts).next().is_some())
            .map(|s| s.name.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// All gold cross-language pairs `(a in l1, b in l2)`, sorted.
    ///
    /// These are the [`Self::correspondents`] in `l2` of every name of
    /// [`Self::attributes_in`]`(l1)`, found through two indexes built once
    /// per call — the first `l1` sense of each name, which is the sense
    /// [`Self::concepts_of`] finds, and the `l2` names of each concept —
    /// instead of a scan of every sense for every name.
    pub fn gold_cross_pairs(&self, l1: &Language, l2: &Language) -> Vec<(String, String)> {
        let mut first_sense: HashMap<&str, &BTreeSet<String>> = HashMap::new();
        let mut names_of: HashMap<&str, Vec<&str>> = HashMap::new();
        for sense in &self.senses {
            if &sense.language == l1 {
                first_sense.entry(&sense.name).or_insert(&sense.concepts);
            }
            if &sense.language == l2 {
                for concept in &sense.concepts {
                    names_of.entry(concept).or_default().push(&sense.name);
                }
            }
        }
        let mut pairs = Vec::new();
        for a in self.attributes_in(l1) {
            // `concepts_of` looks a name up by its label form, which a
            // stored name need not be ("top 10" is looked up as "top").
            let Some(concepts) = first_sense.get(wiki_text::normalize_label(&a).as_str()) else {
                continue;
            };
            let mut correspondents: Vec<&str> = concepts
                .iter()
                .filter_map(|concept| names_of.get(concept.as_str()))
                .flatten()
                .copied()
                .collect();
            correspondents.sort_unstable();
            correspondents.dedup();
            pairs.extend(
                correspondents
                    .into_iter()
                    .map(|b| (a.clone(), b.to_string())),
            );
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }
}

/// Gold alignments for every entity type of a generated dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    types: BTreeMap<String, TypeGroundTruth>,
}

impl GroundTruth {
    /// Creates an empty ground truth.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a sense for `(type_id, language, name, concept)`.
    pub fn add_sense(&mut self, type_id: &str, language: Language, name: &str, concept: &str) {
        self.types
            .entry(type_id.to_string())
            .or_insert_with(|| TypeGroundTruth {
                type_id: type_id.to_string(),
                ..Default::default()
            })
            .add_sense(language, name, concept);
    }

    /// Takes one type's senses out for indexed recording (see
    /// [`SenseIndex`]); hand them back with [`Self::restore`].
    pub(crate) fn take_indexed(&mut self, type_id: &str) -> SenseIndex {
        let truth = self
            .types
            .remove(type_id)
            .unwrap_or_else(|| TypeGroundTruth {
                type_id: type_id.to_string(),
                ..Default::default()
            });
        let mut position = HashMap::with_capacity(truth.senses.len());
        for (i, sense) in truth.senses.iter().enumerate() {
            position
                .entry((sense.language.clone(), sense.name.clone()))
                .or_insert(i);
        }
        SenseIndex { truth, position }
    }

    /// Puts back senses taken by [`Self::take_indexed`]. A type is listed
    /// only once a sense is recorded for it, as with [`Self::add_sense`].
    pub(crate) fn restore(&mut self, index: SenseIndex) {
        if !index.truth.senses.is_empty() {
            self.types.insert(index.truth.type_id.clone(), index.truth);
        }
    }

    /// The per-type gold alignments, if the type is known.
    pub fn for_type(&self, type_id: &str) -> Option<&TypeGroundTruth> {
        self.types.get(type_id)
    }

    /// Iterates over all type ids (sorted).
    pub fn type_ids(&self) -> impl Iterator<Item = &str> {
        self.types.keys().map(|s| s.as_str())
    }

    /// Total number of gold cross-language pairs over all types.
    pub fn total_cross_pairs(&self, l1: &Language, l2: &Language) -> usize {
        self.types
            .values()
            .map(|t| t.gold_cross_pairs(l1, l2).len())
            .sum()
    }
}

/// One type's senses with a `(language, name)` index over them.
///
/// [`SenseIndex::add`] records exactly what [`TypeGroundTruth::add_sense`]
/// records, in the same order, but finds the sense by a hash lookup instead
/// of a scan of every sense so far — the scan made recording quadratic in a
/// type's attribute count.
pub(crate) struct SenseIndex {
    truth: TypeGroundTruth,
    position: HashMap<(Language, String), usize>,
}

impl SenseIndex {
    /// Registers that the sense `name` (in `language`) was used for
    /// `concept`. `name` is already normalised: `add(language,
    /// &normalize_label(raw), concept)` is `add_sense(language, raw,
    /// concept)`.
    pub(crate) fn add(&mut self, language: &Language, name: &str, concept: &str) {
        let key = (language.clone(), name.to_string());
        if let Some(&i) = self.position.get(&key) {
            self.truth.senses[i].concepts.insert(concept.to_string());
            return;
        }
        self.position.insert(key.clone(), self.truth.senses.len());
        let (language, name) = key;
        self.truth.senses.push(AttributeSense {
            language,
            name,
            concepts: BTreeSet::from([concept.to_string()]),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GroundTruth {
        let mut gt = GroundTruth::new();
        gt.add_sense("actor", Language::En, "born", "birth_date");
        gt.add_sense("actor", Language::En, "born", "birth_place");
        gt.add_sense("actor", Language::En, "died", "death_date");
        gt.add_sense("actor", Language::Pt, "nascimento", "birth_date");
        gt.add_sense("actor", Language::Pt, "falecimento", "death_date");
        gt.add_sense("actor", Language::Pt, "morte", "death_date");
        gt.add_sense("actor", Language::Pt, "local de nascimento", "birth_place");
        gt
    }

    #[test]
    fn correctness_requires_shared_concept() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        assert!(actor.is_correct(&Language::En, "born", &Language::Pt, "nascimento"));
        assert!(actor.is_correct(&Language::En, "died", &Language::Pt, "morte"));
        assert!(!actor.is_correct(&Language::En, "born", &Language::Pt, "morte"));
        assert!(!actor.is_correct(&Language::En, "unknown", &Language::Pt, "morte"));
    }

    #[test]
    fn polysemy_yields_multiple_correspondents() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        let corr = actor.correspondents(&Language::En, "born", &Language::Pt);
        assert_eq!(corr, vec!["local de nascimento", "nascimento"]);
        // One-to-many through intra-language synonymy.
        let corr = actor.correspondents(&Language::En, "died", &Language::Pt);
        assert_eq!(corr, vec!["falecimento", "morte"]);
    }

    #[test]
    fn gold_pairs_enumerated() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        let pairs = actor.gold_cross_pairs(&Language::En, &Language::Pt);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&("died".into(), "falecimento".into())));
        assert_eq!(gt.total_cross_pairs(&Language::En, &Language::Pt), 4);
    }

    /// `gold_cross_pairs` as it was before its indexes: the correspondents
    /// of every name, each found by a scan of every sense.
    fn quadratic_gold_cross_pairs(
        truth: &TypeGroundTruth,
        l1: &Language,
        l2: &Language,
    ) -> Vec<(String, String)> {
        let mut pairs = Vec::new();
        for a in truth.attributes_in(l1) {
            for b in truth.correspondents(l1, &a, l2) {
                pairs.push((a.clone(), b));
            }
        }
        pairs.sort();
        pairs.dedup();
        pairs
    }

    fn assert_gold_cross_pairs_match_the_oracle(truth: &TypeGroundTruth, languages: &[Language]) {
        for l1 in languages {
            for l2 in languages {
                assert_eq!(
                    truth.gold_cross_pairs(l1, l2),
                    quadratic_gold_cross_pairs(truth, l1, l2),
                    "{} {l1} {l2}",
                    truth.type_id
                );
            }
        }
    }

    #[test]
    fn gold_cross_pairs_oracle_hand_built() {
        let mut truth = TypeGroundTruth {
            type_id: "actor".into(),
            ..Default::default()
        };
        // Polysemous senses on both sides, synonyms, and a name present in
        // both languages.
        truth.add_sense(Language::En, "born", "birth_date");
        truth.add_sense(Language::En, "born", "birth_place");
        truth.add_sense(Language::En, "died", "death_date");
        truth.add_sense(Language::En, "spouse", "spouse");
        truth.add_sense(Language::Pt, "nascimento", "birth_date");
        truth.add_sense(Language::Pt, "nascimento", "birth_place");
        truth.add_sense(Language::Pt, "local de nascimento", "birth_place");
        truth.add_sense(Language::Pt, "falecimento", "death_date");
        truth.add_sense(Language::Pt, "morte", "death_date");
        truth.add_sense(Language::Pt, "spouse", "spouse");
        // A concept with no Portuguese sense.
        truth.add_sense(Language::En, "website", "website");
        // Stored as "top 10", which `normalize_label` maps to "top": the
        // lookup finds the "top" sense, and without one finds nothing.
        truth.add_sense(Language::En, "Top 10 2", "ranking");
        truth.add_sense(Language::Pt, "classificacao", "ranking");
        truth.add_sense(Language::Pt, "Top 10 2", "ranking");
        truth.add_sense(Language::En, "top", "award");
        truth.add_sense(Language::Pt, "premio", "award");
        // A name whose senses were pushed twice by hand: the first one wins.
        truth.senses.push(AttributeSense {
            language: Language::En,
            name: "died".into(),
            concepts: BTreeSet::from(["spouse".to_string()]),
        });
        assert!(truth
            .senses
            .iter()
            .any(|s| s.name == "top 10" && s.language == Language::En));
        let languages = [Language::En, Language::Pt, Language::Vn];
        assert_gold_cross_pairs_match_the_oracle(&truth, &languages);
        let pairs = truth.gold_cross_pairs(&Language::En, &Language::Pt);
        assert!(pairs.contains(&("top 10".into(), "premio".into())));
        assert!(!pairs.contains(&("top 10".into(), "classificacao".into())));
        assert!(!pairs.iter().any(|(a, _)| a == "website"));
        assert!(pairs.contains(&("spouse".into(), "spouse".into())));
    }

    #[test]
    fn gold_cross_pairs_oracle_generated_tiers() {
        use crate::{Dataset, ScaleTier};
        for tier in [ScaleTier::Tiny, ScaleTier::Small, ScaleTier::Medium] {
            for language in [Language::Pt, Language::Vn] {
                let dataset = Dataset::generate(language.clone(), &tier.config());
                let languages = [language.clone(), Language::En];
                for type_id in dataset.ground_truth.type_ids() {
                    let truth = dataset.ground_truth.for_type(type_id).unwrap();
                    assert_gold_cross_pairs_match_the_oracle(truth, &languages);
                }
            }
        }
    }

    #[test]
    fn attributes_in_language_sorted_and_deduped() {
        let gt = sample();
        let actor = gt.for_type("actor").unwrap();
        assert_eq!(actor.attributes_in(&Language::En), vec!["born", "died"]);
        assert_eq!(actor.attributes_in(&Language::Vn), Vec::<String>::new());
    }

    #[test]
    fn duplicate_sense_registration_is_idempotent() {
        let mut gt = sample();
        gt.add_sense("actor", Language::En, "born", "birth_date");
        let actor = gt.for_type("actor").unwrap();
        let born: Vec<_> = actor
            .senses
            .iter()
            .filter(|s| s.name == "born" && s.language == Language::En)
            .collect();
        assert_eq!(born.len(), 1);
        assert_eq!(born[0].concepts.len(), 2);
    }

    #[test]
    fn indexed_recording_matches_add_sense() {
        // Repeats, polysemy, synonyms that normalise alike, and a type that
        // already holds senses when it is taken for indexing.
        let senses = [
            ("actor", Language::En, "Born", "birth_date"),
            ("actor", Language::Pt, "nascimento", "birth_date"),
            ("actor", Language::En, "born", "birth_place"),
            ("film", Language::En, "directed by", "directed_by"),
            ("actor", Language::En, "born", "birth_date"),
            ("actor", Language::Pt, "Nascimento 2", "birth_place"),
            ("actor", Language::Vn, "born", "birth_date"),
        ];
        let mut plain = GroundTruth::new();
        let mut indexed = GroundTruth::new();
        plain.add_sense("actor", Language::En, "died", "death_date");
        indexed.add_sense("actor", Language::En, "died", "death_date");
        for (type_id, language, name, concept) in senses {
            plain.add_sense(type_id, language.clone(), name, concept);
            let mut index = indexed.take_indexed(type_id);
            index.add(&language, &wiki_text::normalize_label(name), concept);
            indexed.restore(index);
        }
        assert_eq!(
            indexed.type_ids().collect::<Vec<_>>(),
            plain.type_ids().collect::<Vec<_>>()
        );
        for type_id in plain.type_ids() {
            assert_eq!(
                indexed.for_type(type_id).unwrap().senses,
                plain.for_type(type_id).unwrap().senses,
                "{type_id}"
            );
        }
        // A type nothing was recorded for stays unlisted.
        let untouched = indexed.take_indexed("book");
        indexed.restore(untouched);
        assert!(indexed.for_type("book").is_none());
    }
}
