//! Dual-language schema construction.
//!
//! For one entity type and one language pair, the matcher works on the
//! *dual-language schema*: the union of the attributes observed in the
//! English and foreign-language infoboxes of cross-linked article pairs
//! (Section 2 of the paper). Attributes with the same (normalised) label are
//! grouped together and their evidence is pooled (the paper's attribute
//! groups `AG`):
//!
//! * a **value vector** — canonical tokens of every value recorded for the
//!   attribute, plus a variant translated into English through the bilingual
//!   title dictionary (used by `vsim`);
//! * a **link vector** — the cross-language entity clusters reached by the
//!   hyperlinks inside the attribute's values (used by `lsim`);
//! * an **occurrence pattern** — which dual-language infoboxes contain the
//!   attribute (used by LSI and the grouping scores).

use std::collections::HashMap;
use std::sync::Arc;

use wiki_corpus::{Article, ArticleId, AttributeValue, Corpus, Language};
use wiki_text::tokenize::split_value_atoms;
use wiki_text::{tokenize_value, TermArena, TermArenaBuilder, TermVector};
use wiki_translate::TitleDictionary;

/// Pooled evidence for one attribute label of one language.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeStats {
    /// Language the attribute belongs to.
    pub language: Language,
    /// Normalised attribute label.
    pub name: String,
    /// Number of infoboxes (of this type and language) containing the
    /// attribute.
    pub occurrences: usize,
    /// Canonical value tokens with raw frequencies (dates and numbers are
    /// normalised to language-independent tokens).
    pub values: TermVector,
    /// Canonical value tokens translated into English via the title
    /// dictionary (identical to `values` for English attributes).
    pub translated_values: TermVector,
    /// Raw value atoms (normalised surface strings, *no* date/number
    /// canonicalisation). Baselines that match literal values — Bouma's
    /// value equality, COMA++'s instance matcher — operate on these.
    pub raw_values: TermVector,
    /// Raw value atoms translated into English via the title dictionary
    /// (the "+D" instance configurations of COMA++).
    pub translated_raw_values: TermVector,
    /// Cross-language entity clusters reached by hyperlinks in the values.
    pub links: TermVector,
    /// Occurrence pattern over the dual-language infoboxes (`true` when the
    /// attribute appears in dual infobox `j`).
    pub occurrence_pattern: Vec<bool>,
}

impl AttributeStats {
    /// Number of dual infoboxes in which this attribute co-occurs with
    /// `other` (both marked present).
    pub fn co_occurrences(&self, other: &AttributeStats) -> usize {
        self.occurrence_pattern
            .iter()
            .zip(&other.occurrence_pattern)
            .filter(|(a, b)| **a && **b)
            .count()
    }
}

/// The dual-language schema of one entity type.
#[derive(Debug, Clone, PartialEq)]
pub struct DualSchema {
    /// Language pair `(foreign, English)`.
    pub languages: (Language, Language),
    /// Foreign-language type label.
    pub label_other: String,
    /// English type label.
    pub label_en: String,
    /// Attribute groups of both languages.
    pub attributes: Vec<AttributeStats>,
    /// Number of dual-language infoboxes the schema was built from.
    pub dual_count: usize,
    /// The interned vocabulary shared by every attribute vector of this
    /// schema (value tokens, dictionary translations, raw atoms and
    /// link-cluster tokens alike).
    arena: Arc<TermArena>,
    index: HashMap<(Language, String), usize>,
}

/// The English side of every dual schema.
static ENGLISH: Language = Language::En;

/// The cross-linked `(English, foreign)` article pairs whose articles carry
/// the type's two labels: the dual infoboxes of the type's schema, in the
/// order that numbers them.
pub(crate) fn dual_pairs<'c>(
    corpus: &'c Corpus,
    other: &Language,
    label_other: &str,
    label_en: &str,
) -> Vec<(&'c Article, &'c Article)> {
    corpus
        .cross_language_pairs(&ENGLISH, other)
        .into_iter()
        .filter_map(|(en_id, other_id)| {
            let en_article = corpus.get(en_id)?;
            let other_article = corpus.get(other_id)?;
            (en_article.entity_type == label_en && other_article.entity_type == label_other)
                .then_some((en_article, other_article))
        })
        .collect()
}

/// The attribute groups of a dual schema: each group's `(language,
/// normalised name)` key in first-seen order, and the lookup from key to
/// group.
#[derive(Default)]
pub(crate) struct AttributeGroups {
    pub(crate) keys: Vec<(Language, String)>,
    pub(crate) index: HashMap<(Language, String), usize>,
}

impl AttributeGroups {
    /// The group of a normalised name, opened if it is new; `None` for an
    /// empty name, which belongs to no group.
    fn group_of(&mut self, language: &Language, name: String) -> Option<usize> {
        if name.is_empty() {
            return None;
        }
        let key = (language.clone(), name);
        if let Some(&group) = self.index.get(&key) {
            return Some(group);
        }
        self.keys.push(key.clone());
        self.index.insert(key, self.keys.len() - 1);
        Some(self.keys.len() - 1)
    }
}

/// One attribute occurrence met by [`walk_attribute_groups`].
pub(crate) struct Occurrence<'c> {
    /// The dual infobox (index into the pairs) it occurs in.
    pub(crate) pair: usize,
    /// Its attribute group.
    pub(crate) group: usize,
    /// The language of its side of the pair.
    pub(crate) language: &'c Language,
    /// The article whose infobox holds it.
    pub(crate) article: &'c Article,
    /// Its position in that infobox.
    pub(crate) position: usize,
}

impl<'c> Occurrence<'c> {
    /// The infobox entry itself.
    pub(crate) fn attribute(&self) -> &'c AttributeValue {
        &self.article.infobox.attributes[self.position]
    }
}

/// Walks the attribute occurrences of `pairs` in the order that defines a
/// dual schema — pair by pair, the English infobox before the foreign one,
/// each in infobox order — and hands `visit` every occurrence whose name
/// normalises to a non-empty label, with its attribute group. Groups are
/// numbered in first-seen order, so the occurrence that opens a group comes
/// with `group` equal to the number of groups before it.
///
/// Each distinct raw name of each language is normalised once per walk; the
/// groups are those of normalising every occurrence's name, as the group of
/// a raw name depends on nothing else. [`DualSchema::build`] and the delta
/// patcher's skeleton walk both go through here, so they cannot disagree
/// on a group.
pub(crate) fn walk_attribute_groups<'c>(
    pairs: &[(&'c Article, &'c Article)],
    other: &'c Language,
    mut visit: impl FnMut(Occurrence<'c>),
) -> AttributeGroups {
    let mut groups = AttributeGroups::default();
    let mut by_raw_name: HashMap<(&Language, &str), Option<usize>> = HashMap::new();
    for (pair, &(en_article, other_article)) in pairs.iter().enumerate() {
        for (language, article) in [(&ENGLISH, en_article), (other, other_article)] {
            for (position, attr) in article.infobox.attributes.iter().enumerate() {
                let group = *by_raw_name
                    .entry((language, attr.name.as_str()))
                    .or_insert_with(|| groups.group_of(language, attr.normalized_name()));
                if let Some(group) = group {
                    visit(Occurrence {
                        pair,
                        group,
                        language,
                        article,
                        position,
                    });
                }
            }
        }
    }
    groups
}

/// Per-attribute term-occurrence streams recorded while walking the corpus,
/// before the type's vocabulary is frozen: each channel is a list of
/// *provisional* arena-builder ids, one per token occurrence.
struct AttributeCollector {
    occurrences: usize,
    values: Vec<u32>,
    raw_values: Vec<u32>,
    links: Vec<u32>,
    occurrence_pattern: Vec<bool>,
}

impl AttributeCollector {
    fn new(dual_count: usize) -> Self {
        Self {
            occurrences: 0,
            values: Vec::new(),
            raw_values: Vec::new(),
            links: Vec::new(),
            occurrence_pattern: vec![false; dual_count],
        }
    }
}

/// Turns one channel's occurrence stream into an interned vector: map the
/// provisional ids through `remap` and hand the id stream to
/// [`TermVector::from_id_occurrences`], which sorts once and collapses runs
/// with the exact float operations (in the exact term order) of the
/// string-keyed incremental `add` this replaces.
fn vector_from_occurrences(
    arena: &Arc<TermArena>,
    occurrences: &[u32],
    remap: impl Fn(u32) -> u32,
) -> TermVector {
    let ids: Vec<u32> = occurrences.iter().map(|&prov| remap(prov)).collect();
    TermVector::from_id_occurrences(Arc::clone(arena), ids)
}

impl DualSchema {
    /// Builds the dual schema of the entity type labelled `label_other` /
    /// `label_en` from the corpus.
    ///
    /// `dictionary` must translate titles from the foreign language into
    /// English (see [`TitleDictionary::from_corpus`]).
    pub fn build(
        corpus: &Corpus,
        other: &Language,
        label_other: &str,
        label_en: &str,
        dictionary: &TitleDictionary,
    ) -> Self {
        let _span = wiki_obs::Span::enter("schema_build");
        let clusters = corpus.entity_clusters();
        let pairs = dual_pairs(corpus, other, label_other, label_en);
        let dual_count = pairs.len();

        // Pass 1 — walk the corpus once, interning every token into a
        // provisional vocabulary and recording per-attribute occurrence
        // streams. No translation happens here: the dictionary is consulted
        // once per *distinct* term below, not once per occurrence.
        //
        // String work is done once per distinct string. A value string's
        // first occurrence tokenizes it, interning its value tokens and then
        // its raw atoms into `value_ids`, and `value_spans` records where
        // the two runs start and end; a repeat copies those ids. A link
        // target is resolved to its cluster's token once, and a cluster's
        // token is spelled once. A first occurrence interns what a
        // per-occurrence walk interns there, in the same order, so every
        // provisional id is unchanged.
        let intern_span = wiki_obs::Span::enter("arena_intern");
        let mut terms = TermArenaBuilder::new();
        let mut collectors: Vec<AttributeCollector> = Vec::new();
        let mut value_spans: HashMap<&str, [usize; 3]> = HashMap::new();
        let mut value_ids: Vec<u32> = Vec::new();
        let mut link_ids: HashMap<(&Language, &str), Option<u32>> = HashMap::new();
        let mut cluster_ids: HashMap<ArticleId, u32> = HashMap::new();

        let groups = walk_attribute_groups(&pairs, other, |occurrence| {
            if occurrence.group == collectors.len() {
                collectors.push(AttributeCollector::new(dual_count));
            }
            let stats = &mut collectors[occurrence.group];
            if !stats.occurrence_pattern[occurrence.pair] {
                stats.occurrence_pattern[occurrence.pair] = true;
                stats.occurrences += 1;
            }
            let attr = occurrence.attribute();
            let [start, split, end] =
                *value_spans.entry(attr.value.as_str()).or_insert_with(|| {
                    let start = value_ids.len();
                    // Canonical value tokens (dates/numbers normalised).
                    for token in tokenize_value(&attr.value) {
                        value_ids.push(terms.intern_owned(token));
                    }
                    let split = value_ids.len();
                    // Raw value atoms (surface strings as written).
                    for atom in split_value_atoms(&attr.value) {
                        value_ids.push(terms.intern_owned(atom));
                    }
                    [start, split, value_ids.len()]
                });
            stats.values.extend_from_slice(&value_ids[start..split]);
            stats.raw_values.extend_from_slice(&value_ids[split..end]);
            // Link tokens: the cross-language cluster of the landing
            // article, so the same real-world entity yields the same token
            // regardless of language.
            for link in &attr.links {
                let token = *link_ids
                    .entry((occurrence.language, link.target.as_str()))
                    .or_insert_with(|| {
                        let target = corpus.get_by_title(occurrence.language, &link.target)?;
                        let cluster = clusters.cluster_of(target.id)?;
                        Some(
                            *cluster_ids
                                .entry(cluster)
                                .or_insert_with(|| terms.intern_owned(format!("e{}", cluster.0))),
                        )
                    });
                stats.links.extend(token);
            }
        });

        intern_span.finish();

        // Pass 2 — freeze the raw vocabulary, translate each distinct
        // foreign-language value term exactly once, and fold the translation
        // outputs into the final (shared, lexicographically id-ordered)
        // arena of the type.
        let (raw_arena, prov_to_raw) = terms.freeze();
        let mut needs_translation = vec![false; raw_arena.len()];
        for (collector, (language, _)) in collectors.iter().zip(&groups.keys) {
            if language != other {
                continue;
            }
            for &prov in collector.values.iter().chain(&collector.raw_values) {
                needs_translation[prov_to_raw[prov as usize] as usize] = true;
            }
        }
        let translations = dictionary.translate_arena(&raw_arena, &needs_translation);

        let mut final_terms = TermArenaBuilder::new();
        let raw_to_final: Vec<u32> = raw_arena.terms().map(|t| final_terms.intern(t)).collect();
        let raw_to_translated: Vec<u32> = translations
            .iter()
            .zip(raw_arena.terms())
            .map(|(translated, raw)| final_terms.intern(translated.as_deref().unwrap_or(raw)))
            .collect();
        let (arena, freeze_remap) = final_terms.freeze();
        let final_of =
            |prov: u32| freeze_remap[raw_to_final[prov_to_raw[prov as usize] as usize] as usize];
        let translated_of = |prov: u32| {
            freeze_remap[raw_to_translated[prov_to_raw[prov as usize] as usize] as usize]
        };

        let AttributeGroups { keys, index } = groups;
        let attributes = collectors
            .into_iter()
            .zip(keys)
            .map(|(collector, (language, name))| {
                let values = vector_from_occurrences(&arena, &collector.values, final_of);
                let raw_values = vector_from_occurrences(&arena, &collector.raw_values, final_of);
                let (translated_values, translated_raw_values) = if language == *other {
                    (
                        vector_from_occurrences(&arena, &collector.values, translated_of),
                        vector_from_occurrences(&arena, &collector.raw_values, translated_of),
                    )
                } else {
                    // English attributes translate to themselves.
                    (values.clone(), raw_values.clone())
                };
                let links = vector_from_occurrences(&arena, &collector.links, final_of);
                AttributeStats {
                    language,
                    name,
                    occurrences: collector.occurrences,
                    values,
                    translated_values,
                    raw_values,
                    translated_raw_values,
                    links,
                    occurrence_pattern: collector.occurrence_pattern,
                }
            })
            .collect();

        Self {
            languages: (other.clone(), ENGLISH.clone()),
            label_other: label_other.to_string(),
            label_en: label_en.to_string(),
            attributes,
            dual_count,
            arena,
            index,
        }
    }

    /// Reassembles a schema whose attribute vectors are **already** interned
    /// on `arena`, rebuilding the private `(language, name) → index` lookup
    /// from the attribute list — the zero-copy path the snapshot decoder
    /// takes after reading the type's string table.
    pub(crate) fn from_parts_in_arena(
        languages: (Language, Language),
        label_other: String,
        label_en: String,
        attributes: Vec<AttributeStats>,
        dual_count: usize,
        arena: Arc<TermArena>,
    ) -> Self {
        let index = attributes
            .iter()
            .enumerate()
            .map(|(i, attr)| ((attr.language.clone(), attr.name.clone()), i))
            .collect();
        Self {
            languages,
            label_other,
            label_en,
            attributes,
            dual_count,
            arena,
            index,
        }
    }

    /// The interned vocabulary shared by every attribute vector of this
    /// schema.
    pub fn arena(&self) -> &Arc<TermArena> {
        &self.arena
    }

    /// Total `(id, weight)` entries across every attribute vector (all five
    /// evidence channels) — the schema's share of the engine's
    /// `vector_entries` memory gauge, computed once at preparation time.
    pub fn vector_entry_count(&self) -> u64 {
        self.attributes
            .iter()
            .map(|attr| {
                (attr.values.len()
                    + attr.translated_values.len()
                    + attr.raw_values.len()
                    + attr.translated_raw_values.len()
                    + attr.links.len()) as u64
            })
            .sum()
    }

    /// Number of attribute groups (both languages).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Index of an attribute by `(language, normalised name)`.
    pub fn index_of(&self, language: &Language, name: &str) -> Option<usize> {
        self.index
            .get(&(language.clone(), wiki_text::normalize_label(name)))
            .copied()
    }

    /// The attribute at `idx`.
    pub fn attribute(&self, idx: usize) -> &AttributeStats {
        &self.attributes[idx]
    }

    /// A dense language id per attribute, numbered in first-seen order,
    /// and the number of distinct languages.
    pub(crate) fn language_ids(&self) -> (Vec<usize>, usize) {
        let mut distinct: Vec<&Language> = Vec::new();
        let ids = self
            .attributes
            .iter()
            .map(|attr| {
                distinct
                    .iter()
                    .position(|&l| *l == attr.language)
                    .unwrap_or_else(|| {
                        distinct.push(&attr.language);
                        distinct.len() - 1
                    })
            })
            .collect();
        (ids, distinct.len())
    }

    /// Indices of the attributes of one language.
    pub fn attributes_in(&self, language: &Language) -> Vec<usize> {
        self.attributes
            .iter()
            .enumerate()
            .filter(|(_, a)| &a.language == language)
            .map(|(i, _)| i)
            .collect()
    }

    /// Attribute occurrence frequencies of one language
    /// (`normalised name → count`), used by the weighted evaluation metrics.
    pub fn frequencies(&self, language: &Language) -> HashMap<String, f64> {
        self.attributes
            .iter()
            .filter(|a| &a.language == language)
            .map(|a| (a.name.clone(), a.occurrences as f64))
            .collect()
    }

    /// The grouping score `g(ap, aq) = Opq / min(Op, Oq)` of the paper's
    /// `ReviseUncertain` step (computed over dual infoboxes; for attributes
    /// of the same language this equals the monolingual co-occurrence rate).
    pub fn grouping_score(&self, p: usize, q: usize) -> f64 {
        let a = &self.attributes[p];
        let b = &self.attributes[q];
        let denom = a.occurrences.min(b.occurrences);
        if denom == 0 {
            return 0.0;
        }
        a.co_occurrences(b) as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Infobox, Link};

    /// Builds a miniature two-entity Pt-En film corpus by hand.
    fn tiny_corpus() -> Corpus {
        let mut corpus = Corpus::new();

        // Referenced entities with cross-language links.
        let mut person_en = Article::new(
            "Bernardo Bertolucci",
            Language::En,
            "Person",
            Infobox::new("Infobox person"),
        );
        person_en.add_cross_link(Language::Pt, "Bernardo Bertolucci");
        let person_pt = Article::new(
            "Bernardo Bertolucci",
            Language::Pt,
            "Person",
            Infobox::new("Infobox person"),
        );
        let mut country_en = Article::new(
            "Italy",
            Language::En,
            "Country",
            Infobox::new("Infobox country"),
        );
        country_en.add_cross_link(Language::Pt, "Itália");
        let country_pt = Article::new(
            "Itália",
            Language::Pt,
            "Country",
            Infobox::new("Infobox country"),
        );
        corpus.insert(person_en);
        corpus.insert(person_pt);
        corpus.insert(country_en);
        corpus.insert(country_pt);

        for i in 0..2 {
            let mut en_box = Infobox::new("Infobox Film");
            en_box.push(AttributeValue::linked(
                "Directed by",
                "Bernardo Bertolucci",
                vec![Link::plain("Bernardo Bertolucci")],
            ));
            en_box.push(AttributeValue::linked(
                "Country",
                "Italy",
                vec![Link::plain("Italy")],
            ));
            en_box.push(AttributeValue::text("Running time", "160 minutes"));
            let mut en_article = Article::new(format!("Film {i}"), Language::En, "Film", en_box);
            en_article.add_cross_link(Language::Pt, format!("Filme {i}"));

            let mut pt_box = Infobox::new("Infobox Filme");
            pt_box.push(AttributeValue::linked(
                "Direção",
                "Bernardo Bertolucci",
                vec![Link::plain("Bernardo Bertolucci")],
            ));
            pt_box.push(AttributeValue::linked(
                "País",
                "Itália",
                vec![Link::plain("Itália")],
            ));
            pt_box.push(AttributeValue::text("Duração", "160 minutos"));
            let mut pt_article = Article::new(format!("Filme {i}"), Language::Pt, "Filme", pt_box);
            pt_article.add_cross_link(Language::En, format!("Film {i}"));

            corpus.insert(en_article);
            corpus.insert(pt_article);
        }
        corpus
    }

    fn build_schema(corpus: &Corpus) -> DualSchema {
        let dictionary = TitleDictionary::from_corpus(corpus, &Language::Pt, &Language::En);
        DualSchema::build(corpus, &Language::Pt, "Filme", "Film", &dictionary)
    }

    #[test]
    fn groups_attributes_by_language_and_label() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        assert_eq!(schema.dual_count, 2);
        assert_eq!(schema.len(), 6);
        assert_eq!(schema.attributes_in(&Language::En).len(), 3);
        assert_eq!(schema.attributes_in(&Language::Pt).len(), 3);
        let directed = schema.index_of(&Language::En, "Directed by").unwrap();
        assert_eq!(schema.attribute(directed).occurrences, 2);
    }

    #[test]
    fn translated_values_use_the_dictionary() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let pais = schema.index_of(&Language::Pt, "país").unwrap();
        let stats = schema.attribute(pais);
        let holds = |vector: &TermVector, term: &str| vector.iter().any(|(t, _)| t == term);
        // Raw value keeps the Portuguese form; the translated vector holds
        // the English title.
        assert!(holds(&stats.values, "italia"));
        assert!(holds(&stats.translated_values, "italy"));
        // English attributes translate to themselves.
        let country = schema.index_of(&Language::En, "country").unwrap();
        assert!(holds(&schema.attribute(country).translated_values, "italy"));
    }

    #[test]
    fn link_vectors_share_cluster_tokens_across_languages() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let direcao = schema.index_of(&Language::Pt, "direção").unwrap();
        let directed = schema.index_of(&Language::En, "directed by").unwrap();
        let a = &schema.attribute(direcao).links;
        let b = &schema.attribute(directed).links;
        assert!(a.cosine(b) > 0.99, "cosine = {}", a.cosine(b));
    }

    #[test]
    fn occurrence_patterns_and_grouping_scores() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let directed = schema.index_of(&Language::En, "directed by").unwrap();
        let country = schema.index_of(&Language::En, "country").unwrap();
        assert_eq!(
            schema
                .attribute(directed)
                .co_occurrences(schema.attribute(country)),
            2
        );
        assert!((schema.grouping_score(directed, country) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequencies_cover_only_requested_language() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let freq = schema.frequencies(&Language::Pt);
        assert_eq!(freq.len(), 3);
        // Keys are normalised labels (diacritics folded).
        assert_eq!(freq["direcao"], 2.0);
        assert!(!freq.contains_key("directed by"));
    }

    #[test]
    fn candidate_index_is_sound_for_vsim_and_lsim() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let candidates = crate::filter::candidate_pairs(&schema);
        let candidate = |p: usize, q: usize| {
            candidates
                .iter()
                .find(|c| (c.p as usize, c.q as usize) == (p.min(q), p.max(q)))
        };
        for p in 0..schema.len() {
            for q in (p + 1)..schema.len() {
                let a = schema.attribute(p);
                let b = schema.attribute(q);
                // Soundness: a pair the generator does not flag on a
                // channel must have exactly zero similarity on it.
                let (value, link) = candidate(p, q).map_or((false, false), |c| (c.value, c.link));
                if !value {
                    assert_eq!(a.values.cosine(&b.values), 0.0);
                    assert_eq!(a.translated_values.cosine(&b.translated_values), 0.0);
                }
                if !link {
                    assert_eq!(a.links.cosine(&b.links), 0.0);
                }
            }
        }
        // "directed by" / "direção" share the translated person value and
        // the link cluster; "running time" / "duração" share the canonical
        // numeric token but no links.
        let directed = schema.index_of(&Language::En, "directed by").unwrap();
        let direcao = schema.index_of(&Language::Pt, "direção").unwrap();
        let both = candidate(directed, direcao).expect("a candidate pair");
        assert!(both.value && both.link);
        let time = schema.index_of(&Language::En, "running time").unwrap();
        let duracao = schema.index_of(&Language::Pt, "duração").unwrap();
        let value_only = candidate(time, duracao).expect("a candidate pair");
        assert!(value_only.value && !value_only.link);
        assert!(candidates.iter().filter(|c| c.value).count() >= 2);
    }

    #[test]
    fn pt_and_en_vocabularies_share_one_arena_without_collision() {
        let corpus = tiny_corpus();
        let schema = build_schema(&corpus);
        let arena = schema.arena();
        // Every vector of every attribute — both languages, all five
        // channels — lives on the schema's single arena, and each id
        // round-trips through its term.
        for attr in &schema.attributes {
            for vector in [
                &attr.values,
                &attr.translated_values,
                &attr.raw_values,
                &attr.translated_raw_values,
                &attr.links,
            ] {
                assert!(Arc::ptr_eq(vector.arena(), arena));
                for (id, _) in vector.id_entries() {
                    assert_eq!(arena.intern(arena.resolve(*id)), Some(*id));
                }
            }
        }
        // Distinct terms of different languages get distinct ids...
        let italia = arena.intern("italia").expect("pt value term interned");
        let italy = arena.intern("italy").expect("en value term interned");
        assert_ne!(italia, italy);
        let pais = schema.attribute(schema.index_of(&Language::Pt, "país").unwrap());
        let country = schema.attribute(schema.index_of(&Language::En, "country").unwrap());
        assert!(pais.values.id_entries().iter().any(|(id, _)| *id == italia));
        assert!(country
            .values
            .id_entries()
            .iter()
            .any(|(id, _)| *id == italy));
        // ...while the dictionary-translated Pt vector meets the En vector
        // on exactly the shared "italy" id — the aliasing `vsim` needs and
        // the only aliasing there is.
        assert!(pais
            .translated_values
            .id_entries()
            .iter()
            .any(|(id, _)| *id == italy));
        assert!(pais
            .translated_values
            .id_entries()
            .iter()
            .all(|(id, _)| *id != italia));
    }

    #[test]
    fn missing_type_yields_empty_schema() {
        let corpus = tiny_corpus();
        let dictionary = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let schema = DualSchema::build(&corpus, &Language::Pt, "Livro", "Book", &dictionary);
        assert!(schema.is_empty());
        assert_eq!(schema.dual_count, 0);
    }
}
