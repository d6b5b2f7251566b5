//! Incremental corpus updates: [`CorpusDelta`] and the artifact patcher.
//!
//! A [`CorpusDelta`] is an ordered batch of entity mutations (upserts and
//! removals). [`crate::MatchEngine::apply_delta`] applies one to its corpus
//! and then *patches* every cached per-type artifact set instead of
//! rebuilding it:
//!
//! * the type's frozen [`wiki_text::TermArena`] is extended with the sorted
//!   merge of the new tokens ([`wiki_text::TermArena::extended_with`]),
//!   whose **monotone** old → new id remap preserves the id ⇔ term-order
//!   invariant every merge walk depends on;
//! * attribute vectors whose evidence provably did not change migrate onto
//!   the extended arena id-by-id with their weight bits taken verbatim
//!   ([`wiki_text::TermVector::remapped`]);
//! * only *dirty* attributes — those whose token streams may differ under
//!   the mutated corpus — are re-collected from the corpus walk, and only
//!   evidence pairs touching a dirty attribute are recomputed; every other
//!   pair keeps its exact bits (clean pairs are copied from the old table,
//!   which is sound because a clean attribute's vectors are bit-identical
//!   and candidacy depends on nothing else);
//! * the LSI model is only refitted when the schema *skeleton* (the
//!   attribute sequence with its occurrence patterns) changed — a
//!   value-only edit keeps the occurrence matrix bit-identical, so the old
//!   table's LSI source is shared and every LSI score is reused.
//!
//! The result is pinned bit-identical to a cold rebuild of the mutated
//! corpus by the `delta_equivalence` proptest suite.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use wiki_corpus::store::EntityClusters;
use wiki_corpus::{Article, ArticleId, AttributeValue, Corpus, Language, TypePairing};
use wiki_linalg::LsiConfig;
use wiki_text::tokenize::split_value_atoms;
use wiki_text::{normalize, tokenize_value, TermVector};
use wiki_translate::TitleDictionary;

use crate::engine::PreparedType;
use crate::filter::candidate_pairs;
use crate::schema::{
    dual_pairs, walk_attribute_groups, AttributeGroups, AttributeStats, DualSchema,
};
use crate::similarity::{Evidence, SimilarityTable};

/// One entity mutation of a [`CorpusDelta`].
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Inserts the article, or replaces the live article with the same
    /// `(language, title)` key in place (keeping its id).
    Upsert(Article),
    /// Tombstones the live article with this `(language, title)` key; a
    /// no-op when no such article exists.
    Remove {
        /// Language edition of the article to remove.
        language: Language,
        /// Exact title of the article to remove.
        title: String,
    },
}

impl DeltaOp {
    /// The `(language, title)` key this operation targets.
    pub fn key(&self) -> (&Language, &str) {
        match self {
            DeltaOp::Upsert(article) => (&article.language, article.title.as_str()),
            DeltaOp::Remove { language, title } => (language, title.as_str()),
        }
    }
}

/// An ordered batch of entity mutations, applied atomically by
/// [`crate::MatchEngine::apply_delta`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorpusDelta {
    /// The mutations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl CorpusDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// A single-upsert delta (insert-or-update).
    pub fn upsert(article: Article) -> Self {
        Self {
            ops: vec![DeltaOp::Upsert(article)],
        }
    }

    /// A single-removal delta.
    pub fn remove(language: Language, title: impl Into<String>) -> Self {
        Self {
            ops: vec![DeltaOp::Remove {
                language,
                title: title.into(),
            }],
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: DeltaOp) {
        self.ops.push(op);
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Applies every operation to `corpus` in order, returning
    /// `(inserted, updated, removed)` counts. Upserts of a live title
    /// replace in place (id preserved); removals of unknown titles count
    /// as nothing.
    pub fn apply_to(&self, corpus: &mut Corpus) -> (usize, usize, usize) {
        let (mut inserted, mut updated, mut removed) = (0, 0, 0);
        for op in &self.ops {
            match op {
                DeltaOp::Upsert(article) => {
                    if corpus
                        .get_by_title(&article.language, &article.title)
                        .is_some()
                    {
                        corpus.replace(article.clone());
                        updated += 1;
                    } else {
                        corpus.insert(article.clone());
                        inserted += 1;
                    }
                }
                DeltaOp::Remove { language, title } => {
                    if corpus.remove_by_title(language, title).is_some() {
                        removed += 1;
                    }
                }
            }
        }
        (inserted, updated, removed)
    }

    /// The set of `(language, title)` keys this delta touches — the seed of
    /// the artifact patcher's dirty-attribute analysis.
    pub fn mutated_titles(&self) -> HashSet<(Language, String)> {
        self.ops
            .iter()
            .map(|op| {
                let (language, title) = op.key();
                (language.clone(), title.to_string())
            })
            .collect()
    }

    /// A delta whose [`apply_to`](Self::apply_to) transforms `base` into
    /// `target` **slot-exactly**: the same live articles under the same
    /// [`wiki_corpus::ArticleId`]s, with the same tombstoned slots — so the
    /// corpus fingerprints come out identical. This is the journal
    /// compactor: an arbitrarily long mutation history collapses into one
    /// equivalent record.
    ///
    /// `target` must have evolved from `base` through `apply_to`-style
    /// mutations (in-place replacements, appends, tombstoned removals); a
    /// slot dead in `base` but live in `target` cannot be reproduced (ids
    /// are never revived), and callers are expected to verify the result by
    /// fingerprint before trusting it. Appended-then-removed slots are
    /// reproduced by burning the id with a throwaway insert + remove (the
    /// dummy content is invisible to every accessor and to the
    /// fingerprint — only the id gap it leaves matters).
    pub fn diff(base: &Corpus, target: &Corpus) -> CorpusDelta {
        let mut delta = CorpusDelta::new();
        let shared = base.slot_count().min(target.slot_count());
        // Removals first, so a key re-inserted at an appended slot is free
        // again by the time its upsert runs.
        for slot in 0..shared {
            let id = ArticleId(slot as u32);
            if let (Some(old), None) = (base.get(id), target.get(id)) {
                delta.push(DeltaOp::Remove {
                    language: old.language.clone(),
                    title: old.title.clone(),
                });
            }
        }
        // In-place replacements of slots live on both sides (a live slot's
        // `(language, title)` key never changes, so the upsert lands on the
        // same id).
        for slot in 0..shared {
            let id = ArticleId(slot as u32);
            if let (Some(old), Some(new)) = (base.get(id), target.get(id)) {
                if old != new {
                    delta.push(DeltaOp::Upsert(new.clone()));
                }
            }
        }
        // Appended slots in id order, so each insert allocates exactly the
        // id `target` holds it under.
        for slot in base.slot_count()..target.slot_count() {
            let id = ArticleId(slot as u32);
            match target.get(id) {
                Some(article) => delta.push(DeltaOp::Upsert(article.clone())),
                None => {
                    // Tombstoned append: burn the slot. The \u{1} prefix
                    // keeps the throwaway key out of any real title space.
                    let title = format!("\u{1}wm-burned-slot-{slot}");
                    let language = Language::En;
                    delta.push(DeltaOp::Upsert(Article::new(
                        title.clone(),
                        language.clone(),
                        "",
                        wiki_corpus::Infobox::default(),
                    )));
                    delta.push(DeltaOp::Remove { language, title });
                }
            }
        }
        delta
    }
}

/// What one [`crate::MatchEngine::apply_delta`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Articles newly inserted.
    pub inserted: usize,
    /// Live articles replaced in place.
    pub updated: usize,
    /// Articles tombstoned.
    pub removed: usize,
    /// Cached per-type artifact sets that were patched. Cached types the
    /// delta provably cannot reach carry over untouched and are not
    /// counted; uncached types stay lazy and simply build against the
    /// mutated corpus on first use.
    pub types_patched: usize,
    /// Similarity pairs with a dirty endpoint across all patched types —
    /// the pairs a patch re-derives (computing the cosines of those that
    /// are candidates); every other pair kept its exact bits.
    pub rows_recomputed: u64,
    /// Corpus fingerprint before the delta.
    pub fingerprint_before: u64,
    /// Corpus fingerprint after the delta.
    pub fingerprint: u64,
}

/// Shared inputs of one delta application, computed once and consulted by
/// every per-type patch.
pub(crate) struct PatchContext<'a> {
    old_corpus: &'a Corpus,
    new_corpus: &'a Corpus,
    new_clusters: EntityClusters,
    new_dictionary: &'a TitleDictionary,
    /// Normalised source-title keys whose dictionary entry was added,
    /// removed or changed — a foreign attribute holding such a term must
    /// re-translate.
    changed_keys: HashSet<String>,
    /// True when any article live in both corpora changed its entity
    /// cluster — link tokens are cluster-named, so this invalidates every
    /// attribute conservatively.
    clusters_changed: bool,
    /// The delta's `(language, title)` keys, grouped by language so that
    /// a lookup borrows its key instead of building one.
    mutated: HashMap<Language, HashSet<String>>,
    /// `(language, entity_type)` of every article (in either corpus) that
    /// was mutated or holds a link to a mutated title — the only articles
    /// through which a delta can reach a type's pair list or token
    /// streams. A type whose labels miss this set entirely is untouched
    /// (provided clusters and dictionary are unchanged too).
    affected_types: HashSet<(&'a Language, &'a str)>,
}

impl<'a> PatchContext<'a> {
    pub(crate) fn new(
        old_corpus: &'a Corpus,
        new_corpus: &'a Corpus,
        old_dictionary: &TitleDictionary,
        new_dictionary: &'a TitleDictionary,
        delta: &CorpusDelta,
    ) -> Self {
        let old_clusters = old_corpus.entity_clusters();
        let new_clusters = new_corpus.entity_clusters();
        let clusters_changed = old_corpus.articles().any(|article| {
            new_corpus.get(article.id).is_some()
                && old_clusters.cluster_of(article.id) != new_clusters.cluster_of(article.id)
        });
        let old_entries: HashMap<&str, &str> = old_dictionary.entries().collect();
        let new_entries: HashMap<&str, &str> = new_dictionary.entries().collect();
        let mut changed_keys = HashSet::new();
        for (key, value) in &old_entries {
            if new_entries.get(key) != Some(value) {
                changed_keys.insert(key.to_string());
            }
        }
        for key in new_entries.keys() {
            if !old_entries.contains_key(key) {
                changed_keys.insert(key.to_string());
            }
        }
        let mut mutated: HashMap<Language, HashSet<String>> = HashMap::new();
        for (language, title) in delta.mutated_titles() {
            mutated.entry(language).or_default().insert(title);
        }
        let mut affected_types = HashSet::new();
        for corpus in [old_corpus, new_corpus] {
            for article in corpus.articles() {
                let owner = (&article.language, article.entity_type.as_str());
                if affected_types.contains(&owner) {
                    continue;
                }
                if touches_mutated(&mutated, article, &article.infobox.attributes) {
                    affected_types.insert(owner);
                }
            }
        }
        Self {
            old_corpus,
            new_corpus,
            new_clusters,
            new_dictionary,
            changed_keys,
            clusters_changed,
            mutated,
            affected_types,
        }
    }

    /// True when this type's artifacts provably cannot differ from a cold
    /// rebuild over the mutated corpus: clusters and dictionary unchanged
    /// (the two delta effects that cross type boundaries), and no mutated
    /// or mutated-linking article carries either of the type's labels (the
    /// only way a delta reaches its pair list, instances or tokens).
    fn type_untouched(&self, other: &Language, pairing: &TypePairing) -> bool {
        !self.clusters_changed
            && self.changed_keys.is_empty()
            && !self
                .affected_types
                .contains(&(&Language::En, pairing.label_en.as_str()))
            && !self
                .affected_types
                .contains(&(other, pairing.label_other.as_str()))
    }
}

/// Whether `article` was mutated, or one of `attributes` (taken from its
/// infobox) links to a mutated title of its language. Looks every key up
/// by borrow: the corpus-wide scans that call it allocate nothing.
fn touches_mutated(
    mutated: &HashMap<Language, HashSet<String>>,
    article: &Article,
    attributes: &[AttributeValue],
) -> bool {
    let Some(titles) = mutated.get(&article.language) else {
        return false;
    };
    titles.contains(article.title.as_str())
        || attributes.iter().any(|attr| {
            attr.links
                .iter()
                .any(|link| titles.contains(link.target.as_str()))
        })
}

/// One attribute group as seen by the skeleton walk: everything
/// [`DualSchema::build`]'s first pass derives *except* the token streams,
/// plus the instance list the dirty analysis compares.
struct AttrWalk {
    occurrences: usize,
    occurrence_pattern: Vec<bool>,
    /// Every infobox attribute entry contributing to this group, as
    /// `(owning article, position in its infobox)`, in walk order.
    instances: Vec<(ArticleId, usize)>,
}

/// The skeleton of one type's dual schema: the dual infobox count and the
/// attribute groups in first-seen order, from the walk
/// [`DualSchema::build`] takes — but without tokenising a single value.
struct TypeWalk {
    dual_count: usize,
    groups: AttributeGroups,
    attrs: Vec<AttrWalk>,
}

fn walk_type(corpus: &Corpus, other: &Language, label_other: &str, label_en: &str) -> TypeWalk {
    let pairs = dual_pairs(corpus, other, label_other, label_en);
    let dual_count = pairs.len();
    let mut attrs: Vec<AttrWalk> = Vec::new();
    let groups = walk_attribute_groups(&pairs, other, |occurrence| {
        if occurrence.group == attrs.len() {
            attrs.push(AttrWalk {
                occurrences: 0,
                occurrence_pattern: vec![false; dual_count],
                instances: Vec::new(),
            });
        }
        let walk = &mut attrs[occurrence.group];
        if !walk.occurrence_pattern[occurrence.pair] {
            walk.occurrence_pattern[occurrence.pair] = true;
            walk.occurrences += 1;
        }
        walk.instances
            .push((occurrence.article.id, occurrence.position));
    });
    TypeWalk {
        dual_count,
        groups,
        attrs,
    }
}

/// Maps each attribute of `new_walk` to its position in the old schema, if
/// it has one. The old walk and the old schema were derived from the same
/// corpus by the same traversal, so their attribute sequences coincide;
/// the guard degrades to a full per-attribute rebuild if they ever did not.
fn old_positions(
    old_walk: &TypeWalk,
    new_walk: &TypeWalk,
    old_schema: &DualSchema,
) -> Vec<Option<usize>> {
    let walks_coincide = old_walk.attrs.len() == old_schema.attributes.len()
        && old_walk
            .groups
            .keys
            .iter()
            .zip(&old_schema.attributes)
            .all(|((language, name), a)| *language == a.language && *name == a.name);
    new_walk
        .groups
        .keys
        .iter()
        .map(|key| {
            walks_coincide
                .then(|| old_walk.groups.index.get(key).copied())
                .flatten()
        })
        .collect()
}

/// Raw token streams re-collected for one dirty attribute (occurrence
/// order; vectors collapse them exactly like the cold build does).
#[derive(Default)]
struct DirtyTokens {
    values: Vec<String>,
    raw_values: Vec<String>,
    links: Vec<String>,
}

/// Decides, for one attribute of the *new* walk, whether its cold-rebuilt
/// vectors could differ from the old schema's — the soundness core of the
/// patcher. `true` means "rebuild from the corpus"; `false` is only
/// returned when every token of every channel is provably unchanged.
fn is_dirty(
    ctx: &PatchContext<'_>,
    language: &Language,
    new_walk: &AttrWalk,
    old_walk: Option<&AttrWalk>,
    old_attr: Option<&AttributeStats>,
) -> bool {
    if ctx.clusters_changed {
        return true;
    }
    let (old_walk, old_attr) = match (old_walk, old_attr) {
        (Some(w), Some(a)) => (w, a),
        _ => return true,
    };
    // A different instance list means tokens were added, removed or moved.
    if old_walk.instances != new_walk.instances {
        return true;
    }
    // Same instances — but an in-place replace keeps ids, so any mutated
    // owner invalidates, as does any link pointing at a mutated title
    // (its cluster token may appear, vanish or change).
    for &(id, pos) in &new_walk.instances {
        let article = ctx.new_corpus.get(id).expect("instance ids are live");
        if touches_mutated(
            &ctx.mutated,
            article,
            &article.infobox.attributes[pos..=pos],
        ) {
            return true;
        }
    }
    // Foreign attributes re-translate when the dictionary entry of any of
    // their value terms changed.
    if *language != Language::En && !ctx.changed_keys.is_empty() {
        for vector in [&old_attr.values, &old_attr.raw_values] {
            for (term, _) in vector.iter() {
                if ctx.changed_keys.contains(&normalize(term)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Patches one cached type's artifacts against the mutated corpus,
/// returning the new artifacts, the number of similarity pairs with a
/// dirty endpoint, and whether the type was patched at
/// all (a type the delta provably cannot reach short-circuits to the old
/// artifacts without walking the corpus). Everything else — clean vectors,
/// clean-pair scores, and (when the schema skeleton is unchanged) every LSI
/// score — keeps its exact bits.
pub(crate) fn patch_prepared_type(
    ctx: &PatchContext<'_>,
    pairing: &TypePairing,
    old: &PreparedType,
    lsi_config: LsiConfig,
) -> (PreparedType, u64, bool) {
    let other = ctx.new_corpus_other_language(&old.schema);
    if ctx.type_untouched(&other, pairing) {
        return (old.clone(), 0, false);
    }
    let old_walk = walk_type(
        ctx.old_corpus,
        &other,
        &pairing.label_other,
        &pairing.label_en,
    );
    let new_walk = walk_type(
        ctx.new_corpus,
        &other,
        &pairing.label_other,
        &pairing.label_en,
    );
    let dual_count = new_walk.dual_count;
    let keys = &new_walk.groups.keys;
    let old_of = old_positions(&old_walk, &new_walk, &old.schema);
    let dirty: Vec<bool> = new_walk
        .attrs
        .iter()
        .zip(keys)
        .zip(&old_of)
        .map(|((walk, (language, _)), &old_idx)| {
            is_dirty(
                ctx,
                language,
                walk,
                old_idx.map(|i| &old_walk.attrs[i]),
                old_idx.map(|i| &old.schema.attributes[i]),
            )
        })
        .collect();

    // Re-collect token streams for the dirty attributes only, from their
    // instances: a group's instances are its occurrences in the order the
    // cold build walks them.
    let english = Language::En;
    let mut tokens: HashMap<usize, DirtyTokens> = HashMap::new();
    for (i, walk) in new_walk.attrs.iter().enumerate() {
        if !dirty[i] {
            continue;
        }
        let language = &keys[i].0;
        let streams = tokens.entry(i).or_default();
        for &(id, pos) in &walk.instances {
            let article = ctx.new_corpus.get(id).expect("instance ids are live");
            let attr = &article.infobox.attributes[pos];
            streams.values.extend(tokenize_value(&attr.value));
            streams.raw_values.extend(split_value_atoms(&attr.value));
            for link in &attr.links {
                if let Some(target) = ctx.new_corpus.get_by_title(language, &link.target) {
                    if let Some(cluster) = ctx.new_clusters.cluster_of(target.id) {
                        streams.links.push(format!("e{}", cluster.0));
                    }
                }
            }
        }
    }

    // Extend the vocabulary: every dirty token, its dictionary translation
    // (for foreign value channels), and every dirty link token. The merge
    // keeps all old ids' relative order, so clean vectors migrate with one
    // linear remap pass; terms only the removed evidence used stay behind
    // as harmless extras (cosines only see shared terms).
    let mut translation_cache: HashMap<String, Option<String>> = HashMap::new();
    let mut translated = |term: &str| -> Option<String> {
        translation_cache
            .entry(term.to_string())
            .or_insert_with(|| ctx.new_dictionary.translate(term))
            .clone()
    };
    let mut extension: HashSet<String> = HashSet::new();
    for (&idx, streams) in &tokens {
        let foreign = keys[idx].0 != english;
        for term in streams.values.iter().chain(&streams.raw_values) {
            if foreign {
                if let Some(translation) = translated(term) {
                    extension.insert(translation);
                }
            }
            extension.insert(term.clone());
        }
        extension.extend(streams.links.iter().cloned());
    }
    let (arena, remap) = old.schema.arena().extended_with(extension);

    // Assemble the attribute groups in new-walk order: dirty groups rebuild
    // their five channels from the collected streams, clean groups migrate
    // the old vectors bit-verbatim (patterns always come from the new walk —
    // pair indices may have shifted even when a group's evidence did not).
    let ids_of = |stream: &[String]| -> Vec<u32> {
        stream
            .iter()
            .map(|t| arena.intern(t).expect("extension interned every token"))
            .collect()
    };
    let attributes: Vec<AttributeStats> = new_walk
        .attrs
        .iter()
        .zip(keys)
        .enumerate()
        .map(|(i, (walk, (language, name)))| {
            if let Some(streams) = tokens.get(&i) {
                let values =
                    TermVector::from_id_occurrences(Arc::clone(&arena), ids_of(&streams.values));
                let raw_values = TermVector::from_id_occurrences(
                    Arc::clone(&arena),
                    ids_of(&streams.raw_values),
                );
                let (translated_values, translated_raw_values) = if *language != english {
                    let mut translate_ids = |stream: &[String]| -> Vec<u32> {
                        stream
                            .iter()
                            .map(|t| {
                                let term = translated(t);
                                arena
                                    .intern(term.as_deref().unwrap_or(t))
                                    .expect("extension interned every translation")
                            })
                            .collect()
                    };
                    (
                        TermVector::from_id_occurrences(
                            Arc::clone(&arena),
                            translate_ids(&streams.values),
                        ),
                        TermVector::from_id_occurrences(
                            Arc::clone(&arena),
                            translate_ids(&streams.raw_values),
                        ),
                    )
                } else {
                    (values.clone(), raw_values.clone())
                };
                let links =
                    TermVector::from_id_occurrences(Arc::clone(&arena), ids_of(&streams.links));
                AttributeStats {
                    language: language.clone(),
                    name: name.clone(),
                    occurrences: walk.occurrences,
                    values,
                    translated_values,
                    raw_values,
                    translated_raw_values,
                    links,
                    occurrence_pattern: walk.occurrence_pattern.clone(),
                }
            } else {
                let old_attr =
                    &old.schema.attributes[old_of[i].expect("clean attrs map to the old schema")];
                AttributeStats {
                    language: language.clone(),
                    name: name.clone(),
                    occurrences: walk.occurrences,
                    values: old_attr.values.remapped(Arc::clone(&arena), &remap),
                    translated_values: old_attr
                        .translated_values
                        .remapped(Arc::clone(&arena), &remap),
                    raw_values: old_attr.raw_values.remapped(Arc::clone(&arena), &remap),
                    translated_raw_values: old_attr
                        .translated_raw_values
                        .remapped(Arc::clone(&arena), &remap),
                    links: old_attr.links.remapped(Arc::clone(&arena), &remap),
                    occurrence_pattern: walk.occurrence_pattern.clone(),
                }
            }
        })
        .collect();

    // The LSI model only sees the occurrence matrix: identical skeleton
    // (attribute sequence + patterns + pair count) ⇒ identical model ⇒
    // every LSI score is reused from the old table.
    let skeleton_same = old.schema.dual_count == dual_count
        && old.schema.attributes.len() == attributes.len()
        && old.schema.attributes.iter().zip(&attributes).all(|(a, b)| {
            a.language == b.language
                && a.name == b.name
                && a.occurrence_pattern == b.occurrence_pattern
        });

    let schema = DualSchema::from_parts_in_arena(
        old.schema.languages.clone(),
        pairing.label_other.clone(),
        pairing.label_en.clone(),
        attributes,
        dual_count,
        arena,
    );
    let candidates = candidate_pairs(&schema);

    // Evidence pass over the new schema's candidates, scored as in a cold
    // build — but a pair whose two endpoints are clean copies its cosines
    // from the old table.
    let n = schema.len();
    let old_table = &old.table;
    let mut evidence = Evidence::builder();
    for candidate in candidates {
        let (p, q) = (candidate.p as usize, candidate.q as usize);
        let (vsim, lsim) = if !dirty[p] && !dirty[q] {
            old_table.evidence_of(
                old_of[p].expect("clean attrs map to the old schema"),
                old_of[q].expect("clean attrs map to the old schema"),
            )
        } else {
            candidate.scores(&schema)
        };
        evidence.push(p, q, vsim, lsim);
    }
    // Every pair with a dirty endpoint counts as recomputed, candidate or
    // not; all other pairs keep their exact bits.
    let pair_count = |k: u64| k * k.saturating_sub(1) / 2;
    let clean = dirty.iter().filter(|&&d| !d).count() as u64;
    let rows_recomputed = pair_count(n as u64) - pair_count(clean);

    // The LSI scores only depend on the occurrence matrix: an identical
    // skeleton (attribute sequence + patterns + pair count) means identical
    // scores at identical indices, so the old table's LSI source — fitted
    // or restored factors, or the oracle's scores — is shared as is.
    let lsi = if skeleton_same {
        Arc::clone(old_table.lsi_source())
    } else {
        SimilarityTable::fit_factors(&schema, lsi_config)
    };
    let table = SimilarityTable::exact(n, evidence.finish(n), lsi);

    let arena = Arc::clone(schema.arena());
    let vector_entries = schema.vector_entry_count();
    (
        PreparedType {
            schema: Arc::new(schema),
            table: Arc::new(table),
            arena,
            vector_entries,
            // Every patched artifact is heap-owned: the vectors are
            // remapped onto a new arena and the LSI source is factors.
            region: None,
        },
        rows_recomputed,
        true,
    )
}

impl PatchContext<'_> {
    /// The foreign language of the pair, read off the old schema (the
    /// corpus itself is language-agnostic).
    fn new_corpus_other_language(&self, schema: &DualSchema) -> Language {
        schema.languages.0.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::Infobox;

    fn article(title: &str, lang: Language, ty: &str, value: &str) -> Article {
        let mut infobox = Infobox::new(format!("Infobox {ty}"));
        infobox.push(AttributeValue::text("name", value));
        Article::new(title, lang, ty, infobox)
    }

    #[test]
    fn apply_to_counts_inserts_updates_and_removals() {
        let mut corpus = Corpus::new();
        corpus.insert(article("A", Language::En, "Thing", "one"));
        let mut delta = CorpusDelta::upsert(article("A", Language::En, "Thing", "two"));
        delta.push(DeltaOp::Upsert(article("B", Language::En, "Thing", "b")));
        delta.push(DeltaOp::Remove {
            language: Language::En,
            title: "missing".into(),
        });
        delta.push(DeltaOp::Remove {
            language: Language::En,
            title: "A".into(),
        });
        assert_eq!(delta.len(), 4);
        assert!(!delta.is_empty());
        let (inserted, updated, removed) = delta.apply_to(&mut corpus);
        assert_eq!((inserted, updated, removed), (1, 1, 1));
        assert!(corpus.get_by_title(&Language::En, "A").is_none());
        assert_eq!(corpus.get_by_title(&Language::En, "B").unwrap().title, "B");
        let keys = delta.mutated_titles();
        assert!(keys.contains(&(Language::En, "A".to_string())));
        assert!(keys.contains(&(Language::En, "missing".to_string())));
        assert_eq!(keys.len(), 3);
    }

    #[test]
    fn upsert_of_live_title_keeps_the_id() {
        let mut corpus = Corpus::new();
        let id = corpus.insert(article("A", Language::En, "Thing", "one"));
        CorpusDelta::upsert(article("A", Language::En, "Thing", "two")).apply_to(&mut corpus);
        let live = corpus.get_by_title(&Language::En, "A").unwrap();
        assert_eq!(live.id, id);
        assert_eq!(live.infobox.attributes[0].value, "two");
    }

    #[test]
    fn diff_reproduces_the_target_slot_exactly() {
        let mut base = Corpus::new();
        base.insert(article("A", Language::En, "Thing", "a"));
        base.insert(article("B", Language::En, "Thing", "b"));
        base.insert(article("C", Language::En, "Thing", "c"));

        // Evolve a copy through a messy history: in-place edit, removal,
        // appends, an appended-then-removed slot (burned id), and a key
        // removed from a base slot then re-inserted at an appended slot.
        let mut target = base.clone();
        let history = [
            CorpusDelta::upsert(article("B", Language::En, "Thing", "b1")),
            CorpusDelta::upsert(article("B", Language::En, "Thing", "b2")),
            CorpusDelta::remove(Language::En, "C"),
            CorpusDelta::upsert(article("D", Language::En, "Thing", "d")),
            CorpusDelta::upsert(article("E", Language::En, "Thing", "e")),
            CorpusDelta::remove(Language::En, "D"),
            CorpusDelta::upsert(article("C", Language::En, "Thing", "c2")),
        ];
        for delta in &history {
            delta.apply_to(&mut target);
        }

        let composed = CorpusDelta::diff(&base, &target);
        let mut replayed = base;
        composed.apply_to(&mut replayed);

        assert_eq!(replayed.slot_count(), target.slot_count());
        assert_eq!(replayed.len(), target.len());
        for slot in 0..target.slot_count() {
            let id = ArticleId(slot as u32);
            assert_eq!(replayed.get(id), target.get(id), "slot {slot}");
        }
        // A far shorter program than the history it replaces.
        assert!(composed.len() < history.iter().map(CorpusDelta::len).sum());
    }

    /// `PatchContext::new`'s affected-types scan as it was before it looked
    /// keys up by borrow: one `(Language, String)` built per article and
    /// per link.
    fn allocating_affected_types(
        old_corpus: &Corpus,
        new_corpus: &Corpus,
        mutated: &HashSet<(Language, String)>,
    ) -> HashSet<(Language, String)> {
        let mut affected_types: HashSet<(Language, String)> = HashSet::new();
        for corpus in [old_corpus, new_corpus] {
            for article in corpus.articles() {
                let owner = (article.language.clone(), article.entity_type.clone());
                if affected_types.contains(&owner) {
                    continue;
                }
                if mutated.contains(&(article.language.clone(), article.title.clone()))
                    || article.infobox.attributes.iter().any(|attr| {
                        attr.links.iter().any(|link| {
                            mutated.contains(&(article.language.clone(), link.target.clone()))
                        })
                    })
                {
                    affected_types.insert(owner);
                }
            }
        }
        affected_types
    }

    /// [`is_dirty`] as it was before its instance checks looked keys up by
    /// borrow, reading the delta's keys from the allocating set.
    fn allocating_is_dirty(
        ctx: &PatchContext<'_>,
        mutated: &HashSet<(Language, String)>,
        language: &Language,
        new_walk: &AttrWalk,
        old_walk: Option<&AttrWalk>,
        old_attr: Option<&AttributeStats>,
    ) -> bool {
        if ctx.clusters_changed {
            return true;
        }
        let (old_walk, old_attr) = match (old_walk, old_attr) {
            (Some(w), Some(a)) => (w, a),
            _ => return true,
        };
        if old_walk.instances != new_walk.instances {
            return true;
        }
        for &(id, pos) in &new_walk.instances {
            let article = ctx.new_corpus.get(id).expect("instance ids are live");
            if mutated.contains(&(article.language.clone(), article.title.clone())) {
                return true;
            }
            for link in &article.infobox.attributes[pos].links {
                if mutated.contains(&(article.language.clone(), link.target.clone())) {
                    return true;
                }
            }
        }
        if *language != Language::En && !ctx.changed_keys.is_empty() {
            for vector in [&old_attr.values, &old_attr.raw_values] {
                for (term, _) in vector.iter() {
                    if ctx.changed_keys.contains(&normalize(term)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// The four kinds of write a served corpus sees, over `dataset`: an
    /// in-place value edit, a new cross-linked insert, a removal that
    /// leaves every cluster as it was, and an in-place edit of a title that
    /// other infoboxes link to.
    fn scan_deltas(dataset: &wiki_corpus::Dataset) -> Vec<(&'static str, CorpusDelta)> {
        let corpus = &dataset.corpus;
        let other = dataset.other_language();
        let pairing = &dataset.types[0];
        let edited = |target: &Article| {
            let mut article = target.clone();
            article
                .infobox
                .push(AttributeValue::text("nota", "editada"));
            DeltaOp::Upsert(article)
        };

        let foreign = corpus
            .articles_of_type(other, &pairing.label_other)
            .next()
            .expect("the first type has a foreign article");
        let english = corpus
            .articles_of_type(&Language::En, &pairing.label_en)
            .next()
            .expect("the first type has an English article");
        let mut insert = Infobox::new(format!("Infobox {}", pairing.label_other));
        insert.push(AttributeValue::linked(
            "ligado",
            foreign.title.clone(),
            vec![wiki_corpus::Link::plain(foreign.title.clone())],
        ));
        let mut inserted = Article::new(
            "Sonda Inserida",
            other.clone(),
            &pairing.label_other,
            insert,
        );
        inserted.add_cross_link(Language::En, english.title.clone());

        let clusters = corpus.entity_clusters();
        let non_root = corpus
            .articles()
            .find(|a| clusters.cluster_of(a.id) != Some(a.id))
            .expect("some cluster has two members");

        let linked_to = corpus
            .articles()
            .flat_map(|a| {
                a.infobox
                    .attributes
                    .iter()
                    .flat_map(|attr| &attr.links)
                    .map(move |link| (&a.language, link.target.as_str()))
            })
            .find_map(|(language, title)| corpus.get_by_title(language, title))
            .expect("some infobox links to a live article");

        vec![
            (
                "in-place edit",
                CorpusDelta {
                    ops: vec![edited(foreign)],
                },
            ),
            ("cross-linked insert", CorpusDelta::upsert(inserted)),
            (
                "removal",
                CorpusDelta::remove(non_root.language.clone(), non_root.title.clone()),
            ),
            (
                "linked-to edit",
                CorpusDelta {
                    ops: vec![edited(linked_to)],
                },
            ),
        ]
    }

    #[test]
    fn borrowed_scans_match_the_allocating_reference() {
        use wiki_corpus::{Dataset, SyntheticConfig};
        for dataset in [
            Dataset::pt_en(&SyntheticConfig::tiny()),
            Dataset::vn_en(&SyntheticConfig::tiny()),
        ] {
            let engine = crate::MatchEngine::new(dataset);
            engine.prepare_all();
            let old = engine.dataset();
            let old_dictionary = engine.dictionary();
            let cached = engine.cached_artifacts();
            assert_eq!(cached.len(), old.types.len());
            for (name, delta) in scan_deltas(&old) {
                let case = format!("{} {name}", old.other_language());
                let mut new = (*old).clone();
                delta.apply_to(&mut new.corpus);
                let new_dictionary =
                    TitleDictionary::from_corpus(&new.corpus, new.other_language(), new.english());
                let ctx = PatchContext::new(
                    &old.corpus,
                    &new.corpus,
                    &old_dictionary,
                    &new_dictionary,
                    &delta,
                );
                // Every delta reaches the instance checks.
                assert!(!ctx.clusters_changed, "{case}");

                let mutated = delta.mutated_titles();
                let borrowed: HashSet<(Language, String)> = ctx
                    .affected_types
                    .iter()
                    .map(|&(language, label)| (language.clone(), label.to_string()))
                    .collect();
                let reference = allocating_affected_types(&old.corpus, &new.corpus, &mutated);
                assert!(!reference.is_empty(), "{case}");
                assert_eq!(borrowed, reference, "{case}");

                let mut flags = [0usize; 2];
                for (type_id, prepared) in &cached {
                    let pairing = new.type_pairing(type_id).unwrap();
                    let walk = |corpus| {
                        walk_type(
                            corpus,
                            &prepared.schema.languages.0,
                            &pairing.label_other,
                            &pairing.label_en,
                        )
                    };
                    let (old_walk, new_walk) = (walk(&old.corpus), walk(&new.corpus));
                    let old_of = old_positions(&old_walk, &new_walk, &prepared.schema);
                    for (i, (attr, (language, name))) in
                        new_walk.attrs.iter().zip(&new_walk.groups.keys).enumerate()
                    {
                        let old_walk = old_of[i].map(|j| &old_walk.attrs[j]);
                        let old_attr = old_of[i].map(|j| &prepared.schema.attributes[j]);
                        let dirty = is_dirty(&ctx, language, attr, old_walk, old_attr);
                        assert_eq!(
                            dirty,
                            allocating_is_dirty(&ctx, &mutated, language, attr, old_walk, old_attr),
                            "{case}: {type_id} {language} {name}"
                        );
                        flags[usize::from(dirty)] += 1;
                    }
                }
                // Both answers occur, so neither side is constant.
                assert!(flags[0] > 0 && flags[1] > 0, "{case}: {flags:?}");
            }
        }
    }
}
