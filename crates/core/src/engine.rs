//! The corpus-scoped matching session: [`MatchEngine`] and the pluggable
//! [`SchemaMatcher`] trait.
//!
//! [`MatchEngine`] is built **once per dataset**: it precomputes the
//! bilingual [`TitleDictionary`] up front (and the entity-type
//! correspondences on first access), and caches the per-type
//! [`DualSchema`] / [`SimilarityTable`] artifacts the first time a type is
//! requested. Every subsequent request — another alignment of the same
//! type, a different matcher over the same type, an evaluation sweep —
//! reuses the shared artifacts instead of recomputing them.
//!
//! The session is **live**: [`MatchEngine::apply_delta`] (and the
//! [`insert_entity`](MatchEngine::insert_entity) /
//! [`update_entity`](MatchEngine::update_entity) /
//! [`remove_entity`](MatchEngine::remove_entity) conveniences) mutate the
//! corpus in place and *patch* the cached artifacts instead of discarding
//! them — see [`crate::delta`] for the invalidation rules that keep the
//! patched artifacts bit-identical to a cold rebuild.
//!
//! [`SchemaMatcher`] is the plugin interface: WikiMatch itself and every
//! baseline implement it, so harnesses can iterate over
//! `&dyn SchemaMatcher` values and run any matcher through the same engine
//! caches.
//!
//! ```
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wikimatch::MatchEngine;
//!
//! let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
//! let engine = MatchEngine::builder(dataset).build();
//!
//! // The dictionary was computed once; every alignment reuses it.
//! let film = engine.align("film").expect("film type exists");
//! assert!(!film.cross_pairs().is_empty());
//!
//! // All types, per-type alignment running in parallel.
//! let all = engine.align_all();
//! assert_eq!(all.len(), engine.dataset().types.len());
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use wiki_corpus::{Article, Dataset, Language, TypePairing};
use wiki_text::TermArena;
use wiki_translate::TitleDictionary;

use crate::alignment::AttributeAlignment;
use crate::config::WikiMatchConfig;
use crate::delta::{patch_prepared_type, CorpusDelta, DeltaReport, PatchContext};
use crate::pipeline::{TypeAlignment, WikiMatch};
use crate::schema::DualSchema;
use crate::similarity::{ComputeMode, SimilarityTable};
use crate::snapshot::{corpus_fingerprint, EngineSnapshot, SnapshotError};
use crate::types::{match_entity_types, TypeMatch};

/// Recovers the guarded value of a poisoned lock.
///
/// The engine state only ever swaps *complete* consistent values under its
/// locks (and the per-type caches only add completed artifacts behind
/// `OnceLock` slots), so the state is consistent even when a panicking
/// thread (e.g. one caught by a serving layer's panic barrier) was holding
/// the lock — propagating the poison would needlessly wedge every other
/// worker sharing the session.
fn recover<T>(result: Result<T, std::sync::PoisonError<T>>) -> T {
    result.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Estimated heap bytes of a session's corpus and title dictionary.
fn dataset_bytes(dataset: &Dataset, dictionary: &TitleDictionary) -> u64 {
    dataset.corpus.heap_bytes() + dictionary.heap_bytes()
}

/// Mirrors one applied delta into the process-wide metrics registry, so a
/// `/metrics` scrape covers mutation activity across every live engine.
fn observe_delta(rows_recomputed: u64) {
    let registry = wiki_obs::registry();
    registry
        .counter(
            "wm_engine_deltas_applied_total",
            "Corpus deltas applied across all engine sessions.",
        )
        .inc();
    registry
        .counter(
            "wm_engine_rows_recomputed_total",
            "Similarity rows recomputed by delta patches.",
        )
        .add(rows_recomputed);
}

/// A cross-language attribute matcher operating on a prepared
/// dual-language schema.
///
/// This is the single plugin interface of the workspace: the WikiMatch
/// pipeline, the LSI / Bouma / COMA++ baselines and the correlation
/// orderings all implement it, so experiment harnesses can treat them as
/// interchangeable `&dyn SchemaMatcher` values and drive them through one
/// [`MatchEngine`].
pub trait SchemaMatcher: Send + Sync {
    /// Short static name of the approach ("WikiMatch", "Bouma", ...).
    fn name(&self) -> &'static str;

    /// Human-readable label including configuration details
    /// (e.g. `"LSI top-5"`); defaults to [`name`](SchemaMatcher::name).
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Produces cross-language pairs `(foreign attribute, English
    /// attribute)` over a prepared schema and similarity table.
    fn align(&self, schema: &DualSchema, table: &SimilarityTable) -> Vec<(String, String)>;
}

impl SchemaMatcher for WikiMatch {
    fn name(&self) -> &'static str {
        "WikiMatch"
    }

    fn align(&self, schema: &DualSchema, table: &SimilarityTable) -> Vec<(String, String)> {
        let matches = AttributeAlignment::new(schema, table, *self.config()).run();
        matches.cross_language_pairs(schema, &schema.languages.0, &schema.languages.1)
    }
}

/// The shared per-type artifacts served by a [`MatchEngine`]: the
/// dual-language schema and its similarity evidence, behind `Arc`s so
/// alignments and callers can hold them without copying.
#[derive(Debug, Clone)]
pub struct PreparedType {
    /// The dual-language schema of the type.
    pub schema: Arc<DualSchema>,
    /// The pairwise similarity evidence over that schema.
    pub table: Arc<SimilarityTable>,
    /// The type's interned vocabulary (shared with
    /// [`DualSchema::arena`](crate::DualSchema::arena) — exposed here so
    /// consumers holding prepared artifacts reach the term table without
    /// going through the schema).
    pub arena: Arc<TermArena>,
    /// Total `(id, weight)` entries across every attribute vector of the
    /// schema (all five evidence channels) — the per-type share of the
    /// [`EngineStats::vector_entries`] gauge, computed once at preparation
    /// time (see [`DualSchema::vector_entry_count`](crate::DualSchema::vector_entry_count))
    /// so stats polling never re-walks the attributes.
    pub vector_entries: u64,
    /// The mapped snapshot region these artifacts borrow from, when the
    /// type was opened out-of-core through
    /// [`MappedSnapshot::open`](crate::MappedSnapshot::open); `None` for
    /// built artifacts and for a snapshot decoded from heap bytes. One
    /// region is shared by every type of the snapshot, and holding it here
    /// keeps the mapping alive exactly as long as any artifact view needs
    /// it.
    pub region: Option<Arc<crate::mmap::MappedRegion>>,
}

impl PreparedType {
    /// Estimated heap bytes currently held by this type's artifacts: owned
    /// (or materialized-from-mapped) arena text and vector entries, the
    /// occurrence patterns (heap-owned even in a mapped session), and the
    /// table's evidence rows and LSI factors. Storage borrowed from a
    /// snapshot region that nothing has touched counts zero — a mapping's
    /// bytes belong on the mapped-bytes ledger, not the resident one, and
    /// the heap bytes a snapshot was decoded from are on neither.
    pub fn resident_bytes(&self) -> u64 {
        // A (u32, f64) entry with padding is 16 bytes; an occurrence
        // pattern is one `bool` per dual infobox.
        const VECTOR_ENTRY_BYTES: u64 = 16;
        let mut bytes = self.arena.heap_bytes() as u64;
        for attr in &self.schema.attributes {
            for vector in [
                &attr.values,
                &attr.translated_values,
                &attr.raw_values,
                &attr.translated_raw_values,
                &attr.links,
            ] {
                if vector.is_materialized() {
                    bytes += vector.len() as u64 * VECTOR_ENTRY_BYTES;
                }
            }
            bytes += attr.occurrence_pattern.len() as u64;
        }
        bytes + self.table.heap_bytes()
    }
}

/// Point-in-time activity snapshot of one [`MatchEngine`] session, taken
/// with [`MatchEngine::stats`].
///
/// The counters behind it are plain relaxed atomics bumped on the request
/// paths — cheap enough that a serving layer can poll them per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Calls to [`MatchEngine::prepared`] (including the indirect ones made
    /// by `align` / `align_with` / the lazy accessors).
    pub prepared_requests: u64,
    /// Per-type artifact computations actually performed. Under concurrent
    /// first access this stays at one per type: callers coalesce on the
    /// per-type slot instead of duplicating the build.
    pub artifact_builds: u64,
    /// Matcher runs served (`align`, `align_with` and the `_all` variants).
    pub alignments: u64,
    /// Corpus deltas applied through [`MatchEngine::apply_delta`] and the
    /// single-entity mutation conveniences.
    pub deltas_applied: u64,
    /// Similarity pairs whose cosines were recomputed by delta patches,
    /// cumulatively — everything else kept its exact bits.
    pub rows_recomputed: u64,
    /// Direct-channel cosine evaluations performed by full table builds,
    /// cumulatively across the session (two per unordered pair under
    /// [`ComputeMode::Dense`]; fewer under the pruned candidate
    /// generator). Together with
    /// [`pairs_pruned`](Self::pairs_pruned) this measures how much of the
    /// quadratic frontier the active mode actually walks.
    pub pairs_scored: u64,
    /// Direct-channel cosine evaluations the candidate generator skipped,
    /// cumulatively — `pairs_scored + pairs_pruned` is exactly
    /// `n · (n − 1)` summed over full builds.
    pub pairs_pruned: u64,
    /// Number of per-type artifact sets currently cached.
    pub cached_types: usize,
    /// Distinct interned terms across the cached types' arenas — together
    /// with [`interned_bytes`](Self::interned_bytes) and
    /// [`vector_entries`](Self::vector_entries) this sizes the session's
    /// dominant memory consumers, so capacity planning for a serving
    /// registry's LRU is measurement instead of guesswork.
    pub interned_terms: u64,
    /// Total bytes of interned term text across the cached types' arenas.
    pub interned_bytes: u64,
    /// Total `(id, weight)` vector entries across all cached attribute
    /// vectors (each entry is 16 bytes: a `u32` id padded next to an `f64`
    /// weight).
    pub vector_entries: u64,
    /// Estimated heap bytes currently held by the session: its corpus and
    /// title dictionary (estimated once per corpus version) plus the cached
    /// artifacts' owned storage and whatever mapped storage has been
    /// materialized — see [`PreparedType::resident_bytes`]. This is the
    /// quantity a `--max-resident-mb` budget constrains.
    pub resident_bytes: u64,
    /// Bytes of mapped snapshot regions backing cached artifacts (each
    /// distinct region counted once). These live in the OS page cache, not
    /// the process heap, and vanish when the map is dropped.
    pub mapped_bytes: u64,
    /// Lazy materialisations served by the mapped regions backing cached
    /// artifacts — how often a first touch paged a (type, channel) in.
    pub page_ins: u64,
}

/// Lock-free counters backing [`EngineStats`].
#[derive(Debug, Default)]
struct EngineCounters {
    prepared_requests: AtomicU64,
    artifact_builds: AtomicU64,
    alignments: AtomicU64,
    deltas_applied: AtomicU64,
    rows_recomputed: AtomicU64,
    pairs_scored: AtomicU64,
    pairs_pruned: AtomicU64,
}

/// The swappable session state. Everything a request path needs lives
/// behind **one** lock, so a single read acquisition yields a mutually
/// consistent `(dataset, dictionary, artifacts)` view — a delta landing
/// between two lock acquisitions can never pair a new corpus with old
/// artifacts or vice versa.
#[derive(Debug)]
struct EngineState {
    dataset: Arc<Dataset>,
    dictionary: Arc<TitleDictionary>,
    /// Estimated heap bytes of `dataset`'s corpus plus `dictionary`,
    /// computed when they are swapped in rather than on every stats call.
    dataset_bytes: u64,
    /// Fingerprint of the current corpus (see
    /// [`corpus_fingerprint`]) — kept current across deltas so the
    /// persistence layers can chain journal records without re-hashing.
    fingerprint: u64,
    type_matches: Option<Arc<Vec<TypeMatch>>>,
    // Per-type slots so concurrent first requests for the same type block on
    // one computation instead of racing to duplicate it. `apply_delta`
    // replaces the *whole map* with fresh slots; a stale in-flight build
    // then completes into an orphaned slot and is dropped, never mixed into
    // the new state.
    prepared: HashMap<String, Arc<OnceLock<PreparedType>>>,
}

// Compile-time Send + Sync audit: serving layers share one engine session
// (and the artifacts it hands out) across worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MatchEngine>();
    assert_send_sync::<MatchEngineBuilder>();
    assert_send_sync::<PreparedType>();
    assert_send_sync::<EngineStats>();
};

/// Builder for [`MatchEngine`]; see [`MatchEngine::builder`].
#[derive(Debug)]
pub struct MatchEngineBuilder {
    dataset: Arc<Dataset>,
    config: WikiMatchConfig,
    compute_mode: ComputeMode,
    eager: bool,
}

impl MatchEngineBuilder {
    /// Overrides the WikiMatch configuration (thresholds, LSI settings,
    /// ablation switches) used by [`MatchEngine::align`] and the similarity
    /// tables.
    pub fn config(mut self, config: WikiMatchConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides how similarity tables are computed. The default is the
    /// candidate-pruned build ([`ComputeMode::Pruned`]);
    /// [`ComputeMode::Dense`] selects the test oracle — the single-threaded
    /// all-pairs reference pass, which produces bit-identical tables (and
    /// is pinned to do so by tests). Sessions of either mode snapshot,
    /// restore and patch alike.
    pub fn compute_mode(mut self, mode: ComputeMode) -> Self {
        self.compute_mode = mode;
        self
    }

    /// Precomputes the schema and similarity table of **every** type at
    /// build time (in parallel) instead of lazily on first use.
    pub fn eager(mut self) -> Self {
        self.eager = true;
        self
    }

    /// Builds the engine: computes the title dictionary exactly once
    /// (entity-type correspondences follow lazily, also exactly once),
    /// then (optionally) warms the per-type caches.
    pub fn build(self) -> MatchEngine {
        let dictionary_span = wiki_obs::Span::enter("dictionary_build");
        let dictionary = TitleDictionary::from_corpus(
            &self.dataset.corpus,
            self.dataset.other_language(),
            self.dataset.english(),
        );
        dictionary_span.finish();
        let fingerprint = corpus_fingerprint(&self.dataset);
        let engine = MatchEngine {
            config: self.config,
            compute_mode: self.compute_mode,
            state: RwLock::new(EngineState {
                dataset_bytes: dataset_bytes(&self.dataset, &dictionary),
                dataset: self.dataset,
                dictionary: Arc::new(dictionary),
                fingerprint,
                type_matches: None,
                prepared: HashMap::new(),
            }),
            mutation: Mutex::new(()),
            counters: EngineCounters::default(),
        };
        if self.eager {
            engine.prepare_all();
        }
        engine
    }

    /// Builds the engine from a persisted [`EngineSnapshot`] instead of
    /// computing: the title dictionary and every per-type artifact set in
    /// the snapshot are adopted verbatim (bit-identical to the build they
    /// were captured from), so `artifact_builds` stays at zero for the
    /// restored types.
    ///
    /// Fails with [`SnapshotError::FingerprintMismatch`] when the snapshot
    /// was captured from a different corpus than `dataset`, and with
    /// [`SnapshotError::Malformed`] when it references entity types the
    /// dataset does not have. Types *not* present in the snapshot are
    /// computed lazily as usual.
    pub fn build_from_snapshot(
        self,
        snapshot: EngineSnapshot,
    ) -> Result<MatchEngine, SnapshotError> {
        let expected = corpus_fingerprint(&self.dataset);
        if snapshot.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                found: snapshot.fingerprint,
                expected,
            });
        }
        if snapshot.dictionary.source() != self.dataset.other_language()
            || snapshot.dictionary.target() != self.dataset.english()
        {
            return Err(SnapshotError::Malformed(format!(
                "snapshot dictionary translates {} -> {}, dataset needs {} -> {}",
                snapshot.dictionary.source(),
                snapshot.dictionary.target(),
                self.dataset.other_language(),
                self.dataset.english()
            )));
        }
        let mut prepared: HashMap<String, Arc<OnceLock<PreparedType>>> = HashMap::new();
        for (type_id, artifacts) in snapshot.types {
            if self.dataset.type_pairing(&type_id).is_none() {
                return Err(SnapshotError::Malformed(format!(
                    "snapshot carries unknown entity type {type_id:?}"
                )));
            }
            let slot = Arc::new(OnceLock::new());
            let _ = slot.set(artifacts);
            prepared.insert(type_id, slot);
        }
        let engine = MatchEngine {
            config: self.config,
            compute_mode: self.compute_mode,
            state: RwLock::new(EngineState {
                dataset_bytes: dataset_bytes(&self.dataset, &snapshot.dictionary),
                dataset: self.dataset,
                dictionary: Arc::new(snapshot.dictionary),
                fingerprint: expected,
                type_matches: None,
                prepared,
            }),
            mutation: Mutex::new(()),
            counters: EngineCounters::default(),
        };
        if self.eager {
            engine.prepare_all();
        }
        Ok(engine)
    }
}

/// A corpus-scoped matching session.
///
/// Construction precomputes the bilingual [`TitleDictionary`]; the
/// entity-type correspondences and the per-type
/// [`DualSchema`] / [`SimilarityTable`] pairs are each computed once on
/// first use and cached for the session. The engine is `Sync`:
/// [`align_all`](Self::align_all) runs per-type alignment on parallel
/// threads, and callers may share one engine across threads freely.
///
/// The session accepts live mutations: [`apply_delta`](Self::apply_delta)
/// swaps in a mutated corpus and incrementally patched artifacts under the
/// state lock, so concurrent readers always observe a consistent
/// `(corpus, artifacts)` pair — either entirely pre-delta or entirely
/// post-delta.
#[derive(Debug)]
pub struct MatchEngine {
    config: WikiMatchConfig,
    compute_mode: ComputeMode,
    state: RwLock<EngineState>,
    /// Serialises writers: deltas are applied one at a time (each patches
    /// against the state it captured), while readers keep flowing on the
    /// `state` lock until the final swap.
    mutation: Mutex<()>,
    counters: EngineCounters,
}

impl MatchEngine {
    /// Starts building an engine over a dataset.
    ///
    /// Accepts the dataset by value or as an [`Arc`] — the engine is the
    /// corpus-scoped session object, so it takes (shared) ownership.
    pub fn builder(dataset: impl Into<Arc<Dataset>>) -> MatchEngineBuilder {
        MatchEngineBuilder {
            dataset: dataset.into(),
            config: WikiMatchConfig::default(),
            compute_mode: ComputeMode::default(),
            eager: false,
        }
    }

    /// Builds an engine with the default configuration.
    pub fn new(dataset: impl Into<Arc<Dataset>>) -> Self {
        Self::builder(dataset).build()
    }

    /// The dataset this session is currently scoped to. The handle is a
    /// point-in-time capture: a delta applied later swaps the session to a
    /// new dataset value without disturbing holders of this one.
    pub fn dataset(&self) -> Arc<Dataset> {
        Arc::clone(&recover(self.state.read()).dataset)
    }

    /// The WikiMatch configuration in use.
    pub fn config(&self) -> &WikiMatchConfig {
        &self.config
    }

    /// The similarity-table traversal mode in use.
    pub fn compute_mode(&self) -> ComputeMode {
        self.compute_mode
    }

    /// The bilingual title dictionary of the current corpus (rebuilt on
    /// every applied delta).
    pub fn dictionary(&self) -> Arc<TitleDictionary> {
        Arc::clone(&recover(self.state.read()).dictionary)
    }

    /// Fingerprint of the current corpus (see
    /// [`corpus_fingerprint`]) — what a snapshot captured
    /// now would carry, and what journal records chain against.
    pub fn fingerprint(&self) -> u64 {
        recover(self.state.read()).fingerprint
    }

    /// The entity-type correspondences discovered from cross-language
    /// links (step 1 of the paper), computed once per corpus version on
    /// first access — alignment paths that never ask for them never pay
    /// for them, and a delta invalidates them along with everything else.
    pub fn type_matches(&self) -> Arc<Vec<TypeMatch>> {
        let (dataset, cached) = {
            let state = recover(self.state.read());
            (Arc::clone(&state.dataset), state.type_matches.clone())
        };
        if let Some(matches) = cached {
            return matches;
        }
        let computed = Arc::new(match_entity_types(
            &dataset.corpus,
            dataset.other_language(),
            dataset.english(),
        ));
        let mut state = recover(self.state.write());
        // Only publish against the dataset the computation saw; racing a
        // delta just means this caller keeps its (consistent) result while
        // the new state recomputes lazily.
        if Arc::ptr_eq(&state.dataset, &dataset) {
            if let Some(existing) = &state.type_matches {
                return Arc::clone(existing);
            }
            state.type_matches = Some(Arc::clone(&computed));
        }
        computed
    }

    /// The type pairings of the dataset (convenience passthrough).
    pub fn type_pairings(&self) -> Vec<TypePairing> {
        recover(self.state.read()).dataset.types.clone()
    }

    /// Number of per-type artifact sets currently cached.
    pub fn cached_types(&self) -> usize {
        recover(self.state.read())
            .prepared
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// The per-type artifact sets currently cached, in dataset type order —
    /// the capture surface of [`crate::snapshot::EngineSnapshot`]. Types
    /// never requested (and types still being computed by another thread)
    /// are absent.
    pub fn cached_artifacts(&self) -> Vec<(String, PreparedType)> {
        let state = recover(self.state.read());
        state
            .dataset
            .types
            .iter()
            .filter_map(|pairing| {
                state
                    .prepared
                    .get(&pairing.type_id)
                    .and_then(|slot| slot.get())
                    .map(|prepared| (pairing.type_id.clone(), prepared.clone()))
            })
            .collect()
    }

    /// Captures a mutually consistent `(dataset, dictionary, pairing,
    /// slot)` quadruple for one type under a single state-lock view.
    #[allow(clippy::type_complexity)]
    fn capture_type(
        &self,
        type_id: &str,
    ) -> Option<(
        Arc<Dataset>,
        Arc<TitleDictionary>,
        TypePairing,
        Arc<OnceLock<PreparedType>>,
    )> {
        {
            let state = recover(self.state.read());
            let pairing = state.dataset.type_pairing(type_id)?;
            if let Some(slot) = state.prepared.get(type_id) {
                return Some((
                    Arc::clone(&state.dataset),
                    Arc::clone(&state.dictionary),
                    pairing.clone(),
                    Arc::clone(slot),
                ));
            }
        }
        let mut state = recover(self.state.write());
        let pairing = state.dataset.type_pairing(type_id)?.clone();
        let dataset = Arc::clone(&state.dataset);
        let dictionary = Arc::clone(&state.dictionary);
        let slot = Arc::clone(state.prepared.entry(type_id.to_string()).or_default());
        Some((dataset, dictionary, pairing, slot))
    }

    /// The shared schema + similarity artifacts of one type, computing and
    /// caching them on first request. Returns `None` for unknown type ids.
    ///
    /// Concurrent first requests for the same type synchronize on a
    /// per-type slot: exactly one thread computes, the rest wait and share
    /// the result. The dataset, dictionary and slot are captured under one
    /// lock view, so a build racing a delta computes against a consistent
    /// pre-delta state (into a slot the delta already orphaned).
    pub fn prepared(&self, type_id: &str) -> Option<PreparedType> {
        self.counters
            .prepared_requests
            .fetch_add(1, Ordering::Relaxed);
        let (dataset, dictionary, pairing, slot) = self.capture_type(type_id)?;
        Some(
            slot.get_or_init(|| {
                self.counters
                    .artifact_builds
                    .fetch_add(1, Ordering::Relaxed);
                let schema = DualSchema::build(
                    &dataset.corpus,
                    dataset.other_language(),
                    &pairing.label_other,
                    &pairing.label_en,
                    &dictionary,
                );
                let (table, counts) =
                    SimilarityTable::compute_counted(&schema, self.config.lsi, self.compute_mode);
                self.counters
                    .pairs_scored
                    .fetch_add(counts.scored, Ordering::Relaxed);
                self.counters
                    .pairs_pruned
                    .fetch_add(counts.pruned, Ordering::Relaxed);
                let arena = Arc::clone(schema.arena());
                let vector_entries = schema.vector_entry_count();
                PreparedType {
                    schema: Arc::new(schema),
                    table: Arc::new(table),
                    arena,
                    vector_entries,
                    region: None,
                }
            })
            .clone(),
        )
    }

    /// Lazy accessor for the dual-language schema of one type.
    pub fn schema(&self, type_id: &str) -> Option<Arc<DualSchema>> {
        self.prepared(type_id).map(|p| p.schema)
    }

    /// Lazy accessor for the similarity table of one type.
    pub fn similarity(&self, type_id: &str) -> Option<Arc<SimilarityTable>> {
        self.prepared(type_id).map(|p| p.table)
    }

    /// Warms the cache for every type of the dataset, in parallel.
    pub fn prepare_all(&self) {
        let dataset = self.dataset();
        dataset.types.par_iter().for_each(|pairing| {
            self.prepared(&pairing.type_id);
        });
    }

    /// Applies a batch of entity mutations to the corpus and patches every
    /// cached per-type artifact set incrementally (see [`crate::delta`]).
    ///
    /// Readers are never blocked while the patch computes: the new state —
    /// mutated dataset, rebuilt dictionary, patched artifacts, fresh
    /// fingerprint — is assembled on the side and swapped in under one
    /// short write-lock critical section. Concurrent deltas serialise on an
    /// internal mutation lock.
    pub fn apply_delta(&self, delta: &CorpusDelta) -> DeltaReport {
        let _mutation_guard = recover(self.mutation.lock());
        let (old_dataset, old_dictionary, fingerprint_before, cached) = {
            let state = recover(self.state.read());
            let cached: Vec<(String, PreparedType)> = state
                .dataset
                .types
                .iter()
                .filter_map(|pairing| {
                    state
                        .prepared
                        .get(&pairing.type_id)
                        .and_then(|slot| slot.get())
                        .map(|prepared| (pairing.type_id.clone(), prepared.clone()))
                })
                .collect();
            (
                Arc::clone(&state.dataset),
                Arc::clone(&state.dictionary),
                state.fingerprint,
                cached,
            )
        };
        if delta.is_empty() {
            return DeltaReport {
                fingerprint_before,
                fingerprint: fingerprint_before,
                ..DeltaReport::default()
            };
        }

        let mut new_dataset = (*old_dataset).clone();
        let (inserted, updated, removed) = delta.apply_to(&mut new_dataset.corpus);
        let dictionary_span = wiki_obs::Span::enter("dictionary_build");
        let new_dictionary = TitleDictionary::from_corpus(
            &new_dataset.corpus,
            new_dataset.other_language(),
            new_dataset.english(),
        );
        dictionary_span.finish();
        let patch_span = wiki_obs::Span::enter("delta_patch");
        let patched: Vec<(String, PreparedType, u64, bool)> = {
            let ctx = PatchContext::new(
                &old_dataset.corpus,
                &new_dataset.corpus,
                &old_dictionary,
                &new_dictionary,
                delta,
            );
            cached
                .par_iter()
                .map(|(type_id, old)| {
                    let pairing = new_dataset
                        .type_pairing(type_id)
                        .expect("cached type ids come from the dataset")
                        .clone();
                    let (prepared, rows, walked) =
                        patch_prepared_type(&ctx, &pairing, old, self.config.lsi);
                    (type_id.clone(), prepared, rows, walked)
                })
                .collect()
        };
        patch_span.finish();
        let fingerprint = corpus_fingerprint(&new_dataset);
        let types_patched = patched.iter().filter(|(_, _, _, walked)| *walked).count();
        let rows_recomputed: u64 = patched.iter().map(|(_, _, rows, _)| *rows).sum();
        let mut prepared: HashMap<String, Arc<OnceLock<PreparedType>>> = HashMap::new();
        for (type_id, artifacts, _, _) in patched {
            let slot = Arc::new(OnceLock::new());
            let _ = slot.set(artifacts);
            prepared.insert(type_id, slot);
        }
        let new_dataset_bytes = dataset_bytes(&new_dataset, &new_dictionary);
        {
            let mut state = recover(self.state.write());
            state.dataset_bytes = new_dataset_bytes;
            state.dataset = Arc::new(new_dataset);
            state.dictionary = Arc::new(new_dictionary);
            state.fingerprint = fingerprint;
            state.type_matches = None;
            state.prepared = prepared;
        }
        self.counters.deltas_applied.fetch_add(1, Ordering::Relaxed);
        self.counters
            .rows_recomputed
            .fetch_add(rows_recomputed, Ordering::Relaxed);
        observe_delta(rows_recomputed);
        DeltaReport {
            inserted,
            updated,
            removed,
            types_patched,
            rows_recomputed,
            fingerprint_before,
            fingerprint,
        }
    }

    /// Inserts an article (or replaces the live article with the same
    /// `(language, title)` key). Convenience wrapper over
    /// [`apply_delta`](Self::apply_delta).
    pub fn insert_entity(&self, article: Article) -> DeltaReport {
        self.apply_delta(&CorpusDelta::upsert(article))
    }

    /// Updates an article in place (alias of
    /// [`insert_entity`](Self::insert_entity) — upsert semantics).
    pub fn update_entity(&self, article: Article) -> DeltaReport {
        self.apply_delta(&CorpusDelta::upsert(article))
    }

    /// Tombstones the live article with the given `(language, title)` key.
    /// Convenience wrapper over [`apply_delta`](Self::apply_delta).
    pub fn remove_entity(&self, language: Language, title: impl Into<String>) -> DeltaReport {
        self.apply_delta(&CorpusDelta::remove(language, title))
    }

    /// Aligns one entity type with the engine's WikiMatch configuration.
    /// Returns `None` for unknown type ids.
    pub fn align(&self, type_id: &str) -> Option<TypeAlignment> {
        let languages = {
            let state = recover(self.state.read());
            state.dataset.languages.clone()
        };
        let prepared = self.prepared(type_id)?;
        self.counters.alignments.fetch_add(1, Ordering::Relaxed);
        let matches = AttributeAlignment::new(&prepared.schema, &prepared.table, self.config).run();
        Some(TypeAlignment {
            type_id: type_id.to_string(),
            schema: prepared.schema,
            table: prepared.table,
            matches,
            languages,
        })
    }

    /// Aligns every entity type of the dataset, running the per-type
    /// alignment in parallel. Results are in dataset type order.
    pub fn align_all(&self) -> Vec<TypeAlignment> {
        let dataset = self.dataset();
        dataset
            .types
            .par_iter()
            .map(|pairing| {
                self.align(&pairing.type_id)
                    .expect("dataset type pairing must align")
            })
            .collect()
    }

    /// Runs any [`SchemaMatcher`] over one type's shared artifacts.
    /// Returns `None` for unknown type ids.
    ///
    /// The similarity table handed to the matcher is the session's cached
    /// one, computed with the **engine's** `config.lsi` — that sharing is
    /// the point of the session. A `WikiMatch` plugin with different LSI
    /// settings will therefore see this engine's LSI scores; to change the
    /// LSI configuration itself, build the engine with
    /// [`MatchEngineBuilder::config`].
    pub fn align_with(
        &self,
        matcher: &dyn SchemaMatcher,
        type_id: &str,
    ) -> Option<Vec<(String, String)>> {
        let prepared = self.prepared(type_id)?;
        self.counters.alignments.fetch_add(1, Ordering::Relaxed);
        Some(matcher.align(&prepared.schema, &prepared.table))
    }

    /// A point-in-time snapshot of the session's activity counters and
    /// memory-footprint gauges — the cheap stats hook serving layers poll
    /// for health/metrics endpoints.
    pub fn stats(&self) -> EngineStats {
        let mut cached_types = 0usize;
        let mut interned_terms = 0u64;
        let mut interned_bytes = 0u64;
        let mut vector_entries = 0u64;
        let mut mapped_bytes = 0u64;
        let mut page_ins = 0u64;
        let mut resident_bytes = 0u64;
        {
            let state = recover(self.state.read());
            resident_bytes += state.dataset_bytes;
            // One mapped region backs every type of a snapshot; count each
            // distinct region once.
            let mut seen_regions: Vec<*const crate::mmap::MappedRegion> = Vec::new();
            for prepared in state.prepared.values().filter_map(|slot| slot.get()) {
                cached_types += 1;
                interned_terms += prepared.arena.len() as u64;
                interned_bytes += prepared.arena.term_bytes() as u64;
                vector_entries += prepared.vector_entries;
                resident_bytes += prepared.resident_bytes();
                if let Some(region) = &prepared.region {
                    let ptr = Arc::as_ptr(region);
                    if !seen_regions.contains(&ptr) {
                        seen_regions.push(ptr);
                        mapped_bytes += region.len() as u64;
                        page_ins += region.page_in_count();
                    }
                }
            }
        }
        EngineStats {
            prepared_requests: self.counters.prepared_requests.load(Ordering::Relaxed),
            artifact_builds: self.counters.artifact_builds.load(Ordering::Relaxed),
            alignments: self.counters.alignments.load(Ordering::Relaxed),
            deltas_applied: self.counters.deltas_applied.load(Ordering::Relaxed),
            rows_recomputed: self.counters.rows_recomputed.load(Ordering::Relaxed),
            pairs_scored: self.counters.pairs_scored.load(Ordering::Relaxed),
            pairs_pruned: self.counters.pairs_pruned.load(Ordering::Relaxed),
            cached_types,
            interned_terms,
            interned_bytes,
            vector_entries,
            resident_bytes,
            mapped_bytes,
            page_ins,
        }
    }

    /// Runs any [`SchemaMatcher`] over every type, in parallel; returns
    /// `(type_id, cross pairs)` in dataset type order.
    pub fn align_all_with(
        &self,
        matcher: &dyn SchemaMatcher,
    ) -> Vec<(String, Vec<(String, String)>)> {
        let dataset = self.dataset();
        dataset
            .types
            .par_iter()
            .map(|pairing| {
                let pairs = self
                    .align_with(matcher, &pairing.type_id)
                    .expect("dataset type pairing must align");
                (pairing.type_id.clone(), pairs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::SyntheticConfig;

    fn engine() -> MatchEngine {
        MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build()
    }

    #[test]
    fn engine_caches_types_once() {
        let engine = engine();
        assert_eq!(engine.cached_types(), 0);
        let a = engine.schema("film").unwrap();
        assert_eq!(engine.cached_types(), 1);
        let b = engine.schema("film").unwrap();
        // Same allocation: the second request hit the cache.
        assert!(Arc::ptr_eq(&a, &b));
        engine.similarity("film").unwrap();
        assert_eq!(engine.cached_types(), 1);
    }

    #[test]
    fn unknown_type_is_none() {
        let engine = engine();
        assert!(engine.schema("not a type").is_none());
        assert!(engine.align("not a type").is_none());
        assert!(engine
            .align_with(&WikiMatch::default(), "not a type")
            .is_none());
    }

    #[test]
    fn align_shares_cached_artifacts() {
        let engine = engine();
        let alignment = engine.align("film").unwrap();
        let schema = engine.schema("film").unwrap();
        assert!(Arc::ptr_eq(&alignment.schema, &schema));
        assert!(!alignment.cross_pairs().is_empty());
    }

    #[test]
    fn align_all_covers_every_type_in_order() {
        let engine = MatchEngine::builder(Dataset::vn_en(&SyntheticConfig::tiny())).build();
        let alignments = engine.align_all();
        assert_eq!(alignments.len(), engine.dataset().types.len());
        for (alignment, pairing) in alignments.iter().zip(&engine.dataset().types) {
            assert_eq!(alignment.type_id, pairing.type_id);
            assert!(alignment.schema.dual_count > 0);
        }
        assert_eq!(engine.cached_types(), engine.dataset().types.len());
    }

    #[test]
    fn dense_fallback_engine_matches_the_pruned_default() {
        let dataset = Arc::new(Dataset::pt_en(&SyntheticConfig::tiny()));
        let pruned = MatchEngine::builder(Arc::clone(&dataset)).build();
        let dense = MatchEngine::builder(dataset)
            .compute_mode(ComputeMode::Dense)
            .build();
        assert_eq!(pruned.compute_mode(), ComputeMode::Pruned);
        assert_eq!(dense.compute_mode(), ComputeMode::Dense);
        for type_id in ["film", "actor"] {
            let a = pruned.similarity(type_id).unwrap();
            let b = dense.similarity(type_id).unwrap();
            assert_eq!(a.pairs(), b.pairs(), "tables diverge for {type_id}");
            assert_eq!(
                pruned.align(type_id).unwrap().cross_pairs(),
                dense.align(type_id).unwrap().cross_pairs()
            );
        }
        // The dense session scored every channel of every pair; the pruned
        // one split the same grid and skipped some of it.
        let (dense, pruned) = (dense.stats(), pruned.stats());
        assert_eq!(dense.pairs_pruned, 0);
        assert_eq!(
            dense.pairs_scored,
            pruned.pairs_scored + pruned.pairs_pruned
        );
        assert!(pruned.pairs_pruned > 0);
    }

    #[test]
    fn eager_build_warms_the_cache() {
        let engine = MatchEngine::builder(Dataset::vn_en(&SyntheticConfig::tiny()))
            .eager()
            .build();
        assert_eq!(engine.cached_types(), engine.dataset().types.len());
    }

    #[test]
    fn stats_count_requests_builds_and_alignments() {
        let engine = engine();
        // A fresh session holds its corpus and dictionary, nothing else.
        let held = engine.dataset().corpus.heap_bytes() + engine.dictionary().heap_bytes();
        assert_eq!(
            engine.stats(),
            EngineStats {
                resident_bytes: held,
                ..EngineStats::default()
            }
        );
        engine.align("film").unwrap();
        engine.align("film").unwrap();
        engine.schema("film").unwrap();
        let stats = engine.stats();
        assert_eq!(stats.alignments, 2);
        assert_eq!(stats.prepared_requests, 3);
        // Three requests, but the artifacts were built exactly once.
        assert_eq!(stats.artifact_builds, 1);
        assert_eq!(stats.cached_types, 1);
        // Unknown types count as requests but never build anything, and a
        // failed lookup is not a served alignment.
        assert!(engine.align("not a type").is_none());
        let stats = engine.stats();
        assert_eq!(stats.prepared_requests, 4);
        assert_eq!(stats.artifact_builds, 1);
        assert_eq!(stats.alignments, 2);
        // No mutations yet.
        assert_eq!(stats.deltas_applied, 0);
        assert_eq!(stats.rows_recomputed, 0);
    }

    #[test]
    fn stats_expose_memory_footprint_gauges() {
        let engine = engine();
        let cold = engine.stats();
        assert_eq!(cold.interned_terms, 0);
        assert_eq!(cold.interned_bytes, 0);
        assert_eq!(cold.vector_entries, 0);
        let film = engine.prepared("film").unwrap();
        let warm = engine.stats();
        // The gauges aggregate over cached types and agree with the
        // prepared artifacts they summarise.
        assert_eq!(warm.interned_terms, film.arena.len() as u64);
        assert_eq!(warm.interned_bytes, film.arena.term_bytes() as u64);
        assert_eq!(warm.vector_entries, film.vector_entries);
        assert!(warm.interned_terms > 0 && warm.vector_entries > 0);
        // The arena threaded through PreparedType is the schema's.
        assert!(Arc::ptr_eq(&film.arena, film.schema.arena()));
        // A second cached type adds to the gauges.
        let actor = engine.prepared("actor").unwrap();
        let both = engine.stats();
        assert_eq!(
            both.interned_terms,
            (film.arena.len() + actor.arena.len()) as u64
        );
        assert_eq!(
            both.vector_entries,
            film.vector_entries + actor.vector_entries
        );
    }

    #[test]
    fn wikimatch_is_a_schema_matcher() {
        let engine = engine();
        let matcher = WikiMatch::default();
        assert_eq!(SchemaMatcher::name(&matcher), "WikiMatch");
        assert_eq!(matcher.label(), "WikiMatch");
        let via_trait = engine.align_with(&matcher, "film").unwrap();
        let via_engine = engine.align("film").unwrap().cross_pairs();
        assert_eq!(via_trait, via_engine);
    }

    #[test]
    fn align_all_with_runs_a_plugin_over_every_type() {
        let engine = MatchEngine::builder(Dataset::vn_en(&SyntheticConfig::tiny())).build();
        let results = engine.align_all_with(&WikiMatch::default());
        assert_eq!(results.len(), engine.dataset().types.len());
        for ((type_id, pairs), alignment) in results.iter().zip(engine.align_all()) {
            assert_eq!(type_id, &alignment.type_id);
            assert_eq!(pairs, &alignment.cross_pairs());
        }
    }

    #[test]
    fn empty_delta_is_a_cheap_no_op() {
        let engine = engine();
        let before = engine.fingerprint();
        let report = engine.apply_delta(&CorpusDelta::new());
        assert_eq!(
            report,
            DeltaReport {
                fingerprint_before: before,
                fingerprint: before,
                ..DeltaReport::default()
            }
        );
        assert_eq!(engine.stats().deltas_applied, 0);
    }

    #[test]
    fn apply_delta_swaps_dataset_dictionary_and_fingerprint() {
        use wiki_corpus::{Article, AttributeValue, Infobox};
        let engine = engine();
        engine.prepare_all();
        let before_fp = engine.fingerprint();
        let before_dataset = engine.dataset();
        let types = engine.dataset().types.len();

        let mut infobox = Infobox::new("Infobox Film");
        infobox.push(AttributeValue::text("titulo", "Novo Filme"));
        let article = Article::new("Novo Filme", Language::Pt, "Filme", infobox);
        let report = engine.insert_entity(article);

        assert_eq!(report.inserted, 1);
        // A link-free Portuguese film leaves the dictionary and clusters
        // alone, so only the film type is patched — every other cached
        // type carries over untouched.
        assert_eq!(report.types_patched, 1);
        assert_eq!(report.fingerprint_before, before_fp);
        assert_ne!(report.fingerprint, before_fp);
        assert_eq!(engine.fingerprint(), report.fingerprint);
        // The old dataset handle is untouched; the engine moved on.
        assert!(!Arc::ptr_eq(&before_dataset, &engine.dataset()));
        assert_eq!(
            engine.dataset().corpus.len(),
            before_dataset.corpus.len() + 1
        );
        // Artifacts stayed cached (patched, not discarded).
        assert_eq!(engine.cached_types(), types);
        let stats = engine.stats();
        assert_eq!(stats.deltas_applied, 1);
        assert_eq!(stats.artifact_builds, types as u64);

        // Removing it again restores the fingerprint lineage forward (a
        // tombstone is not a byte-identical corpus, so the fingerprint
        // moves again rather than reverting).
        let report2 = engine.remove_entity(Language::Pt, "Novo Filme");
        assert_eq!(report2.removed, 1);
        assert_eq!(report2.fingerprint_before, report.fingerprint);
    }
}
