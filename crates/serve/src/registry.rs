//! The corpus registry: named corpora behind an LRU of shared
//! [`MatchEngine`] sessions.
//!
//! A [`Registry`] owns a set of [`CorpusSpec`]s — descriptions of datasets
//! the service can serve. Sessions are built **lazily** on first request and
//! cached behind an LRU with a configurable capacity, so a `matchd` process
//! can advertise every synthetic scale tier while only paying (memory and
//! build time) for the corpora traffic actually touches.
//!
//! Two levels of request coalescing keep cold corpora from stampeding:
//!
//! 1. **Session builds** — concurrent first requests for the same corpus
//!    rendezvous on a per-corpus `OnceLock` slot: exactly one thread
//!    generates the dataset and builds the engine, the rest block and share
//!    the result (observable through [`CorpusStats::builds`]).
//! 2. **Per-type artifacts** — inside the shared engine, the per-type
//!    schema/similarity builds coalesce the same way (observable through
//!    [`wikimatch::EngineStats::artifact_builds`]).
//!
//! On top of the engine, [`CachedCorpus`] memoises two serving-layer
//! artifacts: the [`CorrespondenceDictionary`] used by query translation and
//! a keyed cache of serialized responses, both built once per residency.
//!
//! ## The disk tier
//!
//! With [`Registry::with_snapshot_dir`] the LRU gains a tier *under* it:
//! evicted sessions spill their computed artifacts to a
//! [`wikimatch::snapshot`] file, [`Registry::warm`] writes through, and a
//! cold request checks the directory before building — a hit **memory-maps**
//! the file and restores the dictionary and every persisted per-type
//! artifact **bit-identical** to a fresh build, with zero artifact
//! computation (artifacts borrow from the mapping and materialize lazily on
//! first touch). Stale or damaged files are never trusted: the snapshot
//! layer validates a corpus fingerprint, format version and checksum, and
//! any rejection — a file of an older format version included — simply
//! falls back to building. Orphaned `.tmp` files from a crashed save are
//! swept at startup.
//!
//! ## The out-of-core tier
//!
//! [`Registry::with_resident_budget_mb`] turns the disk tier into a real
//! out-of-core store: whenever the total *materialized* bytes across
//! resident sessions exceed the budget, LRU sessions are evicted by
//! dropping their maps — the disk file already holds their artifacts, so
//! re-opening is another cheap map, not a rebuild. A registry can thereby
//! advertise a corpus set many times its budget while its heap working set
//! stays bounded.
//!
//! ## Evictions
//!
//! Every eviction — LRU capacity, resident budget or an explicit
//! [`Registry::evict`] — hands the dropped session to a background
//! release that spills it (with a snapshot directory) and then drops it,
//! so the request whose access tipped a limit does not pay for an
//! unrelated corpus. A cold build joins the pending releases before it
//! generates anything: it never races one, and a corpus requested again
//! right after its eviction maps its spill instead of rebuilding.
//! [`Registry::evict`] and [`Registry::persist_resident`] join them too.
//!
//! ## Live corpora
//!
//! [`Registry::mutate`] applies a [`CorpusDelta`] to the resident session
//! through the engine's incremental patcher and journals the resulting
//! record: in memory on the entry (so mutations survive LRU eviction — a
//! rebuild regenerates the pristine dataset and replays the journal) and,
//! with a snapshot directory configured, appended to a checksummed
//! write-ahead journal file next to the snapshot (so they survive a
//! process restart too). The journal is always rooted at the fingerprint
//! of the *pristine* spec-generated dataset; a warm start positions the
//! snapshot on the fingerprint chain, restores its artifacts there, and
//! replays only the journal suffix through `apply_delta` — base + replay,
//! never a cold rebuild just because the corpus has moved past its
//! snapshot. Reaching [`COMPACTION_THRESHOLD`] records compacts the chain
//! into a single diff-derived record and re-snapshots the session at the
//! tip.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::thread::JoinHandle;

use serde::{Deserialize, Serialize};

use wiki_corpus::{Dataset, Language, ScaleTier, SyntheticConfig};
use wiki_query::CorrespondenceDictionary;
use wikimatch::snapshot::{EngineSnapshot, FORMAT_VERSION};
use wikimatch::{
    corpus_fingerprint, ComputeMode, CorpusDelta, DeltaJournal, DeltaReport, EngineStats,
    MappedSnapshot, MatchEngine, SnapshotError,
};

/// Journal length at which [`Registry::mutate`] compacts: the whole chain
/// is composed into one diff-derived record (fingerprint-verified against
/// a fresh pristine replay before it replaces anything) and the session is
/// re-snapshotted at the tip, bounding both replay time on restart and
/// journal growth under sustained mutation.
pub const COMPACTION_THRESHOLD: usize = 8;

/// Attempts a spill makes before declaring the disk tier degraded for
/// this snapshot and quarantining the (now unrefreshable) target.
const SPILL_ATTEMPTS: u32 = 3;
/// First-retry backoff envelope of a failed spill, in milliseconds.
const SPILL_BACKOFF_BASE_MS: u64 = 5;
/// Backoff-envelope cap of a failed spill, in milliseconds.
const SPILL_BACKOFF_CAP_MS: u64 = 50;

/// Counts one graceful-degradation event in the process-wide metrics
/// registry (`wm_degraded_events_total{kind=…}`).
fn degraded_event(kind: &str) {
    wiki_obs::registry()
        .counter_with(
            "wm_degraded_events_total",
            "Graceful-degradation events by kind (spill_failure, \
             snapshot_load_failure, journal_quarantine, snapshot_quarantine, \
             mutation_not_durable).",
            &[("kind", kind)],
        )
        .inc();
}

/// Moves a disk artifact aside to `<path>.corrupt` so it can never be
/// loaded again (while staying available for post-mortem inspection),
/// bumping the corpus' quarantine counter. `copy` preserves the original
/// in place too — used when the caller is about to rewrite `path` with a
/// repaired version and only wants the pre-repair bytes kept.
fn quarantine(path: &Path, entry: &CorpusEntry, kind: &str, copy: bool) {
    let mut target = path.as_os_str().to_owned();
    target.push(".corrupt");
    let target = PathBuf::from(target);
    let moved = if copy {
        std::fs::copy(path, &target).map(|_| ())
    } else {
        std::fs::rename(path, &target)
    };
    match moved {
        Ok(()) => {
            eprintln!(
                "warning: quarantined {} artifact {} -> {}",
                kind,
                path.display(),
                target.display()
            );
            entry.quarantines.fetch_add(1, Ordering::Relaxed);
            degraded_event(kind);
        }
        Err(err) => eprintln!(
            "warning: failed to quarantine {} artifact {}: {err}",
            kind,
            path.display()
        ),
    }
}

/// Captures and saves one session's artifacts, bumping the corpus'
/// `snapshot_saves` on success. Failures are reported and swallowed —
/// persistence is an optimisation, never a serving error — but not
/// silently accepted: a failed write is retried under a seeded,
/// jittered, capped exponential backoff, and when every attempt fails
/// the stale target (which the journal may have moved past, and which
/// this process can evidently no longer refresh) is quarantined so the
/// next cold load rebuilds instead of resurrecting it.
fn spill_to(path: &Path, entry: &CorpusEntry, engine: &MatchEngine) {
    // A disk snapshot in the current format, at the engine's fingerprint
    // and holding every type the engine has cached, makes the capture
    // redundant — the common case when a mapped, never-mutated session
    // that built nothing is evicted: dropping the map *is* the spill. A
    // restored session caches every type of its file, so a file with fewer
    // types than the session lacks one the session built since.
    if let Ok((version, fingerprint, types)) = EngineSnapshot::peek_header(path) {
        if version == FORMAT_VERSION
            && fingerprint == engine.fingerprint()
            && types >= engine.cached_types() as u64
        {
            return;
        }
    }
    let mut backoff = wiki_fault::Backoff::new(
        SPILL_BACKOFF_BASE_MS,
        SPILL_BACKOFF_CAP_MS,
        wiki_fault::seed_from_name(&entry.spec.name),
    );
    for attempt in 1..=SPILL_ATTEMPTS {
        if attempt > 1 {
            std::thread::sleep(backoff.next_delay());
        }
        let result = wiki_fault::check_io("registry.spill")
            .map_err(SnapshotError::Io)
            .and_then(|()| EngineSnapshot::capture(engine).save(path));
        match result {
            Ok(()) => {
                entry.snapshot_saves.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(err) => eprintln!(
                "warning: failed to persist snapshot for corpus {:?} \
                 (attempt {attempt}/{SPILL_ATTEMPTS}): {err}",
                entry.spec.name
            ),
        }
    }
    entry.spill_failures.fetch_add(1, Ordering::Relaxed);
    degraded_event("spill_failure");
    if path.exists() {
        quarantine(path, entry, "snapshot_quarantine", false);
    }
}

/// Recovers the guarded value of a poisoned lock.
///
/// Registry state is a set of once-cells and counters that are consistent
/// at every instruction boundary, so a panic in some worker (caught by the
/// server's panic barrier) must not wedge every other worker sharing the
/// registry.
fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Description of one corpus a [`Registry`] can serve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Registry name of the corpus (e.g. `"pt-medium"`).
    pub name: String,
    /// Foreign language of the pair (English is always the other side).
    pub language: Language,
    /// Generator configuration of the synthetic dataset.
    pub config: SyntheticConfig,
}

impl CorpusSpec {
    /// A spec for one language pair and named scale tier
    /// (`tiny` / `small` / `medium` / `large` / `xlarge`), named
    /// `"<code>-<tier>"`. Tier names are resolved through
    /// [`ScaleTier`], so the registry automatically follows the corpus
    /// crate's tier catalog.
    pub fn tier(language: Language, tier: &str) -> Option<Self> {
        let parsed: ScaleTier = tier.parse().ok()?;
        Some(Self {
            name: format!("{}-{}", language.code(), parsed.name()),
            language,
            config: parsed.config(),
        })
    }

    /// The built-in serving catalog: every synthetic scale tier for both of
    /// the paper's language pairs (`pt-tiny` … `vi-xlarge`).
    pub fn scale_tiers(tiers: &[&str]) -> Vec<Self> {
        let mut specs = Vec::new();
        for language in [Language::Pt, Language::Vn] {
            for tier in tiers {
                if let Some(spec) = Self::tier(language.clone(), tier) {
                    specs.push(spec);
                }
            }
        }
        specs
    }

    /// Generates the dataset this spec describes.
    pub fn dataset(&self) -> Dataset {
        Dataset::generate(self.language.clone(), &self.config)
    }
}

/// Error returned by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No corpus with the given name is registered.
    UnknownCorpus(String),
    /// A mutation was applied to the live session but could not be made
    /// durable: both the write-ahead append and the full-journal rewrite
    /// failed. The caller must not ack the mutation as persisted — the
    /// server answers 503 with `Retry-After` so the (idempotent) delta is
    /// retried once the disk recovers; the entry stays marked dirty and
    /// the next successful mutation rewrites the whole chain.
    MutationNotDurable {
        /// Corpus the mutation targeted.
        corpus: String,
        /// The underlying persistence error.
        detail: String,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownCorpus(name) => write!(f, "unknown corpus {name:?}"),
            RegistryError::MutationNotDurable { corpus, detail } => write!(
                f,
                "mutation applied to corpus {corpus:?} but not yet durable \
                 (journal write failed: {detail}); retry to re-persist"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A resident corpus: the shared engine session plus serving-layer caches
/// that live and die with the residency.
#[derive(Debug)]
pub struct CachedCorpus {
    engine: Arc<MatchEngine>,
    dictionary: OnceLock<CorrespondenceDictionary>,
    responses: ResponseCache,
}

impl CachedCorpus {
    fn from_engine(engine: MatchEngine) -> Self {
        Self::sharing(Arc::new(engine))
    }

    /// A fresh cache shell around an already-shared engine session — the
    /// post-mutation residency swap: the engine's patched artifacts carry
    /// over, the memoised dictionary and serialized responses (computed
    /// against the previous corpus state) start empty.
    fn sharing(engine: Arc<MatchEngine>) -> Self {
        Self {
            engine,
            dictionary: OnceLock::new(),
            responses: ResponseCache::default(),
        }
    }

    /// The shared engine session.
    pub fn engine(&self) -> &Arc<MatchEngine> {
        &self.engine
    }

    /// The correspondence dictionary for query translation, derived from a
    /// full alignment of the corpus on first use (concurrent first requests
    /// coalesce on the slot).
    pub fn dictionary(&self) -> &CorrespondenceDictionary {
        self.dictionary.get_or_init(|| {
            let alignments = self.engine.align_all();
            CorrespondenceDictionary::build(&self.engine.dataset(), &alignments)
        })
    }

    /// A serialized response memoised under `key`; `make` runs at most once
    /// per key per residency, concurrent first requests share one compute.
    ///
    /// `make` may fail; the error (also memoised — response production is
    /// deterministic) is reported to every requester so the serving layer
    /// can answer 500 instead of panicking a worker.
    pub fn response(
        &self,
        key: &str,
        make: impl FnOnce() -> Result<String, String>,
    ) -> Result<Arc<String>, String> {
        self.responses.get_or_init(key, make)
    }
}

/// Keyed once-cache of serialized responses (same slot pattern as the
/// engine's per-type artifacts, so cold keys do not stampede).
#[derive(Debug, Default)]
struct ResponseCache {
    #[allow(clippy::type_complexity)]
    slots: RwLock<HashMap<String, Arc<OnceLock<Result<Arc<String>, String>>>>>,
}

impl ResponseCache {
    fn get_or_init(
        &self,
        key: &str,
        make: impl FnOnce() -> Result<String, String>,
    ) -> Result<Arc<String>, String> {
        let slot = {
            let slots = recover(self.slots.read());
            slots.get(key).cloned()
        };
        let slot = slot.unwrap_or_else(|| {
            let mut slots = recover(self.slots.write());
            Arc::clone(slots.entry(key.to_string()).or_default())
        });
        slot.get_or_init(|| make().map(Arc::new)).clone()
    }
}

/// One registered corpus: its spec, lifetime counters, and the session slot
/// of the current residency (if any).
#[derive(Debug)]
struct CorpusEntry {
    spec: CorpusSpec,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    evictions: AtomicU64,
    snapshot_loads: AtomicU64,
    snapshot_saves: AtomicU64,
    compactions: AtomicU64,
    snapshot_load_failures: AtomicU64,
    spill_failures: AtomicU64,
    quarantines: AtomicU64,
    mutations_not_durable: AtomicU64,
    /// Set when a write-ahead journal append failed after the in-memory
    /// journal (and the live engine) already advanced: the on-disk chain
    /// is behind or broken, so the next journal write must be a full
    /// rewrite, not an append. Read and written under the journal lock.
    journal_dirty: AtomicBool,
    /// `Some(slot)` while resident or being built; `None` when evicted.
    /// Concurrent cold requests clone the same slot and coalesce on its
    /// `OnceLock`.
    session: Mutex<Option<Arc<OnceLock<Arc<CachedCorpus>>>>>,
    /// The corpus' mutation lineage, rooted at the fingerprint of the
    /// pristine spec-generated dataset. Lives on the entry (not the
    /// residency) so mutations survive LRU eviction; the lock also
    /// serializes registry-level mutations of the corpus, keeping the
    /// append order identical to the engine's application order.
    journal: Mutex<Option<DeltaJournal>>,
}

impl CorpusEntry {
    fn new(spec: CorpusSpec) -> Self {
        Self {
            spec,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            snapshot_loads: AtomicU64::new(0),
            snapshot_saves: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            snapshot_load_failures: AtomicU64::new(0),
            spill_failures: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
            mutations_not_durable: AtomicU64::new(0),
            journal_dirty: AtomicBool::new(false),
            session: Mutex::new(None),
            journal: Mutex::new(None),
        }
    }

    fn resident(&self) -> Option<Arc<CachedCorpus>> {
        let session = recover(self.session.lock());
        session.as_ref().and_then(|slot| slot.get()).cloned()
    }
}

/// Lifetime statistics of one registered corpus, as served by `/stats`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusStats {
    /// Registry name.
    pub name: String,
    /// Whether a session is currently resident in the LRU.
    pub resident: bool,
    /// Requests served from the resident session.
    pub hits: u64,
    /// Requests that found the corpus cold (they either started or joined a
    /// session build).
    pub misses: u64,
    /// Session builds actually performed — under concurrent cold traffic
    /// this stays at one per residency (the coalescing invariant).
    pub builds: u64,
    /// Times the session was evicted by LRU pressure or an explicit evict.
    pub evictions: u64,
    /// Session builds that were served from a disk snapshot instead of
    /// computing artifacts (always 0 without a snapshot directory).
    pub snapshot_loads: u64,
    /// Snapshots written for this corpus (evictions spilling, warm writing
    /// through, or an explicit persist).
    pub snapshot_saves: u64,
    /// Records currently on the corpus' delta journal (0 while pristine;
    /// drops back to 1 after a compaction).
    pub journal_records: u64,
    /// Serialized size of the current journal, in bytes.
    pub journal_bytes: u64,
    /// Times the journal was compacted into a single composed record.
    pub compactions: u64,
    /// Disk-tier loads that failed and degraded to a rebuild: unreadable
    /// or off-chain snapshots, and snapshots the engine rejected.
    pub snapshot_load_failures: u64,
    /// Spills abandoned after every backoff retry failed (the session
    /// keeps serving from memory; the stale target is quarantined).
    pub spill_failures: u64,
    /// Disk artifacts moved aside to `*.corrupt` (unreadable journals,
    /// torn-tail originals, unrefreshable snapshots).
    pub quarantines: u64,
    /// Mutations applied to the live session that could not be journaled
    /// to disk and were answered [`RegistryError::MutationNotDurable`].
    pub mutations_not_durable: u64,
    /// Heap bytes held by the resident session's artifacts (0 while cold).
    /// For a mapped session this counts only what has been *materialized* —
    /// the working set the `--max-resident-mb` budget evicts against.
    pub resident_bytes: u64,
    /// Bytes of memory-mapped snapshot backing the resident session (0
    /// while cold, or when the session owns its artifacts on the heap).
    pub mapped_bytes: u64,
    /// Lazy materialisations of mapped channels since the session was
    /// opened (0 for owned sessions).
    pub page_ins: u64,
    /// Activity counters of the resident engine (`None` while cold).
    pub engine: Option<EngineStats>,
}

/// Snapshot of the whole registry, as served by `/stats`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistryStats {
    /// Maximum number of resident sessions.
    pub capacity: usize,
    /// Similarity-table compute mode engines are built with.
    pub mode: ComputeMode,
    /// Directory of the snapshot disk tier (`None` when disabled).
    pub snapshot_dir: Option<String>,
    /// Resident-bytes budget of the out-of-core tier, in bytes (`None`
    /// when unlimited).
    pub resident_budget_bytes: Option<u64>,
    /// Currently resident sessions.
    pub resident: usize,
    /// Total artifact heap bytes across resident sessions.
    pub resident_bytes: u64,
    /// Total memory-mapped snapshot bytes across resident sessions.
    pub mapped_bytes: u64,
    /// Total lazy page-ins across resident sessions.
    pub page_ins: u64,
    /// Per-corpus stats, in registration order.
    pub corpora: Vec<CorpusStats>,
}

/// Named corpora behind an LRU of shared [`MatchEngine`] sessions.
///
/// All operations are `&self` and thread-safe; the registry is designed to
/// sit behind an `Arc` shared by every server worker.
#[derive(Debug)]
pub struct Registry {
    capacity: usize,
    mode: ComputeMode,
    /// Directory of the snapshot disk tier; `None` disables persistence.
    snapshot_dir: Option<PathBuf>,
    /// Resident-bytes budget of the out-of-core tier, in bytes; `None`
    /// means unlimited (the LRU capacity is the only bound).
    resident_budget: Option<u64>,
    /// Registered corpora; `Vec` keeps registration order for `/stats`.
    entries: RwLock<Vec<Arc<CorpusEntry>>>,
    /// LRU bookkeeping: name → last-used tick, for resident corpora only.
    lru: Mutex<LruState>,
    /// Background releases of evicted sessions not yet joined.
    releases: Mutex<Vec<JoinHandle<()>>>,
}

#[derive(Debug, Default)]
struct LruState {
    tick: u64,
    last_used: HashMap<String, u64>,
}

impl Registry {
    /// Creates a registry holding at most `capacity` resident sessions
    /// (minimum 1), building engines with the given compute mode.
    pub fn new(capacity: usize, mode: ComputeMode) -> Self {
        Self {
            capacity: capacity.max(1),
            mode,
            snapshot_dir: None,
            resident_budget: None,
            entries: RwLock::new(Vec::new()),
            lru: Mutex::new(LruState::default()),
            releases: Mutex::new(Vec::new()),
        }
    }

    /// Enables the snapshot disk tier under the LRU: cold requests check
    /// `dir` for a persisted session before building, evicted sessions
    /// spill their artifacts there, and [`warm`](Self::warm) writes
    /// through. See [`wikimatch::snapshot`] for the file format and its
    /// validation (fingerprint, version, checksum).
    ///
    /// Orphaned temporary files from a save that crashed mid-write (the
    /// atomic-save protocol writes `.{name}.tmp-{pid}-{seq}` siblings and
    /// renames them into place) are swept from `dir` here, so they cannot
    /// accumulate across restarts.
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        Self::sweep_orphaned_tmp(&dir);
        self.snapshot_dir = Some(dir);
        self
    }

    /// Enables the out-of-core resident-bytes budget: whenever the
    /// *materialized* bytes across resident sessions exceed `mb` megabytes,
    /// least-recently used sessions are evicted (their maps dropped) until
    /// the total is back under budget — always keeping at least the most
    /// recent session resident. Requires a snapshot directory, which is
    /// where the mapped files live.
    ///
    /// # Panics
    ///
    /// Panics if no snapshot directory is configured; call
    /// [`with_snapshot_dir`](Self::with_snapshot_dir) first.
    pub fn with_resident_budget_mb(mut self, mb: u64) -> Self {
        assert!(
            self.snapshot_dir.is_some(),
            "a resident budget requires a snapshot directory (call with_snapshot_dir first)"
        );
        self.resident_budget = Some(mb.saturating_mul(1024 * 1024));
        self
    }

    /// Removes orphaned snapshot/journal temp files (left by a crash
    /// between the temp write and the rename) from the disk-tier directory.
    fn sweep_orphaned_tmp(dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return; // Directory not created yet: nothing to sweep.
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with('.') && name.contains(".tmp-") {
                let path = entry.path();
                match std::fs::remove_file(&path) {
                    Ok(()) => {
                        eprintln!("info: swept orphaned snapshot temp file {}", path.display())
                    }
                    Err(err) => eprintln!(
                        "warning: failed to sweep orphaned temp file {}: {err}",
                        path.display()
                    ),
                }
            }
        }
    }

    /// The snapshot directory of the disk tier, if enabled.
    pub fn snapshot_dir(&self) -> Option<&Path> {
        self.snapshot_dir.as_deref()
    }

    /// The filesystem stem of a corpus' disk-tier files. Names made
    /// entirely of filesystem-safe characters map to themselves; anything
    /// else is sanitised **and** suffixed with a hash of the raw name, so
    /// two distinct corpora (e.g. `"a b"` and `"a_b"`) can never clobber
    /// each other's files.
    fn artifact_stem(name: &str) -> String {
        let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
        if !name.is_empty() && name.chars().all(safe) {
            name.to_string()
        } else {
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for byte in name.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            let sanitised: String = name
                .chars()
                .map(|c| if safe(c) { c } else { '_' })
                .collect();
            format!("{sanitised}-{:08x}", (hash as u32) ^ ((hash >> 32) as u32))
        }
    }

    /// The snapshot file of a corpus (`<stem>.snap`).
    fn snapshot_path(&self, name: &str) -> Option<PathBuf> {
        let dir = self.snapshot_dir.as_ref()?;
        Some(dir.join(format!("{}.snap", Self::artifact_stem(name))))
    }

    /// The write-ahead delta journal of a corpus (`<stem>.journal`), a
    /// sibling of its snapshot.
    fn journal_path(&self, name: &str) -> Option<PathBuf> {
        let dir = self.snapshot_dir.as_ref()?;
        Some(dir.join(format!("{}.journal", Self::artifact_stem(name))))
    }

    /// Resolves the delta journal of a corpus, always rooted at the
    /// fingerprint of the pristine spec-generated dataset. Prefers the
    /// in-memory journal on the entry (it survives LRU eviction), falls
    /// back to the disk tier (recovering a torn tail and rewriting the
    /// file), and roots a fresh empty journal otherwise. A journal rooted
    /// at a different fingerprint — the spec was re-registered with a new
    /// generator — is discarded: its lineage no longer applies. The
    /// resolved journal is installed on the entry before returning.
    fn resident_journal(&self, entry: &CorpusEntry, base_fingerprint: u64) -> DeltaJournal {
        let mut slot = recover(entry.journal.lock());
        if let Some(journal) = slot.as_ref() {
            if journal.base_fingerprint == base_fingerprint {
                return journal.clone();
            }
        }
        let mut resolved = DeltaJournal::new(base_fingerprint);
        if let Some(path) = self.journal_path(&entry.spec.name) {
            match DeltaJournal::load_recovering(&path) {
                Ok((journal, torn)) if journal.base_fingerprint == base_fingerprint => {
                    if let Some(reason) = torn {
                        eprintln!(
                            "warning: journal {} had a torn tail ({reason}); recovered {} records",
                            path.display(),
                            journal.len()
                        );
                        // Keep the pre-repair bytes for inspection, then
                        // rewrite the file as the verified prefix so the
                        // torn suffix cannot resurface.
                        quarantine(&path, entry, "journal_quarantine", true);
                        if let Err(err) = journal.save(&path) {
                            eprintln!(
                                "warning: failed to rewrite recovered journal {}: {err}",
                                path.display()
                            );
                        }
                    }
                    resolved = journal;
                }
                Ok((journal, _)) => {
                    eprintln!(
                        "warning: journal {} is rooted at {:016x}, expected {:016x}; \
                         quarantining its {} records",
                        path.display(),
                        journal.base_fingerprint,
                        base_fingerprint,
                        journal.len()
                    );
                    // An off-lineage journal must leave the append path:
                    // writing this corpus' records after its foreign
                    // header would corrupt both chains.
                    quarantine(&path, entry, "journal_quarantine", false);
                }
                Err(SnapshotError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => {}
                Err(err) => {
                    // Nothing recoverable at all (e.g. a torn *header*
                    // from a crash inside the first append). Move the
                    // garbage aside: appending acked records after it
                    // would make every one of them unrecoverable.
                    eprintln!(
                        "warning: quarantining unreadable journal {}: {err}",
                        path.display()
                    );
                    quarantine(&path, entry, "journal_quarantine", false);
                }
            }
        }
        *slot = Some(resolved.clone());
        resolved
    }

    /// Replays `journal.records[..upto]` over a copy of `pristine`,
    /// verifying every record's post fingerprint as it lands. Returns the
    /// replayed dataset and how many records verified — fewer than `upto`
    /// only if a record fails to replay to its recorded fingerprint, which
    /// the checksummed, chain-validated journal format makes practically
    /// unreachable; the surviving prefix is still exact (divergence is
    /// detected *after* the bad record, so the returned dataset is rebuilt
    /// from the prefix alone). With nothing to replay — every cold hit of
    /// an unmutated corpus — the pristine itself is returned, uncopied.
    fn replay_prefix(
        pristine: &Arc<Dataset>,
        journal: &DeltaJournal,
        upto: usize,
    ) -> (Arc<Dataset>, usize) {
        if upto == 0 {
            return (Arc::clone(pristine), 0);
        }
        let mut dataset = Dataset::clone(pristine);
        let mut verified = 0;
        for record in &journal.records[..upto] {
            record.delta.apply_to(&mut dataset.corpus);
            if corpus_fingerprint(&dataset) != record.post_fingerprint {
                // Roll back to the verified prefix by replaying it afresh.
                dataset = Dataset::clone(pristine);
                for good in &journal.records[..verified] {
                    good.delta.apply_to(&mut dataset.corpus);
                }
                break;
            }
            verified += 1;
        }
        (Arc::new(dataset), verified)
    }

    /// Builds (or disk-loads) the session of one corpus. Runs inside the
    /// entry's build slot, so it executes at most once per residency.
    ///
    /// A corpus with a non-empty journal is *mutated*: its current state is
    /// the pristine spec-generated dataset plus the journal's replay. The
    /// snapshot (which may have been written at any point of the lineage)
    /// is positioned on the fingerprint chain, its artifacts restored
    /// there, and only the journal suffix is replayed through the engine's
    /// incremental patcher — a corpus that has moved past its snapshot
    /// falls back to base + replay, never to a cold rebuild.
    fn build_corpus(&self, entry: &CorpusEntry) -> CachedCorpus {
        // A pending release would overlap this build, and the spill of this
        // very corpus may be among them.
        self.join_releases();
        // Shared, not copied: a session restored or built over the pristine
        // itself keeps it, and the fallback below still reads it.
        let pristine = Arc::new(entry.spec.dataset());
        let base_fingerprint = corpus_fingerprint(&pristine);
        let mut journal = self.resident_journal(entry, base_fingerprint);

        let snapshot = self.snapshot_path(&entry.spec.name).and_then(|path| {
            // The file is validated and *mapped*: its artifacts borrow from
            // it and materialize lazily.
            match MappedSnapshot::open(&path) {
                Ok(mapped) => Some(mapped.snapshot),
                // No snapshot yet: the common cold-start case, not an error.
                Err(SnapshotError::Io(err)) if err.kind() == std::io::ErrorKind::NotFound => None,
                Err(err) => {
                    // Degrade to a rebuild and quarantine the file: a
                    // snapshot that failed validation once (an older
                    // format version included) will fail it on every
                    // future cold load too.
                    eprintln!(
                        "warning: unreadable snapshot {} for corpus {:?}: {err}; rebuilding",
                        path.display(),
                        entry.spec.name
                    );
                    entry.snapshot_load_failures.fetch_add(1, Ordering::Relaxed);
                    degraded_event("snapshot_load_failure");
                    quarantine(&path, entry, "snapshot_quarantine", false);
                    None
                }
            }
        });

        // Position the snapshot on the journal's fingerprint chain:
        // `Some(r)` restores it over the corpus as of record `r`.
        let position = snapshot.as_ref().and_then(|snapshot| {
            if snapshot.fingerprint == base_fingerprint {
                Some(0)
            } else {
                journal
                    .records
                    .iter()
                    .position(|r| r.post_fingerprint == snapshot.fingerprint)
                    .map(|i| i + 1)
            }
        });
        if snapshot.is_some() && position.is_none() {
            eprintln!(
                "warning: snapshot for corpus {:?} is not on the journal's \
                 fingerprint chain; rebuilding",
                entry.spec.name
            );
            entry.snapshot_load_failures.fetch_add(1, Ordering::Relaxed);
            degraded_event("snapshot_load_failure");
        }

        if let (Some(snapshot), Some(at)) = (snapshot, position) {
            let (dataset, verified) = Self::replay_prefix(&pristine, &journal, at);
            if verified < at {
                self.truncate_journal(entry, &mut journal, verified);
            } else {
                let restored = MatchEngine::builder(dataset)
                    .compute_mode(self.mode)
                    .build_from_snapshot(snapshot);
                match restored {
                    Ok(engine) => {
                        entry.snapshot_loads.fetch_add(1, Ordering::Relaxed);
                        // Replay the suffix through the incremental patcher:
                        // restored artifacts are patched, not rebuilt.
                        let mut reached = at;
                        for record in &journal.records[at..] {
                            let report = engine.apply_delta(&record.delta);
                            if report.fingerprint != record.post_fingerprint {
                                break;
                            }
                            reached += 1;
                        }
                        if reached == journal.len() {
                            return CachedCorpus::from_engine(engine);
                        }
                        // A record diverged mid-suffix and is already
                        // applied to the engine: discard the engine and
                        // rebuild cold over the verified prefix instead.
                        self.truncate_journal(entry, &mut journal, reached);
                    }
                    Err(err) => {
                        eprintln!(
                            "warning: snapshot rejected for corpus {:?}: {err}; rebuilding",
                            entry.spec.name
                        );
                        entry.snapshot_load_failures.fetch_add(1, Ordering::Relaxed);
                        degraded_event("snapshot_load_failure");
                    }
                }
            }
        }

        // No usable snapshot: cold build over base + replay, so journaled
        // mutations are never lost.
        let (dataset, verified) = Self::replay_prefix(&pristine, &journal, journal.len());
        if verified < journal.len() {
            self.truncate_journal(entry, &mut journal, verified);
        }
        CachedCorpus::from_engine(
            MatchEngine::builder(dataset)
                .compute_mode(self.mode)
                .build(),
        )
    }

    /// Truncates a corpus' journal to its first `keep` records — the
    /// last-resort response to a record that fails to replay to its
    /// recorded fingerprint — updating the entry's journal and rewriting
    /// the disk file so the dropped suffix cannot resurface.
    fn truncate_journal(&self, entry: &CorpusEntry, journal: &mut DeltaJournal, keep: usize) {
        eprintln!(
            "warning: truncating journal of corpus {:?} from {} to {keep} records",
            entry.spec.name,
            journal.len()
        );
        journal.records.truncate(keep);
        if let Some(path) = self.journal_path(&entry.spec.name) {
            // Preserve the pre-truncation bytes: the dropped suffix is
            // evidence of a divergence the checksummed format should have
            // made unreachable.
            if path.exists() {
                quarantine(&path, entry, "journal_quarantine", true);
            }
            if let Err(err) = journal.save(&path) {
                eprintln!(
                    "warning: failed to rewrite truncated journal {}: {err}",
                    path.display()
                );
            }
        }
        *recover(entry.journal.lock()) = Some(journal.clone());
    }

    /// Writes the session's current artifacts to the disk tier (no-op
    /// without a snapshot directory). Failures are reported and swallowed:
    /// persistence is an optimisation, never a serving error.
    fn spill(&self, entry: &CorpusEntry, engine: &MatchEngine) {
        let Some(path) = self.snapshot_path(&entry.spec.name) else {
            return;
        };
        spill_to(&path, entry, engine);
    }

    /// Spills every currently resident session to the disk tier — the
    /// graceful-shutdown hook behind `matchd --persist`, so the next start
    /// serves from disk without rebuilding anything. Pending eviction
    /// spills are finished first. Returns the number of resident sessions
    /// written; always 0 without a snapshot directory.
    pub fn persist_resident(&self) -> usize {
        if self.snapshot_dir.is_none() {
            return 0;
        }
        self.join_releases();
        let entries: Vec<Arc<CorpusEntry>> = recover(self.entries.read()).clone();
        let mut written = 0;
        for entry in entries {
            if let Some(cached) = entry.resident() {
                let before = entry.snapshot_saves.load(Ordering::Relaxed);
                self.spill(&entry, cached.engine());
                if entry.snapshot_saves.load(Ordering::Relaxed) > before {
                    written += 1;
                }
            }
        }
        written
    }

    /// Registers a corpus; replaces any previous spec with the same name
    /// (dropping its resident session, counters and LRU slot).
    pub fn register(&self, spec: CorpusSpec) {
        let name = spec.name.clone();
        {
            let mut entries = recover(self.entries.write());
            let entry = Arc::new(CorpusEntry::new(spec));
            if let Some(existing) = entries.iter_mut().find(|e| e.spec.name == entry.spec.name) {
                *existing = entry;
            } else {
                entries.push(entry);
            }
        }
        // A replaced corpus has no resident session any more; its stale LRU
        // entry must go with it or capacity enforcement would count (and
        // try to evict) a ghost.
        let mut lru = recover(self.lru.lock());
        lru.last_used.remove(&name);
    }

    /// Registers every spec of an iterator.
    pub fn register_all(&self, specs: impl IntoIterator<Item = CorpusSpec>) {
        for spec in specs {
            self.register(spec);
        }
    }

    /// Maximum number of resident sessions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Names of the registered corpora, in registration order.
    pub fn names(&self) -> Vec<String> {
        recover(self.entries.read())
            .iter()
            .map(|e| e.spec.name.clone())
            .collect()
    }

    /// The registered specs, in registration order.
    pub fn specs(&self) -> Vec<CorpusSpec> {
        recover(self.entries.read())
            .iter()
            .map(|e| e.spec.clone())
            .collect()
    }

    fn entry(&self, name: &str) -> Result<Arc<CorpusEntry>, RegistryError> {
        recover(self.entries.read())
            .iter()
            .find(|e| e.spec.name == name)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownCorpus(name.to_string()))
    }

    /// The resident session of `name`, building it (once, even under
    /// concurrent cold requests) if necessary. The hot path is one entry
    /// lookup plus one mutex-guarded slot clone.
    pub fn corpus(&self, name: &str) -> Result<Arc<CachedCorpus>, RegistryError> {
        let entry = self.entry(name)?;
        let slot = {
            let mut session = recover(entry.session.lock());
            match session.as_ref() {
                Some(slot) => {
                    if slot.get().is_some() {
                        entry.hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Joining an in-flight build still counts as a miss.
                        entry.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    Arc::clone(slot)
                }
                None => {
                    entry.misses.fetch_add(1, Ordering::Relaxed);
                    let slot: Arc<OnceLock<Arc<CachedCorpus>>> = Arc::default();
                    *session = Some(Arc::clone(&slot));
                    slot
                }
            }
        };
        let cached = Arc::clone(slot.get_or_init(|| {
            entry.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(self.build_corpus(&entry))
        }));
        self.touch(name);
        // Limits are enforced on every access, not just on builds: mapped
        // sessions grow their materialized working set lazily as channels
        // are touched, so a hit can tip the total over as surely as a
        // build can.
        self.enforce_limits();
        Ok(cached)
    }

    /// Convenience accessor for the engine of a corpus.
    pub fn engine(&self, name: &str) -> Result<Arc<MatchEngine>, RegistryError> {
        Ok(Arc::clone(self.corpus(name)?.engine()))
    }

    /// Builds the session of `name` (if cold) and precomputes the per-type
    /// artifacts of every entity type, in parallel. With a snapshot
    /// directory configured the fully warmed session is written through to
    /// disk, so the *next* process start serves it without rebuilding.
    pub fn warm(&self, name: &str) -> Result<Arc<CachedCorpus>, RegistryError> {
        let entry = self.entry(name)?;
        let cached = self.corpus(name)?;
        cached.engine().prepare_all();
        self.spill(&entry, cached.engine());
        Ok(cached)
    }

    /// Applies a mutation delta to the session of `name` (building it
    /// first if cold) and journals the resulting record, so the mutation
    /// survives both LRU eviction (in-memory journal on the entry) and —
    /// with a snapshot directory configured — a process restart
    /// (write-ahead append to the corpus' journal file).
    ///
    /// The engine patches its artifacts incrementally; the residency's
    /// serving-layer caches (memoised dictionary, serialized responses)
    /// are swapped for fresh ones, since they were computed against the
    /// previous corpus state. Reaching [`COMPACTION_THRESHOLD`] journal
    /// records triggers a compaction.
    ///
    /// A delta that leaves the corpus fingerprint unchanged (e.g. only
    /// removals of unknown keys) is reported but not journaled.
    pub fn mutate(&self, name: &str, delta: &CorpusDelta) -> Result<DeltaReport, RegistryError> {
        let entry = self.entry(name)?;
        let cached = self.corpus(name)?;
        // The journal lock serializes registry-level mutations of this
        // corpus: `apply_delta` runs under it, so journal append order is
        // exactly the engine's application order and the fingerprint chain
        // stays linked.
        let mut journal_slot = recover(entry.journal.lock());
        let report = cached.engine().apply_delta(delta);
        if report.fingerprint == report.fingerprint_before {
            // The retry of a mutation answered `MutationNotDurable` lands
            // here (upserts are idempotent, so the replayed delta is a
            // fingerprint no-op): the chain on disk is still behind the
            // engine, so repair it before acking, or keep refusing.
            if entry.journal_dirty.load(Ordering::Relaxed) {
                if let (Some(path), Some(journal)) =
                    (self.journal_path(name), journal_slot.as_ref())
                {
                    match journal.save(&path) {
                        Ok(()) => entry.journal_dirty.store(false, Ordering::Relaxed),
                        Err(err) => {
                            entry.mutations_not_durable.fetch_add(1, Ordering::Relaxed);
                            degraded_event("mutation_not_durable");
                            return Err(RegistryError::MutationNotDurable {
                                corpus: name.to_string(),
                                detail: err.to_string(),
                            });
                        }
                    }
                }
            }
            return Ok(report);
        }
        let journal =
            journal_slot.get_or_insert_with(|| DeltaJournal::new(report.fingerprint_before));
        if journal.tip() != report.fingerprint_before {
            // Unreachable in normal operation (every mutation holds this
            // lock): re-root defensively so the in-memory chain stays
            // linked. The re-rooted journal no longer reaches back to the
            // pristine dataset, so a restart will discard it — consistency
            // of the live session wins over persistence.
            eprintln!(
                "warning: journal of corpus {name:?} lost its lineage \
                 (tip {:016x}, engine was at {:016x}); re-rooting",
                journal.tip(),
                report.fingerprint_before
            );
            *journal = DeltaJournal::new(report.fingerprint_before);
        }
        let record = journal.append(delta.clone(), report.fingerprint).clone();
        let mut not_durable: Option<String> = None;
        if let Some(path) = self.journal_path(name) {
            // A dirty chain (an earlier append failed after the in-memory
            // journal advanced) cannot be appended to — the file is behind
            // or torn — so the whole verified chain is rewritten instead.
            let written = if entry.journal_dirty.load(Ordering::Relaxed) {
                journal.save(&path)
            } else {
                DeltaJournal::append_record_to(&path, journal.base_fingerprint, &record).or_else(
                    |err| {
                        eprintln!(
                            "warning: failed to journal delta for corpus {name:?}: {err}; \
                             rewriting the full journal"
                        );
                        journal.save(&path)
                    },
                )
            };
            match written {
                Ok(()) => entry.journal_dirty.store(false, Ordering::Relaxed),
                Err(err) => {
                    entry.journal_dirty.store(true, Ordering::Relaxed);
                    entry.mutations_not_durable.fetch_add(1, Ordering::Relaxed);
                    degraded_event("mutation_not_durable");
                    not_durable = Some(err.to_string());
                }
            }
        }
        // Swap the residency's cache shell: the engine (with its patched
        // artifacts) carries over, the stale memoised responses do not.
        // This happens even when the append failed — the live session has
        // moved, so stale caches would serve pre-delta answers.
        {
            let mut session = recover(entry.session.lock());
            let slot: Arc<OnceLock<Arc<CachedCorpus>>> = Arc::default();
            let _ = slot.set(Arc::new(CachedCorpus::sharing(Arc::clone(cached.engine()))));
            *session = Some(slot);
        }
        if let Some(detail) = not_durable {
            // No compaction while not durable: compacting rewrites the
            // disk chain, and the priority is answering the caller that
            // their ack is withheld.
            return Err(RegistryError::MutationNotDurable {
                corpus: name.to_string(),
                detail,
            });
        }
        if journal.len() >= COMPACTION_THRESHOLD && self.compact(&entry, journal, cached.engine()) {
            entry.compactions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    }

    /// Compacts a journal: composes the whole chain into one diff-derived
    /// record `[pristine → tip]`, verified by replaying the composition
    /// over a freshly generated pristine dataset and checking its
    /// fingerprint against the tip **before** it replaces anything — on
    /// any mismatch the full journal stays in place (it is always sound)
    /// and `false` is returned. On success the disk journal is rewritten
    /// and the session re-snapshotted at the tip, so the next start
    /// restores artifacts directly instead of replaying a long chain.
    fn compact(
        &self,
        entry: &CorpusEntry,
        journal: &mut DeltaJournal,
        engine: &MatchEngine,
    ) -> bool {
        let mut pristine = entry.spec.dataset();
        if corpus_fingerprint(&pristine) != journal.base_fingerprint {
            // The spec drifted under us; composing against the wrong base
            // would corrupt the lineage.
            return false;
        }
        let current = engine.dataset();
        let composed = CorpusDelta::diff(&pristine.corpus, &current.corpus);
        composed.apply_to(&mut pristine.corpus);
        if corpus_fingerprint(&pristine) != journal.tip() {
            eprintln!(
                "warning: composed delta of corpus {:?} failed fingerprint \
                 verification; keeping the full journal",
                entry.spec.name
            );
            return false;
        }
        let mut compacted = DeltaJournal::new(journal.base_fingerprint);
        compacted.append(composed, journal.tip());
        if let Some(path) = self.journal_path(&entry.spec.name) {
            if let Err(err) = compacted.save(&path) {
                eprintln!(
                    "warning: failed to write compacted journal of corpus {:?}: {err}",
                    entry.spec.name
                );
                // The on-disk chain is still the full journal; keep the
                // in-memory journal matching it.
                return false;
            }
        }
        *journal = compacted;
        self.spill(entry, engine);
        true
    }

    /// Evicts the resident session of `name` (if any); returns whether a
    /// session was actually dropped. In-flight holders of the session keep
    /// it alive through their `Arc`s. With a snapshot directory configured
    /// the evicted session's artifacts are on disk when this returns, so a
    /// later request restores them instead of recomputing.
    pub fn evict(&self, name: &str) -> Result<bool, RegistryError> {
        let evicted = self.release(name);
        self.join_releases();
        evicted
    }

    /// Evicts the resident session of `name` (if any) without waiting for
    /// it: a new thread spills the session (with a snapshot directory) and
    /// then drops it. Its handle is pushed under the same `releases` lock
    /// that covers the session drop, so a cold build that finds the corpus
    /// evicted always finds its release pending too.
    fn release(&self, name: &str) -> Result<bool, RegistryError> {
        let entry = self.entry(name)?;
        // Chaos hook: delay (or abort) an eviction before the session
        // drop and the spill, the window crash-consistency cares about.
        wiki_fault::pause("registry.evict");
        let mut releases = recover(self.releases.lock());
        let dropped = {
            let mut session = recover(entry.session.lock());
            // Only drop *completed* sessions: evicting an in-flight build
            // would detach the builders from the slot bookkeeping.
            match session.as_ref() {
                Some(slot) if slot.get().is_some() => {
                    let cached = slot.get().cloned();
                    *session = None;
                    cached
                }
                _ => None,
            }
        };
        let evicted = dropped.is_some();
        if let Some(cached) = dropped {
            entry.evictions.fetch_add(1, Ordering::Relaxed);
            let path = self.snapshot_path(name);
            releases.push(std::thread::spawn(move || {
                if let Some(path) = path {
                    spill_to(&path, &entry, cached.engine());
                }
            }));
        }
        drop(releases);
        // Always clear the LRU slot, even when nothing was resident: a
        // stale entry (e.g. left by a touch racing an evict) would
        // otherwise be re-selected as the LRU victim forever.
        let mut lru = recover(self.lru.lock());
        lru.last_used.remove(name);
        Ok(evicted)
    }

    /// Waits for every pending release. The handles are taken under the
    /// lock and joined outside it, so evictions elsewhere never wait on a
    /// spill they did not start.
    fn join_releases(&self) {
        let pending = std::mem::take(&mut *recover(self.releases.lock()));
        for release in pending {
            // A release that panicked lost only its spill; the session is
            // dropped either way.
            let _ = release.join();
        }
    }

    fn touch(&self, name: &str) {
        let mut lru = recover(self.lru.lock());
        lru.tick += 1;
        let tick = lru.tick;
        lru.last_used.insert(name.to_string(), tick);
    }

    /// Evicts least-recently-used sessions while the registry is over a
    /// limit. A resident session costs one LRU slot plus its materialized
    /// `resident_bytes`: eviction runs while more than `capacity` slots are
    /// taken, or, under a resident budget, while more than one session is
    /// resident and their bytes exceed the budget (the floor of one keeps
    /// the corpus just served). The victim is always the *global* oldest
    /// slot by `(tick, name)`, so concurrent enforcers agree on it instead
    /// of evicting each other's fresh builds; a slot whose session is gone
    /// is just cleared. Victims go to background releases, which the next
    /// cold build joins: eviction happens on a request worker serving some
    /// unrelated corpus, which must not wait for the spill.
    fn enforce_limits(&self) {
        let over_budget = || {
            let Some(budget) = self.resident_budget else {
                return false;
            };
            let entries: Vec<Arc<CorpusEntry>> = recover(self.entries.read()).clone();
            let bytes: Vec<u64> = entries
                .iter()
                .filter_map(|entry| entry.resident())
                .map(|cached| cached.engine().stats().resident_bytes)
                .collect();
            bytes.len() > 1 && bytes.iter().sum::<u64>() > budget
        };
        loop {
            let over_capacity = recover(self.lru.lock()).last_used.len() > self.capacity;
            if !over_capacity && !over_budget() {
                return;
            }
            let victim = recover(self.lru.lock())
                .last_used
                .iter()
                .min_by_key(|&(name, &tick)| (tick, name))
                .map(|(name, _)| name.clone());
            let Some(name) = victim else {
                return;
            };
            // `release` clears the slot even when no session is resident;
            // a corpus that has since been unregistered is cleared by
            // hand, so every iteration shrinks `last_used`.
            if self.release(&name).is_err() {
                recover(self.lru.lock()).last_used.remove(&name);
            }
        }
    }

    /// A point-in-time snapshot of the registry.
    pub fn stats(&self) -> RegistryStats {
        let entries = recover(self.entries.read());
        let corpora: Vec<CorpusStats> = entries
            .iter()
            .map(|entry| {
                let resident = entry.resident();
                let (journal_records, journal_bytes) = {
                    let slot = recover(entry.journal.lock());
                    match slot.as_ref() {
                        Some(journal) if !journal.is_empty() => {
                            (journal.len() as u64, journal.to_bytes().len() as u64)
                        }
                        _ => (0, 0),
                    }
                };
                let engine = resident.map(|cached| cached.engine().stats());
                CorpusStats {
                    name: entry.spec.name.clone(),
                    resident: engine.is_some(),
                    hits: entry.hits.load(Ordering::Relaxed),
                    misses: entry.misses.load(Ordering::Relaxed),
                    builds: entry.builds.load(Ordering::Relaxed),
                    evictions: entry.evictions.load(Ordering::Relaxed),
                    snapshot_loads: entry.snapshot_loads.load(Ordering::Relaxed),
                    snapshot_saves: entry.snapshot_saves.load(Ordering::Relaxed),
                    journal_records,
                    journal_bytes,
                    compactions: entry.compactions.load(Ordering::Relaxed),
                    snapshot_load_failures: entry.snapshot_load_failures.load(Ordering::Relaxed),
                    spill_failures: entry.spill_failures.load(Ordering::Relaxed),
                    quarantines: entry.quarantines.load(Ordering::Relaxed),
                    mutations_not_durable: entry.mutations_not_durable.load(Ordering::Relaxed),
                    resident_bytes: engine.as_ref().map_or(0, |e| e.resident_bytes),
                    mapped_bytes: engine.as_ref().map_or(0, |e| e.mapped_bytes),
                    page_ins: engine.as_ref().map_or(0, |e| e.page_ins),
                    engine,
                }
            })
            .collect();
        RegistryStats {
            capacity: self.capacity,
            mode: self.mode,
            snapshot_dir: self
                .snapshot_dir
                .as_ref()
                .map(|dir| dir.display().to_string()),
            resident_budget_bytes: self.resident_budget,
            resident: corpora.iter().filter(|c| c.resident).count(),
            resident_bytes: corpora.iter().map(|c| c.resident_bytes).sum(),
            mapped_bytes: corpora.iter().map(|c| c.mapped_bytes).sum(),
            page_ins: corpora.iter().map(|c| c.page_ins).sum(),
            corpora,
        }
    }
}

// The registry is shared by every server worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Registry>();
    assert_send_sync::<CachedCorpus>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn test_spec(name: &str) -> CorpusSpec {
        CorpusSpec {
            name: name.to_string(),
            language: Language::Pt,
            config: SyntheticConfig::tiny(),
        }
    }

    fn registry_with(names: &[&str], capacity: usize) -> Registry {
        let registry = Registry::new(capacity, ComputeMode::default());
        registry.register_all(names.iter().map(|n| test_spec(n)));
        registry
    }

    #[test]
    fn unknown_corpus_is_an_error() {
        let registry = registry_with(&["a"], 2);
        assert_eq!(
            registry.engine("nope").unwrap_err(),
            RegistryError::UnknownCorpus("nope".to_string())
        );
        assert!(registry.engine("a").is_ok());
    }

    #[test]
    fn sessions_are_shared_and_counted() {
        let registry = registry_with(&["a"], 2);
        let first = registry.engine("a").unwrap();
        let second = registry.engine("a").unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = registry.stats();
        assert_eq!(stats.resident, 1);
        let corpus = &stats.corpora[0];
        assert_eq!((corpus.misses, corpus.hits, corpus.builds), (1, 1, 1));
        assert!(corpus.engine.is_some());
    }

    /// The `/stats` payload carries the candidate-frontier gauges: after a
    /// full warm, `pairs_scored + pairs_pruned` covers every ordered pair of
    /// every type, and the default registry actually prunes.
    #[test]
    fn stats_expose_candidate_frontier_gauges() {
        let registry = Registry::new(2, ComputeMode::default());
        registry.register_all([test_spec("a")]);
        registry.warm("a").unwrap();
        let stats = registry.stats();
        let engine = stats.corpora[0].engine.as_ref().expect("resident engine");
        assert!(engine.pairs_scored > 0, "warm scored no pairs");
        assert!(engine.pairs_pruned > 0, "the pruned build pruned nothing");
        let json = serde_json::to_string(&stats).expect("stats serialize");
        assert!(json.contains("\"pairs_scored\""));
        assert!(json.contains("\"pairs_pruned\""));
    }

    #[test]
    fn concurrent_cold_requests_build_once() {
        let registry = Arc::new(registry_with(&["a"], 2));
        thread::scope(|scope| {
            for _ in 0..8 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || registry.engine("a").unwrap());
            }
        });
        let stats = registry.stats();
        assert_eq!(stats.corpora[0].builds, 1, "cold stampede not coalesced");
        assert_eq!(stats.corpora[0].misses + stats.corpora[0].hits, 8);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_session() {
        let registry = registry_with(&["a", "b", "c"], 2);
        registry.engine("a").unwrap();
        registry.engine("b").unwrap();
        registry.engine("a").unwrap(); // refresh "a"; "b" is now LRU
        registry.engine("c").unwrap(); // evicts "b"
        let stats = registry.stats();
        let by_name = |n: &str| stats.corpora.iter().find(|c| c.name == n).unwrap().clone();
        assert_eq!(stats.resident, 2);
        assert!(by_name("a").resident);
        assert!(!by_name("b").resident);
        assert!(by_name("c").resident);
        assert_eq!(by_name("b").evictions, 1);
        // Touching "b" again rebuilds it.
        registry.engine("b").unwrap();
        assert_eq!(registry.stats().resident, 2);
        let b = registry
            .stats()
            .corpora
            .iter()
            .find(|c| c.name == "b")
            .unwrap()
            .clone();
        assert_eq!(b.builds, 2);
    }

    #[test]
    fn explicit_evict_and_warm() {
        let registry = registry_with(&["a"], 1);
        assert!(!registry.evict("a").unwrap(), "nothing resident yet");
        let cached = registry.warm("a").unwrap();
        assert_eq!(
            cached.engine().cached_types(),
            cached.engine().dataset().types.len()
        );
        assert!(registry.evict("a").unwrap());
        assert_eq!(registry.stats().resident, 0);
    }

    #[test]
    fn concurrent_builds_converge_to_capacity_not_below() {
        // Concurrent first builds must not mutually evict each other down
        // to zero residents: victim selection is global-oldest, so every
        // enforcer agrees and the count settles at exactly `capacity`.
        let registry = Arc::new(registry_with(&["a", "b", "c", "d"], 2));
        thread::scope(|scope| {
            for name in ["a", "b", "c", "d"] {
                let registry = Arc::clone(&registry);
                scope.spawn(move || registry.engine(name).unwrap());
            }
        });
        let resident = registry.stats().resident;
        assert!(
            (1..=2).contains(&resident),
            "expected 1..=2 residents, got {resident}"
        );
    }

    #[test]
    fn re_registering_a_resident_corpus_clears_its_lru_slot() {
        let registry = registry_with(&["a", "b"], 1);
        registry.engine("a").unwrap();
        // Replacing "a" drops its session; its LRU slot must go with it,
        // otherwise the next capacity check would pick the ghost as its
        // victim forever.
        registry.register(test_spec("a"));
        registry.engine("b").unwrap();
        let stats = registry.stats();
        assert_eq!(stats.resident, 1);
        let b = stats.corpora.iter().find(|c| c.name == "b").unwrap();
        assert!(b.resident);
        // Rebuilding "a" works and evicts "b" (capacity 1).
        registry.engine("a").unwrap();
        assert_eq!(registry.stats().resident, 1);
    }

    #[test]
    fn evicting_a_cold_corpus_is_a_clean_no_op() {
        let registry = registry_with(&["a", "b"], 1);
        registry.engine("a").unwrap();
        assert!(!registry.evict("b").unwrap());
        // Capacity enforcement still progresses normally afterwards.
        registry.engine("b").unwrap();
        let stats = registry.stats();
        assert_eq!(stats.resident, 1);
        assert!(stats.corpora.iter().any(|c| c.name == "b" && c.resident));
    }

    #[test]
    fn response_cache_memoises_per_key() {
        let registry = registry_with(&["a"], 1);
        let cached = registry.corpus("a").unwrap();
        let first = cached.response("k", || Ok("payload".to_string())).unwrap();
        let second = cached.response("k", || panic!("must be memoised")).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            *cached.response("other", || Ok("x".to_string())).unwrap(),
            "x"
        );
        // Failures are memoised too (response production is deterministic),
        // and every requester sees the error instead of a stuck slot.
        let err = cached
            .response("bad", || Err("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        let again = cached
            .response("bad", || Ok("never runs".to_string()))
            .unwrap_err();
        assert_eq!(again, "boom");
    }

    /// A unique (per test, per process) snapshot directory.
    fn snapshot_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wm-registry-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Removes `dir` once the pending releases have landed: a spill that
    /// ran later would create the directory again.
    fn remove_after_releases(registry: &Registry, dir: &Path) {
        registry.join_releases();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_writes_through_and_a_cold_registry_loads_from_disk() {
        let dir = snapshot_dir("warm");
        let first = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let warmed = first.warm("a").unwrap();
        let reference = warmed.engine().align("film").unwrap().cross_pairs();
        let stats = first.stats();
        assert_eq!(stats.snapshot_dir.as_deref(), Some(dir.to_str().unwrap()));
        assert_eq!(stats.corpora[0].snapshot_saves, 1);
        assert_eq!(stats.corpora[0].snapshot_loads, 0);

        // A brand-new registry (a restarted process) restores the session
        // from disk: zero artifact builds, identical alignments.
        let second = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let restored = second.corpus("a").unwrap();
        let engine_stats = restored.engine().stats();
        assert_eq!(
            restored.engine().cached_types(),
            restored.engine().dataset().types.len()
        );
        assert_eq!(
            engine_stats.artifact_builds, 0,
            "warm start rebuilt artifacts"
        );
        assert_eq!(
            restored.engine().align("film").unwrap().cross_pairs(),
            reference
        );
        let stats = second.stats();
        assert_eq!(stats.corpora[0].snapshot_loads, 1);
        assert_eq!(stats.corpora[0].builds, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evictions_spill_and_the_next_request_restores_from_disk() {
        let dir = snapshot_dir("evict");
        let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        // Build and cache one type's artifacts, then evict.
        registry
            .corpus("a")
            .unwrap()
            .engine()
            .align("film")
            .unwrap();
        assert!(registry.evict("a").unwrap());
        let stats = registry.stats();
        assert_eq!(stats.corpora[0].snapshot_saves, 1);
        // The rebuilt residency restores the spilled artifact set.
        let restored = registry.corpus("a").unwrap();
        assert_eq!(restored.engine().cached_types(), 1);
        assert_eq!(restored.engine().stats().artifact_builds, 0);
        assert_eq!(registry.stats().corpora[0].snapshot_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_type_built_after_a_restore_is_spilled_by_the_next_eviction() {
        let dir = snapshot_dir("built-after-restore");
        let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let engine = registry.engine("a").unwrap();
        let types: Vec<String> = engine.dataset().types[..2]
            .iter()
            .map(|pairing| pairing.type_id.clone())
            .collect();
        engine.align(&types[0]).unwrap();
        drop(engine);
        assert!(registry.evict("a").unwrap());
        // The residency restored from the one-type file builds the second
        // type; its eviction must write both to disk.
        let restored = registry.engine("a").unwrap();
        assert_eq!(restored.cached_types(), 1);
        restored.align(&types[1]).unwrap();
        assert_eq!(restored.stats().artifact_builds, 1);
        drop(restored);
        assert!(registry.evict("a").unwrap());
        assert_eq!(registry.stats().corpora[0].snapshot_saves, 2);
        let again = registry.engine("a").unwrap();
        assert_eq!(again.cached_types(), 2);
        again.align(&types[1]).unwrap();
        assert_eq!(again.stats().artifact_builds, 0);
        remove_after_releases(&registry, &dir);
    }

    #[test]
    fn warm_over_a_partial_snapshot_writes_every_type_through() {
        let dir = snapshot_dir("warm-partial");
        let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        registry.engine("a").unwrap().align("film").unwrap();
        assert!(registry.evict("a").unwrap());
        assert_eq!(registry.stats().corpora[0].snapshot_saves, 1);
        // `warm` maps the one-type file and prepares every other type, so
        // the file no longer holds every cached type: it is rewritten.
        let warmed = registry.warm("a").unwrap();
        let all = warmed.engine().dataset().types.len();
        assert_eq!(warmed.engine().cached_types(), all);
        let stats = registry.stats();
        assert_eq!(stats.corpora[0].snapshot_loads, 1);
        assert_eq!(stats.corpora[0].snapshot_saves, 2);
        // A restarted process restores every type without building, and
        // evicting that complete, unbuilt residency writes nothing.
        let second = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let restored = second.engine("a").unwrap();
        assert_eq!(restored.cached_types(), all);
        restored.align("film").unwrap();
        assert_eq!(restored.stats().artifact_builds, 0);
        drop(restored);
        assert!(second.evict("a").unwrap());
        assert_eq!(second.stats().corpora[0].snapshot_saves, 0);
        remove_after_releases(&registry, &dir);
    }

    #[test]
    fn corrupted_or_foreign_snapshots_fall_back_to_building() {
        let dir = snapshot_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // Garbage bytes under the expected file name.
        std::fs::write(dir.join("a.snap"), b"definitely not a snapshot").unwrap();
        let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let cached = registry.corpus("a").unwrap();
        assert!(!cached
            .engine()
            .align("film")
            .unwrap()
            .cross_pairs()
            .is_empty());
        let stats = registry.stats();
        assert_eq!(stats.corpora[0].snapshot_loads, 0);
        assert_eq!(stats.corpora[0].builds, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corpora_whose_names_sanitise_alike_get_distinct_snapshot_files() {
        let dir = snapshot_dir("collide");
        // "a b" and "a_b" both sanitise to the stem "a_b"; the hash suffix
        // keeps their snapshot files apart, so neither clobbers the other.
        let registry = registry_with(&["a b", "a_b"], 2).with_snapshot_dir(&dir);
        registry.corpus("a b").unwrap();
        registry.corpus("a_b").unwrap();
        assert_eq!(registry.persist_resident(), 2);
        let files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files.len(), 2, "snapshot files collided: {files:?}");
        // The clean name keeps its plain stem; the unsafe one is suffixed.
        assert!(files.contains(&"a_b.snap".to_string()), "{files:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_resident_writes_every_resident_session() {
        let dir = snapshot_dir("persist");
        let registry = registry_with(&["a", "b"], 2).with_snapshot_dir(&dir);
        registry.corpus("a").unwrap();
        registry.corpus("b").unwrap();
        assert_eq!(registry.persist_resident(), 2);
        assert!(dir.join("a.snap").is_file());
        assert!(dir.join("b.snap").is_file());
        // Without a snapshot dir the hook is a no-op.
        let plain = registry_with(&["a"], 1);
        plain.corpus("a").unwrap();
        assert_eq!(plain.persist_resident(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dictionary_is_built_once_per_residency() {
        let registry = registry_with(&["a"], 1);
        let cached = registry.corpus("a").unwrap();
        let dict = cached.dictionary();
        assert!(!dict.is_empty());
        // Second call returns the same allocation.
        assert!(std::ptr::eq(dict, cached.dictionary()));
    }

    /// An upsert of one probe article whose attribute value varies by
    /// `step`, so every delta genuinely moves the corpus fingerprint.
    fn probe_delta(step: usize) -> CorpusDelta {
        let mut infobox = wiki_corpus::Infobox::new("Infobox Filme");
        infobox.push(wiki_corpus::AttributeValue::text(
            "nota",
            format!("edição {step}"),
        ));
        CorpusDelta::upsert(wiki_corpus::Article::new(
            "Sonda Registro",
            Language::Pt,
            "Filme",
            infobox,
        ))
    }

    #[test]
    fn replay_shares_the_pristine_only_when_nothing_is_replayed() {
        let pristine = Arc::new(test_spec("a").dataset());
        let base = corpus_fingerprint(&pristine);
        let mut journal = DeltaJournal::new(base);
        let (dataset, verified) = Registry::replay_prefix(&pristine, &journal, 0);
        assert!(Arc::ptr_eq(&dataset, &pristine), "a zero replay copied");
        assert_eq!(verified, 0);

        let mut mutated = Dataset::clone(&pristine);
        probe_delta(0).apply_to(&mut mutated.corpus);
        journal.append(probe_delta(0), corpus_fingerprint(&mutated));
        let (dataset, verified) = Registry::replay_prefix(&pristine, &journal, 1);
        assert_eq!(verified, 1);
        assert_eq!(corpus_fingerprint(&dataset), corpus_fingerprint(&mutated));
        assert_eq!(
            corpus_fingerprint(&pristine),
            base,
            "the replay wrote through"
        );
    }

    #[test]
    fn mutations_are_journaled_and_survive_eviction() {
        let registry = registry_with(&["a"], 1);
        let report = registry.mutate("a", &probe_delta(0)).unwrap();
        assert_eq!(report.inserted, 1);
        let second = registry.mutate("a", &probe_delta(1)).unwrap();
        assert_eq!(second.updated, 1);
        assert_eq!(second.fingerprint_before, report.fingerprint);

        let stats = registry.stats();
        assert_eq!(stats.corpora[0].journal_records, 2);
        assert!(stats.corpora[0].journal_bytes > 0);
        assert_eq!(stats.corpora[0].compactions, 0);

        // Even without a disk tier, the in-memory journal outlives the
        // session: a rebuild is pristine + replay, not a reset.
        assert!(registry.evict("a").unwrap());
        let rebuilt = registry.corpus("a").unwrap();
        assert_eq!(rebuilt.engine().fingerprint(), second.fingerprint);
        let dataset = rebuilt.engine().dataset();
        let probe = dataset
            .corpus
            .articles_in(&Language::Pt)
            .find(|a| a.title == "Sonda Registro")
            .expect("probe article survived the eviction");
        assert_eq!(probe.infobox.attributes[0].value, "edição 1");
    }

    #[test]
    fn no_op_deltas_are_not_journaled() {
        let registry = registry_with(&["a"], 1);
        let delta = CorpusDelta::remove(Language::Pt, "No Such Article");
        let report = registry.mutate("a", &delta).unwrap();
        assert_eq!(report.removed, 0);
        assert_eq!(report.fingerprint, report.fingerprint_before);
        assert_eq!(registry.stats().corpora[0].journal_records, 0);
    }

    #[test]
    fn mutation_invalidates_the_residency_response_cache() {
        let registry = registry_with(&["a"], 1);
        let before = registry.corpus("a").unwrap();
        let stale = before.response("k", || Ok("stale".to_string())).unwrap();
        registry.mutate("a", &probe_delta(0)).unwrap();
        let after = registry.corpus("a").unwrap();
        // Same engine session (patched in place), fresh response cache.
        assert!(Arc::ptr_eq(before.engine(), after.engine()));
        let fresh = after.response("k", || Ok("fresh".to_string())).unwrap();
        assert_eq!((stale.as_str(), fresh.as_str()), ("stale", "fresh"));
    }

    #[test]
    fn mutations_write_ahead_and_a_restart_replays_over_the_snapshot() {
        let dir = snapshot_dir("journal");
        let report = {
            let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
            // Snapshot lands at the pristine base; the two mutations after
            // it live only in the write-ahead journal.
            registry.warm("a").unwrap();
            registry.mutate("a", &probe_delta(0)).unwrap();
            registry.mutate("a", &probe_delta(1)).unwrap()
        };
        assert!(dir.join("a.journal").is_file());

        // A restarted process positions the snapshot at the journal's base
        // and replays the suffix through the incremental patcher: no
        // artifact rebuilds, mutations intact.
        let second = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let restored = second.corpus("a").unwrap();
        assert_eq!(restored.engine().fingerprint(), report.fingerprint);
        let engine_stats = restored.engine().stats();
        assert_eq!(engine_stats.artifact_builds, 0, "replay rebuilt artifacts");
        assert_eq!(engine_stats.deltas_applied, 2);
        let stats = second.stats();
        assert_eq!(stats.corpora[0].snapshot_loads, 1);
        assert_eq!(stats.corpora[0].journal_records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journals_are_ignored_and_the_pristine_corpus_served() {
        let dir = snapshot_dir("badjournal");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.journal"), b"not a journal at all").unwrap();
        let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let cached = registry.corpus("a").unwrap();
        assert!(!cached
            .engine()
            .dataset()
            .corpus
            .articles_in(&Language::Pt)
            .any(|a| a.title == "Sonda Registro"));
        assert_eq!(registry.stats().corpora[0].journal_records, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reaching_the_threshold_compacts_the_journal() {
        let dir = snapshot_dir("compact");
        let tip = {
            let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
            let mut tip = 0;
            for step in 0..COMPACTION_THRESHOLD {
                tip = registry
                    .mutate("a", &probe_delta(step))
                    .unwrap()
                    .fingerprint;
            }
            let stats = registry.stats();
            assert_eq!(stats.corpora[0].compactions, 1);
            // The whole chain composed into one record, re-rooted at the
            // pristine base.
            assert_eq!(stats.corpora[0].journal_records, 1);
            // Compaction re-snapshots at the tip.
            assert_eq!(stats.corpora[0].snapshot_saves, 1);
            tip
        };

        // The compacted journal + tip snapshot warm-start exactly.
        let second = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let restored = second.corpus("a").unwrap();
        assert_eq!(restored.engine().fingerprint(), tip);
        assert_eq!(restored.engine().stats().deltas_applied, 0);
        assert_eq!(second.stats().corpora[0].snapshot_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_behind_the_journal_is_positioned_not_discarded() {
        let dir = snapshot_dir("behind");
        let report = {
            let registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
            registry.mutate("a", &probe_delta(0)).unwrap();
            // Snapshot at tip-as-of-now (one record in)...
            assert_eq!(registry.persist_resident(), 1);
            // ...then the corpus moves past it.
            registry.mutate("a", &probe_delta(1)).unwrap()
        };
        let second = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let restored = second.corpus("a").unwrap();
        // The snapshot sat mid-chain: restored there, one record replayed.
        assert_eq!(restored.engine().fingerprint(), report.fingerprint);
        assert_eq!(restored.engine().stats().deltas_applied, 1);
        assert_eq!(second.stats().corpora[0].snapshot_loads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn orphaned_tmp_files_are_swept_at_startup() {
        let dir = snapshot_dir("sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // Orphans in the atomic-save naming scheme, plus files that must
        // survive: a real snapshot, a journal, and a dot-file that is not
        // a save temp.
        std::fs::write(dir.join(".a.snap.tmp-12345-0"), b"torn").unwrap();
        std::fs::write(dir.join(".b.journal.tmp-9-17"), b"torn").unwrap();
        std::fs::write(dir.join("a.snap"), b"keep").unwrap();
        std::fs::write(dir.join("a.journal"), b"keep").unwrap();
        std::fs::write(dir.join(".hidden"), b"keep").unwrap();
        let _registry = registry_with(&["a"], 1).with_snapshot_dir(&dir);
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, [".hidden", "a.journal", "a.snap"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_budgeted_registry_maps_snapshots_and_reports_residency() {
        let dir = snapshot_dir("mapped");
        // Warm under a generous budget: the write-through spill lands in
        // the current format.
        let first = registry_with(&["a"], 1)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        let warmed = first.warm("a").unwrap();
        let reference = warmed.engine().align("film").unwrap().cross_pairs();
        let all = warmed.engine().cached_types() as u64;
        drop(warmed);
        let (version, _, types) = EngineSnapshot::peek_header(&dir.join("a.snap")).unwrap();
        assert_eq!(version, FORMAT_VERSION);
        assert_eq!(types, all);

        // A restarted budgeted registry memory-maps the file: zero artifact
        // builds, mapped bytes reported, page-ins grow as channels are
        // touched — and the alignments are identical.
        let second = registry_with(&["a"], 1)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        let restored = second.corpus("a").unwrap();
        assert_eq!(restored.engine().stats().artifact_builds, 0);
        let stats = second.stats();
        assert_eq!(stats.resident_budget_bytes, Some(1024 * 1024 * 1024));
        assert_eq!(stats.corpora[0].snapshot_loads, 1);
        assert!(
            stats.corpora[0].mapped_bytes > 0,
            "budgeted load did not map: {stats:?}"
        );
        let pages_before = stats.corpora[0].page_ins;
        assert_eq!(
            restored.engine().align("film").unwrap().cross_pairs(),
            reference
        );
        let after = second.stats();
        assert!(
            after.corpora[0].page_ins > pages_before,
            "align paged nothing in"
        );
        assert!(after.corpora[0].resident_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_untouched_mapped_session_is_charged_its_corpus() {
        let dir = snapshot_dir("charged");
        let first = registry_with(&["a"], 1)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        first.warm("a").unwrap();
        drop(first);
        // No request has touched the mapped artifacts, yet the session
        // holds its corpus on the heap and is charged for it.
        let second = registry_with(&["a"], 1)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        let mapped = second.corpus("a").unwrap();
        let stats = second.stats();
        assert!(stats.corpora[0].mapped_bytes > 0, "not mapped: {stats:?}");
        let corpus_bytes = mapped.engine().dataset().corpus.heap_bytes();
        assert!(
            stats.corpora[0].resident_bytes >= corpus_bytes,
            "resident {} < corpus {corpus_bytes}",
            stats.corpora[0].resident_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn alternating_corpora_over_the_budget_evict_on_every_access() {
        let dir = snapshot_dir("alternate");
        // Each tiny Pt-En corpus holds more than 1 MB of articles, so two
        // resident sessions always exceed a 1 MB budget.
        let registry = registry_with(&["a", "b"], 2)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1);
        let corpus_bytes = registry
            .corpus("a")
            .unwrap()
            .engine()
            .dataset()
            .corpus
            .heap_bytes();
        assert!(corpus_bytes > 1024 * 1024, "corpus of {corpus_bytes} B");
        for access in 1..=6u64 {
            let name = if access % 2 == 1 { "b" } else { "a" };
            registry.corpus(name).unwrap();
            let stats = registry.stats();
            assert_eq!(stats.resident, 1, "access {access}: {stats:?}");
            let evictions: u64 = stats.corpora.iter().map(|c| c.evictions).sum();
            assert_eq!(evictions, access, "access {access} did not evict");
        }
        remove_after_releases(&registry, &dir);
    }

    #[test]
    fn the_resident_budget_evicts_down_to_a_floor_of_one() {
        let dir = snapshot_dir("budget");
        // Capacity would allow 4 residents, but a zero-MB budget forces
        // every access to evict back down to the floor of one.
        let registry = registry_with(&["a", "b", "c"], 4)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(0);
        registry.corpus("a").unwrap();
        registry
            .corpus("a")
            .unwrap()
            .engine()
            .align("film")
            .unwrap();
        assert_eq!(registry.stats().resident, 1);
        registry.corpus("b").unwrap();
        let stats = registry.stats();
        assert_eq!(stats.resident, 1, "budget kept two residents: {stats:?}");
        let by_name = |n: &str| stats.corpora.iter().find(|c| c.name == n).unwrap().clone();
        assert!(!by_name("a").resident);
        assert!(by_name("b").resident);
        assert_eq!(by_name("a").evictions, 1);
        // The evicted corpus comes back from its mapped spill, not a
        // rebuild: the cold build joins the eviction's release first.
        let restored = registry.corpus("a").unwrap();
        assert_eq!(restored.engine().stats().artifact_builds, 0);
        remove_after_releases(&registry, &dir);
    }

    #[test]
    fn a_budgeted_registry_whose_capacity_binds_evicts_the_global_oldest() {
        let dir = snapshot_dir("capacity-binds");
        // A budget no tiny corpus can reach: only the slot count binds.
        let registry = registry_with(&["a", "b", "c"], 2)
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        let residents = |registry: &Registry| -> Vec<(String, bool, u64)> {
            registry
                .stats()
                .corpora
                .into_iter()
                .map(|c| (c.name, c.resident, c.evictions))
                .collect()
        };
        registry.corpus("a").unwrap();
        registry.corpus("b").unwrap();
        registry.corpus("a").unwrap(); // refresh "a"; "b" is now oldest
        registry.corpus("c").unwrap(); // evicts "b"
        assert_eq!(
            residents(&registry),
            [
                ("a".to_string(), true, 0),
                ("b".to_string(), false, 1),
                ("c".to_string(), true, 0),
            ]
        );
        registry.corpus("b").unwrap(); // evicts "a", now the oldest
        assert_eq!(
            residents(&registry),
            [
                ("a".to_string(), false, 1),
                ("b".to_string(), true, 1),
                ("c".to_string(), true, 0),
            ]
        );
        remove_after_releases(&registry, &dir);
    }

    #[test]
    fn a_cache_hit_clears_a_stale_lru_slot_and_evicts_no_resident() {
        let registry = registry_with(&["a", "b", "c"], 2);
        registry.corpus("a").unwrap();
        registry.corpus("b").unwrap();
        // A slot with no resident session behind it (a touch racing an
        // evict can leave one), at the oldest tick: three slots now count
        // against a capacity of two.
        recover(registry.lru.lock())
            .last_used
            .insert("c".to_string(), 0);
        registry.corpus("b").unwrap(); // a cache hit, no build
        let stats = registry.stats();
        assert_eq!(stats.resident, 2);
        assert!(
            stats.corpora.iter().all(|c| c.evictions == 0),
            "a resident session was evicted: {stats:?}"
        );
        let lru = recover(registry.lru.lock());
        assert!(!lru.last_used.contains_key("c"), "the stale slot survived");
        assert_eq!(lru.last_used.len(), 2);
    }

    #[test]
    fn scale_tier_catalog_covers_both_pairs() {
        let specs = CorpusSpec::scale_tiers(&["tiny", "medium"]);
        let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["pt-tiny", "pt-medium", "vi-tiny", "vi-medium"]);
        assert!(CorpusSpec::tier(Language::Pt, "galactic").is_none());
    }

    /// Every [`ScaleTier`] — including `xlarge` — resolves to a registrable
    /// spec whose config matches the corpus crate's catalog.
    #[test]
    fn every_scale_tier_is_registrable() {
        for tier in ScaleTier::ALL {
            let spec = CorpusSpec::tier(Language::Pt, tier.name())
                .unwrap_or_else(|| panic!("tier {tier} not registrable"));
            assert_eq!(spec.name, format!("pt-{tier}"));
            // SyntheticConfig is a plain field bag without PartialEq; its
            // Debug form is a faithful identity for this check.
            assert_eq!(format!("{:?}", spec.config), format!("{:?}", tier.config()));
        }
    }
}
