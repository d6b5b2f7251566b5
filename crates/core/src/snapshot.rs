//! Snapshot persistence for [`MatchEngine`] artifacts.
//!
//! Every artifact the engine computes — the bilingual title dictionary and
//! the per-type [`DualSchema`](crate::DualSchema) /
//! [`SimilarityTable`](crate::SimilarityTable) pair — is a pure function
//! of the corpus, yet a fresh process rebuilds all of it from scratch. This
//! module materializes those artifacts in a **versioned, std-only binary
//! format** so a restarting service can warm up by *loading* instead of
//! *recomputing*. Like Tuffy, which pushes compact inference state into a
//! persistent store rather than its grounded expansion, a snapshot stores
//! the derived state a restore reads — each table's evidence rows and LSI
//! factors — and never one value per attribute pair:
//!
//! ```text
//! header   magic (8B) | format version (u32) | corpus fingerprint (u64)
//!          | payload length (u64) | FNV-1a checksum of payload (u64)
//! payload  offset directory | title dictionary | per-type records: arena
//!          string table, vector id/weight streams, occurrence patterns,
//!          evidence rows and LSI factors (layout in [`crate::direct`])
//! ```
//!
//! Guarantees:
//!
//! * **Bit-identical loads.** Floats round-trip through
//!   [`f64::to_bits`]/[`f64::from_bits`], term vectors and dictionary
//!   entries through their exact sorted entry lists, and a restored table
//!   scores LSI from its factors with the float operations of a built one —
//!   a restored engine produces byte-for-byte the alignments of a fresh
//!   build (pinned by `tests/snapshot_roundtrip.rs`).
//! * **Self-validating files.** A snapshot names its format version and the
//!   fingerprint of the corpus it was captured from; loading rejects
//!   truncated files, checksum mismatches (corruption), version bumps and
//!   fingerprint mismatches with a typed [`SnapshotError`] instead of
//!   deserializing garbage.
//! * **Atomic saves.** [`EngineSnapshot::save`] writes to a temporary file
//!   in the target directory and renames it into place, so a concurrent
//!   reader never observes a half-written snapshot.
//!
//! ```
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wikimatch::snapshot::EngineSnapshot;
//! use wikimatch::MatchEngine;
//!
//! let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
//! let engine = MatchEngine::new(dataset.clone());
//! engine.align("film");
//!
//! // Persist the session's cached artifacts ...
//! let bytes = EngineSnapshot::capture(&engine).to_bytes();
//!
//! // ... and warm-start a new session from them: zero artifact builds.
//! let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
//! let restored = MatchEngine::builder(dataset)
//!     .build_from_snapshot(snapshot)
//!     .unwrap();
//! assert_eq!(restored.stats().artifact_builds, 0);
//! assert_eq!(restored.cached_types(), 1);
//! ```

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use wiki_corpus::{Article, AttributeValue, Dataset, Infobox, Language, Link};
use wiki_text::ByteRegion;
use wiki_translate::TitleDictionary;

use crate::delta::{CorpusDelta, DeltaOp};
use crate::engine::{MatchEngine, PreparedType};

/// Version stamped into every snapshot header; readers reject anything
/// else. Bump it whenever the payload layout changes.
///
/// Version history:
/// * **1** — string-keyed term vectors: every vector spelled its terms out,
///   so a term occurring in `k` vectors was written `k` times.
/// * **2** — interned vocabulary: each type record opens with its arena's
///   string table (every term written exactly once, in id order) and
///   vectors are delta-encoded `u32` id streams plus raw weight bits.
///   Version-1 files are rejected with [`SnapshotError::UnsupportedVersion`]
///   — rebuild and re-persist, the artifacts are pure functions of the
///   corpus.
/// * **3** — journaled-delta era: the base payload layout is unchanged from
///   version 2, but a base image may now be accompanied by a sibling
///   [`DeltaJournal`] whose records chain forward from the base fingerprint.
///   The stamp separates bases written by journal-aware builds from
///   pre-journal files, so an old reader can never pair a journal with a
///   base it does not understand. Version-2 files are rejected — rebuild
///   and re-persist.
/// * **4** — the **directly-addressable** layout (see [`crate::direct`]):
///   an offset directory plus fixed-stride sections that artifacts can
///   borrow from a mapped region without decoding, beside the compact
///   version 3. It stored three dense `n(n−1)/2` similarity channels and
///   the candidate index's two pair bitsets per type.
/// * **5** — one format: version 4's framing, offset directory and
///   borrowed arena and vector sections, but each table is stored as its
///   evidence rows (a CSR over the pairs with non-zero `vsim`/`lsim`) and
///   its LSI factors (the singular values and the n×k reduced vectors), so
///   no section grows with the number of pairs. [`EngineSnapshot::save`]
///   writes it; [`EngineSnapshot::from_bytes`] and
///   [`MappedSnapshot::open`](crate::MappedSnapshot::open) read it through
///   one decoder. Every earlier version is rejected with
///   [`SnapshotError::UnsupportedVersion`] — rebuild and re-persist.
pub const FORMAT_VERSION: u32 = 5;

/// Magic bytes opening every snapshot file, whatever its version.
pub(crate) const MAGIC: [u8; 8] = *b"WMSNAP\r\n";

/// Fixed size of the header preceding the payload.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4 + 8 + 8 + 8;

/// Why loading (or saving) a snapshot failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the underlying file failed.
    Io(io::Error),
    /// The file does not start with the snapshot magic — not a snapshot.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The snapshot was captured from a different corpus than the dataset
    /// it is being restored against.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        found: u64,
        /// Fingerprint of the dataset the caller supplied.
        expected: u64,
    },
    /// The payload bytes do not hash to the checksum in the header — the
    /// file was corrupted after writing.
    ChecksumMismatch {
        /// Checksum computed over the payload as read.
        found: u64,
        /// Checksum recorded in the header.
        expected: u64,
    },
    /// The file ends before the length its header (or a length prefix
    /// inside the payload) promises.
    Truncated,
    /// The payload decoded but violates a structural invariant.
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(err) => write!(f, "snapshot I/O error: {err}"),
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {supported})"
            ),
            SnapshotError::FingerprintMismatch { found, expected } => write!(
                f,
                "snapshot was captured from a different corpus \
                 (fingerprint {found:#018x}, dataset has {expected:#018x})"
            ),
            SnapshotError::ChecksumMismatch { found, expected } => write!(
                f,
                "snapshot payload is corrupted \
                 (checksum {found:#018x}, header says {expected:#018x})"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(err: io::Error) -> Self {
        SnapshotError::Io(err)
    }
}

/// Streaming FNV-1a (64-bit) — the checksum and fingerprint hash. Not
/// cryptographic; it guards against corruption and stale artifacts, not
/// adversaries.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a length-prefixed string so adjacent fields cannot alias.
    fn update_str(&mut self, s: &str) {
        self.update(&(s.len() as u64).to_le_bytes());
        self.update(s.as_bytes());
    }

    fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Checksum of a payload: FNV-1a 64 folded over little-endian `u64` words
/// (plus a byte-wise tail). Word-at-a-time keeps the validation pass at
/// memory speed — snapshots at the larger tiers run to tens of megabytes,
/// and a byte-wise hash there would cost as much as the decode itself.
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deterministic fingerprint of everything the engine's artifacts depend
/// on: the language pair, the type pairings and the full corpus content
/// (titles, entity types, infobox attribute/value/link data and
/// cross-language links, in article-id order).
///
/// Two datasets with the same fingerprint produce bit-identical artifacts;
/// a snapshot whose fingerprint differs from the dataset it is restored
/// against is rejected — this is the invalidation mechanism of the serving
/// layer's disk tier.
pub fn corpus_fingerprint(dataset: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.update_str(dataset.languages.0.code());
    h.update_str(dataset.languages.1.code());
    h.update_u64(dataset.types.len() as u64);
    for pairing in &dataset.types {
        h.update_str(&pairing.type_id);
        h.update_str(&pairing.label_other);
        h.update_str(&pairing.label_en);
    }
    h.update_u64(dataset.corpus.len() as u64);
    for article in dataset.corpus.articles() {
        h.update_u64(u64::from(article.id.0));
        h.update_str(&article.title);
        h.update_str(article.language.code());
        h.update_str(&article.entity_type);
        h.update_str(&article.infobox.template);
        h.update_u64(article.infobox.attributes.len() as u64);
        for attr in &article.infobox.attributes {
            h.update_str(&attr.name);
            h.update_str(&attr.value);
            h.update_u64(attr.links.len() as u64);
            for link in &attr.links {
                h.update_str(&link.target);
                h.update_str(&link.anchor);
            }
        }
        h.update_u64(article.cross_links.len() as u64);
        for (language, title) in &article.cross_links {
            h.update_str(language.code());
            h.update_str(title);
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Encoding primitives.

/// Appends little-endian primitives and length-prefixed strings to a byte
/// buffer.
pub(crate) struct Enc(pub(crate) Vec<u8>);

impl Enc {
    pub(crate) fn new() -> Self {
        Self(Vec::new())
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a payload slice; every read is bounds-checked and failures
/// surface as [`SnapshotError::Truncated`] / [`SnapshotError::Malformed`].
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    /// A `u64` count that must fit `usize` and cannot exceed the bytes
    /// remaining (each counted element occupies ≥ 1 byte), so a corrupted
    /// length cannot trigger an absurd pre-allocation. Only valid for
    /// values that prefix a sequence of counted elements — plain scalars
    /// use [`scalar`](Self::scalar), which has no such bound.
    pub(crate) fn count(&mut self) -> Result<usize, SnapshotError> {
        let v = self.scalar()?;
        if v > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(v)
    }

    /// A `u64` scalar that must fit `usize` (e.g. an occurrence counter —
    /// any magnitude is legitimate, unrelated to the bytes remaining).
    pub(crate) fn scalar(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| SnapshotError::Malformed(format!("value {v} overflows usize")))
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("non-UTF-8 string".to_string()))
    }

    pub(crate) fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// Atomic writes.

/// Writes `bytes` to `path` atomically: the bytes land in a temporary
/// sibling file (`.{name}.tmp-{pid}-{seq}`) which is renamed into place, so
/// a concurrent reader sees either the old file or the new one, never a
/// torn write. Shared by the snapshot and journal save paths.
///
/// The temp name is unique per *call*, not just per process: two threads
/// spilling the same corpus concurrently (a warm racing an eviction) would
/// otherwise interleave writes into one temp file and rename garbage into
/// place. A crash between write and rename strands the temp file — the
/// registry sweeps `.tmp-` leftovers from its snapshot directory at
/// startup.
///
/// `failpoint` names the fault-injection hook covering the temp-file write
/// (e.g. `snapshot.save.write`); a torn write or abort injected there
/// strands a torn *temp* file while the target stays intact — exactly the
/// guarantee the rename protocol exists to provide, and what the chaos
/// harness verifies.
pub(crate) fn write_atomically(
    path: &Path,
    bytes: &[u8],
    failpoint: &str,
) -> Result<(), SnapshotError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| SnapshotError::Malformed(format!("bad target path {path:?}")))?;
    static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = path.with_file_name(format!(".{file_name}.tmp-{}-{seq}", std::process::id()));
    let result = fs::File::create(&tmp)
        .and_then(|mut file| wiki_fault::write_all(failpoint, &mut file, bytes))
        .and_then(|()| fs::rename(&tmp, path));
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result.map_err(SnapshotError::from)
}

// ---------------------------------------------------------------------------
// The snapshot itself.

/// A captured set of [`MatchEngine`] artifacts ready to be persisted: the
/// corpus fingerprint, the bilingual title dictionary and the per-type
/// prepared artifacts that were cached at capture time.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// Fingerprint of the corpus the artifacts were computed from (see
    /// [`corpus_fingerprint`]).
    pub fingerprint: u64,
    /// The session's bilingual title dictionary.
    pub dictionary: TitleDictionary,
    /// Cached per-type artifacts, in dataset type order.
    pub types: Vec<(String, PreparedType)>,
}

impl EngineSnapshot {
    /// Captures the engine's dictionary plus every per-type artifact set
    /// currently cached. Call [`MatchEngine::prepare_all`] first to capture
    /// a fully warmed session.
    pub fn capture(engine: &MatchEngine) -> Self {
        Self {
            fingerprint: engine.fingerprint(),
            dictionary: engine.dictionary().as_ref().clone(),
            types: engine.cached_artifacts(),
        }
    }

    /// Number of per-type artifact sets in the snapshot.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Serializes the snapshot into the framed binary format (header with
    /// magic, version, fingerprint, payload length and checksum, then the
    /// payload laid out by [`crate::direct`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = wiki_obs::Span::enter("snapshot_encode");
        wiki_fault::pause("snapshot.encode");
        crate::direct::encode(self)
    }

    /// Deserializes a snapshot, validating magic, version, payload length,
    /// checksum and every section before anything is used. The restored
    /// artifacts borrow from a heap copy of `bytes`, exactly as a
    /// [`MappedSnapshot`](crate::MappedSnapshot)'s borrow from its mapping.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_decode");
        crate::direct::decode_copy(bytes)
    }

    /// Writes the framed snapshot to a writer.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        writer.write_all(&self.to_bytes())
    }

    /// Reads a framed snapshot from a reader (consumes it to EOF).
    pub fn read_from(reader: &mut impl Read) -> Result<Self, SnapshotError> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Saves the snapshot to `path` atomically: the bytes are written to a
    /// temporary sibling file and renamed into place, so concurrent readers
    /// see either the old snapshot or the new one, never a torn write.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_save");
        wiki_obs::registry()
            .counter(
                "wm_snapshot_saves_total",
                "Engine snapshots written to disk.",
            )
            .inc();
        write_atomically(path, &self.to_bytes(), "snapshot.save.write")
    }

    /// Loads a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let _span = wiki_obs::Span::enter("snapshot_load");
        wiki_obs::registry()
            .counter(
                "wm_snapshot_loads_total",
                "Engine snapshots read from disk.",
            )
            .inc();
        let mut bytes = fs::read(path)?;
        wiki_fault::filter_read("snapshot.load.read", &mut bytes)?;
        let _span = wiki_obs::Span::enter("snapshot_decode");
        crate::direct::decode(Arc::new(bytes) as Arc<dyn ByteRegion>, None)
    }

    /// Reads just the 36-byte header of a snapshot file and returns its
    /// `(format_version, corpus_fingerprint)` — enough to decide whether a
    /// disk snapshot is already current without decoding (or even reading)
    /// the payload. Validates the magic only; the payload is untouched, so
    /// a torn or corrupt file can still pass this peek and must be fully
    /// validated by whichever loader follows.
    pub fn peek_header(path: &Path) -> Result<(u32, u64), SnapshotError> {
        use std::io::Read as _;
        let mut file = fs::File::open(path)?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| SnapshotError::Truncated)?;
        if header[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let fingerprint = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
        Ok((version, fingerprint))
    }
}

// ---------------------------------------------------------------------------
// The delta journal.

/// Version stamped into every journal header; readers reject anything else.
pub const JOURNAL_FORMAT_VERSION: u32 = 1;

/// Magic bytes opening every journal file.
const JOURNAL_MAGIC: [u8; 8] = *b"WMJRNL\r\n";

/// Fixed size of the journal header preceding the records.
const JOURNAL_HEADER_LEN: usize = JOURNAL_MAGIC.len() + 4 + 8;

fn encode_article(enc: &mut Enc, article: &Article) {
    enc.str(&article.title);
    enc.str(article.language.code());
    enc.str(&article.entity_type);
    enc.str(&article.infobox.template);
    enc.u64(article.infobox.attributes.len() as u64);
    for attr in &article.infobox.attributes {
        enc.str(&attr.name);
        enc.str(&attr.value);
        enc.u64(attr.links.len() as u64);
        for link in &attr.links {
            enc.str(&link.target);
            enc.str(&link.anchor);
        }
    }
    enc.u64(article.cross_links.len() as u64);
    for (language, title) in &article.cross_links {
        enc.str(language.code());
        enc.str(title);
    }
}

fn decode_article(dec: &mut Dec<'_>) -> Result<Article, SnapshotError> {
    let title = dec.str()?;
    let language = Language::from_code(&dec.str()?);
    let entity_type = dec.str()?;
    let mut infobox = Infobox::new(dec.str()?);
    let n_attrs = dec.count()?;
    for _ in 0..n_attrs {
        let name = dec.str()?;
        let value = dec.str()?;
        let n_links = dec.count()?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let target = dec.str()?;
            let anchor = dec.str()?;
            links.push(Link::with_anchor(target, anchor));
        }
        infobox.push(AttributeValue::linked(name, value, links));
    }
    // The persisted article never carries an id: ids are corpus-local and
    // minted (or looked up) when the delta is applied.
    let mut article = Article::new(title, language, entity_type, infobox);
    let n_cross = dec.count()?;
    for _ in 0..n_cross {
        let language = Language::from_code(&dec.str()?);
        let title = dec.str()?;
        article.cross_links.push((language, title));
    }
    Ok(article)
}

fn encode_delta(enc: &mut Enc, delta: &CorpusDelta) {
    enc.u64(delta.ops.len() as u64);
    for op in &delta.ops {
        match op {
            DeltaOp::Upsert(article) => {
                enc.0.push(0);
                encode_article(enc, article);
            }
            DeltaOp::Remove { language, title } => {
                enc.0.push(1);
                enc.str(language.code());
                enc.str(title);
            }
        }
    }
}

fn decode_delta(dec: &mut Dec<'_>) -> Result<CorpusDelta, SnapshotError> {
    let n_ops = dec.count()?;
    let mut delta = CorpusDelta::new();
    for _ in 0..n_ops {
        match dec.take(1)?[0] {
            0 => delta.push(DeltaOp::Upsert(decode_article(dec)?)),
            1 => {
                let language = Language::from_code(&dec.str()?);
                let title = dec.str()?;
                delta.push(DeltaOp::Remove { language, title });
            }
            tag => {
                return Err(SnapshotError::Malformed(format!(
                    "unknown delta op tag {tag}"
                )))
            }
        }
    }
    Ok(delta)
}

/// One journaled mutation: the delta itself plus the fingerprint chain that
/// pins *where in the corpus lineage* it applies. `parent_fingerprint` must
/// equal the fingerprint of the corpus the delta is replayed onto and
/// `post_fingerprint` the fingerprint of the corpus it produces — replay
/// verifies both, so a journal can never be applied to the wrong base or in
/// the wrong order.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRecord {
    /// Zero-based position in the journal; records must be consecutive.
    pub seq: u64,
    /// Fingerprint of the corpus this delta applies to (the previous
    /// record's [`post_fingerprint`](Self::post_fingerprint), or the
    /// journal's base fingerprint for record 0).
    pub parent_fingerprint: u64,
    /// Fingerprint of the corpus after applying the delta.
    pub post_fingerprint: u64,
    /// The mutation batch itself.
    pub delta: CorpusDelta,
}

fn encode_journal_record(record: &DeltaRecord) -> Vec<u8> {
    let mut payload = Enc::new();
    payload.u64(record.seq);
    payload.u64(record.parent_fingerprint);
    payload.u64(record.post_fingerprint);
    encode_delta(&mut payload, &record.delta);
    let payload = payload.0;
    let mut out = Vec::with_capacity(16 + payload.len());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses one length-prefixed record off the front of `buf`, validating its
/// checksum and its place in the chain; returns the record and the bytes
/// consumed.
fn decode_journal_record(
    buf: &[u8],
    expected_seq: u64,
    expected_parent: u64,
) -> Result<(DeltaRecord, usize), SnapshotError> {
    let mut dec = Dec::new(buf);
    let payload_len = dec.count()?;
    let expected = dec.u64()?;
    let payload = dec.take(payload_len)?;
    let found = checksum(payload);
    if found != expected {
        return Err(SnapshotError::ChecksumMismatch { found, expected });
    }
    let mut p = Dec::new(payload);
    let seq = p.u64()?;
    let parent_fingerprint = p.u64()?;
    let post_fingerprint = p.u64()?;
    let delta = decode_delta(&mut p)?;
    if !p.finished() {
        return Err(SnapshotError::Malformed(format!(
            "journal record {seq} longer than its contents"
        )));
    }
    if seq != expected_seq {
        return Err(SnapshotError::Malformed(format!(
            "journal records out of order: found sequence {seq}, expected {expected_seq}"
        )));
    }
    if parent_fingerprint != expected_parent {
        return Err(SnapshotError::Malformed(format!(
            "journal replay order broken: record {seq} chains from \
             {parent_fingerprint:#018x}, but the journal tip is {expected_parent:#018x}"
        )));
    }
    Ok((
        DeltaRecord {
            seq,
            parent_fingerprint,
            post_fingerprint,
            delta,
        },
        16 + payload_len,
    ))
}

/// A journaled log of corpus deltas chained forward from a base corpus
/// fingerprint — the second half of the version-3 persistence story: the
/// base [`EngineSnapshot`] freezes a corpus, the journal records where the
/// corpus went from there, and replaying the journal over the base
/// reproduces the live engine without a cold rebuild.
///
/// The on-disk format mirrors the snapshot's framing discipline at record
/// granularity:
///
/// ```text
/// header   magic (8B) | journal version (u32) | base fingerprint (u64)
/// record   payload length (u64) | checksum (u64) | payload
/// payload  seq (u64) | parent fingerprint (u64) | post fingerprint (u64)
///          | delta ops
/// ```
///
/// Records are individually checksummed so a torn tail (the failure mode of
/// append-only logs) costs exactly the torn records: [`recover`](Self::recover)
/// keeps the valid prefix, while the strict [`from_bytes`](Self::from_bytes)
/// rejects the file. The `seq` / fingerprint chain makes replay-order
/// tampering (reordered, dropped or cross-wired records) detectable even
/// though every individual record is checksum-valid.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaJournal {
    /// Fingerprint of the corpus the journal starts from — the snapshot a
    /// replayer must hold before applying record 0.
    pub base_fingerprint: u64,
    /// The chained delta records, in replay order.
    pub records: Vec<DeltaRecord>,
}

impl DeltaJournal {
    /// An empty journal rooted at `base_fingerprint`.
    pub fn new(base_fingerprint: u64) -> Self {
        Self {
            base_fingerprint,
            records: Vec::new(),
        }
    }

    /// Number of records in the journal.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The fingerprint of the corpus obtained by replaying the whole
    /// journal over its base — the last record's post fingerprint, or the
    /// base fingerprint for an empty journal.
    pub fn tip(&self) -> u64 {
        self.records
            .last()
            .map_or(self.base_fingerprint, |r| r.post_fingerprint)
    }

    /// Appends a delta that was applied to the corpus at the journal's
    /// current [`tip`](Self::tip), producing `post_fingerprint`; returns
    /// the chained record (e.g. for mirroring to disk with
    /// [`append_record_to`](Self::append_record_to)).
    pub fn append(&mut self, delta: CorpusDelta, post_fingerprint: u64) -> &DeltaRecord {
        let record = DeltaRecord {
            seq: self.records.len() as u64,
            parent_fingerprint: self.tip(),
            post_fingerprint,
            delta,
        };
        self.records.push(record);
        self.records.last().expect("just pushed")
    }

    /// Serializes the journal (header plus every record).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.base_fingerprint.to_le_bytes());
        for record in &self.records {
            out.extend_from_slice(&encode_journal_record(record));
        }
        out
    }

    fn parse(bytes: &[u8], lenient: bool) -> Result<(Self, bool), SnapshotError> {
        if bytes.len() < JOURNAL_HEADER_LEN {
            return if bytes.len() >= JOURNAL_MAGIC.len()
                && bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC
            {
                Err(SnapshotError::BadMagic)
            } else {
                Err(SnapshotError::Truncated)
            };
        }
        if bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != JOURNAL_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: JOURNAL_FORMAT_VERSION,
            });
        }
        let base_fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let mut journal = DeltaJournal::new(base_fingerprint);
        let mut pos = JOURNAL_HEADER_LEN;
        let mut dropped_tail = false;
        while pos < bytes.len() {
            match decode_journal_record(&bytes[pos..], journal.records.len() as u64, journal.tip())
            {
                Ok((record, consumed)) => {
                    journal.records.push(record);
                    pos += consumed;
                }
                Err(err) if lenient => {
                    // Torn or corrupted tail: everything before this record
                    // validated, so the prefix is a usable journal.
                    let _ = err;
                    dropped_tail = true;
                    break;
                }
                Err(err) => return Err(err),
            }
        }
        Ok((journal, dropped_tail))
    }

    /// Deserializes a journal **strictly**: any torn, corrupted or
    /// chain-breaking record rejects the whole file.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::parse(bytes, false).map(|(journal, _)| journal)
    }

    /// Deserializes a journal **leniently**: the valid record prefix is
    /// kept and a torn or corrupted tail is dropped (the second return is
    /// `true` when that happened). Header-level problems — wrong magic,
    /// unsupported version, a header shorter than its fixed size — are
    /// still fatal: there is no usable prefix without a valid header.
    ///
    /// This is the crash-recovery entry point: a process killed mid-append
    /// leaves a torn final record, and the journal is still good up to it.
    pub fn recover(bytes: &[u8]) -> Result<(Self, bool), SnapshotError> {
        Self::parse(bytes, true)
    }

    /// Loads a journal from `path` (strict).
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let mut bytes = fs::read(path)?;
        wiki_fault::filter_read("journal.load.read", &mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Loads a journal from `path` leniently (see [`recover`](Self::recover)).
    pub fn load_recovering(path: &Path) -> Result<(Self, bool), SnapshotError> {
        let mut bytes = fs::read(path)?;
        wiki_fault::filter_read("journal.load.read", &mut bytes)?;
        Self::recover(&bytes)
    }

    /// Saves the whole journal to `path` atomically (temp file + rename,
    /// like [`EngineSnapshot::save`]) — the compaction path, which rewrites
    /// the journal as empty (or short) against a freshly saved base.
    pub fn save(&self, path: &Path) -> Result<(), SnapshotError> {
        write_atomically(path, &self.to_bytes(), "journal.save.write")
    }

    /// Appends one record to the journal file at `path`, creating the file
    /// (with a header rooted at `base_fingerprint`) when it does not exist
    /// or is empty. The record bytes are written in one `write_all` call;
    /// a crash mid-append leaves a torn tail that
    /// [`recover`](Self::recover) drops.
    pub fn append_record_to(
        path: &Path,
        base_fingerprint: u64,
        record: &DeltaRecord,
    ) -> Result<(), SnapshotError> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let needs_header = fs::metadata(path).map(|m| m.len() == 0).unwrap_or(true);
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        // Header (when the file is fresh) and record go out in ONE buffer
        // through one failpoint-instrumented write, so an injected torn
        // write or mid-append abort tears exactly where a real crash
        // would: anywhere inside the appended span, never before it.
        let record_bytes = encode_journal_record(record);
        let mut buf;
        let out = if needs_header {
            buf = Vec::with_capacity(JOURNAL_HEADER_LEN + record_bytes.len());
            buf.extend_from_slice(&JOURNAL_MAGIC);
            buf.extend_from_slice(&JOURNAL_FORMAT_VERSION.to_le_bytes());
            buf.extend_from_slice(&base_fingerprint.to_le_bytes());
            buf.extend_from_slice(&record_bytes);
            &buf
        } else {
            &record_bytes
        };
        wiki_fault::write_all("journal.append.write", &mut file, out)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeStats, DualSchema};
    use crate::similarity::SimilarityTable;
    use wiki_corpus::SyntheticConfig;
    use wiki_linalg::LsiConfig;
    use wiki_text::TermVector;

    fn snapshot_bytes() -> (Dataset, Vec<u8>) {
        let dataset = Dataset::vn_en(&SyntheticConfig::tiny());
        let engine = MatchEngine::new(dataset.clone());
        engine.align("film").unwrap();
        engine.align("actor").unwrap();
        let bytes = EngineSnapshot::capture(&engine).to_bytes();
        (dataset, bytes)
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = Dataset::vn_en(&SyntheticConfig::tiny());
        let b = Dataset::vn_en(&SyntheticConfig::tiny());
        assert_eq!(corpus_fingerprint(&a), corpus_fingerprint(&b));
        let other_seed = Dataset::vn_en(&SyntheticConfig {
            seed: 43,
            ..SyntheticConfig::tiny()
        });
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&other_seed));
        let other_pair = Dataset::pt_en(&SyntheticConfig::tiny());
        assert_ne!(corpus_fingerprint(&a), corpus_fingerprint(&other_pair));
    }

    #[test]
    fn round_trip_restores_bit_identical_artifacts() {
        let (dataset, bytes) = snapshot_bytes();
        let reference = MatchEngine::new(dataset.clone());
        let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snapshot.type_count(), 2);
        let restored = MatchEngine::builder(dataset)
            .build_from_snapshot(snapshot)
            .unwrap();
        assert_eq!(restored.cached_types(), 2);
        assert_eq!(restored.stats().artifact_builds, 0);
        for type_id in ["film", "actor"] {
            let fresh = reference.prepared(type_id).unwrap();
            let loaded = restored.prepared(type_id).unwrap();
            assert_eq!(fresh.schema.len(), loaded.schema.len());
            for (a, b) in fresh.table.pairs().iter().zip(loaded.table.pairs()) {
                assert_eq!((a.p, a.q), (b.p, b.q));
                assert_eq!(a.vsim.to_bits(), b.vsim.to_bits());
                assert_eq!(a.lsim.to_bits(), b.lsim.to_bits());
                assert_eq!(a.lsi.to_bits(), b.lsi.to_bits());
            }
            assert_eq!(
                reference.align(type_id).unwrap().cross_pairs(),
                restored.align(type_id).unwrap().cross_pairs()
            );
        }
        // Restoring served the cached artifacts; no build happened.
        assert_eq!(restored.stats().artifact_builds, 0);
        // A type outside the snapshot still builds lazily.
        assert!(restored.align("show").is_some());
        assert_eq!(restored.stats().artifact_builds, 1);
    }

    #[test]
    fn scalar_fields_larger_than_the_remaining_payload_round_trip() {
        // `occurrences` (and `dual_count`) are scalars whose magnitude is
        // unrelated to the bytes that follow them — a near-universal
        // attribute in a huge corpus has a count far larger than its own
        // encoded tail. A hand-built snapshot with an outsized counter must
        // survive the round trip instead of being rejected as truncated.
        let attr = |name: &str| AttributeStats {
            language: Language::En,
            name: name.to_string(),
            occurrences: 5_000_000,
            values: TermVector::from_terms(["x"]),
            translated_values: TermVector::from_terms(["x"]),
            raw_values: TermVector::new(),
            translated_raw_values: TermVector::new(),
            links: TermVector::new(),
            occurrence_pattern: vec![true, false],
        };
        let schema = DualSchema::from_parts(
            (Language::Pt, Language::En),
            "Filme".to_string(),
            "Film".to_string(),
            vec![attr("a"), attr("b")],
            2,
        );
        let table = SimilarityTable::compute(&schema, LsiConfig::default());
        let arena = Arc::clone(schema.arena());
        let vector_entries = schema.vector_entry_count();
        let snapshot = EngineSnapshot {
            fingerprint: 7,
            dictionary: TitleDictionary::from_entries(Language::Pt, Language::En, Vec::new()),
            types: vec![(
                "film".to_string(),
                PreparedType {
                    schema: Arc::new(schema),
                    table: Arc::new(table),
                    arena,
                    vector_entries,
                    region: None,
                },
            )],
        };
        let loaded = EngineSnapshot::from_bytes(&snapshot.to_bytes())
            .expect("outsized scalar fields must not read as truncation");
        assert_eq!(loaded.types[0].1.schema.attribute(0).occurrences, 5_000_000);
        assert_eq!(loaded.types[0].1.table.pairs().len(), 1);
    }

    #[test]
    fn truncated_files_are_rejected() {
        let (_, bytes) = snapshot_bytes();
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 10, bytes.len() - 1] {
            assert!(
                matches!(
                    EngineSnapshot::from_bytes(&bytes[..cut]),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut} not detected as truncation"
            );
        }
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum() {
        let (_, mut bytes) = snapshot_bytes();
        let flip = HEADER_LEN + (bytes.len() - HEADER_LEN) / 2;
        bytes[flip] ^= 0xFF;
        assert!(matches!(
            EngineSnapshot::from_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_bumps_and_bad_magic_are_rejected() {
        let (_, bytes) = snapshot_bytes();
        let mut bumped = bytes.clone();
        bumped[8] = bumped[8].wrapping_add(1);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bumped),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(matches!(
            EngineSnapshot::from_bytes(&wrong_magic),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn version_1_files_are_rejected_as_unsupported() {
        // A minimal, checksum-valid file stamped with the retired
        // string-keyed format version: the reader must refuse it with
        // `UnsupportedVersion` *before* touching the payload (whose layout
        // it can no longer parse), telling operators to re-persist rather
        // than decoding garbage.
        let payload = [0u8; 16];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(
            EngineSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion {
                found: 1,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn fingerprint_mismatch_blocks_restore() {
        let (_, bytes) = snapshot_bytes();
        let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
        let other = Dataset::vn_en(&SyntheticConfig {
            seed: 99,
            ..SyntheticConfig::tiny()
        });
        assert!(matches!(
            MatchEngine::builder(other).build_from_snapshot(snapshot),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let (dataset, bytes) = snapshot_bytes();
        let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
        let dir = std::env::temp_dir().join(format!("wm-snap-test-{}", std::process::id()));
        let path = dir.join("vi-tiny.snap");
        snapshot.save(&path).unwrap();
        let loaded = EngineSnapshot::load(&path).unwrap();
        assert_eq!(loaded.fingerprint, snapshot.fingerprint);
        assert_eq!(loaded.type_count(), snapshot.type_count());
        let restored = MatchEngine::builder(dataset)
            .build_from_snapshot(loaded)
            .unwrap();
        assert_eq!(restored.cached_types(), 2);
        // No temp file left behind.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let missing = std::env::temp_dir().join("wm-snap-test-definitely-missing.snap");
        assert!(matches!(
            EngineSnapshot::load(&missing),
            Err(SnapshotError::Io(err)) if err.kind() == io::ErrorKind::NotFound
        ));
    }
}
