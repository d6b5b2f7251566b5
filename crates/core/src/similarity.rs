//! Similarity measures: `vsim`, `lsim` and the LSI correlation table.
//!
//! * **Cross-language value similarity** (`vsim`, Section 3.2): the cosine of
//!   the attributes' value vectors, computed on the *translated* vectors so
//!   that "Estados Unidos" and "United States" land on the same term.
//! * **Link-structure similarity** (`lsim`): the cosine of the attributes'
//!   link vectors; link targets were already unified into cross-language
//!   entity clusters by [`crate::schema::DualSchema::build`], so two
//!   attributes that link to the same real-world entities score high even
//!   though the anchor texts differ.
//! * **LSI attribute correlation**: the occurrence matrix over dual-language
//!   infoboxes is decomposed with a truncated SVD and attribute correlation
//!   is measured as the cosine of the reduced vectors, with the paper's sign
//!   conventions: cross-language pairs use the cosine directly, co-occurring
//!   same-language pairs are forced to 0 (they cannot be synonyms), and
//!   non-co-occurring same-language pairs use the complement of the cosine.
//!
//! A [`SimilarityTable`] does not hold one record per pair. Only the pairs
//! that share a value or link term can have non-zero `vsim`/`lsim`, and
//! every LSI score is a pure function of the rank-k factors and the two
//! attributes' languages and occurrence patterns. So the table keeps the
//! evidence pairs as compressed sparse rows and computes LSI on demand from
//! the factors with the same float operations as the dense pass, hence the
//! same bits. A snapshot persists exactly those two parts, so a restored
//! table scores LSI the way a built one does.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use wiki_linalg::{LsiConfig, LsiModel, Matrix};
use wiki_text::ByteRegion;

use crate::filter::candidate_pairs;
use crate::schema::DualSchema;

/// How [`SimilarityTable::compute`] traverses the attribute-pair space.
///
/// Both modes produce tables that answer every pair with **identical
/// bits** (pinned by the `pruned_table_is_byte_identical_to_dense` tests);
/// they differ only in how much work they do per pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeMode {
    /// Candidate-pruned build (the default): a join over the attributes'
    /// value and link term postings (see [`crate::filter`]) finds the pairs
    /// that share a term, which are the only pairs that can have non-zero
    /// `vsim` / `lsim`; only those cosines are computed (non-candidates are
    /// exactly `0.0` by construction), and LSI is scored on demand from the
    /// fitted factors.
    #[default]
    Pruned,
    /// The exact-equivalence fallback: the straightforward dense
    /// `O(|A|·|B|)` reference pass over every pair, single-threaded, which
    /// also stores every LSI score it computes. Kept as the semantic ground
    /// truth the pruned path is tested against.
    Dense,
}

impl std::fmt::Display for ComputeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ComputeMode::Pruned => "pruned",
            ComputeMode::Dense => "dense",
        })
    }
}

/// Error returned when parsing a [`ComputeMode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseComputeModeError(String);

impl std::fmt::Display for ParseComputeModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown compute mode {:?}; expected \"pruned\" or \"dense\"",
            self.0
        )
    }
}

impl std::error::Error for ParseComputeModeError {}

impl std::str::FromStr for ComputeMode {
    type Err = ParseComputeModeError;

    /// Parses `"pruned"` / `"dense"` (case-insensitive, also accepting the
    /// capitalised variant names).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "pruned" => Ok(ComputeMode::Pruned),
            "dense" => Ok(ComputeMode::Dense),
            _ => Err(ParseComputeModeError(s.to_string())),
        }
    }
}

// The mode serializes as its `Display` string (`"pruned"`, `"dense"`)
// rather than a derived variant tree: configuration and the `/stats`
// endpoint show the same text a CLI flag accepts, and the string
// round-trips through `FromStr`.
impl Serialize for ComputeMode {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for ComputeMode {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let text = value.as_str().ok_or_else(|| {
            serde::Error::custom(format!("expected compute-mode string, found {value:?}"))
        })?;
        text.parse().map_err(serde::Error::custom)
    }
}

/// Tally of direct-channel cosine evaluations a similarity-table build
/// performed versus provably avoided.
///
/// The dense pass evaluates `n·(n-1)` channel cosines for `n` attributes
/// (one value + one link cosine per unordered pair); `scored + pruned`
/// always equals that total, so the split is comparable across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PairCounts {
    /// Channel cosines actually evaluated.
    pub scored: u64,
    /// Channel cosines skipped on an exact zero certificate (`Pruned`).
    pub pruned: u64,
}

impl PairCounts {
    /// The `scored`/`pruned` split of a build over `n` attributes that
    /// evaluated `scored` channel cosines.
    pub(crate) fn of_total(n: usize, scored: u64) -> Self {
        let total = (n as u64).saturating_mul(n.saturating_sub(1) as u64);
        Self {
            scored,
            pruned: total.saturating_sub(scored),
        }
    }
}

/// A candidate attribute pair with its similarity evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidatePair {
    /// Index of the first attribute in the [`DualSchema`].
    pub p: usize,
    /// Index of the second attribute in the [`DualSchema`].
    pub q: usize,
    /// Cross-language value similarity.
    pub vsim: f64,
    /// Link-structure similarity.
    pub lsim: f64,
    /// LSI correlation score (paper's sign conventions applied).
    pub lsi: f64,
}

impl CandidatePair {
    /// The strongest of the two direct-evidence scores.
    pub fn max_sim(&self) -> f64 {
        self.vsim.max(self.lsim)
    }
}

/// Value similarity between two attributes of a dual schema.
///
/// For cross-language pairs the cosine is computed on the dictionary
/// translated vectors; for same-language pairs the raw vectors are used.
pub fn vsim(schema: &DualSchema, p: usize, q: usize) -> f64 {
    let a = schema.attribute(p);
    let b = schema.attribute(q);
    if a.language == b.language {
        a.values.cosine(&b.values)
    } else {
        a.translated_values.cosine(&b.translated_values)
    }
}

/// Link-structure similarity between two attributes of a dual schema.
pub fn lsim(schema: &DualSchema, p: usize, q: usize) -> f64 {
    schema.attribute(p).links.cosine(&schema.attribute(q).links)
}

/// Position of the unordered pair `(lo, hi)`, `lo < hi < n`, in the
/// canonical pair order: row-major over the strict upper triangle. The
/// `Dense` oracle stores its LSI channel in this order.
pub(crate) fn triangular_index(n: usize, lo: usize, hi: usize) -> usize {
    lo * n - lo * (lo + 1) / 2 + (hi - lo - 1)
}

/// The pairs `p < q` whose direct evidence is not `+0.0` on both channels,
/// as compressed sparse rows: row `p` lists its partners `q` in ascending
/// order, each with its `vsim` and `lsim`. Every pair absent from it has
/// `0.0` on both channels.
#[derive(Debug)]
pub(crate) struct Evidence {
    /// `starts[p]..starts[p + 1]` is row `p`'s span of the entry arrays.
    starts: Vec<usize>,
    partners: Vec<u32>,
    vsim: Vec<f64>,
    lsim: Vec<f64>,
}

impl Evidence {
    /// An empty builder; [`push`](Self::push) the pairs in canonical order,
    /// then [`finish`](Self::finish).
    pub(crate) fn builder() -> Self {
        Self {
            starts: vec![0],
            partners: Vec::new(),
            vsim: Vec::new(),
            lsim: Vec::new(),
        }
    }

    /// Appends pair `(p, q)`, `p < q`, which must follow every pair pushed
    /// before it in canonical order. A pair whose two channels both carry
    /// the bits of `+0.0` is dropped: it reads the same either way.
    pub(crate) fn push(&mut self, p: usize, q: usize, vsim: f64, lsim: f64) {
        if vsim.to_bits() == 0 && lsim.to_bits() == 0 {
            return;
        }
        debug_assert!(p < q && self.starts.len() <= p + 1);
        while self.starts.len() <= p {
            self.starts.push(self.partners.len());
        }
        self.partners
            .push(u32::try_from(q).expect("attribute indices fit in u32"));
        self.vsim.push(vsim);
        self.lsim.push(lsim);
    }

    /// Closes the rows of all `n` attributes.
    pub(crate) fn finish(mut self, n: usize) -> Self {
        while self.starts.len() <= n {
            self.starts.push(self.partners.len());
        }
        self
    }

    /// Row `p`'s entries `(q, vsim, lsim)`, ascending in `q`.
    fn row(&self, p: usize) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        (self.starts[p]..self.starts[p + 1])
            .map(move |i| (self.partners[i] as usize, self.vsim[i], self.lsim[i]))
    }

    /// `(vsim, lsim)` of the pair `lo < hi`, or `None` without evidence.
    fn get(&self, lo: usize, hi: usize) -> Option<(f64, f64)> {
        let (start, end) = (self.starts[lo], self.starts[lo + 1]);
        let at = self.partners[start..end]
            .binary_search(&u32::try_from(hi).ok()?)
            .ok()?;
        Some((self.vsim[start + at], self.lsim[start + at]))
    }

    /// Every entry `(p, q, vsim, lsim)` in canonical order.
    fn iter(&self) -> impl Iterator<Item = (usize, usize, f64, f64)> + '_ {
        (0..self.starts.len() - 1)
            .flat_map(move |p| self.row(p).map(move |(q, vsim, lsim)| (p, q, vsim, lsim)))
    }

    fn heap_bytes(&self) -> u64 {
        (self.starts.capacity() * 8
            + self.partners.capacity() * 4
            + (self.vsim.capacity() + self.lsim.capacity()) * 8) as u64
    }
}

/// Every attribute's boolean occurrence pattern packed into `u64` words,
/// one fixed-width row per attribute, so a co-occurrence test is a handful
/// of ANDs instead of an O(dual-count) boolean zip.
#[derive(Debug)]
pub(crate) struct PackedPatterns {
    words: usize,
    bits: Vec<u64>,
}

impl PackedPatterns {
    pub(crate) fn pack(schema: &DualSchema) -> Self {
        let words = schema.dual_count.div_ceil(64);
        let mut bits = vec![0u64; words * schema.len()];
        for (p, attr) in schema.attributes.iter().enumerate() {
            for (j, present) in attr.occurrence_pattern.iter().enumerate() {
                if *present {
                    bits[p * words + j / 64] |= 1u64 << (j % 64);
                }
            }
        }
        Self { words, bits }
    }

    /// Attribute `p`'s packed pattern.
    pub(crate) fn row(&self, p: usize) -> &[u64] {
        &self.bits[p * self.words..(p + 1) * self.words]
    }

    /// True when `p` and `q` share at least one dual infobox — exactly
    /// `AttributeStats::co_occurrences(..) > 0`, word-parallel.
    pub(crate) fn intersect(&self, p: usize, q: usize) -> bool {
        self.row(p).iter().zip(self.row(q)).any(|(x, y)| x & y != 0)
    }
}

/// The paper's sign conventions over one LSI cosine: cross-language pairs
/// use the cosine, same-language pairs that co-occur in an infobox score
/// `0.0` (they are not synonyms), and same-language pairs that never do
/// score the complement of the cosine (the less alike their occurrence
/// patterns, the likelier they are intra-language synonyms).
///
/// `co_occurs` is a closure, not a bool: only same-language pairs evaluate
/// it, so cross-language pairs pay nothing for it. The reference path hands
/// in the boolean zip, the factored path the AND over packed patterns; both
/// answer the same question, so both paths run the same float operations.
fn signed_lsi(
    model: &LsiModel,
    p: usize,
    q: usize,
    same_language: bool,
    co_occurs: impl FnOnce() -> bool,
) -> f64 {
    if model.is_empty() || model.rank() == 0 {
        return 0.0;
    }
    let cosine = model.similarity(p, q);
    if !same_language {
        cosine.clamp(0.0, 1.0)
    } else if co_occurs() {
        0.0
    } else {
        (1.0 - cosine).clamp(0.0, 1.0)
    }
}

/// The LSI factors of a schema and what the sign conventions need beside
/// them: the rank-k model, a language id per attribute and the packed
/// occurrence patterns. [`score`](Self::score) recomputes one pair's LSI on
/// demand in O(k + dual-count/64).
#[derive(Debug)]
pub(crate) struct LsiFactors {
    model: LsiModel,
    language: Vec<usize>,
    patterns: PackedPatterns,
}

impl LsiFactors {
    fn score(&self, p: usize, q: usize) -> f64 {
        signed_lsi(
            &self.model,
            p,
            q,
            self.language[p] == self.language[q],
            || self.patterns.intersect(p, q),
        )
    }

    fn heap_bytes(&self) -> u64 {
        // The model, the language ids and the pattern words.
        model_heap_bytes(&self.model)
            + (self.language.len() * 8 + self.patterns.bits.len() * 8) as u64
    }
}

/// Estimated heap bytes of a fitted model: one reduced vector (plus its
/// `Vec` header) and one norm per attribute, and the singular values.
fn model_heap_bytes(model: &LsiModel) -> u64 {
    (model.len() * (model.rank() * 8 + 24 + 8) + model.rank() * 8) as u64
}

/// Where a table's LSI scores come from.
#[derive(Debug)]
pub(crate) enum LsiSource {
    /// Built, patched and restored tables: the factors, scored on demand.
    Factors(LsiFactors),
    /// The `Dense` oracle: its reference pass's scores, one per pair in
    /// canonical order, and the model it fitted, which only a snapshot
    /// capture reads.
    Channel { scores: Vec<f64>, model: LsiModel },
}

impl LsiSource {
    /// The LSI score of pair `lo < hi` over `n` attributes.
    fn score(&self, n: usize, lo: usize, hi: usize) -> f64 {
        match self {
            LsiSource::Factors(factors) => factors.score(lo, hi),
            LsiSource::Channel { scores, .. } => scores[triangular_index(n, lo, hi)],
        }
    }

    fn heap_bytes(&self) -> u64 {
        match self {
            LsiSource::Factors(factors) => factors.heap_bytes(),
            LsiSource::Channel { scores, model } => {
                scores.capacity() as u64 * 8 + model_heap_bytes(model)
            }
        }
    }
}

/// A restored table's evidence rows where they sit in a snapshot region:
/// `starts` holds `n + 1` little-endian `u64` row starts, `partners` the
/// `u32` partner of each entry, and `vsim`/`lsim` each entry's raw `f64`
/// bits. [`new`](Self::new) validates the rows once, when the snapshot is
/// opened, so the read on first touch is infallible.
#[derive(Debug)]
pub(crate) struct EvidenceSection {
    region: Arc<dyn ByteRegion>,
    starts: Range<usize>,
    partners: Range<usize>,
    vsim: Range<usize>,
    lsim: Range<usize>,
}

/// The little-endian `u64` at `bytes[at..at + 8]`.
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte field"))
}

/// The little-endian `u32` at `bytes[at..at + 4]`.
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4-byte field"))
}

impl EvidenceSection {
    /// The evidence rows of `n` attributes with `entries` entries, at the
    /// given byte ranges of `region`. `None` unless every range is in
    /// bounds and exactly sized, the row starts run from 0 to `entries`
    /// without descending, each row's partners ascend strictly within
    /// `(p, n)`, and no entry carries `+0.0` on both channels — the shape
    /// [`Evidence::push`] builds.
    pub(crate) fn new(
        region: Arc<dyn ByteRegion>,
        n: usize,
        entries: usize,
        starts: Range<usize>,
        partners: Range<usize>,
        vsim: Range<usize>,
        lsim: Range<usize>,
    ) -> Option<Self> {
        let bytes = region.bytes();
        for (range, len) in [
            (&starts, n.checked_add(1)?.checked_mul(8)?),
            (&partners, entries.checked_mul(4)?),
            (&vsim, entries.checked_mul(8)?),
            (&lsim, entries.checked_mul(8)?),
        ] {
            if range.start > range.end || range.end > bytes.len() || range.len() != len {
                return None;
            }
        }
        if read_u64(bytes, starts.start) != 0 {
            return None;
        }
        let mut start = 0usize;
        for p in 0..n {
            let end = usize::try_from(read_u64(bytes, starts.start + 8 * (p + 1))).ok()?;
            if end < start || end > entries {
                return None;
            }
            let mut floor = p;
            for i in start..end {
                let q = read_u32(bytes, partners.start + 4 * i) as usize;
                let zero = read_u64(bytes, vsim.start + 8 * i) == 0
                    && read_u64(bytes, lsim.start + 8 * i) == 0;
                if q <= floor || q >= n || zero {
                    return None;
                }
                floor = q;
            }
            start = end;
        }
        if start != entries {
            return None;
        }
        Some(Self {
            region,
            starts,
            partners,
            vsim,
            lsim,
        })
    }

    /// Copies the rows of `n` attributes onto the heap, counting one
    /// page-in.
    fn read(&self, n: usize) -> Evidence {
        let (starts, partners) = (&self.starts, &self.partners);
        self.region
            .note_page_in(starts.len() + partners.len() + self.vsim.len() + self.lsim.len());
        let bytes = self.region.bytes();
        let entries = partners.len() / 4;
        let channel = |range: &Range<usize>| -> Vec<f64> {
            (0..entries)
                .map(|i| f64::from_bits(read_u64(bytes, range.start + 8 * i)))
                .collect()
        };
        Evidence {
            starts: (0..=n)
                .map(|p| read_u64(bytes, starts.start + 8 * p) as usize)
                .collect(),
            partners: (0..entries)
                .map(|i| read_u32(bytes, partners.start + 4 * i))
                .collect(),
            vsim: channel(&self.vsim),
            lsim: channel(&self.lsim),
        }
    }
}

/// All pairwise similarity evidence for one dual-language schema, factored
/// into two parts instead of one record per pair:
///
/// * the **evidence**: the pairs with non-zero `vsim` or `lsim`, as
///   compressed sparse rows; every other pair reads `0.0` on both;
/// * the **LSI source**: the factors — fitted, or restored from a
///   snapshot — or, for the `Dense` oracle, its reference scores.
///
/// [`pair`](Self::pair) answers any of the `n·(n-1)/2` pairs in
/// O(log degree + k) with the bits the dense reference pass computes;
/// [`pairs`](Self::pairs) and [`above_lsi`](Self::above_lsi) walk every
/// pair and retain nothing.
#[derive(Debug)]
pub struct SimilarityTable {
    /// Number of attributes in the schema the table was built for.
    len: usize,
    /// Set at construction, except for a restored table, which reads it
    /// from its snapshot section on first touch (the per-table page-in of
    /// the out-of-core tier).
    evidence: OnceLock<Evidence>,
    /// A restored table's evidence rows in its snapshot region.
    section: Option<EvidenceSection>,
    /// Shared with a delta-patched successor when the skeleton is kept.
    lsi: Arc<LsiSource>,
    /// Walks over every pair so far (see
    /// [`stored_pair_walks`](Self::stored_pair_walks)).
    walks: AtomicU64,
}

impl SimilarityTable {
    /// Computes `vsim`, `lsim` and LSI scores for every attribute pair of
    /// the schema, using the default [`ComputeMode::Pruned`] traversal.
    pub fn compute(schema: &DualSchema, lsi_config: LsiConfig) -> Self {
        Self::compute_with(schema, lsi_config, ComputeMode::Pruned)
    }

    /// Computes the table with the dense reference pass
    /// ([`ComputeMode::Dense`]).
    pub fn compute_dense(schema: &DualSchema, lsi_config: LsiConfig) -> Self {
        Self::compute_with(schema, lsi_config, ComputeMode::Dense)
    }

    /// Computes the table with an explicit traversal mode.
    pub fn compute_with(schema: &DualSchema, lsi_config: LsiConfig, mode: ComputeMode) -> Self {
        Self::compute_counted(schema, lsi_config, mode).0
    }

    /// Computes the table and reports how many direct-channel cosines were
    /// evaluated versus pruned — the `pairs_scored` / `pairs_pruned`
    /// gauges the engine exposes on `/stats`.
    pub fn compute_counted(
        schema: &DualSchema,
        lsi_config: LsiConfig,
        mode: ComputeMode,
    ) -> (Self, PairCounts) {
        match mode {
            ComputeMode::Dense => {
                let _span = wiki_obs::Span::enter("similarity_dense");
                let table = Self::compute_dense_impl(schema, lsi_config);
                let scored =
                    (schema.len() as u64).saturating_mul(schema.len().saturating_sub(1) as u64);
                (table, PairCounts::of_total(schema.len(), scored))
            }
            ComputeMode::Pruned => {
                let candidates = candidate_pairs(schema);
                let _span = wiki_obs::Span::enter("similarity_pruned");
                // One cosine per candidate pair and channel, and the LSI
                // factors; every other pair is a certified 0.0.
                let n = schema.len();
                let (mut evidence, mut scored) = (Evidence::builder(), 0);
                for candidate in candidates {
                    let (vsim, lsim) = candidate.scores(schema);
                    evidence.push(candidate.p as usize, candidate.q as usize, vsim, lsim);
                    scored += candidate.cosines();
                }
                let lsi = Self::fit_factors(schema, lsi_config);
                (
                    Self::exact(n, evidence.finish(n), lsi),
                    PairCounts::of_total(n, scored),
                )
            }
        }
    }

    /// A built or delta-patched table over `len` attributes.
    pub(crate) fn exact(len: usize, evidence: Evidence, lsi: Arc<LsiSource>) -> Self {
        Self {
            len,
            evidence: OnceLock::from(evidence),
            section: None,
            lsi,
            walks: AtomicU64::new(0),
        }
    }

    /// The LSI source fitted on `schema`, for [`exact`](Self::exact).
    pub(crate) fn fit_factors(schema: &DualSchema, lsi_config: LsiConfig) -> Arc<LsiSource> {
        Self::factors(schema, Self::fit_lsi(schema, lsi_config))
    }

    /// The LSI source scoring `model`, which was fitted on `schema` (or
    /// restored from a snapshot of it): the language ids and packed
    /// occurrence patterns are taken from the schema.
    pub(crate) fn factors(schema: &DualSchema, model: LsiModel) -> Arc<LsiSource> {
        Arc::new(LsiSource::Factors(LsiFactors {
            model,
            language: schema.language_ids().0,
            patterns: PackedPatterns::pack(schema),
        }))
    }

    /// A table restored from a snapshot, over `len` attributes: its
    /// evidence rows stay in the snapshot region until first touch, and
    /// `lsi` is the source of its persisted factors.
    pub(crate) fn restored(len: usize, section: EvidenceSection, lsi: Arc<LsiSource>) -> Self {
        Self {
            len,
            evidence: OnceLock::new(),
            section: Some(section),
            lsi,
            walks: AtomicU64::new(0),
        }
    }

    /// The evidence, reading a restored table's section on first touch.
    fn evidence(&self) -> &Evidence {
        self.evidence.get_or_init(|| {
            self.section
                .as_ref()
                .expect("only restored tables defer their evidence")
                .read(self.len)
        })
    }

    /// The evidence rows as `(starts, partners, vsim, lsim)`: row `p`'s
    /// entries are `starts[p]..starts[p + 1]` of the other three.
    pub(crate) fn evidence_rows(&self) -> (&[usize], &[u32], &[f64], &[f64]) {
        let evidence = self.evidence();
        (
            &evidence.starts,
            &evidence.partners,
            &evidence.vsim,
            &evidence.lsim,
        )
    }

    /// The LSI model the table's scores come from: the factors it scores
    /// on demand, or the model the `Dense` oracle fitted beside its
    /// reference scores.
    pub(crate) fn lsi_model(&self) -> &LsiModel {
        match &*self.lsi {
            LsiSource::Factors(factors) => &factors.model,
            LsiSource::Channel { model, .. } => model,
        }
    }

    /// The dense reference pass: every pair, every cosine and every LSI
    /// score through the boolean co-occurrence zip, single thread. Its LSI
    /// scores are stored as a channel, so the oracle never shares the
    /// factored path it is compared against; the fitted model is kept
    /// beside them so a `Dense` session can still be captured.
    fn compute_dense_impl(schema: &DualSchema, lsi_config: LsiConfig) -> Self {
        let n = schema.len();
        let model = Self::fit_lsi(schema, lsi_config);
        let mut scores = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        let mut evidence = Evidence::builder();
        for p in 0..n {
            for q in (p + 1)..n {
                let (a, b) = (schema.attribute(p), schema.attribute(q));
                scores.push(signed_lsi(&model, p, q, a.language == b.language, || {
                    a.co_occurrences(b) > 0
                }));
                evidence.push(p, q, vsim(schema, p, q), lsim(schema, p, q));
            }
        }
        let lsi = Arc::new(LsiSource::Channel { scores, model });
        Self::exact(n, evidence.finish(n), lsi)
    }

    /// Fits the LSI model on the attribute × dual-infobox occurrence matrix.
    pub(crate) fn fit_lsi(schema: &DualSchema, config: LsiConfig) -> LsiModel {
        let _span = wiki_obs::Span::enter("lsi_fit");
        let n = schema.len();
        let m = schema.dual_count;
        let mut occurrence = Matrix::zeros(n, m);
        for (i, attr) in schema.attributes.iter().enumerate() {
            for (j, present) in attr.occurrence_pattern.iter().enumerate() {
                if *present {
                    occurrence.set(i, j, 1.0);
                }
            }
        }
        LsiModel::fit(&occurrence, config)
    }

    /// Number of attributes the table covers.
    pub fn attribute_count(&self) -> usize {
        self.len
    }

    /// The LSI source, which a delta patch shares when the skeleton is
    /// unchanged.
    pub(crate) fn lsi_source(&self) -> &Arc<LsiSource> {
        &self.lsi
    }

    /// `(vsim, lsim)` of the pair `(p, q)`: `(0.0, 0.0)` without evidence.
    pub(crate) fn evidence_of(&self, p: usize, q: usize) -> (f64, f64) {
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        self.evidence().get(lo, hi).unwrap_or((0.0, 0.0))
    }

    /// The pairs with direct evidence, in canonical order, with their LSI
    /// computed on demand — the only pairs alignment queues when a pair
    /// without evidence cannot be integrated.
    pub(crate) fn evidence_pairs(&self) -> impl Iterator<Item = CandidatePair> + '_ {
        self.evidence()
            .iter()
            .map(|(p, q, vsim, lsim)| CandidatePair {
                p,
                q,
                vsim,
                lsim,
                lsi: self.lsi.score(self.len, p, q),
            })
    }

    /// The candidate pair for `(p, q)` (order-insensitive, reported as
    /// `p < q`). `None` when `p == q` or when either index is not below
    /// [`attribute_count`](Self::attribute_count).
    pub fn pair(&self, p: usize, q: usize) -> Option<CandidatePair> {
        if p == q || p >= self.len || q >= self.len {
            return None;
        }
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        let (vsim, lsim) = self.evidence_of(lo, hi);
        Some(CandidatePair {
            p: lo,
            q: hi,
            vsim,
            lsim,
            lsi: self.lsi.score(self.len, lo, hi),
        })
    }

    /// Calls `f` on every pair in canonical order — all `n·(n-1)/2` of
    /// them, each with its LSI computed or read.
    fn for_each_pair(&self, mut f: impl FnMut(CandidatePair)) {
        self.walks.fetch_add(1, Ordering::Relaxed);
        let evidence = self.evidence();
        let n = self.len;
        for p in 0..n {
            let mut row = evidence.row(p).peekable();
            for q in (p + 1)..n {
                let (vsim, lsim) = match row.next_if(|&(partner, _, _)| partner == q) {
                    Some((_, vsim, lsim)) => (vsim, lsim),
                    None => (0.0, 0.0),
                };
                f(CandidatePair {
                    p,
                    q,
                    vsim,
                    lsim,
                    lsi: self.lsi.score(n, p, q),
                });
            }
        }
    }

    /// Every pair (unordered, `p < q`), materialized: O(n²·k). Nothing on
    /// the alignment or serving path calls this.
    pub fn pairs(&self) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        self.for_each_pair(|pair| out.push(pair));
        out
    }

    /// The pairs with an LSI score above `threshold`, sorted by
    /// decreasing LSI score (deterministic tie-break by indices): an
    /// O(n²·k) walk, which only the Random and −InductiveGrouping queues
    /// need.
    pub fn above_lsi(&self, threshold: f64) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        self.for_each_pair(|pair| {
            if pair.lsi > threshold {
                out.push(pair);
            }
        });
        out.sort_by(by_decreasing_lsi);
        out
    }

    /// How many times a caller walked every pair of this table —
    /// through [`pairs`](Self::pairs) or [`above_lsi`](Self::above_lsi).
    /// Alignment under a configuration whose zero-evidence pairs are inert,
    /// a served read and the snapshot encoder never do.
    pub fn stored_pair_walks(&self) -> u64 {
        self.walks.load(Ordering::Relaxed)
    }

    /// True when the table's evidence rows are borrowed from a snapshot's
    /// byte region (a mapping, or the bytes `EngineSnapshot::from_bytes`
    /// decoded) and read onto the heap on first touch.
    pub fn is_mapped(&self) -> bool {
        self.section.is_some()
    }

    /// Estimated heap bytes the table holds now: the evidence (nothing for
    /// a restored table no lookup has touched yet) and the LSI source (the
    /// factors, or the oracle's scores and model).
    pub fn heap_bytes(&self) -> u64 {
        self.evidence.get().map_or(0, Evidence::heap_bytes) + self.lsi.heap_bytes()
    }
}

/// The candidate-queue order of [`SimilarityTable::above_lsi`] and of the
/// alignment's evidence-only queue: decreasing LSI score, ties broken by
/// the attribute indices. `total_cmp` rather than `partial_cmp`: the
/// comparator is a total order for every possible float (NaN included), so
/// equal-score pairs rank identically across runs and platforms.
pub(crate) fn by_decreasing_lsi(a: &CandidatePair, b: &CandidatePair) -> std::cmp::Ordering {
    b.lsi
        .total_cmp(&a.lsi)
        .then_with(|| (a.p, a.q).cmp(&(b.p, b.q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Corpus, Infobox, Language, Link};
    use wiki_translate::TitleDictionary;

    /// Corpus where `born`/`nascimento` share values (via translation),
    /// `directed by`/`direção` share links, and `died`/`morte` share only
    /// occurrence patterns.
    fn corpus() -> Corpus {
        let mut corpus = Corpus::new();
        let mut usa_en = Article::new("United States", Language::En, "Country", Infobox::new("c"));
        usa_en.add_cross_link(Language::Pt, "Estados Unidos");
        corpus.insert(usa_en);
        corpus.insert(Article::new(
            "Estados Unidos",
            Language::Pt,
            "Country",
            Infobox::new("c"),
        ));
        let mut person_en = Article::new(
            "Bernardo Bertolucci",
            Language::En,
            "Person",
            Infobox::new("p"),
        );
        person_en.add_cross_link(Language::Pt, "Bernardo Bertolucci");
        corpus.insert(person_en);
        corpus.insert(Article::new(
            "Bernardo Bertolucci",
            Language::Pt,
            "Person",
            Infobox::new("p"),
        ));

        for i in 0..4 {
            let mut en_box = Infobox::new("Infobox Actor");
            en_box.push(AttributeValue::linked(
                "born",
                "United States",
                vec![Link::plain("United States")],
            ));
            en_box.push(AttributeValue::linked(
                "directed by",
                "Bernardo Bertolucci",
                vec![Link::plain("Bernardo Bertolucci")],
            ));
            if i % 2 == 0 {
                en_box.push(AttributeValue::text("died", "June 4, 1975"));
            }
            let mut en = Article::new(format!("Actor {i}"), Language::En, "Actor", en_box);
            en.add_cross_link(Language::Pt, format!("Ator {i}"));

            let mut pt_box = Infobox::new("Infobox Ator");
            pt_box.push(AttributeValue::linked(
                "nascimento",
                "Estados Unidos",
                vec![Link::plain("Estados Unidos")],
            ));
            pt_box.push(AttributeValue::linked(
                "direção",
                "Bernardo Bertolucci",
                vec![Link::plain("Bernardo Bertolucci")],
            ));
            if i % 2 == 0 {
                pt_box.push(AttributeValue::text("morte", "4 de Junho de 1975"));
            } else {
                pt_box.push(AttributeValue::text("falecimento", "4 de Junho de 1975"));
            }
            let mut pt = Article::new(format!("Ator {i}"), Language::Pt, "Ator", pt_box);
            pt.add_cross_link(Language::En, format!("Actor {i}"));

            corpus.insert(en);
            corpus.insert(pt);
        }
        corpus
    }

    fn schema_and_table() -> (DualSchema, SimilarityTable) {
        let corpus = corpus();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let schema = DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dict);
        let table = SimilarityTable::compute(&schema, LsiConfig::default());
        (schema, table)
    }

    #[test]
    fn vsim_fires_after_dictionary_translation() {
        let (schema, _) = schema_and_table();
        let born = schema.index_of(&Language::En, "born").unwrap();
        let nascimento = schema.index_of(&Language::Pt, "nascimento").unwrap();
        let died = schema.index_of(&Language::En, "died").unwrap();
        assert!(vsim(&schema, born, nascimento) > 0.9);
        assert!(vsim(&schema, born, died) < 0.1);
    }

    #[test]
    fn vsim_canonicalises_dates_across_languages() {
        let (schema, _) = schema_and_table();
        let died = schema.index_of(&Language::En, "died").unwrap();
        let morte = schema.index_of(&Language::Pt, "morte").unwrap();
        // "June 4, 1975" and "4 de Junho de 1975" map to the same token.
        assert!(vsim(&schema, died, morte) > 0.9);
    }

    #[test]
    fn lsim_uses_cross_language_entity_clusters() {
        let (schema, _) = schema_and_table();
        let directed = schema.index_of(&Language::En, "directed by").unwrap();
        let direcao = schema.index_of(&Language::Pt, "direção").unwrap();
        let born = schema.index_of(&Language::En, "born").unwrap();
        assert!(lsim(&schema, directed, direcao) > 0.99);
        assert!(lsim(&schema, directed, born) < 0.01);
    }

    #[test]
    fn lsi_sign_conventions() {
        let (schema, table) = schema_and_table();
        let born = schema.index_of(&Language::En, "born").unwrap();
        let directed = schema.index_of(&Language::En, "directed by").unwrap();
        let morte = schema.index_of(&Language::Pt, "morte").unwrap();
        let falecimento = schema.index_of(&Language::Pt, "falecimento").unwrap();

        // Same-language co-occurring attributes get exactly 0.
        assert_eq!(table.pair(born, directed).unwrap().lsi, 0.0);
        // Same-language attributes that never co-occur (morte/falecimento)
        // get the complement — a high score here.
        let intra = table.pair(morte, falecimento).unwrap().lsi;
        assert!(intra > 0.5, "intra-language synonym LSI = {intra}");
        // Cross-language pair with aligned occurrence patterns scores high.
        let nascimento = schema.index_of(&Language::Pt, "nascimento").unwrap();
        let cross = table.pair(born, nascimento).unwrap().lsi;
        assert!(cross > 0.8, "cross-language LSI = {cross}");
        // All scores are bounded.
        for pair in table.pairs() {
            assert!((0.0..=1.0).contains(&pair.lsi), "lsi = {}", pair.lsi);
            assert!((0.0..=1.0 + 1e-9).contains(&pair.vsim));
            assert!((0.0..=1.0 + 1e-9).contains(&pair.lsim));
        }
    }

    #[test]
    fn pair_lookup_is_order_insensitive_and_complete() {
        let (schema, table) = schema_and_table();
        let n = schema.len();
        assert_eq!(table.pairs().len(), n * (n - 1) / 2);
        for p in 0..n {
            assert!(table.pair(p, p).is_none());
            for q in 0..n {
                if p == q {
                    continue;
                }
                let a = table.pair(p, q).unwrap();
                let b = table.pair(q, p).unwrap();
                assert_eq!((a.p, a.q), (b.p, b.q));
                assert_eq!(a.p.min(a.q), p.min(q));
                assert_eq!(a.p.max(a.q), p.max(q));
            }
        }
    }

    #[test]
    fn pruned_table_is_byte_identical_to_dense() {
        let corpus = corpus();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let schema = DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dict);
        let dense = SimilarityTable::compute_dense(&schema, LsiConfig::default());
        let pruned =
            SimilarityTable::compute_with(&schema, LsiConfig::default(), ComputeMode::Pruned);
        assert_eq!(dense.pairs().len(), pruned.pairs().len());
        for (d, p) in dense.pairs().iter().zip(pruned.pairs()) {
            assert_eq!((d.p, d.q), (p.p, p.q));
            // Bit-for-bit equality, not approximate equality: the pruned
            // path must call the exact same float operations for candidate
            // pairs and write literal 0.0 only where the dense cosine is
            // provably 0.0.
            assert_eq!(d.vsim.to_bits(), p.vsim.to_bits(), "vsim {}-{}", d.p, d.q);
            assert_eq!(d.lsim.to_bits(), p.lsim.to_bits(), "lsim {}-{}", d.p, d.q);
            assert_eq!(d.lsi.to_bits(), p.lsi.to_bits(), "lsi {}-{}", d.p, d.q);
        }
    }

    /// Lays a table's evidence rows out as a snapshot section does — row
    /// starts, partners, `vsim` bits, `lsim` bits — and returns the bytes
    /// with the four ranges and the entry count.
    fn evidence_layout(table: &SimilarityTable) -> (Vec<u8>, [Range<usize>; 4], usize) {
        let (starts, partners, vsim, lsim) = table.evidence_rows();
        let mut buf = Vec::new();
        let mut section = |words: Vec<Vec<u8>>| {
            let start = buf.len();
            for word in words {
                buf.extend_from_slice(&word);
            }
            start..buf.len()
        };
        let starts = section(
            starts
                .iter()
                .map(|&s| (s as u64).to_le_bytes().to_vec())
                .collect(),
        );
        let partners = section(partners.iter().map(|q| q.to_le_bytes().to_vec()).collect());
        let bits = |channel: &[f64]| {
            channel
                .iter()
                .map(|v| v.to_bits().to_le_bytes().to_vec())
                .collect()
        };
        let vsim_range = section(bits(vsim));
        let lsim_range = section(bits(lsim));
        (buf, [starts, partners, vsim_range, lsim_range], vsim.len())
    }

    fn section_of(
        buf: &[u8],
        n: usize,
        entries: usize,
        [starts, partners, vsim, lsim]: [Range<usize>; 4],
    ) -> Option<EvidenceSection> {
        EvidenceSection::new(
            Arc::new(buf.to_vec()),
            n,
            entries,
            starts,
            partners,
            vsim,
            lsim,
        )
    }

    #[test]
    fn mapped_table_matches_owned_bit_for_bit() {
        let (_, table) = schema_and_table();
        let n = table.attribute_count();
        let (buf, ranges, entries) = evidence_layout(&table);
        assert!(entries > 0);
        let section = section_of(&buf, n, entries, ranges).expect("valid layout");
        let mapped = SimilarityTable::restored(n, section, Arc::clone(table.lsi_source()));
        assert!(mapped.is_mapped());
        assert!(!table.is_mapped());
        // No evidence read onto the heap until first touch.
        assert_eq!(mapped.heap_bytes(), table.lsi_source().heap_bytes());
        assert_eq!(mapped.pairs().len(), table.pairs().len());
        assert!(mapped.heap_bytes() > table.lsi_source().heap_bytes());
        for (a, b) in table.pairs().iter().zip(mapped.pairs()) {
            assert_eq!((a.p, a.q), (b.p, b.q));
            assert_eq!(a.vsim.to_bits(), b.vsim.to_bits());
            assert_eq!(a.lsim.to_bits(), b.lsim.to_bits());
            assert_eq!(a.lsi.to_bits(), b.lsi.to_bits());
        }
        for pair in table.pairs() {
            let found = mapped.pair(pair.q, pair.p).unwrap();
            assert_eq!(found.vsim.to_bits(), pair.vsim.to_bits());
        }
    }

    #[test]
    fn mapped_table_rejects_broken_layouts() {
        let (_, table) = schema_and_table();
        let n = table.attribute_count();
        let (buf, ranges, entries) = evidence_layout(&table);
        assert!(section_of(&buf, n, entries, ranges.clone()).is_some());
        // Section lengths that do not match the attribute or entry count.
        assert!(section_of(&buf, n + 1, entries, ranges.clone()).is_none());
        assert!(section_of(&buf, n, entries + 1, ranges.clone()).is_none());
        // An out-of-bounds section.
        let mut oob = ranges.clone();
        oob[3] = oob[3].start + 8..oob[3].end + 8;
        assert!(section_of(&buf, n, entries, oob).is_none());
        // Bytes that break the row invariants, at the given offset.
        let broken = |at: usize, bytes: &[u8]| {
            let mut copy = buf.clone();
            copy[at..at + bytes.len()].copy_from_slice(bytes);
            section_of(&copy, n, entries, ranges.clone())
        };
        let [starts, partners, vsim, lsim] = ranges.clone();
        // A first row start other than 0, a row start past the entries, and
        // a last one short of them.
        assert!(broken(starts.start, &1u64.to_le_bytes()).is_none());
        assert!(broken(starts.start + 8, &(entries as u64 + 1).to_le_bytes()).is_none());
        assert!(broken(starts.end - 8, &(entries as u64 - 1).to_le_bytes()).is_none());
        // A partner at or below its row, or past the attributes.
        assert!(broken(partners.start, &0u32.to_le_bytes()).is_none());
        assert!(broken(partners.start, &(n as u32).to_le_bytes()).is_none());
        // An entry whose two channels are both +0.0.
        let zero = |range: &Range<usize>| (range.start, 0u64.to_le_bytes());
        let (v_at, v_zero) = zero(&vsim);
        let (l_at, l_zero) = zero(&lsim);
        let mut both = buf.clone();
        both[v_at..v_at + 8].copy_from_slice(&v_zero);
        both[l_at..l_at + 8].copy_from_slice(&l_zero);
        assert!(section_of(&both, n, entries, ranges).is_none());
    }

    #[test]
    fn compute_defaults_to_the_pruned_mode() {
        assert_eq!(ComputeMode::default(), ComputeMode::Pruned);
        let (schema, table) = schema_and_table();
        let dense = SimilarityTable::compute_dense(&schema, LsiConfig::default());
        assert_eq!(table.pairs(), dense.pairs());
    }

    #[test]
    fn packed_patterns_match_boolean_co_occurrence() {
        let (schema, _) = schema_and_table();
        let bits = PackedPatterns::pack(&schema);
        for p in 0..schema.len() {
            for q in (p + 1)..schema.len() {
                let expected = schema.attribute(p).co_occurrences(schema.attribute(q)) > 0;
                assert_eq!(bits.intersect(p, q), expected);
            }
        }
    }

    #[test]
    fn compute_mode_round_trips_through_serde_and_from_str() {
        for (mode, text) in [
            (ComputeMode::Pruned, "pruned"),
            (ComputeMode::Dense, "dense"),
        ] {
            // Display / FromStr.
            assert_eq!(mode.to_string(), text);
            assert_eq!(text.parse::<ComputeMode>().unwrap(), mode);
            assert_eq!(text.to_uppercase().parse::<ComputeMode>().unwrap(), mode);
            // serde (via the Value tree the shims use).
            let value = mode.serialize_value();
            assert_eq!(ComputeMode::deserialize_value(&value).unwrap(), mode);
            // The serde variant names are also accepted by FromStr so a
            // serialized mode can be fed back through a CLI flag.
            let serde_name = value.as_str().unwrap().to_string();
            assert_eq!(serde_name.parse::<ComputeMode>().unwrap(), mode);
        }
        let err = "fast".parse::<ComputeMode>().unwrap_err();
        assert!(err.to_string().contains("fast"), "{err}");
    }

    #[test]
    fn compute_mode_parsing_applies_defaults_and_validates_parameters() {
        assert_eq!(" Pruned ".parse::<ComputeMode>(), Ok(ComputeMode::Pruned));
        // The modes take no parameters, and the removed `filtered[:T]` and
        // `lsh` spellings are rejected, never constructed.
        for bad in [
            "",
            "filtered",
            "filtered:0.6",
            "lsh",
            "lsh:16x4",
            "pruned:1",
        ] {
            assert!(
                bad.parse::<ComputeMode>().is_err(),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn ranking_is_deterministic_for_ties_and_total_for_nan() {
        // A hand-built table over 4 attributes: three pairs tied at 0.9, one
        // NaN score, and two distinct scores. Regression test for the
        // NaN-unsafe `partial_cmp` tie-breaking this module used to have:
        // with `total_cmp` + the (p, q) secondary key the ranked output is a
        // fixed sequence, not whatever the sort happened to do with
        // incomparable or equal keys.
        let scores = [
            ((0, 1), 0.9),
            ((0, 2), f64::NAN),
            ((0, 3), 0.9),
            ((1, 2), 0.3),
            ((1, 3), 0.9),
            ((2, 3), 0.7),
        ];
        let scores: Vec<f64> = scores.iter().map(|&(_, lsi)| lsi).collect();
        let model = LsiModel::from_parts(vec![Vec::new(); 4], Vec::new()).unwrap();
        let lsi = Arc::new(LsiSource::Channel { scores, model });
        let table = SimilarityTable::exact(4, Evidence::builder().finish(4), lsi);
        let ranked: Vec<(usize, usize)> = table
            .above_lsi(0.2)
            .into_iter()
            .map(|pair| (pair.p, pair.q))
            .collect();
        // NaN fails the `> threshold` filter; the 0.9 ties come out in
        // ascending (p, q) order.
        assert_eq!(ranked, vec![(0, 1), (0, 3), (1, 3), (2, 3), (1, 2)]);
        // Repeated runs agree (the comparator is a pure total order).
        for _ in 0..8 {
            let again: Vec<(usize, usize)> = table
                .above_lsi(0.2)
                .into_iter()
                .map(|pair| (pair.p, pair.q))
                .collect();
            assert_eq!(again, ranked);
        }
    }

    #[test]
    fn above_lsi_is_sorted_and_filtered() {
        let (_, table) = schema_and_table();
        let ranked = table.above_lsi(0.1);
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].lsi >= w[1].lsi);
        }
        for pair in &ranked {
            assert!(pair.lsi > 0.1);
        }
        // A prohibitive threshold removes everything.
        assert!(table.above_lsi(1.1).is_empty());
    }
}
