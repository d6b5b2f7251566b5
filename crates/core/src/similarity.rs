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

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use wiki_linalg::{LsiConfig, LsiModel, Matrix};
use wiki_text::ByteRegion;

use crate::schema::{CandidateIndex, DualSchema};

/// How [`SimilarityTable::compute`] traverses the attribute-pair space.
///
/// The two *exact* modes (`Pruned`, `Dense`) produce **bit-identical**
/// tables (pinned by the `pruned_table_is_byte_identical_to_dense` tests);
/// they differ only in how much work they do per pair. The sparse
/// `Filtered` mode relaxes completeness — not accuracy — for scale: every
/// score it *does* store is still produced by the exact same float
/// operations as the dense pass, but sub-threshold pairs are dropped from
/// the table.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ComputeMode {
    /// Candidate-pruned, parallel build (the default): a
    /// [`CandidateIndex`] over the attributes' value and link terms decides
    /// which pairs can have non-zero `vsim` / `lsim`; only those cosines
    /// are computed (non-candidates are exactly `0.0` by construction),
    /// co-occurrence tests run on bit-packed occurrence patterns, and rows
    /// are scored on parallel threads via the rayon shim.
    #[default]
    Pruned,
    /// The exact-equivalence fallback: the straightforward dense
    /// `O(|A|·|B|)` reference pass over every pair, single-threaded. Kept
    /// as the semantic ground truth the pruned path is tested against.
    Dense,
    /// Threshold-filtered sparse build: an index-probe pass counts shared
    /// terms per pair and a provable weight-mass upper bound (see
    /// [`crate::filter`]) skips every pair that cannot reach `threshold`
    /// on either direct channel. The table stores exactly the pairs with
    /// `vsim >= threshold` or `lsim >= threshold`; stored scores at or
    /// above the threshold are bit-identical to `Dense`, channels below it
    /// are reported as `0.0`.
    Filtered {
        /// Minimum per-channel cosine a pair must reach to be stored;
        /// validated finite and in `(0, 1]` by every public constructor.
        threshold: f64,
    },
}

// `PartialEq` is derived, so `Eq` only needs the no-NaN promise for the
// `threshold` field — upheld because `ComputeMode::filtered`, `FromStr`
// and `Deserialize` all validate the threshold as finite and in (0, 1].
impl Eq for ComputeMode {}

impl ComputeMode {
    /// Threshold used by a bare `"filtered"` mode string.
    pub const DEFAULT_FILTER_THRESHOLD: f64 = 0.6;

    /// The threshold-filtered mode.
    ///
    /// # Panics
    /// When `threshold` is not a finite number in `(0, 1]` — a threshold
    /// of zero would make every pair a keeper (use `Dense`), and anything
    /// above one stores nothing.
    pub fn filtered(threshold: f64) -> Self {
        assert!(
            threshold.is_finite() && threshold > 0.0 && threshold <= 1.0,
            "filter threshold must be finite and in (0, 1], got {threshold}"
        );
        ComputeMode::Filtered { threshold }
    }

    /// True for the modes whose tables are bit-identical to `Dense` on
    /// **every** pair. Snapshot capture and delta patching require an
    /// exact mode; the sparse mode trades completeness for scale.
    pub fn is_exact(self) -> bool {
        matches!(self, ComputeMode::Pruned | ComputeMode::Dense)
    }
}

impl std::fmt::Display for ComputeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeMode::Pruned => f.write_str("pruned"),
            ComputeMode::Dense => f.write_str("dense"),
            ComputeMode::Filtered { threshold } => write!(f, "filtered:{threshold}"),
        }
    }
}

/// Error returned when parsing a [`ComputeMode`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseComputeModeError(String);

impl std::fmt::Display for ParseComputeModeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown compute mode {:?}; expected \"pruned\", \"dense\" \
             or \"filtered[:T]\" with T finite in (0, 1]",
            self.0
        )
    }
}

impl std::error::Error for ParseComputeModeError {}

impl std::str::FromStr for ComputeMode {
    type Err = ParseComputeModeError;

    /// Parses `"pruned"` / `"dense"` / `"filtered[:T]"` (case-insensitive,
    /// also accepting the capitalised variant names), so the mode can be
    /// set from `matchd` configuration and bench CLI flags. Bare
    /// `"filtered"` uses [`DEFAULT_FILTER_THRESHOLD`](Self::DEFAULT_FILTER_THRESHOLD).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let err = || ParseComputeModeError(s.to_string());
        if let Some(rest) = lower.strip_prefix("filtered") {
            let threshold = match rest.strip_prefix(':') {
                Some(spec) => spec.parse::<f64>().map_err(|_| err())?,
                None if rest.is_empty() => Self::DEFAULT_FILTER_THRESHOLD,
                None => return Err(err()),
            };
            if !(threshold.is_finite() && threshold > 0.0 && threshold <= 1.0) {
                return Err(err());
            }
            return Ok(ComputeMode::Filtered { threshold });
        }
        match lower.as_str() {
            "pruned" => Ok(ComputeMode::Pruned),
            "dense" => Ok(ComputeMode::Dense),
            _ => Err(err()),
        }
    }
}

// The mode serializes as its `Display` string (`"pruned"`,
// `"filtered:0.6"`, ...) rather than a derived variant tree: configuration
// and the `/stats` endpoint show the same text a CLI flag accepts, and the
// string round-trips through `FromStr` (which also validates the
// parameters, so a snapshot cannot smuggle in a NaN threshold).
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
    /// Channel cosines skipped — via an exact zero certificate (`Pruned`)
    /// or a sound upper bound (`Filtered`).
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

/// Where a table's pairs live: on the heap, or borrowed from a mapped (v4)
/// snapshot region as three fixed-stride raw-`f64`-bits channel sections
/// (`lsi`, `vsim`, `lsim`, each `n_pairs * 8` bytes in canonical pair
/// order). A mapped table decodes **lazily on first touch** — this is the
/// per-(type, channel) page-in of the out-of-core tier — and the decoded
/// pairs are bit-identical to an owned decode because every weight travels
/// as raw IEEE-754 bits.
#[derive(Debug, Clone)]
enum PairStore {
    Owned(Vec<CandidatePair>),
    Mapped {
        region: Arc<dyn ByteRegion>,
        lsi: Range<usize>,
        vsim: Range<usize>,
        lsim: Range<usize>,
        cache: OnceLock<Vec<CandidatePair>>,
    },
}

/// All pairwise similarity evidence for one dual-language schema.
#[derive(Debug, Clone)]
pub struct SimilarityTable {
    /// Candidate pairs sorted by `(p, q)` with `p < q`. The exact modes
    /// store every unordered pair; the sparse modes only the survivors.
    store: PairStore,
    /// Number of attributes in the schema the table was built for.
    len: usize,
    /// True when the store holds **every** unordered pair in lexicographic
    /// order, so [`pair`](Self::pair) can use O(1) index arithmetic;
    /// sparse (filtered) tables binary-search instead. Mapped tables
    /// are always dense — only exact-mode artifacts are persisted.
    dense_layout: bool,
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
            ComputeMode::Dense | ComputeMode::Pruned => {
                let index = CandidateIndex::build(schema);
                Self::compute_counted_with_index(schema, lsi_config, mode, &index)
            }
            ComputeMode::Filtered { threshold } => {
                let _span = wiki_obs::Span::enter("similarity_filtered");
                crate::filter::compute_filtered(schema, lsi_config, threshold)
            }
        }
    }

    /// Computes the table with an explicit traversal mode and a caller-built
    /// [`CandidateIndex`] over the same schema.
    ///
    /// [`crate::MatchEngine`] builds the index once per type and keeps it as
    /// part of the prepared artifacts (so it can be persisted alongside the
    /// table); the dense pass never consults it, and the sparse modes use
    /// their own probe structures instead.
    pub fn compute_with_index(
        schema: &DualSchema,
        lsi_config: LsiConfig,
        mode: ComputeMode,
        index: &CandidateIndex,
    ) -> Self {
        Self::compute_counted_with_index(schema, lsi_config, mode, index).0
    }

    /// [`compute_counted`](Self::compute_counted) with a caller-built
    /// index for the exact modes.
    pub fn compute_counted_with_index(
        schema: &DualSchema,
        lsi_config: LsiConfig,
        mode: ComputeMode,
        index: &CandidateIndex,
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
                let _span = wiki_obs::Span::enter("similarity_pruned");
                let table = Self::compute_pruned_with(schema, lsi_config, index);
                // The pruned pass evaluates exactly one cosine per
                // candidate pair per channel; everything else is written
                // as a certified 0.0.
                let scored = (index.value_candidates() + index.link_candidates()) as u64;
                (table, PairCounts::of_total(schema.len(), scored))
            }
            sparse => Self::compute_counted(schema, lsi_config, sparse),
        }
    }

    /// Reassembles a table from persisted parts. The caller (the snapshot
    /// reader) guarantees `pairs` holds every unordered pair `(p < q)` over
    /// `len` attributes in lexicographic order — the layout
    /// [`pair`](Self::pair) depends on.
    pub(crate) fn from_raw_parts(pairs: Vec<CandidatePair>, len: usize) -> Self {
        debug_assert_eq!(pairs.len(), len * len.saturating_sub(1) / 2);
        Self {
            store: PairStore::Owned(pairs),
            len,
            dense_layout: true,
        }
    }

    /// Assembles a dense table whose channel values are **borrowed** from a
    /// mapped snapshot region: `lsi` / `vsim` / `lsim` are the byte ranges
    /// of the three fixed-stride sections (raw little-endian `f64` bits,
    /// one value per canonical pair). Bounds, section sizes and 8-byte
    /// stride alignment are validated here, so the lazy decode on first
    /// touch is infallible; returns `None` when the layout is broken.
    pub fn from_mapped(
        region: Arc<dyn ByteRegion>,
        lsi: Range<usize>,
        vsim: Range<usize>,
        lsim: Range<usize>,
        len: usize,
    ) -> Option<Self> {
        let n_pairs = len.checked_mul(len.saturating_sub(1))? / 2;
        let section_len = n_pairs.checked_mul(8)?;
        let total = region.bytes().len();
        for range in [&lsi, &vsim, &lsim] {
            if range.start > range.end || range.end > total {
                return None;
            }
            if range.end - range.start != section_len || !range.start.is_multiple_of(8) {
                return None;
            }
        }
        Some(Self {
            store: PairStore::Mapped {
                region,
                lsi,
                vsim,
                lsim,
                cache: OnceLock::new(),
            },
            len,
            dense_layout: true,
        })
    }

    /// The pair list, materializing a mapped store on first touch.
    fn stored_pairs(&self) -> &[CandidatePair] {
        match &self.store {
            PairStore::Owned(pairs) => pairs,
            PairStore::Mapped {
                region,
                lsi,
                vsim,
                lsim,
                cache,
            } => cache.get_or_init(|| {
                region.note_page_in(lsi.len() + vsim.len() + lsim.len());
                let bytes = region.bytes();
                let channel = |range: &Range<usize>, i: usize| {
                    let at = range.start + i * 8;
                    f64::from_bits(u64::from_le_bytes(
                        bytes[at..at + 8].try_into().expect("8-byte field"),
                    ))
                };
                let n_pairs = self.len * self.len.saturating_sub(1) / 2;
                let mut pairs = Vec::with_capacity(n_pairs);
                let mut i = 0usize;
                for p in 0..self.len {
                    for q in (p + 1)..self.len {
                        pairs.push(CandidatePair {
                            p,
                            q,
                            vsim: channel(vsim, i),
                            lsim: channel(lsim, i),
                            lsi: channel(lsi, i),
                        });
                        i += 1;
                    }
                }
                pairs
            }),
        }
    }

    /// Number of pairs currently materialized on the heap: everything for
    /// an owned table, `0` for a mapped table nothing has touched yet. The
    /// resident-bytes accounting of the out-of-core tier is built on this.
    pub fn materialized_pairs(&self) -> usize {
        match &self.store {
            PairStore::Owned(pairs) => pairs.len(),
            PairStore::Mapped { cache, .. } => cache.get().map_or(0, Vec::len),
        }
    }

    /// True when the pairs are borrowed from a mapped region rather than
    /// heap-owned.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, PairStore::Mapped { .. })
    }

    /// Assembles a sparse table from surviving pairs sorted by `(p, q)`.
    /// A sparse table that happens to contain every pair still satisfies
    /// the dense-layout invariant (lexicographic order is required), so it
    /// is promoted to the O(1) lookup path.
    pub(crate) fn from_sparse_pairs(pairs: Vec<CandidatePair>, len: usize) -> Self {
        debug_assert!(pairs
            .windows(2)
            .all(|w| (w[0].p, w[0].q) < (w[1].p, w[1].q)));
        debug_assert!(pairs.iter().all(|pair| pair.p < pair.q && pair.q < len));
        let dense_layout = pairs.len() == len * len.saturating_sub(1) / 2;
        Self {
            store: PairStore::Owned(pairs),
            len,
            dense_layout,
        }
    }

    /// The dense reference pass: every pair, every cosine, single thread.
    fn compute_dense_impl(schema: &DualSchema, lsi_config: LsiConfig) -> Self {
        let n = schema.len();
        let lsi_model = Self::fit_lsi(schema, lsi_config);

        let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        for p in 0..n {
            for q in (p + 1)..n {
                let lsi = Self::lsi_score(schema, &lsi_model, p, q);
                pairs.push(CandidatePair {
                    p,
                    q,
                    vsim: vsim(schema, p, q),
                    lsim: lsim(schema, p, q),
                    lsi,
                });
            }
        }
        Self {
            store: PairStore::Owned(pairs),
            len: n,
            dense_layout: true,
        }
    }

    /// The candidate-pruned, parallel pass.
    ///
    /// Per-pair work drops from two term-vector cosines plus an
    /// O(dual-count) occurrence zip to, for the typical non-candidate pair,
    /// two O(1) bit tests plus a popcount over the packed occurrence words.
    /// Rows are distributed over threads in an interleaved order so each
    /// chunk gets a mix of long (low `p`) and short (high `p`) rows, then
    /// re-assembled in row order — results are identical to the dense pass
    /// bit for bit, regardless of thread count.
    fn compute_pruned_with(
        schema: &DualSchema,
        lsi_config: LsiConfig,
        index: &CandidateIndex,
    ) -> Self {
        let n = schema.len();
        let lsi_model = Self::fit_lsi(schema, lsi_config);
        let occurrence_bits = pack_occurrence_patterns(schema);

        // Interleave rows front/back for load balance (row p has n-1-p pairs).
        let mut row_order: Vec<usize> = Vec::with_capacity(n);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            row_order.push(lo);
            lo += 1;
            if lo < hi {
                hi -= 1;
                row_order.push(hi);
            }
        }

        let mut rows: Vec<(usize, Vec<CandidatePair>)> = row_order
            .par_iter()
            .map(|&p| {
                let row: Vec<CandidatePair> = ((p + 1)..n)
                    .map(|q| {
                        let vsim = if index.value_candidate(p, q) {
                            vsim(schema, p, q)
                        } else {
                            0.0
                        };
                        let lsim = if index.link_candidate(p, q) {
                            lsim(schema, p, q)
                        } else {
                            0.0
                        };
                        let lsi = Self::lsi_score_with(schema, &lsi_model, p, q, || {
                            packed_patterns_intersect(&occurrence_bits[p], &occurrence_bits[q])
                        });
                        CandidatePair {
                            p,
                            q,
                            vsim,
                            lsim,
                            lsi,
                        }
                    })
                    .collect();
                (p, row)
            })
            .collect();
        rows.sort_by_key(|(p, _)| *p);
        // Assemble into one exactly-sized vector, freeing each row as it is
        // drained, instead of a flat_map collect that grows by reallocation
        // while every row is still live.
        let mut pairs = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)) / 2);
        for (_, row) in rows {
            pairs.extend(row);
        }
        Self {
            store: PairStore::Owned(pairs),
            len: n,
            dense_layout: true,
        }
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

    /// The paper's LSI score with its sign conventions (dense reference
    /// path; the co-occurrence test zips the boolean patterns).
    fn lsi_score(schema: &DualSchema, model: &LsiModel, p: usize, q: usize) -> f64 {
        Self::lsi_score_with(schema, model, p, q, || {
            schema.attribute(p).co_occurrences(schema.attribute(q)) > 0
        })
    }

    /// Sign-convention core shared by the dense and pruned paths.
    ///
    /// `co_occurs` — whether the two attributes ever appear in the same
    /// dual infobox — is a closure, not a bool: it is only relevant (and
    /// only evaluated) for same-language pairs, so cross-language pairs pay
    /// nothing for it in either pass. The dense path hands in the boolean
    /// zip, the pruned path the AND+popcount over packed patterns.
    pub(crate) fn lsi_score_with(
        schema: &DualSchema,
        model: &LsiModel,
        p: usize,
        q: usize,
        co_occurs: impl FnOnce() -> bool,
    ) -> f64 {
        if model.is_empty() || model.rank() == 0 {
            return 0.0;
        }
        let a = schema.attribute(p);
        let b = schema.attribute(q);
        let cosine = model.similarity(p, q);
        if a.language != b.language {
            // Cross-language pair: similar occurrence patterns indicate
            // cross-language synonymy.
            cosine.clamp(0.0, 1.0)
        } else if co_occurs() {
            // Same-language attributes that co-occur in an infobox are not
            // synonyms.
            0.0
        } else {
            // Same-language attributes that never co-occur: the *less*
            // similar their occurrence patterns, the more likely they are
            // intra-language synonyms.
            (1.0 - cosine).clamp(0.0, 1.0)
        }
    }

    /// Number of attributes the table covers.
    pub fn attribute_count(&self) -> usize {
        self.len
    }

    /// All candidate pairs (unordered, `p < q`). Touching a mapped table
    /// here (or through any other accessor) pages its channels in.
    pub fn pairs(&self) -> &[CandidatePair] {
        self.stored_pairs()
    }

    /// The candidate pair for `(p, q)` (order-insensitive). In a sparse
    /// table `None` means the pair was filtered out — no evidence, not
    /// evidence of zero.
    pub fn pair(&self, p: usize, q: usize) -> Option<&CandidatePair> {
        if p == q {
            return None;
        }
        let (lo, hi) = if p < q { (p, q) } else { (q, p) };
        let pairs = self.stored_pairs();
        if self.dense_layout {
            // Pairs are generated in lexicographic order; index arithmetic:
            // offset(lo) = lo*len - lo*(lo+1)/2, then + (hi - lo - 1).
            let offset = lo * self.len - lo * (lo + 1) / 2 + (hi - lo - 1);
            pairs.get(offset)
        } else {
            pairs
                .binary_search_by(|pair| (pair.p, pair.q).cmp(&(lo, hi)))
                .ok()
                .map(|i| &pairs[i])
        }
    }

    /// True when the table stores every unordered pair (the exact modes'
    /// layout, required by the snapshot encoder and the delta patcher).
    pub fn is_dense_layout(&self) -> bool {
        self.dense_layout
    }

    /// Candidate pairs with an LSI score above `threshold`, sorted by
    /// decreasing LSI score (deterministic tie-break by indices).
    pub fn above_lsi(&self, threshold: f64) -> Vec<CandidatePair> {
        let mut out: Vec<CandidatePair> = self
            .stored_pairs()
            .iter()
            .filter(|pair| pair.lsi > threshold)
            .copied()
            .collect();
        out.sort_by(by_decreasing_lsi);
        out
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

/// Packs every attribute's boolean occurrence pattern into `u64` words so
/// the pruned path can test co-occurrence with a handful of ANDs instead of
/// an O(dual-count) boolean zip per pair.
pub(crate) fn pack_occurrence_patterns(schema: &DualSchema) -> Vec<Vec<u64>> {
    let words = schema.dual_count.div_ceil(64);
    schema
        .attributes
        .iter()
        .map(|attr| {
            let mut packed = vec![0u64; words];
            for (j, present) in attr.occurrence_pattern.iter().enumerate() {
                if *present {
                    packed[j / 64] |= 1u64 << (j % 64);
                }
            }
            packed
        })
        .collect()
}

/// True when two packed occurrence patterns share at least one set bit —
/// exactly `AttributeStats::co_occurrences(..) > 0`, word-parallel.
pub(crate) fn packed_patterns_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
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

    /// Lays a dense table's three channels out as fixed-stride raw-bits
    /// sections (the v4 on-disk shape) and returns the region plus ranges.
    fn mapped_table_layout(
        table: &SimilarityTable,
    ) -> (Vec<u8>, Range<usize>, Range<usize>, Range<usize>) {
        let mut buf = Vec::new();
        let mut section = |field: fn(&CandidatePair) -> f64| {
            let start = buf.len();
            for pair in table.pairs() {
                buf.extend_from_slice(&field(pair).to_bits().to_le_bytes());
            }
            start..buf.len()
        };
        let lsi = section(|p| p.lsi);
        let vsim = section(|p| p.vsim);
        let lsim = section(|p| p.lsim);
        (buf, lsi, vsim, lsim)
    }

    #[test]
    fn mapped_table_matches_owned_bit_for_bit() {
        let (_, table) = schema_and_table();
        let (buf, lsi, vsim, lsim) = mapped_table_layout(&table);
        let mapped =
            SimilarityTable::from_mapped(Arc::new(buf), lsi, vsim, lsim, table.attribute_count())
                .expect("valid layout");
        assert!(mapped.is_mapped());
        // Nothing decoded until first touch.
        assert_eq!(mapped.materialized_pairs(), 0);
        assert_eq!(mapped.pairs().len(), table.pairs().len());
        assert_eq!(mapped.materialized_pairs(), table.pairs().len());
        for (a, b) in table.pairs().iter().zip(mapped.pairs()) {
            assert_eq!((a.p, a.q), (b.p, b.q));
            assert_eq!(a.vsim.to_bits(), b.vsim.to_bits());
            assert_eq!(a.lsim.to_bits(), b.lsim.to_bits());
            assert_eq!(a.lsi.to_bits(), b.lsi.to_bits());
        }
        // O(1) dense lookup works over the mapped store too.
        for pair in table.pairs() {
            let found = mapped.pair(pair.p, pair.q).unwrap();
            assert_eq!(found.lsi.to_bits(), pair.lsi.to_bits());
        }
    }

    #[test]
    fn mapped_table_rejects_broken_layouts() {
        let (_, table) = schema_and_table();
        let n = table.attribute_count();
        let (buf, lsi, vsim, lsim) = mapped_table_layout(&table);
        let region: Arc<dyn ByteRegion> = Arc::new(buf);
        // Section length does not match the pair count.
        assert!(SimilarityTable::from_mapped(
            Arc::clone(&region),
            lsi.clone(),
            vsim.clone(),
            lsim.clone(),
            n + 1
        )
        .is_none());
        // Out-of-bounds section.
        assert!(SimilarityTable::from_mapped(
            Arc::clone(&region),
            lsi.clone(),
            vsim.clone(),
            lsim.start + 8..lsim.end + 8,
            n
        )
        .is_none());
        // Misaligned (non 8-stride) section start.
        assert!(SimilarityTable::from_mapped(
            Arc::clone(&region),
            lsi.start + 4..lsi.end + 4,
            vsim,
            lsim,
            n
        )
        .is_none());
    }

    #[test]
    fn compute_defaults_to_the_pruned_mode() {
        assert_eq!(ComputeMode::default(), ComputeMode::Pruned);
        let (schema, table) = schema_and_table();
        let dense = SimilarityTable::compute_dense(&schema, LsiConfig::default());
        assert_eq!(table.pairs(), dense.pairs());
    }

    #[test]
    fn filtered_table_stores_exactly_the_at_threshold_pairs() {
        let (schema, _) = schema_and_table();
        let dense = SimilarityTable::compute_dense(&schema, LsiConfig::default());
        let total = (schema.len() * (schema.len() - 1)) as u64;
        for threshold in [0.2, 0.5, 0.9] {
            let (filtered, counts) = SimilarityTable::compute_counted(
                &schema,
                LsiConfig::default(),
                ComputeMode::filtered(threshold),
            );
            assert_eq!(counts.scored + counts.pruned, total);
            for d in dense.pairs() {
                let stored = filtered.pair(d.p, d.q);
                if d.vsim >= threshold || d.lsim >= threshold {
                    let s = stored.expect("above-threshold pair must be stored");
                    if d.vsim >= threshold {
                        assert_eq!(s.vsim.to_bits(), d.vsim.to_bits());
                    } else {
                        assert_eq!(s.vsim, 0.0);
                    }
                    if d.lsim >= threshold {
                        assert_eq!(s.lsim.to_bits(), d.lsim.to_bits());
                    } else {
                        assert_eq!(s.lsim, 0.0);
                    }
                    assert_eq!(s.lsi.to_bits(), d.lsi.to_bits());
                } else {
                    assert!(
                        stored.is_none(),
                        "sub-threshold pair ({}, {}) must be dropped",
                        d.p,
                        d.q
                    );
                }
            }
        }
    }

    #[test]
    fn packed_patterns_match_boolean_co_occurrence() {
        let (schema, _) = schema_and_table();
        let bits = pack_occurrence_patterns(&schema);
        for p in 0..schema.len() {
            for q in (p + 1)..schema.len() {
                let expected = schema.attribute(p).co_occurrences(schema.attribute(q)) > 0;
                assert_eq!(packed_patterns_intersect(&bits[p], &bits[q]), expected);
            }
        }
    }

    #[test]
    fn compute_mode_round_trips_through_serde_and_from_str() {
        for (mode, text) in [
            (ComputeMode::Pruned, "pruned"),
            (ComputeMode::Dense, "dense"),
            (ComputeMode::filtered(0.6), "filtered:0.6"),
            (ComputeMode::filtered(0.25), "filtered:0.25"),
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
        // Bare names pick the documented defaults.
        assert_eq!(
            "filtered".parse::<ComputeMode>().unwrap(),
            ComputeMode::filtered(ComputeMode::DEFAULT_FILTER_THRESHOLD)
        );
        // Invalid parameters are rejected, never constructed.
        for bad in [
            "filtered:0",
            "filtered:-0.5",
            "filtered:1.5",
            "filtered:nan",
            "filtered:inf",
            "filtered:",
            "filteredx",
            "lsh",
            "lsh:16x4",
        ] {
            assert!(
                bad.parse::<ComputeMode>().is_err(),
                "{bad} should not parse"
            );
        }
        // Exactness classification: the sparse modes are not oracles.
        assert!(ComputeMode::Pruned.is_exact());
        assert!(ComputeMode::Dense.is_exact());
        assert!(!ComputeMode::filtered(0.6).is_exact());
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
        let pairs: Vec<CandidatePair> = scores
            .iter()
            .map(|&((p, q), lsi)| CandidatePair {
                p,
                q,
                vsim: 0.0,
                lsim: 0.0,
                lsi,
            })
            .collect();
        let table = SimilarityTable::from_raw_parts(pairs, 4);
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
