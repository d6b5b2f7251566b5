//! Sparse term-frequency vectors and cosine similarity.
//!
//! The paper's `vsim` and `lsim` measures are cosines between raw frequency
//! vectors (Section 3.2): value vectors are built from the value atoms
//! observed for an attribute across all infoboxes of a type, link-structure
//! vectors from the articles those values link to. [`TermVector`] is the
//! shared representation for both.
//!
//! ## Representation
//!
//! A [`TermVector`] stores an id-sorted `Vec` of **`(u32 term id, f64
//! weight)`** pairs resolved against a shared [`TermArena`]. Because arena
//! ids are assigned in lexicographic term order (the invariant documented in
//! [`crate::arena`]), id order *is* term order: every pairwise operation —
//! [`dot`](TermVector::dot), [`cosine`](TermVector::cosine),
//! [`jaccard`](TermVector::jaccard),
//! [`overlap_coefficient`](TermVector::overlap_coefficient),
//! [`merge`](TermVector::merge) — remains a single **O(n + m) merge walk**
//! visiting terms in exactly the order the previous string-keyed
//! representation did, so all derived floats accumulate in the same order
//! and come out bit-identical. When both vectors share one arena (the case
//! for every vector of a prepared schema) each merge step compares two
//! `u32`s instead of two strings — the hottest comparison of the similarity
//! pipeline becomes an integer compare, and cloning a vector no longer
//! re-allocates its terms.
//!
//! Vectors built ad hoc ([`from_terms`](TermVector::from_terms), the string
//! [`add`](TermVector::add) API) carry a private arena holding just their
//! own terms; pairwise operations between vectors of *different* arenas
//! transparently fall back to comparing the resolved terms — the exact walk
//! (and therefore the exact results) of the string-keyed representation.
//! Bulk construction should go through [`TermVectorBuilder`], which
//! accumulates unsorted and sorts once instead of paying `add`'s ordered
//! insert per term.
//!
//! ## Owned vs mapped entries
//!
//! A vector normally owns its entry list. It can instead *borrow* its id
//! and weight streams from an externally-owned [`ByteRegion`]
//! ([`TermVector::from_mapped`]) — the storage mode mapped snapshots use.
//! A mapped vector holds only two byte ranges until something actually
//! reads its entries; the first read materializes the `(id, weight)` list
//! into a once-cell (reporting the page-in through
//! [`ByteRegion::note_page_in`]) and every later read hits that cache.
//! Ids are validated strictly increasing and in-arena at construction, so
//! materialization is infallible and the result is entry-for-entry
//! bit-identical to an owned decode of the same streams.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize, Value};

use crate::arena::TermArena;
use crate::region::ByteRegion;

/// A sparse vector keyed by interned term id, storing raw frequencies
/// (`tf`) resolved against a shared [`TermArena`].
///
/// Entries are kept sorted by id — equivalently by term, thanks to the
/// arena's lexicographic id order — so iteration order (and therefore all
/// derived results) is deterministic and pairwise operations run as linear
/// merge walks instead of per-term lookups.
#[derive(Debug, Clone)]
pub struct TermVector {
    /// The vocabulary the ids below resolve against.
    arena: Arc<TermArena>,
    /// `(term id, weight)` entries sorted by id, one entry per distinct
    /// term — heap-owned or lazily materialized out of a byte region.
    store: EntryStore,
}

/// Backing storage of a vector's entry list.
#[derive(Debug, Clone)]
enum EntryStore {
    /// Heap-owned entries.
    Owned(Vec<(u32, f64)>),
    /// Entries borrowed from a byte region: `ids` is `len` little-endian
    /// `u32`s, `weights` is `len` little-endian `u64`s carrying `f64` bits.
    /// `cache` materializes on first read (the page-in event).
    Mapped {
        region: Arc<dyn ByteRegion>,
        ids: Range<usize>,
        weights: Range<usize>,
        len: usize,
        cache: OnceLock<Vec<(u32, f64)>>,
    },
}

impl EntryStore {
    /// Decodes the `(id, weight)` list out of a mapped store's streams.
    fn decode_mapped(
        region: &dyn ByteRegion,
        ids: &Range<usize>,
        weights: &Range<usize>,
        len: usize,
    ) -> Vec<(u32, f64)> {
        let data = region.bytes();
        (0..len)
            .map(|i| {
                let id_at = ids.start + i * 4;
                let w_at = weights.start + i * 8;
                let id =
                    u32::from_le_bytes(data[id_at..id_at + 4].try_into().expect("4-byte slice"));
                let w = f64::from_bits(u64::from_le_bytes(
                    data[w_at..w_at + 8].try_into().expect("8-byte slice"),
                ));
                (id, w)
            })
            .collect()
    }
}

impl Default for TermVector {
    fn default() -> Self {
        Self {
            arena: TermArena::empty(),
            store: EntryStore::Owned(Vec::new()),
        }
    }
}

impl PartialEq for TermVector {
    /// Term-wise equality: two vectors are equal when they hold the same
    /// `(term, weight)` entries, regardless of which arena backs them.
    fn eq(&self, other: &Self) -> bool {
        let (xs, ys) = (self.entries(), other.entries());
        if xs.len() != ys.len() {
            return false;
        }
        if Arc::ptr_eq(&self.arena, &other.arena) {
            return xs == ys;
        }
        xs.iter()
            .zip(ys)
            .all(|(a, b)| a.1 == b.1 && self.arena.resolve(a.0) == other.arena.resolve(b.0))
    }
}

impl TermVector {
    /// Creates an empty vector (backed by the shared empty arena).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vector bound to a shared arena; subsequent
    /// [`add`](Self::add)s of terms the arena knows stay on it, keeping the
    /// vector on the fast same-arena comparison path.
    pub fn in_arena(arena: Arc<TermArena>) -> Self {
        Self {
            arena,
            store: EntryStore::Owned(Vec::new()),
        }
    }

    /// The entry slice, materializing a mapped store on first touch.
    ///
    /// Every read path funnels through here, so a mapped vector pays its
    /// decode exactly once (the page-in, reported to the region) and is
    /// indistinguishable from an owned vector afterwards.
    #[inline]
    fn entries(&self) -> &[(u32, f64)] {
        match &self.store {
            EntryStore::Owned(entries) => entries,
            EntryStore::Mapped {
                region,
                ids,
                weights,
                len,
                cache,
            } => cache.get_or_init(|| {
                region.note_page_in(ids.len() + weights.len());
                EntryStore::decode_mapped(region.as_ref(), ids, weights, *len)
            }),
        }
    }

    /// The entry list for mutation; a mapped store converts to owned first
    /// (mutation can never touch the region).
    fn entries_mut(&mut self) -> &mut Vec<(u32, f64)> {
        if let EntryStore::Mapped { .. } = self.store {
            let owned = self.entries().to_vec();
            self.store = EntryStore::Owned(owned);
        }
        match &mut self.store {
            EntryStore::Owned(entries) => entries,
            EntryStore::Mapped { .. } => unreachable!("mapped store converted above"),
        }
    }

    /// Rebuilds a vector whose entry streams live in `region`: `ids` is the
    /// byte range of `len` little-endian `u32` term ids, `weights` the byte
    /// range of `len` little-endian `u64`s carrying the raw `f64` weight
    /// bits. Returns `None` unless the ranges are in bounds and exactly
    /// sized and the ids are strictly increasing within `arena` — the same
    /// invariant [`from_ids`](Self::from_ids) checks, validated here once
    /// so the lazy materialization is infallible. No entry is decoded until
    /// the first read.
    pub fn from_mapped(
        arena: Arc<TermArena>,
        region: Arc<dyn ByteRegion>,
        ids: Range<usize>,
        weights: Range<usize>,
        len: usize,
    ) -> Option<Self> {
        let data = region.bytes();
        if ids.start > ids.end || ids.end > data.len() {
            return None;
        }
        if weights.start > weights.end || weights.end > data.len() {
            return None;
        }
        if ids.len() != len.checked_mul(4)? || weights.len() != len.checked_mul(8)? {
            return None;
        }
        let id_at = |i: usize| -> u32 {
            let at = ids.start + i * 4;
            u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
        };
        let mut prev: Option<u32> = None;
        for i in 0..len {
            let id = id_at(i);
            if prev.is_some_and(|p| p >= id) || id as usize >= arena.len() {
                return None;
            }
            prev = Some(id);
        }
        Some(Self {
            arena,
            store: EntryStore::Mapped {
                region,
                ids,
                weights,
                len,
                cache: OnceLock::new(),
            },
        })
    }

    /// True when the entry list is heap-resident: always for an owned
    /// vector, and for a mapped vector once something read it. The
    /// out-of-core accounting uses this to split resident from
    /// merely-mapped bytes.
    pub fn is_materialized(&self) -> bool {
        match &self.store {
            EntryStore::Owned(_) => true,
            EntryStore::Mapped { cache, .. } => cache.get().is_some(),
        }
    }

    /// Builds a vector from an iterator of terms, counting occurrences.
    ///
    /// Sorts the terms once and accumulates runs — O(k log k) for k terms,
    /// instead of k ordered insertions. The resulting vector carries a
    /// private arena holding exactly its own terms.
    pub fn from_terms<I, S>(terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut builder = TermVectorBuilder::new();
        for term in terms {
            builder.push(term, 1.0);
        }
        builder.finish()
    }

    /// Builds a vector from interned term-id occurrences (each weighing
    /// exactly 1.0): sort once, then collapse runs by accumulating `+= 1.0`
    /// per occurrence — the id-space analogue of
    /// [`from_terms`](Self::from_terms), and the exact float operations (in
    /// the exact term order) of a string-keyed incremental `add` loop. This
    /// is the bulk-construction path schema builders use after freezing a
    /// shared arena.
    pub fn from_id_occurrences(arena: Arc<TermArena>, mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        debug_assert!(ids
            .last()
            .map(|&id| (id as usize) < arena.len())
            .unwrap_or(true));
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for id in ids {
            match entries.last_mut() {
                Some((last, weight)) if *last == id => *weight += 1.0,
                _ => entries.push((id, 1.0)),
            }
        }
        Self {
            arena,
            store: EntryStore::Owned(entries),
        }
    }

    /// Rebuilds a vector from `(term, weight)` entries that are **already
    /// strictly sorted** by term (no duplicates), e.g. the output of
    /// [`iter`](Self::iter) captured by a persistence layer. Returns `None`
    /// when the entries are out of order or contain a duplicate term — the
    /// invariant every pairwise operation depends on.
    ///
    /// Weights are taken verbatim (no zero-filtering), so a round trip
    /// through `iter` → `from_sorted_entries` reproduces the vector exactly,
    /// bit for bit.
    pub fn from_sorted_entries(entries: Vec<(String, f64)>) -> Option<Self> {
        let mut arena_terms = Vec::with_capacity(entries.len());
        let mut ids = Vec::with_capacity(entries.len());
        for (i, (term, weight)) in entries.into_iter().enumerate() {
            ids.push((i as u32, weight));
            arena_terms.push(term);
        }
        let arena = TermArena::from_sorted_terms(arena_terms)?;
        Some(Self {
            arena: Arc::new(arena),
            store: EntryStore::Owned(ids),
        })
    }

    /// Rebuilds a vector from id-keyed entries resolved against `arena`.
    /// Returns `None` unless the ids are strictly increasing (the sorted,
    /// duplicate-free invariant) and all within the arena — the validation
    /// the snapshot layer relies on when decoding persisted id streams.
    pub fn from_ids(arena: Arc<TermArena>, entries: Vec<(u32, f64)>) -> Option<Self> {
        if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
            return None;
        }
        if entries
            .last()
            .is_some_and(|(id, _)| *id as usize >= arena.len())
        {
            return None;
        }
        Some(Self {
            arena,
            store: EntryStore::Owned(entries),
        })
    }

    /// The arena this vector's ids resolve against.
    pub fn arena(&self) -> &Arc<TermArena> {
        &self.arena
    }

    /// Migrates the vector onto an extended arena through the **monotone**
    /// old → new id remap produced by [`TermArena::extended_with`] on this
    /// vector's arena: every entry id is mapped, weights are taken verbatim
    /// (bit for bit), and because the remap is strictly increasing the
    /// entries stay sorted without re-sorting — so the migrated vector
    /// produces exactly the same merge walks and float accumulations as the
    /// original.
    pub fn remapped(&self, arena: Arc<TermArena>, remap: &[u32]) -> TermVector {
        let entries: Vec<(u32, f64)> = self
            .entries()
            .iter()
            .map(|&(id, w)| (remap[id as usize], w))
            .collect();
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(entries
            .last()
            .map(|&(id, _)| (id as usize) < arena.len())
            .unwrap_or(true));
        Self {
            arena,
            store: EntryStore::Owned(entries),
        }
    }

    /// The raw `(term id, weight)` entries in ascending id order
    /// (materializing a mapped vector on first call).
    pub fn id_entries(&self) -> &[(u32, f64)] {
        self.entries()
    }

    /// Adds `weight` occurrences of `term`.
    ///
    /// When the term is already in the vector's arena this is a binary
    /// search plus (at worst) an ordered insert, exactly as before. A term
    /// the arena has never seen extends the arena copy-on-write — O(arena)
    /// when it happens; bulk callers should use [`TermVectorBuilder`] or
    /// [`from_terms`](Self::from_terms) instead of repeated `add`s.
    pub fn add<S: Into<String>>(&mut self, term: S, weight: f64) {
        if weight == 0.0 {
            return;
        }
        let term = term.into();
        if let Some(id) = self.arena.intern(&term) {
            let entries = self.entries_mut();
            match entries.binary_search_by_key(&id, |(i, _)| *i) {
                Ok(i) => entries[i].1 += weight,
                Err(i) => entries.insert(i, (id, weight)),
            }
            return;
        }
        // New term: extend the arena (cloning it first when shared) and
        // shift the ids at or after the insertion point.
        let arena = Arc::make_mut(&mut self.arena);
        let (id, inserted) = arena.insert(term);
        debug_assert!(inserted, "intern() above said the term was absent");
        let entries = self.entries_mut();
        for (entry_id, _) in entries.iter_mut() {
            if *entry_id >= id {
                *entry_id += 1;
            }
        }
        let at = entries.binary_search_by_key(&id, |(i, _)| *i).unwrap_err();
        entries.insert(at, (id, weight));
    }

    /// Merges another vector into this one (component-wise sum), as an
    /// O(n + m) merge walk over the two sorted entry lists.
    pub fn merge(&mut self, other: &TermVector) {
        if other.is_empty() {
            return;
        }
        if Arc::ptr_eq(&self.arena, &other.arena) {
            let mut merged = Vec::with_capacity(self.len() + other.len());
            merge_join(self, other, |step| match step {
                MergeStep::Left(a) => merged.push(*a),
                // A zero-weight entry never creates a new term (matching the
                // `add` semantics this walk replaces).
                MergeStep::Right(b) => {
                    if b.1 != 0.0 {
                        merged.push(*b);
                    }
                }
                MergeStep::Both((ia, wa), (_, wb)) => {
                    let sum = if *wb == 0.0 { *wa } else { *wa + *wb };
                    merged.push((*ia, sum));
                }
            });
            self.store = EntryStore::Owned(merged);
            return;
        }
        // Different arenas: walk the resolved terms (same order, same float
        // operations) and rebuild on a fresh union arena.
        let mut merged: Vec<(String, f64)> = Vec::with_capacity(self.len() + other.len());
        merge_join(self, other, |step| match step {
            MergeStep::Left((id, w)) => merged.push((self.arena.resolve(*id).to_string(), *w)),
            MergeStep::Right((id, w)) => {
                if *w != 0.0 {
                    merged.push((other.arena.resolve(*id).to_string(), *w));
                }
            }
            MergeStep::Both((ia, wa), (_, wb)) => {
                let sum = if *wb == 0.0 { *wa } else { *wa + *wb };
                merged.push((self.arena.resolve(*ia).to_string(), sum));
            }
        });
        *self = Self::from_sorted_entries(merged)
            .expect("merge walk emits terms in strictly ascending order");
    }

    /// Frequency of a term (0.0 when absent).
    pub fn get(&self, term: &str) -> f64 {
        self.arena
            .intern(term)
            .and_then(|id| {
                let entries = self.entries();
                entries
                    .binary_search_by_key(&id, |(i, _)| *i)
                    .ok()
                    .map(|i| entries[i].1)
            })
            .unwrap_or(0.0)
    }

    /// Number of distinct terms (without materializing a mapped store —
    /// the length is part of the layout).
    pub fn len(&self) -> usize {
        match &self.store {
            EntryStore::Owned(entries) => entries.len(),
            EntryStore::Mapped { len, .. } => *len,
        }
    }

    /// True when the vector has no terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all frequencies.
    pub fn total(&self) -> f64 {
        self.entries().iter().map(|(_, w)| w).sum()
    }

    /// Iterates over `(term, frequency)` pairs in term order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.entries()
            .iter()
            .map(|(id, w)| (self.arena.resolve(*id), *w))
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.entries()
            .iter()
            .map(|(_, w)| w * w)
            .sum::<f64>()
            .sqrt()
    }

    /// Dot product with another vector, computed as an O(n + m) merge walk
    /// over the two sorted entry lists.
    ///
    /// Same-arena vectors take the chunked u32-id kernel
    /// (`dot_id_entries`), which skips disjoint 8-id blocks with one
    /// comparison instead of stepping entry by entry; cross-arena vectors
    /// fall back to the resolved-string merge. Both accumulate matching
    /// products in ascending shared-term order, so the results are
    /// bit-identical to each other and to the pre-kernel implementation.
    pub fn dot(&self, other: &TermVector) -> f64 {
        if Arc::ptr_eq(&self.arena, &other.arena) {
            return dot_id_entries(self.entries(), other.entries());
        }
        let mut sum = 0.0;
        merge_join(self, other, |step| {
            if let MergeStep::Both((_, wa), (_, wb)) = step {
                sum += wa * wb;
            }
        });
        sum
    }

    /// Cosine similarity with another vector; 0.0 when either is empty.
    ///
    /// ```
    /// use wiki_text::TermVector;
    /// let a = TermVector::from_terms(["ireland", "1963", "united states"]);
    /// let b = TermVector::from_terms(["ireland", "1963", "france"]);
    /// let c = a.cosine(&b);
    /// assert!(c > 0.6 && c < 0.7);
    /// ```
    pub fn cosine(&self, other: &TermVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// Calls `f` once per distinct term **id** of the union of the two
    /// vectors' term sets, in ascending id order (an O(n + m) merge walk).
    /// Both vectors must share one arena.
    ///
    /// This is the term-set primitive inverted-index builders need (e.g.
    /// the candidate generator in `wikimatch`, which keys its postings by
    /// id): it lives here, next to the sorted-entries invariant it depends
    /// on, so out-of-crate callers never hand-roll their own walk over the
    /// representation.
    ///
    /// # Panics
    /// Panics when the vectors are backed by different arenas (their ids
    /// would not be comparable).
    pub fn union_ids(&self, other: &TermVector, mut f: impl FnMut(u32)) {
        assert!(
            Arc::ptr_eq(&self.arena, &other.arena),
            "union_ids requires both vectors on one arena"
        );
        merge_join(self, other, |step| match step {
            MergeStep::Left((id, _)) | MergeStep::Right((id, _)) | MergeStep::Both((id, _), _) => {
                f(*id)
            }
        });
    }

    /// Number of terms present in both vectors (an O(n + m) merge walk).
    fn intersection_size(&self, other: &TermVector) -> usize {
        let mut count = 0;
        merge_join(self, other, |step| {
            if let MergeStep::Both(..) = step {
                count += 1;
            }
        });
        count
    }

    /// Jaccard overlap of the term *sets* (ignores frequencies).
    pub fn jaccard(&self, other: &TermVector) -> f64 {
        if self.is_empty() && other.is_empty() {
            return 0.0;
        }
        let intersection = self.intersection_size(other) as f64;
        let union = (self.len() + other.len()) as f64 - intersection;
        if union == 0.0 {
            0.0
        } else {
            intersection / union
        }
    }

    /// Overlap (Szymkiewicz–Simpson) coefficient of the term sets:
    /// `|A ∩ B| / min(|A|, |B|)`. Unlike Jaccard it is not penalised when
    /// one attribute is much more frequent than the other, which is the
    /// right behaviour for per-infobox value-equality matching.
    pub fn overlap_coefficient(&self, other: &TermVector) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        let intersection = self.intersection_size(other) as f64;
        intersection / self.len().min(other.len()) as f64
    }

    /// Applies a term-rewriting function, merging rewritten terms.
    ///
    /// Used to translate a value vector through the bilingual dictionary
    /// before computing `vsim`: terms found in the dictionary are replaced by
    /// their translation, others are kept as-is. Rewritten terms that
    /// collide accumulate in source-term order, exactly as the previous
    /// incremental-`add` implementation did.
    pub fn map_terms<F>(&self, mut f: F) -> TermVector
    where
        F: FnMut(&str) -> Option<String>,
    {
        let mut builder = TermVectorBuilder::with_capacity(self.len());
        for (id, w) in self.entries() {
            let term = self.arena.resolve(*id);
            match f(term) {
                Some(new_term) => builder.push(new_term, *w),
                None => builder.push(term, *w),
            }
        }
        builder.finish()
    }

    /// Returns the `k` most frequent terms (ties broken by term order).
    pub fn top_terms(&self, k: usize) -> Vec<(&str, f64)> {
        let mut entries: Vec<(u32, f64)> = self.entries().to_vec();
        // `total_cmp` (not `partial_cmp`) so the ranking is a total order
        // even for pathological weights, with the term as a stable
        // tie-break — id order is term order within one arena.
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(k);
        entries
            .into_iter()
            .map(|(id, w)| (self.arena.resolve(id), w))
            .collect()
    }
}

/// Accumulates `(term, weight)` pairs in any order and sorts **once** on
/// [`finish`](Self::finish) — the bulk-construction companion to
/// [`TermVector::add`], which pays a binary search plus an ordered insert
/// (O(n) worst case) per call.
///
/// `finish` reproduces the incremental-`add` semantics bit for bit:
/// zero weights never create an entry, and weights of colliding terms
/// accumulate in push order (the sort is stable).
#[derive(Debug, Default)]
pub struct TermVectorBuilder {
    entries: Vec<(String, f64)>,
}

impl TermVectorBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with room for `capacity` pushes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Records `weight` occurrences of `term` (zero weights are dropped,
    /// matching [`TermVector::add`]).
    pub fn push(&mut self, term: impl Into<String>, weight: f64) {
        if weight == 0.0 {
            return;
        }
        self.entries.push((term.into(), weight));
    }

    /// Number of recorded pushes (not distinct terms).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorts, deduplicates and freezes the accumulated entries into a
    /// vector.
    pub fn finish(mut self) -> TermVector {
        // Stable sort: weights of equal terms accumulate in push order, the
        // same order an incremental `add` loop would have applied them.
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut arena_terms: Vec<String> = Vec::new();
        let mut entries: Vec<(u32, f64)> = Vec::new();
        for (term, weight) in self.entries {
            match (arena_terms.last(), entries.last_mut()) {
                (Some(t), Some((_, w))) if *t == term => *w += weight,
                _ => {
                    entries.push((arena_terms.len() as u32, weight));
                    arena_terms.push(term);
                }
            }
        }
        let arena = TermArena::from_sorted_terms(arena_terms)
            .expect("sorted deduplicated terms satisfy the arena invariant");
        TermVector {
            arena: Arc::new(arena),
            store: EntryStore::Owned(entries),
        }
    }
}

/// One step of a [`merge_join`] walk over two id-sorted entry lists.
enum MergeStep<'a> {
    /// The entry's term occurs only in the left vector.
    Left(&'a (u32, f64)),
    /// The entry's term occurs only in the right vector.
    Right(&'a (u32, f64)),
    /// The term occurs in both vectors; both entries are handed over.
    Both(&'a (u32, f64), &'a (u32, f64)),
}

/// Two-pointer merge join over two term vectors, calling `f` once per
/// distinct term in ascending term order.
///
/// When the vectors share one arena each step compares two `u32` ids — the
/// fast path every prepared-schema operation takes. Otherwise the resolved
/// terms are compared, which visits entries in exactly the same order (id
/// order is term order within each arena), so both paths produce identical
/// results. Every pairwise [`TermVector`] operation (`dot`, `merge`,
/// `union_ids`, the intersection behind `jaccard`/`overlap_coefficient`)
/// instantiates this single walk, so the sorted-entries invariant has
/// exactly one consumer to update if the representation ever changes.
fn merge_join<'a>(a: &'a TermVector, b: &'a TermVector, mut f: impl FnMut(MergeStep<'a>)) {
    let (xs, ys) = (a.entries(), b.entries());
    let (mut i, mut j) = (0, 0);
    if Arc::ptr_eq(&a.arena, &b.arena) {
        while i < xs.len() && j < ys.len() {
            match xs[i].0.cmp(&ys[j].0) {
                std::cmp::Ordering::Less => {
                    f(MergeStep::Left(&xs[i]));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    f(MergeStep::Right(&ys[j]));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    f(MergeStep::Both(&xs[i], &ys[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
    } else {
        while i < xs.len() && j < ys.len() {
            match a.arena.resolve(xs[i].0).cmp(b.arena.resolve(ys[j].0)) {
                std::cmp::Ordering::Less => {
                    f(MergeStep::Left(&xs[i]));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    f(MergeStep::Right(&ys[j]));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    f(MergeStep::Both(&xs[i], &ys[j]));
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    for entry in &xs[i..] {
        f(MergeStep::Left(entry));
    }
    for entry in &ys[j..] {
        f(MergeStep::Right(entry));
    }
}

/// How many ids the chunked dot kernel skips per block comparison. Eight
/// `(u32, f64)` entries span two cache lines — big enough that one
/// comparison replaces eight per-entry steps through a disjoint region,
/// small enough that the trailing per-entry walk stays short.
const DOT_CHUNK: usize = 8;

/// Chunked u32-id dot-product kernel over two id-sorted entry slices of
/// **one** arena.
///
/// A plain two-pointer merge spends one branch per entry even when the
/// vectors barely overlap — the common case for similarity tables, where
/// most compared attributes share a handful of terms out of hundreds.
/// This walk first checks whole [`DOT_CHUNK`]-id blocks: if the last id of
/// the current block on one side is still below the other side's current
/// id, the whole block provably contains no match and is skipped with a
/// single comparison. Matching products accumulate in ascending id order —
/// the exact float-addition order of the entry-by-entry merge — so the
/// result is bit-identical to [`merge_join`]'s `Both` sum.
fn dot_id_entries(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
    let mut sum = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if i + DOT_CHUNK <= a.len() && a[i + DOT_CHUNK - 1].0 < b[j].0 {
            i += DOT_CHUNK;
            continue;
        }
        if j + DOT_CHUNK <= b.len() && b[j + DOT_CHUNK - 1].0 < a[i].0 {
            j += DOT_CHUNK;
            continue;
        }
        let (ia, wa) = a[i];
        let (ib, wb) = b[j];
        match ia.cmp(&ib) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += wa * wb;
                i += 1;
                j += 1;
            }
        }
    }
    sum
}

impl<S: Into<String>> FromIterator<S> for TermVector {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        TermVector::from_terms(iter)
    }
}

impl Serialize for TermVector {
    /// Serializes as `{"entries": [[term, weight], ...]}` — the shape the
    /// previous string-keyed derive produced, so persisted values remain
    /// readable.
    fn serialize_value(&self) -> Value {
        let entries: Vec<Value> = self
            .iter()
            .map(|(t, w)| Value::Array(vec![Value::Str(t.to_string()), Value::Float(w)]))
            .collect();
        Value::Object(vec![("entries".to_string(), Value::Array(entries))])
    }
}

impl Deserialize for TermVector {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .get_field("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| serde::Error::custom("TermVector: missing entries array"))?;
        let mut decoded = Vec::with_capacity(entries.len());
        for entry in entries {
            let pair = entry
                .as_array()
                .filter(|items| items.len() == 2)
                .ok_or_else(|| serde::Error::custom("TermVector: entry is not a [term, weight]"))?;
            let term = pair[0]
                .as_str()
                .ok_or_else(|| serde::Error::custom("TermVector: term is not a string"))?;
            let weight = f64::deserialize_value(&pair[1])?;
            decoded.push((term.to_string(), weight));
        }
        TermVector::from_sorted_entries(decoded)
            .ok_or_else(|| serde::Error::custom("TermVector: entries out of term order"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let v = TermVector::from_terms(["a", "b", "a", "a"]);
        assert_eq!(v.get("a"), 3.0);
        assert_eq!(v.get("b"), 1.0);
        assert_eq!(v.get("c"), 0.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.total(), 4.0);
    }

    #[test]
    fn entries_stay_sorted_under_mixed_insertions() {
        let mut v = TermVector::new();
        for t in ["zebra", "apple", "mango", "apple", "banana", "zebra"] {
            v.add(t, 1.0);
        }
        let terms: Vec<&str> = v.iter().map(|(t, _)| t).collect();
        assert_eq!(terms, vec!["apple", "banana", "mango", "zebra"]);
        assert_eq!(v.get("apple"), 2.0);
        assert_eq!(v.get("zebra"), 2.0);
        // Ids are strictly increasing (the arena invariant).
        assert!(v.id_entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn add_into_a_shared_arena_copies_on_write() {
        let a = TermVector::from_terms(["apple", "mango"]);
        let mut b = a.clone();
        // Same arena after the cheap clone.
        assert!(Arc::ptr_eq(a.arena(), b.arena()));
        b.add("banana", 1.0);
        // The clone grew its own arena; the original is untouched.
        assert!(!Arc::ptr_eq(a.arena(), b.arena()));
        assert_eq!(a.get("banana"), 0.0);
        assert_eq!(b.get("banana"), 1.0);
        assert_eq!(b.get("mango"), 1.0);
        let terms: Vec<&str> = b.iter().map(|(t, _)| t).collect();
        assert_eq!(terms, vec!["apple", "banana", "mango"]);
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let v = TermVector::from_terms(["x", "y", "z", "x"]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let a = TermVector::from_terms(["a", "b"]);
        let b = TermVector::from_terms(["c", "d"]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_with_empty_vector_is_zero() {
        let a = TermVector::from_terms(["a"]);
        let b = TermVector::new();
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(b.cosine(&b), 0.0);
    }

    #[test]
    fn dot_matches_lookup_based_reference() {
        let a = TermVector::from_terms(["a", "b", "b", "d", "e"]);
        let b = TermVector::from_terms(["b", "c", "d", "d", "f"]);
        // Reference: per-term lookups, the pre-merge-walk implementation.
        let reference: f64 = a.iter().map(|(t, w)| w * b.get(t)).sum();
        assert_eq!(a.dot(&b), reference);
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn chunked_dot_kernel_is_bit_identical_to_the_entry_merge() {
        // Long, mostly disjoint vectors with scattered matches, plus
        // skewed lengths — every chunk-skip branch fires, and short tails
        // (< DOT_CHUNK) exercise the per-entry fallback.
        let long: Vec<String> = (0..200).map(|i| format!("t{:04}", i * 3)).collect();
        let sparse: Vec<String> = (0..40).map(|i| format!("t{:04}", i * 17)).collect();
        // One arena over the union, so `add` never copy-on-writes a vector
        // onto a private arena mid-fixture.
        let anchor = TermVector::from_terms(long.iter().chain(sparse.iter()).map(String::as_str));
        for (xs, ys) in [(&long, &sparse), (&sparse, &long), (&long, &long)] {
            let mut a = TermVector::in_arena(Arc::clone(anchor.arena()));
            for (k, t) in xs.iter().enumerate() {
                a.add(t, 1.0 + k as f64 * 0.5);
            }
            let mut b = TermVector::in_arena(Arc::clone(anchor.arena()));
            for (k, t) in ys.iter().enumerate() {
                b.add(t, 1.0 + k as f64 * 0.25);
            }
            assert!(Arc::ptr_eq(a.arena(), b.arena()));
            // Reference: the merge-walk sum in the same ascending order.
            let mut reference = 0.0;
            merge_join(&a, &b, |step| {
                if let MergeStep::Both((_, wa), (_, wb)) = step {
                    reference += wa * wb;
                }
            });
            assert!(reference > 0.0, "fixture must actually intersect");
            assert_eq!(a.dot(&b).to_bits(), reference.to_bits());
            assert_eq!(b.dot(&a).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn cross_arena_operations_match_shared_arena_results() {
        // The same logical vectors once on a shared arena, once on private
        // per-vector arenas: every pairwise operation must agree bit for
        // bit.
        let shared_a = TermVector::from_terms(["a", "b", "b", "d"]);
        let shared_b_on_a: TermVector = {
            // Rebuild b's terms *inside* a's arena via add (all terms of b
            // that a knows stay on a's arena when possible).
            let mut v = TermVector::in_arena(Arc::clone(shared_a.arena()));
            v.add("b", 1.0);
            v.add("d", 2.0);
            v
        };
        let private_b = {
            let mut v = TermVector::new();
            v.add("b", 1.0);
            v.add("d", 2.0);
            v
        };
        assert!(Arc::ptr_eq(shared_a.arena(), shared_b_on_a.arena()));
        assert!(!Arc::ptr_eq(shared_a.arena(), private_b.arena()));
        assert_eq!(shared_b_on_a, private_b);
        assert_eq!(
            shared_a.dot(&shared_b_on_a).to_bits(),
            shared_a.dot(&private_b).to_bits()
        );
        assert_eq!(
            shared_a.cosine(&shared_b_on_a).to_bits(),
            shared_a.cosine(&private_b).to_bits()
        );
        assert_eq!(
            shared_a.jaccard(&shared_b_on_a),
            shared_a.jaccard(&private_b)
        );
    }

    #[test]
    fn paper_example_one_translation_raises_similarity() {
        // Example 1 of the paper: nascimento vs born after dictionary
        // translation should have cosine ≈ 0.71-0.75.
        let mut va_t = TermVector::new();
        va_t.add("1963", 1.0);
        va_t.add("ireland", 1.0);
        va_t.add("december 18 1950", 1.0);
        va_t.add("united states", 1.0);
        let mut vb = TermVector::new();
        vb.add("1963", 1.0);
        vb.add("ireland", 1.0);
        vb.add("june 4 1975", 1.0);
        vb.add("united states", 2.0);
        let sim = va_t.cosine(&vb);
        assert!(sim > 0.65 && sim < 0.80, "sim = {sim}");
    }

    #[test]
    fn merge_and_map_terms() {
        let mut a = TermVector::from_terms(["estados unidos", "irlanda"]);
        let b = TermVector::from_terms(["estados unidos"]);
        a.merge(&b);
        assert_eq!(a.get("estados unidos"), 2.0);

        let translated = a.map_terms(|t| match t {
            "estados unidos" => Some("united states".to_string()),
            "irlanda" => Some("ireland".to_string()),
            _ => None,
        });
        assert_eq!(translated.get("united states"), 2.0);
        assert_eq!(translated.get("ireland"), 1.0);
        assert_eq!(translated.get("estados unidos"), 0.0);
    }

    #[test]
    fn merge_within_one_arena_stays_on_it() {
        let a = TermVector::from_terms(["a", "b", "c"]);
        let mut x = a.clone();
        let y = {
            let mut v = TermVector::in_arena(Arc::clone(a.arena()));
            v.add("b", 2.0);
            v
        };
        x.merge(&y);
        assert!(Arc::ptr_eq(x.arena(), a.arena()));
        assert_eq!(x.get("b"), 3.0);
    }

    #[test]
    fn union_ids_matches_union_terms_on_a_shared_arena() {
        let mut builder = crate::TermArenaBuilder::new();
        for term in ["a", "b", "c", "d"] {
            builder.intern(term);
        }
        let (arena, _) = builder.freeze();
        let a =
            TermVector::from_ids(Arc::clone(&arena), vec![(0, 1.0), (1, 2.0), (3, 1.0)]).unwrap();
        let b = TermVector::from_ids(arena, vec![(1, 1.0), (2, 1.0), (3, 3.0)]).unwrap();
        // The reference: a plain merge of the two vectors' id entries.
        let ids = |v: &TermVector| v.id_entries().iter().map(|(id, _)| *id).collect::<Vec<_>>();
        let mut merged = ids(&a);
        merged.extend(ids(&b));
        merged.sort_unstable();
        merged.dedup();
        let mut by_id = Vec::new();
        a.union_ids(&b, |id| by_id.push(id));
        assert_eq!(by_id, merged);
        let terms: Vec<&str> = by_id.iter().map(|&id| a.arena().resolve(id)).collect();
        assert_eq!(terms, vec!["a", "b", "c", "d"]);
        // An empty side contributes nothing.
        let mut left_only = Vec::new();
        a.union_ids(&TermVector::in_arena(Arc::clone(a.arena())), |id| {
            left_only.push(id)
        });
        assert_eq!(left_only, ids(&a));
    }

    #[test]
    #[should_panic(expected = "union_ids requires both vectors on one arena")]
    fn union_ids_rejects_mixed_arenas() {
        let a = TermVector::from_terms(["a"]);
        let b = TermVector::from_terms(["a"]);
        a.union_ids(&b, |_| {});
    }

    #[test]
    fn remapped_vectors_are_bit_identical_on_the_extended_arena() {
        let a = TermVector::from_terms(["banana", "mango", "banana", "zebra"]);
        let b = {
            let mut v = TermVector::in_arena(Arc::clone(a.arena()));
            v.add("mango", 2.0);
            v.add("zebra", 1.0);
            v
        };
        let (extended, remap) = a.arena().extended_with(["apple", "papaya"]);
        let a2 = a.remapped(Arc::clone(&extended), &remap);
        let b2 = b.remapped(Arc::clone(&extended), &remap);
        assert!(Arc::ptr_eq(a2.arena(), &extended));
        assert_eq!(a2, a);
        assert_eq!(a2.get("banana"), 2.0);
        assert_eq!(a2.dot(&b2).to_bits(), a.dot(&b).to_bits());
        assert_eq!(a2.cosine(&b2).to_bits(), a.cosine(&b).to_bits());
        // Fresh entries interned directly in the extended arena interoperate.
        let c = TermVector::from_id_occurrences(
            Arc::clone(&extended),
            vec![
                extended.intern("apple").unwrap(),
                extended.intern("banana").unwrap(),
            ],
        );
        assert_eq!(a2.dot(&c), 2.0);
    }

    #[test]
    fn jaccard_behaviour() {
        let a = TermVector::from_terms(["a", "b", "c"]);
        let b = TermVector::from_terms(["b", "c", "d"]);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert_eq!(TermVector::new().jaccard(&TermVector::new()), 0.0);
    }

    #[test]
    fn overlap_coefficient_behaviour() {
        let small = TermVector::from_terms(["a", "b"]);
        let large = TermVector::from_terms(["a", "b", "c", "d", "e", "f"]);
        // The small vector is fully contained in the large one.
        assert!((small.overlap_coefficient(&large) - 1.0).abs() < 1e-12);
        assert!((large.overlap_coefficient(&small) - 1.0).abs() < 1e-12);
        assert!(small.overlap_coefficient(&large) > small.jaccard(&large));
        assert_eq!(small.overlap_coefficient(&TermVector::new()), 0.0);
    }

    #[test]
    fn from_sorted_entries_round_trips_and_validates() {
        let v = TermVector::from_terms(["b", "a", "a", "c"]);
        let entries: Vec<(String, f64)> = v.iter().map(|(t, w)| (t.to_string(), w)).collect();
        let rebuilt = TermVector::from_sorted_entries(entries).expect("iter output is sorted");
        assert_eq!(rebuilt, v);
        // Out-of-order and duplicate entries are rejected.
        assert!(TermVector::from_sorted_entries(vec![
            ("b".to_string(), 1.0),
            ("a".to_string(), 1.0)
        ])
        .is_none());
        assert!(TermVector::from_sorted_entries(vec![
            ("a".to_string(), 1.0),
            ("a".to_string(), 2.0)
        ])
        .is_none());
        assert!(TermVector::from_sorted_entries(Vec::new()).is_some());
    }

    #[test]
    fn from_ids_validates_order_and_range() {
        let arena = TermVector::from_terms(["a", "b", "c"]).arena().clone();
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(0, 1.0), (2, 2.0)]).is_some());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(2, 1.0), (0, 2.0)]).is_none());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(1, 1.0), (1, 2.0)]).is_none());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(3, 1.0)]).is_none());
        assert!(TermVector::from_ids(arena, Vec::new()).is_some());
    }

    #[test]
    fn builder_matches_incremental_add_bit_for_bit() {
        let pushes = [
            ("zebra", 1.5),
            ("apple", 2.0),
            ("zebra", 0.25),
            ("mango", 0.0), // dropped, like add
            ("apple", -1.0),
            ("banana", 3.0),
        ];
        let mut incremental = TermVector::new();
        let mut builder = TermVectorBuilder::new();
        for (t, w) in pushes {
            incremental.add(t, w);
            builder.push(t, w);
        }
        let built = builder.finish();
        assert_eq!(built, incremental);
        for ((ta, wa), (tb, wb)) in built.iter().zip(incremental.iter()) {
            assert_eq!(ta, tb);
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
    }

    #[test]
    fn serde_round_trip_keeps_entries() {
        let v = TermVector::from_terms(["b", "a", "a"]);
        let value = v.serialize_value();
        let back = TermVector::deserialize_value(&value).unwrap();
        assert_eq!(back, v);
    }

    /// Serializes a vector's entries into the mapped layout (`len` LE u32
    /// ids, then `len` LE u64 weight bits), returning the two ranges.
    fn mapped_entry_layout(entries: &[(u32, f64)]) -> (Vec<u8>, Range<usize>, Range<usize>) {
        let mut buf = Vec::new();
        for (id, _) in entries {
            buf.extend_from_slice(&id.to_le_bytes());
        }
        let ids = 0..buf.len();
        let start = buf.len();
        for (_, w) in entries {
            buf.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        (buf.clone(), ids, start..buf.len())
    }

    /// A region that counts page-in notifications, standing in for the
    /// mmap-backed region of the snapshot layer.
    #[derive(Debug, Default)]
    struct CountingRegion {
        data: Vec<u8>,
        page_ins: std::sync::atomic::AtomicUsize,
        paged_bytes: std::sync::atomic::AtomicUsize,
    }

    impl ByteRegion for CountingRegion {
        fn bytes(&self) -> &[u8] {
            &self.data
        }
        fn note_page_in(&self, bytes: usize) {
            use std::sync::atomic::Ordering;
            self.page_ins.fetch_add(1, Ordering::Relaxed);
            self.paged_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    #[test]
    fn mapped_vector_materializes_lazily_and_matches_owned_bit_for_bit() {
        use std::sync::atomic::Ordering;
        let owned = TermVector::from_terms(["apple", "mango", "mango", "zebra"]);
        let entries: Vec<(u32, f64)> = owned.id_entries().to_vec();
        let (buf, ids, weights) = mapped_entry_layout(&entries);
        let region = Arc::new(CountingRegion {
            data: buf,
            ..CountingRegion::default()
        });
        let mapped = TermVector::from_mapped(
            Arc::clone(owned.arena()),
            Arc::clone(&region) as Arc<dyn ByteRegion>,
            ids.clone(),
            weights.clone(),
            entries.len(),
        )
        .expect("valid layout");
        // Length is part of the layout: no page-in yet.
        assert_eq!(mapped.len(), owned.len());
        assert!(!mapped.is_materialized());
        assert_eq!(region.page_ins.load(Ordering::Relaxed), 0);
        // First read materializes once and reports the page-in.
        for ((ta, wa), (tb, wb)) in mapped.iter().zip(owned.iter()) {
            assert_eq!(ta, tb);
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
        assert!(mapped.is_materialized());
        assert_eq!(mapped.dot(&owned).to_bits(), owned.dot(&owned).to_bits());
        assert_eq!(mapped, owned);
        assert_eq!(region.page_ins.load(Ordering::Relaxed), 1);
        assert_eq!(
            region.paged_bytes.load(Ordering::Relaxed),
            ids.len() + weights.len()
        );
    }

    #[test]
    fn mapped_vector_rejects_broken_streams() {
        let owned = TermVector::from_terms(["a", "b", "c"]);
        let entries: Vec<(u32, f64)> = owned.id_entries().to_vec();
        let (buf, ids, weights) = mapped_entry_layout(&entries);
        let region: Arc<dyn ByteRegion> = Arc::new(buf.clone());
        let arena = Arc::clone(owned.arena());
        // Wrong length / out-of-bounds ranges.
        assert!(TermVector::from_mapped(
            Arc::clone(&arena),
            Arc::clone(&region),
            ids.clone(),
            weights.clone(),
            entries.len() + 1
        )
        .is_none());
        assert!(TermVector::from_mapped(
            Arc::clone(&arena),
            Arc::clone(&region),
            ids.clone(),
            weights.start..weights.end + 8,
            entries.len()
        )
        .is_none());
        // Non-increasing ids are rejected at construction.
        let mut dup = buf.clone();
        dup[ids.start + 4..ids.start + 8].copy_from_slice(&0u32.to_le_bytes());
        assert!(TermVector::from_mapped(
            Arc::clone(&arena),
            Arc::new(dup),
            ids.clone(),
            weights.clone(),
            entries.len()
        )
        .is_none());
        // Ids past the arena are rejected.
        let mut oob = buf;
        oob[ids.start + 8..ids.start + 12].copy_from_slice(&9u32.to_le_bytes());
        assert!(
            TermVector::from_mapped(arena, Arc::new(oob), ids, weights, entries.len()).is_none()
        );
    }

    #[test]
    fn mutating_a_mapped_vector_converts_it_to_owned() {
        let owned = TermVector::from_terms(["a", "b"]);
        let entries: Vec<(u32, f64)> = owned.id_entries().to_vec();
        let (buf, ids, weights) = mapped_entry_layout(&entries);
        let mut mapped = TermVector::from_mapped(
            Arc::clone(owned.arena()),
            Arc::new(buf),
            ids,
            weights,
            entries.len(),
        )
        .unwrap();
        mapped.add("b", 2.0);
        assert!(mapped.is_materialized());
        assert_eq!(mapped.get("b"), 3.0);
        assert_eq!(mapped.get("a"), 1.0);
    }

    #[test]
    fn top_terms_ordering() {
        let v = TermVector::from_terms(["b", "a", "a", "c", "c", "c"]);
        let top = v.top_terms(2);
        assert_eq!(top[0].0, "c");
        assert_eq!(top[1].0, "a");
    }
}
