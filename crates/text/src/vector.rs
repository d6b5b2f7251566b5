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
//! weight)`** pairs resolved against a shared [`TermArena`]: every vector of
//! a prepared schema is interned on its type's one arena. Because arena ids
//! are assigned in lexicographic term order (the invariant documented in
//! [`crate::arena`]), id order *is* term order: every pairwise operation —
//! [`dot`](TermVector::dot), [`cosine`](TermVector::cosine),
//! [`overlap_coefficient`](TermVector::overlap_coefficient),
//! [`union_ids`](TermVector::union_ids) — is a single **O(n + m) walk over
//! `u32` ids** that visits terms in exactly the order the string-keyed
//! representation before interning did, so all derived floats accumulate
//! in the same order and come out bit-identical.
//!
//! Ids of two arenas are not comparable, so a pairwise operation on two
//! non-empty vectors of different arenas panics. An empty vector has no id
//! to compare and pairs with a vector of any arena.
//!
//! Vectors are built in id space: [`from_id_occurrences`] counts a stream
//! of term-id occurrences (the schema build), [`from_ids`] adopts validated
//! `(id, weight)` entries, [`remapped`] migrates a vector onto an extended
//! arena (the delta patcher) and [`from_mapped`] borrows its entries from a
//! byte region (the snapshot reader).
//!
//! [`from_id_occurrences`]: TermVector::from_id_occurrences
//! [`from_ids`]: TermVector::from_ids
//! [`remapped`]: TermVector::remapped
//! [`from_mapped`]: TermVector::from_mapped
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

    /// Builds a vector from interned term-id occurrences (each weighing
    /// exactly 1.0): sort once, then collapse runs by accumulating `+= 1.0`
    /// per occurrence, in ascending id (= term) order — the exact float
    /// operations of counting each term's occurrences one by one. This is
    /// the bulk-construction path schema builders use after freezing a
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

    /// Panics unless `self` and `other` resolve their ids against one
    /// arena, or either is empty (it has no id to compare). Every pairwise
    /// operation checks this first; on the hot path the `Arc::ptr_eq`
    /// decides it.
    #[inline]
    fn assert_one_arena(&self, other: &TermVector, op: &str) {
        assert!(
            Arc::ptr_eq(&self.arena, &other.arena) || self.is_empty() || other.is_empty(),
            "{op} requires both vectors on one arena"
        );
    }

    /// Dot product with another vector of the same arena, computed by the
    /// chunked u32-id kernel (`dot_id_entries`), which skips disjoint 8-id
    /// blocks with one comparison instead of stepping entry by entry. It
    /// accumulates matching products in ascending id (= term) order, so
    /// the result is bit-identical to an entry-by-entry merge.
    ///
    /// # Panics
    /// Panics when both vectors are non-empty and on different arenas.
    pub fn dot(&self, other: &TermVector) -> f64 {
        self.assert_one_arena(other, "dot");
        dot_id_entries(self.entries(), other.entries())
    }

    /// Cosine similarity with another vector of the same arena; 0.0 when
    /// either is empty.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use wiki_text::{TermArenaBuilder, TermVector};
    ///
    /// let mut builder = TermArenaBuilder::new();
    /// for term in ["ireland", "1963", "united states", "france"] {
    ///     builder.intern(term);
    /// }
    /// let (arena, _) = builder.freeze();
    /// let vector = |terms: &[&str]| {
    ///     let ids = terms.iter().map(|t| arena.intern(t).unwrap()).collect();
    ///     TermVector::from_id_occurrences(Arc::clone(&arena), ids)
    /// };
    /// let a = vector(&["ireland", "1963", "united states"]);
    /// let b = vector(&["ireland", "1963", "france"]);
    /// let c = a.cosine(&b);
    /// assert!(c > 0.6 && c < 0.7);
    /// ```
    ///
    /// # Panics
    /// Panics when both vectors are non-empty and on different arenas.
    pub fn cosine(&self, other: &TermVector) -> f64 {
        self.assert_one_arena(other, "cosine");
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (dot_id_entries(self.entries(), other.entries()) / denom).clamp(0.0, 1.0)
    }

    /// Calls `f` once per distinct term **id** of the union of the two
    /// vectors' term sets, in ascending id order (an O(n + m) merge walk).
    ///
    /// This is the term-set primitive inverted-index builders need (e.g.
    /// the candidate generator in `wikimatch`, which keys its postings by
    /// id): it lives here, next to the sorted-entries invariant it depends
    /// on, so out-of-crate callers never hand-roll their own walk over the
    /// representation.
    ///
    /// # Panics
    /// Panics when both vectors are non-empty and on different arenas
    /// (their ids would not be comparable).
    pub fn union_ids(&self, other: &TermVector, mut f: impl FnMut(u32)) {
        self.assert_one_arena(other, "union_ids");
        merge_join(self, other, |step| match step {
            MergeStep::Left(id) | MergeStep::Right(id) | MergeStep::Both(id) => f(id),
        });
    }

    /// Overlap (Szymkiewicz–Simpson) coefficient of the term sets:
    /// `|A ∩ B| / min(|A|, |B|)`. Unlike Jaccard it is not penalised when
    /// one attribute is much more frequent than the other, which is the
    /// right behaviour for per-infobox value-equality matching.
    ///
    /// # Panics
    /// Panics when both vectors are non-empty and on different arenas.
    pub fn overlap_coefficient(&self, other: &TermVector) -> f64 {
        if self.is_empty() || other.is_empty() {
            return 0.0;
        }
        self.assert_one_arena(other, "overlap_coefficient");
        let mut intersection = 0usize;
        merge_join(self, other, |step| {
            if let MergeStep::Both(..) = step {
                intersection += 1;
            }
        });
        intersection as f64 / self.len().min(other.len()) as f64
    }
}

/// One step of a [`merge_join`] walk over two id-sorted entry lists: the
/// id of a term of the left vector only, of the right only, or of both.
enum MergeStep {
    Left(u32),
    Right(u32),
    Both(u32),
}

/// Two-pointer merge join over the id-sorted entries of two vectors of one
/// arena, calling `f` once per distinct term id in ascending order. Callers
/// check the arena first ([`TermVector::assert_one_arena`]).
fn merge_join(a: &TermVector, b: &TermVector, mut f: impl FnMut(MergeStep)) {
    let (xs, ys) = (a.entries(), b.entries());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        let (x, y) = (xs[i].0, ys[j].0);
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                f(MergeStep::Left(x));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                f(MergeStep::Right(y));
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                f(MergeStep::Both(x));
                i += 1;
                j += 1;
            }
        }
    }
    for &(id, _) in &xs[i..] {
        f(MergeStep::Left(id));
    }
    for &(id, _) in &ys[j..] {
        f(MergeStep::Right(id));
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
/// the exact float-addition order of an entry-by-entry merge — so the
/// result is bit-identical to one.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TermArenaBuilder;

    /// One frozen arena over `terms`: the vectors of a test share it, as
    /// the vectors of a schema share theirs.
    fn arena_of<'a>(terms: impl IntoIterator<Item = &'a str>) -> Arc<TermArena> {
        let mut builder = TermArenaBuilder::new();
        for term in terms {
            builder.intern(term);
        }
        builder.freeze().0
    }

    /// A vector on `arena` with one `(term, weight)` entry per distinct
    /// term, given in any order.
    fn weighted(arena: &Arc<TermArena>, entries: &[(&str, f64)]) -> TermVector {
        let mut ids: Vec<(u32, f64)> = entries
            .iter()
            .map(|&(term, w)| (arena.intern(term).expect("term in the test arena"), w))
            .collect();
        ids.sort_by_key(|&(id, _)| id);
        TermVector::from_ids(Arc::clone(arena), ids).expect("distinct terms")
    }

    /// A vector on `arena` counting every occurrence of `terms`.
    fn counted(arena: &Arc<TermArena>, terms: &[&str]) -> TermVector {
        let ids = terms
            .iter()
            .map(|t| arena.intern(t).expect("term in the test arena"))
            .collect();
        TermVector::from_id_occurrences(Arc::clone(arena), ids)
    }

    /// The weight of `term` in `v`, 0.0 when absent: a per-term lookup.
    fn weight(v: &TermVector, term: &str) -> f64 {
        v.iter().find(|(t, _)| *t == term).map_or(0.0, |(_, w)| w)
    }

    #[test]
    fn counts_accumulate() {
        let arena = arena_of(["a", "b", "c"]);
        let v = counted(&arena, &["a", "b", "a", "a"]);
        assert_eq!(weight(&v, "a"), 3.0);
        assert_eq!(weight(&v, "b"), 1.0);
        assert_eq!(weight(&v, "c"), 0.0);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_under_mixed_insertions() {
        let arena = arena_of(["zebra", "apple", "mango", "banana"]);
        let v = counted(
            &arena,
            &["zebra", "apple", "mango", "apple", "banana", "zebra"],
        );
        let terms: Vec<&str> = v.iter().map(|(t, _)| t).collect();
        assert_eq!(terms, vec!["apple", "banana", "mango", "zebra"]);
        assert_eq!(weight(&v, "apple"), 2.0);
        assert_eq!(weight(&v, "zebra"), 2.0);
        // Ids are strictly increasing (the arena invariant).
        assert!(v.id_entries().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn cosine_of_identical_vectors_is_one() {
        let arena = arena_of(["x", "y", "z"]);
        let v = counted(&arena, &["x", "y", "z", "x"]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_disjoint_vectors_is_zero() {
        let arena = arena_of(["a", "b", "c", "d"]);
        let a = counted(&arena, &["a", "b"]);
        let b = counted(&arena, &["c", "d"]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn cosine_with_empty_vector_is_zero() {
        let arena = arena_of(["a"]);
        let a = counted(&arena, &["a"]);
        // Empty vectors pair with any arena: on the shared empty one ...
        let b = TermVector::new();
        assert_eq!(a.cosine(&b), 0.0);
        assert_eq!(b.cosine(&b), 0.0);
        assert_eq!(a.dot(&b), 0.0);
        // ... and on the vector's own.
        let c = TermVector::from_ids(arena, Vec::new()).unwrap();
        assert_eq!(a.cosine(&c), 0.0);
    }

    #[test]
    fn dot_matches_lookup_based_reference() {
        let arena = arena_of(["a", "b", "c", "d", "e", "f"]);
        let a = counted(&arena, &["a", "b", "b", "d", "e"]);
        let b = counted(&arena, &["b", "c", "d", "d", "f"]);
        // Reference: per-term lookups, the pre-merge-walk implementation.
        let reference: f64 = a.iter().map(|(t, w)| w * weight(&b, t)).sum();
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
        let arena = arena_of(long.iter().chain(&sparse).map(String::as_str));
        let vector = |terms: &[String], step: f64| {
            let entries: Vec<(&str, f64)> = terms
                .iter()
                .enumerate()
                .map(|(k, t)| (t.as_str(), 1.0 + k as f64 * step))
                .collect();
            weighted(&arena, &entries)
        };
        for (xs, ys) in [(&long, &sparse), (&sparse, &long), (&long, &long)] {
            let a = vector(xs, 0.5);
            let b = vector(ys, 0.25);
            // Reference: per-entry lookups, matching products summed in
            // the same ascending id order.
            let mut reference = 0.0;
            for &(id, wa) in a.id_entries() {
                if let Ok(k) = b.id_entries().binary_search_by_key(&id, |&(i, _)| i) {
                    reference += wa * b.id_entries()[k].1;
                }
            }
            assert!(reference > 0.0, "fixture must actually intersect");
            assert_eq!(a.dot(&b).to_bits(), reference.to_bits());
            assert_eq!(b.dot(&a).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn pairwise_ops_on_two_arenas_panic() {
        // The same terms interned twice: equal vectors, incomparable ids.
        let a = counted(&arena_of(["a", "b"]), &["a", "b"]);
        let b = counted(&arena_of(["a", "b"]), &["a", "b"]);
        assert_eq!(a, b);
        type Op = fn(&TermVector, &TermVector) -> f64;
        let ops: [(&str, Op); 3] = [
            ("dot", TermVector::dot),
            ("cosine", TermVector::cosine),
            ("overlap_coefficient", TermVector::overlap_coefficient),
        ];
        for (name, op) in ops {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| op(&a, &b)))
                .expect_err(name);
            let message = panic.downcast_ref::<String>().expect("formatted message");
            assert!(
                message.ends_with("requires both vectors on one arena"),
                "{name}: {message}"
            );
            // One arena, or an empty side of any arena, is fine.
            assert!(op(&a, &a) > 0.0, "{name}");
            assert_eq!(op(&a, &TermVector::new()), 0.0, "{name}");
        }
    }

    #[test]
    fn paper_example_one_translation_raises_similarity() {
        // Example 1 of the paper: nascimento vs born after dictionary
        // translation should have cosine ≈ 0.71-0.75.
        let arena = arena_of([
            "1963",
            "ireland",
            "december 18 1950",
            "june 4 1975",
            "united states",
        ]);
        let va_t = weighted(
            &arena,
            &[
                ("1963", 1.0),
                ("ireland", 1.0),
                ("december 18 1950", 1.0),
                ("united states", 1.0),
            ],
        );
        let vb = weighted(
            &arena,
            &[
                ("1963", 1.0),
                ("ireland", 1.0),
                ("june 4 1975", 1.0),
                ("united states", 2.0),
            ],
        );
        let sim = va_t.cosine(&vb);
        assert!(sim > 0.65 && sim < 0.80, "sim = {sim}");
    }

    #[test]
    fn union_ids_matches_union_terms_on_a_shared_arena() {
        let arena = arena_of(["a", "b", "c", "d"]);
        let a =
            TermVector::from_ids(Arc::clone(&arena), vec![(0, 1.0), (1, 2.0), (3, 1.0)]).unwrap();
        let b =
            TermVector::from_ids(Arc::clone(&arena), vec![(1, 1.0), (2, 1.0), (3, 3.0)]).unwrap();
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
        let empty = TermVector::from_ids(arena, Vec::new()).unwrap();
        a.union_ids(&empty, |id| left_only.push(id));
        assert_eq!(left_only, ids(&a));
    }

    #[test]
    #[should_panic(expected = "union_ids requires both vectors on one arena")]
    fn union_ids_rejects_mixed_arenas() {
        let a = counted(&arena_of(["a"]), &["a"]);
        let b = counted(&arena_of(["a"]), &["a"]);
        a.union_ids(&b, |_| {});
    }

    #[test]
    fn remapped_vectors_are_bit_identical_on_the_extended_arena() {
        let arena = arena_of(["banana", "mango", "zebra"]);
        let a = counted(&arena, &["banana", "mango", "banana", "zebra"]);
        let b = weighted(&arena, &[("mango", 2.0), ("zebra", 1.0)]);
        let (extended, remap) = arena.extended_with(["apple", "papaya"]);
        let a2 = a.remapped(Arc::clone(&extended), &remap);
        let b2 = b.remapped(Arc::clone(&extended), &remap);
        assert!(Arc::ptr_eq(a2.arena(), &extended));
        assert_eq!(a2, a);
        assert_eq!(weight(&a2, "banana"), 2.0);
        assert_eq!(a2.dot(&b2).to_bits(), a.dot(&b).to_bits());
        assert_eq!(a2.cosine(&b2).to_bits(), a.cosine(&b).to_bits());
        // Fresh entries interned directly in the extended arena interoperate.
        let c = counted(&extended, &["apple", "banana"]);
        assert_eq!(a2.dot(&c), 2.0);
    }

    #[test]
    fn overlap_coefficient_behaviour() {
        let arena = arena_of(["a", "b", "c", "d", "e", "f"]);
        let small = counted(&arena, &["a", "b"]);
        let large = counted(&arena, &["a", "b", "c", "d", "e", "f"]);
        // The small vector is fully contained in the large one.
        assert!((small.overlap_coefficient(&large) - 1.0).abs() < 1e-12);
        assert!((large.overlap_coefficient(&small) - 1.0).abs() < 1e-12);
        // Frequencies are ignored: one shared term of two distinct ones.
        let partial = counted(&arena, &["b", "c", "c", "d"]);
        assert_eq!(small.overlap_coefficient(&partial), 0.5);
        assert_eq!(small.overlap_coefficient(&TermVector::new()), 0.0);
    }

    #[test]
    fn from_ids_validates_order_and_range() {
        let arena = arena_of(["a", "b", "c"]);
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(0, 1.0), (2, 2.0)]).is_some());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(2, 1.0), (0, 2.0)]).is_none());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(1, 1.0), (1, 2.0)]).is_none());
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![(3, 1.0)]).is_none());
        assert!(TermVector::from_ids(arena, Vec::new()).is_some());
    }

    /// A vector's sorted entries, as a persistence layer captures them,
    /// rebuild it bit for bit; out-of-order and duplicate entries are
    /// rejected.
    #[test]
    fn from_sorted_entries_round_trips_and_validates() {
        let arena = arena_of(["a", "b", "c"]);
        let v = weighted(&arena, &[("b", 0.1), ("a", 2.5), ("c", -1.0)]);
        let rebuilt = TermVector::from_ids(Arc::clone(&arena), v.id_entries().to_vec())
            .expect("id_entries output is sorted");
        assert_eq!(rebuilt, v);
        for ((ta, wa), (tb, wb)) in rebuilt.iter().zip(v.iter()) {
            assert_eq!(ta, tb);
            assert_eq!(wa.to_bits(), wb.to_bits());
        }
        let mut reversed = v.id_entries().to_vec();
        reversed.reverse();
        assert!(TermVector::from_ids(Arc::clone(&arena), reversed).is_none());
        let first = v.id_entries()[0];
        assert!(TermVector::from_ids(Arc::clone(&arena), vec![first, first]).is_none());
        assert!(TermVector::from_ids(arena, Vec::new()).is_some());
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
        let arena = arena_of(["apple", "mango", "zebra"]);
        let owned = counted(&arena, &["apple", "mango", "mango", "zebra"]);
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
        let owned = counted(&arena_of(["a", "b", "c"]), &["a", "b", "c"]);
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
}
