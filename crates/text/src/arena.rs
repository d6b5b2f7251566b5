//! Vocabulary interning: [`TermArena`] and [`TermArenaBuilder`].
//!
//! A [`TermArena`] is a frozen, lexicographically sorted string table that
//! assigns every distinct term a dense `u32` id. The crucial invariant is
//! that **ids are assigned in lexicographic term order**:
//!
//! ```text
//! id(a) < id(b)  ⇔  a < b      (for terms a, b of the same arena)
//! ```
//!
//! Because of this, a term-vector entry list sorted by id is sorted by term,
//! every merge walk of [`crate::vector`] visits terms in exactly the order a
//! string-keyed walk would, and every derived float accumulates in exactly
//! the same order — which is what keeps the similarity results
//! **bit-identical** to the string-keyed pipeline before interning while
//! the hottest loops compare integers instead of strings.
//!
//! One arena serves one entity type: every vector of a schema is interned
//! on it, so pairwise operations never meet two arenas. The arena never
//! changes once frozen; the delta patcher grows a type's vocabulary by
//! building a new arena ([`TermArena::extended_with`]) and migrating the
//! vectors onto it.
//!
//! Construction is two-phase: a [`TermArenaBuilder`] collects terms in any
//! order (handing out *provisional* first-seen ids so callers can record
//! term occurrences cheaply), and [`TermArenaBuilder::freeze`] sorts the
//! vocabulary once, producing the arena plus the provisional → final id
//! remap.
//!
//! ## Owned vs mapped storage
//!
//! An arena normally owns its string table on the heap. It can instead be a
//! zero-copy *view* over an externally-owned [`ByteRegion`]
//! ([`TermArena::from_mapped`]): a `(len + 1)`-entry little-endian `u32`
//! offset table plus the concatenated UTF-8 term bytes. `resolve` then
//! slices straight out of the region — no per-term allocation ever happens,
//! so a mapped arena contributes zero resident heap bytes
//! ([`TermArena::heap_bytes`]). All order/UTF-8 invariants are validated
//! once at construction; lookups stay infallible. Rust's `str` ordering is
//! plain byte-wise comparison, so the sortedness check over raw bytes is
//! exactly the invariant `intern`'s binary search needs.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::region::ByteRegion;

/// Backing storage of a [`TermArena`]: heap-owned strings or a zero-copy
/// view into an externally-owned byte region.
#[derive(Debug, Clone)]
enum Store {
    /// Strictly sorted, duplicate-free terms; index = id.
    Owned(Vec<String>),
    /// Borrowed view: `offsets` holds `(len + 1)` little-endian `u32`s into
    /// `bytes` (both ranges index into the region), validated at
    /// construction to be monotone, in-bounds, UTF-8 and strictly sorted.
    Mapped {
        region: Arc<dyn ByteRegion>,
        offsets: Range<usize>,
        bytes: Range<usize>,
        len: usize,
    },
}

/// A frozen, lexicographically sorted vocabulary assigning dense `u32` term
/// ids in term order (see the module docs for the id-order invariant).
#[derive(Debug, Clone)]
pub struct TermArena {
    store: Store,
    /// Total bytes of term text (the memory-footprint gauge), whether the
    /// text lives on the heap or in the mapped region.
    bytes: usize,
}

impl Default for TermArena {
    fn default() -> Self {
        TermArena {
            store: Store::Owned(Vec::new()),
            bytes: 0,
        }
    }
}

impl PartialEq for TermArena {
    fn eq(&self, other: &Self) -> bool {
        // Owned/owned is the common case and compares the vectors directly;
        // any mapped side falls back to the term walk (identical content is
        // equal regardless of where the bytes live).
        if let (Store::Owned(a), Store::Owned(b)) = (&self.store, &other.store) {
            return a == b;
        }
        self.len() == other.len() && self.terms().eq(other.terms())
    }
}

impl TermArena {
    /// The shared empty arena — the backing of [`crate::TermVector::new`],
    /// allocated once per process.
    pub fn empty() -> Arc<TermArena> {
        static EMPTY: OnceLock<Arc<TermArena>> = OnceLock::new();
        Arc::clone(EMPTY.get_or_init(|| Arc::new(TermArena::default())))
    }

    /// Builds a zero-copy arena view over `region`: `offsets` is the byte
    /// range of a `(len + 1)`-entry little-endian `u32` offset table into
    /// the term text at `bytes` (offsets are relative to the start of the
    /// `bytes` range). Returns `None` unless every invariant holds: ranges
    /// in bounds, offset table exactly sized, offsets monotone from `0` to
    /// `bytes.len()`, every term valid UTF-8, and the terms strictly sorted
    /// — after which `resolve`/`intern` are infallible and allocation-free.
    pub fn from_mapped(
        region: Arc<dyn ByteRegion>,
        offsets: Range<usize>,
        bytes: Range<usize>,
        len: usize,
    ) -> Option<TermArena> {
        let data = region.bytes();
        if offsets.end > data.len() || offsets.start > offsets.end {
            return None;
        }
        if bytes.end > data.len() || bytes.start > bytes.end {
            return None;
        }
        if offsets.len() != len.checked_add(1)?.checked_mul(4)? {
            return None;
        }
        let text_len = bytes.len();
        let offset_at = |i: usize| -> usize {
            let at = offsets.start + i * 4;
            u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice")) as usize
        };
        if len == 0 {
            if offset_at(0) != 0 || text_len != 0 {
                return None;
            }
            return Some(TermArena {
                store: Store::Mapped {
                    region,
                    offsets,
                    bytes,
                    len,
                },
                bytes: 0,
            });
        }
        if offset_at(0) != 0 || offset_at(len) != text_len {
            return None;
        }
        let mut prev: Option<&[u8]> = None;
        for i in 0..len {
            let (start, end) = (offset_at(i), offset_at(i + 1));
            if start > end || end > text_len {
                return None;
            }
            let term = &data[bytes.start + start..bytes.start + end];
            if std::str::from_utf8(term).is_err() {
                return None;
            }
            // Strict byte-wise sortedness == strict `str` sortedness.
            if prev.is_some_and(|p| p >= term) {
                return None;
            }
            prev = Some(term);
        }
        Some(TermArena {
            store: Store::Mapped {
                region,
                offsets,
                bytes,
                len,
            },
            bytes: text_len,
        })
    }

    /// The term at index `i`, from either store.
    #[inline]
    fn term_at(&self, i: usize) -> &str {
        match &self.store {
            Store::Owned(terms) => &terms[i],
            Store::Mapped {
                region,
                offsets,
                bytes,
                ..
            } => {
                let data = region.bytes();
                let at = offsets.start + i * 4;
                let lo =
                    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice")) as usize;
                let hi = u32::from_le_bytes(data[at + 4..at + 8].try_into().expect("4-byte slice"))
                    as usize;
                std::str::from_utf8(&data[bytes.start + lo..bytes.start + hi])
                    .expect("validated UTF-8 at construction")
            }
        }
    }

    /// The id of `term`, or `None` when the term is not in the vocabulary.
    #[inline]
    pub fn intern(&self, term: &str) -> Option<u32> {
        // Manual binary search over `term_at` so both stores share one
        // lookup path (the owned store's slice search would be identical).
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.term_at(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid as u32),
            }
        }
        None
    }

    /// The term behind `id`.
    ///
    /// # Panics
    /// Panics when `id` is out of range — ids are only minted by this
    /// arena's builder, so an out-of-range id is a logic error.
    #[inline]
    pub fn resolve(&self, id: u32) -> &str {
        self.term_at(id as usize)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Owned(terms) => terms.len(),
            Store::Mapped { len, .. } => *len,
        }
    }

    /// True when the arena holds no terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of interned term text (excluding per-`String` overhead),
    /// wherever the text lives.
    pub fn term_bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes of term text held on the *heap*: equal to
    /// [`term_bytes`](Self::term_bytes) for an owned arena, `0` for a
    /// mapped view (its text belongs to the region) — the split the
    /// out-of-core accounting reports as resident vs mapped.
    pub fn heap_bytes(&self) -> usize {
        match &self.store {
            Store::Owned(_) => self.bytes,
            Store::Mapped { .. } => 0,
        }
    }

    /// True when the string table is a zero-copy view into a byte region.
    pub fn is_mapped(&self) -> bool {
        matches!(self.store, Store::Mapped { .. })
    }

    /// Iterates over the terms in id (= lexicographic) order.
    pub fn terms(&self) -> impl Iterator<Item = &str> {
        (0..self.len()).map(|i| self.term_at(i))
    }

    /// Builds the sorted union of this arena's vocabulary and `new_terms`
    /// (any order, duplicates and already-known terms allowed), returning
    /// the extended arena together with the **monotone** old → new id remap
    /// (`new_id = remap[old_id as usize]`).
    ///
    /// Because the merge preserves the relative order of the surviving
    /// terms, the remap is strictly increasing: an entry list sorted by old
    /// id stays sorted (by id *and* by term) after mapping each id through
    /// `remap`, so term vectors migrate to the extended arena with one
    /// linear pass and no re-sorting — the operation delta ingestion uses to
    /// keep clean vectors bit-identical while new terms join the
    /// vocabulary. The extended arena always owns its table (it carries
    /// terms the region does not have).
    pub fn extended_with<I, S>(&self, new_terms: I) -> (Arc<TermArena>, Vec<u32>)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut additions: Vec<String> = new_terms
            .into_iter()
            .map(Into::into)
            .filter(|t| self.intern(t).is_none())
            .collect();
        additions.sort_unstable();
        additions.dedup();

        let mut terms = Vec::with_capacity(self.len() + additions.len());
        let mut remap = Vec::with_capacity(self.len());
        let mut extra = additions.into_iter().peekable();
        for old in self.terms() {
            while extra.peek().is_some_and(|t| t.as_str() < old) {
                terms.push(extra.next().expect("peeked"));
            }
            remap.push(terms.len() as u32);
            terms.push(old.to_string());
        }
        terms.extend(extra);
        let bytes = terms.iter().map(String::len).sum();
        (
            Arc::new(TermArena {
                store: Store::Owned(terms),
                bytes,
            }),
            remap,
        )
    }
}

/// Accumulates a vocabulary in any order, handing out *provisional*
/// first-seen ids; [`freeze`](Self::freeze) sorts the vocabulary once and
/// returns the final arena together with the provisional → final remap.
#[derive(Debug, Default)]
pub struct TermArenaBuilder {
    map: HashMap<String, u32>,
    terms: Vec<String>,
}

impl TermArenaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its provisional (first-seen order) id.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.map.get(term) {
            return id;
        }
        self.intern_new(term.to_string())
    }

    /// Interns an owned term, returning its provisional id.
    pub fn intern_owned(&mut self, term: String) -> u32 {
        if let Some(&id) = self.map.get(&term) {
            return id;
        }
        self.intern_new(term)
    }

    fn intern_new(&mut self, term: String) -> u32 {
        let id = self.terms.len() as u32;
        self.terms.push(term.clone());
        self.map.insert(term, id);
        id
    }

    /// Number of distinct terms collected so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The term behind a provisional id.
    pub fn term(&self, provisional: u32) -> &str {
        &self.terms[provisional as usize]
    }

    /// Sorts the vocabulary and freezes it into an arena. The second return
    /// value maps every provisional id to its final (lexicographic) id:
    /// `final_id = remap[provisional_id as usize]`.
    pub fn freeze(self) -> (Arc<TermArena>, Vec<u32>) {
        let _span = wiki_obs::Span::enter("arena_freeze");
        let TermArenaBuilder { map: _, terms } = self;
        let mut order: Vec<u32> = (0..terms.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| terms[a as usize].cmp(&terms[b as usize]));
        let mut remap = vec![0u32; terms.len()];
        for (final_id, &prov) in order.iter().enumerate() {
            remap[prov as usize] = final_id as u32;
        }
        let mut sorted: Vec<String> = vec![String::new(); terms.len()];
        for (prov, term) in terms.into_iter().enumerate() {
            sorted[remap[prov] as usize] = term;
        }
        let bytes = sorted.iter().map(String::len).sum();
        (
            Arc::new(TermArena {
                store: Store::Owned(sorted),
                bytes,
            }),
            remap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arena a builder freezes over `terms`.
    fn frozen(terms: &[&str]) -> Arc<TermArena> {
        let mut builder = TermArenaBuilder::new();
        for term in terms {
            builder.intern(term);
        }
        builder.freeze().0
    }

    #[test]
    fn builder_hands_out_first_seen_ids_and_freezes_sorted() {
        let mut builder = TermArenaBuilder::new();
        let zebra = builder.intern("zebra");
        let apple = builder.intern("apple");
        let mango = builder.intern_owned("mango".to_string());
        assert_eq!(builder.intern("zebra"), zebra);
        assert_eq!(builder.term(apple), "apple");
        assert_eq!(builder.len(), 3);
        let (arena, remap) = builder.freeze();
        assert_eq!(arena.len(), 3);
        let terms: Vec<&str> = arena.terms().collect();
        assert_eq!(terms, vec!["apple", "mango", "zebra"]);
        assert_eq!(arena.resolve(remap[zebra as usize]), "zebra");
        assert_eq!(arena.resolve(remap[apple as usize]), "apple");
        assert_eq!(arena.resolve(remap[mango as usize]), "mango");
        assert_eq!(arena.intern("mango"), Some(remap[mango as usize]));
        assert_eq!(arena.intern("missing"), None);
        assert_eq!(arena.term_bytes(), "applemangozebra".len());
        assert_eq!(arena.heap_bytes(), arena.term_bytes());
        assert!(!arena.is_mapped());
    }

    #[test]
    fn id_order_is_lexicographic_order() {
        let mut builder = TermArenaBuilder::new();
        for t in ["delta", "alpha", "charlie", "bravo", "echo"] {
            builder.intern(t);
        }
        let (arena, _) = builder.freeze();
        for a in 0..arena.len() as u32 {
            for b in 0..arena.len() as u32 {
                assert_eq!(a < b, arena.resolve(a) < arena.resolve(b));
            }
        }
    }

    #[test]
    fn extended_with_merges_and_returns_a_monotone_remap() {
        let base = frozen(&["zebra", "banana", "mango"]);
        let (extended, remap) = base.extended_with(["apple", "mango", "papaya", "apple"]);
        let terms: Vec<&str> = extended.terms().collect();
        assert_eq!(terms, vec!["apple", "banana", "mango", "papaya", "zebra"]);
        assert_eq!(remap, vec![1, 2, 4]);
        // The remap is strictly increasing and points at the same terms.
        assert!(remap.windows(2).all(|w| w[0] < w[1]));
        for (old, term) in base.terms().enumerate() {
            assert_eq!(extended.resolve(remap[old]), term);
        }
        assert_eq!(extended.term_bytes(), "applebananamangopapayazebra".len());
        // No additions → identity remap, identical vocabulary.
        let (same, identity) = base.extended_with(Vec::<String>::new());
        assert_eq!(same.len(), base.len());
        assert_eq!(identity, vec![0, 1, 2]);
    }

    #[test]
    fn empty_arena_is_shared() {
        let a = TermArena::empty();
        let b = TermArena::empty();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.is_empty());
    }

    /// Serializes an arena into the mapped layout: `(len + 1)` LE u32
    /// offsets followed by the term bytes, returning the two ranges.
    fn mapped_layout(terms: &[&str]) -> (Vec<u8>, Range<usize>, Range<usize>) {
        let mut buf = Vec::new();
        let mut offset = 0u32;
        buf.extend_from_slice(&offset.to_le_bytes());
        for t in terms {
            offset += t.len() as u32;
            buf.extend_from_slice(&offset.to_le_bytes());
        }
        let offsets = 0..buf.len();
        let start = buf.len();
        for t in terms {
            buf.extend_from_slice(t.as_bytes());
        }
        (buf.clone(), offsets, start..buf.len())
    }

    #[test]
    fn mapped_view_resolves_interns_and_compares_like_the_owned_arena() {
        let terms = ["apple", "mango", "zebra"];
        let (buf, offsets, bytes) = mapped_layout(&terms);
        let region: Arc<dyn ByteRegion> = Arc::new(buf);
        let mapped = TermArena::from_mapped(region, offsets, bytes, terms.len()).unwrap();
        assert!(mapped.is_mapped());
        assert_eq!(mapped.len(), 3);
        assert_eq!(mapped.resolve(1), "mango");
        assert_eq!(mapped.intern("zebra"), Some(2));
        assert_eq!(mapped.intern("missing"), None);
        assert_eq!(mapped.term_bytes(), "applemangozebra".len());
        assert_eq!(mapped.heap_bytes(), 0);
        let owned = frozen(&terms);
        assert_eq!(mapped, *owned);
        assert_eq!(*owned, mapped);
    }

    #[test]
    fn mapped_view_rejects_broken_invariants() {
        let terms = ["apple", "mango", "zebra"];
        let (buf, offsets, bytes) = mapped_layout(&terms);
        let region: Arc<dyn ByteRegion> = Arc::new(buf.clone());
        // Wrong length, out-of-bounds ranges, short offset tables.
        assert!(
            TermArena::from_mapped(Arc::clone(&region), offsets.clone(), bytes.clone(), 4)
                .is_none()
        );
        assert!(TermArena::from_mapped(
            Arc::clone(&region),
            offsets.clone(),
            bytes.start..bytes.end + 8,
            3
        )
        .is_none());
        assert!(TermArena::from_mapped(
            Arc::clone(&region),
            offsets.start..offsets.end - 4,
            bytes.clone(),
            3
        )
        .is_none());
        // Unsorted terms are rejected.
        let (ubuf, uoff, ubytes) = mapped_layout(&["zebra", "apple"]);
        assert!(TermArena::from_mapped(Arc::new(ubuf), uoff, ubytes, 2).is_none());
        // Invalid UTF-8 in the text section is rejected.
        let mut bad = buf;
        bad[bytes.start] = 0xff;
        assert!(TermArena::from_mapped(Arc::new(bad), offsets, bytes, 3).is_none());
    }
}
