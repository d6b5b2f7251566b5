//! Property-based tests for the text-processing primitives.

use std::sync::Arc;

use proptest::prelude::*;
use wiki_text::{
    jaro_winkler, levenshtein, ngram_similarity, normalize, normalize_label, token_overlap,
    TermArena, TermArenaBuilder, TermVector,
};

/// One frozen arena over every term of `lists`: the vectors of a case
/// share it, as the vectors of a schema share theirs.
fn arena_over(lists: &[&[String]]) -> Arc<TermArena> {
    let mut builder = TermArenaBuilder::new();
    for term in lists.iter().flat_map(|list| list.iter()) {
        builder.intern(term);
    }
    builder.freeze().0
}

/// A vector on `arena` counting every occurrence of `terms`.
fn counted(arena: &Arc<TermArena>, terms: &[String]) -> TermVector {
    let ids = terms
        .iter()
        .map(|t| arena.intern(t).expect("term in the case's arena"))
        .collect();
    TermVector::from_id_occurrences(Arc::clone(arena), ids)
}

proptest! {
    /// Normalisation is idempotent: normalising twice equals normalising once.
    #[test]
    fn normalize_idempotent(s in ".{0,64}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    /// Normalised strings contain only lowercase alphanumerics and single spaces.
    #[test]
    fn normalize_output_alphabet(s in ".{0,64}") {
        let n = normalize(&s);
        prop_assert!(!n.starts_with(' '));
        prop_assert!(!n.ends_with(' '));
        prop_assert!(!n.contains("  "));
        for c in n.chars() {
            prop_assert!(c == ' ' || c.is_alphanumeric() || c == '.');
            // Case folding is guaranteed for ASCII; exotic code points such
            // as mathematical capitals have no lowercase mapping.
            prop_assert!(!c.is_ascii_uppercase());
        }
    }

    /// Label normalisation never produces a longer string than value
    /// normalisation of the same input.
    #[test]
    fn label_not_longer_than_value(s in "[a-zA-Z0-9_ ]{0,32}") {
        prop_assert!(normalize_label(&s).len() <= normalize(&s).len());
    }

    /// Levenshtein is a metric: symmetry and identity of indiscernibles.
    #[test]
    fn levenshtein_symmetric(a in "[a-zçãđ]{0,16}", b in "[a-zçãđ]{0,16}") {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert_eq!(levenshtein(&a, &a), 0);
    }

    /// Levenshtein triangle inequality over small strings.
    #[test]
    fn levenshtein_triangle(a in "[a-z]{0,8}", b in "[a-z]{0,8}", c in "[a-z]{0,8}") {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    /// Jaro-Winkler, n-gram and token overlap similarities are bounded and
    /// symmetric.
    #[test]
    fn similarities_bounded_symmetric(a in ".{0,24}", b in ".{0,24}") {
        for f in [jaro_winkler, token_overlap] {
            let s1 = f(&a, &b);
            let s2 = f(&b, &a);
            prop_assert!((0.0..=1.0).contains(&s1), "{s1}");
            prop_assert!((s1 - s2).abs() < 1e-9);
        }
        let g1 = ngram_similarity(&a, &b, 3);
        let g2 = ngram_similarity(&b, &a, 3);
        prop_assert!((0.0..=1.0).contains(&g1));
        prop_assert!((g1 - g2).abs() < 1e-9);
    }

    /// Self-similarity is maximal.
    #[test]
    fn self_similarity_is_one(a in "[a-z]{1,24}") {
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-9);
        prop_assert!((ngram_similarity(&a, &a, 3) - 1.0).abs() < 1e-9);
        prop_assert!((token_overlap(&a, &a) - 1.0).abs() < 1e-9);
    }

    /// Cosine similarity of term vectors is bounded, symmetric, and 1 for a
    /// vector with itself (when non-empty).
    #[test]
    fn cosine_properties(
        a in proptest::collection::vec("[a-e]{1,3}", 0..16),
        b in proptest::collection::vec("[a-e]{1,3}", 0..16),
    ) {
        let arena = arena_over(&[&a, &b]);
        let va = counted(&arena, &a);
        let vb = counted(&arena, &b);
        let c1 = va.cosine(&vb);
        let c2 = vb.cosine(&va);
        prop_assert!((0.0..=1.0).contains(&c1));
        prop_assert!((c1 - c2).abs() < 1e-9);
        if !a.is_empty() {
            prop_assert!((va.cosine(&va) - 1.0).abs() < 1e-9);
        }
    }

    /// The sparse id-walk dot product equals a dense map-based reference
    /// computed term by term, and occurrence counting agrees with the
    /// dense accumulator entry-wise.
    #[test]
    fn sparse_dot_equals_dense_reference(
        a in proptest::collection::vec(("[a-e]{1,3}", 1u32..4), 0..24),
        b in proptest::collection::vec(("[a-e]{1,3}", 1u32..4), 0..24),
    ) {
        use std::collections::BTreeMap;
        // Each `(term, w)` is `w` occurrences of the term: the sparse vector
        // counts them on one arena, the dense BTreeMap adds `w` at once.
        let occurrences = |terms: &[(String, u32)]| -> Vec<String> {
            terms
                .iter()
                .flat_map(|(t, w)| std::iter::repeat_n(t.clone(), *w as usize))
                .collect()
        };
        let (oa, ob) = (occurrences(&a), occurrences(&b));
        let arena = arena_over(&[&oa, &ob]);
        let dense = |terms: &[(String, u32)]| {
            let mut dense: BTreeMap<String, f64> = BTreeMap::new();
            for (t, w) in terms {
                *dense.entry(t.clone()).or_insert(0.0) += f64::from(*w);
            }
            dense
        };
        let (sa, da) = (counted(&arena, &oa), dense(&a));
        let (sb, db) = (counted(&arena, &ob), dense(&b));
        // Dense reference: iterate one map, look terms up in the other.
        let reference: f64 = da
            .iter()
            .map(|(t, w)| w * db.get(t).copied().unwrap_or(0.0))
            .sum();
        prop_assert_eq!(sa.dot(&sb), reference);
        prop_assert_eq!(sb.dot(&sa), reference);
        // The sparse vector agrees with the dense accumulator entry-wise.
        let sparse: Vec<(&str, f64)> = sa.iter().collect();
        let expected: Vec<(&str, f64)> = da.iter().map(|(t, w)| (t.as_str(), *w)).collect();
        prop_assert_eq!(sparse, expected);
    }

    /// Interning round-trips: for any term set, `resolve(intern(t)) == t`,
    /// the freeze remap is consistent, and ids are strictly sorted exactly
    /// when the terms are strictly sorted (the id-order ⇔ term-order
    /// invariant every bit-identity guarantee in the workspace rests on).
    #[test]
    fn arena_round_trip_and_id_order(
        terms in proptest::collection::vec("[a-h]{1,6}", 0..48),
    ) {
        let mut builder = TermArenaBuilder::new();
        let provisional: Vec<u32> = terms.iter().map(|t| builder.intern(t)).collect();
        let (arena, remap) = builder.freeze();
        // intern → resolve is the identity on every collected term.
        for (term, prov) in terms.iter().zip(&provisional) {
            let id = remap[*prov as usize];
            prop_assert_eq!(arena.resolve(id), term.as_str());
            prop_assert_eq!(arena.intern(term), Some(id));
        }
        // Ids are strictly sorted ⇔ terms are strictly sorted.
        let ids: Vec<u32> = (0..arena.len() as u32).collect();
        for w in ids.windows(2) {
            prop_assert!(w[0] < w[1]);
            prop_assert!(arena.resolve(w[0]) < arena.resolve(w[1]));
        }
        // Uncollected terms resolve to nothing.
        prop_assert_eq!(arena.intern("not-in-the-alphabet!"), None);
        prop_assert_eq!(arena.len(), {
            let mut unique = terms;
            unique.sort_unstable();
            unique.dedup();
            unique.len()
        });
    }
}
