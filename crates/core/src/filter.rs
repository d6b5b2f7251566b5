//! Threshold-filtered sparse similarity-table build
//! ([`ComputeMode::Filtered`](crate::similarity::ComputeMode::Filtered)).
//!
//! The exact modes score every candidate pair, that is every pair sharing a
//! value or link term, and enumerate candidates from two `n·(n-1)/2`-bit
//! pair sets, which is what stays quadratic on large schemas. This module
//! replaces the pair sets with an **index-probe** in the style of the
//! similarity-join literature's prefix/length filters: stream each
//! attribute's term ids through id-keyed postings of the attributes seen so
//! far, count shared terms per touched pair, and discard every pair whose
//! *provable* cosine upper bound cannot reach the threshold `τ`.
//!
//! ## The bound
//!
//! For a pair with vectors `a`, `b` (the variant `vsim`/`lsim` would
//! compare — raw values for same-language pairs, dictionary-translated for
//! cross-language pairs, links for the link channel) whose probe counted
//! `c` shared terms, two upper bounds on `a · b` hold:
//!
//! * **count bound** — the dot has at most `c` non-zero products, each at
//!   most `max(a) · max(b)`, so `a · b ≤ c · max(a) · max(b)`;
//! * **prefix-mass bound** (Cauchy–Schwarz over the shared support) —
//!   `a · b ≤ √(P_a[min(c, |a|)]) · √(P_b[min(c, |b|)])`, where `P_v[k]`
//!   is the sum of the `k` largest squared weights of `v` (so
//!   `P_v[|v|] = ‖v‖²`).
//!
//! Both stay valid although `c` counts shared terms of the *union*
//! vocabulary (values ∪ translated values), which can only over-count the
//! variant's shared terms — and both bounds are monotone in `c`. A pair is
//! skipped only when `min(bounds) · (1 + 1e-9) < τ · ‖a‖ · ‖b‖`; the
//! multiplicative slack swamps the few-ulp rounding of the bound
//! arithmetic, so `cosine ≥ τ` pairs can never be lost to float noise.
//!
//! ## The contract
//!
//! The resulting sparse table stores **exactly** the pairs with
//! `vsim ≥ τ` or `lsim ≥ τ` — survivors of the bound get their exact
//! cosine (the same float ops as the dense pass, hence bit-identical) and
//! are then re-filtered on the true score, so the stored set is a pure
//! function of the dense table and `τ`, independent of how tight the
//! bounds happened to be. Stored channels below `τ` read `0.0`; LSI comes
//! on demand from the same factors as an exact table's, so every stored
//! pair's LSI is exact. The `candidate_pruning` suite proves both halves
//! against the `Dense` oracle.

use wiki_linalg::LsiConfig;
use wiki_text::TermVector;

use crate::schema::DualSchema;
use crate::similarity::{lsim, vsim, Evidence, PairCounts, SimilarityTable};

/// Multiplicative slack applied to the upper bound before comparing it to
/// the threshold mass `τ·‖a‖·‖b‖`: the bound arithmetic (sort, prefix
/// sums, one sqrt, three multiplies) accumulates at most a few ulp of
/// error, which `1e-9` exceeds by orders of magnitude, so rounding can
/// only make the filter *keep* a borderline pair, never drop it.
const BOUND_SLACK: f64 = 1.0 + 1e-9;

/// Per-vector statistics backing the upper bounds — built once per
/// attribute per variant, then O(1) per touched pair.
struct VariantStats {
    /// Euclidean norm (`0.0` for an empty vector).
    norm: f64,
    /// Largest single term weight.
    max_weight: f64,
    /// `prefix[k]` = sum of the `k` largest squared weights;
    /// `prefix[len]` = `norm²`.
    prefix: Vec<f64>,
}

impl VariantStats {
    fn build(vector: &TermVector) -> Self {
        let mut squares: Vec<f64> = vector.id_entries().iter().map(|(_, w)| w * w).collect();
        squares.sort_unstable_by(|a, b| b.total_cmp(a));
        let mut prefix = Vec::with_capacity(squares.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for sq in squares {
            acc += sq;
            prefix.push(acc);
        }
        Self {
            norm: vector.norm(),
            max_weight: vector
                .id_entries()
                .iter()
                .map(|(_, w)| *w)
                .fold(0.0, f64::max),
            prefix,
        }
    }

    /// Upper bound on the dot product with `other` given at most `shared`
    /// common terms: the smaller of the count bound and the prefix-mass
    /// (Cauchy–Schwarz) bound.
    fn dot_bound(&self, other: &Self, shared: usize) -> f64 {
        let count_bound = shared as f64 * self.max_weight * other.max_weight;
        let a = self.prefix[shared.min(self.prefix.len() - 1)];
        let b = other.prefix[shared.min(other.prefix.len() - 1)];
        count_bound.min((a * b).sqrt())
    }

    /// True when a pair sharing `shared` terms could still reach cosine
    /// `threshold` against `other` — i.e. the pair must be exact-scored.
    fn may_reach(&self, other: &Self, shared: usize, threshold: f64) -> bool {
        if self.norm == 0.0 || other.norm == 0.0 {
            // An empty/zero variant has cosine exactly 0 < τ.
            return false;
        }
        self.dot_bound(other, shared) * BOUND_SLACK >= threshold * self.norm * other.norm
    }
}

/// Index-probes one evidence channel: for each attribute `a` (ascending),
/// its term ids are streamed through the postings of attributes `< a`,
/// counting shared terms per touched pair; `passes(p, q, shared)` then
/// decides which touched pairs survive. Pairs never touched share no term
/// and have an exact-zero cosine. `n_terms` is the arena size (ids are
/// dense); `terms_of` must push each of attribute `a`'s distinct ids once.
///
/// Returns the surviving `(p, q)` pairs, `p < q`, unsorted.
fn probe_channel(
    n: usize,
    n_terms: usize,
    mut terms_of: impl FnMut(usize, &mut Vec<u32>),
    mut passes: impl FnMut(usize, usize, usize) -> bool,
) -> Vec<(u32, u32)> {
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); n_terms];
    let mut counts: Vec<u32> = vec![0; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut survivors: Vec<(u32, u32)> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    for a in 0..n {
        ids.clear();
        terms_of(a, &mut ids);
        for &t in &ids {
            for &b in &postings[t as usize] {
                if counts[b as usize] == 0 {
                    touched.push(b);
                }
                counts[b as usize] += 1;
            }
        }
        for &b in &touched {
            let shared = counts[b as usize] as usize;
            counts[b as usize] = 0;
            if passes(b as usize, a, shared) {
                survivors.push((b, a as u32));
            }
        }
        touched.clear();
        for &t in &ids {
            postings[t as usize].push(a as u32);
        }
    }
    survivors
}

/// Merges two `(p, q)`-pair lists into the sorted union, tagging each pair
/// with which list(s) it came from.
fn merge_pair_lists(
    mut first: Vec<(u32, u32)>,
    mut second: Vec<(u32, u32)>,
) -> Vec<(u32, u32, bool, bool)> {
    first.sort_unstable();
    second.sort_unstable();
    let mut out = Vec::with_capacity(first.len().max(second.len()));
    let (mut i, mut j) = (0, 0);
    while i < first.len() || j < second.len() {
        let take_first = j >= second.len() || (i < first.len() && first[i] <= second[j]);
        let take_second = i >= first.len() || (j < second.len() && second[j] <= first[i]);
        let pair = if take_first { first[i] } else { second[j] };
        out.push((pair.0, pair.1, take_first, take_second));
        if take_first {
            i += 1;
        }
        if take_second {
            j += 1;
        }
    }
    out
}

/// The threshold-filtered sparse build (see the module docs for the bound
/// derivation and the storage contract).
pub(crate) fn compute_filtered(
    schema: &DualSchema,
    lsi_config: LsiConfig,
    threshold: f64,
) -> (SimilarityTable, PairCounts) {
    let n = schema.len();
    let n_terms = schema.arena().len();
    let attrs = &schema.attributes;

    // Bound statistics for every variant vector the two channels compare.
    let value_stats: Vec<VariantStats> = attrs
        .iter()
        .map(|a| VariantStats::build(&a.values))
        .collect();
    let translated_stats: Vec<VariantStats> = attrs
        .iter()
        .map(|a| VariantStats::build(&a.translated_values))
        .collect();
    let link_stats: Vec<VariantStats> = attrs
        .iter()
        .map(|a| VariantStats::build(&a.links))
        .collect();

    // Value channel: probe over the union vocabulary (raw ∪ translated),
    // then bound-check against the variant `vsim` would actually compare.
    let value_survivors = probe_channel(
        n,
        n_terms,
        |a, ids| {
            attrs[a]
                .values
                .union_ids(&attrs[a].translated_values, |id| ids.push(id))
        },
        |p, q, shared| {
            let (sp, sq) = if attrs[p].language == attrs[q].language {
                (&value_stats[p], &value_stats[q])
            } else {
                (&translated_stats[p], &translated_stats[q])
            };
            sp.may_reach(sq, shared, threshold)
        },
    );
    let link_survivors = probe_channel(
        n,
        n_terms,
        |a, ids| {
            for (id, _) in attrs[a].links.id_entries() {
                ids.push(*id);
            }
        },
        |p, q, shared| link_stats[p].may_reach(&link_stats[q], shared, threshold),
    );

    // Exact-score the bound survivors with the dense pass's float ops,
    // then keep only true `≥ τ` channels — so the stored set does not
    // depend on bound tightness, only on the oracle scores.
    let mut scored: u64 = 0;
    let mut evidence = Evidence::builder();
    for (p, q, check_value, check_link) in merge_pair_lists(value_survivors, link_survivors) {
        let (p, q) = (p as usize, q as usize);
        let vs = if check_value {
            scored += 1;
            vsim(schema, p, q)
        } else {
            0.0
        };
        let ls = if check_link {
            scored += 1;
            lsim(schema, p, q)
        } else {
            0.0
        };
        let keep_value = vs >= threshold;
        let keep_link = ls >= threshold;
        if keep_value || keep_link {
            evidence.push(
                p,
                q,
                if keep_value { vs } else { 0.0 },
                if keep_link { ls } else { 0.0 },
            );
        }
    }

    (
        SimilarityTable::sparse(schema, lsi_config, evidence.finish(n)),
        PairCounts::of_total(n, scored),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_stats_prefix_sums_are_descending_partial_norms() {
        let mut builder = wiki_text::TermArenaBuilder::new();
        for t in ["a", "b", "c"] {
            builder.intern(t);
        }
        let (arena, _) = builder.freeze();
        let vector = TermVector::from_ids(arena, vec![(0, 1.0), (1, 3.0), (2, 2.0)]).unwrap();
        let stats = VariantStats::build(&vector);
        assert_eq!(stats.max_weight, 3.0);
        assert_eq!(stats.prefix, vec![0.0, 9.0, 13.0, 14.0]);
        assert!((stats.prefix[3].sqrt() - stats.norm).abs() < 1e-12);
        // `shared` beyond the vector length clamps to the full norm².
        assert_eq!(stats.dot_bound(&stats, 10), 14.0);
        // One shared term: count bound 9 beats mass bound 9 (tie).
        assert_eq!(stats.dot_bound(&stats, 1), 9.0);
    }

    #[test]
    fn merge_pair_lists_unions_and_tags() {
        let merged = merge_pair_lists(vec![(1, 2), (0, 3)], vec![(0, 3), (2, 4)]);
        assert_eq!(
            merged,
            vec![(0, 3, true, true), (1, 2, true, false), (2, 4, false, true)]
        );
    }

    #[test]
    fn probe_channel_counts_shared_terms() {
        // Attribute term sets: 0 → {0,1}, 1 → {1,2}, 2 → {0,1,2}.
        let sets: Vec<Vec<u32>> = vec![vec![0, 1], vec![1, 2], vec![0, 1, 2]];
        let mut observed: Vec<(usize, usize, usize)> = Vec::new();
        let survivors = probe_channel(
            3,
            3,
            |a, ids| ids.extend(&sets[a]),
            |p, q, shared| {
                observed.push((p, q, shared));
                shared >= 2
            },
        );
        observed.sort_unstable();
        assert_eq!(observed, vec![(0, 1, 1), (0, 2, 2), (1, 2, 2)]);
        assert_eq!(survivors, vec![(0, 2), (1, 2)]);
    }
}
