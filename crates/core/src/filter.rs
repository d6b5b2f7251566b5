//! Candidate generation: which attribute pairs a similarity-table build
//! scores, in the exact build, the delta patch and the threshold-filtered
//! build ([`ComputeMode::Filtered`](crate::similarity::ComputeMode::Filtered)).
//!
//! All vector weights are positive term counts, so a pair that shares no
//! value (resp. link) term has `vsim` (resp. `lsim`) exactly `0.0`.
//! `candidate_pairs` finds the pairs that share a term with one join over
//! the schema's term postings, and hands each, with the number of terms it
//! shares on a channel, to that channel's admission predicate. The exact
//! build and the delta patcher admit every pair; the filtered build admits
//! a pair only when a *provable* upper bound on its cosine can reach the
//! threshold `τ`, in the style of the similarity-join literature's
//! prefix/length filters.
//!
//! ## The bound
//!
//! For a pair with vectors `a`, `b` (the variant `vsim`/`lsim` would
//! compare — raw values for same-language pairs, dictionary-translated for
//! cross-language pairs, links for the link channel) that shares `c` terms
//! on the channel, two upper bounds on `a · b` hold:
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

use crate::schema::{AttributeStats, DualSchema};
use crate::similarity::{lsim, vsim, Evidence, PairCounts, SimilarityTable};

/// A pair `p < q` that shares a term, with the channels a build scores:
/// `value` when it shares a value term and the value predicate admitted
/// it, `link` likewise for link terms. At least one of the two is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    pub(crate) p: u32,
    pub(crate) q: u32,
    pub(crate) value: bool,
    pub(crate) link: bool,
}

impl Candidate {
    /// `(vsim, lsim)` of the pair, `0.0` on a channel that is not scored.
    pub(crate) fn scores(&self, schema: &DualSchema) -> (f64, f64) {
        let (p, q) = (self.p as usize, self.q as usize);
        (
            if self.value { vsim(schema, p, q) } else { 0.0 },
            if self.link { lsim(schema, p, q) } else { 0.0 },
        )
    }

    /// Number of channel cosines [`scores`](Self::scores) evaluates.
    pub(crate) fn cosines(&self) -> u64 {
        u64::from(self.value) + u64::from(self.link)
    }
}

/// One channel's postings, both ways round: `terms[term_starts[p]..
/// term_starts[p + 1]]` are attribute `p`'s distinct term ids, and
/// `holders[holder_starts[t]..holder_starts[t + 1]]` the attributes that
/// hold term `t`, ascending.
struct Postings {
    term_starts: Vec<usize>,
    terms: Vec<u32>,
    holder_starts: Vec<usize>,
    holders: Vec<u32>,
    /// Per term, the position of the next row to visit it.
    cursor: Vec<usize>,
}

impl Postings {
    /// `terms_of(attribute, ids)` pushes each of the attribute's distinct
    /// term ids once.
    fn build(schema: &DualSchema, terms_of: impl Fn(&AttributeStats, &mut Vec<u32>)) -> Self {
        let n_terms = schema.arena().len();
        let (mut term_starts, mut terms) = (vec![0], Vec::new());
        for attribute in &schema.attributes {
            terms_of(attribute, &mut terms);
            term_starts.push(terms.len());
        }
        // A counting sort by term; filling in row order keeps every list
        // ascending.
        let mut holder_starts = vec![0; n_terms + 1];
        for &t in &terms {
            holder_starts[t as usize + 1] += 1;
        }
        for t in 0..n_terms {
            holder_starts[t + 1] += holder_starts[t];
        }
        let mut cursor = holder_starts[..n_terms].to_vec();
        let mut holders = vec![0; terms.len()];
        for (p, row) in term_starts.windows(2).enumerate() {
            for &t in &terms[row[0]..row[1]] {
                holders[cursor[t as usize]] = p as u32;
                cursor[t as usize] += 1;
            }
        }
        cursor.copy_from_slice(&holder_starts[..n_terms]);
        Self {
            term_starts,
            terms,
            holder_starts,
            holders,
            cursor,
        }
    }

    /// Calls `touch(q)` once per term that row `p` shares with a later
    /// attribute `q`. Every row must be visited once, in ascending order.
    fn visit_row(&mut self, p: usize, mut touch: impl FnMut(usize)) {
        for &t in &self.terms[self.term_starts[p]..self.term_starts[p + 1]] {
            let t = t as usize;
            // Rows and lists both ascend, so the rows below `p` have passed
            // the cursor and `p` is next; its partners are the rest.
            let at = self.cursor[t];
            debug_assert_eq!(self.holders[at] as usize, p);
            self.cursor[t] = at + 1;
            for &q in &self.holders[at + 1..self.holder_starts[t + 1]] {
                touch(q as usize);
            }
        }
    }
}

/// Every candidate pair of `schema`, in canonical order: each pair `p < q`
/// that shares a value term (of `values` ∪ `translated_values`, since
/// `vsim` compares either) or a link term, and that the channel's
/// predicate, called as `admit(p, q, shared)` with the number of terms the
/// pair shares on that channel, admits on at least one channel.
///
/// Rows `p` are walked in ascending order. Shared terms are counted per
/// partner and channel, and the row's partners come out in ascending order
/// from an `n`-bit row bitmap, so nothing is sorted. Time is O(postings
/// walked + n²/64 + candidates), memory O(n + terms + postings +
/// candidates): nothing of size `n·(n-1)/2`.
pub(crate) fn candidate_pairs(
    schema: &DualSchema,
    mut admit_value: impl FnMut(usize, usize, usize) -> bool,
    mut admit_link: impl FnMut(usize, usize, usize) -> bool,
) -> Vec<Candidate> {
    let _span = wiki_obs::Span::enter("candidate_index");
    let n = schema.len();
    let mut channels = [
        Postings::build(schema, |a, ids| {
            a.values.union_ids(&a.translated_values, |id| ids.push(id))
        }),
        Postings::build(schema, |a, ids| {
            ids.extend(a.links.id_entries().iter().map(|(id, _)| *id))
        }),
    ];
    let mut shared = vec![[0u32; 2]; n];
    let mut row = vec![0u64; n.div_ceil(64)];
    let mut candidates = Vec::new();
    for p in 0..n {
        for (channel, postings) in channels.iter_mut().enumerate() {
            postings.visit_row(p, |q| {
                shared[q][channel] += 1;
                row[q / 64] |= 1 << (q % 64);
            });
        }
        for (w, word) in row.iter_mut().enumerate().skip((p + 1) / 64) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let q = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let [values, links] = std::mem::take(&mut shared[q]).map(|c| c as usize);
                let value = values > 0 && admit_value(p, q, values);
                let link = links > 0 && admit_link(p, q, links);
                if value || link {
                    let (p, q) = (p as u32, q as u32);
                    candidates.push(Candidate { p, q, value, link });
                }
            }
        }
    }
    candidates
}

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

/// The threshold-filtered sparse build (see the module docs for the bound
/// derivation and the storage contract).
pub(crate) fn compute_filtered(
    schema: &DualSchema,
    lsi_config: LsiConfig,
    threshold: f64,
) -> (SimilarityTable, PairCounts) {
    let n = schema.len();
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

    // The value channel counts shared terms of the union vocabulary (raw ∪
    // translated), then bound-checks against the variant `vsim` would
    // actually compare.
    let candidates = candidate_pairs(
        schema,
        |p, q, shared| {
            let (sp, sq) = if attrs[p].language == attrs[q].language {
                (&value_stats[p], &value_stats[q])
            } else {
                (&translated_stats[p], &translated_stats[q])
            };
            sp.may_reach(sq, shared, threshold)
        },
        |p, q, shared| link_stats[p].may_reach(&link_stats[q], shared, threshold),
    );

    // Exact-score the bound survivors with the dense pass's float ops,
    // then keep only true `≥ τ` channels — so the stored set does not
    // depend on bound tightness, only on the oracle scores.
    let mut scored: u64 = 0;
    let mut evidence = Evidence::builder();
    for candidate in candidates {
        scored += candidate.cosines();
        let (vs, ls) = candidate.scores(schema);
        let keep_value = vs >= threshold;
        let keep_link = ls >= threshold;
        if keep_value || keep_link {
            evidence.push(
                candidate.p as usize,
                candidate.q as usize,
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
    use std::collections::BTreeSet;

    use wiki_corpus::{Dataset, Language, SyntheticConfig};
    use wiki_translate::TitleDictionary;

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

    /// The brute-force reference: every pair `p < q` that shares a term, in
    /// canonical order, with the sizes of the intersections of the two
    /// attributes' union value-id sets and of their link-id sets.
    fn reference(schema: &DualSchema) -> Vec<(usize, usize, usize, usize)> {
        let ids = |vectors: &[&TermVector]| -> BTreeSet<u32> {
            let entries = vectors.iter().flat_map(|v| v.id_entries());
            entries.map(|(id, _)| *id).collect()
        };
        let sets: Vec<_> = schema
            .attributes
            .iter()
            .map(|a| (ids(&[&a.values, &a.translated_values]), ids(&[&a.links])))
            .collect();
        let mut pairs = Vec::new();
        for (p, (values_p, links_p)) in sets.iter().enumerate() {
            for (q, (values_q, links_q)) in sets.iter().enumerate().skip(p + 1) {
                let values = values_p.intersection(values_q).count();
                let links = links_p.intersection(links_q).count();
                if values + links > 0 {
                    pairs.push((p, q, values, links));
                }
            }
        }
        pairs
    }

    /// Checks the generator against the reference: each predicate sees
    /// exactly the pairs that share a term on its channel, with the true
    /// intersection size, and the output is the reference's admitted pairs
    /// in canonical order.
    fn assert_matches_reference(
        schema: &DualSchema,
        admit_value: impl Fn(usize, usize, usize) -> bool,
        admit_link: impl Fn(usize, usize, usize) -> bool,
    ) -> Vec<Candidate> {
        let (mut seen_values, mut seen_links) = (Vec::new(), Vec::new());
        let got = candidate_pairs(
            schema,
            |p, q, shared| {
                seen_values.push((p, q, shared));
                admit_value(p, q, shared)
            },
            |p, q, shared| {
                seen_links.push((p, q, shared));
                admit_link(p, q, shared)
            },
        );
        let (mut want_values, mut want_links, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for (p, q, values, links) in reference(schema) {
            want_values.extend((values > 0).then_some((p, q, values)));
            want_links.extend((links > 0).then_some((p, q, links)));
            let value = values > 0 && admit_value(p, q, values);
            let link = links > 0 && admit_link(p, q, links);
            let (p, q) = (p as u32, q as u32);
            want.extend((value || link).then_some(Candidate { p, q, value, link }));
        }
        seen_values.sort_unstable();
        seen_links.sort_unstable();
        assert_eq!(seen_values, want_values, "value predicate calls");
        assert_eq!(seen_links, want_links, "link predicate calls");
        assert_eq!(got, want, "candidates");
        got
    }

    /// Predicates that reject some pairs on each channel.
    fn admit_some(p: usize, q: usize, shared: usize) -> bool {
        !(p + 2 * q + shared).is_multiple_of(3)
    }

    fn admit_odd(p: usize, q: usize, _: usize) -> bool {
        (p ^ q) & 1 == 1
    }

    /// A hand-built attribute: language, raw values, translated values and
    /// links.
    type Spec<'a> = (&'a Language, &'a [&'a str], &'a [&'a str], &'a [&'a str]);

    #[test]
    fn candidate_pairs_match_the_reference_on_a_hand_built_schema() {
        // 0 and 1 share two value terms (one only through 0's translation)
        // and a link, 0 and 4 a value, and 1 and 3 a value and a link; 2 is
        // empty. 5's value spells a link term of 0 and 1, which makes no
        // candidate: the two channels never meet.
        let (pt, en) = (Language::Pt, Language::En);
        let attributes: [Spec; 6] = [
            (&pt, &["a", "b"], &["x", "b"], &["e1"]),
            (&en, &["x", "b", "c"], &["x", "b", "c"], &["e1", "e2"]),
            (&pt, &[], &[], &[]),
            (&en, &["c"], &["c"], &["e2"]),
            (&pt, &["a"], &["a"], &[]),
            (&en, &["e1"], &["e1"], &[]),
        ];
        let vector = |terms: &[&str]| TermVector::from_terms(terms.iter().copied());
        let attribute = |(i, (language, values, translated, links))| AttributeStats {
            language: Language::clone(language),
            name: format!("a{i}"),
            occurrences: 1,
            values: vector(values),
            translated_values: vector(translated),
            raw_values: vector(values),
            translated_raw_values: vector(translated),
            links: vector(links),
            occurrence_pattern: vec![true],
        };
        let attributes = attributes.into_iter().enumerate().map(attribute).collect();
        let schema = DualSchema::from_parts((pt, en), "Filme".into(), "Film".into(), attributes, 1);
        assert_eq!(
            reference(&schema),
            [(0, 1, 2, 1), (0, 4, 1, 0), (1, 3, 1, 1)]
        );
        let candidate = |p, q, value, link| Candidate { p, q, value, link };
        assert_eq!(
            assert_matches_reference(&schema, |_, _, _| true, |_, _, _| true),
            [
                candidate(0, 1, true, true),
                candidate(0, 4, true, false),
                candidate(1, 3, true, true)
            ]
        );
        // A predicate that rejects a channel leaves the other standing, and
        // a pair rejected on both channels is no candidate.
        assert_eq!(
            assert_matches_reference(&schema, |p, _, _| p != 0, |_, q, _| q != 3),
            [candidate(0, 1, false, true), candidate(1, 3, true, false)]
        );
        assert_matches_reference(&schema, admit_some, admit_odd);
    }

    #[test]
    fn candidate_pairs_match_the_reference_on_every_synthetic_type() {
        for config in [SyntheticConfig::tiny(), SyntheticConfig::small()] {
            for dataset in [Dataset::pt_en(&config), Dataset::vn_en(&config)] {
                let (other, english) = &dataset.languages;
                let dictionary = TitleDictionary::from_corpus(&dataset.corpus, other, english);
                for pairing in &dataset.types {
                    let schema = DualSchema::build(
                        &dataset.corpus,
                        other,
                        &pairing.label_other,
                        &pairing.label_en,
                        &dictionary,
                    );
                    assert_matches_reference(&schema, |_, _, _| true, |_, _, _| true);
                    assert_matches_reference(&schema, admit_some, admit_odd);
                }
            }
        }
    }
}
