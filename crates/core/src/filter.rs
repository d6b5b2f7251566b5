//! Candidate generation: which attribute pairs a similarity-table build
//! scores, in the exact build and in the delta patch.
//!
//! All vector weights are positive term counts, so a pair that shares no
//! value (resp. link) term has `vsim` (resp. `lsim`) exactly `0.0`.
//! `candidate_pairs` finds the pairs that share a term with one join over
//! the schema's term postings and flags each with the channels on which it
//! shares one; every other channel cosine is a certified `0.0`. The
//! `candidate_pruning` suite checks that an exact build scores exactly the
//! brute-force count of those channels, and the tests below check the
//! generator against a brute-force reference.

use crate::schema::{AttributeStats, DualSchema};
use crate::similarity::{lsim, vsim};

/// A pair `p < q` that shares a term, with the channels a build scores:
/// `value` when it shares a value term, `link` when it shares a link term.
/// At least one of the two is set.
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
/// `vsim` compares either) or a link term.
///
/// Rows `p` are walked in ascending order. Each channel marks the row's
/// partners in an `n`-bit row bitmap, and the partners come out of the two
/// bitmaps in ascending order, so nothing is sorted. Time is O(postings
/// walked + n²/64 + candidates), memory O(n + terms + postings +
/// candidates): nothing of size `n·(n-1)/2`.
pub(crate) fn candidate_pairs(schema: &DualSchema) -> Vec<Candidate> {
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
    let mut rows = [vec![0u64; n.div_ceil(64)], vec![0u64; n.div_ceil(64)]];
    let mut candidates = Vec::new();
    for p in 0..n {
        for (postings, row) in channels.iter_mut().zip(&mut rows) {
            postings.visit_row(p, |q| row[q / 64] |= 1 << (q % 64));
        }
        let [values, links] = &mut rows;
        let words = values.iter_mut().zip(links.iter_mut()).enumerate();
        for (w, (value_word, link_word)) in words.skip((p + 1) / 64) {
            let (value_bits, link_bits) = (std::mem::take(value_word), std::mem::take(link_word));
            let mut bits = value_bits | link_bits;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                candidates.push(Candidate {
                    p: p as u32,
                    q: (w * 64) as u32 + bit,
                    value: value_bits >> bit & 1 == 1,
                    link: link_bits >> bit & 1 == 1,
                });
            }
        }
    }
    candidates
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use wiki_corpus::{Dataset, Language, SyntheticConfig};
    use wiki_text::TermVector;
    use wiki_translate::TitleDictionary;

    use super::*;

    /// The brute-force reference: every pair `p < q` whose union value-id
    /// sets or link-id sets intersect, in canonical order, flagged per
    /// channel.
    fn reference(schema: &DualSchema) -> Vec<Candidate> {
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
                let value = !values_p.is_disjoint(values_q);
                let link = !links_p.is_disjoint(links_q);
                let (p, q) = (p as u32, q as u32);
                pairs.extend((value || link).then_some(Candidate { p, q, value, link }));
            }
        }
        pairs
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
        let candidate = |p, q, value, link| Candidate { p, q, value, link };
        let want = [
            candidate(0, 1, true, true),
            candidate(0, 4, true, false),
            candidate(1, 3, true, true),
        ];
        assert_eq!(reference(&schema), want);
        assert_eq!(candidate_pairs(&schema), want);
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
                    assert_eq!(candidate_pairs(&schema), reference(&schema));
                }
            }
        }
    }
}
