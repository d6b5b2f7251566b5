//! Shared measurement kernels for the interning benchmarks.
//!
//! The criterion bench (`benches/interning.rs`) and the recording binary
//! (`src/bin/interning.rs`, which writes the repo-root `BENCH_5.json`) time
//! the *same* candidate-pair cosine sweep over two representations of the
//! same vectors. The sweep and the representation-swapping helper live here
//! so the two harnesses cannot drift apart and silently measure different
//! kernels.

use wiki_corpus::Language;
use wiki_text::TermVector;
use wikimatch::schema::CandidateIndex;
use wikimatch::DualSchema;

/// Per-attribute vector sets for the cosine sweep: either the schema's
/// shared-arena vectors (interned `u32`-id compares) or detached
/// per-vector-arena copies (resolved-string compares — the walk the
/// string-keyed representation paid).
pub struct SweepInput {
    /// Language of each attribute (selects raw vs translated `vsim`).
    pub languages: Vec<Language>,
    /// Raw value vectors, one per attribute.
    pub values: Vec<TermVector>,
    /// Dictionary-translated value vectors, one per attribute.
    pub translated: Vec<TermVector>,
    /// Link-cluster vectors, one per attribute.
    pub links: Vec<TermVector>,
}

impl SweepInput {
    /// The schema's own shared-arena vectors.
    pub fn interned(schema: &DualSchema) -> Self {
        Self {
            languages: schema
                .attributes
                .iter()
                .map(|a| a.language.clone())
                .collect(),
            values: schema.attributes.iter().map(|a| a.values.clone()).collect(),
            translated: schema
                .attributes
                .iter()
                .map(|a| a.translated_values.clone())
                .collect(),
            links: schema.attributes.iter().map(|a| a.links.clone()).collect(),
        }
    }

    /// Re-hosts every vector on a private arena holding just its own terms,
    /// forcing pairwise operations onto the resolved-string comparison walk
    /// of the string-keyed representation.
    pub fn detached(schema: &DualSchema) -> Self {
        let interned = Self::interned(schema);
        Self {
            languages: interned.languages,
            values: interned.values.iter().map(detach).collect(),
            translated: interned.translated.iter().map(detach).collect(),
            links: interned.links.iter().map(detach).collect(),
        }
    }
}

/// Re-hosts one vector on a private arena holding just its own terms — the
/// per-vector layout of the string-keyed representation.
pub fn detach(vector: &TermVector) -> TermVector {
    let entries = vector.iter().map(|(t, w)| (t.to_string(), w)).collect();
    TermVector::from_sorted_entries(entries).expect("iter output is term-sorted")
}

/// The candidate-pair cosine sweep (`vsim` on value candidates, `lsim` on
/// link candidates); returns the accumulated similarity mass so the two
/// representations can be cross-checked for bit-equality.
pub fn cosine_sweep(index: &CandidateIndex, input: &SweepInput) -> f64 {
    let n = input.languages.len();
    let mut acc = 0.0f64;
    for p in 0..n {
        for q in (p + 1)..n {
            if index.value_candidate(p, q) {
                acc += if input.languages[p] == input.languages[q] {
                    input.values[p].cosine(&input.values[q])
                } else {
                    input.translated[p].cosine(&input.translated[q])
                };
            }
            if index.link_candidate(p, q) {
                acc += input.links[p].cosine(&input.links[q]);
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Dataset, SyntheticConfig};
    use wikimatch::MatchEngine;

    #[test]
    fn interned_and_detached_sweeps_are_bit_identical() {
        let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
        let prepared = engine.prepared("film").unwrap();
        let interned = SweepInput::interned(&prepared.schema);
        let detached = SweepInput::detached(&prepared.schema);
        let index = CandidateIndex::build(&prepared.schema);
        let a = cosine_sweep(&index, &interned);
        let b = cosine_sweep(&index, &detached);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a > 0.0);
    }
}
