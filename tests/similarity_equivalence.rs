//! The candidate-pruned, parallel similarity-table build must be a pure
//! optimisation: for any synthetic corpus, the table it produces is
//! byte-identical to the dense all-pairs reference pass.
//!
//! This is the safety net under the sparse-pipeline tentpole. The pruned
//! path may only skip work it can prove irrelevant (value/link cosines of
//! attribute pairs sharing no term), so every score must come out bit for
//! bit the same — not approximately the same — as the dense pass, on every
//! type of randomly-drawn corpora in both language pairs.

use proptest::prelude::*;

use wikimatch_suite::adversarial::{adversarial_pt_en, AdversarialFlavor};
use wikimatch_suite::{wiki_corpus, wiki_text, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::{ComputeMode, MatchEngine, SimilarityTable, WikiMatchConfig};

fn config_with(seed: u64, extra_concepts: usize) -> SyntheticConfig {
    SyntheticConfig {
        seed,
        pairs_per_type_pt: 18,
        pairs_per_type_vn: 12,
        person_pool: 60,
        extra_concepts_per_type: extra_concepts,
        ..SyntheticConfig::default()
    }
}

/// Every lookup `pair(p, q)` and `pair(q, p)`, `p != q`, of `table` carries
/// the bits of the Dense oracle's pair — pairs without evidence included,
/// which read LSI on demand. The expected bits come from the oracle's
/// materialized pairs, not from its own lookups, so a lookup shortcut both
/// tables share cannot vouch for itself.
fn assert_lookups_match_the_oracle(oracle: &SimilarityTable, table: &SimilarityTable, label: &str) {
    let n = oracle.attribute_count();
    assert_eq!(table.attribute_count(), n, "{label}");
    let bits = |pair: wikimatch::CandidatePair| {
        (
            pair.p,
            pair.q,
            pair.vsim.to_bits(),
            pair.lsim.to_bits(),
            pair.lsi.to_bits(),
        )
    };
    let expected: Vec<_> = oracle.pairs().into_iter().map(bits).collect();
    assert_eq!(expected.len(), n * n.saturating_sub(1) / 2, "{label}");
    let mut expected = expected.into_iter();
    for p in 0..n {
        for q in (p + 1)..n {
            let want = expected.next();
            for (a, b) in [(p, q), (q, p)] {
                assert_eq!(table.pair(a, b).map(bits), want, "{label}: pair({a}, {b})");
            }
        }
    }
}

fn assert_tables_byte_identical(dataset: Dataset) {
    let dense = MatchEngine::builder(dataset.clone())
        .compute_mode(ComputeMode::Dense)
        .build();
    let pruned = MatchEngine::builder(dataset).build();
    for pairing in &dense.dataset().types.clone() {
        let d = dense.similarity(&pairing.type_id).unwrap();
        let p = pruned.similarity(&pairing.type_id).unwrap();
        assert_lookups_match_the_oracle(&d, &p, &pairing.type_id);
        assert_eq!(d.pairs().len(), p.pairs().len());
        for (dp, pp) in d.pairs().iter().zip(p.pairs()) {
            assert_eq!((dp.p, dp.q), (pp.p, pp.q));
            assert_eq!(
                dp.vsim.to_bits(),
                pp.vsim.to_bits(),
                "vsim diverges for {} pair ({}, {})",
                pairing.type_id,
                dp.p,
                dp.q
            );
            assert_eq!(
                dp.lsim.to_bits(),
                pp.lsim.to_bits(),
                "lsim diverges for {} pair ({}, {})",
                pairing.type_id,
                dp.p,
                dp.q
            );
            assert_eq!(
                dp.lsi.to_bits(),
                pp.lsi.to_bits(),
                "lsi diverges for {} pair ({}, {})",
                pairing.type_id,
                dp.p,
                dp.q
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any generator seed, pruned and dense tables agree bit for bit on
    /// every entity type of the Vn-En pair (and scaled-up schemas keep the
    /// guarantee, exercising the inverted index on generated concepts).
    #[test]
    fn pruned_equals_dense_on_random_corpora(
        seed in 0u64..1_000,
        extra in 0usize..12,
    ) {
        assert_tables_byte_identical(Dataset::vn_en(&config_with(seed, extra)));
    }
}

/// One deterministic Pt-En check over all fourteen types (kept out of the
/// proptest loop: the full pair is ~10× the work of Vn-En).
#[test]
fn pruned_equals_dense_on_the_pt_en_pair() {
    assert_tables_byte_identical(Dataset::pt_en(&config_with(7, 6)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The dense/pruned bit-identity also holds on the adversarial corpus
    /// shapes (Zipf-skewed weights, empty/singleton vectors, all-pairs
    /// cliques, unicode-heavy values) — exactly the inputs where a sparse
    /// shortcut is most tempted to drift.
    #[test]
    fn pruned_equals_dense_on_adversarial_corpora(
        seed in 0u64..1_000,
        flavor_index in 0usize..4,
    ) {
        let flavor = AdversarialFlavor::ALL[flavor_index];
        assert_tables_byte_identical(adversarial_pt_en(flavor, seed));
    }
}

/// FNV-1a over the bit patterns of every score of every type's table, in
/// canonical pair order — one u64 that changes if any float of any table
/// moves by one ulp.
fn table_bits_hash(engine: &MatchEngine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for pairing in &engine.dataset().types {
        let table = engine.similarity(&pairing.type_id).unwrap();
        for pair in table.pairs() {
            fold(pair.vsim.to_bits());
            fold(pair.lsim.to_bits());
            fold(pair.lsi.to_bits());
        }
    }
    h
}

/// The interned pipeline reproduces the string-keyed pipeline's results
/// **bit for bit**: these golden hashes were captured from the last
/// string-keyed build (PR 4 seed) on the exact same datasets, before the
/// `TermArena` refactor landed. If any vocabulary-interning change alters
/// one bit of one score anywhere, these constants catch it.
#[test]
fn table_bits_match_the_pre_interning_golden_values() {
    let cases: [(&str, Dataset, u64); 3] = [
        (
            "pt_tiny",
            Dataset::pt_en(&SyntheticConfig::tiny()),
            0xef672a275750ed0a,
        ),
        (
            "vn_tiny",
            Dataset::vn_en(&SyntheticConfig::tiny()),
            0x14a39a7e0ac36a19,
        ),
        (
            "vn_seeded",
            Dataset::vn_en(&config_with(7, 6)),
            0xbfea5a7d37f94a8e,
        ),
    ];
    for (name, dataset, expected) in cases {
        let engine = MatchEngine::builder(dataset).build();
        let found = table_bits_hash(&engine);
        assert_eq!(
            found, expected,
            "{name}: table bits diverged from the string-keyed seed \
             (found {found:#018x}, golden {expected:#018x})"
        );
    }
}

/// FNV-1a over the match clusters of every type `align_all` returns, in
/// dataset type order: per type the cluster count, per cluster the member
/// count and then the member indices in insertion order. One u64 that moves
/// if any cluster gains, loses or reorders a member, or if clusters reorder.
fn alignment_hash(engine: &MatchEngine) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for alignment in engine.align_all() {
        let clusters = alignment.matches.clusters();
        fold(clusters.len() as u64);
        for cluster in clusters {
            fold(cluster.members.len() as u64);
            for &member in &cluster.members {
                fold(member as u64);
            }
        }
    }
    h
}

/// The default configuration and every ablation of Table 3 / Figure 3.
fn alignment_configs() -> [(&'static str, WikiMatchConfig); 9] {
    let base = WikiMatchConfig::default();
    [
        ("default", base),
        ("-vsim", base.without_vsim()),
        ("-lsim", base.without_lsim()),
        ("-LSI", base.without_lsi()),
        ("-IntegrateMatches", base.without_integrate_constraint()),
        ("-ReviseUncertain", base.without_revise_uncertain()),
        ("-InductiveGrouping", base.without_inductive_grouping()),
        ("single step", base.single_step()),
        ("random", base.with_random_ordering()),
    ]
}

/// The alignment output is pinned as well as the tables: these golden
/// hashes were captured from the nested-loop `ReviseUncertain` over the
/// full `above_lsi` queue, before the evidence-only queue and the packed
/// grouping scores landed. Any change to the queue, the integration order
/// or one grouping-score bit that alters a cluster moves a hash.
#[test]
fn alignment_clusters_match_the_golden_values() {
    // One row per dataset, one column per `alignment_configs()` entry.
    let cases: [(&str, Dataset, [u64; 9]); 3] = [
        (
            "pt_tiny",
            Dataset::pt_en(&SyntheticConfig::tiny()),
            [
                0x56eb34d0f88fe212,
                0x9f17c1397365dac4,
                0x027869de59c69b38,
                0xf6c83a0003d3d22b,
                0x62f1a529756aaa16,
                0x2be9c932daa8c30c,
                0x2a6e299a5645a471,
                0x4dd9ab1da0e6e0b9,
                0xc9cd9615f2782e2f,
            ],
        ),
        (
            "vn_tiny",
            Dataset::vn_en(&SyntheticConfig::tiny()),
            [
                0x2a838247e19a379a,
                0xe84f625d9ac65133,
                0x2a838247e19a379a,
                0xd36753002e51e9cc,
                0xdc810826ac789b28,
                0xbf470c55f8f6de73,
                0x75d7b8b11809864d,
                0xfa7c431da4f2beb9,
                0x85f2ac380a8d8494,
            ],
        ),
        (
            "vn_seeded",
            Dataset::vn_en(&config_with(7, 6)),
            [
                0xb3843f42747855ca,
                0x5a4aaf793b8f9db4,
                0xb3843f42747855ca,
                0x10fea14bed23f6d0,
                0xae7784f335c809e0,
                0xb20eef9bdb564cb2,
                0xe8bc77ddb3ec7747,
                0xde5e2419d1eeddfc,
                0xf027601b71ee234a,
            ],
        ),
    ];
    for (name, dataset, expected) in cases {
        let dataset = std::sync::Arc::new(dataset);
        for ((label, config), golden) in alignment_configs().into_iter().zip(expected) {
            let engine = MatchEngine::builder(dataset.clone()).config(config).build();
            let found = alignment_hash(&engine);
            assert_eq!(
                found, golden,
                "{name} {label}: alignment clusters diverged from the captured seed \
                 (found {found:#018x}, golden {golden:#018x})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The interned (shared-arena, integer-compare) merge walk and the
    /// string-compare fallback walk are the same function: for every
    /// attribute vector of a randomly drawn corpus, re-hosting the vector on
    /// a private arena (forcing the string path) reproduces every cosine
    /// bit for bit.
    #[test]
    fn interned_and_string_walks_agree_on_random_corpora(seed in 0u64..1_000) {
        let engine = MatchEngine::builder(Dataset::vn_en(&config_with(seed, 4))).build();
        for pairing in &engine.dataset().types.clone() {
            let schema = engine.schema(&pairing.type_id).unwrap();
            // Rebuild every value vector on its own private arena: pairwise
            // ops between rebuilt vectors must take the resolved-term path.
            let detached: Vec<_> = schema
                .attributes
                .iter()
                .map(|a| {
                    let entries = a
                        .translated_values
                        .iter()
                        .map(|(t, w)| (t.to_string(), w))
                        .collect();
                    wiki_text::TermVector::from_sorted_entries(entries)
                        .expect("iter output is term-sorted")
                })
                .collect();
            for p in 0..schema.len() {
                for q in (p + 1)..schema.len() {
                    let interned = schema.attributes[p]
                        .translated_values
                        .cosine(&schema.attributes[q].translated_values);
                    let string_path = detached[p].cosine(&detached[q]);
                    prop_assert_eq!(
                        interned.to_bits(),
                        string_path.to_bits(),
                        "type {} pair ({}, {})",
                        &pairing.type_id,
                        p,
                        q
                    );
                }
            }
        }
    }
}

/// The direct `SimilarityTable` entry points agree with the engine modes.
#[test]
fn compute_entry_points_are_consistent() {
    let dataset = Dataset::vn_en(&SyntheticConfig::tiny());
    let engine = MatchEngine::new(dataset);
    let prepared = engine.prepared("film").unwrap();
    let dense = SimilarityTable::compute_dense(&prepared.schema, engine.config().lsi);
    let default = SimilarityTable::compute(&prepared.schema, engine.config().lsi);
    assert_eq!(dense.pairs(), default.pairs());
    assert_eq!(default.pairs(), prepared.table.pairs());
}
