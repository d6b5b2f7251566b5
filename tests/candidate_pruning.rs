//! The exact build's count proof. The candidate filter
//! (`crates/core/src/filter.rs`) must be sound and tight: an exact
//! (`Pruned`) similarity build scores one channel cosine per pair and
//! channel on which the pair shares a term, and no other, which a
//! brute-force count checks; the equivalence suites check that the scores
//! it skips are the `Dense` oracle's exact `0.0`. Every mode's
//! `scored`/`pruned` split covers the whole channel grid.
//!
//! The proptests run over random synthetic corpora *and* the adversarial
//! generators (Zipf skew, empty/singleton vectors, all-shared-term
//! cliques, unicode-heavy values).

use proptest::prelude::*;

use wikimatch_suite::adversarial::{adversarial_pt_en, AdversarialFlavor};
use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, ScaleTier, SyntheticConfig};
use wikimatch::{AttributeStats, ComputeMode, DualSchema, MatchEngine, SimilarityTable};

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

/// The brute-force count of the channel cosines an exact build scores: for
/// every pair `p < q`, one when the two attributes' union value-id sets
/// (`values` ∪ `translated_values`) intersect, and one when their link-id
/// sets do.
fn reference_cosines(schema: &DualSchema) -> u64 {
    let value_ids = |a: &AttributeStats| {
        let mut ids = Vec::new();
        a.values.union_ids(&a.translated_values, |id| ids.push(id));
        ids
    };
    let link_ids = |a: &AttributeStats| a.links.id_entries().iter().map(|(id, _)| *id).collect();
    let values: Vec<Vec<u32>> = schema.attributes.iter().map(value_ids).collect();
    let links: Vec<Vec<u32>> = schema.attributes.iter().map(link_ids).collect();
    let meet = |a: &[u32], b: &[u32]| a.iter().any(|id| b.binary_search(id).is_ok());
    let mut cosines = 0;
    for p in 0..schema.len() {
        for q in (p + 1)..schema.len() {
            cosines +=
                u64::from(meet(&values[p], &values[q])) + u64::from(meet(&links[p], &links[q]));
        }
    }
    cosines
}

/// The count proof: on every type of `dataset`, the exact build scores
/// exactly the brute-force count of candidate channels.
fn assert_filter_sound(dataset: Dataset) {
    let engine = MatchEngine::new(dataset);
    for pairing in &engine.dataset().types.clone() {
        let type_id = pairing.type_id.as_str();
        let schema = &engine.prepared(type_id).unwrap().schema;
        let (_, counts) =
            SimilarityTable::compute_counted(schema, engine.config().lsi, ComputeMode::Pruned);
        assert_eq!(
            counts.scored,
            reference_cosines(schema),
            "{type_id}: pruned build scored other than the candidate channels"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any generator seed and schema scale, the candidate filter is
    /// sound and tight on every entity type of the Vn-En pair.
    #[test]
    fn filter_is_sound_on_random_corpora(seed in 0u64..1_000, extra in 0usize..12) {
        assert_filter_sound(Dataset::vn_en(&config_with(seed, extra)));
    }

    /// The same proof on the adversarial shapes: Zipf-skewed weights,
    /// empty/singleton vectors, all-pairs candidate cliques and
    /// unicode-heavy values.
    #[test]
    fn filter_is_sound_on_adversarial_corpora(seed in 0u64..1_000, flavor_index in 0usize..4) {
        assert_filter_sound(adversarial_pt_en(AdversarialFlavor::ALL[flavor_index], seed));
    }
}

/// One deterministic Pt-En check over all fourteen types.
#[test]
fn filter_is_sound_on_the_pt_en_pair() {
    assert_filter_sound(Dataset::pt_en(&config_with(7, 6)));
}

/// `ScaleTier` is the single tier-name authority threaded through matchd
/// and the registry: `Display` and `FromStr` must
/// round-trip exactly, including the new `xlarge` tier.
#[test]
fn scale_tier_display_from_str_round_trips() {
    assert_eq!(ScaleTier::ALL.len(), 5, "tier catalog changed silently");
    for tier in ScaleTier::ALL {
        let name = tier.to_string();
        assert_eq!(name.parse::<ScaleTier>(), Ok(tier), "{name} round trip");
        assert_eq!(tier.name(), name, "Display and name() diverge");
    }
    assert_eq!("xlarge".parse::<ScaleTier>(), Ok(ScaleTier::Xlarge));
    assert!("galactic".parse::<ScaleTier>().is_err());
}

/// The counted entry point reports a complete partition of the channel
/// work: `scored + pruned` covers every ordered channel evaluation of the
/// build, in both modes, on the same schema. The exact build's split of
/// Pt-En `film` is pinned at `tiny` and `medium`, the counts `BENCH_7.json`
/// records.
#[test]
fn pair_counts_partition_the_channel_work() {
    // (tier, attribute groups, pruned-mode scored, pruned-mode pruned)
    let pins = [
        (ScaleTier::Tiny, 44, 226, 1_666),
        (ScaleTier::Medium, 578, 5_996, 327_510),
    ];
    for (tier, groups, scored, pruned) in pins {
        let engine = MatchEngine::new(Dataset::pt_en(&tier.config()));
        let schema = engine.schema("film").unwrap();
        let n = schema.len() as u64;
        assert_eq!(n, groups, "{tier}: film attribute groups");
        for mode in [ComputeMode::Dense, ComputeMode::Pruned] {
            let (_, counts) = SimilarityTable::compute_counted(&schema, engine.config().lsi, mode);
            assert_eq!(
                counts.scored + counts.pruned,
                n * (n - 1),
                "{tier} {mode}: counts do not partition the n(n-1) channel grid"
            );
            if mode == ComputeMode::Pruned {
                assert_eq!((counts.scored, counts.pruned), (scored, pruned), "{tier}");
            }
        }
    }
}
