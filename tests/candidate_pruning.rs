//! Candidate-filter soundness: the bound-filtered sparse build may only
//! skip pairs it can *prove* sub-threshold under the exact oracle, and
//! every pair it keeps must carry the oracle's exact bits.
//!
//! This is the oracle-backed harness under the candidate-frontier
//! tentpole. The `Filtered` mode trades completeness (only at-threshold
//! pairs are stored) for build time, but it may never trade *accuracy*:
//!
//! * every pair absent from the filtered table scores strictly below the
//!   threshold on both direct channels under the `Dense` reference pass;
//! * every stored pair's at-threshold channels and LSI score are
//!   bit-identical (`f64::to_bits`) to the dense table's;
//! * the exact (`Pruned`) build scores one cosine per pair and channel on
//!   which the pair shares a term, and no other (a brute-force count);
//! * the operations that contractually require exactness (snapshot
//!   capture/restore) refuse sparse engines outright.
//!
//! The proptests run over random synthetic corpora *and* the adversarial
//! generators (Zipf skew, empty/singleton vectors, all-shared-term
//! cliques, unicode-heavy values), with the threshold itself drawn from
//! the strategy.

use proptest::prelude::*;

use wikimatch_suite::adversarial::{adversarial_pt_en, AdversarialFlavor};
use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, ScaleTier, SyntheticConfig};
use wikimatch::{AttributeStats, ComputeMode, DualSchema, MatchEngine, SnapshotError};
use wikimatch::{EngineSnapshot, SimilarityTable};

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

/// The soundness proof: on every type of `dataset`, the filtered table at
/// `threshold` stores exactly the oracle's at-threshold pairs, with the
/// oracle's exact bits on every stored channel.
fn assert_filter_sound(dataset: Dataset, threshold: f64) {
    let dense = MatchEngine::builder(dataset.clone())
        .compute_mode(ComputeMode::Dense)
        .build();
    let filtered = MatchEngine::builder(dataset)
        .compute_mode(ComputeMode::filtered(threshold))
        .build();
    for pairing in &dense.dataset().types.clone() {
        let type_id = pairing.type_id.as_str();
        let oracle = dense.similarity(type_id).unwrap();
        let sparse = filtered.similarity(type_id).unwrap();

        // The exact build scores one cosine per pair and channel on which
        // the pair shares a term, and no other.
        let schema = &dense.prepared(type_id).unwrap().schema;
        let (_, counts) =
            SimilarityTable::compute_counted(schema, dense.config().lsi, ComputeMode::Pruned);
        assert_eq!(
            counts.scored,
            reference_cosines(schema),
            "{type_id}: pruned build scored other than the candidate channels"
        );

        // Forward direction: every oracle pair at or above the threshold
        // on a direct channel survives the filter bit for bit; below it,
        // the stored channel reads exactly 0.
        let mut survivors = 0usize;
        for exact in oracle.pairs() {
            let keep = exact.vsim >= threshold || exact.lsim >= threshold;
            match sparse.pair(exact.p, exact.q) {
                Some(kept) => {
                    assert!(
                        keep,
                        "{type_id}: pair ({}, {}) stored but sub-threshold \
                         (vsim {}, lsim {}, threshold {threshold})",
                        exact.p, exact.q, exact.vsim, exact.lsim
                    );
                    survivors += 1;
                    let want_vsim = if exact.vsim >= threshold {
                        exact.vsim
                    } else {
                        0.0
                    };
                    let want_lsim = if exact.lsim >= threshold {
                        exact.lsim
                    } else {
                        0.0
                    };
                    assert_eq!(
                        kept.vsim.to_bits(),
                        want_vsim.to_bits(),
                        "{type_id}: vsim bits diverge on ({}, {})",
                        exact.p,
                        exact.q
                    );
                    assert_eq!(
                        kept.lsim.to_bits(),
                        want_lsim.to_bits(),
                        "{type_id}: lsim bits diverge on ({}, {})",
                        exact.p,
                        exact.q
                    );
                    assert_eq!(
                        kept.lsi.to_bits(),
                        exact.lsi.to_bits(),
                        "{type_id}: lsi bits diverge on ({}, {})",
                        exact.p,
                        exact.q
                    );
                }
                // The skip must be provably sound: strictly sub-threshold
                // on both direct channels under the oracle.
                None => assert!(
                    !keep,
                    "{type_id}: filter dropped at-threshold pair ({}, {}) \
                     (vsim {}, lsim {}, threshold {threshold})",
                    exact.p, exact.q, exact.vsim, exact.lsim
                ),
            }
        }
        assert_eq!(
            survivors,
            sparse.pairs().len(),
            "{type_id}: filtered table stores pairs the oracle lacks"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any generator seed, schema scale and threshold, the filter is
    /// sound on every entity type of the Vn-En pair.
    #[test]
    fn filter_is_sound_on_random_corpora(
        seed in 0u64..1_000,
        extra in 0usize..12,
        threshold_pct in 1usize..96,
    ) {
        let threshold = threshold_pct as f64 / 100.0;
        assert_filter_sound(Dataset::vn_en(&config_with(seed, extra)), threshold);
    }

    /// The same proof on the adversarial shapes: Zipf-skewed weights,
    /// empty/singleton vectors, all-pairs candidate cliques and
    /// unicode-heavy values.
    #[test]
    fn filter_is_sound_on_adversarial_corpora(
        seed in 0u64..1_000,
        flavor_index in 0usize..4,
        threshold_pct in 1usize..96,
    ) {
        let flavor = AdversarialFlavor::ALL[flavor_index];
        let threshold = threshold_pct as f64 / 100.0;
        assert_filter_sound(adversarial_pt_en(flavor, seed), threshold);
    }
}

/// One deterministic Pt-En soundness check over all fourteen types at the
/// default serving threshold.
#[test]
fn filter_is_sound_on_the_pt_en_pair() {
    assert_filter_sound(
        Dataset::pt_en(&config_with(7, 6)),
        ComputeMode::DEFAULT_FILTER_THRESHOLD,
    );
}

/// The sparse mode is rejected wherever the engine contract requires
/// exactness: snapshot capture refuses it, and restoring an exact
/// snapshot into a sparse-mode engine is refused symmetrically.
#[test]
fn exactness_contracts_reject_sparse_modes() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let exact = MatchEngine::new(dataset.clone());
    exact.prepare_all();
    let snapshot = EngineSnapshot::capture(&exact).expect("exact-mode engine captures");

    let mode = ComputeMode::filtered(0.5);
    let sparse = MatchEngine::builder(dataset.clone())
        .compute_mode(mode)
        .build();
    sparse.prepare_all();
    assert!(
        matches!(
            EngineSnapshot::capture(&sparse),
            Err(SnapshotError::InexactMode(_))
        ),
        "capture accepted a sparse engine"
    );
    let roundtrip = EngineSnapshot::from_bytes(&snapshot.to_bytes()).unwrap();
    assert!(
        matches!(
            MatchEngine::builder(dataset)
                .compute_mode(mode)
                .build_from_snapshot(roundtrip),
            Err(SnapshotError::InexactMode(_))
        ),
        "restore accepted a sparse-mode builder"
    );
}

/// `ScaleTier` is the single tier-name authority threaded through matchd,
/// the bench binaries and the registry: `Display` and `FromStr` must
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
/// build, in every mode, on the same schema.
#[test]
fn pair_counts_partition_the_channel_work() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let engine = MatchEngine::new(dataset);
    let prepared = engine.prepared("film").unwrap();
    let n = prepared.schema.len() as u64;
    for mode in [
        ComputeMode::Dense,
        ComputeMode::Pruned,
        ComputeMode::filtered(0.6),
    ] {
        let (_, counts) =
            SimilarityTable::compute_counted(&prepared.schema, engine.config().lsi, mode);
        assert_eq!(
            counts.scored + counts.pruned,
            n * (n - 1),
            "{mode}: counts do not partition the n(n-1) channel grid"
        );
    }
}
