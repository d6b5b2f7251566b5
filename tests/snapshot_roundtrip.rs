//! Snapshot persistence must be a pure serialization: for any synthetic
//! corpus, saving a warmed engine and loading the snapshot back yields
//! `to_bits`-equal similarity tables and identical `align_all` output,
//! with **zero** artifact builds on the restored side.
//!
//! This is the safety net under the snapshot tentpole (the counterpart of
//! `similarity_equivalence.rs` for the pruned build): the disk round trip
//! may not perturb a single bit of any score, and damaged or incompatible
//! files must be rejected with a typed error instead of deserializing
//! garbage.

use proptest::prelude::*;

use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::snapshot::FORMAT_VERSION;
use wikimatch::{EngineSnapshot, MatchEngine, SnapshotError};

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

fn assert_round_trip_is_bit_identical(dataset: Dataset) {
    let fresh = MatchEngine::new(dataset.clone());
    fresh.prepare_all();
    let bytes = EngineSnapshot::capture(&fresh).to_bytes();
    let snapshot = EngineSnapshot::from_bytes(&bytes).expect("snapshot round-trips");
    // Decoding loses nothing the encoder writes: the restored snapshot
    // re-encodes to the same bytes.
    assert_eq!(snapshot.to_bytes(), bytes, "re-encoded bytes differ");
    let restored = MatchEngine::builder(dataset)
        .build_from_snapshot(snapshot)
        .expect("snapshot restores against its own dataset");

    for pairing in &fresh.dataset().types.clone() {
        let a = fresh.similarity(&pairing.type_id).unwrap();
        let b = restored.similarity(&pairing.type_id).unwrap();
        assert_eq!(a.pairs().len(), b.pairs().len());
        for (fresh_pair, loaded_pair) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!((fresh_pair.p, fresh_pair.q), (loaded_pair.p, loaded_pair.q));
            assert_eq!(
                fresh_pair.vsim.to_bits(),
                loaded_pair.vsim.to_bits(),
                "vsim diverges for {} pair ({}, {})",
                pairing.type_id,
                fresh_pair.p,
                fresh_pair.q
            );
            assert_eq!(
                fresh_pair.lsim.to_bits(),
                loaded_pair.lsim.to_bits(),
                "lsim diverges for {} pair ({}, {})",
                pairing.type_id,
                fresh_pair.p,
                fresh_pair.q
            );
            assert_eq!(
                fresh_pair.lsi.to_bits(),
                loaded_pair.lsi.to_bits(),
                "lsi diverges for {} pair ({}, {})",
                pairing.type_id,
                fresh_pair.p,
                fresh_pair.q
            );
        }
    }

    // Full alignment output is identical, and producing it never built an
    // artifact on the restored engine.
    let fresh_alignments = fresh.align_all();
    let restored_alignments = restored.align_all();
    assert_eq!(fresh_alignments.len(), restored_alignments.len());
    for (a, b) in fresh_alignments.iter().zip(&restored_alignments) {
        assert_eq!(a.type_id, b.type_id);
        assert_eq!(a.cross_pairs(), b.cross_pairs(), "{}", a.type_id);
    }
    assert_eq!(
        restored.stats().artifact_builds,
        0,
        "restore rebuilt artifacts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any generator seed (and scaled-up schemas), the save → load →
    /// align round trip is bit-identical on every type of the Vn-En pair.
    #[test]
    fn snapshot_round_trip_on_random_corpora(
        seed in 0u64..1_000,
        extra in 0usize..12,
    ) {
        assert_round_trip_is_bit_identical(Dataset::vn_en(&config_with(seed, extra)));
    }
}

/// One deterministic Pt-En check over all fourteen types.
#[test]
fn snapshot_round_trip_on_the_pt_en_pair() {
    assert_round_trip_is_bit_identical(Dataset::pt_en(&config_with(11, 4)));
}

/// Damaged and incompatible snapshot files are rejected with typed errors.
#[test]
fn truncated_corrupted_and_version_bumped_files_are_rejected() {
    let dataset = Dataset::vn_en(&config_with(3, 0));
    let engine = MatchEngine::new(dataset.clone());
    engine.align("film").unwrap();
    let bytes = EngineSnapshot::capture(&engine).to_bytes();

    // Truncation at several depths (header, payload, one byte short).
    for cut in [0, 10, 36, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                EngineSnapshot::from_bytes(&bytes[..cut.min(bytes.len())]),
                Err(SnapshotError::Truncated)
            ),
            "cut at {cut} not rejected as truncation"
        );
    }

    // A flipped payload byte fails the checksum.
    let mut corrupted = bytes.clone();
    let last = corrupted.len() - 1;
    corrupted[last] ^= 0x40;
    assert!(matches!(
        EngineSnapshot::from_bytes(&corrupted),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));

    // Every other format version — the next one, and each retired one
    // down to version 1 — is refused before any payload decoding.
    for version in (1..FORMAT_VERSION).chain([FORMAT_VERSION + 1]) {
        let mut stamped = bytes.clone();
        stamped[8..12].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            EngineSnapshot::from_bytes(&stamped),
            Err(SnapshotError::UnsupportedVersion { found, supported })
                if found == version && supported == FORMAT_VERSION
        ));
    }

    // And a snapshot of corpus A never restores against corpus B.
    let snapshot = EngineSnapshot::from_bytes(&bytes).unwrap();
    let other = Dataset::vn_en(&config_with(4, 0));
    assert!(matches!(
        MatchEngine::builder(other).build_from_snapshot(snapshot),
        Err(SnapshotError::FingerprintMismatch { .. })
    ));
}

/// FNV-1a (64-bit) over every byte of an encoded snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The encoder writes pinned bytes. The hashes were captured over format
/// 5 once every bit-identity check (the golden table hashes, the Dense
/// oracle's lookups on built, heap-restored and mapped tables, and the
/// byte-identical reports) passed, so a change that moves an on-disk byte
/// fails here.
#[test]
fn snapshot_bytes_match_their_pins() {
    let cases: [(&str, Dataset, u64); 4] = [
        (
            "pt-tiny",
            Dataset::pt_en(&SyntheticConfig::tiny()),
            0xe839_3639_438f_754f,
        ),
        (
            "pt-small",
            Dataset::pt_en(&SyntheticConfig::small()),
            0xf37b_2ecf_c6c2_aef2,
        ),
        (
            "vi-tiny",
            Dataset::vn_en(&SyntheticConfig::tiny()),
            0xcee9_8390_53e9_54e6,
        ),
        (
            "vi-small",
            Dataset::vn_en(&SyntheticConfig::small()),
            0x2ae3_b8ac_e0d5_9c20,
        ),
    ];
    for (name, dataset, pin) in cases {
        let engine = MatchEngine::new(dataset);
        engine.prepare_all();
        let snapshot = EngineSnapshot::capture(&engine);
        let found = fnv1a(&snapshot.to_bytes());
        assert_eq!(found, pin, "{name}: bytes moved (found {found:#018x})");
    }
}
