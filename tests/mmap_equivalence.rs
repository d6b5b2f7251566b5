//! Out-of-core equivalence: for any synthetic corpus, decoding a
//! directly-addressable (v4) snapshot **mapped** (zero-copy views that
//! materialize lazily) must be bit-identical to decoding it **owned** —
//! `to_bits`-equal similarity tables, identical `align_all` output, zero
//! artifact builds on either restored side — and a v4 file with a
//! truncated or misaligned offset directory must be rejected with a typed
//! error, never decoded into garbage.
//!
//! This is the golden-hash safety net under the out-of-core tentpole: the
//! serving tier is allowed to swap heap-owned artifacts for mapped ones
//! only because this suite pins the two decode paths to the same bits.

use std::sync::Arc;

use proptest::prelude::*;

use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::{
    CandidatePair, ComputeMode, EngineSnapshot, MappedSnapshot, MatchEngine, SimilarityTable,
    SnapshotError, DIRECT_FORMAT_VERSION,
};

const HEADER_LEN: usize = 36;

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

/// A warmed exact-mode engine plus its snapshot in the v4 encoding.
fn warmed_direct(dataset: &Dataset) -> (MatchEngine, Vec<u8>) {
    let fresh = MatchEngine::new(dataset.clone());
    fresh.prepare_all();
    let direct = EngineSnapshot::capture(&fresh)
        .expect("exact-mode engine captures")
        .to_direct_bytes();
    assert_eq!(
        u32::from_le_bytes(direct[8..12].try_into().unwrap()),
        DIRECT_FORMAT_VERSION
    );
    (fresh, direct)
}

/// The FNV-1a payload checksum of the snapshot header (same algorithm for
/// v3 and v4), reimplemented here so corruption tests can re-stamp it and
/// reach the structural validation they target.
fn restamp_checksum(bytes: &mut [u8]) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let payload = &bytes[HEADER_LEN..];
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        h ^= u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[28..36].copy_from_slice(&h.to_le_bytes());
}

/// Every lookup `pair(p, q)` and `pair(q, p)`, `p != q`, of `table` carries
/// the bits of the Dense oracle's pair — pairs without evidence included,
/// which read LSI on demand. The expected bits come from the oracle's
/// materialized pairs, not from its own lookups, so a lookup shortcut both
/// tables share cannot vouch for itself.
fn assert_lookups_match_the_oracle(oracle: &SimilarityTable, table: &SimilarityTable, label: &str) {
    let n = oracle.attribute_count();
    assert_eq!(table.attribute_count(), n, "{label}");
    let bits = |pair: CandidatePair| {
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

/// A v4 file written to a fresh temp directory and opened mapped.
fn open_mapped(direct: &[u8], tag: &str) -> (std::path::PathBuf, MappedSnapshot) {
    let dir = std::env::temp_dir().join(format!("wm-mmap-eq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corpus.snap");
    std::fs::write(&path, direct).expect("write snapshot");
    let mapped = MappedSnapshot::open(&path).expect("mapped open");
    (dir, mapped)
}

fn assert_mapped_matches_owned(dataset: Dataset, tag: &str) {
    let (fresh, direct) = warmed_direct(&dataset);

    // Owned decode: the generic reader accepts v4 and heap-allocates.
    let owned_snapshot = EngineSnapshot::from_bytes(&direct).expect("owned decode");
    let owned = MatchEngine::builder(Arc::new(dataset.clone()))
        .build_from_snapshot(owned_snapshot)
        .expect("owned snapshot restores");

    // Mapped decode: the same file, opened out-of-core.
    let (dir, mapped_snapshot) = open_mapped(&direct, tag);
    let region = Arc::clone(&mapped_snapshot.region);
    let mapped = MatchEngine::builder(Arc::new(dataset.clone()))
        .build_from_snapshot(mapped_snapshot.snapshot)
        .expect("mapped snapshot restores");

    // Every lookup of the built, v3-restored and v4 tables carries the
    // Dense oracle's bits.
    let v3 = EngineSnapshot::capture(&fresh)
        .expect("exact-mode engine captures")
        .to_bytes();
    let restored = MatchEngine::builder(Arc::new(dataset.clone()))
        .build_from_snapshot(EngineSnapshot::from_bytes(&v3).expect("v3 decode"))
        .expect("v3 snapshot restores");
    let dense = MatchEngine::builder(dataset)
        .compute_mode(ComputeMode::Dense)
        .build();
    for pairing in &fresh.dataset().types.clone() {
        let oracle = dense.similarity(&pairing.type_id).unwrap();
        for (label, engine) in [
            ("built", &fresh),
            ("v3-restored", &restored),
            ("v4-owned", &owned),
            ("v4-mapped", &mapped),
        ] {
            let table = engine.similarity(&pairing.type_id).unwrap();
            assert_lookups_match_the_oracle(
                &oracle,
                &table,
                &format!("{label} {}", pairing.type_id),
            );
        }
    }

    // Golden-hash equivalence: every similarity channel of every type is
    // bit-identical across fresh build, owned decode and mapped decode.
    for pairing in &fresh.dataset().types.clone() {
        let reference = fresh.similarity(&pairing.type_id).unwrap();
        let from_owned = owned.similarity(&pairing.type_id).unwrap();
        let from_mapped = mapped.similarity(&pairing.type_id).unwrap();
        assert_eq!(reference.pairs().len(), from_owned.pairs().len());
        assert_eq!(reference.pairs().len(), from_mapped.pairs().len());
        for ((a, b), c) in reference
            .pairs()
            .iter()
            .zip(from_owned.pairs())
            .zip(from_mapped.pairs())
        {
            assert_eq!((a.p, a.q), (b.p, b.q));
            assert_eq!((a.p, a.q), (c.p, c.q));
            for (label, x, y, z) in [
                ("vsim", a.vsim, b.vsim, c.vsim),
                ("lsim", a.lsim, b.lsim, c.lsim),
                ("lsi", a.lsi, b.lsi, c.lsi),
            ] {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{label} diverges owned for {} pair ({}, {})",
                    pairing.type_id,
                    a.p,
                    a.q
                );
                assert_eq!(
                    x.to_bits(),
                    z.to_bits(),
                    "{label} diverges mapped for {} pair ({}, {})",
                    pairing.type_id,
                    a.p,
                    a.q
                );
            }
        }
    }

    // Full alignment output is identical across all three engines, and the
    // restored engines never built an artifact to produce it.
    let reference = fresh.align_all();
    for (label, engine) in [("owned", &owned), ("mapped", &mapped)] {
        let alignments = engine.align_all();
        assert_eq!(reference.len(), alignments.len());
        for (a, b) in reference.iter().zip(&alignments) {
            assert_eq!(a.type_id, b.type_id, "{label}");
            assert_eq!(a.cross_pairs(), b.cross_pairs(), "{label} {}", a.type_id);
        }
        assert_eq!(
            engine.stats().artifact_builds,
            0,
            "{label} decode rebuilt artifacts"
        );
    }

    // The mapped engine actually served from the mapping: alignment paged
    // channels in lazily, and its stats account for the mapped region.
    assert!(region.page_in_count() > 0, "mapped engine never paged in");
    let stats = mapped.stats();
    assert_eq!(stats.mapped_bytes, direct.len() as u64);
    assert!(stats.resident_bytes > 0);
    assert!(stats.page_ins > 0);

    drop((mapped, mapped_snapshot.region, region));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any seed, the mapped decode path is bit-identical to the owned
    /// decode path (Pt-En).
    #[test]
    fn mapped_decode_is_bit_identical_pt_en(seed in 0u64..1_000) {
        assert_mapped_matches_owned(
            Dataset::pt_en(&config_with(seed, 2)),
            &format!("pt-{seed}"),
        );
    }

    /// Same pin for the Vn-En pair, whose diacritics-heavy terms stress the
    /// mapped arena's UTF-8 and sortedness validation.
    #[test]
    fn mapped_decode_is_bit_identical_vn_en(seed in 0u64..1_000) {
        assert_mapped_matches_owned(
            Dataset::vn_en(&config_with(seed, 1)),
            &format!("vn-{seed}"),
        );
    }

    /// Truncating a v4 file anywhere — header, offset directory, section
    /// bytes — must yield a typed rejection from the owned decoder, never a
    /// partial snapshot.
    #[test]
    fn truncated_v4_files_are_rejected(cut_fraction in 0.0f64..1.0) {
        let (_, direct) = warmed_direct(&Dataset::pt_en(&config_with(7, 0)));
        let cut = ((direct.len() - 1) as f64 * cut_fraction) as usize;
        match EngineSnapshot::from_bytes(&direct[..cut]) {
            Err(SnapshotError::Truncated) | Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => prop_assert!(false, "cut at {cut} not rejected: {other:?}"),
        }
    }
}

/// Misaligned and out-of-bounds offset directories are rejected as
/// malformed/truncated even when the checksum is re-stamped to match, so
/// the structural validation itself is what stops them.
#[test]
fn misaligned_and_out_of_bounds_directories_are_rejected() {
    let (_, direct) = warmed_direct(&Dataset::pt_en(&config_with(11, 0)));
    let rec_off_at = HEADER_LEN + 24; // first type record's offset slot

    // Offset nudged off its 8-byte alignment.
    let mut misaligned = direct.clone();
    let old = u64::from_le_bytes(misaligned[rec_off_at..rec_off_at + 8].try_into().unwrap());
    misaligned[rec_off_at..rec_off_at + 8].copy_from_slice(&(old + 4).to_le_bytes());
    restamp_checksum(&mut misaligned);
    assert!(matches!(
        EngineSnapshot::from_bytes(&misaligned),
        Err(SnapshotError::Malformed(_))
    ));

    // Offset pointing past the end of the file.
    let mut oob = direct.clone();
    oob[rec_off_at..rec_off_at + 8].copy_from_slice(&(direct.len() as u64 + 64).to_le_bytes());
    restamp_checksum(&mut oob);
    assert!(matches!(
        EngineSnapshot::from_bytes(&oob),
        Err(SnapshotError::Truncated)
    ));

    // The mapped opener applies the same validation to a file on disk.
    let dir = std::env::temp_dir().join(format!("wm-mmap-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("broken.snap");
    std::fs::write(&path, &oob).expect("write broken snapshot");
    assert!(matches!(
        MappedSnapshot::open(&path),
        Err(SnapshotError::Truncated)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `pair` answers an index at or past `attribute_count()` with `None`,
/// never with another pair's scores, on built, filtered, v3-restored and
/// v4-mapped tables alike.
#[test]
fn out_of_range_lookups_find_no_pair() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let built = MatchEngine::new(dataset.clone());
    built.prepared("film").expect("film type exists");
    let filtered = MatchEngine::builder(dataset.clone())
        .compute_mode(ComputeMode::filtered(0.5))
        .build();
    let snapshot = EngineSnapshot::capture(&built).expect("exact-mode engine captures");
    let restored = MatchEngine::builder(dataset.clone())
        .build_from_snapshot(EngineSnapshot::from_bytes(&snapshot.to_bytes()).expect("v3 decode"))
        .expect("v3 snapshot restores");
    let (dir, mapped_snapshot) = open_mapped(&snapshot.to_direct_bytes(), "out-of-range");
    let mapped = MatchEngine::builder(dataset)
        .build_from_snapshot(mapped_snapshot.snapshot)
        .expect("mapped snapshot restores");
    for (label, engine) in [
        ("built", &built),
        ("filtered", &filtered),
        ("v3-restored", &restored),
        ("v4-mapped", &mapped),
    ] {
        let table = engine.similarity("film").unwrap();
        let n = table.attribute_count();
        assert_eq!(n, 44, "{label}: pt-tiny film has 44 attributes");
        for (p, q) in [
            (0, n),
            (n, 0),
            (1, n + 3),
            (n - 1, n),
            (n, n + 1),
            (2 * n, 2 * n + 1),
            (usize::MAX, 0),
        ] {
            assert!(
                table.pair(p, q).is_none(),
                "{label}: pair({p}, {q}) answered over {n} attributes"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The alignment hot paths stay proportional to the evidence pairs:
/// `align_all` on a fresh `Pruned` engine and a cold `align("film")` on a
/// mapped snapshot never walk every stored pair of a table.
#[test]
fn alignment_never_walks_every_pair() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let fresh = MatchEngine::new(dataset.clone());
    fresh.align_all();
    let artifacts = fresh.cached_artifacts();
    assert_eq!(artifacts.len(), dataset.types.len());
    for (type_id, prepared) in &artifacts {
        assert_eq!(prepared.table.stored_pair_walks(), 0, "built {type_id}");
    }

    let (_, direct) = warmed_direct(&dataset);
    let (dir, mapped_snapshot) = open_mapped(&direct, "hot-path");
    let region = Arc::clone(&mapped_snapshot.region);
    let mapped = MatchEngine::builder(dataset)
        .build_from_snapshot(mapped_snapshot.snapshot)
        .expect("mapped snapshot restores");
    mapped.align("film").expect("film type exists");
    let film = mapped.prepared("film").unwrap();
    assert!(film.table.is_mapped());
    assert_eq!(
        region.page_in_count(),
        1,
        "the align read film's evidence once"
    );
    assert_eq!(film.table.stored_pair_walks(), 0, "mapped film");
    let _ = std::fs::remove_dir_all(&dir);
}
