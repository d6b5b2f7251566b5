//! Out-of-core equivalence: for any synthetic corpus, decoding a snapshot
//! **mapped** (zero-copy views over the file that materialize lazily) must
//! be bit-identical to decoding it from **heap bytes** and to a fresh build
//! — `to_bits`-equal similarity tables, identical `align_all` output, zero
//! artifact builds on either restored side — and a damaged file must be
//! rejected with a typed error, never decoded into garbage or a panic.
//!
//! This is the golden-hash safety net under the out-of-core tier: the
//! serving tier is allowed to swap heap-owned artifacts for mapped ones
//! only because this suite pins both byte sources of the one decoder to
//! the same bits.

use std::sync::Arc;

use proptest::prelude::*;

use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::snapshot::FORMAT_VERSION;
use wikimatch::{
    AttributeAlignment, CandidatePair, ComputeMode, EngineSnapshot, MappedSnapshot, MatchEngine,
    SimilarityTable, SnapshotError, WikiMatchConfig,
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

/// A warmed engine of `mode` plus its snapshot bytes.
fn warmed_in(dataset: &Dataset, mode: ComputeMode) -> (MatchEngine, Vec<u8>) {
    let fresh = MatchEngine::builder(dataset.clone())
        .compute_mode(mode)
        .build();
    fresh.prepare_all();
    let bytes = EngineSnapshot::capture(&fresh).to_bytes();
    assert_eq!(
        u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
        FORMAT_VERSION
    );
    (fresh, bytes)
}

/// A warmed default (`Pruned`) engine plus its snapshot bytes.
fn warmed(dataset: &Dataset) -> (MatchEngine, Vec<u8>) {
    warmed_in(dataset, ComputeMode::Pruned)
}

/// The FNV-1a payload checksum of the snapshot header, reimplemented here
/// so corruption tests can re-stamp it and reach the structural validation
/// they target.
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

/// A snapshot file written to a fresh temp directory and opened mapped.
fn open_mapped(bytes: &[u8], tag: &str) -> (std::path::PathBuf, MappedSnapshot) {
    let dir = std::env::temp_dir().join(format!("wm-mmap-eq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("corpus.snap");
    std::fs::write(&path, bytes).expect("write snapshot");
    let mapped = MappedSnapshot::open(&path).expect("mapped open");
    (dir, mapped)
}

fn assert_mapped_matches_owned(dataset: Dataset, tag: &str) {
    let (fresh, bytes) = warmed(&dataset);

    // Heap decode: the same decoder over a copy of the bytes.
    let owned_snapshot = EngineSnapshot::from_bytes(&bytes).expect("heap decode");
    let owned = MatchEngine::builder(Arc::new(dataset.clone()))
        .build_from_snapshot(owned_snapshot)
        .expect("heap snapshot restores");

    // Mapped decode: the same file, opened out-of-core.
    let (dir, mapped_snapshot) = open_mapped(&bytes, tag);
    let region = Arc::clone(&mapped_snapshot.region);
    let mapped = MatchEngine::builder(Arc::new(dataset.clone()))
        .build_from_snapshot(mapped_snapshot.snapshot)
        .expect("mapped snapshot restores");

    // The `Dense` oracle is capturable too; its snapshot, mapped, restores
    // tables that score through the persisted factors.
    let (dense, dense_bytes) = warmed_in(&dataset, ComputeMode::Dense);
    let (dense_dir, dense_snapshot) = open_mapped(&dense_bytes, &format!("{tag}-dense"));
    let dense_mapped = MatchEngine::builder(Arc::new(dataset))
        .build_from_snapshot(dense_snapshot.snapshot)
        .expect("dense snapshot restores");

    // Every lookup of the built, heap-restored, mapped and dense-captured
    // tables carries the Dense oracle's bits.
    for pairing in &fresh.dataset().types.clone() {
        let oracle = dense.similarity(&pairing.type_id).unwrap();
        for (label, engine) in [
            ("built", &fresh),
            ("heap-restored", &owned),
            ("mapped", &mapped),
            ("dense-captured mapped", &dense_mapped),
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
    // bit-identical across fresh build, heap decode and mapped decode.
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
                    "{label} diverges heap-restored for {} pair ({}, {})",
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

    // Full alignment output is identical across the engines, and the
    // restored engines never built an artifact to produce it.
    let reference = fresh.align_all();
    for (label, engine) in [
        ("heap-restored", &owned),
        ("mapped", &mapped),
        ("dense-captured mapped", &dense_mapped),
    ] {
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
    assert_eq!(stats.mapped_bytes, bytes.len() as u64);
    assert!(stats.resident_bytes > 0);
    assert!(stats.page_ins > 0);

    drop((mapped, mapped_snapshot.region, region));
    drop((dense_mapped, dense_snapshot.region));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dense_dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any seed, the mapped decode path is bit-identical to the heap
    /// decode path and to a fresh build (Pt-En).
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

    /// Truncating a snapshot anywhere — header, offset directory, section
    /// bytes — must yield a typed rejection, never a partial snapshot.
    #[test]
    fn truncated_snapshots_are_rejected(cut_fraction in 0.0f64..1.0) {
        let (_, bytes) = warmed(&Dataset::pt_en(&config_with(7, 0)));
        let cut = ((bytes.len() - 1) as f64 * cut_fraction) as usize;
        match EngineSnapshot::from_bytes(&bytes[..cut]) {
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
    let (_, bytes) = warmed(&Dataset::pt_en(&config_with(11, 0)));
    let rec_off_at = HEADER_LEN + 24; // first type record's offset slot

    // Offset nudged off its 8-byte alignment.
    let mut misaligned = bytes.clone();
    let old = u64::from_le_bytes(misaligned[rec_off_at..rec_off_at + 8].try_into().unwrap());
    misaligned[rec_off_at..rec_off_at + 8].copy_from_slice(&(old + 4).to_le_bytes());
    restamp_checksum(&mut misaligned);
    assert!(matches!(
        EngineSnapshot::from_bytes(&misaligned),
        Err(SnapshotError::Malformed(_))
    ));

    // Offset pointing past the end of the file.
    let mut oob = bytes.clone();
    oob[rec_off_at..rec_off_at + 8].copy_from_slice(&(bytes.len() as u64 + 64).to_le_bytes());
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
/// never with another pair's scores, on built, heap-restored and mapped
/// tables alike.
#[test]
fn out_of_range_lookups_find_no_pair() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let built = MatchEngine::new(dataset.clone());
    built.prepared("film").expect("film type exists");
    let snapshot = EngineSnapshot::capture(&built);
    let restored = MatchEngine::builder(dataset.clone())
        .build_from_snapshot(EngineSnapshot::from_bytes(&snapshot.to_bytes()).expect("heap decode"))
        .expect("heap snapshot restores");
    let (dir, mapped_snapshot) = open_mapped(&snapshot.to_bytes(), "out-of-range");
    let mapped = MatchEngine::builder(dataset)
        .build_from_snapshot(mapped_snapshot.snapshot)
        .expect("mapped snapshot restores");
    for (label, engine) in [
        ("built", &built),
        ("heap-restored", &restored),
        ("mapped", &mapped),
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

    let (_, bytes) = warmed(&dataset);
    let (dir, mapped_snapshot) = open_mapped(&bytes, "hot-path");
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

/// Reads every artifact of a decoded snapshot in full: every `pair(p, q)`
/// lookup, every vector's entries and terms, every arena term, and an
/// alignment, which walks the evidence rows with their LSI. On an accepted
/// mutant this must neither panic nor read out of bounds.
fn materialize(snapshot: &EngineSnapshot) -> usize {
    let mut touched = 0usize;
    for (_, prepared) in &snapshot.types {
        let n = prepared.table.attribute_count();
        for p in 0..n {
            for q in p..n {
                touched += usize::from(prepared.table.pair(p, q).is_some());
            }
        }
        let config = WikiMatchConfig::default();
        touched += AttributeAlignment::new(&prepared.schema, &prepared.table, config)
            .run()
            .clusters()
            .len();
        for attr in &prepared.schema.attributes {
            for vector in [
                &attr.values,
                &attr.translated_values,
                &attr.raw_values,
                &attr.translated_raw_values,
                &attr.links,
            ] {
                touched += vector.id_entries().len();
                touched += vector.iter().map(|(term, _)| term.len()).sum::<usize>();
            }
        }
        touched += prepared.arena.terms().map(str::len).sum::<usize>();
    }
    touched
}

/// Decodes one input under a panic barrier that names it: true when it is
/// accepted and materializes, false when it is rejected with a
/// `SnapshotError`.
fn accepts(label: &str, decode: impl FnOnce() -> Result<EngineSnapshot, SnapshotError>) -> bool {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        decode().map(|snapshot| materialize(&snapshot))
    }));
    match outcome {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("{label}: decoding or materializing panicked"),
    }
}

/// The little-endian `u64` at `bytes[at..at + 8]`.
fn u64_at(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// The byte positions the flip sweep must cover: the header fields before
/// the checksum, the offset directory, each record's meta, and each
/// record's evidence row starts and partners and LSI factor sections. The
/// table fields close the meta as nine `u64`s: attribute count, evidence
/// entries, the starts / partners / vsim / lsim offsets, the rank and the
/// singular-value / vector offsets, relative to the 8-aligned section
/// base after the meta.
fn sweep_positions(bytes: &[u8]) -> Vec<usize> {
    let mut positions: Vec<usize> = (0..28).collect();
    let types = u64_at(bytes, HEADER_LEN + 16);
    positions.extend(HEADER_LEN..HEADER_LEN + 24 + 16 * types);
    for t in 0..types {
        let rec_off = u64_at(bytes, HEADER_LEN + 24 + 16 * t);
        let meta_len = u64_at(bytes, rec_off);
        let meta_end = rec_off + 8 + meta_len;
        positions.extend(rec_off..meta_end);
        let base = rec_off + (8 + meta_len).div_ceil(8) * 8;
        let field = |i: usize| u64_at(bytes, meta_end - 72 + 8 * i);
        let (n, entries, rank) = (field(0), field(1), field(6));
        positions.extend(base + field(2)..base + field(2) + 8 * (n + 1));
        positions.extend(base + field(3)..base + field(3) + 4 * entries);
        positions.extend(base + field(7)..base + field(7) + 8 * rank);
        positions.extend(base + field(8)..base + field(8) + 8 * n * rank);
    }
    positions
}

/// Totality of the one decoder over a `pt-tiny` snapshot: every
/// truncation, and a seeded single-byte flip (checksum re-stamped) of every
/// byte [`sweep_positions`] names plus a seeded sample of the rest, goes
/// through both `EngineSnapshot::from_bytes` and `MappedSnapshot::open`.
/// Each must be rejected with a `SnapshotError` or decode to artifacts that
/// materialize in full — never panic. The snapshot holds `album`, the type
/// with the fewest structural bytes, so the sweep stays a few thousand
/// mutants in a debug build.
#[test]
fn every_truncation_and_flip_is_rejected_or_materializes() {
    let engine = MatchEngine::new(Dataset::pt_en(&SyntheticConfig::tiny()));
    engine.prepared("album").expect("album type exists");
    let bytes = EngineSnapshot::capture(&engine).to_bytes();
    let dir = std::env::temp_dir().join(format!("wm-mmap-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("mutant.snap");

    // Every truncation, the mapped side shrinking one file in place.
    std::fs::write(&path, &bytes).expect("write snapshot");
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen snapshot");
    for cut in (0..bytes.len()).rev() {
        file.set_len(cut as u64).expect("truncate snapshot");
        assert!(!accepts(&format!("from_bytes cut {cut}"), || {
            EngineSnapshot::from_bytes(&bytes[..cut])
        }));
        assert!(!accepts(&format!("mapped cut {cut}"), || {
            MappedSnapshot::open(&path).map(|mapped| mapped.snapshot)
        }));
    }
    drop(file);

    // Seeded flips: every structural byte, then a sample of the rest.
    let mut state = 0x5eed_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut positions = sweep_positions(&bytes);
    positions.extend((0..256).map(|_| HEADER_LEN + next() % (bytes.len() - HEADER_LEN)));
    let (mut accepted, mut rejected) = (0usize, 0usize);
    for at in positions {
        let mut mutant = bytes.clone();
        mutant[at] ^= (next() % 255 + 1) as u8;
        restamp_checksum(&mut mutant);
        std::fs::write(&path, &mutant).expect("write mutant");
        for ok in [
            accepts(&format!("from_bytes flip at {at}"), || {
                EngineSnapshot::from_bytes(&mutant)
            }),
            accepts(&format!("mapped flip at {at}"), || {
                MappedSnapshot::open(&path).map(|mapped| mapped.snapshot)
            }),
        ] {
            if ok {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
