//! Delta-journal persistence: round trips, replay, and the rejection
//! matrix (truncation, corruption, version bumps, replay-order tampering)
//! mirroring the snapshot suite's discipline at record granularity, all
//! through the one decoder, `DeltaJournal::recover`: a header fault rejects
//! the file, and a record fault ends the valid prefix with its error.

use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{AttributeValue, Dataset, Language, SyntheticConfig};
use wikimatch::snapshot::JOURNAL_FORMAT_VERSION;
use wikimatch::{corpus_fingerprint, CorpusDelta, DeltaJournal, MatchEngine, SnapshotError};

/// Builds a three-record journal by mutating a live engine and chaining
/// each report's fingerprints, returning the base dataset, the journal and
/// the final mutated dataset.
fn journal_fixture() -> (Dataset, DeltaJournal, Dataset) {
    let base = Dataset::pt_en(&SyntheticConfig::tiny());
    let engine = MatchEngine::builder(base.clone()).build();
    let mut journal = DeltaJournal::new(engine.fingerprint());
    assert_eq!(journal.tip(), corpus_fingerprint(&base));

    let deltas = {
        let mut edited = base
            .corpus
            .articles_in(&Language::Pt)
            .next()
            .expect("corpus has Portuguese articles")
            .clone();
        // Ids are corpus-local and not persisted by the journal; reset them
        // so the round-tripped records compare equal to the originals.
        edited.id = wiki_corpus::ArticleId::default();
        edited.infobox.attributes[0].value = "valor journaled".to_string();
        let mut appended = edited.clone();
        appended
            .infobox
            .push(AttributeValue::text("nota", "registro"));
        vec![
            CorpusDelta::upsert(edited.clone()),
            CorpusDelta::upsert(appended),
            CorpusDelta::remove(Language::Pt, edited.title.clone()),
        ]
    };
    for delta in deltas {
        let report = engine.apply_delta(&delta);
        let record = journal.append(delta, report.fingerprint);
        assert_eq!(record.parent_fingerprint, report.fingerprint_before);
    }
    assert_eq!(journal.len(), 3);
    assert_eq!(journal.tip(), engine.fingerprint());
    (base, journal, engine.dataset().as_ref().clone())
}

/// The journal of a decode that kept every record.
fn whole(decoded: Result<(DeltaJournal, Option<SnapshotError>), SnapshotError>) -> DeltaJournal {
    let (journal, torn) = decoded.unwrap();
    assert!(
        torn.is_none(),
        "intact journal reported a torn tail: {torn:?}"
    );
    journal
}

#[test]
fn journal_round_trips_and_replays_over_its_base() {
    let (base, journal, mutated) = journal_fixture();
    let bytes = journal.to_bytes();
    let loaded = whole(DeltaJournal::recover(&bytes));
    assert_eq!(loaded, journal);

    // Replaying the records over the base reproduces the mutated corpus,
    // fingerprint-verified at every step.
    let mut replayed = base;
    assert_eq!(corpus_fingerprint(&replayed), loaded.base_fingerprint);
    for record in &loaded.records {
        assert_eq!(corpus_fingerprint(&replayed), record.parent_fingerprint);
        record.delta.apply_to(&mut replayed.corpus);
        assert_eq!(corpus_fingerprint(&replayed), record.post_fingerprint);
    }
    assert_eq!(corpus_fingerprint(&replayed), corpus_fingerprint(&mutated));
    assert_eq!(corpus_fingerprint(&replayed), loaded.tip());
}

#[test]
fn empty_journal_round_trips() {
    let journal = DeltaJournal::new(0xFEED_F00D);
    let loaded = whole(DeltaJournal::recover(&journal.to_bytes()));
    assert!(loaded.is_empty());
    assert_eq!(loaded.tip(), 0xFEED_F00D);
}

#[test]
fn truncated_journals_are_rejected_strictly() {
    let (_, journal, _) = journal_fixture();
    let bytes = journal.to_bytes();
    // Cuts inside the header reject the file.
    for cut in [0, 10, 19] {
        assert!(
            matches!(
                DeltaJournal::recover(&bytes[..cut]),
                Err(SnapshotError::Truncated)
            ),
            "cut at {cut} not detected as truncation"
        );
    }
    // Cuts inside a record body end the prefix there: never at a record
    // boundary (a boundary cut *is* a valid shorter journal, tested below).
    for cut in [bytes.len() / 2, bytes.len() - 1] {
        let (prefix, torn) = DeltaJournal::recover(&bytes[..cut]).unwrap();
        assert!(
            matches!(torn, Some(SnapshotError::Truncated)),
            "cut at {cut} not detected as truncation: {torn:?}"
        );
        assert!(prefix.len() < journal.len());
        assert_eq!(prefix.records[..], journal.records[..prefix.len()]);
    }
}

#[test]
fn boundary_cut_is_a_valid_shorter_journal() {
    let (_, journal, _) = journal_fixture();
    // Serialize only the first two records: that *is* the journal as it
    // existed before the third append, and must load cleanly.
    let mut shorter = journal.clone();
    shorter.records.truncate(2);
    let loaded = whole(DeltaJournal::recover(&shorter.to_bytes()));
    assert_eq!(loaded.len(), 2);
    assert_eq!(loaded.tip(), journal.records[1].post_fingerprint);
}

#[test]
fn corrupted_records_fail_their_checksum() {
    let (_, journal, _) = journal_fixture();
    let mut bytes = journal.to_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    let (prefix, torn) = DeltaJournal::recover(&bytes).unwrap();
    assert!(
        matches!(torn, Some(SnapshotError::ChecksumMismatch { .. })),
        "{torn:?}"
    );
    assert_eq!(prefix.len(), 2);
}

#[test]
fn recover_keeps_the_valid_prefix_of_a_torn_tail() {
    let (_, journal, _) = journal_fixture();
    let full = journal.to_bytes();

    // A torn final record (simulating a crash mid-append).
    let torn = &full[..full.len() - 5];
    let (recovered, reason) = DeltaJournal::recover(torn).unwrap();
    assert!(
        matches!(reason, Some(SnapshotError::Truncated)),
        "{reason:?}"
    );
    assert_eq!(recovered.len(), 2);
    assert_eq!(recovered.tip(), journal.records[1].post_fingerprint);

    // A corrupted final record is dropped the same way.
    let mut corrupt = full.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x40;
    let (recovered, reason) = DeltaJournal::recover(&corrupt).unwrap();
    assert!(
        matches!(reason, Some(SnapshotError::ChecksumMismatch { .. })),
        "{reason:?}"
    );
    assert_eq!(recovered.len(), 2);

    // An intact journal recovers losslessly.
    assert_eq!(whole(DeltaJournal::recover(&full)), journal);

    // Header damage has no usable prefix and stays fatal.
    assert!(matches!(
        DeltaJournal::recover(&full[..10]),
        Err(SnapshotError::Truncated)
    ));
}

#[test]
fn version_bumps_and_bad_magic_are_rejected() {
    let (_, journal, _) = journal_fixture();
    let bytes = journal.to_bytes();
    let mut bumped = bytes.clone();
    bumped[8] = bumped[8].wrapping_add(1);
    assert!(matches!(
        DeltaJournal::recover(&bumped),
        Err(SnapshotError::UnsupportedVersion { found, supported })
            if found == JOURNAL_FORMAT_VERSION + 1 && supported == JOURNAL_FORMAT_VERSION
    ));
    let mut wrong_magic = bytes;
    wrong_magic[0] = b'X';
    assert!(matches!(
        DeltaJournal::recover(&wrong_magic),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn replay_order_tampering_is_rejected() {
    let (_, journal, _) = journal_fixture();

    // Each tampered journal keeps only the records before the break, and
    // the break is reported as a malformed chain.
    let broken_after = |tampered: &DeltaJournal, valid: usize| {
        let (prefix, reason) = DeltaJournal::recover(&tampered.to_bytes()).unwrap();
        assert!(
            matches!(reason, Some(SnapshotError::Malformed(_))),
            "{reason:?}"
        );
        assert_eq!(prefix.records[..], journal.records[..valid]);
    };

    // Swapped records: each is checksum-valid, but the seq/fingerprint
    // chain breaks at the first.
    let mut swapped = journal.clone();
    swapped.records.swap(0, 1);
    broken_after(&swapped, 0);

    // A dropped middle record breaks the chain the same way.
    let mut gapped = journal.clone();
    gapped.records.remove(1);
    broken_after(&gapped, 1);

    // A record whose parent fingerprint was rewired to the wrong lineage.
    let mut rewired = journal.clone();
    rewired.records[2].parent_fingerprint ^= 1;
    broken_after(&rewired, 2);
}

#[test]
fn append_record_to_builds_the_same_file_incrementally() {
    let (_, journal, _) = journal_fixture();
    let dir = std::env::temp_dir().join(format!("wm-journal-test-{}", std::process::id()));
    let path = dir.join("corpus.journal");
    let _ = std::fs::remove_file(&path);

    for record in &journal.records {
        DeltaJournal::append_record_to(&path, journal.base_fingerprint, record).unwrap();
    }
    let loaded = whole(DeltaJournal::load_recovering(&path));
    assert_eq!(loaded, journal);

    // Atomic full save (the compaction path) overwrites with an empty
    // journal rooted at the new base.
    let compacted = DeltaJournal::new(journal.tip());
    compacted.save(&path).unwrap();
    let loaded = whole(DeltaJournal::load_recovering(&path));
    assert!(loaded.is_empty());
    assert_eq!(loaded.base_fingerprint, journal.tip());

    // A torn on-disk tail recovers to the valid prefix (fresh file: the
    // compacted header above is rooted at a different lineage).
    let _ = std::fs::remove_file(&path);
    for record in &journal.records {
        DeltaJournal::append_record_to(&path, journal.base_fingerprint, record).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let (recovered, reason) = DeltaJournal::load_recovering(&path).unwrap();
    assert!(
        matches!(reason, Some(SnapshotError::Truncated)),
        "{reason:?}"
    );
    assert_eq!(recovered.len(), 2);

    let _ = std::fs::remove_dir_all(&dir);
}
