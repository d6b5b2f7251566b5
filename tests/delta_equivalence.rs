//! Delta-ingestion equivalence: an engine mutated through
//! `MatchEngine::apply_delta` must be **bit-identical** to an engine built
//! cold from the same mutated corpus — similarity tables compared through
//! `f64::to_bits`, schemas through their exact term/weight entry lists, and
//! the final alignments through `align_all`.
//!
//! This is the contract that makes incremental updates trustworthy: the
//! patcher may skip recomputing whatever it can prove unchanged, but it may
//! never *approximate*.

use proptest::prelude::*;

use wikimatch_suite::adversarial::{adversarial_pt_en, AdversarialFlavor};
use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Article, AttributeValue, Dataset, Infobox, Language, Link, SyntheticConfig};
use wikimatch::{CorpusDelta, DeltaOp, EngineSnapshot, MappedSnapshot, MatchEngine};

fn config_with_seed(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        seed,
        ..SyntheticConfig::tiny()
    }
}

/// Deterministic split-mix style generator so mutation sequences are a pure
/// function of the proptest-chosen seed.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Picks the `k`-th live article of `language` (round-robin).
fn pick_article(dataset: &Dataset, language: &Language, k: u64) -> Option<Article> {
    let of_language: Vec<&Article> = dataset.corpus.articles_in(language).collect();
    if of_language.is_empty() {
        return None;
    }
    Some(of_language[(k % of_language.len() as u64) as usize].clone())
}

/// One pseudo-random mutation against the *current* corpus state. Covers
/// every interesting axis: value edits (dirty vectors), attribute additions
/// (skeleton changes), link edits (link channel + candidate generation),
/// removals (pair-list changes), cross-linked inserts (new pairs, new
/// dictionary entries, new clusters) and batched combinations.
fn random_delta(dataset: &Dataset, state: &mut u64, step: usize) -> Option<CorpusDelta> {
    let other = dataset.other_language().clone();
    match next(state) % 6 {
        // Edit the value of an existing attribute.
        0 => {
            let mut article = pick_article(dataset, &other, next(state))?;
            let attr_count = article.infobox.attributes.len();
            if attr_count == 0 {
                return None;
            }
            let slot = (next(state) % attr_count as u64) as usize;
            article.infobox.attributes[slot].value = format!("valor editado {step}");
            Some(CorpusDelta::upsert(article))
        }
        // Add a brand-new attribute (new name, new terms → skeleton and
        // vocabulary both change).
        1 => {
            let mut article = pick_article(dataset, &Language::En, next(state))?;
            article.infobox.push(AttributeValue::text(
                format!("note {step}"),
                format!("annotation {step}"),
            ));
            Some(CorpusDelta::upsert(article))
        }
        // Rewire a link (or add one) — exercises the cluster-token channel.
        2 => {
            let mut article = pick_article(dataset, &other, next(state))?;
            let target = pick_article(dataset, &other, next(state))?;
            article.infobox.push(AttributeValue::linked(
                format!("ligacao {step}"),
                target.title.clone(),
                vec![Link::plain(target.title.clone())],
            ));
            Some(CorpusDelta::upsert(article))
        }
        // Remove an article outright (tombstone; its pairs vanish).
        3 => {
            let article = pick_article(dataset, &other, next(state))?;
            Some(CorpusDelta::remove(article.language, article.title))
        }
        // Insert a new article cross-linked to an existing English one:
        // new dual pair, new dictionary entry, new entity cluster edge.
        4 => {
            let en = pick_article(dataset, &Language::En, next(state))?;
            let pairing = dataset
                .types
                .iter()
                .find(|p| p.label_en == en.entity_type)?;
            let mut infobox = Infobox::new(format!("Infobox {}", pairing.label_other));
            infobox.push(AttributeValue::text("origem", format!("fonte {step}")));
            infobox.push(AttributeValue::text("ano", "1999"));
            let mut article = Article::new(
                format!("Artigo Novo {step}"),
                other,
                pairing.label_other.clone(),
                infobox,
            );
            article.cross_links.push((Language::En, en.title.clone()));
            Some(CorpusDelta::upsert(article))
        }
        // A batch mixing an edit and a removal in one delta.
        _ => {
            let mut delta = CorpusDelta::new();
            if let Some(mut article) = pick_article(dataset, &Language::En, next(state)) {
                if let Some(attr) = article.infobox.attributes.first_mut() {
                    attr.value = format!("batched edit {step}");
                }
                delta.push(DeltaOp::Upsert(article));
            }
            if let Some(article) = pick_article(dataset, &other, next(state)) {
                delta.push(DeltaOp::Remove {
                    language: article.language,
                    title: article.title,
                });
            }
            (!delta.is_empty()).then_some(delta)
        }
    }
}

/// Asserts the patched engine and a cold rebuild over the *same* corpus
/// value are bit-identical, channel by channel.
fn assert_bit_identical(patched: &MatchEngine, cold: &MatchEngine) {
    let dataset = patched.dataset();
    for pairing in &dataset.types {
        let type_id = pairing.type_id.as_str();
        let a = patched.prepared(type_id).expect("patched type");
        let b = cold.prepared(type_id).expect("cold type");

        // Schemas: same attribute sequence, every channel's exact
        // (term, weight-bits) entry list, same occurrence data. The
        // patched arena may be a superset of the cold one (stale terms
        // from replaced values linger as unreferenced ids), so vectors
        // are compared term-wise, not id-wise.
        assert_eq!(a.schema.len(), b.schema.len(), "{type_id}: attribute count");
        assert_eq!(
            a.schema.dual_count, b.schema.dual_count,
            "{type_id}: dual count"
        );
        for (pa, pb) in a.schema.attributes.iter().zip(&b.schema.attributes) {
            assert_eq!(pa.language, pb.language, "{type_id}: attribute language");
            assert_eq!(pa.name, pb.name, "{type_id}: attribute name");
            assert_eq!(
                pa.occurrences, pb.occurrences,
                "{type_id}/{}: occurrences",
                pa.name
            );
            assert_eq!(
                pa.occurrence_pattern, pb.occurrence_pattern,
                "{type_id}/{}: occurrence pattern",
                pa.name
            );
            for (channel, va, vb) in [
                ("values", &pa.values, &pb.values),
                (
                    "translated_values",
                    &pa.translated_values,
                    &pb.translated_values,
                ),
                ("raw_values", &pa.raw_values, &pb.raw_values),
                (
                    "translated_raw_values",
                    &pa.translated_raw_values,
                    &pb.translated_raw_values,
                ),
                ("links", &pa.links, &pb.links),
            ] {
                let ea: Vec<(&str, u64)> = va.iter().map(|(t, w)| (t, w.to_bits())).collect();
                let eb: Vec<(&str, u64)> = vb.iter().map(|(t, w)| (t, w.to_bits())).collect();
                assert_eq!(ea, eb, "{type_id}/{}: {channel} entries", pa.name);
            }
        }

        // Similarity tables: exact bit patterns on all three channels.
        assert_eq!(
            a.table.pairs().len(),
            b.table.pairs().len(),
            "{type_id}: pair count"
        );
        for (x, y) in a.table.pairs().iter().zip(b.table.pairs()) {
            assert_eq!((x.p, x.q), (y.p, y.q), "{type_id}: pair order");
            assert_eq!(
                x.vsim.to_bits(),
                y.vsim.to_bits(),
                "{type_id}: vsim({}, {})",
                x.p,
                x.q
            );
            assert_eq!(
                x.lsim.to_bits(),
                y.lsim.to_bits(),
                "{type_id}: lsim({}, {})",
                x.p,
                x.q
            );
            assert_eq!(
                x.lsi.to_bits(),
                y.lsi.to_bits(),
                "{type_id}: lsi({}, {})",
                x.p,
                x.q
            );
        }
    }

    // End to end: identical alignments.
    let a: Vec<(String, Vec<(String, String)>)> = patched
        .align_all()
        .into_iter()
        .map(|t| (t.type_id.clone(), t.cross_pairs()))
        .collect();
    let b: Vec<(String, Vec<(String, String)>)> = cold
        .align_all()
        .into_iter()
        .map(|t| (t.type_id.clone(), t.cross_pairs()))
        .collect();
    assert_eq!(a, b, "alignments diverge");
}

/// An engine over `engine`'s corpus restored from a mapped snapshot of
/// it, and the temp directory holding the mapped file.
fn restored_from_mapped(engine: &MatchEngine, tag: &str) -> (std::path::PathBuf, MatchEngine) {
    let dir = std::env::temp_dir().join(format!("wm-delta-eq-{tag}-{}", std::process::id()));
    let path = dir.join("corpus.snap");
    EngineSnapshot::capture(engine)
        .save(&path)
        .expect("snapshot saves");
    let mapped = MappedSnapshot::open(&path).expect("mapped open");
    let restored = MatchEngine::builder(engine.dataset())
        .build_from_snapshot(mapped.snapshot)
        .expect("mapped snapshot restores");
    (dir, restored)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any seed, a random mutation sequence applied through
    /// `apply_delta` leaves the engine bit-identical to a cold rebuild of
    /// the mutated corpus — after *every* step, not just at the end. The
    /// same sequence runs on a second engine restored from a mapped
    /// snapshot of the starting corpus, whose patches share its restored
    /// LSI factors and borrowed evidence.
    #[test]
    fn patched_engine_is_bit_identical_to_cold_rebuild(seed in 0u64..1_000) {
        let dataset = Dataset::pt_en(&config_with_seed(seed));
        let engine = MatchEngine::builder(dataset).eager().build();
        let (dir, restored) = restored_from_mapped(&engine, &format!("seed-{seed}"));
        let types = engine.dataset().types.len();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);

        let mut applied = 0u64;
        for step in 0..6 {
            let Some(delta) = random_delta(&engine.dataset(), &mut state, step) else {
                continue;
            };
            let report = engine.apply_delta(&delta);
            let restored_report = restored.apply_delta(&delta);
            applied += 1;
            // Types the delta provably cannot reach carry over untouched;
            // the bit-identity check below is what proves the skips sound.
            prop_assert!(report.types_patched <= types);
            prop_assert_eq!(report.fingerprint, engine.fingerprint());
            prop_assert_eq!(restored_report.fingerprint, report.fingerprint);

            // Cold rebuild over the *same* mutated corpus value.
            let cold = MatchEngine::builder(engine.dataset()).eager().build();
            assert_bit_identical(&engine, &cold);
            assert_bit_identical(&restored, &cold);
        }
        prop_assert!(applied > 0, "every generated delta degenerated to None");

        let stats = engine.stats();
        prop_assert_eq!(stats.deltas_applied, applied);
        // The eager build built each type exactly once; every delta was
        // served by patching, never by a fresh artifact build — and the
        // restored engine never built one at all.
        prop_assert_eq!(stats.artifact_builds, types as u64);
        prop_assert_eq!(restored.stats().artifact_builds, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The same patch-vs-cold-rebuild contract on the adversarial corpus
    /// shapes (Zipf-skewed weights, empty/singleton vectors, all-pairs
    /// cliques, unicode-heavy values): incremental invalidation must stay
    /// exact even when the vectors it patches are degenerate.
    #[test]
    fn patched_engine_matches_cold_rebuild_on_adversarial_corpora(
        seed in 0u64..1_000,
        flavor_index in 0usize..4,
    ) {
        let flavor = AdversarialFlavor::ALL[flavor_index];
        let dataset = adversarial_pt_en(flavor, seed);
        let engine = MatchEngine::builder(dataset).eager().build();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(11);

        let mut applied = 0u64;
        for step in 0..4 {
            let Some(delta) = random_delta(&engine.dataset(), &mut state, step) else {
                continue;
            };
            engine.apply_delta(&delta);
            applied += 1;
            let cold = MatchEngine::builder(engine.dataset()).eager().build();
            assert_bit_identical(&engine, &cold);
        }
        prop_assert!(applied > 0, "every generated delta degenerated to None");
    }
}

/// A directed (non-random) end-to-end scenario covering the single-entity
/// convenience API and the report fields, kept deterministic so failures
/// are easy to bisect.
#[test]
fn single_entity_mutations_round_trip() {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let engine = MatchEngine::builder(dataset).eager().build();
    let types = engine.dataset().types.len();

    // Insert a fresh cross-linked article (the English pool also holds
    // unpaired "Person" articles, so pick one whose type is paired).
    let dataset = engine.dataset();
    let (en, pairing) = dataset
        .corpus
        .articles_in(&Language::En)
        .find_map(|a| {
            dataset
                .types
                .iter()
                .find(|p| p.label_en == a.entity_type)
                .map(|p| (a.clone(), p.clone()))
        })
        .expect("some English article has a paired type");
    let mut infobox = Infobox::new(format!("Infobox {}", pairing.label_other));
    infobox.push(AttributeValue::text("titulo", "Obra Nova"));
    let mut article = Article::new(
        "Obra Nova",
        Language::Pt,
        pairing.label_other.clone(),
        infobox,
    );
    article.cross_links.push((Language::En, en.title.clone()));

    let report = engine.insert_entity(article.clone());
    assert_eq!((report.inserted, report.updated, report.removed), (1, 0, 0));
    assert_eq!(report.types_patched, types);
    let cold = MatchEngine::builder(engine.dataset()).eager().build();
    assert_bit_identical(&engine, &cold);

    // Update it in place: a value edit of a cross-linked article dirties
    // similarity rows of its own type and of no other.
    article.infobox.attributes[0].value = "Obra Renomeada".to_string();
    let report = engine.update_entity(article);
    assert_eq!((report.inserted, report.updated, report.removed), (0, 1, 0));
    assert_eq!(report.types_patched, 1);
    assert!(report.rows_recomputed > 0, "the edit recomputed no row");
    let cold = MatchEngine::builder(engine.dataset()).eager().build();
    assert_bit_identical(&engine, &cold);

    // Remove it again.
    let report = engine.remove_entity(Language::Pt, "Obra Nova");
    assert_eq!((report.inserted, report.updated, report.removed), (0, 0, 1));
    assert_eq!(engine.stats().deltas_applied, 3);
    let cold = MatchEngine::builder(engine.dataset()).eager().build();
    assert_bit_identical(&engine, &cold);
}
