//! Benchmarks for the `MatchEngine` session API: the amortization win of
//! computing the title dictionary and per-type artifacts once per dataset.
//!
//! Three variants of "align every type of the Pt-En dataset":
//!
//! * `legacy_rebuild_per_type` — the pre-0.2 code path: the bilingual
//!   title dictionary is rebuilt from the whole corpus for **every**
//!   entity type before the schema and similarity table are computed.
//! * `engine_cold_session` — build a [`MatchEngine`] (one dictionary) and
//!   run `align_all` with empty caches.
//! * `engine_warm_session` — `align_all` on a session whose per-type
//!   caches are already populated: only the alignment algorithm runs.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use wiki_corpus::{Dataset, SyntheticConfig};
use wiki_translate::TitleDictionary;
use wikimatch::{AttributeAlignment, DualSchema, MatchEngine, SimilarityTable, WikiMatchConfig};

fn bench_engine_amortization(c: &mut Criterion) {
    // One Arc built up front: per-iteration Arc clones are free, so the
    // engine variants measure session work, not corpus copying.
    let dataset: Arc<Dataset> = Arc::new(Dataset::pt_en(&SyntheticConfig::tiny()));
    let config = WikiMatchConfig::default();

    c.bench_function("align_all/legacy_rebuild_per_type", |b| {
        b.iter(|| {
            let dataset = std::hint::black_box(&dataset);
            let mut alignments = 0usize;
            for pairing in &dataset.types {
                // The title dictionary is rebuilt per type — exactly the
                // pre-0.2 align_all body.
                let dictionary = TitleDictionary::from_corpus(
                    &dataset.corpus,
                    dataset.other_language(),
                    dataset.english(),
                );
                let schema = DualSchema::build(
                    &dataset.corpus,
                    dataset.other_language(),
                    &pairing.label_other,
                    &pairing.label_en,
                    &dictionary,
                );
                let table = SimilarityTable::compute(&schema, config.lsi);
                let matches = AttributeAlignment::new(&schema, &table, config).run();
                alignments += matches.len();
            }
            std::hint::black_box(alignments)
        })
    });

    c.bench_function("align_all/engine_cold_session", |b| {
        b.iter(|| {
            let engine = MatchEngine::builder(Arc::clone(std::hint::black_box(&dataset))).build();
            std::hint::black_box(engine.align_all().len())
        })
    });

    let warm = MatchEngine::builder(Arc::clone(&dataset)).eager().build();
    c.bench_function("align_all/engine_warm_session", |b| {
        b.iter(|| std::hint::black_box(&warm).align_all().len())
    });

    c.bench_function("engine_build/title_dictionary", |b| {
        b.iter(|| MatchEngine::builder(Arc::clone(std::hint::black_box(&dataset))).build())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench_engine_amortization
}
criterion_main!(benches);
