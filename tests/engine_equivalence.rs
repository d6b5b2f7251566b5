//! The `MatchEngine` session API must be a pure refactoring of the
//! per-type path: identical inputs produce byte-identical outputs.
//!
//! The per-type path rebuilds the title dictionary for every type; the
//! engine builds it once. Because the dictionary is a deterministic
//! function of the corpus, the derived correspondences must match exactly —
//! this test pins that equivalence on both standard datasets.

use std::sync::Arc;

use wikimatch_suite::{wiki_corpus, wiki_translate, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wiki_translate::TitleDictionary;
use wikimatch::{
    AttributeAlignment, DualSchema, MatchEngine, SimilarityTable, TypeAlignment, WikiMatchConfig,
};

/// The oracle: a fresh title dictionary per entity type, then the schema,
/// the similarity table and the alignment built directly from the
/// pairing's labels, types in dataset order.
fn per_type_align_all(dataset: &Dataset, config: WikiMatchConfig) -> Vec<TypeAlignment> {
    dataset
        .types
        .iter()
        .map(|pairing| {
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
            TypeAlignment {
                type_id: pairing.type_id.clone(),
                schema: Arc::new(schema),
                table: Arc::new(table),
                matches,
                languages: dataset.languages.clone(),
            }
        })
        .collect()
}

fn assert_byte_identical(dataset: Dataset) {
    let config = WikiMatchConfig::default();
    let oracle = per_type_align_all(&dataset, config);
    let engine = MatchEngine::builder(dataset).config(config).build();
    let session = engine.align_all();

    assert_eq!(oracle.len(), session.len());
    for (old, new) in oracle.iter().zip(&session) {
        assert_eq!(old.type_id, new.type_id);
        // Byte-identical derived correspondences...
        assert_eq!(
            format!("{:?}", old.cross_pairs()),
            format!("{:?}", new.cross_pairs()),
            "cross pairs diverge for {}",
            old.type_id
        );
        // ...and identical clusters and prepared artifacts underneath.
        assert_eq!(old.matches, new.matches, "{}", old.type_id);
        assert_eq!(*old.schema, *new.schema, "{}", old.type_id);
    }
}

#[test]
fn engine_align_all_matches_legacy_path_pt_en() {
    assert_byte_identical(Dataset::pt_en(&SyntheticConfig::tiny()));
}

#[test]
fn engine_align_all_matches_legacy_path_vn_en() {
    assert_byte_identical(Dataset::vn_en(&SyntheticConfig::tiny()));
}
