//! # wikimatch
//!
//! A from-scratch Rust implementation of **WikiMatch** — the multilingual
//! schema-matching approach for Wikipedia infoboxes introduced by Nguyen,
//! Moreira, Nguyen, Nguyen and Freire, *"Multilingual Schema Matching for
//! Wikipedia Infoboxes"*, PVLDB 5(2), 2011.
//!
//! WikiMatch finds correspondences between infobox attributes coming from
//! articles in different languages, without training data, external
//! dictionaries or machine translation. It combines four sources of
//! similarity evidence:
//!
//! 1. **Value similarity** ([`similarity`]): cosine between attribute value
//!    vectors, after translating values through an automatically derived
//!    bilingual title dictionary (built from cross-language links).
//! 2. **Link-structure similarity**: cosine between the sets of articles an
//!    attribute's values link to, with targets unified through the corpus'
//!    cross-language entity clusters.
//! 3. **Attribute correlation via LSI** ([`similarity::SimilarityTable`]):
//!    cosine between reduced attribute vectors obtained by a truncated SVD
//!    of the attribute × dual-language-infobox occurrence matrix.
//! 4. **Inductive grouping** ([`alignment`]): co-occurrence of unmatched
//!    attributes with already-matched ones, used by the `ReviseUncertain`
//!    step to recover correct-but-low-confidence matches.
//!
//! ## Quick start
//!
//! Matching is served by a corpus-scoped session, the [`MatchEngine`]: build
//! it once per dataset and it precomputes the bilingual title dictionary,
//! then computes the entity-type correspondences and the per-type schema and
//! similarity artifacts once on first use, so every request after the first
//! is served from the session's caches.
//!
//! ```
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wikimatch::MatchEngine;
//!
//! // Generate a small Portuguese-English corpus with ground truth and open
//! // a matching session over it.
//! let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
//! let engine = MatchEngine::builder(dataset).build();
//!
//! // Align the attributes of the "film" entity type. The title dictionary
//! // was built once at session start; aligning more types reuses it.
//! let alignment = engine.align("film").expect("film type exists");
//!
//! // Cross-language correspondences, e.g. ("direcao", "directed by").
//! assert!(!alignment.cross_pairs().is_empty());
//!
//! // Align every type of the dataset, in parallel.
//! let all = engine.align_all();
//! assert_eq!(all.len(), engine.dataset().types.len());
//! ```
//!
//! Any implementation of the [`SchemaMatcher`] trait — WikiMatch itself or
//! the baselines in `wiki-baselines` — can be driven through the same
//! session with [`MatchEngine::align_with`]:
//!
//! ```
//! use wiki_corpus::{Dataset, SyntheticConfig};
//! use wikimatch::{MatchEngine, SchemaMatcher, WikiMatch};
//!
//! let engine = MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build();
//! let matcher = WikiMatch::default(); // any SchemaMatcher
//! let pairs = engine.align_with(&matcher, "film").expect("film type exists");
//! assert!(!pairs.is_empty());
//! ```
//!
//! ## Module map
//!
//! * [`engine`] — the [`MatchEngine`] session and the [`SchemaMatcher`]
//!   plugin trait every matcher (core and baselines) implements.
//! * [`config`] — thresholds (`Tsim`, `TLSI`), LSI settings and ablation
//!   switches used by the component-contribution experiments (Table 3).
//! * [`schema`] — builds the dual-language schema of an entity type:
//!   attribute groups with value vectors, link vectors and occurrence
//!   patterns.
//! * [`similarity`] — `vsim`, `lsim` and the LSI correlation table.
//! * [`filter`] — candidate generation: the attribute pairs that share a
//!   value or link term, the only pairs a similarity build or a delta
//!   patch scores.
//! * [`mod@matches`] — match clusters (synonym sets spanning both languages).
//! * [`alignment`] — the `AttributeAlignment`, `IntegrateMatches` and
//!   `ReviseUncertain` algorithms (Algorithms 1 and 2 of the paper).
//! * [`types`] — cross-language entity-type matching (Section 3.1).
//! * [`pipeline`] — [`TypeAlignment`] results and the [`WikiMatch`]
//!   configuration holder.
//! * [`snapshot`] — versioned binary persistence of engine artifacts
//!   ([`EngineSnapshot`]), enabling zero-rebuild warm starts, plus the
//!   journaled delta log ([`DeltaJournal`]) that lets mutated corpora
//!   warm-start too.
//! * [`delta`] — live-corpus mutations ([`CorpusDelta`]) and the
//!   incremental artifact patcher behind [`MatchEngine::apply_delta`].
//! * [`direct`] — the snapshot layout (format v5): an offset directory plus
//!   fixed-stride sections that artifacts *borrow* from without decoding,
//!   with each table stored as its evidence rows and LSI factors.
//! * [`mmap`] — a std-only `mmap(2)` wrapper ([`MappedRegion`]) so
//!   snapshots are paged in by the OS instead of read onto the heap.

// `mmap.rs` is the single place unsafe is allowed: the raw mmap/munmap FFI.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod config;
pub mod delta;
pub mod direct;
pub mod engine;
pub mod filter;
pub mod matches;
pub mod mmap;
pub mod pipeline;
pub mod schema;
pub mod similarity;
pub mod snapshot;
pub mod types;

pub use alignment::AttributeAlignment;
pub use config::WikiMatchConfig;
pub use delta::{CorpusDelta, DeltaOp, DeltaReport};
pub use direct::MappedSnapshot;
pub use engine::{EngineStats, MatchEngine, MatchEngineBuilder, PreparedType, SchemaMatcher};
pub use matches::{MatchCluster, MatchSet};
pub use mmap::MappedRegion;
pub use pipeline::{TypeAlignment, WikiMatch};
pub use schema::{AttributeStats, DualSchema};
pub use similarity::{CandidatePair, ComputeMode, PairCounts, SimilarityTable};
pub use snapshot::{corpus_fingerprint, DeltaJournal, DeltaRecord, EngineSnapshot, SnapshotError};
pub use types::match_entity_types;
