//! # wiki-text
//!
//! Text-processing primitives shared across the WikiMatch reproduction.
//!
//! The crate provides:
//!
//! * [`arena`] — vocabulary interning: a frozen, lexicographically sorted
//!   string table assigning dense `u32` term ids in term order, so id
//!   comparisons are term comparisons and interned vectors reproduce the
//!   string-keyed results bit for bit. One arena serves one entity type.
//! * [`mod@normalize`] — Unicode-aware lowercasing, diacritic folding for the
//!   Latin-based languages used in the paper (English, Portuguese,
//!   Vietnamese) and whitespace/punctuation canonicalisation. Input that
//!   folds to ASCII takes a one-pass fast path; any other input falls back
//!   to the general path, which defines the result.
//! * [`tokenize`] — word and value tokenisation used when building attribute
//!   value vectors. An atom without an ASCII digit is text without a date
//!   or number parse, and a chunk without a comma reuses its own parse.
//! * [`vector`] — sparse term-frequency vectors with cosine similarity, the
//!   workhorse of the paper's `vsim`/`lsim` measures. A vector is built in
//!   id space on an arena, and every pairwise operation walks the ids of
//!   two vectors of that one arena.
//! * [`region`] — the [`ByteRegion`] handle that lets arenas and vectors
//!   *borrow* their storage from an externally-owned byte buffer (a mapped
//!   snapshot) instead of owning heap copies.
//! * [`strsim`] — classic string-similarity functions (Levenshtein,
//!   Jaro-Winkler, character n-grams, token overlap) needed by the
//!   COMA++-style name matcher baseline.
//! * [`value`] — light-weight typed interpretation of infobox values
//!   (dates, numbers, plain text) so that e.g. "18 de Dezembro 1950" and
//!   "December 18 1950" canonicalise to the same token.
//!
//! None of these helpers know anything about Wikipedia or schema matching;
//! they are reusable building blocks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod normalize;
#[cfg(test)]
mod oracle;
pub mod region;
pub mod strsim;
pub mod tokenize;
pub mod value;
pub mod vector;

pub use arena::{TermArena, TermArenaBuilder};
pub use normalize::{fold_diacritics, normalize, normalize_label};
pub use region::ByteRegion;
pub use strsim::{jaro_winkler, levenshtein, ngram_similarity, token_overlap};
pub use tokenize::{tokenize_value, tokenize_words};
pub use value::{parse_value, CanonicalValue};
pub use vector::TermVector;
