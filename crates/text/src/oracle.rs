//! The string functions' fast paths against their one-path definitions.
//!
//! `reference` keeps verbatim copies of [`normalize`], [`normalize_label`],
//! [`parse_value`], [`tokenize_value`] and [`split_value_atoms`] as they
//! were before the fast paths: one general normalisation for every input,
//! a date and a number parse tried on every atom, and every comma-split
//! atom parsed again. The tests compare the live functions with them over
//! arbitrary Unicode, over fixed cases at the edges of each fast path, and
//! over every attribute name and value of the Portuguese and Vietnamese
//! corpora from `tiny` to `medium`.

use std::collections::BTreeSet;

use proptest::prelude::*;
use wiki_corpus::{Dataset, Language, ScaleTier};

use crate::normalize::{normalize, normalize_label};
use crate::tokenize::{split_value_atoms, tokenize_value};
use crate::value::parse_value;

mod reference {
    use crate::normalize::fold_diacritics;
    use crate::value::{parse_date, parse_number, CanonicalValue};

    pub fn normalize(input: &str) -> String {
        let folded = fold_diacritics(input).to_lowercase();
        let chars: Vec<char> = folded.chars().collect();
        let mut out = String::with_capacity(folded.len());
        let mut last_space = true;
        for (i, &c) in chars.iter().enumerate() {
            // Keep a decimal point that sits between two digits ("44.1"), but
            // treat any other '.' as a word separator ("U.S.A.").
            let decimal_point = c == '.'
                && i > 0
                && i + 1 < chars.len()
                && chars[i - 1].is_ascii_digit()
                && chars[i + 1].is_ascii_digit();
            let mapped = if c.is_alphanumeric() || decimal_point {
                Some(c)
            } else if c.is_whitespace() || is_separator(c) {
                Some(' ')
            } else {
                None
            };
            match mapped {
                Some(' ') if !last_space => {
                    out.push(' ');
                    last_space = true;
                }
                // A space following a space is swallowed.
                Some(' ') => {}
                Some(ch) => {
                    out.push(ch);
                    last_space = false;
                }
                None => {}
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out
    }

    fn is_separator(c: char) -> bool {
        matches!(
            c,
            '-' | '_' | '/' | ',' | ';' | ':' | '|' | '(' | ')' | '[' | ']' | '{' | '}' | '.'
        )
    }

    pub fn normalize_label(input: &str) -> String {
        let base = normalize(input);
        // Strip a trailing repetition counter ("starring 2" or "starring2").
        let trimmed = base.trim_end_matches(|c: char| c.is_ascii_digit());
        let trimmed = trimmed.trim_end();
        if trimmed.is_empty() {
            base
        } else {
            trimmed.to_string()
        }
    }

    pub fn parse_value(atom: &str) -> CanonicalValue {
        let norm = normalize(atom);
        if norm.is_empty() {
            return CanonicalValue::Text(String::new());
        }
        if let Some(date) = parse_date(&norm) {
            return date;
        }
        if let Some(num) = parse_number(&norm) {
            return num;
        }
        CanonicalValue::Text(norm)
    }

    fn is_value_separator(c: char) -> bool {
        matches!(c, ',' | ';' | '•' | '·' | '\n' | '|')
    }

    pub fn tokenize_value(input: &str) -> Vec<String> {
        let mut out = Vec::new();
        // Split on the strong separators first; a comma may be part of an
        // English-style date ("December 18, 1950") so chunks that parse as a
        // date are kept whole and only the remaining ones are split on commas.
        for chunk in input.split([';', '•', '·', '\n', '|']) {
            let chunk = chunk.trim();
            if chunk.is_empty() {
                continue;
            }
            let parsed = parse_value(chunk);
            if parsed.is_date() {
                out.push(parsed.canonical_token());
                continue;
            }
            for atom in chunk.split(',') {
                let atom = atom.trim();
                if atom.is_empty() {
                    continue;
                }
                let token = parse_value(atom).canonical_token();
                if !token.is_empty() {
                    out.push(token);
                }
            }
        }
        out
    }

    pub fn split_value_atoms(input: &str) -> Vec<String> {
        input
            .split(is_value_separator)
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(normalize)
            .filter(|s| !s.is_empty())
            .collect()
    }
}

/// Asserts that every live function agrees with its reference on `input`.
fn assert_same(input: &str) {
    assert_eq!(normalize(input), reference::normalize(input), "{input:?}");
    assert_eq!(
        normalize_label(input),
        reference::normalize_label(input),
        "{input:?}"
    );
    assert_eq!(
        parse_value(input),
        reference::parse_value(input),
        "{input:?}"
    );
    assert_eq!(
        tokenize_value(input),
        reference::tokenize_value(input),
        "{input:?}"
    );
    assert_eq!(
        split_value_atoms(input),
        reference::split_value_atoms(input),
        "{input:?}"
    );
}

/// Characters at the edges of the fast paths: ASCII letters, digits and
/// every separator; letters the fold table maps and one it does not (`ũ`);
/// whitespace outside ASCII; characters whose lowercase depends on context
/// (`Σ`), is longer than they are (`İ`) or is ASCII although they are not
/// (U+212A KELVIN SIGN); and digits and alphanumerics outside ASCII.
const EDGE_CHARS: &[char] = &[
    'a', 'Z', 'k', '0', '1', '9', '.', ',', ';', ' ', '-', '_', '/', ':', '|', '(', ')', '[', ']',
    '{', '}', '!', '\'', '•', '·', '\n', '\t', '\u{0B}', '\u{85}', '\u{A0}', '\u{2003}', 'é', 'Ả',
    'ư', 'đ', 'Đ', 'ç', 'ũ', 'Σ', 'σ', 'ς', 'İ', 'ı', '\u{212A}', 'ß', '٣', '²', '中',
];

/// Strings of up to 24 characters: mostly [`EDGE_CHARS`], some arbitrary
/// code points.
fn unicode_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..24).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(kind, code)| match kind {
                0 => char::from_u32(code),
                _ => Some(EDGE_CHARS[code as usize % EDGE_CHARS.len()]),
            })
            .collect()
    })
}

/// Strings of up to 24 characters that fold to ASCII, so [`normalize`]
/// takes its fast path on all of them.
fn folding_text() -> impl Strategy<Value = String> {
    let chars: Vec<char> = EDGE_CHARS
        .iter()
        .copied()
        .filter(|c| crate::fold_diacritics(&c.to_string()).is_ascii())
        .collect();
    proptest::collection::vec(0usize..chars.len(), 0..24)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn oracle_arbitrary_unicode(input in unicode_text()) {
        assert_same(&input);
    }

    #[test]
    fn oracle_text_that_folds_to_ascii(input in folding_text()) {
        assert_same(&input);
    }
}

#[test]
fn oracle_fixed_cases() {
    for input in [
        // Lowercasing that the fast path must leave to the general one.
        "ΟΔΟΣ",
        "ΟΔΟΣ ΣΑΣ, ΑΣ.",
        "İstanbul",
        "Istanbul İ",
        "\u{212A}elvin",
        "1\u{212A}",
        // Whitespace outside ASCII and the ASCII vertical tab.
        "a\u{A0}b",
        "a\u{85}b",
        "a\u{0B}b",
        "\u{A0}1987\u{A0}",
        // Decimal points.
        "44.1",
        "1.",
        ".5",
        "a..b",
        "1..2",
        "1.2.3",
        "U.S.A.",
        // Atoms without a digit are text at once.
        "Bernardo Bertolucci",
        "dezembro",
        "Ngày",
        "mil",
        "",
        "   ",
        // Chunks without a comma reuse their parse; chunks with one split.
        "160 minutes; 1987",
        "December 18 1950",
        "December 18, 1950",
        "Drama, Estados Unidos",
        "18 de Dezembro de 1950, Itália",
        "10 bilhões | 12th • ab1 · 2010",
        ", ;",
    ] {
        assert_same(input);
    }
}

#[test]
fn oracle_every_corpus_name_and_value() {
    let mut names = BTreeSet::new();
    let mut values = BTreeSet::new();
    for tier in [ScaleTier::Tiny, ScaleTier::Small, ScaleTier::Medium] {
        for language in [Language::Pt, Language::Vn] {
            let dataset = Dataset::generate(language, &tier.config());
            for article in dataset.corpus.articles() {
                for attr in &article.infobox.attributes {
                    names.insert(attr.name.clone());
                    values.insert(attr.value.clone());
                }
            }
        }
    }
    for name in &names {
        assert_eq!(normalize(name), reference::normalize(name), "{name:?}");
        assert_eq!(
            normalize_label(name),
            reference::normalize_label(name),
            "{name:?}"
        );
    }
    for value in &values {
        assert_eq!(normalize(value), reference::normalize(value), "{value:?}");
        assert_eq!(
            parse_value(value),
            reference::parse_value(value),
            "{value:?}"
        );
        assert_eq!(
            tokenize_value(value),
            reference::tokenize_value(value),
            "{value:?}"
        );
        assert_eq!(
            split_value_atoms(value),
            reference::split_value_atoms(value),
            "{value:?}"
        );
    }
    assert!(names.len() > 100 && values.len() > 1000);
}
