//! Tokenisation of attribute names and infobox values.
//!
//! Two granularities are used by the matching pipeline:
//!
//! * **word tokens** ([`tokenize_words`]) — used by the COMA++-style name
//!   matcher and by the bilingual dictionary lookup, which tries to translate
//!   multi-word sub-spans of a value.
//! * **value tokens** ([`tokenize_value`]) — used to build the `vsim` value
//!   vectors. A raw infobox value such as
//!   `"Bernardo Bertolucci, Itália, 18 de Dezembro 1950"` is split on value
//!   separators into the value atoms `["bernardo bertolucci", "italia",
//!   "18 de dezembro 1950"]`; each atom is then canonicalised by
//!   [`crate::value::parse_value`].

use crate::normalize::normalize;
use crate::value::parse_value;

/// Splits a string into normalised word tokens.
///
/// ```
/// use wiki_text::tokenize_words;
/// assert_eq!(tokenize_words("Elenco original"), vec!["elenco", "original"]);
/// assert_eq!(tokenize_words("đạo diễn"), vec!["dao", "dien"]);
/// ```
pub fn tokenize_words(input: &str) -> Vec<String> {
    normalize(input)
        .split_whitespace()
        .map(|s| s.to_string())
        .collect()
}

/// Characters that separate independent atoms inside one infobox value.
///
/// Wikipedia editors typically list multiple values separated by commas,
/// semicolons, line-break templates (`<br>` already stripped by the wikitext
/// parser) or bullets.
fn is_value_separator(c: char) -> bool {
    matches!(c, ',' | ';' | '•' | '·' | '\n' | '|')
}

/// Splits a raw value string into canonical value atoms.
///
/// Each atom is canonicalised via [`parse_value`] so that dates and numbers
/// written in different language conventions map to the same token, which is
/// what allows the value-vector cosine (`vsim`) to fire for e.g.
/// `"18 de Dezembro 1950"` vs `"December 18, 1950"`.
///
/// ```
/// use wiki_text::tokenize_value;
/// let pt = tokenize_value("18 de Dezembro de 1950, Itália");
/// let en = tokenize_value("December 18, 1950; Italy");
/// assert!(pt.contains(&"date:1950-12-18".to_string()));
/// assert!(en.contains(&"date:1950-12-18".to_string()));
/// ```
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
        // A chunk without a comma is its own only atom, already parsed.
        if !chunk.contains(',') {
            let token = parsed.canonical_token();
            if !token.is_empty() {
                out.push(token);
            }
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

/// Splits a raw value into *raw* (uncanonicalised but normalised) atoms.
///
/// Used when the caller needs to keep the original surface form, e.g. when
/// looking atoms up in the bilingual title dictionary before falling back to
/// canonicalisation.
pub fn split_value_atoms(input: &str) -> Vec<String> {
    input
        .split(is_value_separator)
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(normalize)
        .filter(|s| !s.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_normalised() {
        assert_eq!(tokenize_words("Directed By"), vec!["directed", "by"]);
        assert_eq!(tokenize_words(""), Vec::<String>::new());
    }

    #[test]
    fn value_atoms_split_on_commas_and_semicolons() {
        let atoms = split_value_atoms("Ryuichi Sakamoto, David Byrne; Cong Su");
        assert_eq!(atoms, vec!["ryuichi sakamoto", "david byrne", "cong su"]);
    }

    #[test]
    fn value_tokens_canonicalise_numbers() {
        let tokens = tokenize_value("160 minutes");
        assert_eq!(tokens, vec!["num:160"]);
        let tokens = tokenize_value("165 minutos");
        assert_eq!(tokens, vec!["num:165"]);
    }

    #[test]
    fn empty_and_whitespace_values_produce_no_tokens() {
        assert!(tokenize_value("   ").is_empty());
        assert!(tokenize_value(", ;").is_empty());
    }

    #[test]
    fn plain_text_atoms_survive() {
        let tokens = tokenize_value("Drama, Estados Unidos");
        assert_eq!(tokens, vec!["drama", "estados unidos"]);
    }
}
