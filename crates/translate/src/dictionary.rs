//! The automatically derived bilingual title dictionary.
//!
//! Following Section 3.2 of the paper (and Oh et al.), the dictionary is
//! built purely from the corpus: every cross-language link between an
//! article in language `L` and one in `L'` contributes the entry
//! `title(L) → title(L')`. When `vsim` compares the value vectors of two
//! attributes, values of the `L` vector that appear in the dictionary are
//! replaced by their `L'` representation before the cosine is computed.

use std::collections::HashMap;

use wiki_corpus::{Corpus, Language};
use wiki_text::{normalize, TermArena};

/// A directed bilingual dictionary from titles of one language to titles of
/// another, keyed by normalised source title.
#[derive(Debug, Clone)]
pub struct TitleDictionary {
    source: Language,
    target: Language,
    entries: HashMap<String, String>,
}

impl TitleDictionary {
    /// Builds the dictionary translating titles from `source` into `target`
    /// using the corpus' cross-language links.
    pub fn from_corpus(corpus: &Corpus, source: &Language, target: &Language) -> Self {
        let mut entries = HashMap::new();
        for (src_id, dst_id) in corpus.cross_language_pairs(source, target) {
            let (Some(src), Some(dst)) = (corpus.get(src_id), corpus.get(dst_id)) else {
                continue;
            };
            entries.insert(normalize(&src.title), dst.title.clone());
        }
        Self {
            source: source.clone(),
            target: target.clone(),
            entries,
        }
    }

    /// Rebuilds a dictionary from `(normalised source title, target title)`
    /// entries — the shape produced by [`entries`](Self::entries). Used by
    /// persistence layers restoring a dictionary without re-scanning the
    /// corpus.
    pub fn from_entries(
        source: Language,
        target: Language,
        entries: impl IntoIterator<Item = (String, String)>,
    ) -> Self {
        Self {
            source,
            target,
            entries: entries.into_iter().collect(),
        }
    }

    /// Estimated heap bytes of the entries: one bucket per map slot (two
    /// strings and a control byte) plus the entry text.
    pub fn heap_bytes(&self) -> u64 {
        let buckets = self.entries.capacity() * (2 * std::mem::size_of::<String>() + 1);
        let text: usize = self
            .entries
            .iter()
            .map(|(key, value)| key.capacity() + value.capacity())
            .sum();
        (buckets + text) as u64
    }

    /// Iterates over the `(normalised source title, target title)` entries
    /// in unspecified order. Persistence layers should sort the entries
    /// before writing them to obtain a canonical byte stream.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// The source language of the dictionary.
    pub fn source(&self) -> &Language {
        &self.source
    }

    /// The target language of the dictionary.
    pub fn target(&self) -> &Language {
        &self.target
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Translates a term (normalised comparison); returns the *normalised*
    /// target-language form, or `None` when the term is unknown.
    pub fn translate(&self, term: &str) -> Option<String> {
        self.entries.get(&normalize(term)).map(|t| normalize(t))
    }

    /// Translates a term, keeping the original (normalised) form when the
    /// dictionary has no entry — the behaviour `vsim` needs when translating
    /// a value vector.
    pub fn translate_or_keep(&self, term: &str) -> String {
        self.translate(term).unwrap_or_else(|| normalize(term))
    }

    /// Translates every **distinct** term of a frozen [`TermArena`] once,
    /// returning the arena-indexed translation table
    /// (`table[id] == translate(arena.resolve(id))`).
    ///
    /// `needed` masks the ids worth translating (terms that only ever occur
    /// in English attributes or in link-cluster tokens never consult the
    /// dictionary); unneeded slots come back `None` without a lookup. This
    /// is the id-space bulk variant of [`translate`](Self::translate): the
    /// schema builder used to normalise and look up every token
    /// *occurrence*, this pays one lookup per vocabulary entry.
    pub fn translate_arena(&self, arena: &TermArena, needed: &[bool]) -> Vec<Option<String>> {
        debug_assert_eq!(needed.len(), arena.len());
        arena
            .terms()
            .zip(needed)
            .map(|(term, wanted)| wanted.then(|| self.translate(term)).flatten())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Infobox};

    fn corpus_with_links() -> Corpus {
        let mut corpus = Corpus::new();
        let mk = |title: &str, lang: Language, cross: Option<(Language, &str)>| {
            let mut ib = Infobox::new("Infobox");
            ib.push(AttributeValue::text("name", title));
            let mut a = Article::new(title, lang, "Thing", ib);
            if let Some((l, t)) = cross {
                a.add_cross_link(l, t);
            }
            a
        };
        corpus.insert(mk(
            "United States",
            Language::En,
            Some((Language::Pt, "Estados Unidos")),
        ));
        corpus.insert(mk("Estados Unidos", Language::Pt, None));
        corpus.insert(mk("Ireland", Language::En, Some((Language::Pt, "Irlanda"))));
        corpus.insert(mk("Irlanda", Language::Pt, None));
        corpus.insert(mk("Orphan", Language::En, None));
        corpus
    }

    #[test]
    fn builds_entries_from_cross_links() {
        let corpus = corpus_with_links();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        assert_eq!(dict.len(), 2);
        assert_eq!(
            dict.translate("Estados Unidos"),
            Some("united states".into())
        );
        assert_eq!(
            dict.translate("estados  unidos"),
            Some("united states".into())
        );
        assert_eq!(dict.translate("Brasil"), None);
        assert_eq!(dict.source(), &Language::Pt);
        assert_eq!(dict.target(), &Language::En);
    }

    #[test]
    fn reverse_direction_is_a_separate_dictionary() {
        let corpus = corpus_with_links();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::En, &Language::Pt);
        assert_eq!(dict.translate("Ireland"), Some("irlanda".into()));
        assert_eq!(dict.translate("Irlanda"), None);
    }

    #[test]
    fn translate_or_keep_falls_back_to_normalised_input() {
        let corpus = corpus_with_links();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        assert_eq!(dict.translate_or_keep("Irlanda"), "ireland");
        assert_eq!(dict.translate_or_keep("Cinema Novo"), "cinema novo");
    }

    #[test]
    fn entries_round_trip_through_from_entries() {
        let corpus = corpus_with_links();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let mut entries: Vec<(String, String)> = dict
            .entries()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        entries.sort();
        let rebuilt =
            TitleDictionary::from_entries(dict.source().clone(), dict.target().clone(), entries);
        assert_eq!(rebuilt.len(), dict.len());
        assert_eq!(
            rebuilt.translate("Estados Unidos"),
            dict.translate("Estados Unidos")
        );
        assert_eq!(rebuilt.translate_or_keep("Cinema Novo"), "cinema novo");
    }

    #[test]
    fn translate_arena_translates_distinct_terms_once() {
        let corpus = corpus_with_links();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let mut builder = wiki_text::TermArenaBuilder::new();
        for t in ["irlanda", "cinema novo", "estados unidos"] {
            builder.intern(t);
        }
        let (arena, _) = builder.freeze();
        let all = vec![true; arena.len()];
        let table = dict.translate_arena(&arena, &all);
        assert_eq!(table.len(), arena.len());
        let lookup = |term: &str| table[arena.intern(term).unwrap() as usize].clone();
        assert_eq!(lookup("estados unidos"), Some("united states".into()));
        assert_eq!(lookup("irlanda"), Some("ireland".into()));
        assert_eq!(lookup("cinema novo"), None);
        // A masked-out slot is never consulted.
        let mut mask = all;
        mask[arena.intern("irlanda").unwrap() as usize] = false;
        let masked = dict.translate_arena(&arena, &mask);
        assert_eq!(masked[arena.intern("irlanda").unwrap() as usize], None);
    }

    #[test]
    fn empty_corpus_gives_empty_dictionary() {
        let corpus = Corpus::new();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        assert!(dict.is_empty());
        assert_eq!(dict.translate("anything"), None);
    }
}
