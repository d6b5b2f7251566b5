//! The [`Corpus`]: a container of articles with the indexes the matching
//! pipeline needs.
//!
//! Besides plain storage the corpus maintains:
//!
//! * a *title index* `(language, title) → article`,
//! * the set of *cross-language pairs* for any two languages,
//! * an *entity clustering* that unions articles connected (directly or
//!   transitively) by cross-language links — the clustering is what makes two
//!   link targets "equal" for the link-structure similarity and what the
//!   bilingual title dictionary is derived from.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::lang::Language;
use crate::model::{Article, ArticleId, AttributeValue, Link};

/// An in-memory collection of Wikipedia articles across language editions.
///
/// Articles are stored in append-only id slots; removal tombstones a slot
/// instead of shifting later ids, so every [`ArticleId`] handed out stays
/// stable across mutations. Tombstoned slots are invisible to every public
/// accessor (`len`, `get`, `articles`, pairs, clusters, fingerprints).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    articles: Vec<Article>,
    /// Sorted slot indices of tombstoned (removed) articles.
    #[serde(default)]
    removed: Vec<u32>,
    #[serde(skip)]
    title_index: HashMap<(Language, String), ArticleId>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an article, assigning and returning its [`ArticleId`].
    ///
    /// Titles must be unique within a language edition; inserting a duplicate
    /// title replaces nothing and returns the existing article's id. A title
    /// whose previous article was removed gets a fresh id (the tombstoned
    /// slot is never reused).
    pub fn insert(&mut self, mut article: Article) -> ArticleId {
        let key = (article.language.clone(), article.title.clone());
        if let Some(&existing) = self.title_index.get(&key) {
            return existing;
        }
        let id = ArticleId(self.articles.len() as u32);
        article.id = id;
        self.title_index.insert(key, id);
        self.articles.push(article);
        id
    }

    /// Replaces the live article with `article`'s `(language, title)` key in
    /// place, keeping its id. Returns the id, or `None` when no live article
    /// has that key (nothing is modified then).
    pub fn replace(&mut self, mut article: Article) -> Option<ArticleId> {
        let key = (article.language.clone(), article.title.clone());
        let id = *self.title_index.get(&key)?;
        article.id = id;
        self.articles[id.index()] = article;
        Some(id)
    }

    /// Tombstones the live article with the given `(language, title)` key.
    /// Returns its id, or `None` when no live article has that key. The id
    /// slot is retained (ids of other articles never shift); the article
    /// simply disappears from every accessor.
    pub fn remove_by_title(&mut self, language: &Language, title: &str) -> Option<ArticleId> {
        let id = self
            .title_index
            .remove(&(language.clone(), title.to_string()))?;
        if let Err(at) = self.removed.binary_search(&id.0) {
            self.removed.insert(at, id.0);
        }
        Some(id)
    }

    /// Whether an id refers to a tombstoned slot.
    pub fn is_removed(&self, id: ArticleId) -> bool {
        self.removed.binary_search(&id.0).is_ok()
    }

    /// Number of live articles.
    pub fn len(&self) -> usize {
        self.articles.len() - self.removed.len()
    }

    /// True when the corpus holds no live articles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of id slots ever allocated (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.articles.len()
    }

    /// Estimated heap bytes the corpus holds: every article slot with its
    /// strings and vectors, the tombstone list and the title index. It
    /// walks every article, so callers that charge it often should keep
    /// the result.
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let mut bytes =
            self.articles.capacity() * size_of::<Article>() + self.removed.capacity() * 4;
        for article in &self.articles {
            bytes += article.title.capacity()
                + article.entity_type.capacity()
                + article.infobox.template.capacity()
                + article.infobox.attributes.capacity() * size_of::<AttributeValue>()
                + article.cross_links.capacity() * size_of::<(Language, String)>();
            for attr in &article.infobox.attributes {
                bytes += attr.name.capacity()
                    + attr.value.capacity()
                    + attr.links.capacity() * size_of::<Link>();
                for link in &attr.links {
                    bytes += link.target.capacity() + link.anchor.capacity();
                }
            }
            for (_, title) in &article.cross_links {
                bytes += title.capacity();
            }
        }
        // One bucket per index slot (key, id and a control byte), plus the
        // keys' title text.
        bytes += self.title_index.capacity()
            * (size_of::<(Language, String)>() + size_of::<ArticleId>() + 1);
        for (_, title) in self.title_index.keys() {
            bytes += title.capacity();
        }
        bytes as u64
    }

    /// Looks up a live article by id (`None` for tombstoned slots).
    pub fn get(&self, id: ArticleId) -> Option<&Article> {
        if self.is_removed(id) {
            return None;
        }
        self.articles.get(id.index())
    }

    /// Looks up an article by `(language, title)`.
    pub fn get_by_title(&self, language: &Language, title: &str) -> Option<&Article> {
        self.title_index
            .get(&(language.clone(), title.to_string()))
            .and_then(|&id| self.get(id))
    }

    /// Iterates over all live articles in id order.
    pub fn articles(&self) -> impl Iterator<Item = &Article> {
        self.articles.iter().filter(move |a| !self.is_removed(a.id))
    }

    /// Iterates over the live articles of one language edition.
    pub fn articles_in<'a>(
        &'a self,
        language: &'a Language,
    ) -> impl Iterator<Item = &'a Article> + 'a {
        self.articles().filter(move |a| &a.language == language)
    }

    /// Rebuilds the title index (needed after deserialisation).
    pub fn rebuild_index(&mut self) {
        self.title_index = self
            .articles
            .iter()
            .filter(|a| self.removed.binary_search(&a.id.0).is_err())
            .map(|a| ((a.language.clone(), a.title.clone()), a.id))
            .collect();
    }

    /// All pairs of articles `(a, b)` such that `a` is in `l1`, `b` is in
    /// `l2` and `a` has a cross-language link to `b` (or vice versa).
    pub fn cross_language_pairs(
        &self,
        l1: &Language,
        l2: &Language,
    ) -> Vec<(ArticleId, ArticleId)> {
        let mut pairs = Vec::new();
        let mut seen: HashMap<(ArticleId, ArticleId), ()> = HashMap::new();
        for article in self.articles() {
            if &article.language != l1 {
                continue;
            }
            if let Some(title) = article.cross_link_to(l2) {
                if let Some(other) = self.get_by_title(l2, title) {
                    if seen.insert((article.id, other.id), ()).is_none() {
                        pairs.push((article.id, other.id));
                    }
                }
            }
        }
        // Also honour links recorded only on the l2 side.
        for article in self.articles() {
            if &article.language != l2 {
                continue;
            }
            if let Some(title) = article.cross_link_to(l1) {
                if let Some(other) = self.get_by_title(l1, title) {
                    if seen.insert((other.id, article.id), ()).is_none() {
                        pairs.push((other.id, article.id));
                    }
                }
            }
        }
        pairs.sort();
        pairs
    }

    /// Unions articles connected by cross-language links into entity
    /// clusters and returns, for each article, its cluster representative.
    ///
    /// Two link targets are considered "the same entity" by `lsim` when they
    /// map to the same cluster.
    pub fn entity_clusters(&self) -> EntityClusters {
        let n = self.articles.len();
        let mut parent: Vec<usize> = (0..n).collect();

        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            // Path compression.
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }

        for article in self.articles() {
            for (lang, title) in &article.cross_links {
                if let Some(other) = self.get_by_title(lang, title) {
                    let a = find(&mut parent, article.id.index());
                    let b = find(&mut parent, other.id.index());
                    if a != b {
                        parent[a.max(b)] = a.min(b);
                    }
                }
            }
        }
        let roots: Vec<u32> = (0..n).map(|i| find(&mut parent, i) as u32).collect();
        EntityClusters { roots }
    }

    /// Distinct entity-type labels used by articles of a language.
    pub fn entity_types_in(&self, language: &Language) -> Vec<String> {
        let mut types: Vec<String> = self
            .articles_in(language)
            .map(|a| a.entity_type.clone())
            .collect();
        types.sort();
        types.dedup();
        types
    }

    /// Articles of a language edition with a given entity-type label.
    pub fn articles_of_type<'a>(
        &'a self,
        language: &'a Language,
        entity_type: &'a str,
    ) -> impl Iterator<Item = &'a Article> + 'a {
        self.articles_in(language)
            .filter(move |a| a.entity_type == entity_type)
    }
}

/// Result of [`Corpus::entity_clusters`]: maps every article to the
/// representative of its cross-language entity cluster.
#[derive(Debug, Clone)]
pub struct EntityClusters {
    roots: Vec<u32>,
}

impl EntityClusters {
    /// The cluster representative of an article.
    pub fn cluster_of(&self, id: ArticleId) -> Option<ArticleId> {
        self.roots.get(id.index()).map(|&r| ArticleId(r))
    }

    /// Whether two articles describe the same entity.
    pub fn same_entity(&self, a: ArticleId, b: ArticleId) -> bool {
        match (self.cluster_of(a), self.cluster_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Number of articles covered.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when no articles are covered.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttributeValue, Infobox};

    fn article(title: &str, lang: Language, ty: &str) -> Article {
        let mut ib = Infobox::new(format!("Infobox {ty}"));
        ib.push(AttributeValue::text("name", title));
        Article::new(title, lang, ty, ib)
    }

    fn linked_corpus() -> Corpus {
        let mut corpus = Corpus::new();
        let mut en = article("The Last Emperor", Language::En, "Film");
        en.add_cross_link(Language::Pt, "O Último Imperador");
        en.add_cross_link(Language::Vn, "Hoàng đế cuối cùng");
        let mut pt = article("O Último Imperador", Language::Pt, "Filme");
        pt.add_cross_link(Language::En, "The Last Emperor");
        let vn = article("Hoàng đế cuối cùng", Language::Vn, "Phim");
        corpus.insert(en);
        corpus.insert(pt);
        corpus.insert(vn);
        corpus.insert(article("Unrelated", Language::En, "Film"));
        corpus
    }

    #[test]
    fn insert_and_lookup() {
        let corpus = linked_corpus();
        assert_eq!(corpus.len(), 4);
        let a = corpus
            .get_by_title(&Language::Pt, "O Último Imperador")
            .unwrap();
        assert_eq!(a.entity_type, "Filme");
        assert!(corpus.get_by_title(&Language::Pt, "missing").is_none());
    }

    #[test]
    fn duplicate_titles_are_not_reinserted() {
        let mut corpus = linked_corpus();
        let before = corpus.len();
        let id1 = corpus.get_by_title(&Language::En, "Unrelated").unwrap().id;
        let id2 = corpus.insert(article("Unrelated", Language::En, "Film"));
        assert_eq!(id1, id2);
        assert_eq!(corpus.len(), before);
    }

    #[test]
    fn cross_language_pairs_found_in_both_directions() {
        let corpus = linked_corpus();
        let pairs = corpus.cross_language_pairs(&Language::En, &Language::Pt);
        assert_eq!(pairs.len(), 1);
        let (en, pt) = pairs[0];
        assert_eq!(corpus.get(en).unwrap().language, Language::En);
        assert_eq!(corpus.get(pt).unwrap().language, Language::Pt);

        // The Vn link is only recorded on the English side but still found.
        let pairs = corpus.cross_language_pairs(&Language::En, &Language::Vn);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn entity_clusters_union_transitively() {
        let corpus = linked_corpus();
        let clusters = corpus.entity_clusters();
        let en = corpus
            .get_by_title(&Language::En, "The Last Emperor")
            .unwrap()
            .id;
        let pt = corpus
            .get_by_title(&Language::Pt, "O Último Imperador")
            .unwrap()
            .id;
        let vn = corpus
            .get_by_title(&Language::Vn, "Hoàng đế cuối cùng")
            .unwrap()
            .id;
        let other = corpus.get_by_title(&Language::En, "Unrelated").unwrap().id;
        assert!(clusters.same_entity(en, pt));
        assert!(clusters.same_entity(pt, vn));
        assert!(!clusters.same_entity(en, other));
    }

    #[test]
    fn type_listing() {
        let corpus = linked_corpus();
        assert_eq!(corpus.entity_types_in(&Language::En), vec!["Film"]);
        assert_eq!(corpus.articles_of_type(&Language::En, "Film").count(), 2);
    }

    #[test]
    fn remove_tombstones_without_shifting_ids() {
        let mut corpus = linked_corpus();
        let en = corpus
            .get_by_title(&Language::En, "The Last Emperor")
            .unwrap()
            .id;
        let pt = corpus
            .get_by_title(&Language::Pt, "O Último Imperador")
            .unwrap()
            .id;
        let removed = corpus.remove_by_title(&Language::Pt, "O Último Imperador");
        assert_eq!(removed, Some(pt));
        assert!(corpus.is_removed(pt));
        assert_eq!(corpus.len(), 3);
        assert_eq!(corpus.slot_count(), 4);
        assert!(corpus.get(pt).is_none());
        assert!(corpus
            .get_by_title(&Language::Pt, "O Último Imperador")
            .is_none());
        // Other ids are untouched and pairs no longer see the tombstone.
        assert_eq!(corpus.get(en).unwrap().title, "The Last Emperor");
        assert!(corpus
            .cross_language_pairs(&Language::En, &Language::Pt)
            .is_empty());
        assert!(!corpus.articles().any(|a| a.id == pt));
        // Removing again is a no-op.
        assert_eq!(
            corpus.remove_by_title(&Language::Pt, "O Último Imperador"),
            None
        );
        // Re-inserting the title allocates a fresh slot.
        let fresh = corpus.insert(article("O Último Imperador", Language::Pt, "Filme"));
        assert_ne!(fresh, pt);
        assert_eq!(fresh.index(), 4);
        assert_eq!(corpus.len(), 4);
    }

    #[test]
    fn replace_keeps_the_id_and_updates_content() {
        let mut corpus = linked_corpus();
        let id = corpus.get_by_title(&Language::En, "Unrelated").unwrap().id;
        let mut updated = article("Unrelated", Language::En, "Film");
        updated.infobox.push(AttributeValue::text("budget", "huge"));
        assert_eq!(corpus.replace(updated), Some(id));
        assert!(corpus.get(id).unwrap().infobox.value_of("budget").is_some());
        // Replacing a missing title touches nothing.
        assert_eq!(corpus.replace(article("Ghost", Language::En, "Film")), None);
        assert_eq!(corpus.len(), 4);
    }

    #[test]
    fn rebuild_index_skips_tombstones() {
        let mut corpus = linked_corpus();
        corpus.remove_by_title(&Language::En, "Unrelated").unwrap();
        let json = serde_json::to_string(&corpus).unwrap();
        let mut restored: Corpus = serde_json::from_str(&json).unwrap();
        restored.rebuild_index();
        assert_eq!(restored.len(), 3);
        assert!(restored.get_by_title(&Language::En, "Unrelated").is_none());
        assert!(restored
            .get_by_title(&Language::En, "The Last Emperor")
            .is_some());
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let mut corpus = linked_corpus();
        let json = serde_json::to_string(&corpus).unwrap();
        let mut restored: Corpus = serde_json::from_str(&json).unwrap();
        assert!(restored.get_by_title(&Language::En, "Unrelated").is_none());
        restored.rebuild_index();
        assert!(restored.get_by_title(&Language::En, "Unrelated").is_some());
        // The original is untouched.
        assert!(corpus.get_by_title(&Language::En, "Unrelated").is_some());
        corpus.rebuild_index();
    }
}
