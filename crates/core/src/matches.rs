//! Match clusters: sets of synonymous attributes within and across
//! languages.
//!
//! The output of the alignment algorithm is a set of matches `M`, where each
//! match `m = {a1 ~ a2 ~ ... ~ ak}` is a cluster of attribute labels that
//! denote the same concept — possibly several labels per language (the
//! paper's `died ~ falecimento ~ morte` example). Cross-language
//! correspondences for evaluation are extracted as all pairs of cluster
//! members that belong to different languages.

use serde::{Deserialize, Serialize};

use wiki_corpus::Language;

use crate::schema::DualSchema;

/// One match: a cluster of attribute indices into the [`DualSchema`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchCluster {
    /// Member attribute indices (insertion order preserved).
    pub members: Vec<usize>,
}

impl MatchCluster {
    /// Creates a cluster from two seed attributes.
    pub fn seed(p: usize, q: usize) -> Self {
        Self {
            members: vec![p, q],
        }
    }

    /// Whether the cluster contains an attribute index.
    pub fn contains(&self, attr: usize) -> bool {
        self.members.contains(&attr)
    }

    /// Adds a member (no-op when already present).
    pub fn add(&mut self, attr: usize) {
        if !self.contains(attr) {
            self.members.push(attr);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The set of matches produced by the alignment algorithm.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchSet {
    clusters: Vec<MatchCluster>,
}

impl MatchSet {
    /// Creates an empty match set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The clusters.
    pub fn clusters(&self) -> &[MatchCluster] {
        &self.clusters
    }

    /// Number of clusters.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// True when no matches have been found.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The index of the cluster containing `attr`, if any.
    pub fn cluster_of(&self, attr: usize) -> Option<usize> {
        self.clusters.iter().position(|c| c.contains(attr))
    }

    /// Whether `attr` is already part of some match.
    pub fn contains(&self, attr: usize) -> bool {
        self.cluster_of(attr).is_some()
    }

    /// Adds a new cluster seeded with `p ~ q` and returns its index.
    pub fn add_cluster(&mut self, p: usize, q: usize) -> usize {
        self.clusters.push(MatchCluster::seed(p, q));
        self.clusters.len() - 1
    }

    /// Adds `attr` to an existing cluster.
    pub fn add_to_cluster(&mut self, cluster: usize, attr: usize) {
        self.clusters[cluster].add(attr);
    }

    /// All pairs of cluster members that belong to *different* languages,
    /// reported as `(name in lang_a, name in lang_b)`.
    ///
    /// This is the set `C` of derived cross-language correspondences used by
    /// the evaluation metrics.
    pub fn cross_language_pairs(
        &self,
        schema: &DualSchema,
        lang_a: &Language,
        lang_b: &Language,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for cluster in &self.clusters {
            for &p in &cluster.members {
                for &q in &cluster.members {
                    if p == q {
                        continue;
                    }
                    let a = schema.attribute(p);
                    let b = schema.attribute(q);
                    if &a.language == lang_a && &b.language == lang_b {
                        out.push((a.name.clone(), b.name.clone()));
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// All pairs of cluster members in the *same* language (intra-language
    /// synonyms), reported as sorted name pairs.
    pub fn intra_language_pairs(
        &self,
        schema: &DualSchema,
        language: &Language,
    ) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for cluster in &self.clusters {
            let names: Vec<&str> = cluster
                .members
                .iter()
                .map(|&m| schema.attribute(m))
                .filter(|a| &a.language == language)
                .map(|a| a.name.as_str())
                .collect();
            for i in 0..names.len() {
                for j in (i + 1)..names.len() {
                    let (a, b) = if names[i] <= names[j] {
                        (names[i], names[j])
                    } else {
                        (names[j], names[i])
                    };
                    out.push((a.to_string(), b.to_string()));
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Renders the clusters as human-readable strings
    /// (`"died ~ falecimento ~ morte"`), useful for reports and Table 1.
    pub fn render(&self, schema: &DualSchema) -> Vec<String> {
        self.clusters
            .iter()
            .map(|c| {
                c.members
                    .iter()
                    .map(|&m| schema.attribute(m).name.clone())
                    .collect::<Vec<_>>()
                    .join(" ~ ")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wiki_corpus::{Article, AttributeValue, Corpus, Infobox};
    use wiki_translate::TitleDictionary;

    fn schema() -> DualSchema {
        let mut corpus = Corpus::new();
        let mut en_box = Infobox::new("Infobox Actor");
        en_box.push(AttributeValue::text("born", "1950"));
        en_box.push(AttributeValue::text("died", "2000"));
        let mut en = Article::new("A", Language::En, "Actor", en_box);
        en.add_cross_link(Language::Pt, "B");
        let mut pt_box = Infobox::new("Infobox Ator");
        pt_box.push(AttributeValue::text("nascimento", "1950"));
        pt_box.push(AttributeValue::text("falecimento", "2000"));
        pt_box.push(AttributeValue::text("morte", "2000"));
        let mut pt = Article::new("B", Language::Pt, "Ator", pt_box);
        pt.add_cross_link(Language::En, "A");
        corpus.insert(en);
        corpus.insert(pt);
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dict)
    }

    #[test]
    fn cluster_operations() {
        let mut set = MatchSet::new();
        assert!(set.is_empty());
        let c = set.add_cluster(0, 1);
        set.add_to_cluster(c, 2);
        set.add_to_cluster(c, 2);
        assert_eq!(set.clusters()[c].len(), 3);
        assert_eq!(set.cluster_of(2), Some(c));
        assert_eq!(set.cluster_of(9), None);
        assert!(set.contains(0));
    }

    #[test]
    fn cross_and_intra_language_pair_extraction() {
        let schema = schema();
        let born = schema.index_of(&Language::En, "born").unwrap();
        let died = schema.index_of(&Language::En, "died").unwrap();
        let nascimento = schema.index_of(&Language::Pt, "nascimento").unwrap();
        let falecimento = schema.index_of(&Language::Pt, "falecimento").unwrap();
        let morte = schema.index_of(&Language::Pt, "morte").unwrap();

        let mut set = MatchSet::new();
        let c0 = set.add_cluster(born, nascimento);
        let c1 = set.add_cluster(died, falecimento);
        set.add_to_cluster(c1, morte);
        let _ = c0;

        let cross = set.cross_language_pairs(&schema, &Language::Pt, &Language::En);
        assert_eq!(
            cross,
            vec![
                ("falecimento".to_string(), "died".to_string()),
                ("morte".to_string(), "died".to_string()),
                ("nascimento".to_string(), "born".to_string()),
            ]
        );
        let intra = set.intra_language_pairs(&schema, &Language::Pt);
        assert_eq!(
            intra,
            vec![("falecimento".to_string(), "morte".to_string())]
        );
        assert!(set.intra_language_pairs(&schema, &Language::En).is_empty());

        let rendered = set.render(&schema);
        assert!(rendered.iter().any(|r| r.contains("falecimento ~ morte")
            || r.contains("morte") && r.contains("falecimento")));
    }
}
