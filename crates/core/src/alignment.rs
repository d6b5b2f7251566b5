//! The `AttributeAlignment` algorithm (Algorithm 1 of the paper), its
//! `IntegrateMatches` helper (Algorithm 2) and the `ReviseUncertain` step
//! (Section 3.4).
//!
//! The algorithm proceeds in two phases:
//!
//! 1. **Certain phase.** Candidate pairs whose LSI correlation exceeds
//!    `TLSI` are processed in decreasing LSI order. A pair whose
//!    `max(vsim, lsim)` exceeds `Tsim` is a *certain* correspondence and is
//!    integrated into the match set; other pairs are buffered as
//!    *uncertain*. Integration enforces a pairwise-correlation constraint: a
//!    new attribute may join an existing cluster only if its LSI score with
//!    every current member exceeds `TLSI` (this is what keeps `morte` out of
//!    the `born ~ nascimento` cluster in the paper's Example 2).
//! 2. **Revision phase (`ReviseUncertain`).** Buffered uncertain pairs whose
//!    attributes co-occur strongly with already-matched attributes — as
//!    measured by the *inductive grouping score* — are integrated as well,
//!    recovering correct correspondences whose value/link similarity is low
//!    (the `other names ~ outros nomes` case).
//!
//! All the ablation switches of [`WikiMatchConfig`]
//! act here, which is what the component-contribution experiments (Table 3 /
//! Figure 3) exercise.

use std::ops::Range;

use crate::config::{CandidateOrdering, WikiMatchConfig};
use crate::matches::MatchSet;
use crate::schema::DualSchema;
use crate::similarity::{by_decreasing_lsi, CandidatePair, PackedPatterns, SimilarityTable};

/// The attribute-alignment algorithm over one dual-language schema.
#[derive(Debug, Clone)]
pub struct AttributeAlignment<'a> {
    schema: &'a DualSchema,
    table: &'a SimilarityTable,
    config: WikiMatchConfig,
}

impl<'a> AttributeAlignment<'a> {
    /// Creates the aligner for a schema and its similarity table.
    pub fn new(
        schema: &'a DualSchema,
        table: &'a SimilarityTable,
        config: WikiMatchConfig,
    ) -> Self {
        Self {
            schema,
            table,
            config,
        }
    }

    /// Runs the full algorithm and returns the set of matches.
    pub fn run(&self) -> MatchSet {
        let mut matches = MatchSet::new();
        let mut uncertain: Vec<CandidatePair> = Vec::new();

        for pair in self.ordered_candidates() {
            let evidence = self.evidence(&pair);
            let accept = if self.config.single_step {
                evidence > 0.0
            } else {
                evidence > self.config.t_sim
            };
            if accept {
                self.integrate(&pair, &mut matches);
            } else {
                uncertain.push(pair);
            }
        }

        if self.config.use_revise_uncertain && !self.config.single_step {
            for pair in self.revise_uncertain(&uncertain, &matches) {
                self.integrate(&pair, &mut matches);
            }
        }
        matches
    }

    /// The direct-evidence score used to accept a candidate, honouring the
    /// feature-ablation switches.
    fn evidence(&self, pair: &CandidatePair) -> f64 {
        let v = if self.config.use_vsim { pair.vsim } else { 0.0 };
        let l = if self.config.use_lsim { pair.lsim } else { 0.0 };
        v.max(l)
    }

    /// True when a pair without direct evidence can never be integrated, so
    /// the queue may leave it out without changing the match set. The
    /// certain phase accepts it only under a negative `Tsim` (single step
    /// demands positive evidence), and revision integrates it only under
    /// the −InductiveGrouping ablation, which skips revise's evidence test.
    fn zero_evidence_is_inert(&self) -> bool {
        let c = &self.config;
        (c.single_step || c.t_sim >= 0.0)
            && (c.single_step || !c.use_revise_uncertain || c.use_inductive_grouping)
    }

    /// Revise's drop test: no direct evidence at all. Queue filters negate
    /// this test rather than asking `evidence > 0`, so a NaN evidence is
    /// kept exactly as revise keeps it.
    fn lacks_evidence(&self, pair: &CandidatePair) -> bool {
        self.evidence(pair) <= 0.0
    }

    /// Builds the candidate queue: pairs above `TLSI`, ordered according to
    /// the configuration. Pairs without direct evidence are left out
    /// whenever [`zero_evidence_is_inert`](Self::zero_evidence_is_inert)
    /// holds: they would only be buffered and then dropped by revise, and
    /// they are most of the pairs above `TLSI` (about 96% at the medium
    /// tier). That queue, like the MaxSimilarity one, is read off the
    /// table's evidence pairs, so it costs O(evidence pairs), not O(n²);
    /// only the Random ordering and a configuration that can integrate a
    /// pair without evidence walk every pair through `above_lsi`.
    fn ordered_candidates(&self) -> Vec<CandidatePair> {
        let t_lsi = self.config.t_lsi;
        match self.config.ordering {
            CandidateOrdering::Lsi if self.zero_evidence_is_inert() => {
                let mut pairs: Vec<CandidatePair> = self
                    .table
                    .evidence_pairs()
                    .filter(|p| p.lsi > t_lsi && !self.lacks_evidence(p))
                    .collect();
                pairs.sort_by(by_decreasing_lsi);
                pairs
            }
            CandidateOrdering::Lsi => self.table.above_lsi(t_lsi),
            CandidateOrdering::MaxSimilarity => {
                let mut pairs: Vec<CandidatePair> = self
                    .table
                    .evidence_pairs()
                    .filter(|p| self.evidence(p) > 0.0)
                    .collect();
                // `total_cmp` for a NaN-safe total order: equal-evidence
                // pairs fall through to the attribute indices, so the queue
                // is identical across runs and platforms.
                pairs.sort_by(|a, b| {
                    self.evidence(b)
                        .total_cmp(&self.evidence(a))
                        .then_with(|| (a.p, a.q).cmp(&(b.p, b.q)))
                });
                pairs
            }
            CandidateOrdering::Random => {
                // Filter after the shuffle: the permutation is a function of
                // the full ranked queue, so it must see every pair.
                let mut pairs = self.table.above_lsi(t_lsi);
                deterministic_shuffle(&mut pairs, self.config.ordering_seed);
                if self.zero_evidence_is_inert() {
                    pairs.retain(|p| !self.lacks_evidence(p));
                }
                pairs
            }
        }
    }

    /// `IntegrateMatches` (Algorithm 2): decides whether the candidate pair
    /// creates a new cluster, extends an existing one, or is ignored.
    fn integrate(&self, pair: &CandidatePair, matches: &mut MatchSet) {
        let in_p = matches.cluster_of(pair.p);
        let in_q = matches.cluster_of(pair.q);
        match (in_p, in_q) {
            (None, None) => {
                matches.add_cluster(pair.p, pair.q);
            }
            (Some(cluster), None) => {
                if self.correlated_with_all(pair.q, cluster, matches) {
                    matches.add_to_cluster(cluster, pair.q);
                }
            }
            (None, Some(cluster)) => {
                if self.correlated_with_all(pair.p, cluster, matches) {
                    matches.add_to_cluster(cluster, pair.p);
                }
            }
            // Both attributes already matched (possibly in different
            // clusters): the paper's algorithm leaves them untouched.
            (Some(_), Some(_)) => {}
        }
    }

    /// The pairwise-correlation constraint of `IntegrateMatches`: the new
    /// attribute must have an LSI score above `TLSI` with every member of
    /// the target cluster. Disabled by the `-IntegrateMatches` ablation.
    fn correlated_with_all(&self, attr: usize, cluster: usize, matches: &MatchSet) -> bool {
        if !self.config.use_integrate_constraint {
            return true;
        }
        matches.clusters()[cluster].members.iter().all(|&member| {
            self.table
                .pair(attr, member)
                .map(|p| p.lsi > self.config.t_lsi)
                .unwrap_or(false)
        })
    }

    /// `ReviseUncertain`: selects the buffered pairs whose attributes are
    /// strongly co-grouped with already-matched attributes.
    fn revise_uncertain(
        &self,
        uncertain: &[CandidatePair],
        matches: &MatchSet,
    ) -> Vec<CandidatePair> {
        if !self.config.use_inductive_grouping {
            return uncertain.to_vec();
        }
        // Revision reinforces *weak* evidence; pairs with no direct evidence
        // at all (zero value and link similarity) stay rejected regardless
        // of how well they co-occur with the existing matches.
        let scored: Vec<CandidatePair> = uncertain
            .iter()
            .filter(|pair| !self.lacks_evidence(pair))
            .copied()
            .collect();
        let grouping = InductiveGrouping::new(self.schema, matches, &scored);
        let mut revised: Vec<(f64, CandidatePair)> = scored
            .into_iter()
            .filter_map(|pair| {
                let score = grouping.score(pair.p, pair.q);
                (score > self.config.t_eg).then_some((score, pair))
            })
            .collect();
        // Integrate the strongest revisions first; `total_cmp` plus the
        // attribute-index key keeps the order stable even for tied (or
        // pathological) grouping scores.
        revised.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.p, a.1.q).cmp(&(b.1.p, b.1.q)))
        });
        revised.into_iter().map(|(_, pair)| pair).collect()
    }
}

/// The inductive grouping score `eg(a, a')` of Section 3.4 for a batch of
/// pairs, all scored against one fixed match set.
///
/// The matched attributes of each language are listed cluster by cluster,
/// in insertion order, so one cluster's members of one language are a
/// contiguous range of that list. Each scored attribute gets one *row*: its
/// grouping scores against every matched attribute of its own language,
/// computed once from packed occurrence patterns and shared by every pair
/// it appears in.
struct InductiveGrouping {
    /// Dense language id of every attribute.
    language: Vec<usize>,
    /// `members[l]`: the matched attributes of language `l`.
    members: Vec<Vec<usize>>,
    /// `groups[c * members.len() + l]`: cluster `c`'s members of language
    /// `l`, as a range of `members[l]`.
    groups: Vec<Range<usize>>,
    /// Where attribute `p`'s row starts in `rows`, if `p` is scored.
    row_start: Vec<Option<usize>>,
    /// `rows[row_start[p] + i]` = `g(p, members[language[p]][i])`.
    rows: Vec<f64>,
}

impl InductiveGrouping {
    fn new(schema: &DualSchema, matches: &MatchSet, scored: &[CandidatePair]) -> Self {
        let (language, languages) = schema.language_ids();
        let mut members = vec![Vec::new(); languages];
        let mut groups = Vec::new();
        for cluster in matches.clusters() {
            for (l, list) in members.iter_mut().enumerate() {
                let start = list.len();
                list.extend(cluster.members.iter().filter(|&&m| language[m] == l));
                groups.push(start..list.len());
            }
        }
        let bits = PackedPatterns::pack(schema);
        let mut row_start = vec![None; schema.len()];
        let mut rows = Vec::new();
        for p in scored.iter().flat_map(|pair| [pair.p, pair.q]) {
            if row_start[p].is_none() {
                row_start[p] = Some(rows.len());
                rows.extend(
                    members[language[p]]
                        .iter()
                        .map(|&x| packed_grouping_score(schema, &bits, p, x)),
                );
            }
        }
        Self {
            language,
            members,
            groups,
            row_start,
            rows,
        }
    }

    /// `p`'s row: its grouping scores against `members[language[p]]`.
    fn row(&self, p: usize) -> &[f64] {
        let start = self.row_start[p].expect("every scored attribute has a row");
        &self.rows[start..start + self.members[self.language[p]].len()]
    }

    /// `eg(a, b)`: the average product of grouping scores between each
    /// attribute and the matched attributes of its own language, over the
    /// member pairs `(x ~ y)` of one cluster. The accumulation runs the
    /// nested loop of the direct transcription — clusters in order, x-major
    /// — over looked-up scores, so every float op and its order are kept.
    fn score(&self, a: usize, b: usize) -> f64 {
        let (la, lb) = (self.language[a], self.language[b]);
        let (row_a, row_b) = (self.row(a), self.row(b));
        let mut total = 0.0;
        let mut count = 0usize;
        for cluster in self.groups.chunks(self.members.len()) {
            let (xs, ys) = (cluster[la].clone(), cluster[lb].clone());
            for x in xs.filter(|&x| self.members[la][x] != a) {
                let ga = row_a[x];
                for y in ys.clone().filter(|&y| self.members[lb][y] != b) {
                    let gb = row_b[y];
                    if ga > 0.0 || gb > 0.0 {
                        total += ga * gb;
                        count += 1;
                    }
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }
}

/// The grouping score `g(p, q) = Opq / min(Op, Oq)` over packed occurrence
/// patterns: the same integer count and division, so the same value bit
/// for bit, as [`DualSchema::grouping_score`].
fn packed_grouping_score(schema: &DualSchema, bits: &PackedPatterns, p: usize, q: usize) -> f64 {
    let denom = schema
        .attribute(p)
        .occurrences
        .min(schema.attribute(q).occurrences);
    if denom == 0 {
        return 0.0;
    }
    let co_occurrences: usize = bits
        .row(p)
        .iter()
        .zip(bits.row(q))
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum();
    co_occurrences as f64 / denom as f64
}

/// Deterministic Fisher-Yates shuffle driven by a splitmix64 stream; used by
/// the random-ordering ablation so results stay reproducible.
fn deterministic_shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeStats;
    use wiki_corpus::{Article, AttributeValue, Corpus, Infobox, Language, Link};
    use wiki_linalg::LsiConfig;
    use wiki_text::TermVector;
    use wiki_translate::TitleDictionary;

    /// A corpus engineered so that:
    /// * `born`/`nascimento` is a certain match (shared values),
    /// * `directed by`/`direção` is a certain match (shared links),
    /// * `other names`/`outros nomes` is correct but value-dissimilar
    ///   (uncertain: values are unrelated free text), and
    /// * `died`/`falecimento`/`morte` includes an intra-language synonym.
    fn corpus() -> Corpus {
        let mut corpus = Corpus::new();
        let countries = [("United States", "Estados Unidos"), ("Ireland", "Irlanda")];
        for (en, pt) in countries {
            let mut a = Article::new(en, Language::En, "Country", Infobox::new("c"));
            a.add_cross_link(Language::Pt, pt);
            corpus.insert(a);
            corpus.insert(Article::new(pt, Language::Pt, "Country", Infobox::new("c")));
        }
        let mut person = Article::new("Some Director", Language::En, "Person", Infobox::new("p"));
        person.add_cross_link(Language::Pt, "Some Director");
        corpus.insert(person);
        corpus.insert(Article::new(
            "Some Director",
            Language::Pt,
            "Person",
            Infobox::new("p"),
        ));

        for i in 0..8 {
            let country = countries[i % 2];
            let mut en_box = Infobox::new("Infobox Actor");
            en_box.push(AttributeValue::linked(
                "born",
                country.0,
                vec![Link::plain(country.0)],
            ));
            en_box.push(AttributeValue::linked(
                "directed by",
                "Some Director",
                vec![Link::plain("Some Director")],
            ));
            en_box.push(AttributeValue::text("other names", format!("Falcon {i}")));
            if i < 4 {
                en_box.push(AttributeValue::text("died", format!("{}", 1990 + i)));
            }
            let mut en = Article::new(format!("Actor {i}"), Language::En, "Actor", en_box);
            en.add_cross_link(Language::Pt, format!("Ator {i}"));

            let mut pt_box = Infobox::new("Infobox Ator");
            pt_box.push(AttributeValue::linked(
                "nascimento",
                country.1,
                vec![Link::plain(country.1)],
            ));
            pt_box.push(AttributeValue::linked(
                "direção",
                "Some Director",
                vec![Link::plain("Some Director")],
            ));
            // Mostly different alias strings: value similarity is positive
            // but far below the certainty threshold, so the pair can only be
            // recovered by ReviseUncertain.
            let alias = if i == 0 {
                "Falcon 0".to_string()
            } else {
                format!("Vega {i}")
            };
            pt_box.push(AttributeValue::text("outros nomes", alias));
            if i < 4 {
                let name = if i % 2 == 0 { "falecimento" } else { "morte" };
                pt_box.push(AttributeValue::text(name, format!("{}", 1990 + i)));
            }
            let mut pt = Article::new(format!("Ator {i}"), Language::Pt, "Ator", pt_box);
            pt.add_cross_link(Language::En, format!("Actor {i}"));
            corpus.insert(en);
            corpus.insert(pt);
        }
        corpus
    }

    fn setup(config: WikiMatchConfig) -> (DualSchema, MatchSet) {
        let corpus = corpus();
        let dict = TitleDictionary::from_corpus(&corpus, &Language::Pt, &Language::En);
        let schema = DualSchema::build(&corpus, &Language::Pt, "Ator", "Actor", &dict);
        let table = SimilarityTable::compute(&schema, LsiConfig::default());
        let matches = AttributeAlignment::new(&schema, &table, config).run();
        (schema, matches)
    }

    fn has_pair(schema: &DualSchema, matches: &MatchSet, pt: &str, en: &str) -> bool {
        matches
            .cross_language_pairs(schema, &Language::Pt, &Language::En)
            .contains(&(pt.to_string(), en.to_string()))
    }

    #[test]
    fn finds_certain_value_and_link_matches() {
        let (schema, matches) = setup(WikiMatchConfig::default());
        // Derived pairs use normalised labels ("direcao", not "direção").
        assert!(has_pair(&schema, &matches, "nascimento", "born"));
        assert!(has_pair(&schema, &matches, "direcao", "directed by"));
    }

    #[test]
    fn revise_uncertain_recovers_low_similarity_matches() {
        let with = setup(WikiMatchConfig::default());
        let without = setup(WikiMatchConfig::default().without_revise_uncertain());
        // The alias attribute has disjoint values, so it can only be found by
        // the revision phase.
        assert!(has_pair(&with.0, &with.1, "outros nomes", "other names"));
        assert!(!has_pair(
            &without.0,
            &without.1,
            "outros nomes",
            "other names"
        ));
        // Removing the phase never *adds* correspondences.
        let n_with = with
            .1
            .cross_language_pairs(&with.0, &Language::Pt, &Language::En)
            .len();
        let n_without = without
            .1
            .cross_language_pairs(&without.0, &Language::Pt, &Language::En)
            .len();
        assert!(n_with >= n_without);
    }

    #[test]
    fn incorrect_cross_pairs_are_not_produced() {
        let (schema, matches) = setup(WikiMatchConfig::default());
        assert!(!has_pair(&schema, &matches, "direção", "born"));
        assert!(!has_pair(&schema, &matches, "nascimento", "directed by"));
        assert!(!has_pair(&schema, &matches, "outros nomes", "born"));
    }

    #[test]
    fn single_step_accepts_any_positive_evidence() {
        let (schema, single) = setup(WikiMatchConfig::default().single_step());
        let pairs = single.cross_language_pairs(&schema, &Language::Pt, &Language::En);
        // The single-step ablation accepts every candidate with positive
        // vsim/lsim, so the strongly corroborated matches are still present…
        assert!(pairs.contains(&("nascimento".to_string(), "born".to_string())));
        assert!(pairs.contains(&("direcao".to_string(), "directed by".to_string())));
        // …and weakly corroborated (date-overlap) pairs are accepted too,
        // which is what erodes precision in the paper's Table 3.
        assert!(
            pairs
                .iter()
                .any(|(pt, en)| en == "died" && (pt == "falecimento" || pt == "morte")),
            "expected a death-date pair among {pairs:?}"
        );
    }

    #[test]
    fn random_ordering_is_deterministic_per_seed() {
        let config = WikiMatchConfig::default().with_random_ordering();
        let (schema_a, a) = setup(config);
        let (_, b) = setup(config);
        assert_eq!(
            a.cross_language_pairs(&schema_a, &Language::Pt, &Language::En),
            b.cross_language_pairs(&schema_a, &Language::Pt, &Language::En)
        );
    }

    #[test]
    fn ablations_do_not_panic_and_stay_consistent() {
        for config in [
            WikiMatchConfig::default().without_vsim(),
            WikiMatchConfig::default().without_lsim(),
            WikiMatchConfig::default().without_lsi(),
            WikiMatchConfig::default().without_integrate_constraint(),
            WikiMatchConfig::default().without_inductive_grouping(),
        ] {
            let (schema, matches) = setup(config);
            for (pt, en) in matches.cross_language_pairs(&schema, &Language::Pt, &Language::En) {
                // Every reported pair references attributes that exist.
                assert!(schema.index_of(&Language::Pt, &pt).is_some());
                assert!(schema.index_of(&Language::En, &en).is_some());
            }
        }
    }

    /// A hand-built schema over `dual_count` dual infoboxes: a
    /// never-occurring attribute, an everywhere attribute, single bits on
    /// the word boundaries and the last position, and seeded random
    /// patterns, alternating between the two languages.
    fn patterned_schema(dual_count: usize) -> DualSchema {
        let mut state = dual_count as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut patterns = vec![vec![false; dual_count], vec![true; dual_count]];
        for bit in [0, 62, 63, 64, 65, 127, 128, dual_count - 1] {
            if bit < dual_count {
                let mut pattern = vec![false; dual_count];
                pattern[bit] = true;
                patterns.push(pattern);
            }
        }
        for density in [2, 3, 5, 9] {
            patterns.push((0..dual_count).map(|_| next() % density == 0).collect());
        }
        let attributes = patterns
            .into_iter()
            .enumerate()
            .map(|(i, occurrence_pattern)| AttributeStats {
                language: if i % 2 == 0 {
                    Language::Pt
                } else {
                    Language::En
                },
                name: format!("a{i}"),
                occurrences: occurrence_pattern.iter().filter(|&&b| b).count(),
                values: TermVector::new(),
                translated_values: TermVector::new(),
                raw_values: TermVector::new(),
                translated_raw_values: TermVector::new(),
                links: TermVector::new(),
                occurrence_pattern,
            })
            .collect();
        DualSchema::from_parts(
            (Language::Pt, Language::En),
            "Ator".to_string(),
            "Actor".to_string(),
            attributes,
            dual_count,
        )
    }

    #[test]
    fn packed_grouping_score_equals_the_boolean_zip_bit_for_bit() {
        // A partial word, exactly one word, and multi-word tails.
        for dual_count in [1, 63, 64, 65, 129] {
            let schema = patterned_schema(dual_count);
            assert!(schema.attributes.iter().any(|a| a.occurrences == 0));
            let bits = PackedPatterns::pack(&schema);
            for p in 0..schema.len() {
                for q in 0..schema.len() {
                    assert_eq!(
                        packed_grouping_score(&schema, &bits, p, q).to_bits(),
                        schema.grouping_score(p, q).to_bits(),
                        "dual_count {dual_count}, pair ({p}, {q})"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_shuffle_is_stable() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b: Vec<u32> = (0..20).collect();
        deterministic_shuffle(&mut a, 5);
        deterministic_shuffle(&mut b, 5);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        deterministic_shuffle(&mut c, 6);
        assert_ne!(a, c);
    }
}
