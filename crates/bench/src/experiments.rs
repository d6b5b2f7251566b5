//! The reproduction experiments, one function per table/figure of the paper.
//!
//! All experiments run over the [`StandardDatasets`]: a Portuguese-English
//! corpus with 14 entity types and a Vietnamese-English corpus with 4 types,
//! generated with the default [`SyntheticConfig`] (the laptop-scale
//! substitute for the paper's Wikipedia dump — see `DESIGN.md`).
//!
//! The harness holds one [`MatchEngine`] session per language pair: the
//! title dictionary and entity-type correspondences are computed once at
//! construction, and the per-type schema + similarity artifacts are cached
//! inside the engines — WikiMatch, its ablations and every baseline run
//! over the identical prepared input, exactly as the paper feeds the same
//! grouped attributes to every approach. Every matcher (WikiMatch included)
//! is driven through the [`SchemaMatcher`] plugin trait, so adding an
//! approach to the comparison means implementing one trait.

use serde::{Deserialize, Serialize};

use wiki_baselines::{
    ranked_candidates, BoumaMatcher, ComaConfiguration, ComaMatcher, CorrelationMatcher,
    CorrelationMeasure, LsiTopKMatcher,
};
use wiki_corpus::{Dataset, Language, SyntheticConfig};
use wiki_eval::{mean_average_precision, type_overlap, weighted_scores, MacroAggregator, Scores};
use wiki_query::{run_case_study_with_engine, CaseStudyCurve};
use wikimatch::{MatchEngine, SchemaMatcher, WikiMatch, WikiMatchConfig};

/// The two evaluation datasets used throughout the paper.
#[derive(Debug, Clone)]
pub struct StandardDatasets {
    /// Portuguese-English (14 entity types).
    pub pt: Dataset,
    /// Vietnamese-English (4 entity types).
    pub vn: Dataset,
}

impl StandardDatasets {
    /// Generates both datasets with the given configuration.
    pub fn generate(config: &SyntheticConfig) -> Self {
        Self {
            pt: Dataset::pt_en(config),
            vn: Dataset::vn_en(config),
        }
    }

    /// The default experiment-scale datasets.
    pub fn standard() -> Self {
        Self::generate(&SyntheticConfig::default())
    }

    /// Reduced datasets for quick runs and tests.
    pub fn quick() -> Self {
        Self::generate(&SyntheticConfig::tiny())
    }
}

/// Scores of every approach for one entity type (a row of Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ApproachRow {
    /// Entity-type identifier.
    pub type_id: String,
    /// WikiMatch scores.
    pub wikimatch: Scores,
    /// Bouma scores.
    pub bouma: Scores,
    /// Best COMA++ configuration scores.
    pub coma: Scores,
    /// LSI top-1 scores.
    pub lsi: Scores,
}

/// Table 2 for one language pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// Language-pair name.
    pub pair: String,
    /// Per-type rows.
    pub rows: Vec<ApproachRow>,
    /// Average row.
    pub average: ApproachRow,
}

/// One ablation configuration's average scores (a row of Table 3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Configuration label.
    pub configuration: String,
    /// Average scores over all types, Pt-En.
    pub pt: Scores,
    /// Average scores over all types, Vn-En.
    pub vn: Scores,
}

/// Threshold-sensitivity curves (Figure 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThresholdCurve {
    /// Which threshold is swept (`"Tsim"` or `"TLSI"`).
    pub threshold: String,
    /// Language pair.
    pub pair: String,
    /// `(threshold value, average F-measure)` points.
    pub points: Vec<(f64, f64)>,
}

/// Top-k LSI results (Figure 6).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopKPoint {
    /// Language pair.
    pub pair: String,
    /// k.
    pub k: usize,
    /// Average scores over all types.
    pub scores: Scores,
}

/// COMA++ configuration results (Figure 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComaPoint {
    /// Language pair.
    pub pair: String,
    /// Configuration label (N, I, NI, ...).
    pub configuration: String,
    /// Average scores over all types.
    pub scores: Scores,
}

/// MAP of the candidate orderings (Table 7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapRow {
    /// Language pair.
    pub pair: String,
    /// MAP per measure, in the order LSI, X1, X2, X3, Random.
    pub map: Vec<(String, f64)>,
}

/// One Table 1 sample: `(pair name, type id, derived cross pairs)`.
pub type Table1Sample = (String, String, Vec<(String, String)>);

/// The experiment harness: one [`MatchEngine`] session per language pair.
pub struct ExperimentContext {
    pt: MatchEngine,
    vn: MatchEngine,
}

impl ExperimentContext {
    /// Creates the context over the given datasets, opening one engine
    /// session per pair.
    pub fn new(datasets: StandardDatasets) -> Self {
        Self {
            pt: MatchEngine::new(datasets.pt),
            vn: MatchEngine::new(datasets.vn),
        }
    }

    /// Creates the context over the standard experiment datasets.
    pub fn standard() -> Self {
        Self::new(StandardDatasets::standard())
    }

    /// Creates a reduced context for quick runs and unit tests.
    pub fn quick() -> Self {
        Self::new(StandardDatasets::quick())
    }

    /// The engine session of one language pair.
    ///
    /// Panics on anything other than the two canonical pair names, so a
    /// typo cannot silently return the wrong dataset's numbers.
    pub fn engine(&self, pair: &str) -> &MatchEngine {
        match pair {
            "Portuguese-English" => &self.pt,
            "Vietnamese-English" => &self.vn,
            other => panic!(
                "unknown language pair {other:?}; expected \"Portuguese-English\" or \"Vietnamese-English\""
            ),
        }
    }

    /// The dataset of one language pair.
    pub fn dataset(&self, pair: &str) -> std::sync::Arc<Dataset> {
        self.engine(pair).dataset()
    }

    /// The best COMA++ configuration per pair, as in the paper: NG+ID for
    /// Pt-En, I+D for Vn-En.
    pub fn best_coma_configuration(pair: &str) -> ComaConfiguration {
        match pair {
            "Vietnamese-English" => ComaConfiguration::InstanceTranslated,
            "Portuguese-English" => ComaConfiguration::NameTranslatedInstanceTranslated,
            other => panic!(
                "unknown language pair {other:?}; expected \"Portuguese-English\" or \"Vietnamese-English\""
            ),
        }
    }

    /// The Table 2 approaches — WikiMatch and the three baselines — as
    /// interchangeable [`SchemaMatcher`] plugins, in column order.
    pub fn approaches(pair: &str) -> Vec<Box<dyn SchemaMatcher>> {
        vec![
            Box::new(WikiMatch::default()),
            Box::new(BoumaMatcher::default()),
            Box::new(ComaMatcher::new(Self::best_coma_configuration(pair))),
            Box::new(LsiTopKMatcher::new(1)),
        ]
    }

    /// Runs any [`SchemaMatcher`] on one type through the pair's engine.
    pub fn run_matcher(
        &self,
        pair: &str,
        type_id: &str,
        matcher: &dyn SchemaMatcher,
    ) -> Vec<(String, String)> {
        self.engine(pair)
            .align_with(matcher, type_id)
            .unwrap_or_else(|| panic!("unknown type {type_id} for {pair}"))
    }

    /// Runs WikiMatch with an arbitrary configuration on one type
    /// (the engine's cached artifacts are shared across configurations).
    pub fn run_wikimatch(
        &self,
        pair: &str,
        type_id: &str,
        config: WikiMatchConfig,
    ) -> Vec<(String, String)> {
        self.run_matcher(pair, type_id, &WikiMatch::new(config))
    }

    /// Evaluates derived pairs for a type with the weighted metrics.
    pub fn evaluate(&self, pair: &str, type_id: &str, derived: &[(String, String)]) -> Scores {
        let dataset = self.dataset(pair);
        let other = dataset.other_language();
        let gold = dataset
            .ground_truth
            .for_type(type_id)
            .cloned()
            .unwrap_or_default();
        let schema = self
            .engine(pair)
            .schema(type_id)
            .unwrap_or_else(|| panic!("unknown type {type_id} for {pair}"));
        let freq_other = schema.frequencies(other);
        let freq_en = schema.frequencies(&Language::En);
        weighted_scores(derived, &gold, other, &Language::En, &freq_other, &freq_en)
    }

    /// The type identifiers of a pair.
    pub fn type_ids(&self, pair: &str) -> Vec<String> {
        self.dataset(pair)
            .types
            .iter()
            .map(|t| t.type_id.clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Table 1 — example alignments.
    // ------------------------------------------------------------------

    /// A sample of discovered alignments for Table 1 (Pt-En actor/film and
    /// Vn-En film/actor, as in the paper).
    pub fn table1(&self) -> Vec<Table1Sample> {
        let mut out = Vec::new();
        for (pair, types) in [
            ("Portuguese-English", vec!["actor", "film"]),
            ("Vietnamese-English", vec!["film", "actor"]),
        ] {
            for type_id in types {
                let pairs = self.run_matcher(pair, type_id, &WikiMatch::default());
                out.push((pair.to_string(), type_id.to_string(), pairs));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Table 2 — comparison against existing approaches.
    // ------------------------------------------------------------------

    /// Runs the Table 2 comparison for one language pair: every approach is
    /// a [`SchemaMatcher`] plugin driven through the pair's engine.
    pub fn table2(&self, pair: &str) -> Table2 {
        let approaches = Self::approaches(pair);
        let mut rows = Vec::new();
        for type_id in self.type_ids(pair) {
            let scores: Vec<Scores> = approaches
                .iter()
                .map(|matcher| {
                    let pairs = self.run_matcher(pair, &type_id, matcher.as_ref());
                    self.evaluate(pair, &type_id, &pairs)
                })
                .collect();
            rows.push(ApproachRow {
                wikimatch: scores[0],
                bouma: scores[1],
                coma: scores[2],
                lsi: scores[3],
                type_id,
            });
        }
        let average = ApproachRow {
            type_id: "Avg".to_string(),
            wikimatch: Scores::average(rows.iter().map(|r| &r.wikimatch)),
            bouma: Scores::average(rows.iter().map(|r| &r.bouma)),
            coma: Scores::average(rows.iter().map(|r| &r.coma)),
            lsi: Scores::average(rows.iter().map(|r| &r.lsi)),
        };
        Table2 {
            pair: pair.to_string(),
            rows,
            average,
        }
    }

    // ------------------------------------------------------------------
    // Table 3 / Figure 3 — contribution of the components.
    // ------------------------------------------------------------------

    /// The ablation configurations of Table 3 (and the starred `WM*`
    /// variants of Figure 3, which also drop `ReviseUncertain`).
    pub fn ablation_configs() -> Vec<(String, WikiMatchConfig)> {
        let base = WikiMatchConfig::default();
        vec![
            ("WikiMatch".to_string(), base),
            (
                "WikiMatch-ReviseUncertain".to_string(),
                base.without_revise_uncertain(),
            ),
            (
                "WikiMatch-IntegrateMatches".to_string(),
                base.without_integrate_constraint(),
            ),
            ("WikiMatch random".to_string(), base.with_random_ordering()),
            ("WikiMatch single step".to_string(), base.single_step()),
            ("WikiMatch-vsim".to_string(), base.without_vsim()),
            ("WikiMatch-lsim".to_string(), base.without_lsim()),
            ("WikiMatch-LSI".to_string(), base.without_lsi()),
            (
                "WikiMatch-inductive grouping".to_string(),
                base.without_inductive_grouping(),
            ),
            (
                "WikiMatch*-vsim".to_string(),
                base.without_revise_uncertain().without_vsim(),
            ),
            (
                "WikiMatch*-lsim".to_string(),
                base.without_revise_uncertain().without_lsim(),
            ),
            (
                "WikiMatch*-LSI".to_string(),
                base.without_revise_uncertain().without_lsi(),
            ),
            (
                "WikiMatch* random".to_string(),
                base.without_revise_uncertain().with_random_ordering(),
            ),
        ]
    }

    /// Average scores of one configuration over all types of a pair.
    pub fn average_for_config(&self, pair: &str, config: WikiMatchConfig) -> Scores {
        let mut per_type = Vec::new();
        for type_id in self.type_ids(pair) {
            let pairs = self.run_wikimatch(pair, &type_id, config);
            per_type.push(self.evaluate(pair, &type_id, &pairs));
        }
        Scores::average(per_type.iter())
    }

    /// Runs the full ablation study (Table 3 / Figure 3).
    pub fn table3(&self) -> Vec<AblationRow> {
        Self::ablation_configs()
            .into_iter()
            .map(|(configuration, config)| AblationRow {
                pt: self.average_for_config("Portuguese-English", config),
                vn: self.average_for_config("Vietnamese-English", config),
                configuration,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Table 5 — structural heterogeneity (attribute overlap).
    // ------------------------------------------------------------------

    /// Attribute overlap per type for one pair.
    pub fn table5(&self, pair: &str) -> Vec<(String, f64)> {
        let dataset = self.dataset(pair);
        dataset
            .types
            .iter()
            .map(|pairing| {
                let gold = dataset
                    .ground_truth
                    .for_type(&pairing.type_id)
                    .cloned()
                    .unwrap_or_default();
                let overlap = type_overlap(
                    &dataset.corpus,
                    &gold,
                    dataset.other_language(),
                    &pairing.label_other,
                    &pairing.label_en,
                );
                (pairing.type_id.clone(), overlap)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Table 6 — macro-averaging.
    // ------------------------------------------------------------------

    /// Macro-averaged scores of the four approaches for one pair.
    pub fn table6(&self, pair: &str) -> Vec<(String, Scores)> {
        let other = self.dataset(pair).other_language().clone();
        let mut out = Vec::new();
        for matcher in Self::approaches(pair) {
            let mut aggregator = MacroAggregator::new();
            for type_id in self.type_ids(pair) {
                let derived = self.run_matcher(pair, &type_id, matcher.as_ref());
                let gold = self
                    .dataset(pair)
                    .ground_truth
                    .for_type(&type_id)
                    .cloned()
                    .unwrap_or_default();
                aggregator.add_type(&derived, &gold, &other, &Language::En);
            }
            out.push((matcher.name().to_string(), aggregator.scores()));
        }
        out
    }

    // ------------------------------------------------------------------
    // Table 7 — MAP of the candidate orderings.
    // ------------------------------------------------------------------

    /// MAP of LSI, X1, X2, X3 and random orderings for one pair.
    pub fn table7(&self, pair: &str) -> MapRow {
        let other = self.dataset(pair).other_language().clone();
        let mut map = Vec::new();
        for measure in CorrelationMeasure::all() {
            let mut rankings: Vec<Vec<bool>> = Vec::new();
            for type_id in self.type_ids(pair) {
                let gold = self
                    .dataset(pair)
                    .ground_truth
                    .for_type(&type_id)
                    .cloned()
                    .unwrap_or_default();
                let prepared = self
                    .engine(pair)
                    .prepared(&type_id)
                    .expect("type ids come from the dataset");
                for (attribute, candidates) in ranked_candidates(
                    &prepared.schema,
                    &prepared.table,
                    *measure,
                    CorrelationMatcher::DEFAULT_SEED,
                ) {
                    let ranking: Vec<bool> = candidates
                        .iter()
                        .map(|c| gold.is_correct(&other, &attribute, &Language::En, c))
                        .collect();
                    if ranking.iter().any(|&b| b) {
                        rankings.push(ranking);
                    }
                }
            }
            map.push((
                measure.label().to_string(),
                mean_average_precision(&rankings),
            ));
        }
        MapRow {
            pair: pair.to_string(),
            map,
        }
    }

    // ------------------------------------------------------------------
    // Figure 4 — case study.
    // ------------------------------------------------------------------

    /// Runs the cumulative-gain case study for one pair.
    pub fn figure4(&self, pair: &str) -> Vec<CaseStudyCurve> {
        run_case_study_with_engine(self.engine(pair), 20)
    }

    // ------------------------------------------------------------------
    // Figure 5 — threshold sensitivity.
    // ------------------------------------------------------------------

    /// Sweeps `Tsim` and `TLSI` and reports the average F-measure.
    pub fn figure5(&self, pair: &str, steps: &[f64]) -> Vec<ThresholdCurve> {
        let mut tsim_points = Vec::new();
        let mut tlsi_points = Vec::new();
        for &value in steps {
            let config = WikiMatchConfig {
                t_sim: value,
                ..WikiMatchConfig::default()
            };
            tsim_points.push((value, self.average_for_config(pair, config).f1));
            let config = WikiMatchConfig {
                t_lsi: value,
                ..WikiMatchConfig::default()
            };
            tlsi_points.push((value, self.average_for_config(pair, config).f1));
        }
        vec![
            ThresholdCurve {
                threshold: "Tsim".to_string(),
                pair: pair.to_string(),
                points: tsim_points,
            },
            ThresholdCurve {
                threshold: "TLSI".to_string(),
                pair: pair.to_string(),
                points: tlsi_points,
            },
        ]
    }

    // ------------------------------------------------------------------
    // Figure 6 — LSI top-k.
    // ------------------------------------------------------------------

    /// Average LSI top-k scores for `k ∈ {1, 3, 5, 10}`.
    pub fn figure6(&self, pair: &str) -> Vec<TopKPoint> {
        [1usize, 3, 5, 10]
            .into_iter()
            .map(|k| {
                let mut per_type = Vec::new();
                for type_id in self.type_ids(pair) {
                    let pairs = self.run_matcher(pair, &type_id, &LsiTopKMatcher::new(k));
                    per_type.push(self.evaluate(pair, &type_id, &pairs));
                }
                TopKPoint {
                    pair: pair.to_string(),
                    k,
                    scores: Scores::average(per_type.iter()),
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Figure 7 — COMA++ configurations.
    // ------------------------------------------------------------------

    /// Average scores of every COMA++ configuration.
    pub fn figure7(&self, pair: &str) -> Vec<ComaPoint> {
        ComaConfiguration::all()
            .iter()
            .map(|config| {
                let mut per_type = Vec::new();
                for type_id in self.type_ids(pair) {
                    let pairs = self.run_matcher(pair, &type_id, &ComaMatcher::new(*config));
                    per_type.push(self.evaluate(pair, &type_id, &pairs));
                }
                ComaPoint {
                    pair: pair.to_string(),
                    configuration: config.label().to_string(),
                    scores: Scores::average(per_type.iter()),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_prepares_and_caches_types() {
        let ctx = ExperimentContext::quick();
        assert_eq!(ctx.type_ids("Portuguese-English").len(), 14);
        assert_eq!(ctx.type_ids("Vietnamese-English").len(), 4);
        let engine = ctx.engine("Portuguese-English");
        let first = engine.schema("film").unwrap();
        let cached = engine.cached_types();
        let second = engine.schema("film").unwrap();
        assert!(std::sync::Arc::ptr_eq(&first, &second));
        assert_eq!(engine.cached_types(), cached);
        assert!(first.dual_count > 0);
    }

    #[test]
    fn table2_produces_rows_for_every_type() {
        let ctx = ExperimentContext::quick();
        let table = ctx.table2("Vietnamese-English");
        assert_eq!(table.rows.len(), 4);
        assert!(table.average.wikimatch.f1 > 0.0);
        for row in &table.rows {
            for scores in [&row.wikimatch, &row.bouma, &row.coma, &row.lsi] {
                assert!((0.0..=1.0).contains(&scores.precision));
                assert!((0.0..=1.0).contains(&scores.recall));
            }
        }
    }

    #[test]
    fn ablation_configs_cover_the_paper_rows() {
        let configs = ExperimentContext::ablation_configs();
        assert!(configs.len() >= 9);
        assert_eq!(configs[0].0, "WikiMatch");
    }

    #[test]
    fn approaches_are_polymorphic_plugins() {
        let approaches = ExperimentContext::approaches("Portuguese-English");
        let names: Vec<&'static str> = approaches.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["WikiMatch", "Bouma", "COMA++", "LSI"]);
    }

    #[test]
    fn table5_overlap_within_bounds() {
        let ctx = ExperimentContext::quick();
        for (_, overlap) in ctx.table5("Portuguese-English") {
            assert!((0.0..=1.0).contains(&overlap));
        }
    }

    #[test]
    fn table7_orders_lsi_above_random() {
        let ctx = ExperimentContext::quick();
        let row = ctx.table7("Vietnamese-English");
        let get = |label: &str| {
            row.map
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert!(get("LSI") >= get("Random"), "{:?}", row.map);
    }
}
