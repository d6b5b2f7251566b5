//! `AttributeAlignment::run` must be a pure optimisation of the paper's
//! Algorithm 1: for any corpus and any configuration, the `MatchSet` it
//! returns — cluster order and member order — equals the one the direct
//! transcription below returns.
//!
//! The oracle queues every pair above `TLSI` (zero-evidence pairs
//! included), buffers every rejected pair, and scores each buffered pair's
//! inductive grouping with the nested member loop, calling
//! `DualSchema::grouping_score` twice per member pair. The production
//! path queues only pairs that can change the answer and scores against
//! packed occurrence patterns; this suite pins that the answer is the same.

use proptest::prelude::*;

use wikimatch_suite::adversarial::{adversarial_pt_en, AdversarialFlavor};
use wikimatch_suite::{wiki_corpus, wikimatch};

use wiki_corpus::{Dataset, SyntheticConfig};
use wikimatch::config::CandidateOrdering;
use wikimatch::{
    AttributeAlignment, CandidatePair, DualSchema, MatchEngine, MatchSet, SimilarityTable,
    WikiMatchConfig,
};

/// The reference transcription of Algorithm 1, Algorithm 2 and
/// `ReviseUncertain` (Section 3.4), kept deliberately naive.
struct OracleAlignment<'a> {
    schema: &'a DualSchema,
    table: &'a SimilarityTable,
    config: WikiMatchConfig,
}

impl OracleAlignment<'_> {
    fn run(&self) -> MatchSet {
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

    fn evidence(&self, pair: &CandidatePair) -> f64 {
        let v = if self.config.use_vsim { pair.vsim } else { 0.0 };
        let l = if self.config.use_lsim { pair.lsim } else { 0.0 };
        v.max(l)
    }

    fn ordered_candidates(&self) -> Vec<CandidatePair> {
        match self.config.ordering {
            CandidateOrdering::Lsi => self.table.above_lsi(self.config.t_lsi),
            CandidateOrdering::MaxSimilarity => {
                let mut pairs: Vec<CandidatePair> = self
                    .table
                    .pairs()
                    .iter()
                    .filter(|p| self.evidence(p) > 0.0)
                    .copied()
                    .collect();
                pairs.sort_by(|a, b| {
                    self.evidence(b)
                        .total_cmp(&self.evidence(a))
                        .then_with(|| (a.p, a.q).cmp(&(b.p, b.q)))
                });
                pairs
            }
            CandidateOrdering::Random => {
                let mut pairs = self.table.above_lsi(self.config.t_lsi);
                deterministic_shuffle(&mut pairs, self.config.ordering_seed);
                pairs
            }
        }
    }

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
            (Some(_), Some(_)) => {}
        }
    }

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

    fn revise_uncertain(
        &self,
        uncertain: &[CandidatePair],
        matches: &MatchSet,
    ) -> Vec<CandidatePair> {
        if !self.config.use_inductive_grouping {
            return uncertain.to_vec();
        }
        let mut revised: Vec<(f64, CandidatePair)> = uncertain
            .iter()
            .filter_map(|pair| {
                if self.evidence(pair) <= 0.0 {
                    return None;
                }
                let score = self.inductive_grouping_score(pair, matches);
                (score > self.config.t_eg).then_some((score, *pair))
            })
            .collect();
        revised.sort_by(|a, b| {
            b.0.total_cmp(&a.0)
                .then_with(|| (a.1.p, a.1.q).cmp(&(b.1.p, b.1.q)))
        });
        revised.into_iter().map(|(_, pair)| pair).collect()
    }

    fn inductive_grouping_score(&self, pair: &CandidatePair, matches: &MatchSet) -> f64 {
        let a = pair.p;
        let b = pair.q;
        let lang_a = &self.schema.attribute(a).language;
        let lang_b = &self.schema.attribute(b).language;

        let mut total = 0.0;
        let mut count = 0usize;
        for cluster in matches.clusters() {
            let ca: Vec<usize> = cluster
                .members
                .iter()
                .copied()
                .filter(|&m| &self.schema.attribute(m).language == lang_a && m != a)
                .collect();
            let cb: Vec<usize> = cluster
                .members
                .iter()
                .copied()
                .filter(|&m| &self.schema.attribute(m).language == lang_b && m != b)
                .collect();
            for &x in &ca {
                for &y in &cb {
                    let ga = self.schema.grouping_score(a, x);
                    let gb = self.schema.grouping_score(b, y);
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

/// The default configuration, every ablation of Table 3 / Figure 3, and a
/// negative `Tsim` — the one setting under which a zero-evidence pair is
/// accepted as certain, so the production path must keep the full queue.
fn configs() -> Vec<(&'static str, WikiMatchConfig)> {
    let base = WikiMatchConfig::default();
    vec![
        ("default", base),
        ("-vsim", base.without_vsim()),
        ("-lsim", base.without_lsim()),
        ("-LSI", base.without_lsi()),
        ("-IntegrateMatches", base.without_integrate_constraint()),
        ("-ReviseUncertain", base.without_revise_uncertain()),
        ("-InductiveGrouping", base.without_inductive_grouping()),
        ("single step", base.single_step()),
        ("random", base.with_random_ordering()),
        (
            "negative Tsim",
            WikiMatchConfig {
                t_sim: -0.1,
                ..base
            },
        ),
    ]
}

/// Aligns every type of the dataset under every configuration, through
/// both paths, and asserts equal match sets.
fn assert_alignment_matches_oracle(dataset: Dataset) {
    let engine = MatchEngine::builder(dataset).build();
    for pairing in &engine.dataset().types.clone() {
        let prepared = engine.prepared(&pairing.type_id).unwrap();
        let (schema, table) = (&*prepared.schema, &*prepared.table);
        for (label, config) in configs() {
            let fast = AttributeAlignment::new(schema, table, config).run();
            let oracle = OracleAlignment {
                schema,
                table,
                config,
            }
            .run();
            assert_eq!(
                fast, oracle,
                "type {} under {label}: match sets diverge",
                pairing.type_id
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Every adversarial corpus shape, under every configuration: empty
    /// and singleton vectors leave many zero-evidence pairs above `TLSI`,
    /// and all-pairs cliques leave almost none.
    #[test]
    fn alignment_equals_oracle_on_adversarial_corpora(seed in 0u64..1_000) {
        for flavor in AdversarialFlavor::ALL {
            assert_alignment_matches_oracle(adversarial_pt_en(flavor, seed));
        }
    }
}

#[test]
fn alignment_equals_oracle_on_the_tiny_tier() {
    assert_alignment_matches_oracle(Dataset::pt_en(&SyntheticConfig::tiny()));
    assert_alignment_matches_oracle(Dataset::vn_en(&SyntheticConfig::tiny()));
}

#[test]
fn alignment_equals_oracle_on_the_small_tier() {
    assert_alignment_matches_oracle(Dataset::pt_en(&SyntheticConfig::small()));
    assert_alignment_matches_oracle(Dataset::vn_en(&SyntheticConfig::small()));
}
