//! Synthetic multilingual corpus generator.
//!
//! The generator substitutes for the Wikipedia dumps used in the paper (see
//! the crate documentation and `DESIGN.md` for the substitution rationale).
//! For every entity type of a language pair it creates *dual-language
//! entities*: an English article and a foreign-language article describing
//! the same underlying entity, connected by cross-language links, each with
//! an infobox rendered from the same language-independent facts but with
//! language-specific attribute names, value formatting, schema drift, and
//! noise.
//!
//! The important property of the generator is that attribute presence is
//! sampled *independently per language* with probabilities calibrated so the
//! expected cross-language attribute overlap of dual infoboxes matches the
//! per-type overlap reported in Table 5 of the paper. That heterogeneity is
//! what makes the matching problem non-trivial: value vectors only partially
//! agree, LSI sees non-parallel occurrence patterns, and some concepts are
//! simply absent from one of the languages.
//!
//! # The RNG stream is the output
//!
//! One seeded generator drives a whole pair, so every draw shifts every
//! draw after it. For each entity, the facts of *all* the type's concepts
//! are drawn, then the notability of all of them, in catalog concept
//! order, whether or not the entity ends up rendering them; the rendering
//! pass then draws in catalog order again. A speed-up may cache, index or
//! defer work that consumes no draw (the ground-truth recording, the
//! template lookups, formatting a fact nobody renders), but it may not
//! skip, reorder or batch a draw: any of those moves every corpus,
//! snapshot fingerprint and pinned score downstream. `tests/corpus_golden.rs`
//! pins the output of every tier up to `large`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

use crate::catalog::{Catalog, ConceptSpec, EntityTypeSpec, ValueKind};
use crate::entities::{EntityKind, EntityPool, EntityRef};
use crate::ground_truth::{GroundTruth, SenseIndex};
use crate::lang::Language;
use crate::model::{Article, AttributeValue, Infobox, Link};
use crate::store::Corpus;
use wiki_text::normalize_label;

/// Configuration of the synthetic corpus generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// RNG seed; everything derived from the config is deterministic.
    pub seed: u64,
    /// Dual-language entities generated per type for the Portuguese-English
    /// pair.
    pub pairs_per_type_pt: usize,
    /// Dual-language entities generated per type for the Vietnamese-English
    /// pair (the paper's Vn-En dataset is roughly an order of magnitude
    /// smaller than Pt-En).
    pub pairs_per_type_vn: usize,
    /// Number of synthetic people in the entity pool.
    pub person_pool: usize,
    /// Probability that a numeric/date value is perturbed in the non-English
    /// rendition (models the running-time 160 vs 165 inconsistency).
    pub value_noise: f64,
    /// Probability that a person-valued attribute of the non-English infobox
    /// receives the value of a different person-valued attribute (models the
    /// Ryuichi Sakamoto "music by" vs "elenco original" inconsistency).
    pub attribute_misuse: f64,
    /// Coverage factor applied to English attribute presence.
    pub english_coverage: f64,
    /// Number of generated concepts appended to every entity type (see
    /// [`Catalog::scaled`]); `0` keeps the paper-faithful standard catalog.
    /// The scale tiers ([`Self::small`], [`Self::medium`], [`Self::large`])
    /// use this to grow the attribute space far beyond the paper's corpus.
    pub extra_concepts_per_type: usize,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            pairs_per_type_pt: 90,
            pairs_per_type_vn: 45,
            person_pool: 260,
            value_noise: 0.08,
            attribute_misuse: 0.04,
            english_coverage: 0.92,
            extra_concepts_per_type: 0,
        }
    }
}

impl SyntheticConfig {
    /// A reduced configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            pairs_per_type_pt: 25,
            pairs_per_type_vn: 15,
            person_pool: 80,
            ..Self::default()
        }
    }

    /// The **small** scale tier: a few times the attribute count of
    /// [`tiny`](Self::tiny), still comfortably dense-computable.
    pub fn small() -> Self {
        Self {
            pairs_per_type_pt: 40,
            pairs_per_type_vn: 20,
            person_pool: 120,
            extra_concepts_per_type: 60,
            ..Self::default()
        }
    }

    /// The **medium** scale tier: roughly an order of magnitude more
    /// attribute groups per schema than [`tiny`](Self::tiny). This is the
    /// tier where the candidate-pruned similarity build must demonstrably
    /// beat the dense reference pass.
    pub fn medium() -> Self {
        Self {
            pairs_per_type_pt: 60,
            pairs_per_type_vn: 25,
            person_pool: 160,
            extra_concepts_per_type: 320,
            ..Self::default()
        }
    }

    /// The **large** scale tier: on the order of 100× the attribute count
    /// of [`tiny`](Self::tiny) (thousands of attribute groups per schema,
    /// millions of attribute pairs) — the tier where dense all-pairs
    /// scoring stops being interactive.
    pub fn large() -> Self {
        Self {
            pairs_per_type_pt: 80,
            pairs_per_type_vn: 30,
            person_pool: 200,
            extra_concepts_per_type: 2400,
            ..Self::default()
        }
    }

    /// The **xlarge** scale tier: ~10× the attribute space of
    /// [`large`](Self::large) (tens of thousands of attribute groups per
    /// schema, hundreds of millions of raw attribute pairs) — the tier
    /// that stresses the quadratic frontier. On the film schema
    /// (31,232 attribute groups), `wikimatch`'s exact build scores about
    /// 1.5 million channel cosines and takes seconds, not minutes, on one
    /// core. Concepts beyond the `large` boundary draw from the diversified
    /// long-tail kind cycle (see [`Catalog::scaled`]), so term
    /// neighbourhoods stay realistic instead of collapsing into
    /// near-duplicate cliques.
    ///
    /// The tier is deliberately *wide and shallow*: far more concepts than
    /// `large` but fewer dual entities per type. Attribute-group count `n`
    /// (the quadratic frontier this tier exists to stress) scales with the
    /// concept space, while the LSI occurrence matrix stays `n × m` with a
    /// small dual count `m` — matching real wiki long tails, where the
    /// schema vocabulary grows much faster than the per-type article
    /// population.
    pub fn xlarge() -> Self {
        Self {
            pairs_per_type_pt: 48,
            pairs_per_type_vn: 30,
            person_pool: 200,
            extra_concepts_per_type: 26_000,
            ..Self::default()
        }
    }

    /// Dual-entity count for a given foreign language.
    pub fn pairs_for(&self, other: &Language) -> usize {
        match other {
            Language::Vn => self.pairs_per_type_vn,
            _ => self.pairs_per_type_pt,
        }
    }
}

/// The named synthetic scale tiers, in ascending size order.
///
/// Every tier name in the workspace (`matchd --tiers` and the registry's
/// corpus names, which the tests and the benchmark request) parses
/// through this enum, so adding a tier here threads it through every
/// surface at once. `Display` and [`FromStr`](std::str::FromStr)
/// round-trip exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScaleTier {
    /// [`SyntheticConfig::tiny`].
    Tiny,
    /// [`SyntheticConfig::small`].
    Small,
    /// [`SyntheticConfig::medium`].
    Medium,
    /// [`SyntheticConfig::large`].
    Large,
    /// [`SyntheticConfig::xlarge`].
    Xlarge,
}

impl ScaleTier {
    /// All tiers, ascending.
    pub const ALL: [ScaleTier; 5] = [
        ScaleTier::Tiny,
        ScaleTier::Small,
        ScaleTier::Medium,
        ScaleTier::Large,
        ScaleTier::Xlarge,
    ];

    /// The tier's canonical lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            ScaleTier::Tiny => "tiny",
            ScaleTier::Small => "small",
            ScaleTier::Medium => "medium",
            ScaleTier::Large => "large",
            ScaleTier::Xlarge => "xlarge",
        }
    }

    /// The generator configuration of this tier.
    pub fn config(&self) -> SyntheticConfig {
        match self {
            ScaleTier::Tiny => SyntheticConfig::tiny(),
            ScaleTier::Small => SyntheticConfig::small(),
            ScaleTier::Medium => SyntheticConfig::medium(),
            ScaleTier::Large => SyntheticConfig::large(),
            ScaleTier::Xlarge => SyntheticConfig::xlarge(),
        }
    }
}

impl std::fmt::Display for ScaleTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string names no [`ScaleTier`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScaleTierError(String);

impl std::fmt::Display for ParseScaleTierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown scale tier {:?}; expected tiny, small, medium, large or xlarge",
            self.0
        )
    }
}

impl std::error::Error for ParseScaleTierError {}

impl std::str::FromStr for ScaleTier {
    type Err = ParseScaleTierError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScaleTier::ALL
            .iter()
            .find(|t| t.name().eq_ignore_ascii_case(s.trim()))
            .copied()
            .ok_or_else(|| ParseScaleTierError(s.to_string()))
    }
}

/// A language-independent fact an infobox may record.
#[derive(Debug, Clone)]
enum Fact {
    Date {
        year: i32,
        month: u32,
        day: u32,
    },
    Year(i32),
    Entities(Vec<EntityRef>),
    Number {
        value: f64,
        unit: &'static str,
    },
    Money {
        millions: f64,
    },
    /// One or two aliases, each an index into [`ALIAS_WORDS`] and a number.
    /// Most facts are never rendered, so the alias strings are formatted
    /// only when an edition records the fact.
    Alias([Option<(usize, i32)>; 2]),
    FreeText,
}

/// The synthetic corpus generator.
#[derive(Debug, Clone)]
pub struct SyntheticGenerator {
    config: SyntheticConfig,
    catalog: Catalog,
}

impl SyntheticGenerator {
    /// Creates a generator over the standard catalog, scaled up when the
    /// configuration asks for extra concepts (see [`Catalog::scaled`]).
    pub fn new(config: SyntheticConfig) -> Self {
        Self::with_catalog(config, Catalog::scaled(config.extra_concepts_per_type))
    }

    /// Creates a generator over a custom catalog.
    pub fn with_catalog(config: SyntheticConfig, catalog: Catalog) -> Self {
        Self { config, catalog }
    }

    /// The catalog in use.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The configuration in use.
    pub fn config(&self) -> &SyntheticConfig {
        &self.config
    }

    /// Generates a corpus for the pair (`other`, English) plus its ground
    /// truth.
    pub fn generate_pair(&self, other: Language) -> (Corpus, GroundTruth) {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (other.code().bytes().map(u64::from).sum::<u64>() << 32),
        );
        let pool = EntityPool::standard(self.config.person_pool, &mut rng);
        let mut corpus = Corpus::new();
        let mut ground_truth = GroundTruth::new();
        let mut created_entities: HashSet<EntityRef> = HashSet::new();
        let mut sense_names = SenseNames::new();

        let pairs = self.config.pairs_for(&other);
        for ty in self.catalog.types_for(&other) {
            self.generate_type(
                ty,
                &other,
                pairs,
                &pool,
                &mut rng,
                &mut corpus,
                &mut ground_truth,
                &mut created_entities,
                &mut sense_names,
            );
        }
        (corpus, ground_truth)
    }

    /// Generates the dual-language entities of one type.
    #[allow(clippy::too_many_arguments)]
    fn generate_type(
        &self,
        ty: &EntityTypeSpec,
        other: &Language,
        pairs: usize,
        pool: &EntityPool,
        rng: &mut StdRng,
        corpus: &mut Corpus,
        ground_truth: &mut GroundTruth,
        created_entities: &mut HashSet<EntityRef>,
        sense_names: &mut SenseNames,
    ) {
        let target_overlap = ty.target_overlap(other).unwrap_or(0.5);
        // Schema drift is template-level, not per-infobox: a concept either
        // belongs to the foreign language's infobox template (and is then
        // recorded about as consistently as in English) or it is only used
        // by a few editors. The set of template concepts is chosen so the
        // expected cross-language attribute overlap matches Table 5.
        let template = select_template_concepts(
            &ty.concepts,
            other,
            self.config.english_coverage,
            MARGINAL_COVERAGE,
            target_overlap,
        );
        // Per concept, the foreign edition's coverage: the template lookup
        // happens once per type, not once per entity.
        let other_coverage: Vec<f64> = ty
            .concepts
            .iter()
            .map(|concept| {
                if template.contains(&concept.id) {
                    self.config.english_coverage
                } else {
                    MARGINAL_COVERAGE
                }
            })
            .collect();
        let mut senses = SurfaceSenses::new(&ty.concepts, other, ground_truth.take_indexed(ty.id));
        // Per-entity facts and notability, by concept index.
        let mut facts: Vec<Fact> = Vec::with_capacity(ty.concepts.len());
        let mut notable: Vec<bool> = Vec::with_capacity(ty.concepts.len());

        for i in 0..pairs {
            // 1. Draw the language-independent facts for this entity, and
            //    decide which concepts are *notable* for it. Notability is a
            //    property of the entity, not of a language edition: if a
            //    film's budget is documented at all, both editions are
            //    likely to mention it. This is what gives cross-language
            //    synonyms correlated occurrence patterns over the dual
            //    infoboxes — the signal LSI exploits.
            facts.clear();
            facts.extend(
                ty.concepts
                    .iter()
                    .map(|concept| self.draw_fact(concept, pool, rng)),
            );
            notable.clear();
            notable.extend(
                ty.concepts
                    .iter()
                    .map(|concept| rng.gen_bool(concept.commonness)),
            );

            // 2. Titles per language.
            let title_en = make_title(ty, &Language::En, i, pool, rng);
            let title_other = make_title(ty, other, i, pool, rng);

            // 3. Render one infobox per language.
            let mut infobox_en = Infobox::new(format!("Infobox {}", ty.label_en));
            let mut infobox_other = Infobox::new(format!(
                "Infobox {}",
                ty.label(other).unwrap_or(ty.label_en)
            ));

            for (c, concept) in ty.concepts.iter().enumerate() {
                if !notable[c] {
                    continue;
                }
                for (side, language, coverage, infobox) in [
                    (
                        EN,
                        &Language::En,
                        self.config.english_coverage,
                        &mut infobox_en,
                    ),
                    (OTHER, other, other_coverage[c], &mut infobox_other),
                ] {
                    let names = concept.names(language);
                    if names.is_empty() {
                        continue;
                    }
                    // Given that the concept is notable for this entity,
                    // each edition records it with its coverage probability.
                    if !rng.gen_bool(coverage.clamp(0.0, 1.0)) {
                        continue;
                    }
                    let surface = pick_surface(names, rng);
                    let attribute = self.render_attribute(
                        names[surface],
                        &facts[c],
                        language,
                        other,
                        pool,
                        rng,
                        corpus,
                        created_entities,
                    );
                    infobox.push(attribute);
                    senses.record(c, side, surface, sense_names);
                }
            }

            // Guarantee a minimal schema so no infobox is empty.
            for (side, language, infobox) in [
                (EN, &Language::En, &mut infobox_en),
                (OTHER, other, &mut infobox_other),
            ] {
                if infobox.len() < 2 {
                    for (c, concept) in ty
                        .concepts
                        .iter()
                        .enumerate()
                        .filter(|(_, concept)| !concept.names(language).is_empty())
                        .take(3)
                    {
                        let surface = concept.names(language)[0];
                        if infobox.value_of(surface).is_some() {
                            continue;
                        }
                        let attribute = self.render_attribute(
                            surface,
                            &facts[c],
                            language,
                            other,
                            pool,
                            rng,
                            corpus,
                            created_entities,
                        );
                        infobox.push(attribute);
                        senses.record(c, side, 0, sense_names);
                    }
                }
            }

            // 4. Attribute-misuse noise on the foreign infobox.
            if rng.gen_bool(self.config.attribute_misuse) {
                swap_person_values(&mut infobox_other, rng);
            }

            // 5. Insert the articles with mutual cross-language links.
            let label_en = ty.label_en.to_string();
            let label_other = ty.label(other).unwrap_or(ty.label_en).to_string();
            let mut article_en = Article::new(&title_en, Language::En, label_en, infobox_en);
            article_en.add_cross_link(other.clone(), title_other.clone());
            let mut article_other =
                Article::new(&title_other, other.clone(), label_other, infobox_other);
            article_other.add_cross_link(Language::En, title_en.clone());
            corpus.insert(article_en);
            corpus.insert(article_other);
        }
        ground_truth.restore(senses.index);
    }

    /// Draws a language-independent fact for a concept.
    fn draw_fact(&self, concept: &ConceptSpec, pool: &EntityPool, rng: &mut StdRng) -> Fact {
        match concept.kind {
            ValueKind::Date => Fact::Date {
                year: rng.gen_range(1930..=2011),
                month: rng.gen_range(1..=12),
                day: rng.gen_range(1..=28),
            },
            ValueKind::Year => Fact::Year(rng.gen_range(1930..=2011)),
            ValueKind::Entity(kind) => Fact::Entities(vec![pool.sample(kind, rng)]),
            ValueKind::EntityList { kind, max } => {
                let count = rng.gen_range(1..=max.max(1));
                Fact::Entities(pool.sample_distinct(kind, count, rng))
            }
            ValueKind::Number { lo, hi, unit } => Fact::Number {
                value: rng.gen_range(lo..=hi).round(),
                unit,
            },
            ValueKind::Money {
                lo_millions,
                hi_millions,
            } => Fact::Money {
                millions: rng.gen_range(lo_millions..=hi_millions).round(),
            },
            ValueKind::Alias => {
                let count = rng.gen_range(1..=2);
                let mut aliases = [None; 2];
                for alias in &mut aliases[..count] {
                    *alias = Some((rng.gen_range(0..ALIAS_WORDS.len()), rng.gen_range(1..=999)));
                }
                Fact::Alias(aliases)
            }
            ValueKind::FreeText => Fact::FreeText,
        }
    }

    /// Renders one attribute-value pair for a language, creating referenced
    /// entity articles (with cross-language links) on demand.
    #[allow(clippy::too_many_arguments)]
    fn render_attribute(
        &self,
        surface: &str,
        fact: &Fact,
        language: &Language,
        other: &Language,
        pool: &EntityPool,
        rng: &mut StdRng,
        corpus: &mut Corpus,
        created_entities: &mut HashSet<EntityRef>,
    ) -> AttributeValue {
        let noisy = language != &Language::En && rng.gen_bool(self.config.value_noise);
        match fact {
            Fact::Date { year, month, day } => {
                let day = if noisy {
                    (*day + rng.gen_range(1u32..=3)).min(28)
                } else {
                    *day
                };
                AttributeValue::text(surface, format_date(language, *year, *month, day))
            }
            Fact::Year(year) => {
                let year = if noisy { year + 1 } else { *year };
                AttributeValue::text(surface, year.to_string())
            }
            Fact::Entities(refs) => {
                let mut parts = Vec::new();
                let mut links = Vec::new();
                for &r in refs {
                    ensure_entity_articles(r, pool, corpus, other, created_entities);
                    let title = pool.get(r).title(language).to_string();
                    links.push(Link::plain(title.clone()));
                    parts.push(title);
                }
                AttributeValue::linked(surface, parts.join(", "), links)
            }
            Fact::Number { value, unit } => {
                let value = if noisy {
                    (value * rng.gen_range(0.97..=1.06)).round()
                } else {
                    *value
                };
                AttributeValue::text(surface, format_number(language, value, unit))
            }
            Fact::Money { millions } => {
                let millions = if noisy {
                    (millions * rng.gen_range(0.95..=1.05)).round()
                } else {
                    *millions
                };
                AttributeValue::text(surface, format_money(language, millions))
            }
            Fact::Alias(aliases) => {
                let aliases: Vec<String> = aliases
                    .iter()
                    .flatten()
                    .map(|&(word, number)| format!("{} {number}", ALIAS_WORDS[word]))
                    .collect();
                AttributeValue::text(surface, aliases.join(", "))
            }
            Fact::FreeText => {
                let words = free_text_words(language);
                let count = rng.gen_range(1..=3);
                let text: Vec<&str> = (0..count)
                    .map(|_| words[rng.gen_range(0..words.len())])
                    .collect();
                AttributeValue::text(surface, text.join(", "))
            }
        }
    }
}

/// Creates (once) the articles for a referenced entity in English and the
/// foreign language, linked by cross-language links. These articles are what
/// the bilingual title dictionary and `lsim` are derived from.
fn ensure_entity_articles(
    r: EntityRef,
    pool: &EntityPool,
    corpus: &mut Corpus,
    other: &Language,
    created: &mut HashSet<EntityRef>,
) {
    if !created.insert(r) {
        return;
    }
    let entity = pool.get(r);
    let type_label = format!("{:?}", entity.kind);
    let title_en = entity.title(&Language::En).to_string();
    let title_other = entity.title(other).to_string();

    let mut infobox_en = Infobox::new(format!("Infobox {type_label}"));
    infobox_en.push(AttributeValue::text("name", title_en.clone()));
    let mut article_en = Article::new(&title_en, Language::En, &type_label, infobox_en);
    article_en.add_cross_link(other.clone(), title_other.clone());

    let mut infobox_other = Infobox::new(format!("Infobox {type_label}"));
    infobox_other.push(AttributeValue::text("nome", title_other.clone()));
    let mut article_other = Article::new(&title_other, other.clone(), &type_label, infobox_other);
    article_other.add_cross_link(Language::En, title_en);

    corpus.insert(article_en);
    corpus.insert(article_other);
}

/// Picks the index of a surface name: the primary one with probability
/// 0.7, otherwise one of the synonyms uniformly.
fn pick_surface(names: &[&str], rng: &mut StdRng) -> usize {
    if names.len() == 1 || rng.gen_bool(0.7) {
        0
    } else {
        rng.gen_range(1..names.len())
    }
}

/// Side of a dual-language entity: the English edition.
const EN: usize = 0;
/// Side of a dual-language entity: the foreign edition.
const OTHER: usize = 1;

/// Sense names by surface name, shared by every type of a pair: the
/// generated concepts of a scaled catalog give each type the same surface
/// names, so each is normalised once per pair instead of once per type.
type SenseNames = HashMap<&'static str, String>;

/// Records one type's ground truth as its attributes are rendered.
///
/// Every rendered attribute registers its (language, surface, concept)
/// sense, and after the first few entities nearly every registration
/// repeats a triple already recorded, which would change nothing. Each
/// surface name of each concept therefore has a slot that remembers
/// whether it was recorded, and only a first occurrence reaches the
/// ground truth, through the indexed [`SenseIndex::add`].
struct SurfaceSenses<'a> {
    concepts: &'a [ConceptSpec],
    /// The languages of the [`EN`] and [`OTHER`] sides.
    languages: [&'a Language; 2],
    /// Per concept and side, the slot of the concept's first surface name
    /// in that side's language.
    first_slot: Vec<[usize; 2]>,
    recorded: Vec<bool>,
    index: SenseIndex,
}

impl<'a> SurfaceSenses<'a> {
    fn new(concepts: &'a [ConceptSpec], other: &'a Language, index: SenseIndex) -> Self {
        let languages = [&Language::En, other];
        let mut slots = 0;
        let first_slot = concepts
            .iter()
            .map(|concept| {
                languages.map(|language| {
                    let first = slots;
                    slots += concept.names(language).len();
                    first
                })
            })
            .collect();
        Self {
            concepts,
            languages,
            first_slot,
            recorded: vec![false; slots],
            index,
        }
    }

    /// Registers that surface name `surface` of concept `concept` was
    /// rendered on `side`.
    fn record(&mut self, concept: usize, side: usize, surface: usize, names: &mut SenseNames) {
        let slot = self.first_slot[concept][side] + surface;
        if std::mem::replace(&mut self.recorded[slot], true) {
            return;
        }
        let spec = &self.concepts[concept];
        let language = self.languages[side];
        let surface = spec.names(language)[surface];
        // Normalised twice, as the sense names have always been: a label
        // that still ends in a counter after one pass ("a 2 3") changes
        // on the second.
        let name = names
            .entry(surface)
            .or_insert_with(|| normalize_label(&normalize_label(surface)));
        self.index.add(language, name, spec.id);
    }
}

/// Swaps the values of two person-valued (link-bearing) attributes, modelling
/// editor mistakes / loose template usage.
fn swap_person_values(infobox: &mut Infobox, rng: &mut StdRng) {
    let linked: Vec<usize> = infobox
        .attributes
        .iter()
        .enumerate()
        .filter(|(_, a)| !a.links.is_empty())
        .map(|(i, _)| i)
        .collect();
    if linked.len() < 2 {
        return;
    }
    let a = linked[rng.gen_range(0..linked.len())];
    let mut b = linked[rng.gen_range(0..linked.len())];
    if a == b {
        b = linked[(linked.iter().position(|&x| x == a).unwrap() + 1) % linked.len()];
    }
    if a == b {
        return;
    }
    let value_a = infobox.attributes[a].value.clone();
    let links_a = infobox.attributes[a].links.clone();
    infobox.attributes[a].value = infobox.attributes[b].value.clone();
    infobox.attributes[a].links = infobox.attributes[b].links.clone();
    infobox.attributes[b].value = value_a;
    infobox.attributes[b].links = links_a;
}

/// Coverage of a concept that is *not* part of the foreign language's
/// infobox template: only a few editors add it by hand.
const MARGINAL_COVERAGE: f64 = 0.12;

/// Selects which concepts belong to the foreign language's infobox template
/// so that the expected cross-language attribute overlap matches `target`.
///
/// Concepts are considered in decreasing order of commonness (widely used
/// concepts are the ones templates share across languages); the prefix size
/// whose predicted overlap is closest to the target is chosen. Concepts with
/// no surface name in the foreign language can never be included.
fn select_template_concepts<'a>(
    concepts: &'a [ConceptSpec],
    other: &Language,
    english_coverage: f64,
    marginal_coverage: f64,
    target: f64,
) -> HashSet<&'a str> {
    let mut order: Vec<(usize, &ConceptSpec)> = concepts
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.names(other).is_empty())
        .collect();
    order.sort_by(|(_, a), (_, b)| {
        b.commonness
            .partial_cmp(&a.commonness)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.id.cmp(b.id))
    });

    // Sort positions by concept index: scaled catalogs have thousands of
    // concepts per type, and the prediction loop looks one up per concept
    // for every prefix size.
    let mut position_of: Vec<Option<usize>> = vec![None; concepts.len()];
    for (p, &(c, _)) in order.iter().enumerate() {
        position_of[c] = Some(p);
    }
    let predicted = |included: usize| -> f64 {
        let mut intersection = 0.0;
        let mut union = 0.0;
        for (concept, position) in concepts.iter().zip(&position_of) {
            let ce = if concept.en.is_empty() {
                0.0
            } else {
                english_coverage
            };
            let cl = match *position {
                None => 0.0,
                Some(p) if p < included => english_coverage,
                Some(_) => marginal_coverage,
            };
            let c = concept.commonness;
            intersection += c * ce * cl;
            union += c * (ce + cl - ce * cl);
        }
        if union == 0.0 {
            0.0
        } else {
            intersection / union
        }
    };

    let mut best = (0usize, f64::MAX);
    for included in 0..=order.len() {
        let error = (predicted(included) - target).abs();
        if error < best.1 {
            best = (included, error);
        }
    }
    order.iter().take(best.0).map(|(_, c)| c.id).collect()
}

/// English/Portuguese month names used when rendering dates.
const MONTHS_EN: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];
const MONTHS_PT: [&str; 12] = [
    "Janeiro",
    "Fevereiro",
    "Março",
    "Abril",
    "Maio",
    "Junho",
    "Julho",
    "Agosto",
    "Setembro",
    "Outubro",
    "Novembro",
    "Dezembro",
];

fn format_date(language: &Language, year: i32, month: u32, day: u32) -> String {
    match language {
        Language::En => format!("{} {}, {}", MONTHS_EN[(month - 1) as usize], day, year),
        Language::Pt => format!("{} de {} de {}", day, MONTHS_PT[(month - 1) as usize], year),
        Language::Vn => format!("ngày {} tháng {} năm {}", day, month, year),
        Language::Other(_) => format!("{year}-{month:02}-{day:02}"),
    }
}

fn format_number(language: &Language, value: f64, unit: &str) -> String {
    let n = value as i64;
    let unit_str = match (language, unit) {
        (_, "") => "",
        (Language::En, "minutes") => " minutes",
        (Language::Pt, "minutes") => " minutos",
        (Language::Vn, "minutes") => " phút",
        (Language::En, "episodes") => " episodes",
        (Language::Pt, "episodes") => " episódios",
        (Language::Vn, "episodes") => " tập",
        (Language::En, "pages") => " pages",
        (Language::Pt, "pages") => " páginas",
        (Language::Vn, "pages") => " trang",
        _ => "",
    };
    format!("{n}{unit_str}")
}

fn format_money(language: &Language, millions: f64) -> String {
    let m = millions as i64;
    match language {
        Language::En => {
            if m >= 1000 {
                format!("${} billion", m / 1000)
            } else {
                format!("${m} million")
            }
        }
        Language::Pt => {
            if m >= 1000 {
                format!("{} bilhões", m / 1000)
            } else {
                format!("{m} milhões")
            }
        }
        Language::Vn => format!("{m} triệu USD"),
        Language::Other(_) => format!("{m}000000"),
    }
}

/// Title word tables: (English, Portuguese, Vietnamese).
const TITLE_NOUNS: &[(&str, &str, &str)] = &[
    ("Emperor", "Imperador", "Hoàng đế"),
    ("Mountain", "Montanha", "Ngọn núi"),
    ("River", "Rio", "Dòng sông"),
    ("Night", "Noite", "Đêm"),
    ("Dream", "Sonho", "Giấc mơ"),
    ("Journey", "Jornada", "Hành trình"),
    ("Secret", "Segredo", "Bí mật"),
    ("Garden", "Jardim", "Khu vườn"),
    ("Island", "Ilha", "Hòn đảo"),
    ("Winter", "Inverno", "Mùa đông"),
    ("Shadow", "Sombra", "Bóng tối"),
    ("Voyage", "Viagem", "Chuyến đi"),
    ("Kingdom", "Reino", "Vương quốc"),
    ("Memory", "Memória", "Ký ức"),
];
const TITLE_ADJS: &[(&str, &str, &str)] = &[
    ("Last", "Último", "Cuối cùng"),
    ("Silent", "Silencioso", "Im lặng"),
    ("Hidden", "Escondido", "Ẩn giấu"),
    ("Lost", "Perdido", "Thất lạc"),
    ("Golden", "Dourado", "Vàng"),
    ("Dark", "Escuro", "Tăm tối"),
    ("Eternal", "Eterno", "Vĩnh cửu"),
    ("Broken", "Quebrado", "Tan vỡ"),
    ("Distant", "Distante", "Xa xôi"),
    ("Forgotten", "Esquecido", "Bị lãng quên"),
];

/// Words used for language-specific free-text values.
const FREE_TEXT_EN: &[&str] = &[
    "independent",
    "animated series",
    "weekly",
    "hardcover",
    "guitar",
    "piano",
    "drums",
    "american",
    "limited series",
    "streaming",
    "male",
    "female",
    "human",
    "publishing",
    "entertainment",
    "broadcasting",
    "16:9 HDTV",
    "monthly",
];
const FREE_TEXT_PT: &[&str] = &[
    "independente",
    "série animada",
    "semanal",
    "capa dura",
    "violão",
    "piano",
    "bateria",
    "americano",
    "série limitada",
    "transmissão",
    "masculino",
    "feminino",
    "humano",
    "editorial",
    "entretenimento",
    "radiodifusão",
    "16:9 HDTV",
    "mensal",
];
const FREE_TEXT_VN: &[&str] = &[
    "độc lập",
    "phim hoạt hình",
    "hàng tuần",
    "bìa cứng",
    "ghi ta",
    "dương cầm",
    "trống",
    "người Mỹ",
    "loạt phim ngắn",
    "phát trực tuyến",
    "nam",
    "nữ",
    "con người",
    "xuất bản",
    "giải trí",
    "phát thanh truyền hình",
    "16:9 HDTV",
    "hàng tháng",
];
/// Alias words shared across languages (proper-noun-like strings).
const ALIAS_WORDS: &[&str] = &[
    "Falcon", "Nova", "Orion", "Vega", "Lyra", "Atlas", "Zephyr", "Titan", "Aurora", "Comet",
    "Nebula", "Quasar",
];

fn free_text_words(language: &Language) -> &'static [&'static str] {
    match language {
        Language::En => FREE_TEXT_EN,
        Language::Pt => FREE_TEXT_PT,
        Language::Vn => FREE_TEXT_VN,
        Language::Other(_) => FREE_TEXT_EN,
    }
}

/// Builds a unique per-language title for the `i`-th entity of a type.
fn make_title(
    ty: &EntityTypeSpec,
    language: &Language,
    i: usize,
    pool: &EntityPool,
    rng: &mut StdRng,
) -> String {
    // Person-like types take a person name (identical across languages, as on
    // Wikipedia); work-like types take a translated "The <Adj> <Noun>" title.
    let person_like = matches!(ty.id, "actor" | "artist" | "writer" | "adult_actor");
    if person_like {
        let people = pool.of_kind(EntityKind::Person);
        let r = people[i % people.len()];
        let name = pool.get(r).title(&Language::En);
        format!("{name} ({} {i})", ty.id)
    } else {
        let noun = TITLE_NOUNS[rng.gen_range(0..TITLE_NOUNS.len())];
        let adj = TITLE_ADJS[rng.gen_range(0..TITLE_ADJS.len())];
        match language {
            Language::En => format!("The {} {} ({i})", adj.0, noun.0),
            Language::Pt => format!("O {} {} ({i})", noun.1, adj.1),
            Language::Vn => format!("{} {} ({i})", noun.2, adj.2),
            Language::Other(_) => format!("{} {} ({i})", adj.0, noun.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pair(other: Language) -> (Corpus, GroundTruth) {
        let generator = SyntheticGenerator::new(SyntheticConfig::tiny());
        generator.generate_pair(other)
    }

    #[test]
    fn generates_both_language_editions_with_cross_links() {
        let (corpus, _gt) = tiny_pair(Language::Pt);
        assert!(corpus.articles_in(&Language::En).count() > 0);
        assert!(corpus.articles_in(&Language::Pt).count() > 0);
        let pairs = corpus.cross_language_pairs(&Language::En, &Language::Pt);
        // At least the dual entities (14 types × 25 pairs) plus referenced
        // entities are linked.
        assert!(pairs.len() >= 14 * 25, "only {} pairs", pairs.len());
    }

    #[test]
    fn determinism_per_seed() {
        let (c1, g1) = tiny_pair(Language::Pt);
        let (c2, g2) = tiny_pair(Language::Pt);
        assert_eq!(c1.len(), c2.len());
        assert_eq!(
            g1.total_cross_pairs(&Language::Pt, &Language::En),
            g2.total_cross_pairs(&Language::Pt, &Language::En)
        );
        // A different seed yields a different corpus.
        let generator = SyntheticGenerator::new(SyntheticConfig {
            seed: 7,
            ..SyntheticConfig::tiny()
        });
        let (c3, _) = generator.generate_pair(Language::Pt);
        assert_ne!(
            c1.articles().map(|a| a.title.clone()).collect::<Vec<_>>(),
            c3.articles().map(|a| a.title.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn vietnamese_pair_covers_four_types() {
        let (corpus, gt) = tiny_pair(Language::Vn);
        let types: Vec<&str> = gt.type_ids().collect();
        assert_eq!(types.len(), 4);
        // Vietnamese film infoboxes use Vietnamese labels.
        let phim = corpus.articles_of_type(&Language::Vn, "Phim").count();
        assert!(phim > 0);
    }

    #[test]
    fn ground_truth_contains_known_alignments() {
        let (_corpus, gt) = tiny_pair(Language::Pt);
        let film = gt.for_type("film").unwrap();
        assert!(film.is_correct(&Language::En, "directed by", &Language::Pt, "direção"));
        assert!(film.is_correct(&Language::En, "starring", &Language::Pt, "elenco original"));
        assert!(!film.is_correct(&Language::En, "starring", &Language::Pt, "direção"));
        let actor = gt.for_type("actor").unwrap();
        let died = actor.correspondents(&Language::En, "died", &Language::Pt);
        assert!(died.contains(&"falecimento".to_string()) || died.contains(&"morte".to_string()));
    }

    #[test]
    fn infoboxes_are_never_empty_and_have_links() {
        let (corpus, _) = tiny_pair(Language::Pt);
        let mut some_links = false;
        for article in corpus.articles() {
            assert!(
                !article.infobox.is_empty(),
                "empty infobox for {}",
                article.title
            );
            if article
                .infobox
                .attributes
                .iter()
                .any(|a| !a.links.is_empty())
            {
                some_links = true;
            }
        }
        assert!(some_links, "no attribute values carry links");
    }

    #[test]
    fn referenced_entities_have_cross_linked_articles() {
        let (corpus, _) = tiny_pair(Language::Pt);
        // Find a film article with a linked value and check the link target
        // exists in the corpus and is cross-linked to the other language.
        let film = corpus
            .articles_of_type(&Language::En, "Film")
            .find(|a| {
                a.infobox
                    .attributes
                    .iter()
                    .any(|attr| !attr.links.is_empty())
            })
            .expect("a film with links");
        let link = film
            .infobox
            .attributes
            .iter()
            .flat_map(|a| a.links.iter())
            .next()
            .unwrap();
        let landing = corpus
            .get_by_title(&Language::En, &link.target)
            .expect("link target exists");
        assert!(landing.cross_link_to(&Language::Pt).is_some());
    }

    #[test]
    fn measured_overlap_tracks_target_ordering() {
        // film (36 %) should be less homogeneous than writer (63 %) in Pt-En.
        let (corpus, gt) = tiny_pair(Language::Pt);
        let overlap = |type_label_en: &str, type_label_pt: &str, type_id: &str| -> f64 {
            let truth = gt.for_type(type_id).unwrap();
            let mut inter = 0.0;
            let mut union = 0.0;
            for (en_article, pt_article) in corpus
                .cross_language_pairs(&Language::En, &Language::Pt)
                .iter()
                .filter_map(|&(e, p)| Some((corpus.get(e)?, corpus.get(p)?)))
            {
                if en_article.entity_type != type_label_en
                    || pt_article.entity_type != type_label_pt
                {
                    continue;
                }
                let se = en_article.infobox.schema();
                let sp = pt_article.infobox.schema();
                let shared = se
                    .iter()
                    .filter(|a| {
                        sp.iter()
                            .any(|b| truth.is_correct(&Language::En, a, &Language::Pt, b))
                    })
                    .count();
                inter += shared as f64;
                union += (se.len() + sp.len() - shared) as f64;
            }
            if union == 0.0 {
                0.0
            } else {
                inter / union
            }
        };
        let film_overlap = overlap("Film", "Filme", "film");
        let writer_overlap = overlap("Writer", "Escritor", "writer");
        assert!(
            writer_overlap > film_overlap,
            "writer ({writer_overlap:.2}) should overlap more than film ({film_overlap:.2})"
        );
    }

    #[test]
    fn scale_tiers_grow_the_attribute_space() {
        // Distinct (language, normalised label) attribute groups of the
        // film type — the quantity the dual-language schema is built over.
        let film_attr_groups = |config: &SyntheticConfig| -> usize {
            let (corpus, _) = SyntheticGenerator::new(*config).generate_pair(Language::Pt);
            let mut labels: HashSet<(Language, String)> = HashSet::new();
            for article in corpus
                .articles_of_type(&Language::En, "Film")
                .chain(corpus.articles_of_type(&Language::Pt, "Filme"))
            {
                for attr in &article.infobox.attributes {
                    labels.insert((article.language.clone(), attr.normalized_name()));
                }
            }
            labels.len()
        };
        let tiny = film_attr_groups(&SyntheticConfig::tiny());
        let small = film_attr_groups(&SyntheticConfig::small());
        let medium = film_attr_groups(&SyntheticConfig::medium());
        assert!(
            small >= 2 * tiny,
            "small tier should at least double tiny ({tiny} -> {small})"
        );
        assert!(
            medium >= 8 * tiny,
            "medium tier should be ~an order of magnitude over tiny ({tiny} -> {medium})"
        );
        // The large tier targets ~100× tiny; checked structurally via the
        // catalog (generation itself is pinned by the release-mode
        // `corpus_golden` run — too slow for a debug-mode unit test).
        let large_concepts = Catalog::scaled(SyntheticConfig::large().extra_concepts_per_type)
            .entity_type("film")
            .unwrap()
            .concepts
            .len();
        let tiny_concepts = Catalog::standard()
            .entity_type("film")
            .unwrap()
            .concepts
            .len();
        assert!(large_concepts >= 100 * tiny_concepts);
    }

    #[test]
    fn scaled_concepts_have_ground_truth_and_deterministic_names() {
        let config = SyntheticConfig {
            extra_concepts_per_type: 10,
            ..SyntheticConfig::tiny()
        };
        let generator = SyntheticGenerator::new(config);
        let film = generator.catalog().entity_type("film").unwrap();
        assert_eq!(
            film.concepts.len(),
            Catalog::standard()
                .entity_type("film")
                .unwrap()
                .concepts
                .len()
                + 10
        );
        // Generated names are stable across constructions (interned).
        let again = SyntheticGenerator::new(config);
        let c1 = film.concept("x_film_3").unwrap();
        let c2 = again
            .catalog()
            .entity_type("film")
            .unwrap()
            .concept("x_film_3")
            .unwrap();
        assert_eq!(c1.en, c2.en);
        assert_eq!(c1.pt, c2.pt);
        // The cross-language correspondence of a generated concept lands in
        // the ground truth once both editions record it.
        let (_corpus, gt) = generator.generate_pair(Language::Pt);
        let truth = gt.for_type("film").unwrap();
        let matched = (0..10).any(|i| {
            let suffix = crate::catalog::letter_suffix(i);
            truth.is_correct(
                &Language::En,
                &format!("metric {suffix}"),
                &Language::Pt,
                &format!("métrica {suffix}"),
            )
        });
        assert!(matched, "no generated concept produced a gold pair");
    }

    #[test]
    fn scale_tiers_round_trip_display_and_from_str() {
        for tier in ScaleTier::ALL {
            let name = tier.to_string();
            assert_eq!(name.parse::<ScaleTier>().unwrap(), tier, "{name}");
            // Case-insensitive and whitespace-tolerant, like the CLI flags.
            assert_eq!(
                name.to_uppercase().parse::<ScaleTier>().unwrap(),
                tier,
                "{name}"
            );
            assert_eq!(format!(" {name} ").parse::<ScaleTier>().unwrap(), tier);
        }
        let err = "galactic".parse::<ScaleTier>().unwrap_err();
        assert!(err.to_string().contains("galactic"));
        assert!(err.to_string().contains("xlarge"));
    }

    #[test]
    fn xlarge_tier_grows_the_catalog_and_keeps_lower_tiers_unchanged() {
        // xlarge reaches deep into the long-tail concept region...
        let xlarge = ScaleTier::Xlarge.config();
        assert!(xlarge.extra_concepts_per_type > SyntheticConfig::large().extra_concepts_per_type);
        let film = Catalog::scaled(xlarge.extra_concepts_per_type)
            .entity_type("film")
            .unwrap()
            .concepts
            .len();
        assert!(film > 18_000);
        // ...while every concept the existing tiers see is byte-identical
        // to what the pre-xlarge generator produced (the long tail starts
        // strictly above the large tier's 2400 extra concepts).
        let large_extra = SyntheticConfig::large().extra_concepts_per_type;
        let scaled = Catalog::scaled(large_extra + 8);
        let ty = scaled.entity_type("film").unwrap();
        // (large_extra - 1) % 5 == 4 → the legacy cycle's FreeText slot.
        let legacy = ty.concept(&format!("x_film_{}", large_extra - 1)).unwrap();
        assert!(matches!(legacy.kind, ValueKind::FreeText));
        // The tail avoids the small Alias/FreeText pools entirely and
        // slides its number windows so neighbourhoods stay sparse.
        for i in large_extra..large_extra + 8 {
            let tail = ty.concept(&format!("x_film_{i}")).unwrap();
            assert!(
                matches!(
                    tail.kind,
                    ValueKind::Number { .. } | ValueKind::Date | ValueKind::Year
                ),
                "long-tail concept {i} has kind {:?}",
                tail.kind
            );
            assert!(tail.commonness <= 0.08 + 1e-12);
        }
    }

    #[test]
    fn template_selection_is_monotone_in_the_target() {
        let catalog = Catalog::standard();
        let film = catalog.entity_type("film").unwrap();
        let low = select_template_concepts(&film.concepts, &Language::Pt, 0.92, 0.12, 0.2);
        let high = select_template_concepts(&film.concepts, &Language::Pt, 0.92, 0.12, 0.8);
        assert!(low.len() < high.len());
        // Concepts with no Vietnamese name are never selected for Vn.
        let vn = select_template_concepts(&film.concepts, &Language::Vn, 0.92, 0.12, 0.9);
        assert!(!vn.contains("editing_by"));
    }

    #[test]
    fn date_and_money_formatting_per_language() {
        assert_eq!(
            format_date(&Language::En, 1950, 12, 18),
            "December 18, 1950"
        );
        assert_eq!(
            format_date(&Language::Pt, 1950, 12, 18),
            "18 de Dezembro de 1950"
        );
        assert_eq!(
            format_date(&Language::Vn, 1950, 12, 18),
            "ngày 18 tháng 12 năm 1950"
        );
        assert_eq!(format_money(&Language::En, 23.0), "$23 million");
        assert_eq!(format_money(&Language::Pt, 1500.0), "1 bilhões");
        assert_eq!(
            format_number(&Language::Pt, 165.0, "minutes"),
            "165 minutos"
        );
    }
}
