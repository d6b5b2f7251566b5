//! The domain catalog: entity types and attribute concepts.
//!
//! A *concept* is a language-independent piece of information an infobox may
//! record (e.g. `birth_date`, `directed_by`). Each concept lists the surface
//! attribute names used for it in every language (several names per language
//! model intra-language synonymy; the same name appearing under two concepts
//! models polysemy) and the kind of value it carries. An *entity type*
//! bundles the concepts that may appear in infoboxes of that type together
//! with per-language type labels and the target cross-language attribute
//! overlap (calibrated to Table 5 of the paper).
//!
//! The catalog follows the paper's dataset: fourteen entity types for the
//! Portuguese-English pair (film, show, actor, artist, channel, company,
//! comics character, album, adult actor, book, episode, writer, comics,
//! fictional character) of which four (film, show, actor, artist) also exist
//! in the Vietnamese-English pair.

use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use crate::entities::EntityKind;
use crate::lang::Language;

/// The kind of value a concept carries; drives value generation and link
/// creation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueKind {
    /// A full calendar date (rendered with language-specific formatting).
    Date,
    /// A bare year.
    Year,
    /// A single reference to a named entity (rendered as a link).
    Entity(EntityKind),
    /// A list of 1..=`max` references to named entities (rendered as links).
    EntityList {
        /// Kind of the referenced entities.
        kind: EntityKind,
        /// Maximum number of references.
        max: usize,
    },
    /// A number drawn uniformly from `[lo, hi]`, tagged with a unit key
    /// (`"minutes"`, `"episodes"`, `"pages"`, or `""`).
    Number {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
        /// Unit key rendered per language by the generator.
        unit: &'static str,
    },
    /// A monetary amount in millions (rendered per language conventions).
    Money {
        /// Lower bound in millions.
        lo_millions: f64,
        /// Upper bound in millions.
        hi_millions: f64,
    },
    /// A proper-noun-like string shared verbatim across languages (aliases,
    /// work titles, production codes).
    Alias,
    /// Language-specific free text; yields low value similarity by design.
    FreeText,
}

/// One attribute concept of an entity type.
#[derive(Debug, Clone)]
pub struct ConceptSpec {
    /// Language-independent identifier (e.g. `"birth_date"`).
    pub id: &'static str,
    /// English surface names (first entry is the most common).
    pub en: &'static [&'static str],
    /// Portuguese surface names.
    pub pt: &'static [&'static str],
    /// Vietnamese surface names.
    pub vn: &'static [&'static str],
    /// Kind of value carried.
    pub kind: ValueKind,
    /// Base probability that an infobox of the type records this concept
    /// (before the per-language coverage factor is applied).
    pub commonness: f64,
}

impl ConceptSpec {
    /// Surface names for a language (empty slice when the concept is never
    /// expressed in that language).
    pub fn names(&self, language: &Language) -> &'static [&'static str] {
        match language {
            Language::En => self.en,
            Language::Pt => self.pt,
            Language::Vn => self.vn,
            Language::Other(_) => &[],
        }
    }
}

/// An entity type with its per-language labels and concept list.
#[derive(Debug, Clone)]
pub struct EntityTypeSpec {
    /// Language-independent identifier (e.g. `"film"`).
    pub id: &'static str,
    /// English type label (also used as the infobox template suffix).
    pub label_en: &'static str,
    /// Portuguese type label.
    pub label_pt: &'static str,
    /// Vietnamese type label (`None` when the type does not occur in the
    /// Vietnamese dataset).
    pub label_vn: Option<&'static str>,
    /// Target attribute overlap for Portuguese-English dual infoboxes
    /// (Table 5 of the paper).
    pub overlap_pt: f64,
    /// Target attribute overlap for Vietnamese-English dual infoboxes.
    pub overlap_vn: Option<f64>,
    /// The concepts infoboxes of this type may record.
    pub concepts: Vec<ConceptSpec>,
}

impl EntityTypeSpec {
    /// The type label in a language (`None` when the type has no such
    /// edition).
    pub fn label(&self, language: &Language) -> Option<&'static str> {
        match language {
            Language::En => Some(self.label_en),
            Language::Pt => Some(self.label_pt),
            Language::Vn => self.label_vn,
            Language::Other(_) => None,
        }
    }

    /// Target overlap for the pair (`other`, English).
    pub fn target_overlap(&self, other: &Language) -> Option<f64> {
        match other {
            Language::Pt => Some(self.overlap_pt),
            Language::Vn => self.overlap_vn,
            _ => None,
        }
    }

    /// Looks up a concept by id.
    pub fn concept(&self, id: &str) -> Option<&ConceptSpec> {
        self.concepts.iter().find(|c| c.id == id)
    }
}

/// The full catalog of entity types.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Entity-type specifications.
    pub types: Vec<EntityTypeSpec>,
}

impl Catalog {
    /// Builds the standard catalog mirroring the paper's dataset.
    pub fn standard() -> Self {
        Catalog {
            types: vec![
                film(),
                show(),
                actor(),
                artist(),
                channel(),
                company(),
                comics_character(),
                album(),
                adult_actor(),
                book(),
                episode(),
                writer(),
                comics(),
                fictional_character(),
            ],
        }
    }

    /// Builds a scaled-up catalog: the standard types, each extended with
    /// `extra_concepts_per_type` generated concepts.
    ///
    /// This is the knob behind the synthetic corpus **scale tiers**
    /// (`SyntheticConfig::{small, medium, large}`): the paper's fourteen
    /// types only yield a few dozen attribute groups per dual-language
    /// schema, which says nothing about how the matcher behaves on
    /// mining-scale inputs. Generated concepts carry deterministic
    /// per-language surface names (`"metric ab"` / `"métrica ab"`), cycle
    /// through the cheap value kinds (years, numbers, dates, aliases, free
    /// text — no entity references, so the article graph does not explode)
    /// and use low commonness values so infobox sizes grow sub-linearly in
    /// the concept count.
    pub fn scaled(extra_concepts_per_type: usize) -> Self {
        let mut catalog = Self::standard();
        if extra_concepts_per_type == 0 {
            return catalog;
        }
        let mut interner = Interner::lock();
        // A generated concept's surface names depend on its index alone,
        // so every type shares one set.
        let names: Vec<GeneratedNames> = (0..extra_concepts_per_type)
            .map(|i| GeneratedNames::new(i, &mut interner))
            .collect();
        let mut id = String::new();
        for ty in &mut catalog.types {
            ty.concepts.reserve(extra_concepts_per_type);
            for (i, names) in names.iter().enumerate() {
                id.clear();
                write!(id, "x_{}_{i}", ty.id).expect("writing to a String");
                ty.concepts
                    .push(scaled_concept(i, interner.str(&id), names));
            }
        }
        catalog
    }

    /// Looks up an entity type by id.
    pub fn entity_type(&self, id: &str) -> Option<&EntityTypeSpec> {
        self.types.iter().find(|t| t.id == id)
    }

    /// The types available for a language pair (`other`, English).
    pub fn types_for(&self, other: &Language) -> Vec<&EntityTypeSpec> {
        self.types
            .iter()
            .filter(|t| t.label(other).is_some())
            .collect()
    }
}

/// The intern tables of generated concept names.
///
/// [`ConceptSpec`] stores `&'static str` names because the hand-written
/// catalog is entirely literal; generated scale-tier concepts go through
/// these tables so repeated catalog constructions reuse one allocation per
/// distinct name instead of leaking a fresh one each time. A catalog build
/// takes the lock once for all its names.
#[derive(Default)]
struct Interner {
    strs: HashSet<&'static str>,
    /// One-element name slices (the per-language surface-name list of a
    /// generated concept), by their name.
    names: HashMap<&'static str, &'static [&'static str]>,
}

impl Interner {
    fn lock() -> MutexGuard<'static, Interner> {
        static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
        INTERNER
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Interns a string, returning a `'static` reference.
    fn str(&mut self, s: &str) -> &'static str {
        if let Some(&interned) = self.strs.get(s) {
            return interned;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        self.strs.insert(leaked);
        leaked
    }

    /// Interns a one-element name slice.
    fn names(&mut self, name: &str) -> &'static [&'static str] {
        let name = self.str(name);
        self.names
            .entry(name)
            .or_insert_with(|| Box::leak(vec![name].into_boxed_slice()))
    }
}

/// The per-language surface names of the `i`-th generated concept.
struct GeneratedNames {
    en: &'static [&'static str],
    pt: &'static [&'static str],
    vn: &'static [&'static str],
}

impl GeneratedNames {
    fn new(i: usize, interner: &mut Interner) -> Self {
        let suffix = letter_suffix(i);
        Self {
            en: interner.names(&format!("metric {suffix}")),
            pt: interner.names(&format!("métrica {suffix}")),
            vn: interner.names(&format!("chỉ số {suffix}")),
        }
    }
}

/// Spells `i` in positional base 26 with `'a'` as digit zero
/// (`0 → "a"`, `25 → "z"`, `26 → "ba"`, `27 → "bb"`).
///
/// Surface names must not end in digits: `normalize_label` strips trailing
/// digits as infobox repetition counters ("starring 2"), which would
/// collapse every generated concept into a single attribute group.
pub(crate) fn letter_suffix(mut i: usize) -> String {
    let mut reversed = Vec::new();
    loop {
        reversed.push(b'a' + (i % 26) as u8);
        i /= 26;
        if i == 0 {
            break;
        }
    }
    reversed.reverse();
    String::from_utf8(reversed).expect("ascii letters")
}

/// The `i`-th generated concept of a scaled entity type.
///
/// Names are deterministic and unique per `(type, i)` so ground truth stays
/// exact; kinds and commonness cycle so the extra attributes exercise every
/// cheap value shape with realistic (sparse) occurrence patterns.
fn scaled_concept(i: usize, id: &'static str, names: &GeneratedNames) -> ConceptSpec {
    if i >= LONG_TAIL_START {
        return long_tail_concept(i, id, names);
    }
    let kind = match i % 5 {
        0 => ValueKind::Year,
        1 => ValueKind::Number {
            lo: 1.0,
            hi: 500.0,
            unit: "",
        },
        2 => ValueKind::Alias,
        3 => ValueKind::Date,
        _ => ValueKind::FreeText,
    };
    // Commonness cycles through 0.05..=0.25 deterministically: common
    // enough that nearly every generated concept forms an English
    // attribute group, rare enough that infoboxes stay bounded.
    let commonness = 0.05 + 0.025 * ((i * 7) % 9) as f64;
    ConceptSpec {
        id,
        en: names.en,
        pt: names.pt,
        vn: names.vn,
        kind,
        commonness,
    }
}

/// First generated-concept index that uses the diversified **long-tail**
/// kind cycle instead of the original one. Every pre-existing tier
/// (`tiny`..`large`, ≤ 2400 extra concepts) stays below this boundary, so
/// their corpora — and the golden similarity hashes pinned on them — are
/// byte-for-byte unchanged; only the `xlarge` tier reaches into the tail.
const LONG_TAIL_START: usize = 2400;

/// The `i`-th generated concept for `i >= LONG_TAIL_START` (the `xlarge`
/// tail).
///
/// The original cycle reuses small Alias/FreeText word pools, which at
/// tens of thousands of concepts floods the schema with near-duplicate
/// value vectors (every pair of such attribute groups shares most terms —
/// exactly the quadratic neighbourhood the candidate filter exists to
/// prune, but with *genuinely* similar pairs that no sound filter may
/// skip). The tail therefore sticks to value kinds whose token windows
/// slide with `i`: numbers drawn from a per-concept 60-wide window over a
/// 9973-value ring, plus dates and years. Commonness stays low
/// (0.02..=0.08) so infobox sizes grow sub-linearly.
fn long_tail_concept(i: usize, id: &'static str, names: &GeneratedNames) -> ConceptSpec {
    let kind = match i % 8 {
        0..=4 => {
            let lo = ((i * 53) % 9973) as f64;
            ValueKind::Number {
                lo,
                hi: lo + 60.0,
                unit: "",
            }
        }
        5 | 6 => ValueKind::Date,
        _ => ValueKind::Year,
    };
    let commonness = 0.02 + 0.01 * ((i * 11) % 7) as f64;
    ConceptSpec {
        id,
        en: names.en,
        pt: names.pt,
        vn: names.vn,
        kind,
        commonness,
    }
}

/// Shorthand constructor for a [`ConceptSpec`].
fn c(
    id: &'static str,
    en: &'static [&'static str],
    pt: &'static [&'static str],
    vn: &'static [&'static str],
    kind: ValueKind,
    commonness: f64,
) -> ConceptSpec {
    ConceptSpec {
        id,
        en,
        pt,
        vn,
        kind,
        commonness,
    }
}

/// Person-biography concepts shared by actor, artist, writer and adult actor.
///
/// `with_vn` controls whether Vietnamese surface names are included (only
/// the actor and artist types occur in the Vietnamese dataset).
fn bio_concepts(with_vn: bool) -> Vec<ConceptSpec> {
    let vn = |names: &'static [&'static str]| -> &'static [&'static str] {
        if with_vn {
            names
        } else {
            &[]
        }
    };
    vec![
        c(
            "birth_date",
            &["born", "birth date"],
            &["nascimento", "data de nascimento"],
            vn(&["sinh", "ngày sinh"]),
            ValueKind::Date,
            0.95,
        ),
        c(
            "birth_place",
            &["birthplace", "born"],
            &["local de nascimento", "país de nascimento"],
            vn(&["nơi sinh"]),
            ValueKind::Entity(EntityKind::Country),
            0.7,
        ),
        c(
            "death_date",
            &["died"],
            &["falecimento", "morte"],
            vn(&["mất", "ngày mất"]),
            ValueKind::Date,
            0.45,
        ),
        c(
            "occupation",
            &["occupation"],
            &["ocupação", "profissão"],
            vn(&["vai trò", "công việc"]),
            ValueKind::EntityList {
                kind: EntityKind::Occupation,
                max: 2,
            },
            0.8,
        ),
        c(
            "spouse",
            &["spouse"],
            &["cônjuge"],
            vn(&["chồng", "vợ"]),
            ValueKind::Entity(EntityKind::Person),
            0.55,
        ),
        c(
            "other_names",
            &["other names"],
            &["outros nomes"],
            vn(&["tên khác"]),
            ValueKind::Alias,
            0.4,
        ),
        c(
            "nationality",
            &["nationality"],
            &["nacionalidade"],
            vn(&["quốc tịch"]),
            ValueKind::Entity(EntityKind::Country),
            0.6,
        ),
        c(
            "years_active",
            &["years active"],
            &["anos de atividade", "período de atividade"],
            vn(&["năm hoạt động"]),
            ValueKind::Year,
            0.5,
        ),
        c(
            "website",
            &["website"],
            &["página oficial", "website"],
            vn(&["trang web"]),
            ValueKind::Alias,
            0.3,
        ),
        c(
            "awards",
            &["awards"],
            &["prêmios"],
            vn(&["giải thưởng"]),
            ValueKind::EntityList {
                kind: EntityKind::Award,
                max: 2,
            },
            0.25,
        ),
    ]
}

fn film() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "film",
        label_en: "Film",
        label_pt: "Filme",
        label_vn: Some("Phim"),
        overlap_pt: 0.36,
        overlap_vn: Some(0.87),
        concepts: vec![
            c(
                "directed_by",
                &["directed by"],
                &["direção", "dirigido por"],
                &["đạo diễn"],
                ValueKind::Entity(EntityKind::Person),
                0.95,
            ),
            c(
                "produced_by",
                &["produced by"],
                &["produção"],
                &["sản xuất"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.7,
            ),
            c(
                "written_by",
                &["written by", "screenplay by"],
                &["roteiro"],
                &["kịch bản"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.75,
            ),
            c(
                "starring",
                &["starring"],
                &["elenco original", "elenco"],
                &["diễn viên"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 4,
                },
                0.9,
            ),
            c(
                "music_by",
                &["music by"],
                &["música"],
                &["âm nhạc"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.6,
            ),
            c(
                "cinematography",
                &["cinematography"],
                &["fotografia"],
                &["quay phim"],
                ValueKind::Entity(EntityKind::Person),
                0.5,
            ),
            c(
                "editing_by",
                &["editing by"],
                &["edição"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.45,
            ),
            c(
                "distributed_by",
                &["distributed by"],
                &["distribuição"],
                &["phát hành"],
                ValueKind::Entity(EntityKind::Company),
                0.55,
            ),
            c(
                "studio",
                &["studio"],
                &["estúdio", "companhia produtora"],
                &["hãng sản xuất"],
                ValueKind::Entity(EntityKind::Company),
                0.5,
            ),
            c(
                "release_date",
                &["release date", "released"],
                &["lançamento", "data de lançamento"],
                &["công chiếu", "ngày phát hành"],
                ValueKind::Date,
                0.85,
            ),
            c(
                "running_time",
                &["running time"],
                &["duração", "tempo de duração"],
                &["thời lượng"],
                ValueKind::Number {
                    lo: 75.0,
                    hi: 210.0,
                    unit: "minutes",
                },
                0.8,
            ),
            c(
                "country",
                &["country"],
                &["país"],
                &["quốc gia"],
                ValueKind::Entity(EntityKind::Country),
                0.8,
            ),
            c(
                "language",
                &["language"],
                &["idioma", "idioma original"],
                &["ngôn ngữ"],
                ValueKind::Entity(EntityKind::LanguageName),
                0.75,
            ),
            c(
                "budget",
                &["budget"],
                &["orçamento"],
                &["kinh phí"],
                ValueKind::Money {
                    lo_millions: 1.0,
                    hi_millions: 250.0,
                },
                0.45,
            ),
            c(
                "gross",
                &["gross", "box office"],
                &["receita", "bilheteria"],
                &["doanh thu"],
                ValueKind::Money {
                    lo_millions: 1.0,
                    hi_millions: 900.0,
                },
                0.4,
            ),
            c(
                "genre",
                &["genre"],
                &["gênero"],
                &["thể loại"],
                ValueKind::EntityList {
                    kind: EntityKind::FilmGenre,
                    max: 2,
                },
                0.6,
            ),
            c(
                "film_awards",
                &["awards"],
                &["prêmios", "prêmio"],
                &["giải thưởng"],
                ValueKind::EntityList {
                    kind: EntityKind::Award,
                    max: 2,
                },
                0.2,
            ),
            // A deliberately rare attribute (< 1 % of infoboxes): the paper
            // notes such matches are missed by every approach.
            c(
                "narrated_by",
                &["narrated by"],
                &["narração"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.02,
            ),
        ],
    }
}

fn show() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "show",
        label_en: "Television show",
        label_pt: "Programa de televisão",
        label_vn: Some("Chương trình truyền hình"),
        overlap_pt: 0.45,
        overlap_vn: Some(0.75),
        concepts: vec![
            c(
                "created_by",
                &["created by"],
                &["criação", "criado por"],
                &["sáng lập"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.75,
            ),
            c(
                "show_starring",
                &["starring"],
                &["elenco", "apresentador"],
                &["diễn viên"],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 4,
                },
                0.85,
            ),
            c(
                "country",
                &["country of origin", "country"],
                &["país de origem", "país"],
                &["quốc gia"],
                ValueKind::Entity(EntityKind::Country),
                0.8,
            ),
            c(
                "language",
                &["language"],
                &["idioma"],
                &["ngôn ngữ"],
                ValueKind::Entity(EntityKind::LanguageName),
                0.7,
            ),
            c(
                "network",
                &["network", "original channel"],
                &["emissora", "canal original"],
                &["kênh phát sóng"],
                ValueKind::Entity(EntityKind::Network),
                0.75,
            ),
            c(
                "num_episodes",
                &["number of episodes"],
                &["número de episódios", "episódios"],
                &["số tập"],
                ValueKind::Number {
                    lo: 6.0,
                    hi: 300.0,
                    unit: "episodes",
                },
                0.7,
            ),
            c(
                "num_seasons",
                &["number of seasons"],
                &["número de temporadas", "temporadas"],
                &["số mùa"],
                ValueKind::Number {
                    lo: 1.0,
                    hi: 20.0,
                    unit: "",
                },
                0.6,
            ),
            c(
                "first_aired",
                &["first aired", "original run"],
                &["exibição original", "primeira exibição"],
                &["phát sóng lần đầu"],
                ValueKind::Date,
                0.8,
            ),
            c(
                "last_aired",
                &["last aired"],
                &["última exibição"],
                &["phát sóng lần cuối"],
                ValueKind::Date,
                0.45,
            ),
            c(
                "show_genre",
                &["genre"],
                &["gênero"],
                &["thể loại"],
                ValueKind::EntityList {
                    kind: EntityKind::FilmGenre,
                    max: 2,
                },
                0.6,
            ),
            c(
                "executive_producer",
                &["executive producer"],
                &["produtor executivo"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.4,
            ),
            c(
                "theme_composer",
                &["theme music composer"],
                &["compositor do tema"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.2,
            ),
        ],
    }
}

fn actor() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "actor",
        label_en: "Actor",
        label_pt: "Ator",
        label_vn: Some("Diễn viên"),
        overlap_pt: 0.42,
        overlap_vn: Some(0.46),
        concepts: bio_concepts(true),
    }
}

fn artist() -> EntityTypeSpec {
    let mut concepts = bio_concepts(true);
    concepts.extend(vec![
        c(
            "music_genre",
            &["genre"],
            &["gênero", "gênero musical"],
            &["thể loại"],
            ValueKind::EntityList {
                kind: EntityKind::MusicGenre,
                max: 2,
            },
            0.8,
        ),
        c(
            "instruments",
            &["instruments"],
            &["instrumentos"],
            &["nhạc cụ"],
            ValueKind::FreeText,
            0.55,
        ),
        c(
            "label",
            &["label", "record label"],
            &["gravadora"],
            &["hãng đĩa"],
            ValueKind::Entity(EntityKind::Company),
            0.6,
        ),
        c(
            "origin",
            &["origin"],
            &["origem"],
            &["xuất thân"],
            ValueKind::Entity(EntityKind::City),
            0.5,
        ),
        c(
            "associated_acts",
            &["associated acts"],
            &["artistas associados"],
            &[],
            ValueKind::EntityList {
                kind: EntityKind::Person,
                max: 3,
            },
            0.35,
        ),
    ]);
    EntityTypeSpec {
        id: "artist",
        label_en: "Musical artist",
        label_pt: "Artista musical",
        label_vn: Some("Nghệ sĩ"),
        overlap_pt: 0.52,
        overlap_vn: Some(0.67),
        concepts,
    }
}

fn channel() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "channel",
        label_en: "Television channel",
        label_pt: "Canal de televisão",
        label_vn: None,
        overlap_pt: 0.15,
        overlap_vn: None,
        concepts: vec![
            c(
                "launched",
                &["launched", "launch date"],
                &["fundação", "lançamento"],
                &[],
                ValueKind::Date,
                0.8,
            ),
            c(
                "owner",
                &["owner", "owned by"],
                &["proprietário", "pertence a"],
                &[],
                ValueKind::Entity(EntityKind::Company),
                0.7,
            ),
            c(
                "channel_country",
                &["country"],
                &["país"],
                &[],
                ValueKind::Entity(EntityKind::Country),
                0.75,
            ),
            c(
                "broadcast_area",
                &["broadcast area"],
                &["área de transmissão"],
                &[],
                ValueKind::Entity(EntityKind::Country),
                0.4,
            ),
            c(
                "channel_language",
                &["language"],
                &["idioma"],
                &[],
                ValueKind::Entity(EntityKind::LanguageName),
                0.6,
            ),
            c(
                "picture_format",
                &["picture format"],
                &["formato de imagem"],
                &[],
                ValueKind::FreeText,
                0.45,
            ),
            c(
                "sister_channels",
                &["sister channels"],
                &["canais irmãos"],
                &[],
                ValueKind::Entity(EntityKind::Network),
                0.3,
            ),
            c(
                "slogan",
                &["slogan"],
                &["slogan", "lema"],
                &[],
                ValueKind::FreeText,
                0.35,
            ),
            c(
                "channel_website",
                &["website", "web site"],
                &["página oficial", "site oficial"],
                &[],
                ValueKind::Alias,
                0.5,
            ),
            c(
                "headquarters",
                &["headquarters"],
                &["sede"],
                &[],
                ValueKind::Entity(EntityKind::City),
                0.45,
            ),
        ],
    }
}

fn company() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "company",
        label_en: "Company",
        label_pt: "Empresa",
        label_vn: None,
        overlap_pt: 0.31,
        overlap_vn: None,
        concepts: vec![
            c(
                "founded",
                &["founded", "foundation"],
                &["fundação"],
                &[],
                ValueKind::Date,
                0.85,
            ),
            c(
                "founder",
                &["founder", "founders"],
                &["fundador", "fundadores"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.6,
            ),
            c(
                "company_headquarters",
                &["headquarters"],
                &["sede"],
                &[],
                ValueKind::Entity(EntityKind::City),
                0.75,
            ),
            c(
                "industry",
                &["industry"],
                &["indústria", "ramo de atividade"],
                &[],
                ValueKind::FreeText,
                0.65,
            ),
            c(
                "products",
                &["products"],
                &["produtos"],
                &[],
                ValueKind::FreeText,
                0.5,
            ),
            c(
                "revenue",
                &["revenue"],
                &["faturamento", "receita"],
                &[],
                ValueKind::Money {
                    lo_millions: 10.0,
                    hi_millions: 90_000.0,
                },
                0.5,
            ),
            c(
                "num_employees",
                &["number of employees", "employees"],
                &["número de funcionários", "funcionários"],
                &[],
                ValueKind::Number {
                    lo: 50.0,
                    hi: 400_000.0,
                    unit: "",
                },
                0.45,
            ),
            c(
                "key_people",
                &["key people"],
                &["pessoas-chave", "principais pessoas"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.4,
            ),
            c(
                "company_country",
                &["country"],
                &["país"],
                &[],
                ValueKind::Entity(EntityKind::Country),
                0.6,
            ),
            c(
                "company_website",
                &["website"],
                &["página oficial", "website"],
                &[],
                ValueKind::Alias,
                0.55,
            ),
        ],
    }
}

fn comics_character() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "comics_character",
        label_en: "Comics character",
        label_pt: "Personagem de quadrinhos",
        label_vn: None,
        overlap_pt: 0.59,
        overlap_vn: None,
        concepts: vec![
            c(
                "cc_created_by",
                &["created by", "creators"],
                &["criado por", "criação"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.85,
            ),
            c(
                "first_appearance",
                &["first appearance"],
                &["primeira aparição"],
                &[],
                ValueKind::Alias,
                0.8,
            ),
            c(
                "cc_publisher",
                &["publisher"],
                &["editora"],
                &[],
                ValueKind::Entity(EntityKind::Company),
                0.75,
            ),
            c(
                "alter_ego",
                &["alter ego", "full name"],
                &["alter ego", "nome completo"],
                &[],
                ValueKind::Alias,
                0.6,
            ),
            c(
                "species",
                &["species"],
                &["espécie"],
                &[],
                ValueKind::FreeText,
                0.4,
            ),
            c(
                "abilities",
                &["abilities", "powers"],
                &["habilidades", "poderes"],
                &[],
                ValueKind::FreeText,
                0.55,
            ),
            c(
                "team_affiliations",
                &["team affiliations", "alliances"],
                &["afiliações", "alianças"],
                &[],
                ValueKind::Alias,
                0.45,
            ),
            c(
                "cc_portrayed_by",
                &["portrayed by"],
                &["interpretado por"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.3,
            ),
        ],
    }
}

fn album() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "album",
        label_en: "Album",
        label_pt: "Álbum",
        label_vn: None,
        overlap_pt: 0.52,
        overlap_vn: None,
        concepts: vec![
            c(
                "album_artist",
                &["artist"],
                &["artista"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.95,
            ),
            c(
                "released",
                &["released", "release date"],
                &["lançamento", "data de lançamento"],
                &[],
                ValueKind::Date,
                0.9,
            ),
            c(
                "recorded",
                &["recorded"],
                &["gravado em", "gravação"],
                &[],
                ValueKind::Year,
                0.55,
            ),
            c(
                "album_genre",
                &["genre"],
                &["gênero"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::MusicGenre,
                    max: 2,
                },
                0.8,
            ),
            c(
                "length",
                &["length"],
                &["duração"],
                &[],
                ValueKind::Number {
                    lo: 25.0,
                    hi: 90.0,
                    unit: "minutes",
                },
                0.7,
            ),
            c(
                "album_label",
                &["label"],
                &["gravadora"],
                &[],
                ValueKind::Entity(EntityKind::Company),
                0.75,
            ),
            c(
                "album_producer",
                &["producer"],
                &["produtor", "produção"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.6,
            ),
            c(
                "studio_recorded",
                &["studio"],
                &["estúdio"],
                &[],
                ValueKind::FreeText,
                0.35,
            ),
        ],
    }
}

fn adult_actor() -> EntityTypeSpec {
    let mut concepts = bio_concepts(false);
    concepts.extend(vec![
        c(
            "ethnicity",
            &["ethnicity"],
            &["etnia"],
            &[],
            ValueKind::FreeText,
            0.5,
        ),
        c(
            "measurements",
            &["measurements"],
            &["medidas"],
            &[],
            ValueKind::FreeText,
            0.45,
        ),
        c(
            "num_films",
            &["number of films", "no. of films"],
            &["número de filmes"],
            &[],
            ValueKind::Number {
                lo: 5.0,
                hi: 600.0,
                unit: "",
            },
            0.4,
        ),
        c(
            "alias",
            &["alias", "aliases"],
            &["pseudônimo", "outros nomes"],
            &[],
            ValueKind::Alias,
            0.5,
        ),
    ]);
    EntityTypeSpec {
        id: "adult_actor",
        label_en: "Adult actor",
        label_pt: "Ator adulto",
        label_vn: None,
        overlap_pt: 0.47,
        overlap_vn: None,
        concepts,
    }
}

fn book() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "book",
        label_en: "Book",
        label_pt: "Livro",
        label_vn: None,
        overlap_pt: 0.38,
        overlap_vn: None,
        concepts: vec![
            c(
                "author",
                &["author"],
                &["autor", "escritor"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.95,
            ),
            c(
                "book_country",
                &["country"],
                &["país"],
                &[],
                ValueKind::Entity(EntityKind::Country),
                0.6,
            ),
            c(
                "book_language",
                &["language", "original language"],
                &["idioma", "idioma original"],
                &[],
                ValueKind::Entity(EntityKind::LanguageName),
                0.7,
            ),
            c(
                "book_publisher",
                &["publisher"],
                &["editora"],
                &[],
                ValueKind::Entity(EntityKind::Company),
                0.75,
            ),
            c(
                "pub_date",
                &["publication date", "published"],
                &["data de publicação", "lançamento"],
                &[],
                ValueKind::Date,
                0.8,
            ),
            c(
                "pages",
                &["pages"],
                &["páginas", "número de páginas"],
                &[],
                ValueKind::Number {
                    lo: 80.0,
                    hi: 1200.0,
                    unit: "pages",
                },
                0.6,
            ),
            c(
                "book_genre",
                &["genre"],
                &["gênero"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::BookGenre,
                    max: 2,
                },
                0.55,
            ),
            c("isbn", &["isbn"], &["isbn"], &[], ValueKind::Alias, 0.5),
            c(
                "preceded_by",
                &["preceded by"],
                &["precedido por"],
                &[],
                ValueKind::Alias,
                0.25,
            ),
            c(
                "cover_artist",
                &["cover artist"],
                &["artista da capa"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.15,
            ),
        ],
    }
}

fn episode() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "episode",
        label_en: "Television episode",
        label_pt: "Episódio de televisão",
        label_vn: None,
        overlap_pt: 0.31,
        overlap_vn: None,
        concepts: vec![
            c(
                "series",
                &["series"],
                &["série", "seriado"],
                &[],
                ValueKind::Alias,
                0.9,
            ),
            c(
                "episode_director",
                &["directed by", "director"],
                &["direção", "dirigido por"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.8,
            ),
            c(
                "episode_writer",
                &["written by", "writer"],
                &["roteiro", "escrito por"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.75,
            ),
            c(
                "airdate",
                &["original air date", "airdate"],
                &["data de exibição", "exibição original"],
                &[],
                ValueKind::Date,
                0.85,
            ),
            c(
                "episode_no",
                &["episode no", "episode number"],
                &["número do episódio", "episódio"],
                &[],
                ValueKind::Number {
                    lo: 1.0,
                    hi: 24.0,
                    unit: "",
                },
                0.7,
            ),
            c(
                "season",
                &["season"],
                &["temporada"],
                &[],
                ValueKind::Number {
                    lo: 1.0,
                    hi: 12.0,
                    unit: "",
                },
                0.65,
            ),
            c(
                "prod_code",
                &["production code"],
                &["código de produção"],
                &[],
                ValueKind::Alias,
                0.4,
            ),
            c(
                "guest_stars",
                &["guest stars"],
                &["participações especiais"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 3,
                },
                0.35,
            ),
        ],
    }
}

fn writer() -> EntityTypeSpec {
    let mut concepts = bio_concepts(false);
    concepts.extend(vec![
        c(
            "notable_works",
            &["notable works"],
            &["obras notáveis", "principais obras"],
            &[],
            ValueKind::Alias,
            0.55,
        ),
        c(
            "literary_genre",
            &["genre"],
            &["gênero", "gênero literário"],
            &[],
            ValueKind::EntityList {
                kind: EntityKind::BookGenre,
                max: 2,
            },
            0.6,
        ),
        c(
            "period",
            &["period", "years active"],
            &["período", "período de atividade"],
            &[],
            ValueKind::Year,
            0.4,
        ),
        c(
            "writing_language",
            &["language"],
            &["idioma", "língua"],
            &[],
            ValueKind::Entity(EntityKind::LanguageName),
            0.5,
        ),
    ]);
    EntityTypeSpec {
        id: "writer",
        label_en: "Writer",
        label_pt: "Escritor",
        label_vn: None,
        overlap_pt: 0.63,
        overlap_vn: None,
        concepts,
    }
}

fn comics() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "comics",
        label_en: "Comic book series",
        label_pt: "Série de quadrinhos",
        label_vn: None,
        overlap_pt: 0.47,
        overlap_vn: None,
        concepts: vec![
            c(
                "comics_publisher",
                &["publisher"],
                &["editora"],
                &[],
                ValueKind::Entity(EntityKind::Company),
                0.85,
            ),
            c(
                "schedule",
                &["schedule"],
                &["periodicidade"],
                &[],
                ValueKind::FreeText,
                0.5,
            ),
            c(
                "format",
                &["format"],
                &["formato"],
                &[],
                ValueKind::FreeText,
                0.55,
            ),
            c(
                "comics_genre",
                &["genre"],
                &["gênero"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::FilmGenre,
                    max: 2,
                },
                0.6,
            ),
            c(
                "publication_date",
                &["publication date", "date"],
                &["data de publicação"],
                &[],
                ValueKind::Date,
                0.7,
            ),
            c(
                "main_characters",
                &["main characters"],
                &["personagens principais"],
                &[],
                ValueKind::Alias,
                0.55,
            ),
            c(
                "comics_creators",
                &["creators", "created by"],
                &["criadores", "criado por"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.75,
            ),
            c(
                "num_issues",
                &["number of issues"],
                &["número de edições"],
                &[],
                ValueKind::Number {
                    lo: 1.0,
                    hi: 700.0,
                    unit: "",
                },
                0.45,
            ),
        ],
    }
}

fn fictional_character() -> EntityTypeSpec {
    EntityTypeSpec {
        id: "fictional_character",
        label_en: "Fictional character",
        label_pt: "Personagem fictícia",
        label_vn: None,
        overlap_pt: 0.32,
        overlap_vn: None,
        concepts: vec![
            c(
                "fc_first_appearance",
                &["first appearance"],
                &["primeira aparição"],
                &[],
                ValueKind::Alias,
                0.8,
            ),
            c(
                "fc_created_by",
                &["created by", "creator"],
                &["criado por", "criação"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Person,
                    max: 2,
                },
                0.75,
            ),
            c(
                "fc_portrayed_by",
                &["portrayed by", "played by"],
                &["interpretado por"],
                &[],
                ValueKind::Entity(EntityKind::Person),
                0.6,
            ),
            c(
                "fc_species",
                &["species"],
                &["espécie"],
                &[],
                ValueKind::FreeText,
                0.35,
            ),
            c(
                "gender",
                &["gender"],
                &["gênero", "sexo"],
                &[],
                ValueKind::FreeText,
                0.55,
            ),
            c(
                "fc_occupation",
                &["occupation"],
                &["ocupação"],
                &[],
                ValueKind::EntityList {
                    kind: EntityKind::Occupation,
                    max: 2,
                },
                0.5,
            ),
            c(
                "family",
                &["family"],
                &["família"],
                &[],
                ValueKind::Alias,
                0.4,
            ),
            c(
                "fc_nationality",
                &["nationality"],
                &["nacionalidade"],
                &[],
                ValueKind::Entity(EntityKind::Country),
                0.3,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn standard_catalog_has_fourteen_types() {
        let catalog = Catalog::standard();
        assert_eq!(catalog.types.len(), 14);
        let ids: HashSet<&str> = catalog.types.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 14);
        assert!(catalog.entity_type("film").is_some());
        assert!(catalog.entity_type("nonexistent").is_none());
    }

    #[test]
    fn four_types_exist_in_vietnamese() {
        let catalog = Catalog::standard();
        let vn_types = catalog.types_for(&Language::Vn);
        assert_eq!(vn_types.len(), 4);
        let ids: Vec<&str> = vn_types.iter().map(|t| t.id).collect();
        assert!(ids.contains(&"film"));
        assert!(ids.contains(&"show"));
        assert!(ids.contains(&"actor"));
        assert!(ids.contains(&"artist"));
        assert_eq!(catalog.types_for(&Language::Pt).len(), 14);
    }

    #[test]
    fn every_concept_has_english_and_portuguese_names() {
        let catalog = Catalog::standard();
        for ty in &catalog.types {
            assert!(!ty.concepts.is_empty(), "type {} has no concepts", ty.id);
            for concept in &ty.concepts {
                assert!(
                    !concept.en.is_empty(),
                    "{}::{} lacks English names",
                    ty.id,
                    concept.id
                );
                assert!(
                    !concept.pt.is_empty(),
                    "{}::{} lacks Portuguese names",
                    ty.id,
                    concept.id
                );
                assert!(
                    concept.commonness > 0.0 && concept.commonness <= 1.0,
                    "{}::{} commonness out of range",
                    ty.id,
                    concept.id
                );
            }
        }
    }

    #[test]
    fn vietnamese_types_have_vietnamese_names_for_common_concepts() {
        let catalog = Catalog::standard();
        for ty_id in ["film", "show", "actor", "artist"] {
            let ty = catalog.entity_type(ty_id).unwrap();
            let with_vn = ty.concepts.iter().filter(|c| !c.vn.is_empty()).count();
            assert!(
                with_vn >= ty.concepts.len() / 2,
                "type {ty_id} has too few Vietnamese concept names ({with_vn})"
            );
        }
    }

    #[test]
    fn overlap_targets_match_the_paper() {
        let catalog = Catalog::standard();
        let film = catalog.entity_type("film").unwrap();
        assert!((film.overlap_pt - 0.36).abs() < 1e-9);
        assert_eq!(film.target_overlap(&Language::Vn), Some(0.87));
        let channel = catalog.entity_type("channel").unwrap();
        assert_eq!(channel.target_overlap(&Language::Vn), None);
        assert_eq!(channel.label(&Language::Vn), None);
    }

    #[test]
    fn intra_language_synonyms_exist() {
        let catalog = Catalog::standard();
        let actor = catalog.entity_type("actor").unwrap();
        let death = actor.concept("death_date").unwrap();
        assert!(death.pt.len() >= 2, "falecimento/morte synonymy expected");
        // Polysemy: "born" appears for both birth_date and birth_place.
        let birth_date = actor.concept("birth_date").unwrap();
        let birth_place = actor.concept("birth_place").unwrap();
        assert!(birth_date.en.contains(&"born"));
        assert!(birth_place.en.contains(&"born"));
    }

    #[test]
    fn concept_name_lookup_by_language() {
        let catalog = Catalog::standard();
        let film = catalog.entity_type("film").unwrap();
        let starring = film.concept("starring").unwrap();
        assert_eq!(starring.names(&Language::En), &["starring"]);
        assert!(starring.names(&Language::Pt).contains(&"elenco original"));
        assert_eq!(starring.names(&Language::Vn), &["diễn viên"]);
        assert!(starring.names(&Language::Other("de".into())).is_empty());
    }
}
