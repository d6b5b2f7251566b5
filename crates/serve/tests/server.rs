//! Integration tests: boot a real `matchd` server on an ephemeral port and
//! drive it over actual sockets, asserting the wire responses match what
//! the in-process [`MatchEngine`] produces for the same dataset — plus the
//! cold-corpus coalescing guarantee (N concurrent first requests, exactly
//! one artifact build).

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::thread;

use wiki_baselines::BoumaMatcher;
use wiki_corpus::{Article, AttributeValue, Dataset, Infobox, Language, SyntheticConfig};
use wiki_query::{CQuery, CorrespondenceDictionary, QueryEngine};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{
    AlignRequest, AlignResponse, CorporaResponse, CorpusRequest, DeleteRequest, EntityKey,
    EvictResponse, HealthResponse, MatcherRequest, MatchersResponse, MutateRequest, MutateResponse,
    StatsResponse, TranslateRequest, TranslateResponse, WarmResponse,
};
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::{ComputeMode, CorpusDelta, MatchEngine};

fn tiny_spec(name: &str) -> CorpusSpec {
    CorpusSpec {
        name: name.to_string(),
        language: Language::Pt,
        config: SyntheticConfig::tiny(),
    }
}

/// Boots a server over the given specs on an ephemeral port.
fn boot(specs: Vec<CorpusSpec>, capacity: usize) -> (MatchServer, MatchClient) {
    let registry = Arc::new(Registry::new(capacity, ComputeMode::default()));
    registry.register_all(specs);
    let server = MatchServer::start(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let client = MatchClient::new(server.addr()).expect("client resolves the server address");
    (server, client)
}

/// The in-process reference engine for a spec (same dataset, same mode).
fn reference_engine() -> MatchEngine {
    MatchEngine::builder(Dataset::pt_en(&SyntheticConfig::tiny())).build()
}

#[test]
fn align_over_the_wire_matches_the_in_process_engine() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);
    let engine = reference_engine();

    // Single type.
    let response: AlignResponse = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: Some("film".to_string()),
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(response.matcher, "WikiMatch");
    assert_eq!(response.alignments.len(), 1);
    assert_eq!(response.alignments[0].type_id, "film");
    assert_eq!(
        response.alignments[0].pairs,
        engine.align("film").unwrap().cross_pairs(),
        "wire alignment diverges from the in-process engine"
    );

    // All types, on the same keep-alive connection.
    let response: AlignResponse = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: None,
            },
        )
        .unwrap()
        .json()
        .unwrap();
    let reference = engine.align_all();
    assert_eq!(response.alignments.len(), reference.len());
    for (wire, local) in response.alignments.iter().zip(&reference) {
        assert_eq!(wire.type_id, local.type_id);
        assert_eq!(wire.pairs, local.cross_pairs(), "{}", wire.type_id);
    }

    server.shutdown();
}

#[test]
fn matchers_endpoint_runs_named_plugins() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);
    let engine = reference_engine();

    let listed: MatchersResponse = client.get("/matchers").unwrap().json().unwrap();
    assert!(listed.matchers.contains(&"Bouma".to_string()));

    let response: AlignResponse = client
        .post(
            "/matchers",
            &MatcherRequest {
                corpus: "pt-tiny".to_string(),
                matcher: "bouma".to_string(), // case-insensitive
                type_id: Some("film".to_string()),
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(response.matcher, "Bouma");
    assert_eq!(
        response.alignments[0].pairs,
        engine.align_with(&BoumaMatcher::default(), "film").unwrap(),
        "wire Bouma pairs diverge from the in-process engine"
    );

    server.shutdown();
}

#[test]
fn translate_query_matches_the_in_process_dictionary() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);
    let engine = reference_engine();
    let dictionary = CorrespondenceDictionary::build(&engine.dataset(), &engine.align_all());

    let query_text = r#"filme(direção=?, país="Estados Unidos")"#;
    let response: TranslateResponse = client
        .post(
            "/translate-query",
            &TranslateRequest {
                corpus: "pt-tiny".to_string(),
                query: query_text.to_string(),
                top_k: Some(5),
            },
        )
        .unwrap()
        .json()
        .unwrap();

    let source = CQuery::parse(query_text).unwrap();
    let (translated, stats) = dictionary.translate_query(&source);
    assert_eq!(response.translated, translated);
    assert_eq!(response.translated_constraints, stats.translated);
    assert_eq!(response.relaxed_constraints, stats.relaxed);
    assert_eq!(
        response.answers,
        QueryEngine::new(&engine.dataset().corpus).answer(&translated, &Language::En, 5),
        "wire answers diverge from the in-process query engine"
    );

    server.shutdown();
}

#[test]
fn health_corpora_warm_evict_and_stats_round_trip() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny"), tiny_spec("pt-other")], 2);

    let health: HealthResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(
        (health.status.as_str(), health.service.as_str()),
        ("ok", "matchd")
    );

    let corpora: CorporaResponse = client.get("/corpora").unwrap().json().unwrap();
    let names: Vec<&str> = corpora.corpora.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["pt-tiny", "pt-other"]);

    let warm: WarmResponse = client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(warm.cached_types, 14, "pt datasets have 14 entity types");

    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.resident, 1);
    let corpus = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == "pt-tiny")
        .unwrap();
    assert!(corpus.resident);
    assert_eq!(corpus.builds, 1);
    let engine = corpus.engine.as_ref().expect("resident engine has stats");
    assert_eq!(engine.cached_types, 14);
    assert_eq!(engine.artifact_builds, 14);
    // The memory-footprint gauges of the interned vocabulary travel over
    // the wire: a fully warmed session reports its arena and vector sizes
    // so LRU capacity planning can be done from /stats alone.
    assert!(engine.interned_terms > 0, "warm engine reports arena terms");
    assert!(engine.interned_bytes > engine.interned_terms);
    assert!(engine.vector_entries > 0);
    assert!(stats.server.handled >= 3);
    assert_eq!(stats.server.rejected, 0);

    let evicted: EvictResponse = client
        .post(
            "/evict",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert!(evicted.evicted);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.resident, 0);

    server.shutdown();
}

#[test]
fn protocol_errors_use_json_statuses() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);

    // Unknown route.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    // Wrong method on a known route.
    assert_eq!(client.get("/align").unwrap().status, 405);
    // Malformed body.
    assert_eq!(
        client
            .request("POST", "/align", Some("{not json"))
            .unwrap()
            .status,
        400
    );
    // Unknown corpus.
    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "atlantis".to_string(),
                type_id: None,
            },
        )
        .unwrap();
    assert_eq!(response.status, 404);
    assert!(response.body.contains("atlantis"), "{}", response.body);
    // Unknown type in a known corpus.
    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: Some("starship".to_string()),
            },
        )
        .unwrap();
    assert_eq!(response.status, 404);
    // Unknown matcher.
    let response = client
        .post(
            "/matchers",
            &MatcherRequest {
                corpus: "pt-tiny".to_string(),
                matcher: "oracle".to_string(),
                type_id: None,
            },
        )
        .unwrap();
    assert_eq!(response.status, 400);
    // Unparseable c-query.
    let response = client
        .post(
            "/translate-query",
            &TranslateRequest {
                corpus: "pt-tiny".to_string(),
                query: "((((".to_string(),
                top_k: None,
            },
        )
        .unwrap();
    assert_eq!(response.status, 400);

    server.shutdown();
}

/// The acceptance-criteria test: N concurrent first requests against a cold
/// corpus trigger exactly one session build and exactly one per-type
/// artifact build — the stampede coalesces instead of duplicating work.
#[test]
fn concurrent_cold_aligns_trigger_exactly_one_artifact_build() {
    const CLIENTS: usize = 8;
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);
    let addr = server.addr();

    let bodies: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = MatchClient::new(addr).expect("client connects");
                    let response = client
                        .post(
                            "/align",
                            &AlignRequest {
                                corpus: "pt-tiny".to_string(),
                                type_id: Some("film".to_string()),
                            },
                        )
                        .expect("align request succeeds");
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Every concurrent caller saw the identical payload.
    assert!(bodies.windows(2).all(|w| w[0] == w[1]));

    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let corpus = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == "pt-tiny")
        .unwrap();
    assert_eq!(
        corpus.builds, 1,
        "{CLIENTS} concurrent cold requests must coalesce onto one session build"
    );
    assert_eq!(corpus.hits + corpus.misses, CLIENTS as u64);
    let engine = corpus.engine.as_ref().expect("engine is resident");
    assert_eq!(
        engine.artifact_builds, 1,
        "only the requested type's artifacts may be built, exactly once"
    );
    assert_eq!(engine.cached_types, 1);

    server.shutdown();
}

#[test]
fn lru_capacity_is_enforced_over_the_wire() {
    let (server, mut client) = boot(vec![tiny_spec("a"), tiny_spec("b"), tiny_spec("c")], 2);
    for corpus in ["a", "b", "c"] {
        let response = client
            .post(
                "/align",
                &AlignRequest {
                    corpus: corpus.to_string(),
                    type_id: Some("film".to_string()),
                },
            )
            .unwrap();
        assert_eq!(response.status, 200, "{corpus}");
    }
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.capacity, 2);
    assert_eq!(stats.registry.resident, 2);
    let a = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == "a")
        .unwrap();
    assert!(!a.resident, "oldest session is evicted by LRU pressure");
    assert_eq!(a.evictions, 1);

    server.shutdown();
}

/// A probe article titled `title`, with an attribute value varying by
/// `step`, so the first upsert of a title inserts and later ones update in
/// place. Cross-linked to the `film`-th English film of the same synthetic
/// dataset, so it forms a dual pair and its edits dirty similarity rows.
fn probe_titled(title: &str, film: usize, step: usize) -> Article {
    let dataset = Dataset::pt_en(&SyntheticConfig::tiny());
    let en_title = dataset
        .corpus
        .articles_in(&Language::En)
        .filter(|a| a.entity_type == "Film")
        .nth(film)
        .expect("tiny dataset has enough English films")
        .title
        .clone();
    let mut infobox = Infobox::new("Infobox Filme");
    infobox.push(AttributeValue::text("nota", format!("edição {step}")));
    let mut article = Article::new(title, Language::Pt, "Filme", infobox);
    article.cross_links.push((Language::En, en_title));
    article
}

/// The probe article of the single-writer mutation tests: same key every
/// time, linked to the first English film.
fn probe(step: usize) -> Article {
    probe_titled("Sonda Wire", 0, step)
}

#[test]
fn mutation_endpoints_patch_the_live_corpus_and_report_gauges() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);

    // Warm first so the mutations patch cached artifacts (that is the
    // interesting path: rows recomputed instead of lazily rebuilt).
    let warm = client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    assert_eq!(warm.status, 200);

    let inserted: MutateResponse = client
        .post(
            "/corpora/pt-tiny/entities",
            &MutateRequest {
                entities: vec![probe(0)],
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        (inserted.inserted, inserted.updated, inserted.removed),
        (1, 0, 0)
    );
    // The probe's new cross-link changes the title dictionary, which
    // reaches every type — so all 14 cached types are patched.
    assert_eq!(inserted.types_patched, 14, "every cached type is patched");
    assert_ne!(inserted.fingerprint, inserted.fingerprint_before);

    let updated: MutateResponse = client
        .post(
            "/corpora/pt-tiny/entities",
            &MutateRequest {
                entities: vec![probe(1)],
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        (updated.inserted, updated.updated, updated.removed),
        (0, 1, 0)
    );
    assert_eq!(
        updated.fingerprint_before, inserted.fingerprint,
        "mutation responses chain fingerprints"
    );

    let removed: MutateResponse = client
        .delete(
            "/corpora/pt-tiny/entities",
            &DeleteRequest {
                entities: vec![EntityKey {
                    language: Language::Pt,
                    title: "Sonda Wire".to_string(),
                }],
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(
        (removed.inserted, removed.updated, removed.removed),
        (0, 0, 1)
    );

    // The delta gauges travel over the wire.
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let corpus = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == "pt-tiny")
        .unwrap();
    assert_eq!(corpus.journal_records, 3);
    assert!(corpus.journal_bytes > 0, "journal size gauge is live");
    assert_eq!(corpus.compactions, 0);
    let engine = corpus.engine.as_ref().expect("mutated session is resident");
    assert_eq!(engine.deltas_applied, 3);
    assert!(
        engine.rows_recomputed > 0,
        "patching a warm session recomputes similarity rows"
    );

    // Five more deltas reach the compaction threshold (8): the chain
    // composes into one record.
    for step in 2..7 {
        let response = client
            .post(
                "/corpora/pt-tiny/entities",
                &MutateRequest {
                    entities: vec![probe(step)],
                },
            )
            .unwrap();
        assert_eq!(response.status, 200);
    }
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let corpus = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == "pt-tiny")
        .unwrap();
    assert_eq!(corpus.compactions, 1);
    assert_eq!(corpus.journal_records, 1, "compaction composed the chain");

    server.shutdown();
}

/// Two connections upsert at once, each editing only its own article. The
/// two articles are inserted one after the other first, so their slot ids
/// are fixed and the final corpus does not depend on how the concurrent
/// updates interleave: every answer is 200, the answers chain one
/// fingerprint to the next (no write saw a stale corpus or was lost), and
/// the served alignment equals a cold in-process engine's over the same
/// final corpus.
#[test]
fn concurrent_upserts_over_the_wire_match_a_cold_engine() {
    const WRITERS: usize = 2;
    const UPSERTS: usize = 16;
    let titles = ["Sonda Paralela 0", "Sonda Paralela 1"];
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);
    let addr = server.addr();
    let upsert = |client: &mut MatchClient, article: Article| -> MutateResponse {
        let response = client
            .post(
                "/corpora/pt-tiny/entities",
                &MutateRequest {
                    entities: vec![article],
                },
            )
            .expect("upsert request succeeds");
        assert_eq!(response.status, 200, "{}", response.body);
        response.json().unwrap()
    };

    let warm = client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    assert_eq!(warm.status, 200);
    let mut fingerprint = String::new();
    for (film, title) in titles.iter().enumerate() {
        fingerprint = upsert(&mut client, probe_titled(title, film, 0)).fingerprint;
    }

    let barrier = Barrier::new(WRITERS);
    let answers: Vec<MutateResponse> = thread::scope(|scope| {
        let handles: Vec<_> = titles
            .iter()
            .enumerate()
            .map(|(film, title)| {
                let (barrier, upsert) = (&barrier, &upsert);
                scope.spawn(move || {
                    let articles: Vec<Article> = (1..=UPSERTS)
                        .map(|step| probe_titled(title, film, step))
                        .collect();
                    let mut client = MatchClient::new(addr).expect("client connects");
                    barrier.wait();
                    articles
                        .into_iter()
                        .map(|article| upsert(&mut client, article))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let mut next: HashMap<String, String> = answers
        .into_iter()
        .map(|answer| (answer.fingerprint_before, answer.fingerprint))
        .collect();
    for _ in 0..WRITERS * UPSERTS {
        fingerprint = next
            .remove(&fingerprint)
            .unwrap_or_else(|| panic!("no answer follows {fingerprint}: {next:?}"));
    }

    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let engine = stats.registry.corpora[0]
        .engine
        .as_ref()
        .expect("mutated session is resident");
    assert_eq!(engine.deltas_applied, (WRITERS * (1 + UPSERTS)) as u64);

    let reference = reference_engine();
    for (film, title) in titles.iter().enumerate() {
        reference.apply_delta(&CorpusDelta::upsert(probe_titled(title, film, UPSERTS)));
    }
    assert_eq!(fingerprint, format!("{:016x}", reference.fingerprint()));
    let response: AlignResponse = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny".to_string(),
                type_id: None,
            },
        )
        .unwrap()
        .json()
        .unwrap();
    let reference = reference.align_all();
    assert_eq!(response.alignments.len(), reference.len());
    for (wire, local) in response.alignments.iter().zip(&reference) {
        assert_eq!(wire.type_id, local.type_id);
        assert_eq!(wire.pairs, local.cross_pairs(), "{}", wire.type_id);
    }

    server.shutdown();
}

#[test]
fn mutation_endpoints_reject_bad_requests() {
    let (server, mut client) = boot(vec![tiny_spec("pt-tiny")], 2);

    // Unknown corpus.
    let response = client
        .post(
            "/corpora/atlantis/entities",
            &MutateRequest {
                entities: vec![probe(0)],
            },
        )
        .unwrap();
    assert_eq!(response.status, 404);
    assert!(response.body.contains("atlantis"), "{}", response.body);
    // Wrong method on the entities route.
    assert_eq!(client.get("/corpora/pt-tiny/entities").unwrap().status, 405);
    // Malformed body.
    assert_eq!(
        client
            .request("POST", "/corpora/pt-tiny/entities", Some("{not json"))
            .unwrap()
            .status,
        400
    );
    // Empty mutation.
    let response = client
        .post(
            "/corpora/pt-tiny/entities",
            &MutateRequest {
                entities: Vec::new(),
            },
        )
        .unwrap();
    assert_eq!(response.status, 400);
    // Removing an unknown key is a clean no-op, reported but not journaled.
    let response: MutateResponse = client
        .delete(
            "/corpora/pt-tiny/entities",
            &DeleteRequest {
                entities: vec![EntityKey {
                    language: Language::Pt,
                    title: "Nunca Existiu".to_string(),
                }],
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(response.removed, 0);
    assert_eq!(response.fingerprint, response.fingerprint_before);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.corpora[0].journal_records, 0);

    server.shutdown();
}

#[test]
fn shutdown_over_the_wire_stops_the_server() {
    let (mut server, mut client) = boot(vec![tiny_spec("pt-tiny")], 1);
    let addr = server.addr();
    let response = client.request("POST", "/shutdown", Some("")).unwrap();
    assert_eq!(response.status, 200);
    // `wait` returns once the acceptor has stopped; afterwards new
    // connections are refused.
    server.wait();
    server.shutdown();
    assert!(std::net::TcpStream::connect(addr).is_err());
}
