//! End-to-end resilience: deadlines, load shedding, readiness, the
//! `/failpoints` endpoint, and the registry's graceful-degradation ladder
//! (snapshot-load failure → rebuild, spill failure → quarantine, torn
//! journal → quarantine + verified prefix, failed journal append →
//! 503 `MutationNotDurable` that a retry repairs), and the wait for an
//! eviction's slow spill before a cold build or a shutdown persist.
//!
//! Failpoints are process-global, so every test serializes on [`guard`]
//! and disarms on drop — a panicking test cannot leak an armed point into
//! its neighbours.

use std::sync::{Arc, Mutex, PoisonError};

use wiki_corpus::{Article, AttributeValue, Infobox, Language, SyntheticConfig};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{
    AlignRequest, CorpusRequest, DeadlineExceededBody, FailpointsRequest, FailpointsResponse,
    MutateRequest, MutateResponse, ReadyResponse, StatsResponse,
};
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the test on the global failpoint table and guarantees a
/// clean table on the way out, panic or not.
struct FaultGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

impl Drop for FaultGuard<'_> {
    fn drop(&mut self) {
        wiki_fault::disarm_all();
    }
}

fn guard() -> FaultGuard<'static> {
    let lock = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    wiki_fault::disarm_all();
    FaultGuard(lock)
}

fn tiny_spec(name: &str) -> CorpusSpec {
    CorpusSpec {
        name: name.to_string(),
        language: Language::Pt,
        config: SyntheticConfig::tiny(),
    }
}

fn boot(config: ServerConfig, dir: Option<&std::path::Path>) -> (MatchServer, MatchClient) {
    let mut registry = Registry::new(2, ComputeMode::default());
    if let Some(dir) = dir {
        registry = registry.with_snapshot_dir(dir);
    }
    let registry = Arc::new(registry);
    registry.register_all(vec![tiny_spec("pt-tiny")]);
    let server = MatchServer::start(registry, config).expect("server binds an ephemeral port");
    let client = MatchClient::new(server.addr()).expect("client resolves the server address");
    (server, client)
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 64,
        ..ServerConfig::default()
    }
}

fn align_all() -> AlignRequest {
    AlignRequest {
        corpus: "pt-tiny".to_string(),
        type_id: None,
    }
}

fn probe_request(title: &str, note: &str) -> MutateRequest {
    let mut infobox = Infobox::new("Infobox Filme");
    infobox.push(AttributeValue::text("nota", note));
    MutateRequest {
        entities: vec![Article::new(title, Language::Pt, "Filme", infobox)],
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wm-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir creates");
    dir
}

#[test]
fn expired_deadline_answers_a_structured_504_and_keeps_the_memoised_body() {
    let _guard = guard();
    let mut config = base_config();
    config.deadline_millis = 1000;
    let (server, mut client) = boot(config, None);

    // Warm within budget so the corpus build cannot trip the deadline.
    let warmed = client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    assert_eq!(warmed.status, 200, "{}", warmed.body);

    // One injected 1.6s stall in the compute phase blows the 1s budget.
    wiki_fault::arm("serve.compute=sleep(1600)*1").unwrap();
    let expired = client.post("/align", &align_all()).unwrap();
    assert_eq!(expired.status, 504, "{}", expired.body);
    let body: DeadlineExceededBody = serde_json::from_str(&expired.body).unwrap();
    assert_eq!(body.deadline_ms, 1000);
    assert_eq!(body.phase, "compute");
    assert!(body.elapsed_ms >= 1000, "elapsed {}ms", body.elapsed_ms);

    // The body computed during the doomed request was memoised: the retry
    // is served instantly, well inside the same budget.
    let retried = client.post("/align", &align_all()).unwrap();
    assert_eq!(retried.status, 200, "{}", retried.body);

    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.server.deadline_expired, 1);
    server.shutdown();
}

#[test]
fn queue_wait_past_the_shed_budget_answers_503_and_degrades_readiness() {
    let _guard = guard();
    let mut config = base_config();
    config.workers = 1;
    config.shed_queue_millis = 5;
    let (server, mut client) = boot(config, None);

    // Pin the single worker for 300ms; everything queued behind it waits
    // far past the 5ms admission budget.
    wiki_fault::arm("serve.compute=sleep(300)*1").unwrap();
    let addr = server.addr();
    let pinner = std::thread::spawn(move || {
        let mut client = MatchClient::new(addr).unwrap();
        client.post("/align", &align_all()).unwrap()
    });
    std::thread::sleep(std::time::Duration::from_millis(50));
    let shed = client.post("/align", &align_all()).unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"), "Retry-After missing");
    assert!(shed.body.contains("shed"), "{}", shed.body);
    let pinned = pinner.join().unwrap();
    assert_eq!(pinned.status, 200, "{}", pinned.body);

    // Liveness stays green; readiness reports the recent shed.
    let live = client.get("/livez").unwrap();
    assert_eq!(live.status, 200);
    let ready = client.get("/readyz").unwrap();
    assert_eq!(ready.status, 503, "{}", ready.body);
    let ready: ReadyResponse = serde_json::from_str(&ready.body).unwrap();
    assert_eq!(ready.status, "degraded");
    assert!(ready.reason.contains("shed"), "{:?}", ready.reason);
    assert_eq!(ready.shed, 1);

    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.server.shed, 1);
    server.shutdown();
}

#[test]
fn failpoints_endpoint_is_gated_and_drives_the_global_table() {
    let _guard = guard();

    // Disabled by default: the endpoint refuses even GET.
    let (server, mut client) = boot(base_config(), None);
    assert_eq!(client.get("/failpoints").unwrap().status, 403);
    server.shutdown();

    let mut config = base_config();
    config.failpoints_endpoint = true;
    let (server, mut client) = boot(config, None);
    let armed: FailpointsResponse = client
        .post(
            "/failpoints",
            &FailpointsRequest {
                spec: "serve.compute=sleep(1)".to_string(),
            },
        )
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(armed.points.len(), 1);
    assert_eq!(armed.points[0].name, "serve.compute");
    assert_eq!(armed.points[0].spec, "sleep(1)");

    let bad = client
        .post(
            "/failpoints",
            &FailpointsRequest {
                spec: "nonsense((".to_string(),
            },
        )
        .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);

    let cleared: FailpointsResponse = client
        .request("DELETE", "/failpoints", Some("{}"))
        .unwrap()
        .json()
        .unwrap();
    assert!(cleared.points.is_empty());
    server.shutdown();
}

#[test]
fn unreadable_snapshot_degrades_to_a_rebuild_and_is_quarantined() {
    let _guard = guard();
    let dir = temp_dir("snapload");

    // First life: warm writes a snapshot, then corrupt it on disk.
    let (server, mut client) = boot(base_config(), Some(&dir));
    client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    let clean_body = client.post("/align", &align_all()).unwrap().body;
    server.shutdown();
    let snap = dir.join("pt-tiny.snap");
    assert!(snap.is_file());
    std::fs::write(&snap, b"WMSNAP garbage that is definitely not a snapshot").unwrap();

    // Second life: the load fails, the server rebuilds and keeps serving
    // the identical answer, and the garbage is moved aside.
    let (server, mut client) = boot(base_config(), Some(&dir));
    let rebuilt = client.post("/align", &align_all()).unwrap();
    assert_eq!(rebuilt.status, 200, "{}", rebuilt.body);
    assert_eq!(
        rebuilt.body, clean_body,
        "rebuild diverged from the clean engine"
    );
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let corpus = &stats.registry.corpora[0];
    assert_eq!(corpus.snapshot_load_failures, 1);
    assert_eq!(corpus.snapshot_loads, 0);
    assert!(corpus.quarantines >= 1);
    assert!(!snap.exists(), "garbage snapshot still loadable");
    assert!(
        dir.join("pt-tiny.snap.corrupt").is_file(),
        "garbage snapshot not preserved for inspection"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_spill_retries_then_quarantines_and_serving_continues() {
    let _guard = guard();
    let dir = temp_dir("spill");
    let (server, mut client) = boot(base_config(), Some(&dir));

    // Every spill attempt fails: warm succeeds anyway (persistence is an
    // optimisation), the failure is counted, and no snapshot lands.
    wiki_fault::arm("registry.spill=err(disk full)").unwrap();
    let warmed = client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    assert_eq!(warmed.status, 200, "{}", warmed.body);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    let corpus = &stats.registry.corpora[0];
    assert_eq!(corpus.spill_failures, 1);
    assert_eq!(corpus.snapshot_saves, 0);
    assert!(!dir.join("pt-tiny.snap").exists());

    // Disarmed, the same warm persists fine.
    wiki_fault::disarm_all();
    client
        .post(
            "/warm",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.corpora[0].snapshot_saves, 1);
    assert!(dir.join("pt-tiny.snap").is_file());

    // Mutate (so the existing snapshot is stale), then fail the evict-time
    // spill: the unrefreshable stale file is quarantined.
    let mutated = client
        .post(
            "/corpora/pt-tiny/entities",
            &probe_request("Sonda Resiliente", "v1"),
        )
        .unwrap();
    assert_eq!(mutated.status, 200, "{}", mutated.body);
    wiki_fault::arm("registry.spill=err(disk full)").unwrap();
    let evicted = client
        .post(
            "/evict",
            &CorpusRequest {
                corpus: "pt-tiny".to_string(),
            },
        )
        .unwrap();
    assert_eq!(evicted.status, 200, "{}", evicted.body);
    wiki_fault::disarm_all();
    assert!(!dir.join("pt-tiny.snap").exists(), "stale snapshot kept");
    assert!(dir.join("pt-tiny.snap.corrupt").is_file());

    // Serving still works end to end: the next request rebuilds from the
    // pristine dataset plus the journal.
    let served = client.post("/align", &align_all()).unwrap();
    assert_eq!(served.status, 200, "{}", served.body);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_journal_is_quarantined_and_the_corpus_stays_mutable() {
    let _guard = guard();
    let dir = temp_dir("journal");
    let journal = dir.join("pt-tiny.journal");
    std::fs::write(&journal, b"\x00\x01torn header garbage").unwrap();

    let (server, mut client) = boot(base_config(), Some(&dir));
    let served = client.post("/align", &align_all()).unwrap();
    assert_eq!(served.status, 200, "{}", served.body);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert!(stats.registry.corpora[0].quarantines >= 1);
    assert!(
        dir.join("pt-tiny.journal.corrupt").is_file(),
        "unreadable journal not preserved"
    );
    assert!(!journal.exists(), "garbage journal left on the append path");

    // The quarantined garbage is out of the way: a fresh write-ahead chain
    // starts cleanly.
    let mutated = client
        .post(
            "/corpora/pt-tiny/entities",
            &probe_request("Sonda Tombada", "v1"),
        )
        .unwrap();
    assert_eq!(mutated.status, 200, "{}", mutated.body);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.corpora[0].journal_records, 1);
    assert!(journal.is_file(), "mutation did not restart the journal");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unjournalable_mutation_answers_503_and_a_retry_repairs_the_chain() {
    let _guard = guard();
    let dir = temp_dir("durable");
    let (server, mut client) = boot(base_config(), Some(&dir));

    // A first, healthy mutation roots the on-disk chain.
    let first = client
        .post(
            "/corpora/pt-tiny/entities",
            &probe_request("Sonda Durável", "v1"),
        )
        .unwrap();
    assert_eq!(first.status, 200, "{}", first.body);

    // Both the append and the full-rewrite fallback fail: the mutation is
    // applied to the live session but the ack is withheld.
    wiki_fault::arm("journal.append.write=err(disk gone)").unwrap();
    wiki_fault::arm("journal.save.write=err(disk gone)").unwrap();
    let refused = client
        .post(
            "/corpora/pt-tiny/entities",
            &probe_request("Sonda Durável", "v2"),
        )
        .unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body.contains("not yet durable"), "{}", refused.body);
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.corpora[0].mutations_not_durable, 1);

    // The disk recovers; the idempotent retry repairs the whole chain and
    // acks.
    wiki_fault::disarm_all();
    let retried: MutateResponse = client
        .post(
            "/corpora/pt-tiny/entities",
            &probe_request("Sonda Durável", "v2"),
        )
        .unwrap()
        .json()
        .unwrap();
    // The delta was already applied on the refused attempt, so the retry
    // is a fingerprint no-op — but it flushed the repaired journal.
    assert_eq!(retried.fingerprint, retried.fingerprint_before);
    let mutated_body = client.post("/align", &align_all()).unwrap().body;
    server.shutdown();

    // A restart replays the repaired chain: nothing acked was lost.
    let (server, mut client) = boot(base_config(), Some(&dir));
    let restored = client.post("/align", &align_all()).unwrap();
    assert_eq!(restored.status, 200, "{}", restored.body);
    assert_eq!(
        restored.body, mutated_body,
        "restart lost an acked mutation"
    );
    let stats: StatsResponse = client.get("/stats").unwrap().json().unwrap();
    assert_eq!(stats.registry.corpora[0].journal_records, 2);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A capacity-1 registry with a disk tier over `a` and `b`: `a` aligns
/// `film`, then a request for `b` evicts it while a sleeping failpoint
/// holds its spill back for 300 ms. `b` is warmed first, so its snapshot
/// is current and none of its own spills reaches the failpoint.
fn evict_a_behind_a_slow_spill(dir: &std::path::Path) -> Registry {
    let registry = Registry::new(1, ComputeMode::default()).with_snapshot_dir(dir);
    registry.register_all(vec![tiny_spec("a"), tiny_spec("b")]);
    registry.warm("b").unwrap();
    registry.engine("a").unwrap().align("film").unwrap();
    wiki_fault::arm("registry.spill=sleep(300)*1").unwrap();
    registry.engine("b").unwrap();
    registry
}

#[test]
fn a_cold_build_maps_the_spill_of_an_eviction_still_in_flight() {
    let _guard = guard();
    let dir = temp_dir("release");
    let registry = evict_a_behind_a_slow_spill(&dir);

    // The cold build of `a` waits for its release, so it maps the spill
    // instead of rebuilding every artifact from scratch.
    let restored = registry.engine("a").unwrap();
    restored.align("film").unwrap();
    let stats = registry.stats();
    let a = stats.corpora.iter().find(|c| c.name == "a").unwrap();
    let artifact_builds = restored.stats().artifact_builds;
    assert_eq!(
        (a.snapshot_loads, artifact_builds),
        (1, 0),
        "a rebuilt while its spill was pending: builds {}",
        a.builds
    );
    // Restoring `a` evicted `b`: join that release before the directory
    // goes, or its spill could create it again.
    registry.persist_resident();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_resident_returns_only_once_eviction_spills_land() {
    let _guard = guard();
    let dir = temp_dir("persist-release");
    let registry = evict_a_behind_a_slow_spill(&dir);

    registry.persist_resident();
    assert!(
        dir.join("a.snap").is_file(),
        "persist returned before the eviction spill of a landed"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
