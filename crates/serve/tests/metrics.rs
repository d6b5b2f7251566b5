//! Observability integration tests: boot a real `matchd` server, scrape
//! `GET /metrics` over an actual socket, and validate the exposition with
//! the `wiki_obs::expo` parser — bucket monotonicity, `_count`/`_sum`
//! consistency, and that traffic moves the request histograms. The
//! structured access log is exercised through an injected in-memory sink.
//!
//! The metrics registry is process-wide, so every assertion about a
//! counter or histogram is phrased as a scrape-over-scrape *delta*; tests
//! in this binary run in parallel against the same registry and absolute
//! values would race.

use std::sync::Arc;

use wiki_corpus::{Language, SyntheticConfig};
use wiki_obs::expo::{self, HistogramScrape, Sample};
use wiki_obs::{LogLevel, RequestLog};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{AlignRequest, StatsResponse};
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

fn tiny_spec(name: &str) -> CorpusSpec {
    CorpusSpec {
        name: name.to_string(),
        language: Language::Pt,
        config: SyntheticConfig::tiny(),
    }
}

/// Boots a server over one tiny corpus; `config` lets a test inject its
/// own access log.
fn boot(name: &str, config: ServerConfig) -> (MatchServer, MatchClient) {
    let registry = Arc::new(Registry::new(2, ComputeMode::default()));
    registry.register(tiny_spec(name));
    let server = MatchServer::start(registry, config).expect("server binds an ephemeral port");
    let client = MatchClient::new(server.addr()).expect("client resolves the server address");
    (server, client)
}

fn default_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 64,
        ..ServerConfig::default()
    }
}

/// One full scrape, parsed; panics on transport or syntax errors.
fn scrape(client: &mut MatchClient) -> (String, Vec<Sample>) {
    let response = client.get("/metrics").expect("GET /metrics");
    assert_eq!(response.status, 200, "{}", response.body);
    let samples =
        expo::parse_text(&response.body).unwrap_or_else(|e| panic!("exposition must parse: {e}"));
    (response.body, samples)
}

#[test]
fn metrics_exposition_is_valid_and_aligns_move_the_request_histogram() {
    let (server, mut client) = boot("pt-tiny-metrics", default_config());

    let (_, before) = scrape(&mut client);
    let baseline =
        HistogramScrape::extract(&before, "wm_request_seconds", Some(("endpoint", "align")))
            .unwrap_or_default();

    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny-metrics".to_string(),
                type_id: Some("film".to_string()),
            },
        )
        .expect("align request");
    assert!(response.is_success(), "{}", response.body);

    let (text, after) = scrape(&mut client);

    // Document-level shape: the families the serving tier promises.
    for family in [
        "# TYPE wm_request_seconds histogram",
        "# TYPE wm_phase_seconds histogram",
        "# TYPE wm_http_requests_total counter",
        "# TYPE wm_uptime_seconds gauge",
        "# TYPE wm_workers gauge",
        "# TYPE wm_queue_depth gauge",
        "# TYPE wm_queue_depth_limit gauge",
        "# TYPE wm_registry_capacity gauge",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }

    // Every histogram child in the document must be internally
    // consistent: strictly increasing `le`, non-decreasing cumulative
    // counts, and a final `+Inf` bucket equal to `_count`.
    for name in ["wm_request_seconds", "wm_phase_seconds"] {
        let children = HistogramScrape::extract_all(&after, name);
        assert!(!children.is_empty(), "{name} has no children");
        for (labels, child) in &children {
            assert!(
                child.is_monotone(),
                "{name}{{{labels}}} not monotone: {child:?}"
            );
            if child.count > 0.0 {
                assert!(
                    child.sum > 0.0,
                    "{name}{{{labels}}} observed {} values summing to zero seconds",
                    child.count
                );
            }
        }
    }

    // The align we just issued moved the align-endpoint histogram.
    let align = HistogramScrape::extract(&after, "wm_request_seconds", Some(("endpoint", "align")))
        .expect("align child present after an align");
    let delta = align.delta_from(&baseline);
    assert!(delta.count >= 1.0, "align not observed: {delta:?}");
    assert!(delta.sum > 0.0, "align took zero time: {delta:?}");
    assert!(
        delta
            .quantile_upper(0.5)
            .expect("non-empty delta")
            .is_finite(),
        "a warm align must not land in the overflow bucket"
    );

    // The request counter moved with it, labelled by status class.
    let align_ok: f64 = after
        .iter()
        .filter(|s| {
            s.name == "wm_http_requests_total"
                && s.label("endpoint") == Some("align")
                && s.label("status") == Some("2xx")
        })
        .map(|s| s.value)
        .sum();
    assert!(
        align_ok >= 1.0,
        "wm_http_requests_total{{align,2xx}} missing"
    );

    // Scrape-time gauges carry live values.
    let gauge = |name: &str| -> f64 {
        after
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .value
    };
    assert_eq!(gauge("wm_workers"), 4.0);
    assert_eq!(gauge("wm_queue_depth_limit"), 64.0);
    assert!(gauge("wm_queue_depth") >= 0.0);
    assert!(gauge("wm_uptime_seconds") >= 0.0);
    assert_eq!(gauge("wm_registry_capacity"), 2.0);

    server.shutdown();
}

/// Out-of-core gauges over the wire: a budgeted server mapping a v4
/// snapshot must report `resident_bytes` / `mapped_bytes` / `page_ins` per
/// corpus both in the `/stats` JSON and as `/metrics` gauges.
#[test]
fn out_of_core_gauges_are_served_in_stats_and_metrics() {
    let name = "pt-tiny-ooc";
    let dir = std::env::temp_dir().join(format!("wm-metrics-ooc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Seed the disk tier with a directly-addressable snapshot.
    {
        let seed = Registry::new(2, ComputeMode::default())
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024);
        seed.register(tiny_spec(name));
        seed.warm(name)
            .expect("warm writes the v4 snapshot through");
    }

    // A fresh budgeted server over the same directory memory-maps it.
    let registry = Arc::new(
        Registry::new(2, ComputeMode::default())
            .with_snapshot_dir(&dir)
            .with_resident_budget_mb(1024),
    );
    registry.register(tiny_spec(name));
    let server =
        MatchServer::start(registry, default_config()).expect("server binds an ephemeral port");
    let mut client = MatchClient::new(server.addr()).expect("client resolves the server address");

    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: name.to_string(),
                type_id: Some("film".to_string()),
            },
        )
        .expect("align request");
    assert!(response.is_success(), "{}", response.body);

    // `/stats`: the per-corpus and registry-wide residency fields.
    let stats: StatsResponse = client
        .get("/stats")
        .expect("GET /stats")
        .json()
        .expect("stats parses");
    assert_eq!(
        stats.registry.resident_budget_bytes,
        Some(1024 * 1024 * 1024)
    );
    let corpus = stats
        .registry
        .corpora
        .iter()
        .find(|c| c.name == name)
        .expect("registered corpus in /stats");
    assert_eq!(corpus.snapshot_loads, 1, "server did not load the snapshot");
    assert!(corpus.mapped_bytes > 0, "session not mapped: {corpus:?}");
    assert!(corpus.resident_bytes > 0, "align materialized nothing");
    assert!(corpus.page_ins > 0, "align paged nothing in");
    assert_eq!(stats.registry.mapped_bytes, corpus.mapped_bytes);

    // `/metrics`: the same values as labelled gauges/counters.
    let (text, samples) = scrape(&mut client);
    for family in [
        "# TYPE wm_corpus_resident_bytes gauge",
        "# TYPE wm_corpus_mapped_bytes gauge",
        "# TYPE wm_corpus_page_ins_total counter",
        "# TYPE wm_registry_resident_bytes gauge",
        "# TYPE wm_registry_mapped_bytes gauge",
        "# TYPE wm_registry_resident_budget_bytes gauge",
    ] {
        assert!(text.contains(family), "missing {family:?} in:\n{text}");
    }
    let labelled = |metric: &str| -> f64 {
        samples
            .iter()
            .find(|s| s.name == metric && s.label("corpus") == Some(name))
            .unwrap_or_else(|| panic!("{metric}{{corpus={name}}} missing"))
            .value
    };
    assert_eq!(
        labelled("wm_corpus_mapped_bytes"),
        corpus.mapped_bytes as f64
    );
    assert!(labelled("wm_corpus_resident_bytes") > 0.0);
    assert!(labelled("wm_corpus_page_ins_total") > 0.0);
    let budget = samples
        .iter()
        .find(|s| s.name == "wm_registry_resident_budget_bytes")
        .expect("budget gauge present")
        .value;
    assert_eq!(budget, (1024u64 * 1024 * 1024) as f64);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reports_uptime_workers_and_queue_gauge() {
    let (server, mut client) = boot("pt-tiny-statsobs", default_config());
    let stats: StatsResponse = client
        .get("/stats")
        .expect("GET /stats")
        .json()
        .expect("stats parses");
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.queue_depth, 64);
    assert!(
        stats.queue_len <= stats.queue_depth as u64,
        "gauge {} exceeds the queue bound",
        stats.queue_len
    );
    // Uptime is summed lazily from the start instant; a fresh server is
    // seconds old at most.
    assert!(
        stats.uptime_secs < 300,
        "implausible uptime {}",
        stats.uptime_secs
    );
    server.shutdown();
}

#[test]
fn access_log_lines_carry_endpoint_corpus_and_segments() {
    let log = Arc::new(RequestLog::in_memory(LogLevel::Info, 0));
    let config = ServerConfig {
        access_log: Some(Arc::clone(&log)),
        ..default_config()
    };
    let (server, mut client) = boot("pt-tiny-logged", config);

    let response = client
        .post(
            "/align",
            &AlignRequest {
                corpus: "pt-tiny-logged".to_string(),
                type_id: Some("film".to_string()),
            },
        )
        .expect("align request");
    assert!(response.is_success(), "{}", response.body);
    // The worker writes the response before it logs the request, so the
    // align line may not exist yet. A second request on the same
    // keep-alive connection is served by the same worker only after it
    // has finished logging the align.
    let livez = client.get("/livez").expect("livez request");
    assert_eq!(livez.status, 200, "{}", livez.body);

    let lines = log.captured();
    let line = lines
        .iter()
        .find(|l| l.contains("\"endpoint\":\"align\""))
        .unwrap_or_else(|| panic!("no align line in {lines:?}"));
    assert!(line.contains("\"method\":\"POST\""), "{line}");
    assert!(line.contains("\"path\":\"/align\""), "{line}");
    assert!(line.contains("\"corpus\":\"pt-tiny-logged\""), "{line}");
    assert!(line.contains("\"status\":200"), "{line}");
    assert!(line.contains("\"slow\":false"), "{line}");
    // The request context attributed per-phase segments to the line. The
    // parse segment always exists; the first request on a connection also
    // carries its queue wait.
    assert!(line.contains("\"req_parse_us\":"), "{line}");
    assert!(line.contains("\"req_queue_wait_us\":"), "{line}");
    assert!(line.contains("\"req_compute_us\":"), "{line}");
    server.shutdown();
}
