//! `matchd` — the WikiMatch matching daemon.
//!
//! Registers the synthetic scale-tier corpora (`pt-tiny` … `vi-large`) in a
//! [`Registry`] and serves the JSON-over-HTTP protocol until killed or told
//! to stop via `POST /shutdown`.
//!
//! ```text
//! matchd [--addr 127.0.0.1:8743] [--workers N] [--queue N] [--capacity N]
//!        [--tiers tiny,small,medium,large,xlarge]
//!        [--warm corpus[,corpus...]] [--snapshot-dir DIR] [--persist]
//!        [--max-resident-mb N]
//!        [--deadline-ms N] [--shed-queue-ms N] [--enable-failpoints]
//!        [--log-level off|error|info|debug] [--slow-ms N]
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

const USAGE: &str = "matchd — WikiMatch matching daemon

USAGE:
    matchd [OPTIONS]

OPTIONS:
    --addr HOST:PORT   bind address (default 127.0.0.1:8743; port 0 = ephemeral)
    --workers N        worker threads (default: available parallelism)
    --queue N          pending-connection queue bound (default 256)
    --capacity N       resident engine sessions in the LRU (default 4)
    --tiers LIST       comma-separated scale tiers to register
                       (default tiny,small,medium,large; xlarge available)
    --warm LIST        comma-separated corpus names to warm at startup
    --snapshot-dir DIR enable the snapshot disk tier: cold corpora map
                       persisted artifacts from DIR instead of rebuilding,
                       evictions spill to DIR, --warm writes through
    --persist          also snapshot every resident session on graceful
                       shutdown (requires --snapshot-dir), so the next
                       start serves from disk without rebuilding
    --max-resident-mb N
                       out-of-core serving (requires --snapshot-dir):
                       sessions are evicted (their maps dropped) whenever
                       materialized bytes across residents exceed N
                       megabytes, keeping at least the most recent session
                       resident
    --deadline-ms N    per-request compute deadline: a request still inside
                       the pipeline after N milliseconds answers 504 with a
                       structured body at the next phase boundary
                       (default 0: no deadline)
    --shed-queue-ms N  admission control: a compute request whose measured
                       queue wait exceeded N milliseconds is shed with
                       503 + Retry-After instead of computing on stale
                       demand (default 0: never shed); /readyz reports
                       degraded while shedding
    --enable-failpoints
                       serve the test-only /failpoints endpoint for
                       runtime fault injection (the WIKIMATCH_FAILPOINTS
                       env var arms failpoints at startup regardless)
    --log-level LEVEL  access-log verbosity: off | error | info | debug
                       (default error: 5xx and slow requests only; the
                       WIKIMATCH_LOG env var sets the default, the flag
                       wins). Logs are JSON lines on stderr.
    --slow-ms N        requests at/over N milliseconds total are marked
                       slow and logged even at error level (default 500;
                       0 disables the slow gate)
    --help             print this help

ENDPOINTS (JSON unless noted):
    GET  /healthz /livez /readyz /stats /corpora /matchers
    GET  /metrics          Prometheus text exposition
    GET/POST/DELETE /failpoints   fault injection (--enable-failpoints only)
    POST /align            {\"corpus\": \"pt-medium\", \"type_id\": \"film\"?}
    POST /matchers         {\"corpus\": ..., \"matcher\": \"Bouma\", \"type_id\"?}
    POST /translate-query  {\"corpus\": ..., \"query\": \"filme(direção=?)\", \"top_k\"?}
    POST /warm | /evict    {\"corpus\": ...}
    POST /shutdown";

fn fail(message: &str) -> ExitCode {
    eprintln!("matchd: {message}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    // Arm any WIKIMATCH_FAILPOINTS-specified failpoints before anything
    // that passes a hook (corpus warming journals through them).
    wiki_fault::init_env();
    let mut addr = "127.0.0.1:8743".to_string();
    let mut config = ServerConfig::default();
    // WIKIMATCH_LOG sets the default level; an explicit --log-level wins.
    if let Ok(level) = std::env::var("WIKIMATCH_LOG") {
        match level.parse() {
            Ok(level) => config.log_level = level,
            Err(err) => return fail(&format!("WIKIMATCH_LOG: {err}")),
        }
    }
    let mut capacity = 4usize;
    let mut tiers = "tiny,small,medium,large".to_string();
    let mut warm = Vec::new();
    let mut snapshot_dir: Option<String> = None;
    let mut persist = false;
    let mut max_resident_mb: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let result: Result<(), String> = match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => value("--addr").map(|v| addr = v),
            "--workers" => value("--workers").and_then(|v| {
                v.parse()
                    .map(|n| config.workers = n)
                    .map_err(|_| format!("bad --workers {v:?}"))
            }),
            "--queue" => value("--queue").and_then(|v| {
                v.parse()
                    .map(|n| config.queue_depth = n)
                    .map_err(|_| format!("bad --queue {v:?}"))
            }),
            "--capacity" => value("--capacity").and_then(|v| {
                v.parse()
                    .map(|n| capacity = n)
                    .map_err(|_| format!("bad --capacity {v:?}"))
            }),
            "--tiers" => value("--tiers").map(|v| tiers = v),
            "--warm" => value("--warm").map(|v| {
                warm.extend(v.split(',').map(|s| s.trim().to_string()));
            }),
            "--snapshot-dir" => value("--snapshot-dir").map(|v| snapshot_dir = Some(v)),
            "--max-resident-mb" => value("--max-resident-mb").and_then(|v| {
                v.parse()
                    .map(|n| max_resident_mb = Some(n))
                    .map_err(|_| format!("bad --max-resident-mb {v:?}"))
            }),
            "--log-level" => value("--log-level").and_then(|v| {
                v.parse()
                    .map(|l| config.log_level = l)
                    .map_err(|e: String| e)
            }),
            "--slow-ms" => value("--slow-ms").and_then(|v| {
                v.parse()
                    .map(|n| config.slow_millis = n)
                    .map_err(|_| format!("bad --slow-ms {v:?}"))
            }),
            "--deadline-ms" => value("--deadline-ms").and_then(|v| {
                v.parse()
                    .map(|n| config.deadline_millis = n)
                    .map_err(|_| format!("bad --deadline-ms {v:?}"))
            }),
            "--shed-queue-ms" => value("--shed-queue-ms").and_then(|v| {
                v.parse()
                    .map(|n| config.shed_queue_millis = n)
                    .map_err(|_| format!("bad --shed-queue-ms {v:?}"))
            }),
            "--enable-failpoints" => {
                config.failpoints_endpoint = true;
                Ok(())
            }
            "--persist" => {
                persist = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other:?}")),
        };
        if let Err(message) = result {
            return fail(&message);
        }
    }
    config.addr = addr;

    let tier_names: Vec<&str> = tiers.split(',').map(str::trim).collect();
    // Fail fast on a misspelled tier instead of silently serving fewer
    // corpora than asked for.
    if let Some(unknown) = tier_names
        .iter()
        .find(|t| CorpusSpec::tier(wiki_corpus::Language::Pt, t).is_none())
    {
        return fail(&format!(
            "unknown tier {unknown:?}; expected tiny, small, medium, large or xlarge"
        ));
    }
    let specs = CorpusSpec::scale_tiers(&tier_names);
    if specs.is_empty() {
        return fail(&format!("no valid tiers in {tiers:?}"));
    }
    if persist && snapshot_dir.is_none() {
        return fail("--persist requires --snapshot-dir");
    }
    if max_resident_mb.is_some() && snapshot_dir.is_none() {
        return fail("--max-resident-mb requires --snapshot-dir");
    }
    let mut registry = Registry::new(capacity, ComputeMode::default());
    if let Some(dir) = &snapshot_dir {
        registry = registry.with_snapshot_dir(dir);
    }
    if let Some(mb) = max_resident_mb {
        registry = registry.with_resident_budget_mb(mb);
    }
    let registry = Arc::new(registry);
    registry.register_all(specs);

    if warm.len() > capacity {
        eprintln!(
            "matchd: warning: --warm lists {} corpora but --capacity is {}; \
             earlier warmed sessions will be evicted again before serving starts",
            warm.len(),
            capacity
        );
    }
    for name in &warm {
        let start = Instant::now();
        match registry.warm(name) {
            Ok(cached) => eprintln!(
                "matchd: warmed {name} ({} types) in {:.2?}",
                cached.engine().cached_types(),
                start.elapsed()
            ),
            Err(err) => return fail(&err.to_string()),
        }
    }

    let workers = config.workers;
    let mut server = match MatchServer::start(Arc::clone(&registry), config) {
        Ok(server) => server,
        Err(err) => return fail(&format!("failed to bind: {err}")),
    };
    eprintln!(
        "matchd: listening on http://{} ({} workers, capacity {}, corpora: {}{}{})",
        server.addr(),
        workers,
        registry.capacity(),
        registry.names().join(", "),
        match registry.snapshot_dir() {
            Some(dir) => format!(", snapshots in {}", dir.display()),
            None => String::new(),
        },
        match max_resident_mb {
            Some(mb) => format!(", resident budget {mb} MB"),
            None => String::new(),
        }
    );
    server.wait();
    eprintln!("matchd: shutting down");
    server.shutdown();
    if persist {
        let start = Instant::now();
        let written = registry.persist_resident();
        eprintln!(
            "matchd: persisted {written} resident session(s) in {:.2?}",
            start.elapsed()
        );
    }
    ExitCode::SUCCESS
}
