//! Malformed-input integration test: whatever bytes a client throws at
//! `matchd`, the answer is a JSON error response — never a dead worker.
//! The server is booted with a deliberately small worker pool and hammered
//! with more bad requests than it has workers; if any of them killed a
//! thread, the healthy requests at the end would hang or fail.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;

use wiki_corpus::{Language, SyntheticConfig};
use wiki_serve::client::MatchClient;
use wiki_serve::protocol::{AlignRequest, AlignResponse, HealthResponse};
use wiki_serve::registry::{CorpusSpec, Registry};
use wiki_serve::server::{MatchServer, ServerConfig};
use wikimatch::ComputeMode;

const WORKERS: usize = 2;

fn boot() -> (MatchServer, MatchClient) {
    let registry = Arc::new(Registry::new(2, ComputeMode::default()));
    registry.register_all(vec![CorpusSpec {
        name: "pt-tiny".to_string(),
        language: Language::Pt,
        config: SyntheticConfig::tiny(),
    }]);
    let server = MatchServer::start(
        registry,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server binds an ephemeral port");
    let client = MatchClient::new(server.addr()).expect("client resolves the server address");
    (server, client)
}

/// Sends raw request bytes (so invalid UTF-8 and broken framing are
/// possible) and returns `(status, body)`. `Connection: close` is always
/// requested, so reading to EOF captures the whole response.
fn raw_post(addr: std::net::SocketAddr, path: &str, body: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    let text = String::from_utf8_lossy(&response).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn malformed_requests_get_json_errors_and_never_kill_workers() {
    let (server, mut client) = boot();
    let addr = server.addr();

    // Every malformed request the protocol can meet, each expected status.
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        // Body is not JSON at all.
        ("/align", b"this is not json".to_vec(), 400),
        // Body is JSON of the wrong shape.
        ("/align", br#"{"corpus": 42}"#.to_vec(), 400),
        ("/align", br#"[1, 2, 3]"#.to_vec(), 400),
        // Missing required field.
        ("/matchers", br#"{"corpus": "pt-tiny"}"#.to_vec(), 400),
        // Body is not valid UTF-8.
        ("/align", vec![0xFF, 0xFE, 0x80, 0x80], 400),
        // Empty body where a JSON object is required.
        ("/translate-query", Vec::new(), 400),
        // Unknown corpus / matcher / route.
        (
            "/align",
            br#"{"corpus": "no-such-corpus", "type_id": null}"#.to_vec(),
            404,
        ),
        (
            "/matchers",
            br#"{"corpus": "pt-tiny", "matcher": "no-such-matcher", "type_id": null}"#.to_vec(),
            400,
        ),
        (
            "/align",
            br#"{"corpus": "pt-tiny", "type_id": "no-such-type"}"#.to_vec(),
            404,
        ),
        // Unparseable c-query.
        (
            "/translate-query",
            br#"{"corpus": "pt-tiny", "query": "((((", "top_k": null}"#.to_vec(),
            400,
        ),
        ("/no-such-route", Vec::new(), 404),
    ];

    // More bad requests than worker threads: a single panicking worker per
    // bad request would exhaust the pool well before the end.
    assert!(cases.len() > WORKERS + 2);
    for (path, body, expected) in &cases {
        let (status, response_body) = raw_post(addr, path, body);
        assert_eq!(status, *expected, "{path} with body {body:?}");
        assert!(
            response_body.contains("\"error\""),
            "{path}: non-JSON error envelope {response_body:?}"
        );
    }

    // The pool still serves: health check plus a real alignment.
    let health: HealthResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.status, "ok");
    let aligned: AlignResponse = client
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
    assert_eq!(aligned.alignments.len(), 1);
    assert!(!aligned.alignments[0].pairs.is_empty());
    server.shutdown();
}

#[test]
fn broken_framing_is_rejected_without_hanging_the_pool() {
    let (server, mut client) = boot();
    let addr = server.addr();

    // A Content-Length promising more bytes than are sent: the read times
    // out server-side and the connection is dropped; follow-up requests on
    // fresh connections must still be served immediately.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /align HTTP/1.1\r\nHost: x\r\nContent-Length: 50\r\n\r\nshort")
        .unwrap();
    // Don't wait for the timeout — just verify the server keeps serving
    // while that connection dangles.
    let health: HealthResponse = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.status, "ok");
    drop(stream);
    server.shutdown();
}

/// `matchd` has no `--mode` flag: every session builds the exact pruned
/// tables, `dense` is the test oracle, and `filtered` and `lsh` are no
/// compute modes. A stale `--mode` of any value is refused while the flags
/// are parsed, so the daemon exits non-zero before binding a port.
#[test]
fn matchd_refuses_dense_and_lsh_modes_before_binding() {
    let reason = "unknown flag \"--mode\"";
    for mode in ["pruned", "filtered:0.6", "dense", "lsh"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_matchd"))
            .args(["--addr", "127.0.0.1:0", "--tiers", "tiny", "--mode", mode])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("matchd spawns");
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        stderr.read_line(&mut first).expect("stderr reads");
        if first.contains("listening on") {
            child.kill().expect("a serving matchd can be killed");
            child.wait().expect("matchd is reaped");
            panic!("--mode {mode} was served: {first}");
        }
        stderr
            .read_to_string(&mut String::new())
            .expect("stderr drains");
        let status = child.wait().expect("matchd exits");
        assert!(!status.success(), "--mode {mode} exited 0");
        assert!(first.contains(reason), "--mode {mode}: {first}");
    }
}
