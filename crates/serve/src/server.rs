//! The `matchd` server: a fixed worker-thread pool draining a bounded
//! connection queue, routing the JSON protocol of [`crate::protocol`] onto
//! a shared [`Registry`].
//!
//! Concurrency model:
//!
//! * one **acceptor** thread blocks on [`TcpListener::accept`] and pushes
//!   connections into a bounded queue — when the queue is full the
//!   connection is answered `503` immediately instead of piling up;
//! * `workers` **worker** threads pop connections and serve them
//!   keep-alive until the peer closes, an error occurs, or shutdown begins;
//! * **graceful shutdown** flips a flag, wakes the acceptor with a loopback
//!   connection, lets workers finish their in-flight request (answered with
//!   `Connection: close`) and joins every thread.
//!
//! The expensive work all lives behind the registry's coalescing caches, so
//! any number of workers can hammer the same corpus without duplicating a
//! build (see `crates/serve/tests/server.rs`).

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde::Deserialize;

use wiki_corpus::Language;
use wiki_obs::{LogLevel, RequestLog, RequestRecord, Span};
use wiki_query::{CQuery, QueryEngine};
use wikimatch::MatchEngine;

use crate::http::{read_request, Request, RequestError, Response};
use crate::matchers::MatcherRegistry;
use crate::protocol::{
    AlignRequest, AlignResponse, CorporaResponse, CorpusRequest, DeadlineExceededBody,
    DeleteRequest, EvictResponse, FailpointStatus, FailpointsRequest, FailpointsResponse,
    HealthResponse, MatcherRequest, MatchersResponse, MutateRequest, MutateResponse, ReadyResponse,
    ServerCounters, StatsResponse, TranslateRequest, TranslateResponse, TypePairs, WarmResponse,
};
use crate::registry::{CachedCorpus, Registry, RegistryError};
use wikimatch::CorpusDelta;

/// How long a worker blocks waiting for the *first* byte of the next
/// request on an idle keep-alive connection before re-checking the
/// shutdown flag. Nothing has been consumed yet when this fires, so the
/// wait can simply resume.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// Total budget for reading one request once its first byte has arrived —
/// enforced both per read (socket timeout) and across reads (a deadline
/// checked between reads by [`DeadlineReader`]), so neither a stalled nor a
/// byte-trickling client can hold a worker mid-request much longer than
/// this. Exceeding it closes the connection: retrying the read would resume
/// parsing mid-stream and corrupt the protocol.
const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long a blocked response write may stall before the connection is
/// dropped. Without it a client that stops reading would pin a worker in
/// `write_all` forever (and make shutdown, which joins workers, hang).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of a [`MatchServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`MatchServer::addr`]).
    pub addr: String,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bound of the pending-connection queue; beyond it connections are
    /// answered `503` by the acceptor.
    pub queue_depth: usize,
    /// Access-log verbosity (`matchd --log-level` / `WIKIMATCH_LOG`).
    pub log_level: LogLevel,
    /// Requests whose wall-clock total reaches this many milliseconds are
    /// marked `"slow":true` and logged even at `error` level; 0 disables
    /// the slow gate.
    pub slow_millis: u64,
    /// Pre-built access log; when `None` the server writes JSON lines to
    /// stderr per `log_level`/`slow_millis`. Tests inject
    /// [`RequestLog::in_memory`] sinks here.
    pub access_log: Option<Arc<RequestLog>>,
    /// Per-request compute deadline (`matchd --deadline-ms`), checked at
    /// pipeline phase boundaries; expiry answers 504 with a structured
    /// body. 0 disables deadlines.
    pub deadline_millis: u64,
    /// Admission-control budget (`matchd --shed-queue-ms`): a
    /// compute-bearing request whose connection waited longer than this in
    /// the accept queue is answered 503 + `Retry-After` instead of being
    /// served stale. 0 disables shedding.
    pub shed_queue_millis: u64,
    /// Enables the test-only `/failpoints` endpoint
    /// (`matchd --enable-failpoints`); when off the endpoint answers 403.
    pub failpoints_endpoint: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 16),
            queue_depth: 256,
            log_level: LogLevel::Error,
            slow_millis: 500,
            access_log: None,
            deadline_millis: 0,
            shed_queue_millis: 0,
            failpoints_endpoint: false,
        }
    }
}

/// Pre-resolved handles into the process-wide metrics registry for the
/// hot-path counters, so recording is a relaxed atomic add with no
/// registry lookup.
struct ServerMetrics {
    rejected_queue_full: wiki_obs::Counter,
    rejected_shed: wiki_obs::Counter,
    deadline_expired: wiki_obs::Counter,
    dropped_accept: wiki_obs::Counter,
    dropped_clone: wiki_obs::Counter,
    dropped_read: wiki_obs::Counter,
    dropped_write: wiki_obs::Counter,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = wiki_obs::registry();
        let dropped = |reason| {
            registry.counter_with(
                "wm_http_connections_dropped_total",
                "Connections dropped outside the normal request/response flow, by reason.",
                &[("reason", reason)],
            )
        };
        let rejected = |reason| {
            registry.counter_with(
                "wm_http_requests_rejected_total",
                "Requests answered 503 without being served, by reason: \
                 queue_full (acceptor door) or shed (admission control).",
                &[("reason", reason)],
            )
        };
        Self {
            rejected_queue_full: rejected("queue_full"),
            rejected_shed: rejected("shed"),
            deadline_expired: registry.counter(
                "wm_deadline_expired_total",
                "Requests answered 504 because the per-request compute deadline expired.",
            ),
            dropped_accept: dropped("accept_error"),
            dropped_clone: dropped("clone_error"),
            dropped_read: dropped("read_error"),
            dropped_write: dropped("write_error"),
        }
    }
}

/// How recently a shed must have happened for `/readyz` to report
/// `degraded`: shedding is a transient pressure signal, and readiness
/// should recover on its own once the queue drains.
const READINESS_SHED_WINDOW: Duration = Duration::from_secs(5);

/// Sentinel for "never shed" in [`Shared::last_shed_nanos`].
const NEVER_SHED: u64 = u64::MAX;

/// State shared by the acceptor, the workers and the handle.
struct Shared {
    registry: Arc<Registry>,
    matchers: MatcherRegistry,
    addr: SocketAddr,
    running: AtomicBool,
    accepted: AtomicU64,
    handled: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    /// Nanoseconds since `started` of the most recent shed ([`NEVER_SHED`]
    /// until the first one) — drives readiness degradation.
    last_shed_nanos: AtomicU64,
    dropped: AtomicU64,
    queue_len: AtomicU64,
    started: Instant,
    workers: usize,
    queue_depth: usize,
    deadline_millis: u64,
    shed_queue_millis: u64,
    failpoints_endpoint: bool,
    log: Arc<RequestLog>,
    metrics: ServerMetrics,
}

impl Shared {
    fn counters(&self) -> ServerCounters {
        ServerCounters {
            accepted: self.accepted.load(Ordering::Relaxed),
            handled: self.handled.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            connections_dropped: self.dropped.load(Ordering::Relaxed),
        }
    }

    /// Counts one dropped connection on both the `/stats` total and the
    /// per-reason `/metrics` counter.
    fn drop_connection(&self, reason: &wiki_obs::Counter) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        reason.inc();
    }

    /// Counts one admission-control shed and stamps the readiness window.
    fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.rejected_shed.inc();
        let nanos = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(NEVER_SHED - 1);
        self.last_shed_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Readiness verdict: `None` when ready, `Some(reason)` when degraded
    /// (queue saturated, or shed pressure within the recent window).
    fn degraded_reason(&self) -> Option<String> {
        let queue_len = self.queue_len.load(Ordering::Relaxed);
        if queue_len >= self.queue_depth as u64 {
            return Some(format!("queue {queue_len}/{}", self.queue_depth));
        }
        let last = self.last_shed_nanos.load(Ordering::Relaxed);
        if last != NEVER_SHED {
            let now = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let window = u64::try_from(READINESS_SHED_WINDOW.as_nanos()).unwrap_or(u64::MAX);
            if now.saturating_sub(last) <= window {
                return Some(format!(
                    "shed pressure within the last {}s ({} total)",
                    READINESS_SHED_WINDOW.as_secs(),
                    self.shed.load(Ordering::Relaxed),
                ));
            }
        }
        None
    }
}

/// A running `matchd` server; dropping the handle without calling
/// [`shutdown`](Self::shutdown) detaches the threads.
pub struct MatchServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for MatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchServer")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl MatchServer {
    /// Binds, spawns the worker pool and the acceptor, and returns
    /// immediately. The default matcher catalog backs `POST /matchers`.
    pub fn start(registry: Arc<Registry>, config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let queue_depth = config.queue_depth.max(1);
        let log = config
            .access_log
            .clone()
            .unwrap_or_else(|| Arc::new(RequestLog::stderr(config.log_level, config.slow_millis)));
        let shared = Arc::new(Shared {
            registry,
            matchers: MatcherRegistry::default(),
            addr,
            running: AtomicBool::new(true),
            accepted: AtomicU64::new(0),
            handled: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            last_shed_nanos: AtomicU64::new(NEVER_SHED),
            dropped: AtomicU64::new(0),
            queue_len: AtomicU64::new(0),
            started: Instant::now(),
            workers,
            queue_depth,
            deadline_millis: config.deadline_millis,
            shed_queue_millis: config.shed_queue_millis,
            failpoints_endpoint: config.failpoints_endpoint,
            log,
            metrics: ServerMetrics::new(),
        });

        let (tx, rx) = mpsc::sync_channel::<(TcpStream, Instant)>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        // Spawn failures (thread limits, memory pressure) surface as the
        // start error instead of panicking the caller. Workers already
        // spawned are cleaned up by `shutdown`'s flag + join on drop of the
        // partially built pool being unreachable — but simplest is to fail
        // the whole start before the acceptor exists: no connection has
        // been accepted yet, so stranded workers just block on a channel
        // whose sender is dropped right here and exit.
        let mut worker_handles: Vec<JoinHandle<()>> = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            let handle = thread::Builder::new()
                .name(format!("matchd-worker-{i}"))
                .spawn(move || worker_loop(&shared, &rx))?;
            worker_handles.push(handle);
        }

        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("matchd-acceptor".to_string())
                .spawn(move || acceptor_loop(&shared, listener, tx))?
        };

        Ok(Self {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until shutdown begins — either [`shutdown`](Self::shutdown)
    /// was called or a client posted `/shutdown`.
    pub fn wait(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Requests shutdown: stops accepting, drains queued connections,
    /// finishes in-flight requests and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.running.store(false, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(wake_addr(self.addr));
        self.wait();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A connectable form of the bound address, for the self-connect that wakes
/// the acceptor: a wildcard bind (`0.0.0.0` / `[::]`) is not a connect
/// target on every platform, so it is rewritten to the loopback of the same
/// family.
fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    if addr.ip().is_unspecified() {
        match addr {
            SocketAddr::V4(_) => addr.set_ip(std::net::Ipv4Addr::LOCALHOST.into()),
            SocketAddr::V6(_) => addr.set_ip(std::net::Ipv6Addr::LOCALHOST.into()),
        }
    }
    addr
}

fn acceptor_loop(shared: &Shared, listener: TcpListener, tx: SyncSender<(TcpStream, Instant)>) {
    for stream in listener.incoming() {
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // The peer is gone (reset mid-handshake, fd pressure, ...);
                // nothing to answer, but the drop must not be invisible.
                shared.drop_connection(&shared.metrics.dropped_accept);
                continue;
            }
        };
        // Incremented *before* the send so a worker's decrement can never
        // observably precede it (the gauge must not underflow).
        shared.queue_len.fetch_add(1, Ordering::Relaxed);
        match tx.try_send((stream, Instant::now())) {
            Ok(()) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full((mut stream, _))) => {
                shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                // Bounded queue: reject load at the door instead of queueing
                // unboundedly. The write is timeout-guarded — the acceptor
                // must never block on a slow peer. `Retry-After` tells
                // well-behaved clients to back off instead of hammering a
                // saturated queue.
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                shared.metrics.rejected_queue_full.inc();
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let _ = Response::error(503, "request queue full")
                    .with_header("Retry-After", "1")
                    .write(&mut stream, false);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping the sender lets workers drain the queue and exit.
}

/// A `BufRead` adapter that fails with `TimedOut` once a deadline passes.
///
/// The socket read timeout alone only bounds each *individual* read — a
/// client trickling one header byte per few seconds would keep completing
/// reads and pin the worker forever. Checking a wall-clock deadline between
/// reads bounds the whole request to roughly
/// `deadline + REQUEST_READ_TIMEOUT`.
struct DeadlineReader<'a> {
    inner: &'a mut BufReader<TcpStream>,
    deadline: Instant,
}

impl DeadlineReader<'_> {
    fn check(&self) -> io::Result<()> {
        if Instant::now() >= self.deadline {
            Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request read deadline exceeded",
            ))
        } else {
            Ok(())
        }
    }
}

impl io::Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.check()?;
        self.inner.read(buf)
    }
}

impl BufRead for DeadlineReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.check()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt)
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<(TcpStream, Instant)>>) {
    loop {
        // Hold the lock only for the dequeue, not while serving.
        let stream = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match stream {
            Ok((stream, enqueued)) => {
                shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                // Queue wait ends when a worker picks the connection up; it
                // is attributed to the connection's first request.
                serve_connection(shared, stream, enqueued.elapsed());
            }
            Err(_) => return, // acceptor gone and queue drained
        }
    }
}

fn serve_connection(shared: &Shared, mut stream: TcpStream, queue_wait: Duration) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => {
            shared.drop_connection(&shared.metrics.dropped_clone);
            return;
        }
    };
    // Consumed by the first request of the connection; later keep-alive
    // requests never waited in the queue.
    let mut queue_wait = Some(queue_wait);
    loop {
        // Idle phase: wait for the first byte of the next request under the
        // short poll timeout. `fill_buf` consumes nothing, so a timeout
        // here is always safe to retry — and each poll re-checks the
        // shutdown flag so shutdown is not held hostage by idle peers.
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        match reader.fill_buf() {
            Ok([]) => return, // clean EOF between requests
            Ok(_) => {}
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Request phase: bytes are in flight. Any per-read timeout or
        // deadline overrun from here on is a mid-request stall and closes
        // the connection (see `REQUEST_READ_TIMEOUT`).
        let _ = stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT));
        let mut deadline_reader = DeadlineReader {
            inner: &mut reader,
            deadline: Instant::now() + REQUEST_READ_TIMEOUT,
        };
        // Open the per-request observability context: finished spans from
        // here to the response append their exclusive time as segments.
        wiki_obs::request::begin();
        let request_queue_wait = queue_wait.take();
        if let Some(wait) = request_queue_wait {
            wiki_obs::record_phase(
                "req_queue_wait",
                u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let started = Instant::now();
        let parse_span = Span::enter("req_parse");
        match read_request(&mut deadline_reader) {
            Ok(request) => {
                parse_span.finish();
                let response = admitted_response(shared, &request, request_queue_wait, started);
                // Evaluated *after* routing so a request that initiates
                // shutdown (POST /shutdown) is itself answered with
                // `Connection: close` instead of a keep-alive promise the
                // dying server cannot honour.
                let keep_alive = request.keep_alive && shared.running.load(Ordering::SeqCst);
                shared.handled.fetch_add(1, Ordering::Relaxed);
                let write_ok = response.write(&mut stream, keep_alive).is_ok();
                if !write_ok {
                    shared.drop_connection(&shared.metrics.dropped_write);
                }
                observe_request(shared, &request, &response, started.elapsed());
                if !write_ok || !keep_alive {
                    return;
                }
            }
            Err(RequestError::Closed) => return,
            Err(RequestError::Io(_)) => {
                // Bytes of a request were in flight when the read failed or
                // timed out — a real mid-request drop, unlike the clean
                // `Closed` EOF above.
                shared.drop_connection(&shared.metrics.dropped_read);
                return;
            }
            Err(RequestError::Bad(status, message)) => {
                // Malformed requests are answered too, so they count as
                // handled.
                shared.handled.fetch_add(1, Ordering::Relaxed);
                wiki_obs::registry()
                    .counter_with(
                        "wm_http_requests_total",
                        "Requests answered, by endpoint and status class.",
                        &[("endpoint", "malformed"), ("status", status_class(status))],
                    )
                    .inc();
                let _ = Response::error(status, &message).write(&mut stream, false);
                return;
            }
        }
    }
}

/// The bounded-cardinality endpoint label of a request path.
fn endpoint_name(path: &str) -> &'static str {
    match path {
        "/healthz" | "/livez" => "healthz",
        "/readyz" => "readyz",
        "/failpoints" => "failpoints",
        "/stats" => "stats",
        "/metrics" => "metrics",
        "/corpora" => "corpora",
        "/matchers" => "matchers",
        "/align" => "align",
        "/translate-query" => "translate_query",
        "/warm" => "warm",
        "/evict" => "evict",
        "/shutdown" => "shutdown",
        path => {
            if entities_corpus(path).is_some() {
                "entities"
            } else {
                "other"
            }
        }
    }
}

/// Status class label (`2xx`/`3xx`/`4xx`/`5xx`) — full codes would multiply
/// series cardinality for no added signal.
fn status_class(status: u16) -> &'static str {
    match status / 100 {
        2 => "2xx",
        3 => "3xx",
        4 => "4xx",
        _ => "5xx",
    }
}

/// Records one answered request: the `wm_http_requests_total` counter, the
/// `wm_request_seconds{endpoint}` histogram, and (gated by level) one
/// JSON access-log line carrying the per-segment timings collected by the
/// request context.
fn observe_request(shared: &Shared, request: &Request, response: &Response, total: Duration) {
    // Per-thread caches of resolved handles: workers are long-lived and
    // the (endpoint, status-class) space is small and 'static, so the
    // steady state skips the registry's lock-and-scan lookup entirely.
    thread_local! {
        static COUNTERS: RefCell<Vec<((&'static str, &'static str), wiki_obs::Counter)>> =
            const { RefCell::new(Vec::new()) };
        static HISTOGRAMS: RefCell<Vec<(&'static str, wiki_obs::Histogram)>> =
            const { RefCell::new(Vec::new()) };
    }
    let endpoint = endpoint_name(&request.path);
    let class = status_class(response.status);
    let total_nanos = u64::try_from(total.as_nanos()).unwrap_or(u64::MAX);
    COUNTERS.with(|counters| {
        let mut counters = counters.borrow_mut();
        if let Some((_, counter)) = counters.iter().find(|(key, _)| *key == (endpoint, class)) {
            counter.inc();
            return;
        }
        let counter = wiki_obs::registry().counter_with(
            "wm_http_requests_total",
            "Requests answered, by endpoint and status class.",
            &[("endpoint", endpoint), ("status", class)],
        );
        counter.inc();
        counters.push(((endpoint, class), counter));
    });
    let context = wiki_obs::request::take().unwrap_or_default();
    HISTOGRAMS.with(|histograms| {
        let mut histograms = histograms.borrow_mut();
        if let Some((_, histogram)) = histograms.iter().find(|(name, _)| *name == endpoint) {
            histogram.record(total_nanos);
            return;
        }
        let histogram = wiki_obs::registry().histogram_with(
            "wm_request_seconds",
            "End-to-end request latency (parse through response write), by endpoint.",
            &[("endpoint", endpoint)],
        );
        histogram.record(total_nanos);
        histograms.push((endpoint, histogram));
    });
    if shared.log.would_log(response.status, total_nanos) {
        shared.log.log(&RequestRecord {
            method: method_label(&request.method),
            path: request.path.clone(),
            endpoint,
            corpus: context.corpus,
            status: response.status,
            total_nanos,
            segments: context.segments,
        });
    }
}

/// Static form of the methods this server routes (access-log field).
fn method_label(method: &str) -> &'static str {
    match method {
        "GET" => "GET",
        "POST" => "POST",
        "DELETE" => "DELETE",
        "PUT" => "PUT",
        "HEAD" => "HEAD",
        _ => "OTHER",
    }
}

/// Endpoints admission control may shed: the compute-bearing ones. Health,
/// readiness, stats, metrics and control endpoints always get through —
/// shedding the probes that diagnose an overload would blind the operator
/// exactly when the signal matters.
fn sheddable(endpoint: &'static str) -> bool {
    matches!(
        endpoint,
        "align" | "matchers" | "translate_query" | "warm" | "entities"
    )
}

/// Per-request compute deadline, checked between pipeline phases. Started
/// at request-read completion; `budget == None` disables every check.
#[derive(Clone, Copy)]
struct RequestDeadline {
    started: Instant,
    budget: Option<Duration>,
}

impl RequestDeadline {
    /// `Some(504)` when the budget is spent, counting the expiry; `phase`
    /// names the boundary that observed it.
    fn expired(&self, shared: &Shared, phase: &str) -> Option<Response> {
        let budget = self.budget?;
        let elapsed = self.started.elapsed();
        if elapsed < budget {
            return None;
        }
        shared.deadline_expired.fetch_add(1, Ordering::Relaxed);
        shared.metrics.deadline_expired.inc();
        let body = serde_json::to_string(&DeadlineExceededBody {
            error: format!(
                "deadline of {}ms exceeded after {}ms at the {phase} phase",
                budget.as_millis(),
                elapsed.as_millis()
            ),
            deadline_ms: budget.as_millis() as u64,
            elapsed_ms: elapsed.as_millis() as u64,
            phase: phase.to_string(),
        })
        .unwrap_or_else(|_| "{\"error\":\"deadline exceeded\"}".to_string());
        Some(Response::json(504, body))
    }
}

/// The admission layer in front of the router: the `worker.request`
/// failpoint, then queue-wait shedding, then routing under the configured
/// compute deadline.
fn admitted_response(
    shared: &Shared,
    request: &Request,
    queue_wait: Option<Duration>,
    started: Instant,
) -> Response {
    // Chaos hook for the request path itself: an injected error answers
    // 500 before any handler runs; an injected sleep stalls the worker
    // (deliberately — that is how the bench manufactures queue pressure).
    if let Err(err) = wiki_fault::check_io("worker.request") {
        return Response::error(500, &err.to_string());
    }
    let endpoint = endpoint_name(&request.path);
    if shared.shed_queue_millis > 0 && sheddable(endpoint) {
        if let Some(wait) = queue_wait {
            let budget = Duration::from_millis(shared.shed_queue_millis);
            if wait > budget {
                shared.record_shed();
                return Response::error(
                    503,
                    &format!(
                        "shed: queued {}ms, admission budget is {}ms",
                        wait.as_millis(),
                        budget.as_millis()
                    ),
                )
                .with_header("Retry-After", "1");
            }
        }
    }
    let deadline = RequestDeadline {
        started,
        budget: (shared.deadline_millis > 0).then(|| Duration::from_millis(shared.deadline_millis)),
    };
    route_with_panic_barrier(shared, request, &deadline)
}

/// Routes a request behind a panic barrier: whatever a handler does with
/// request-derived data, a panic becomes a 500 JSON response instead of
/// killing the worker thread (a pool that loses a worker per bad request
/// would eventually stop serving entirely). The shared state is safe to
/// keep using afterwards — registry and engine locks recover from
/// poisoning, and every cache slot is an idempotent once-cell.
fn route_with_panic_barrier(
    shared: &Shared,
    request: &Request,
    deadline: &RequestDeadline,
) -> Response {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route(shared, request, deadline)
    }))
    .unwrap_or_else(|panic| {
        let detail = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown panic");
        Response::error(500, &format!("internal error: {detail}"))
    })
}

/// Parses a JSON request body, mapping failures to a 400 response.
fn parse_body<T: Deserialize>(request: &Request) -> Result<T, Box<Response>> {
    let text = request
        .body_utf8()
        .ok_or_else(|| Box::new(Response::error(400, "request body is not valid UTF-8")))?;
    serde_json::from_str(text).map_err(|err| {
        Box::new(Response::error(
            400,
            &format!("invalid request body: {err}"),
        ))
    })
}

/// Resolves a corpus name, mapping unknown names to a 404 response. The
/// lookup is timed as the `req_lookup` segment and tags the request
/// context with the corpus for the access log.
fn resolve_corpus(shared: &Shared, name: &str) -> Result<Arc<CachedCorpus>, Box<Response>> {
    let _span = Span::enter("req_lookup");
    shared
        .registry
        .corpus(name)
        .inspect(|_| wiki_obs::request::note_corpus(name))
        .map_err(|err| Box::new(Response::error(404, &err.to_string())))
}

/// Routes one request. Every branch returns a JSON response.
fn route(shared: &Shared, request: &Request, deadline: &RequestDeadline) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        // `/healthz` is liveness (with `/livez` as the explicit alias): it
        // answers `ok` as long as the process serves requests at all, even
        // degraded. `/readyz` is readiness: it turns 503 under shed
        // pressure or a saturated queue so load balancers steer traffic
        // away while the process works the backlog off.
        ("GET", "/healthz" | "/livez") => json_200(&HealthResponse {
            status: "ok".to_string(),
            service: "matchd".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
        }),
        ("GET", "/readyz") => handle_readyz(shared),
        ("GET" | "POST" | "DELETE", "/failpoints") => handle_failpoints(shared, request),
        ("GET", "/stats") => json_200(&StatsResponse {
            server: shared.counters(),
            uptime_secs: shared.started.elapsed().as_secs(),
            workers: shared.workers,
            queue_depth: shared.queue_depth,
            queue_len: shared.queue_len.load(Ordering::Relaxed),
            registry: shared.registry.stats(),
        }),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/corpora") => json_200(&CorporaResponse {
            corpora: shared.registry.specs(),
        }),
        ("GET", "/matchers") => json_200(&MatchersResponse {
            matchers: shared.matchers.names(),
        }),
        ("POST", "/align") => handle_align(shared, request, deadline),
        ("POST", "/matchers") => handle_matchers(shared, request, deadline),
        ("POST", "/translate-query") => handle_translate(shared, request, deadline),
        ("POST", "/warm") => handle_warm(shared, request, deadline),
        ("POST", "/evict") => handle_evict(shared, request),
        ("POST", "/shutdown") => {
            // Flip the flag, then wake the acceptor out of its blocking
            // accept so `MatchServer::wait` returns promptly.
            shared.running.store(false, Ordering::SeqCst);
            let _ = TcpStream::connect(wake_addr(shared.addr));
            Response::json(200, "{\"status\":\"shutting down\"}")
        }
        (
            _,
            "/healthz" | "/livez" | "/readyz" | "/failpoints" | "/stats" | "/metrics" | "/corpora"
            | "/matchers" | "/align" | "/translate-query" | "/warm" | "/evict" | "/shutdown",
        ) => Response::error(405, &format!("method {} not allowed here", request.method)),
        (method, path) => match entities_corpus(path) {
            Some(name) => match method {
                "POST" => handle_mutate(shared, request, name, deadline),
                "DELETE" => handle_delete(shared, request, name, deadline),
                _ => Response::error(405, &format!("method {method} not allowed here")),
            },
            None => Response::error(404, &format!("unknown route {path}")),
        },
    }
}

/// `GET /readyz`: 200 `ready` or 503 `degraded` with the reason.
fn handle_readyz(shared: &Shared) -> Response {
    let reason = shared.degraded_reason();
    let body = ReadyResponse {
        status: if reason.is_some() {
            "degraded"
        } else {
            "ready"
        }
        .to_string(),
        reason: reason.clone().unwrap_or_default(),
        queue_len: shared.queue_len.load(Ordering::Relaxed),
        queue_depth: shared.queue_depth,
        shed: shared.shed.load(Ordering::Relaxed),
    };
    let status = if reason.is_some() { 503 } else { 200 };
    match serde_json::to_string(&body) {
        Ok(body) => Response::json(status, body),
        Err(err) => Response::error(500, &format!("serialization failed: {err}")),
    }
}

/// `/failpoints` (test-only, gated by `--enable-failpoints`): `GET` lists
/// the armed points, `POST {"spec": "..."}` arms from a spec string,
/// `DELETE` disarms everything. Every verb answers with the current list.
fn handle_failpoints(shared: &Shared, request: &Request) -> Response {
    if !shared.failpoints_endpoint {
        return Response::error(
            403,
            "failpoints endpoint is disabled; start matchd with --enable-failpoints",
        );
    }
    match request.method.as_str() {
        "POST" => {
            let req: FailpointsRequest = match parse_body(request) {
                Ok(req) => req,
                Err(response) => return *response,
            };
            if let Err(err) = wiki_fault::arm(&req.spec) {
                return Response::error(400, &format!("bad failpoint spec: {err}"));
            }
        }
        "DELETE" => wiki_fault::disarm_all(),
        _ => {}
    }
    json_200(&FailpointsResponse {
        points: wiki_fault::list()
            .into_iter()
            .map(|p| FailpointStatus {
                name: p.name,
                spec: p.spec,
                hits: p.hits,
                fired: p.fired,
            })
            .collect(),
    })
}

/// `GET /metrics`: the Prometheus text exposition of the process-wide
/// registry. Point-in-time values (uptime, queue depth, registry
/// residency) are gauges refreshed here at scrape time; counters that
/// already live on [`Shared`] atomics are mirrored rather than
/// double-counted.
fn handle_metrics(shared: &Shared) -> Response {
    let registry = wiki_obs::registry();
    registry
        .gauge("wm_uptime_seconds", "Seconds since the server started.")
        .set(shared.started.elapsed().as_secs() as i64);
    registry
        .gauge("wm_workers", "Worker threads serving requests.")
        .set(shared.workers as i64);
    registry
        .gauge(
            "wm_queue_depth_limit",
            "Bound of the pending-connection queue.",
        )
        .set(shared.queue_depth as i64);
    registry
        .gauge(
            "wm_queue_depth",
            "Connections currently waiting in the queue.",
        )
        .set(shared.queue_len.load(Ordering::Relaxed) as i64);
    registry
        .counter(
            "wm_http_connections_accepted_total",
            "Connections accepted off the listener and queued for a worker.",
        )
        .store(shared.accepted.load(Ordering::Relaxed));
    registry
        .counter(
            "wm_http_requests_handled_total",
            "Requests answered with any status.",
        )
        .store(shared.handled.load(Ordering::Relaxed));
    let stats = shared.registry.stats();
    registry
        .gauge(
            "wm_registry_resident",
            "Engine sessions currently resident in the LRU.",
        )
        .set(stats.resident as i64);
    registry
        .gauge("wm_registry_capacity", "Maximum resident engine sessions.")
        .set(stats.capacity as i64);
    registry
        .gauge(
            "wm_registry_resident_bytes",
            "Total materialized artifact heap bytes across resident sessions.",
        )
        .set(stats.resident_bytes as i64);
    registry
        .gauge(
            "wm_registry_mapped_bytes",
            "Total memory-mapped snapshot bytes across resident sessions.",
        )
        .set(stats.mapped_bytes as i64);
    if let Some(budget) = stats.resident_budget_bytes {
        registry
            .gauge(
                "wm_registry_resident_budget_bytes",
                "Resident-bytes budget of the out-of-core tier.",
            )
            .set(budget as i64);
    }
    for corpus in &stats.corpora {
        registry
            .gauge_with(
                "wm_corpus_resident",
                "Whether the corpus has a resident session (1) or is cold (0).",
                &[("corpus", &corpus.name)],
            )
            .set(i64::from(corpus.resident));
        registry
            .counter_with(
                "wm_corpus_hits_total",
                "Requests served from the corpus' resident session.",
                &[("corpus", &corpus.name)],
            )
            .store(corpus.hits);
        registry
            .counter_with(
                "wm_corpus_builds_total",
                "Session builds performed for the corpus.",
                &[("corpus", &corpus.name)],
            )
            .store(corpus.builds);
        registry
            .gauge_with(
                "wm_corpus_resident_bytes",
                "Materialized artifact heap bytes of the corpus' resident session.",
                &[("corpus", &corpus.name)],
            )
            .set(corpus.resident_bytes as i64);
        registry
            .gauge_with(
                "wm_corpus_mapped_bytes",
                "Memory-mapped snapshot bytes backing the corpus' resident session.",
                &[("corpus", &corpus.name)],
            )
            .set(corpus.mapped_bytes as i64);
        registry
            .counter_with(
                "wm_corpus_page_ins_total",
                "Lazy materialisations of mapped channels for the corpus.",
                &[("corpus", &corpus.name)],
            )
            .store(corpus.page_ins);
    }
    Response::text(200, registry.render())
}

/// Extracts the corpus name of a `/corpora/{name}/entities` path; `None`
/// for every other path (including an empty name).
fn entities_corpus(path: &str) -> Option<&str> {
    let name = path.strip_prefix("/corpora/")?.strip_suffix("/entities")?;
    (!name.is_empty() && !name.contains('/')).then_some(name)
}

fn json_200<T: serde::Serialize>(body: &T) -> Response {
    let span = Span::enter("req_serialize");
    let result = serde_json::to_string(body);
    span.finish();
    match result {
        Ok(body) => Response::json(200, body),
        Err(err) => Response::error(500, &format!("serialization failed: {err}")),
    }
}

/// Shared body of `POST /align` and `POST /matchers`: resolve the corpus,
/// validate the optional type, then serve the serialized [`AlignResponse`]
/// from the residency's response cache (memoised under `cache_key`; on a
/// cold key `align_one` / `align_all` compute the pairs).
#[allow(clippy::too_many_arguments)] // Both call sites pass every field.
fn aligned_response(
    shared: &Shared,
    corpus_name: &str,
    type_id: Option<&str>,
    matcher_label: &str,
    cache_key: String,
    deadline: &RequestDeadline,
    align_one: impl Fn(&MatchEngine, &str) -> Option<Vec<(String, String)>>,
    align_all: impl Fn(&MatchEngine) -> Vec<TypePairs>,
) -> Response {
    let corpus = match resolve_corpus(shared, corpus_name) {
        Ok(corpus) => corpus,
        Err(response) => return *response,
    };
    if let Some(response) = deadline.expired(shared, "lookup") {
        return response;
    }
    if let Some(type_id) = type_id {
        if corpus.engine().dataset().type_pairing(type_id).is_none() {
            return Response::error(
                404,
                &format!("unknown type {type_id:?} in corpus {corpus_name:?}"),
            );
        }
    }
    let compute_span = Span::enter("req_compute");
    // Latency hook for the compute phase: an injected sleep here is what
    // the deadline tests use to manufacture a slow pipeline without
    // touching the engine.
    wiki_fault::pause("serve.compute");
    let body = corpus.response(&cache_key, || {
        let engine = corpus.engine();
        let alignments = match type_id {
            // The type was validated above against the immutable dataset, so
            // `align_one` returning `None` would be an internal bug — mapped
            // to a 500, never a worker-killing unwrap.
            Some(type_id) => vec![TypePairs {
                type_id: type_id.to_string(),
                pairs: align_one(engine, type_id).ok_or_else(|| {
                    format!("type {type_id:?} vanished from corpus {corpus_name:?} mid-request")
                })?,
            }],
            None => align_all(engine),
        };
        // Nested inside `req_compute`, so serialization time is carved out
        // of the compute segment, not double-counted.
        let serialize_span = Span::enter("req_serialize");
        let body = serde_json::to_string(&AlignResponse {
            corpus: corpus_name.to_string(),
            matcher: matcher_label.to_string(),
            alignments,
        })
        .map_err(|err| format!("response serialization failed: {err}"));
        serialize_span.finish();
        body
    });
    compute_span.finish();
    // The memoised body is kept even when this particular request blew its
    // budget — the *next* request gets the cached answer instantly, which
    // is exactly what a deadline-respecting retry wants.
    if let Some(response) = deadline.expired(shared, "compute") {
        return response;
    }
    match body {
        Ok(body) => Response::json(200, body.as_str()),
        Err(detail) => Response::error(500, &detail),
    }
}

/// `POST /align`: the engine's WikiMatch configuration over one type or all
/// types. Responses are memoised per `(corpus, type)` residency — repeated
/// warm requests are a cache lookup plus one buffer copy.
fn handle_align(shared: &Shared, request: &Request, deadline: &RequestDeadline) -> Response {
    let req: AlignRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    let type_id = req.type_id.as_deref();
    aligned_response(
        shared,
        &req.corpus,
        type_id,
        "WikiMatch",
        format!("align|{}", type_id.unwrap_or("*")),
        deadline,
        |engine, type_id| {
            engine
                .align(type_id)
                .map(|alignment| alignment.cross_pairs())
        },
        |engine| {
            engine
                .align_all()
                .iter()
                .map(|alignment| TypePairs {
                    type_id: alignment.type_id.clone(),
                    pairs: alignment.cross_pairs(),
                })
                .collect()
        },
    )
}

/// `POST /matchers`: any registered [`wikimatch::SchemaMatcher`] by name.
fn handle_matchers(shared: &Shared, request: &Request, deadline: &RequestDeadline) -> Response {
    let req: MatcherRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    let Some(matcher) = shared.matchers.get(&req.matcher) else {
        return Response::error(
            400,
            &format!(
                "unknown matcher {:?}; GET /matchers lists the registered names",
                req.matcher
            ),
        );
    };
    let label = matcher.label();
    let type_id = req.type_id.as_deref();
    aligned_response(
        shared,
        &req.corpus,
        type_id,
        &label,
        format!("matcher|{label}|{}", type_id.unwrap_or("*")),
        deadline,
        |engine, type_id| engine.align_with(matcher, type_id),
        |engine| {
            engine
                .align_all_with(matcher)
                .into_iter()
                .map(|(type_id, pairs)| TypePairs { type_id, pairs })
                .collect()
        },
    )
}

/// `POST /translate-query`: WikiQuery-style translation through the
/// corpus' derived correspondences, optionally answering the translated
/// query against the English edition.
fn handle_translate(shared: &Shared, request: &Request, deadline: &RequestDeadline) -> Response {
    let req: TranslateRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    let corpus = match resolve_corpus(shared, &req.corpus) {
        Ok(corpus) => corpus,
        Err(response) => return *response,
    };
    if let Some(response) = deadline.expired(shared, "lookup") {
        return response;
    }
    let Some(source) = CQuery::parse(&req.query) else {
        return Response::error(400, &format!("unparseable c-query {:?}", req.query));
    };
    let compute_span = Span::enter("req_compute");
    wiki_fault::pause("serve.compute");
    let (translated, stats) = corpus.dictionary().translate_query(&source);
    let top_k = req.top_k.unwrap_or(0);
    let answers = if top_k > 0 {
        QueryEngine::new(&corpus.engine().dataset().corpus).answer(
            &translated,
            &Language::En,
            top_k,
        )
    } else {
        Vec::new()
    };
    compute_span.finish();
    if let Some(response) = deadline.expired(shared, "compute") {
        return response;
    }
    json_200(&TranslateResponse {
        corpus: req.corpus.clone(),
        source,
        translated,
        translated_constraints: stats.translated,
        relaxed_constraints: stats.relaxed,
        answers,
    })
}

/// `POST /warm`: build the session and every per-type artifact now.
fn handle_warm(shared: &Shared, request: &Request, deadline: &RequestDeadline) -> Response {
    let req: CorpusRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    wiki_obs::request::note_corpus(&req.corpus);
    let compute_span = Span::enter("req_compute");
    let warmed = shared.registry.warm(&req.corpus);
    compute_span.finish();
    if let Some(response) = deadline.expired(shared, "compute") {
        return response;
    }
    match warmed {
        Ok(cached) => json_200(&WarmResponse {
            corpus: req.corpus,
            cached_types: cached.engine().cached_types(),
        }),
        Err(err) => Response::error(404, &err.to_string()),
    }
}

/// `POST /evict`: drop the resident session of a corpus.
fn handle_evict(shared: &Shared, request: &Request) -> Response {
    let req: CorpusRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    match shared.registry.evict(&req.corpus) {
        Ok(evicted) => json_200(&EvictResponse {
            corpus: req.corpus,
            evicted,
        }),
        Err(err) => Response::error(404, &err.to_string()),
    }
}

/// Applies a mutation delta through [`Registry::mutate`] and shapes the
/// report into the shared [`MutateResponse`] of both mutation endpoints.
fn mutated_response(
    shared: &Shared,
    name: &str,
    delta: &CorpusDelta,
    deadline: &RequestDeadline,
) -> Response {
    wiki_obs::request::note_corpus(name);
    let compute_span = Span::enter("req_compute");
    let mutated = shared.registry.mutate(name, delta);
    compute_span.finish();
    if let Some(response) = deadline.expired(shared, "compute") {
        // The mutation (if it succeeded) is applied and journaled — a 504
        // only means the caller's budget ran out waiting for the report.
        return response;
    }
    match mutated {
        Ok(report) => json_200(&MutateResponse {
            corpus: name.to_string(),
            inserted: report.inserted,
            updated: report.updated,
            removed: report.removed,
            types_patched: report.types_patched,
            rows_recomputed: report.rows_recomputed,
            fingerprint_before: format!("{:016x}", report.fingerprint_before),
            fingerprint: format!("{:016x}", report.fingerprint),
        }),
        // A mutation that applied in memory but could not be made durable
        // is NOT acknowledged: 503 tells the client to retry (the upsert
        // is idempotent), and Retry-After paces the retries.
        Err(err @ RegistryError::MutationNotDurable { .. }) => {
            Response::error(503, &err.to_string()).with_header("Retry-After", "1")
        }
        Err(err) => Response::error(404, &err.to_string()),
    }
}

/// `POST /corpora/{name}/entities`: upsert entities as one journaled delta.
fn handle_mutate(
    shared: &Shared,
    request: &Request,
    name: &str,
    deadline: &RequestDeadline,
) -> Response {
    let req: MutateRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    if req.entities.is_empty() {
        return Response::error(400, "entities must not be empty");
    }
    let mut delta = CorpusDelta::new();
    for article in req.entities {
        delta.push(wikimatch::DeltaOp::Upsert(article));
    }
    mutated_response(shared, name, &delta, deadline)
}

/// `DELETE /corpora/{name}/entities`: tombstone entities as one journaled
/// delta.
fn handle_delete(
    shared: &Shared,
    request: &Request,
    name: &str,
    deadline: &RequestDeadline,
) -> Response {
    let req: DeleteRequest = match parse_body(request) {
        Ok(req) => req,
        Err(response) => return *response,
    };
    if req.entities.is_empty() {
        return Response::error(400, "entities must not be empty");
    }
    let mut delta = CorpusDelta::new();
    for key in req.entities {
        delta.push(wikimatch::DeltaOp::Remove {
            language: key.language,
            title: key.title,
        });
    }
    mutated_response(shared, name, &delta, deadline)
}
