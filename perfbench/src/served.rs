//! What `serve-rw` and `coldstart` share: an in-process `MatchServer` over
//! a registry with a snapshot directory, clients timed from writing a
//! request to reading its full response, and the traced run's attribution
//! of client-side op time to the server's recorded phases.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wiki_obs::{LogLevel, RequestLog};
use wiki_serve::{ClientResponse, MatchClient, MatchServer, Registry, ServerConfig};

use crate::calib::Region;
use crate::stats::{median, percentile};
use crate::trace::{LoggedRequest, Tracer};
use crate::{metric, Metric, MAX_RUN};

/// A running server, its registry and its snapshot directory.
pub struct Served {
    server: MatchServer,
    pub registry: Arc<Registry>,
    pub dir: PathBuf,
    /// The in-memory access log of a traced run.
    log: Option<Arc<RequestLog>>,
}

impl Served {
    /// A fresh, empty snapshot directory for one set-up.
    pub fn snapshot_dir(workload: &str, setup: usize) -> PathBuf {
        let dir = crate::out_dir().join(format!("{workload}-{}-{setup}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create snapshot dir");
        dir
    }

    /// Starts `workers` workers over `registry`. A traced server keeps an
    /// access log of every request, with its per-phase segments.
    pub fn start(
        registry: Registry,
        dir: PathBuf,
        workers: usize,
        traced: bool,
    ) -> Result<Self, String> {
        let registry = Arc::new(registry);
        let log = traced.then(|| Arc::new(RequestLog::in_memory(LogLevel::Info, 0)));
        let config = ServerConfig {
            workers,
            log_level: LogLevel::Off,
            slow_millis: 0,
            access_log: log.clone(),
            ..ServerConfig::default()
        };
        let server = MatchServer::start(Arc::clone(&registry), config)
            .map_err(|err| format!("server start: {err}"))?;
        Ok(Self {
            server,
            registry,
            dir,
            log,
        })
    }

    pub fn client(&self) -> MatchClient {
        MatchClient::new(self.server.addr()).expect("the server address resolves")
    }

    /// Lines the access log has captured so far.
    pub fn logged(&self) -> Vec<String> {
        self.log
            .as_ref()
            .map(|log| log.captured())
            .unwrap_or_default()
    }

    /// Stops the server, joins its threads and deletes the directory.
    pub fn shutdown(self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A request or response body as the protocol serializes it.
pub fn body<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol types serialize")
}

/// Posts `body` and returns the response body of a 2xx, or an error.
pub fn post_ok(client: &mut MatchClient, path: &str, body: &str) -> Result<String, String> {
    match client.request("POST", path, Some(body)) {
        Ok(response) if response.is_success() => Ok(response.body),
        Ok(response) => Err(format!(
            "{path}: HTTP {} {}",
            response.status, response.body
        )),
        Err(err) => Err(format!("{path}: {err}")),
    }
}

/// The op id of the traced run's direct calls, apart from every client op.
pub const DIRECT_OP: u64 = u64::MAX / 2;

/// Median milliseconds of `reps` calls of `f`, each in a span named
/// `name`; returns the last call's result too.
pub fn direct<T>(
    tracer: &Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        last = Some(tracer.span(DIRECT_OP, None, name, |_| f()));
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(&times), last.expect("reps >= 1"))
}

/// Posts one request with a pre-serialized body; returns the client-side
/// latency in milliseconds, from writing the request to reading the full
/// response.
pub fn timed(client: &mut MatchClient, path: &str, body: &str) -> (f64, Option<ClientResponse>) {
    let start = Instant::now();
    let response = client.request("POST", path, Some(body)).ok();
    (start.elapsed().as_secs_f64() * 1e3, response)
}

/// When a serving run's timed region ends: once `run` has passed and it
/// holds at least `reads` reads and `writes` writes, or at [`MAX_RUN`]. A
/// slow host or a slower program makes the region longer, not short of
/// the samples its percentiles need.
#[derive(Debug, Clone, Copy)]
pub struct Until {
    pub run: Duration,
    pub reads: usize,
    pub writes: usize,
}

impl Until {
    /// A region of `run` alone, for a traced half.
    pub fn time(run: Duration) -> Self {
        Self {
            run,
            reads: 0,
            writes: 0,
        }
    }

    pub fn done(&self, elapsed: Duration, reads: usize, writes: usize) -> bool {
        let enough = reads >= self.reads && writes >= self.writes;
        (elapsed >= self.run && enough) || elapsed >= self.run.max(MAX_RUN)
    }
}

/// One timed op of a client.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub write: bool,
    pub ms: f64,
    pub ok: bool,
}

/// A serving run's timed region: its ops, its wall and process CPU seconds
/// with the pauses between ops left out, and its median window's peak
/// resident set ([`Region`]).
pub struct Driven {
    pub samples: Vec<OpSample>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

impl Driven {
    pub fn new(samples: Vec<OpSample>, mut region: Region) -> Self {
        Self {
            samples,
            wall_s: region.elapsed().as_secs_f64(),
            cpu_s: region.cpu_s(),
            peak_rss_mb: region.peak_rss_mb(),
        }
    }

    /// Latencies of the reads, or of the writes.
    pub fn ms(&self, write: bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.write == write)
            .map(|s| s.ms)
            .collect()
    }

    /// `ops_per_s`, `cpu_ms_per_op`, `read_ms_p50` and `peak_rss_mb`.
    /// Every op of the region completed inside it, so all count.
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let ops = self.samples.len() as f64;
        Ok(vec![
            metric("ops_per_s", ops / self.wall_s, "1/s"),
            metric("cpu_ms_per_op", self.cpu_s * 1e3 / ops, "ms"),
            metric("read_ms_p50", percentile(&self.ms(false), 50.0)?, "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
        ])
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Server-side sums over the logged requests of a traced stretch.
#[derive(Debug, Default)]
pub struct ServerSums {
    pub requests: usize,
    pub total_ms: f64,
    /// Exclusive milliseconds per phase.
    pub phases: BTreeMap<String, f64>,
}

impl ServerSums {
    /// Sums the logged requests to `endpoint`.
    pub fn of(lines: &[String], endpoint: &str) -> Self {
        let mut sums = ServerSums::default();
        for record in lines.iter().filter_map(|line| LoggedRequest::parse(line)) {
            if record.endpoint != endpoint {
                continue;
            }
            sums.requests += 1;
            sums.total_ms += record.total_ms;
            for (phase, ms) in &record.segments {
                *sums.phases.entry(phase.clone()).or_default() += ms;
            }
        }
        sums
    }

    pub fn phase(&self, name: &str) -> f64 {
        self.phases.get(name).copied().unwrap_or(0.0)
    }

    /// Server time no recorded phase covers: routing, body parsing, the
    /// response write.
    pub fn unphased_ms(&self) -> f64 {
        (self.total_ms - self.phases.values().sum::<f64>()).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_region_runs_on_until_it_has_its_samples() {
        let until = Until {
            run: Duration::from_secs(30),
            reads: 1_300,
            writes: 130,
        };
        let at = Duration::from_secs;
        assert!(!until.done(at(10), 2_000, 200), "shorter than the run");
        assert!(until.done(at(30), 1_300, 130));
        assert!(!until.done(at(45), 1_299, 200), "short of reads");
        assert!(!until.done(at(45), 2_000, 129), "short of writes");
        assert!(until.done(MAX_RUN, 10, 1), "capped");
        assert!(Until::time(at(5)).done(at(5), 0, 0));
    }
}
