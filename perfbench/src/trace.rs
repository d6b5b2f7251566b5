//! The traced run's instruments: spans the benchmark records around its
//! own calls into each layer, the program's `wm_phase_seconds` totals, and
//! the program's per-request access-log segments.
//!
//! A span records its name (the layer it times), start, end, parent span
//! and op id. Spans are kept in memory and written out when the run ends.
//! A span's self time is its duration minus the part of that interval its
//! child spans cover; children may run on other threads, so the covered
//! part is the union of their intervals.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span recorder, shared by every thread of a traced op.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// hand to the spans it opens, on this thread or another.
    pub fn span<T>(
        &self,
        op: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span log poisoned")
            .push(SpanRecord {
                id,
                parent,
                op,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.records() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span of `tracer` when there is one, and plainly
/// otherwise; `f` receives the span's id, if any, to parent the spans it
/// opens.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    op: u64,
    parent: Option<u64>,
    name: &'static str,
    f: impl FnOnce(Option<u64>) -> T,
) -> T {
    match tracer {
        Some(tracer) => tracer.span(op, parent, name, |id| f(Some(id))),
        None => f(None),
    }
}

/// Self time in milliseconds per span name, summed over `spans`.
pub fn self_ms(spans: &[SpanRecord]) -> BTreeMap<&'static str, f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_default() += own as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    total + current.map_or(0, |(a, b)| b - a)
}

/// Exclusive seconds recorded so far per `wm_phase_seconds` phase, read
/// from the process-wide metrics registry.
pub fn phase_seconds() -> BTreeMap<String, f64> {
    let samples = wiki_obs::expo::parse_text(&wiki_obs::registry().render())
        .expect("registry renders valid exposition");
    wiki_obs::expo::HistogramScrape::extract_all(&samples, "wm_phase_seconds")
        .into_iter()
        .filter_map(|(key, scrape)| Some((key.strip_prefix("phase=")?.to_string(), scrape.sum)))
        .collect()
}

/// Milliseconds each phase gained between two [`phase_seconds`] readings.
pub fn phase_delta_ms(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(phase, s)| (phase.clone(), (s - before.get(phase).unwrap_or(&0.0)) * 1e3))
        .collect()
}

/// One request of the server's access log: endpoint, server-side total and
/// the exclusive time of each phase the request's worker recorded.
#[derive(Debug, Clone, Default)]
pub struct LoggedRequest {
    pub endpoint: String,
    pub total_ms: f64,
    pub segments: Vec<(String, f64)>,
}

impl LoggedRequest {
    /// Parses one line written by `wiki_obs::RequestLog`.
    pub fn parse(line: &str) -> Option<Self> {
        let field = |key: &str| {
            let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
            let rest = &line[start..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            Some(rest[..end].trim_matches('"').to_string())
        };
        let body = &line[line.find("\"segments\":{")? + 12..];
        let body = body.trim_end_matches('}');
        let segments = body
            .split(',')
            .filter(|s| !s.is_empty())
            .filter_map(|kv| {
                let (k, v) = kv.split_once(':')?;
                let name = k.trim_matches('"').strip_suffix("_us")?.to_string();
                Some((name, v.parse::<f64>().ok()? / 1e3))
            })
            .collect();
        Some(Self {
            endpoint: field("endpoint")?,
            total_ms: field("total_us")?.parse::<f64>().ok()? / 1e3,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_parallel_children() {
        let spans = [
            span(1, None, "op", 0, 10_000_000),
            // Two children on different threads overlap in 3..5 ms.
            span(2, Some(1), "a", 1_000_000, 5_000_000),
            span(3, Some(1), "b", 3_000_000, 8_000_000),
        ];
        let own = self_ms(&spans);
        assert!((own["op"] - 3.0).abs() < 1e-9, "{own:?}");
        assert!((own["a"] - 4.0).abs() < 1e-9);
        assert!((own["b"] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn parses_an_access_log_line() {
        let line = r#"{"ts_ms":1,"id":7,"method":"POST","path":"/align","endpoint":"align","corpus":"pt-medium","status":200,"total_us":1500,"slow":false,"segments":{"req_parse_us":10,"req_compute_us":1200,"req_serialize_us":100,"req_serialize_us":50}}"#;
        let record = LoggedRequest::parse(line).expect("parses");
        assert_eq!(record.endpoint, "align");
        assert_eq!(record.total_ms, 1.5);
        let serialize: f64 = record
            .segments
            .iter()
            .filter(|(p, _)| p == "req_serialize")
            .map(|(_, ms)| ms)
            .sum();
        assert!(
            (serialize - 0.15).abs() < 1e-12,
            "repeated phases are all kept"
        );
        assert_eq!(record.segments.len(), 4);
    }
}
