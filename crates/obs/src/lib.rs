//! # wiki-obs — the WikiMatch observability layer
//!
//! A std-only (no crates.io) observability toolkit shared by every layer
//! of the suite:
//!
//! - [`metrics`] — a lock-free registry of counters, gauges and
//!   log-bucketed latency histograms with exact quantile bounds, rendered
//!   in the Prometheus text exposition format.
//! - [`span`] — scoped phase timers (`Span::enter("phase")`) that nest on
//!   a thread-local stack and attribute **exclusive** time to the
//!   innermost phase, recording into `wm_phase_seconds{phase=…}`.
//! - [`logging`] — structured JSON-lines access logs with level gating
//!   and a slow-request threshold.
//! - [`expo`] — a parser for the exposition format, used by matchbench
//!   and the integration tests to read `/metrics` back.
//!
//! Library layers (core, text) record through the process-wide
//! [`registry()`] so a single scrape covers build phases, snapshot I/O and
//! delta patches alongside the serving tier's request histograms.

#![warn(missing_docs)]

pub mod expo;
pub mod logging;
pub mod metrics;
pub mod span;

pub use logging::{LogLevel, RequestLog, RequestRecord};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use span::Span;

use std::cell::RefCell;
use std::sync::OnceLock;

/// The process-wide metrics registry. Everything recorded here — engine
/// build phases, snapshot counters, request segments — appears in one
/// `/metrics` scrape.
pub fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Records `nanos` of exclusive time for `phase` into the process-wide
/// `wm_phase_seconds{phase=…}` histogram and, when a request context is
/// open on this thread, into its segment list. Called by [`Span`] on
/// finish; callable directly for pre-measured durations.
pub fn record_phase(phase: &'static str, nanos: u64) {
    // Resolved handles are cached per thread (phases are 'static, the set
    // is small and stable), so steady-state recording is two relaxed
    // atomic adds — the registry's read-lock-and-scan lookup would
    // otherwise dominate the cost of short request-path spans.
    thread_local! {
        static HANDLES: RefCell<Vec<(&'static str, Histogram)>> = const { RefCell::new(Vec::new()) };
    }
    HANDLES.with(|handles| {
        let mut handles = handles.borrow_mut();
        if let Some((_, histogram)) = handles.iter().find(|(name, _)| *name == phase) {
            histogram.record(nanos);
            return;
        }
        let histogram = registry().histogram_with(
            "wm_phase_seconds",
            "Exclusive time per instrumented phase.",
            &[("phase", phase)],
        );
        histogram.record(nanos);
        handles.push((phase, histogram));
    });
    request::note_segment(phase, nanos);
}

/// Thread-local request context: while open, finished spans also append
/// `(phase, nanos)` segments here, so the serving tier can attach
/// per-phase timings to access-log lines without threading a context
/// through every call.
pub mod request {
    use super::RefCell;

    /// Segments and metadata accumulated for the in-flight request.
    #[derive(Debug, Default, Clone)]
    pub struct RequestContext {
        /// `(phase, exclusive nanos)` in recording order.
        pub segments: Vec<(&'static str, u64)>,
        /// Corpus the request resolved to, when known.
        pub corpus: Option<String>,
    }

    thread_local! {
        static CURRENT: RefCell<Option<RequestContext>> = const { RefCell::new(None) };
    }

    /// Opens a fresh context on this thread, replacing any leftover one.
    pub fn begin() {
        CURRENT.with(|current| {
            *current.borrow_mut() = Some(RequestContext::default());
        });
    }

    /// Appends a segment to the open context, if any.
    pub fn note_segment(phase: &'static str, nanos: u64) {
        CURRENT.with(|current| {
            if let Some(context) = current.borrow_mut().as_mut() {
                context.segments.push((phase, nanos));
            }
        });
    }

    /// Records which corpus the in-flight request resolved to.
    pub fn note_corpus(name: &str) {
        CURRENT.with(|current| {
            if let Some(context) = current.borrow_mut().as_mut() {
                context.corpus = Some(name.to_string());
            }
        });
    }

    /// Closes and returns the context (`None` if none was open).
    pub fn take() -> Option<RequestContext> {
        CURRENT.with(|current| current.borrow_mut().take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_context_collects_segments_and_corpus() {
        request::begin();
        record_phase("test_ctx_phase", 1_500);
        request::note_corpus("pt-tiny");
        let context = request::take().expect("context open");
        assert_eq!(context.segments, vec![("test_ctx_phase", 1_500)]);
        assert_eq!(context.corpus.as_deref(), Some("pt-tiny"));
        assert!(request::take().is_none(), "take closes the context");
    }

    #[test]
    fn global_registry_is_shared() {
        let counter = registry().counter("wm_lib_test_total", "shared");
        counter.inc();
        assert!(registry().render().contains("wm_lib_test_total"));
    }
}
