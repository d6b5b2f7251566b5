//! The JSON-over-HTTP protocol types of `matchd`.
//!
//! Every endpoint consumes and produces one of the structs below, so the
//! wire format is defined in exactly one place and shared by the server,
//! the [`crate::client::MatchClient`], the benchmark harness and the
//! integration tests. See `docs/ARCHITECTURE.md` ("Serving") for the
//! endpoint table.

use serde::{Deserialize, Serialize};

use crate::registry::{CorpusSpec, RegistryStats};
use wiki_corpus::{Article, Language};
use wiki_query::{Answer, CQuery};

/// The standard error envelope of every non-2xx response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorBody {
    /// Human-readable description of what went wrong.
    pub error: String,
}

/// `GET /healthz` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HealthResponse {
    /// Always `"ok"` when the server answers at all.
    pub status: String,
    /// Service name (`"matchd"`).
    pub service: String,
    /// Crate version.
    pub version: String,
}

/// `POST /align` request: run the engine's WikiMatch configuration over one
/// type (or all types when `type_id` is omitted).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlignRequest {
    /// Registry name of the corpus.
    pub corpus: String,
    /// Entity type to align; `None` aligns every type of the dataset.
    pub type_id: Option<String>,
}

/// `POST /matchers` request: run a registered [`wikimatch::SchemaMatcher`]
/// by name over one type (or all types).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatcherRequest {
    /// Registry name of the corpus.
    pub corpus: String,
    /// Matcher name or label as listed by `GET /matchers`
    /// (case-insensitive; e.g. `"Bouma"`, `"LSI top-3"`).
    pub matcher: String,
    /// Entity type to align; `None` aligns every type of the dataset.
    pub type_id: Option<String>,
}

/// Cross-language pairs of one entity type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypePairs {
    /// Entity type identifier.
    pub type_id: String,
    /// `(foreign attribute, English attribute)` correspondences.
    pub pairs: Vec<(String, String)>,
}

/// Response of `POST /align` and `POST /matchers`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlignResponse {
    /// Corpus the alignment ran over.
    pub corpus: String,
    /// Label of the matcher that produced the pairs.
    pub matcher: String,
    /// Per-type correspondences, in dataset type order.
    pub alignments: Vec<TypePairs>,
}

/// `POST /translate-query` request.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TranslateRequest {
    /// Registry name of the corpus.
    pub corpus: String,
    /// The c-query in the corpus' foreign language, in the workspace's
    /// textual form, e.g. `filme(direção=?, país="Estados Unidos")`.
    pub query: String,
    /// When > 0, also answer the translated query against the English
    /// edition and return the top-`k` candidates. Defaults to 0.
    pub top_k: Option<usize>,
}

/// Response of `POST /translate-query`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TranslateResponse {
    /// Corpus the translation ran over.
    pub corpus: String,
    /// The parsed source query.
    pub source: CQuery,
    /// The translated English query (untranslatable constraints relaxed).
    pub translated: CQuery,
    /// Constraints translated successfully.
    pub translated_constraints: usize,
    /// Constraints dropped because no correspondence was available.
    pub relaxed_constraints: usize,
    /// Top-`k` answers over the English edition (empty when `top_k` is 0).
    pub answers: Vec<Answer>,
}

/// `GET /corpora` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorporaResponse {
    /// The registered corpora, in registration order.
    pub corpora: Vec<CorpusSpec>,
}

/// `GET /matchers` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchersResponse {
    /// Labels accepted by `POST /matchers`.
    pub matchers: Vec<String>,
}

/// Request body of `POST /warm` and `POST /evict`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusRequest {
    /// Registry name of the corpus.
    pub corpus: String,
}

/// `POST /warm` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WarmResponse {
    /// Corpus that was warmed.
    pub corpus: String,
    /// Per-type artifact sets now cached (every type of the dataset).
    pub cached_types: usize,
}

/// `POST /evict` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvictResponse {
    /// Corpus the eviction targeted.
    pub corpus: String,
    /// Whether a resident session was actually dropped.
    pub evicted: bool,
}

/// `POST /corpora/{name}/entities` request: insert-or-update entities.
///
/// Each article upserts by its `(language, title)` key — a live article is
/// replaced in place, an unknown key is inserted. The `id` field is
/// assigned by the corpus and ignored on the way in (send `0`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutateRequest {
    /// Articles to upsert, applied in order as one atomic delta.
    pub entities: Vec<Article>,
}

/// One `(language, title)` key, as deleted by
/// `DELETE /corpora/{name}/entities`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityKey {
    /// Language edition of the article.
    pub language: Language,
    /// Exact article title.
    pub title: String,
}

/// `DELETE /corpora/{name}/entities` request: tombstone entities.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeleteRequest {
    /// Keys to remove, applied in order as one atomic delta (unknown keys
    /// are no-ops and simply don't count under `removed`).
    pub entities: Vec<EntityKey>,
}

/// Response of `POST` / `DELETE` on `/corpora/{name}/entities`: what the
/// delta did to the live session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MutateResponse {
    /// Corpus the mutation targeted.
    pub corpus: String,
    /// Articles newly inserted.
    pub inserted: usize,
    /// Live articles replaced in place.
    pub updated: usize,
    /// Articles tombstoned.
    pub removed: usize,
    /// Cached per-type artifact sets incrementally patched (cached types
    /// the delta provably cannot reach carry over untouched and are not
    /// counted; uncached types stay lazy and build against the mutated
    /// corpus on first use).
    pub types_patched: usize,
    /// Similarity pairs recomputed across the patched types; every other
    /// pair kept its exact bits.
    pub rows_recomputed: u64,
    /// Corpus fingerprint before the delta, as 16 hex digits (the journal
    /// record's parent).
    pub fingerprint_before: String,
    /// Corpus fingerprint after the delta, as 16 hex digits.
    pub fingerprint: String,
}

/// Counters of the HTTP layer itself (one per server, not per corpus).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerCounters {
    /// Connections accepted off the listener and queued for a worker
    /// (shed connections count under `rejected` instead).
    pub accepted: u64,
    /// Requests answered (any status).
    pub handled: u64,
    /// Connections rejected with 503 because the request queue was full.
    pub rejected: u64,
    /// Requests answered 503 by admission control because their measured
    /// queue wait exceeded the `--shed-queue-ms` budget (counted separately
    /// from queue-full `rejected`).
    pub shed: u64,
    /// Requests answered 504 because the `--deadline-ms` compute deadline
    /// expired between pipeline phases.
    pub deadline_expired: u64,
    /// Connections dropped outside the normal request/response flow:
    /// accept errors, failed stream clones, mid-request read failures and
    /// response write failures (`/metrics` splits these by `reason`).
    pub connections_dropped: u64,
}

/// `GET /readyz` response (also the degraded 503 body).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReadyResponse {
    /// `"ready"` (200) or `"degraded"` (503).
    pub status: String,
    /// Why readiness degraded (empty when ready): e.g.
    /// `"shed 3 requests in the last 5s"` or `"queue 64/64"`.
    pub reason: String,
    /// Connections currently waiting in the queue.
    pub queue_len: u64,
    /// Bound of the pending-connection queue.
    pub queue_depth: usize,
    /// Requests shed by admission control since startup.
    pub shed: u64,
}

/// Structured body of a 504 deadline expiry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeadlineExceededBody {
    /// The standard error envelope text.
    pub error: String,
    /// The configured per-request budget.
    pub deadline_ms: u64,
    /// Time actually elapsed when the deadline check fired.
    pub elapsed_ms: u64,
    /// Pipeline phase boundary that observed the expiry
    /// (`"lookup"`, `"compute"`, `"serialize"`).
    pub phase: String,
}

/// `POST /failpoints` request: arm failpoints from a spec string (see
/// `wiki_fault` for the `name=action[*T][/E]` syntax). Test-only; the
/// endpoint answers 403 unless matchd runs with `--enable-failpoints`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailpointsRequest {
    /// Spec string, e.g. `"journal.append.write=torn(12)*1"`.
    pub spec: String,
}

/// One armed failpoint, as listed by `GET /failpoints`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailpointStatus {
    /// Failpoint name.
    pub name: String,
    /// Re-parseable armed spec, e.g. `"torn(12)*1"`.
    pub spec: String,
    /// Hook evaluations observed while armed.
    pub hits: u64,
    /// Times the action actually fired.
    pub fired: u64,
}

/// Response of `GET`/`POST`/`DELETE /failpoints`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailpointsResponse {
    /// Every currently armed failpoint.
    pub points: Vec<FailpointStatus>,
}

/// `GET /stats` response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsResponse {
    /// HTTP-layer counters.
    pub server: ServerCounters,
    /// Seconds since the server started.
    pub uptime_secs: u64,
    /// Worker threads serving requests.
    pub workers: usize,
    /// Bound of the pending-connection queue.
    pub queue_depth: usize,
    /// Connections currently waiting in the queue (a point-in-time gauge;
    /// `queue_depth` is the limit).
    pub queue_len: u64,
    /// Registry snapshot (per-corpus hits/misses/builds/evictions and
    /// engine counters).
    pub registry: RegistryStats,
}
