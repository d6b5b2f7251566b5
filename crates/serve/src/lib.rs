//! # wiki-serve
//!
//! The serving subsystem of the WikiMatch reproduction: a long-lived,
//! concurrent matching service over the workspace's [`wikimatch`] engine
//! sessions, answering JSON over hand-rolled HTTP/1.1 on `std::net` only
//! (the build environment has no network crates).
//!
//! Three layers, bottom-up:
//!
//! 1. [`registry`] — a [`registry::Registry`] of named corpora
//!    that lazily builds and shares `Arc<MatchEngine>` sessions behind an
//!    LRU with configurable capacity, with warm/evict/mutate/stats
//!    operations. Concurrent requests against the same cold corpus
//!    **coalesce onto one build** instead of stampeding, at both the
//!    session level and (inside the engine) the per-type artifact level.
//!    Mutations are applied through the engine's incremental patcher and
//!    journaled (in memory and, with a snapshot directory, write-ahead on
//!    disk), so live edits survive eviction and restarts.
//! 2. [`http`] + [`protocol`] + [`server`] — a fixed worker-thread pool
//!    draining a bounded connection queue, serving
//!    `align` / `matchers` / `translate-query` / `healthz` / `stats` (and
//!    `corpora` / `warm` / `evict` / `shutdown`, plus
//!    `POST`/`DELETE /corpora/{name}/entities` for live mutations) with
//!    graceful shutdown.
//! 3. [`client`] — a small blocking keep-alive client, shared by the
//!    benchmark harness (`perfbench`) and the integration tests.
//!
//! The crate's binary, **`matchd`**, is the daemon; it registers the
//! synthetic scale tiers (`pt-tiny` … `vi-large`) and serves them out of
//! the box.
//!
//! ```no_run
//! use std::sync::Arc;
//! use wiki_serve::registry::{CorpusSpec, Registry};
//! use wiki_serve::server::{MatchServer, ServerConfig};
//! use wikimatch::ComputeMode;
//!
//! let registry = Arc::new(Registry::new(2, ComputeMode::default()));
//! registry.register_all(CorpusSpec::scale_tiers(&["tiny", "medium"]));
//! let server = MatchServer::start(registry, ServerConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A long-lived daemon must not die on a recoverable error: every panic
// path in production code is either removed or explicitly allowed with a
// written justification. Tests opt back in (a failed test *should* panic).
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod http;
pub mod matchers;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::{ClientResponse, MatchClient};
pub use matchers::MatcherRegistry;
pub use registry::{CorpusSpec, Registry, RegistryError, RegistryStats};
pub use server::{MatchServer, ServerConfig};
