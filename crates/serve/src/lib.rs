//! Online serving front end for the TreePi engine.
//!
//! This crate turns the batch-oriented [`treepi::Engine`] into a
//! long-running network service (DESIGN.md, "Online serving"):
//!
//! - [`protocol`] — the length-prefixed wire format: tagged query /
//!   insert / remove / shutdown requests, graphs in gSpan text form.
//! - [`cache`] — an LRU result cache keyed on the query as it was sent,
//!   invalidated wholesale whenever the index's maintenance epoch
//!   moves (§7.1 insert/remove), so a cached answer can never outlive
//!   the database state it was computed against.
//! - [`server`] — a single-threaded event loop (vendored `minipoll`,
//!   level-triggered epoll) that admits queries into a **bounded** queue,
//!   dispatches whatever is queued as one micro-batch each time round,
//!   and runs it on the engine's persistent worker pool. When the queue
//!   is full, requests are refused with an explicit Busy response — the
//!   server never buffers unboundedly.
//! - [`client`] / [`loadgen`] — a blocking client and an open/closed-loop
//!   load generator with a Zipf skew knob, reporting p50/p95/p99 from the
//!   obs histograms.
//! - [`telemetry`] — the loop's forensics: a slow-query log captures
//!   per-stage timelines of queries whose verify stage exceeds a
//!   threshold, a [`LoopWatchdog`] trips on event-loop iterations that
//!   hold the thread past a threshold, and an optional [`AccessLog`]
//!   writes one JSONL record per request. The `STATS` admin op and
//!   `/metrics` serve the running server's metrics as one live snapshot
//!   without pausing the loop; the same numbers reach the registry once,
//!   at shutdown.
//! - [`http`] — a dependency-free HTTP/1.0 GET responder riding the same
//!   event loop as a second listener (DESIGN.md, "Monitoring surface"):
//!   `/metrics` renders the live snapshot as Prometheus text
//!   (`obs::prom`), `/healthz` reports `ok` / `degraded` / `draining`,
//!   and `/slowz` serves the current slow-query ring as Chrome trace
//!   JSON without waiting for shutdown.
//!
//! Metrics live in the `serve.*` / `cache.*` / `maint.*` / `loadgen.*`
//! namespaces, which are exempt from the determinism contract (like
//! `engine.*` / `pool.*`): their values depend on arrival timing, not on
//! the algorithm.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use cache::QueryCache;
pub use client::Client;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{Request, RequestBody, Response, ResponseBody};
pub use server::{ServeConfig, ServeReport, Server};
pub use telemetry::{AccessLog, AccessRecord, LoopWatchdog, ServeTelemetry, SlowQueryLog};
