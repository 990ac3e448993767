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
//! - [`server`] — the socket shell: one thread, the vendored `minipoll`
//!   selector, and a sans-I/O core that admits queries into a **bounded**
//!   queue, runs whatever is queued as one micro-batch on the engine's
//!   persistent worker pool, and refuses with an explicit Busy response
//!   when the queue is full. A seeded simulation drives the same core
//!   with virtual clients and a virtual clock.
//! - [`client`] / [`loadgen`] — a blocking client and an open/closed-loop
//!   load generator with a Zipf skew knob, reporting p50/p95/p99 from the
//!   obs histograms.
//! - [`telemetry`] — the loop's forensics: a slow-query log of per-stage
//!   timelines, a [`LoopWatchdog`] for iterations that hold the thread,
//!   and an optional JSONL [`AccessLog`]. The `STATS` op and `/metrics`
//!   serve one live snapshot without pausing the loop.
//! - [`http`] — a dependency-free HTTP/1.0 GET responder on the same loop
//!   (DESIGN.md, "Monitoring surface"): `/metrics`, `/healthz`, `/slowz`.
//!
//! Metrics live in the `serve.*` / `cache.*` / `maint.*` / `loadgen.*`
//! namespaces, exempt from the determinism contract: their values depend
//! on arrival timing, not on the algorithm.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod loadgen;
mod machine;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use cache::QueryCache;
pub use client::Client;
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{Request, RequestBody, Response, ResponseBody};
pub use server::{ServeConfig, ServeReport, Server};
pub use telemetry::{AccessLog, AccessRecord, LoopWatchdog, ServeTelemetry, SlowQueryLog};
