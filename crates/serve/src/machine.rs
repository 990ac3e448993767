//! The serving core: every decision the server makes, and none of its
//! system calls. [`Machine`] owns the connection slots and their buffers,
//! frame and HTTP parsing, admission, batching, the result cache,
//! responses, the access and slow-query logs, the stall watchdog and the
//! metrics. It never touches a socket or reads the wall clock: a shell
//! accepts, reads into [`Machine::read_space`], writes from
//! [`Machine::unsent`] and hands in the clock — `crate::server` over
//! sockets, and the seeded simulation in this module's tests over virtual
//! clients and a virtual clock.
//!
//! - **Admission.** A decoded query is answered from the result cache when
//!   it can be; otherwise it joins a **bounded** queue, and a full queue
//!   answers `Busy` at once (`serve.shed`). Read and write buffers are
//!   capped too, so memory is `O(max_conns · buffer caps + queue_cap ·
//!   query)`.
//! - **Micro-batching.** Whatever is queued when the shell comes round
//!   runs as one [`treepi::Engine::query_batch_pinned`] call of at most
//!   [`ServeConfig::max_batch`] queries, recorded into the loop shard;
//!   nothing waits for a batch to fill. Queries of one batch with the same
//!   cache key run once.
//! - **Maintenance.** An insert or remove applies when it is decoded and
//!   is acked after, so a query sent after the ack sees it; admission
//!   drops the cache whenever the engine's epoch moved.
//! - **End of file.** A connection closes when its read side ends (see
//!   [`crate::protocol`]): its queued queries are dropped, logged
//!   `dropped`, and never sent to the next client in its slot.
//!
//! Which queries share a batch depends on arrival timing, so `serve.*` and
//! `cache.*` are exempt from the determinism contract; answers are not.
//! `funnel.queries` is [`ServeReport::served`] less the queries that
//! shared a run. **One owner per number:** [`ServeReport`], the cache, the
//! engine's `maint_stats`, the watchdog and the logs keep the counts, and
//! [`Machine::record_owned`] is the one function that writes them as
//! metrics — for STATS and `/metrics` over a registry snapshot, and into
//! the loop shard once at [`Machine::finish`].

use crate::cache::{query_key, QueryCache};
use crate::http;
use crate::protocol::{self, Request, RequestBody, Response, ResponseBody, MAX_FRAME};
use crate::server::{ServeConfig, ServeReport};
use crate::telemetry::{AccessRecord, AccessStages, LoopWatchdog, ServeTelemetry};
use graph_core::Graph;
use obs::{Counter, Gauge, Span};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use treepi::Engine;

/// Per-connection cap on retained write-flush markers; responses beyond
/// it (an already-pathological backlog) simply skip the
/// `serve.write_wait` observation.
const WMARK_CAP: usize = 1024;
/// A shell reads at most this many bytes into a connection per readable
/// event; level triggering re-notifies, and the cap keeps one firehose
/// client from holding the loop.
pub(crate) const READ_QUANTUM: usize = 256 << 10;
/// The read space [`Machine::read_space`] offers per call.
const READ_CHUNK: usize = 16 << 10;
const TEXT: &str = "text/plain; charset=utf-8";
/// A connection whose client stops reading is dropped once a flush
/// leaves more than this many response bytes unsent.
pub(crate) const WBUF_CAP: usize = 8 << 20;

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn dur_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// Which protocol a connection speaks, decided by the listener that
/// accepted it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum ConnKind {
    /// The length-prefixed wire protocol ([`crate::protocol`]).
    #[default]
    Wire,
    /// One-shot HTTP monitoring requests ([`crate::http`]).
    Http,
}

#[derive(Default)]
struct Conn {
    kind: ConnKind,
    /// Received, unparsed bytes are `rbuf[..rlen]`; the rest is read
    /// space, zeroed once when the buffer grows.
    rbuf: Vec<u8>,
    rlen: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Close once the write buffer drains (HTTP responses are one-shot).
    close_after_flush: bool,
    /// Bytes ever enqueued on `wbuf` (monotone — survives the buffer's
    /// clear-on-drain reset, unlike `wbuf.len()`).
    wtotal: u64,
    /// `(wtotal watermark, enqueue instant)` per response still in
    /// flight; popped into `serve.write_wait` as flushes pass them.
    wmarks: VecDeque<(u64, Instant)>,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

struct PendingQuery {
    conn: usize,
    tag: u32,
    key: Option<Box<[u32]>>,
    graph: Graph,
    /// When the request frame was decoded.
    recv: Instant,
    /// When the query entered the admission queue.
    admitted: Instant,
    /// Request frame size (length prefix included), for the access log.
    bytes_in: u64,
}

/// The serving state machine (module docs). Time reaches it only through
/// `clock`, which the shell supplies.
pub(crate) struct Machine<'e> {
    config: ServeConfig,
    engine: &'e Engine,
    registry: &'e obs::Registry,
    clock: &'e dyn Fn() -> Instant,
    cache: QueryCache,
    shard: obs::Shard,
    telemetry: &'e mut ServeTelemetry,
    watchdog: LoopWatchdog,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    pending: VecDeque<PendingQuery>,
    /// Connections given output or closed since the shell last looked.
    touched: Vec<usize>,
    report: ServeReport,
    shutdown: bool,
}

impl<'e> Machine<'e> {
    pub(crate) fn new(
        config: ServeConfig,
        engine: &'e Engine,
        registry: &'e obs::Registry,
        telemetry: &'e mut ServeTelemetry,
        clock: &'e dyn Fn() -> Instant,
    ) -> Self {
        Machine {
            cache: QueryCache::new(config.cache_cap, engine.epoch()),
            watchdog: LoopWatchdog::new(config.stall_threshold),
            config,
            engine,
            registry,
            clock,
            shard: registry.shard(),
            telemetry,
            conns: Vec::new(),
            free: Vec::new(),
            pending: VecDeque::new(),
            touched: Vec::new(),
            report: ServeReport::default(),
            shutdown: false,
        }
    }

    /// A work period starts: the shell's wait for events returned.
    pub(crate) fn begin_work(&mut self) {
        self.watchdog.begin_work((self.clock)());
    }

    /// A work period ends: the shell is about to wait for events.
    pub(crate) fn end_work(&mut self) {
        self.watchdog.end_work((self.clock)());
    }

    /// Whether a shutdown request (or `max_requests`) has ended the run;
    /// the shell stops once the queue is empty.
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    pub(crate) fn is_open(&self, idx: usize) -> bool {
        self.conns.get(idx).is_some_and(Option::is_some)
    }

    /// A connection was accepted: the slot it takes, or `None` when
    /// `max_conns` are open (the shell drops it; counted as refused).
    pub(crate) fn open(&mut self, kind: ConnKind) -> Option<usize> {
        if self.conns.len() - self.free.len() >= self.config.max_conns {
            self.report.conns_refused += 1;
            return None;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.conns[idx] = Some(Conn {
            kind,
            ..Conn::default()
        });
        Some(idx)
    }

    /// The shell could not set up the socket of the connection just
    /// opened in `idx`: free the slot and count the refusal.
    pub(crate) fn refuse(&mut self, idx: usize) {
        self.close(idx);
        self.report.conns_refused += 1;
    }

    /// Where the shell reads `idx`'s next bytes; then [`Machine::received`].
    pub(crate) fn read_space(&mut self, idx: usize) -> Option<&mut [u8]> {
        let conn = self.conns.get_mut(idx)?.as_mut()?;
        if conn.rbuf.len() < conn.rlen + READ_CHUNK {
            conn.rbuf.resize(conn.rlen + READ_CHUNK, 0);
        }
        Some(&mut conn.rbuf[conn.rlen..])
    }

    /// `n` bytes were read into [`Machine::read_space`] of `idx`: parse and
    /// answer every complete request they finish.
    pub(crate) fn received(&mut self, idx: usize, n: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        conn.rlen += n;
        match conn.kind {
            ConnKind::Wire => self.parse_frames(idx),
            ConnKind::Http => self.parse_http(idx),
        }
    }

    /// The bytes queued on `idx` that the client has not been sent.
    pub(crate) fn unsent(&self, idx: usize) -> &[u8] {
        let conn = self.conns.get(idx).and_then(Option::as_ref);
        conn.map_or(&[], |c| &c.wbuf[c.wpos..])
    }

    /// The shell's flush of `idx` wrote the first `n` bytes of
    /// [`Machine::unsent`] and the socket took no more. A flush that
    /// leaves over [`WBUF_CAP`] unsent drops the connection.
    pub(crate) fn wrote(&mut self, idx: usize, n: usize) {
        let now = (self.clock)();
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        conn.wpos += n;
        // Responses fully on the wire: their enqueue→flush latency is the
        // write-wait component of the decomposition.
        let flushed = conn.wtotal - conn.unsent() as u64;
        while let Some(&(mark, at)) = conn.wmarks.front() {
            if mark > flushed {
                break;
            }
            conn.wmarks.pop_front();
            self.shard
                .observe(Span::SERVE_WRITE_WAIT, now.saturating_duration_since(at));
        }
        if conn.unsent() > WBUF_CAP {
            // Slow consumer: the peer stopped reading and what the socket
            // refused hit the cap. Count the drop — a silent disconnect
            // here looks like a network failure to the operator.
            self.shard.add(Counter::SERVE_SLOW_CONSUMER_DROP, 1);
            self.close(idx);
        } else if conn.unsent() == 0 {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.close_after_flush {
                self.close(idx);
            }
        }
    }

    /// The next connection given output or closed since the last call:
    /// the shell flushes it, or drops its socket when it is closed.
    pub(crate) fn next_touched(&mut self) -> Option<usize> {
        self.touched.pop()
    }

    fn touch(&mut self, idx: usize) {
        if self.touched.last() != Some(&idx) {
            self.touched.push(idx);
        }
    }

    /// Close connection `idx` and drop the queries it left queued, logging
    /// each as `dropped`: nobody is left to read their answers, and the
    /// slot goes to the next connection accepted, which must not receive
    /// them.
    pub(crate) fn close(&mut self, idx: usize) {
        if self.conns.get_mut(idx).and_then(Option::take).is_none() {
            return;
        }
        self.free.push(idx);
        self.touch(idx);
        let mut dropped = Vec::new();
        self.pending.retain(|p| {
            let keep = p.conn != idx;
            if !keep {
                dropped.push((p.tag, p.bytes_in));
            }
            keep
        });
        for (tag, bytes_in) in dropped {
            self.log_unanswered(idx, tag, "query", "dropped", bytes_in);
        }
    }

    /// The run's totals: the loop's own tallies, with cache hits and
    /// stalls read from the cache and the watchdog that count them.
    pub(crate) fn report(&self) -> ServeReport {
        ServeReport {
            cache_hits: self.cache.hits(),
            stalls: self.watchdog.stalls(),
            ..self.report
        }
    }

    /// End the run: flush the access log so its error count is final,
    /// write the owners' numbers into the loop shard and absorb it into
    /// the registry, once.
    pub(crate) fn finish(self) -> ServeReport {
        if let Some(access) = self.telemetry.access.as_mut() {
            access.flush();
        }
        self.record_owned(&self.shard);
        let report = self.report();
        self.registry.absorb(self.shard);
        report
    }

    /// Write every number the loop's owners hold into `out`: the
    /// [`ServeReport`] tallies (stalls from the watchdog), the slow-query
    /// log's captures, the access log's write errors, the cache's counts
    /// and the engine's `maint.*` totals. The only writer of these names
    /// (see the module doc). A `serve.*` event counter appears with its
    /// first event; refused connections, the cache and maintenance
    /// counters are always present, and the access-log error counter
    /// whenever a log is open.
    fn record_owned(&self, out: &obs::Shard) {
        let r = self.report();
        for (c, v) in [
            (Counter::SERVE_REQUESTS, r.requests),
            (Counter::SERVE_QUERIES, r.queries),
            (Counter::SERVE_BATCHED_QUERIES, r.served),
            (Counter::SERVE_SHED, r.shed),
            (Counter::SERVE_BATCHES, r.batches),
            (Counter::SERVE_ERRORS, r.errors),
            (Counter::SERVE_PROTO_ERROR, r.proto_errors),
            (Counter::SERVE_HTTP_REQUESTS, r.http_requests),
            (Counter::SERVE_LOOP_STALL_COUNT, r.stalls),
            (Counter::SERVE_SLOW_QUERIES, self.telemetry.slow.seen()),
        ] {
            if v > 0 {
                out.add(c, v);
            }
        }
        if r.stalls > 0 {
            out.set_gauge(
                Gauge::SERVE_LOOP_MAX_STALL_US,
                dur_us(self.watchdog.max_stall()),
            );
        }
        out.add(Counter::SERVE_CONNS_REFUSED, r.conns_refused);
        out.set_gauge(Gauge::SERVE_QUEUE_PEAK, r.queue_peak as u64);
        if let Some(access) = &self.telemetry.access {
            out.add(
                Counter::SERVE_ACCESS_LOG_WRITE_ERRORS,
                access.write_errors(),
            );
        }
        out.add(Counter::CACHE_HIT, self.cache.hits());
        out.add(Counter::CACHE_MISS, self.cache.misses());
        out.add(Counter::CACHE_EVICTIONS, self.cache.evictions());
        out.add(Counter::CACHE_INVALIDATIONS, self.cache.invalidations());
        out.set_gauge(Gauge::CACHE_ENTRIES, self.cache.len() as u64);
        let maint = self.engine.maint_stats();
        out.add(Counter::MAINT_APPLIED, maint.applied);
        out.add(Counter::MAINT_SNAPSHOT_SWAPS, maint.snapshot_swaps);
        out.add(Counter::MAINT_REMINE_TRIGGERS, maint.remine_triggers);
        out.add(Counter::MAINT_REMINES_COMPLETED, maint.remines_completed);
        out.set_gauge(Gauge::MAINT_REPAIRS_SINCE_MINE, maint.repairs_since_mine);
    }

    /// The live snapshot served by STATS and `/metrics`: the registry's
    /// absorbed totals, the loop shard (peeked, not drained), the owners'
    /// numbers, and the levels only a live snapshot has — queue depth and,
    /// with the tracking allocator, heap bytes.
    fn live_snapshot(&self) -> obs::MetricSet {
        let owned = obs::Shard::detached(true);
        self.record_owned(&owned);
        let mut set = self.registry.snapshot();
        set.merge(&self.shard.peek());
        set.merge(&owned.into_set());
        set.set_gauge(Gauge::SERVE_QUEUE_DEPTH, self.pending.len() as u64);
        if obs::alloc::installed() {
            set.set_gauge(Gauge::MEM_ALLOC_LIVE_BYTES, obs::alloc::live_bytes());
            set.set_gauge(Gauge::MEM_ALLOC_PEAK_BYTES, obs::alloc::peak_bytes());
        }
        set
    }

    /// Run one micro-batch of at most `max_batch` queued queries and queue
    /// their answers.
    pub(crate) fn run_batch(&mut self) {
        // One `maint.remine` span per re-mine published since the last batch.
        for rep in self.engine.drain_remine_reports() {
            self.shard.observe(Span::MAINT_REMINE, rep.duration);
        }
        let n = self.pending.len().min(self.config.max_batch.max(1));
        let (metas, graphs): (Vec<_>, Vec<Graph>) = self
            .pending
            .drain(..n)
            .map(|p| {
                (
                    (p.conn, p.tag, p.key, p.recv, p.admitted, p.bytes_in),
                    p.graph,
                )
            })
            .unzip();
        // One run per distinct cache key: `run_of[i]` is the run that
        // answers request `i`, runs numbered by first request, and `users`
        // counts the requests each run answers.
        let mut run_of = Vec::with_capacity(n);
        let mut users: Vec<usize> = Vec::with_capacity(n);
        let mut runs: Vec<Graph> = Vec::with_capacity(n);
        {
            let mut first: HashMap<&[u32], usize> = HashMap::with_capacity(n);
            for (g, (_, _, key, ..)) in graphs.into_iter().zip(&metas) {
                let fresh = runs.len();
                let run = key
                    .as_deref()
                    .map_or(fresh, |key| *first.entry(key).or_insert(fresh));
                if run == fresh {
                    runs.push(g);
                    users.push(0);
                }
                users[run] += 1;
                run_of.push(run);
            }
        }
        let dispatched = (self.clock)();
        let (mut results, epoch) = {
            let _span = self.shard.span(Span::SERVE_BATCH_EXEC);
            self.engine.query_batch_pinned(&runs, &self.shard)
        };
        let residence = (self.clock)().saturating_duration_since(dispatched);
        let seq_base = self.report.served;
        self.report.batches += 1;
        self.report.served += n as u64;
        // Results belong to the batch's pinned epoch, at or past the
        // cache's (read later, on this thread): syncing to it empties the
        // cache of older answers before these fill it. A publication made
        // while the batch ran is caught by the next admission's sync.
        self.cache.sync_epoch(epoch);
        for (i, ((conn, tag, key, recv, admitted, bytes_in), run)) in
            metas.into_iter().zip(run_of).enumerate()
        {
            // The run's last request takes its answer, the others copy it.
            users[run] -= 1;
            let r = &mut results[run];
            let matches = if users[run] == 0 {
                std::mem::take(&mut r.matches)
            } else {
                r.matches.clone()
            };
            // Admission→dispatch is queue wait, the query's own stages its
            // execution share, the rest of its batch residence batch wait:
            // together at most `serve.request`, whose clock runs on below.
            let queue_wait = dispatched.saturating_duration_since(admitted);
            let exec_share = r.stats.total();
            let batch_wait = residence.saturating_sub(exec_share);
            self.shard.observe(Span::SERVE_QUEUE_WAIT, queue_wait);
            self.shard.observe(Span::SERVE_BATCH_WAIT, batch_wait);
            self.shard.observe(Span::SERVE_EXEC_SHARE, exec_share);
            if self.telemetry.slow.is_enabled() {
                self.telemetry.slow.record(
                    seq_base + i as u64,
                    &r.stats,
                    r.finished,
                    &[
                        ("serve.queue_wait_ns", dur_ns(queue_wait)),
                        ("serve.batch_wait_ns", dur_ns(batch_wait)),
                    ],
                );
            }
            if let Some(key) = key {
                self.cache.insert(key, matches.clone());
            }
            let request = (self.clock)().saturating_duration_since(admitted);
            self.shard.observe(Span::SERVE_REQUEST, request);
            let bytes_out = self.respond(conn, tag, ResponseBody::Matches(matches));
            self.log_access(AccessRecord {
                conn,
                tag,
                op: "query",
                outcome: "ok",
                bytes_in,
                bytes_out,
                cache_hit: Some(false),
                epoch,
                stages: Some(AccessStages {
                    admit_us: dur_us(admitted.saturating_duration_since(recv)),
                    queue_wait_us: dur_us(queue_wait),
                    batch_wait_us: dur_us(batch_wait),
                    exec_us: dur_us(exec_share),
                }),
            });
        }
    }

    fn log_access(&mut self, rec: AccessRecord<'_>) {
        if let Some(access) = self.telemetry.access.as_mut() {
            access.log(&rec);
        }
    }

    /// Log a request that got no response: a dropped query, or a frame
    /// that broke the protocol.
    fn log_unanswered(&mut self, conn: usize, tag: u32, op: &str, outcome: &str, bytes_in: u64) {
        if self.telemetry.access.is_some() {
            self.log_access(AccessRecord {
                conn,
                tag,
                op,
                outcome,
                bytes_in,
                bytes_out: 0,
                cache_hit: None,
                epoch: self.engine.epoch(),
                stages: None,
            });
        }
    }

    /// Parse and answer one HTTP monitoring request buffered on `idx`.
    /// One-shot semantics: the response closes the connection once its
    /// bytes drain, and bytes after the request head are discarded.
    fn parse_http(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().expect("open");
        let parsed = match http::parse_request(&conn.rbuf[..conn.rlen]) {
            _ if conn.close_after_flush => http::Parse::Incomplete,
            http::Parse::Incomplete => return,
            done => done,
        };
        conn.rlen = 0;
        let http::Parse::Ok(req, _) = parsed else {
            let http::Parse::Bad(why) = parsed else {
                return;
            };
            return self.answer_http(idx, 400, "Bad Request", TEXT, format!("{why}\n").into());
        };
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/metrics") => {
                let body = obs::prom::render(&self.live_snapshot()).into();
                self.answer_http(idx, 200, "OK", obs::prom::CONTENT_TYPE, body)
            }
            ("GET", "/healthz") => {
                let (status, reason, body) = self.health();
                self.answer_http(idx, status, reason, "application/json", body.into())
            }
            ("GET", "/slowz") => {
                let body = self.telemetry.slow.render_chrome_json().into();
                self.answer_http(idx, 200, "OK", "application/json", body)
            }
            ("GET", _) => {
                let body = b"not found (try /metrics, /healthz, /slowz)\n".to_vec();
                self.answer_http(idx, 404, "Not Found", TEXT, body)
            }
            _ => {
                let body = b"only GET is supported\n".to_vec();
                self.answer_http(idx, 405, "Method Not Allowed", TEXT, body)
            }
        }
    }

    fn answer_http(&mut self, idx: usize, status: u16, reason: &str, ctype: &str, body: Vec<u8>) {
        self.report.http_requests += 1;
        self.send(idx, true, |w| {
            w.extend(http::response(status, reason, ctype, &body))
        });
    }

    /// The `/healthz` verdict: `draining` once shutdown has begun,
    /// `degraded` while the watchdog's most recent stall is fresh, `ok`
    /// otherwise. Non-`ok` states use 503 so load-balancer checks fail
    /// without parsing the body.
    fn health(&self) -> (u16, &'static str, String) {
        let (status, reason, state) = if self.shutdown {
            (503, "Service Unavailable", "draining")
        } else if self.watchdog.degraded((self.clock)()) {
            (503, "Service Unavailable", "degraded")
        } else {
            (200, "OK", "ok")
        };
        let body = format!(
            "{{\"status\": \"{state}\", \"epoch\": {}, \"queue_depth\": {}, \
             \"queue_cap\": {}, \"conns\": {}, \"stall_count\": {}, \
             \"max_stall_us\": {}}}\n",
            self.engine.epoch(),
            self.pending.len(),
            self.config.queue_cap,
            self.conns.len() - self.free.len(),
            self.watchdog.stalls(),
            dur_us(self.watchdog.max_stall()),
        );
        (status, reason, body)
    }

    /// Decode and answer every complete frame buffered on `idx`, then move
    /// the partial frame left over to the front of the buffer. The
    /// leftover is bounded: `take_frame` rejects declared lengths beyond
    /// [`MAX_FRAME`], so at most `4 + MAX_FRAME` partial bytes linger.
    fn parse_frames(&mut self, idx: usize) {
        let mut pos = 0;
        while let Some(conn) = self.conns[idx].as_mut() {
            let recv = (self.clock)();
            let (tag, req, used) = match protocol::take_frame(&conn.rbuf[pos..conn.rlen]) {
                Ok(None) => {
                    conn.rbuf.copy_within(pos..conn.rlen, 0);
                    conn.rlen -= pos;
                    return;
                }
                Ok(Some((payload, used))) => {
                    let tag = payload
                        .get(..4)
                        .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
                    (tag, protocol::decode_request(payload), used)
                }
                Err(_) => {
                    // A declared length past the cap breaks the protocol: drop
                    // the link, counted apart from malformed-but-framed requests.
                    self.report.errors += 1;
                    self.report.proto_errors += 1;
                    self.log_unanswered(idx, 0, "frame", "proto_error", 0);
                    return self.close(idx);
                }
            };
            pos += used;
            self.handle_request(idx, tag, req, recv, used as u64);
        }
    }

    /// Answer one decoded frame, or queue it when it is a query the cache
    /// cannot answer; a malformed frame is answered with an error.
    fn handle_request(
        &mut self,
        idx: usize,
        tag: u32,
        req: Result<Request, String>,
        recv: Instant,
        bytes_in: u64,
    ) {
        if req.is_ok() {
            self.report.requests += 1;
            let max = self.config.max_requests;
            self.shutdown |= max > 0 && self.report.requests >= max;
        }
        let (op, body) = match req.map(|r| r.body) {
            Err(msg) => {
                self.report.errors += 1;
                ("invalid", ResponseBody::Error(msg))
            }
            Ok(RequestBody::Query(g)) => {
                self.report.queries += 1;
                if g.edge_count() == 0 {
                    self.report.errors += 1;
                    let msg = "query must contain at least one edge".into();
                    ("query", ResponseBody::Error(msg))
                } else {
                    let key = (self.config.cache_cap > 0).then(|| query_key(&g));
                    let mut hit = None;
                    if let Some(key) = &key {
                        // Every write and re-mine swap bumps the epoch, so
                        // syncing here is what keeps a retired snapshot's
                        // answer from being served.
                        self.cache.sync_epoch(self.engine.epoch());
                        hit = self.cache.get(key).map(<[u32]>::to_vec);
                    }
                    if let Some(ids) = hit {
                        ("query", ResponseBody::Matches(ids))
                    } else if self.pending.len() >= self.config.queue_cap {
                        self.report.shed += 1;
                        ("query", ResponseBody::Busy)
                    } else {
                        self.pending.push_back(PendingQuery {
                            conn: idx,
                            tag,
                            key,
                            graph: g,
                            recv,
                            admitted: (self.clock)(),
                            bytes_in,
                        });
                        self.report.queue_peak = self.report.queue_peak.max(self.pending.len());
                        return; // logged from run_batch, stage timings included
                    }
                }
            }
            Ok(RequestBody::Insert(g)) => {
                let start = (self.clock)();
                let gid = self.engine.insert(g);
                let took = (self.clock)().saturating_duration_since(start);
                self.shard.observe(Span::MAINT_APPLY, took);
                ("insert", ResponseBody::Inserted(gid))
            }
            Ok(RequestBody::Remove(gid)) => {
                let start = (self.clock)();
                let was_active = self.engine.remove(gid);
                if was_active {
                    let took = (self.clock)().saturating_duration_since(start);
                    self.shard.observe(Span::MAINT_APPLY, took);
                }
                ("remove", ResponseBody::Removed(was_active))
            }
            Ok(RequestBody::Stats) => {
                // Answered inline — no queueing, no engine, no pause. The
                // snapshot layers the loop's numbers over the registry's
                // absorbed totals, so mid-load counters are visible.
                self.shard.add(Counter::SERVE_STATS, 1);
                let json = self.live_snapshot().render_json();
                if json.len() <= MAX_FRAME - 5 {
                    ("stats", ResponseBody::Stats(json))
                } else {
                    // Practically unreachable (a snapshot is a few KB), but
                    // a truncated JSON document would be worse than an error.
                    let msg = "stats snapshot exceeds MAX_FRAME".into();
                    ("stats", ResponseBody::Error(msg))
                }
            }
            Ok(RequestBody::Shutdown) => {
                self.shutdown = true;
                ("shutdown", ResponseBody::ShuttingDown)
            }
        };
        let outcome = match &body {
            ResponseBody::Busy => "busy",
            ResponseBody::Error(_) => "error",
            _ => "ok",
        };
        let cache_hit = matches!(body, ResponseBody::Matches(_)).then_some(true);
        let bytes_out = self.respond(idx, tag, body);
        if self.telemetry.access.is_some() {
            // Read after the request: an insert or remove is logged under the
            // epoch it published.
            let epoch = self.engine.epoch();
            let admit = (self.clock)().saturating_duration_since(recv);
            self.log_access(AccessRecord {
                conn: idx,
                tag,
                op,
                outcome,
                bytes_in,
                bytes_out,
                cache_hit,
                epoch,
                stages: Some(AccessStages {
                    admit_us: dur_us(admit),
                    ..AccessStages::default()
                }),
            });
        }
    }

    /// Queue the response `body` to request `tag` on connection `idx`,
    /// encoded straight into its write buffer. Returns the frame size in
    /// bytes (0 when the client is already gone).
    fn respond(&mut self, idx: usize, tag: u32, body: ResponseBody) -> u64 {
        self.send(idx, false, |wbuf| {
            protocol::encode_response(&Response { tag, body }, wbuf)
        })
    }

    /// Queue what `write` appends to connection `idx`'s write buffer; with
    /// `close` (HTTP responses are one-shot) the connection closes once its
    /// bytes drain. Returns the bytes queued (0 when the client is already
    /// gone, and `write` is not called).
    fn send(&mut self, idx: usize, close: bool, write: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let now = (self.clock)();
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return 0;
        };
        let before = conn.wbuf.len();
        write(&mut conn.wbuf);
        let n = (conn.wbuf.len() - before) as u64;
        conn.wtotal += n;
        if conn.wmarks.len() < WMARK_CAP {
            conn.wmarks.push_back((conn.wtotal, now));
        }
        conn.close_after_flush |= close;
        self.touch(idx);
        n
    }
}

#[cfg(test)]
mod sim;
