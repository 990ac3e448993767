//! The serving event loop: micro-batching, backpressure, cache.
//!
//! One thread owns every socket (accepted connections are registered
//! with the vendored level-triggered `minipoll` selector) while the
//! engine's persistent worker pool provides the parallelism that
//! matters — executing micro-batches. The loop:
//!
//! 1. **Admission.** Each decoded query is answered from the result
//!    cache when possible; otherwise it enters a **bounded** queue. A
//!    full queue means an immediate `Busy` response (`serve.shed`) —
//!    overload degrades into explicit sheds, never into unbounded
//!    buffering. Per-connection read/write buffers are capped too, so
//!    total memory is `O(max_conns · buffer caps + queue_cap · query)`.
//! 2. **Micro-batching.** Whatever is queued when the loop comes round is
//!    dispatched to [`treepi::Engine::query_batch_pinned`], at most
//!    [`ServeConfig::max_batch`] queries at a time. Nothing is held back to
//!    let a batch fill: a batch executes inline on this thread, so the
//!    queries decoded from the sockets while it ran *are* the next batch —
//!    batches grow with load and a lone query leaves at once. Queries of
//!    one batch with the same cache key run once, and every request among
//!    them gets that run's answer.
//! 3. **Maintenance.** An insert/remove request is applied when it is
//!    decoded ([`treepi::Engine::insert`] / [`treepi::Engine::remove`],
//!    the `maint.apply` span) and acked after, so read-your-writes holds
//!    with no bookkeeping: a query sent after an op's ack always sees it.
//!    Batches run on this thread and release their pin before the next
//!    write, so the write updates the index in place; it copies the index
//!    first only while a background re-mine holds the snapshot. Query
//!    admission compares the cache's epoch with the engine's and drops
//!    its entries when either kind of publication (a write or a re-mine
//!    swap) moved it, so no answer computed against an old snapshot can be
//!    served afterwards. Queued queries observe the snapshot current at
//!    *execution* time.
//!
//! Determinism caveat: which queries share a batch depends on arrival
//! timing, so `serve.*` / `cache.*` metrics are timing-dependent —
//! exempted namespaces. The *answers* and per-query counts are not:
//! every query is answered against the current database regardless of
//! batch shape. The pipeline's `det` totals (`funnel.*`, `walk.*`,
//! `verify.tests`, the `query.*` span counts) are sums over the queries
//! the engine executed, though, and neither a cache hit nor a query that
//! shares its batch with an identical one executes: which requests do
//! depends on arrival timing, so in a served run those totals repeat only
//! when the set of executed queries does. `funnel.queries` is
//! [`ServeReport::served`] less the queries that shared a run.
//!
//! **Monitoring surface.** An optional second listener
//! ([`ServeConfig::http_addr`]) rides the same poll loop and answers
//! plain HTTP/1.0 GETs: `/metrics` (the live snapshot as Prometheus
//! text), `/healthz` (`ok` / `degraded` / `draining`), `/slowz` (the
//! slow-query ring as Chrome trace JSON). Every query is stamped at
//! decode, admission, dispatch, and response-enqueue, decomposing its
//! latency into the `serve.queue_wait` / `serve.batch_wait` /
//! `serve.exec_share` histograms (with `serve.write_wait` covering
//! enqueue-to-socket-flush), and a [`crate::telemetry::LoopWatchdog`]
//! trips when one loop iteration holds the thread past
//! [`ServeConfig::stall_threshold`].
//!
//! **One owner per number.** [`ServeReport`] holds the loop's tallies,
//! [`QueryCache`] the cache counts, [`treepi::Engine::maint_stats`] the
//! maintenance totals, the watchdog the stalls and the slow-query log its
//! captures; the loop shard holds only spans and the two counters no owner
//! keeps (`serve.stats`, `serve.slow_consumer_drop`). One function,
//! `EventLoop::record_owned`, writes the owners' numbers as metrics: STATS
//! and `/metrics` layer its output and the loop shard over
//! `registry.snapshot()`, and shutdown writes it into the loop shard and
//! absorbs that once.

use crate::cache::{query_key, QueryCache};
use crate::http;
use crate::protocol::{self, Request, RequestBody, Response, ResponseBody, MAX_FRAME};
use crate::telemetry::{AccessRecord, AccessStages, LoopWatchdog, ServeTelemetry};
use graph_core::Graph;
use minipoll::{Events, Interest, Poll, Token};
use obs::{Counter, Gauge, Span};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use treepi::Engine;

const LISTENER: Token = Token(0);
/// Token of the optional HTTP monitoring listener.
const HTTP_LISTENER: Token = Token(1);
/// Connection slot `idx` registers as `Token(idx + CONN_BASE)`.
const CONN_BASE: usize = 2;
/// Per-connection cap on retained write-flush markers; responses beyond
/// it (an already-pathological backlog) simply skip the
/// `serve.write_wait` observation.
const WMARK_CAP: usize = 1024;

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

fn dur_us(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}
/// Stop draining a connection after this many bytes per readable event;
/// level triggering re-notifies, and the cap keeps one firehose client
/// from growing `rbuf` without bound inside a single event.
const READ_QUANTUM: usize = 256 << 10;
/// A connection whose client stops reading is dropped once this many
/// unsent response bytes pile up.
const WBUF_CAP: usize = 8 << 20;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum queries per engine micro-batch.
    pub max_batch: usize,
    /// Admission queue bound; beyond it queries are shed with `Busy`.
    pub queue_cap: usize,
    /// Result-cache capacity in entries (0 disables the cache).
    pub cache_cap: usize,
    /// Maximum simultaneously open connections; excess accepts are
    /// dropped immediately.
    pub max_conns: usize,
    /// Stop after decoding this many request frames (0 = run until a
    /// shutdown request). A safety valve for scripted runs.
    pub max_requests: u64,
    /// Address for the HTTP monitoring listener (`/metrics`, `/healthz`,
    /// `/slowz`); `None` disables it.
    pub http_addr: Option<String>,
    /// Event-loop stall threshold: one poll-to-poll work period at or
    /// beyond it counts a `serve.loop.stall_count` trip and flips
    /// `/healthz` to degraded. `None` disables the watchdog.
    pub stall_threshold: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            queue_cap: 1024,
            cache_cap: 4096,
            max_conns: 1024,
            max_requests: 0,
            http_addr: None,
            stall_threshold: Some(Duration::from_millis(100)),
        }
    }
}

/// Totals of one server run, returned by [`Server::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeReport {
    /// Request frames decoded.
    pub requests: u64,
    /// Query requests (cache hits, batched, and shed included).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries answered by micro-batches, each of several identical ones in
    /// one batch included (the engine runs those once).
    pub served: u64,
    /// Queries refused with `Busy` (admission queue full).
    pub shed: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Malformed frames answered with an error.
    pub errors: u64,
    /// Connections dropped for a wire-protocol violation (oversized
    /// declared frame length). A subset of `errors`.
    pub proto_errors: u64,
    /// HTTP monitoring requests served.
    pub http_requests: u64,
    /// Event-loop stall-watchdog trips.
    pub stalls: u64,
    /// Peak admission-queue depth (≤ `queue_cap` by construction).
    pub queue_peak: usize,
}

impl std::fmt::Display for ServeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "requests={} queries={} cache_hits={} served={} shed={} \
             batches={} errors={} proto_errors={} \
             http_requests={} stalls={} queue_peak={}",
            self.requests,
            self.queries,
            self.cache_hits,
            self.served,
            self.shed,
            self.batches,
            self.errors,
            self.proto_errors,
            self.http_requests,
            self.stalls,
            self.queue_peak
        )
    }
}

/// Which protocol a connection speaks, decided by the listener that
/// accepted it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// The length-prefixed wire protocol ([`crate::protocol`]).
    Wire,
    /// One-shot HTTP monitoring requests ([`crate::http`]).
    Http,
}

struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    writable_interest: bool,
    /// Close once the write buffer drains (HTTP responses are one-shot).
    close_after_flush: bool,
    /// Bytes ever enqueued on `wbuf` (monotone — survives the buffer's
    /// clear-on-drain reset, unlike `wbuf.len()`).
    wtotal: u64,
    /// Bytes ever flushed to the socket (monotone, ≤ `wtotal`).
    wflushed: u64,
    /// `(wtotal watermark, enqueue instant)` per response still in
    /// flight; popped into `serve.write_wait` as flushes pass them.
    wmarks: VecDeque<(u64, Instant)>,
}

impl Conn {
    fn new(stream: TcpStream, kind: ConnKind) -> Conn {
        Conn {
            stream,
            kind,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            writable_interest: false,
            close_after_flush: false,
            wtotal: 0,
            wflushed: 0,
            wmarks: VecDeque::new(),
        }
    }

    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Append `data` to the write buffer and drop a flush marker on it.
    fn enqueue(&mut self, data: &[u8]) {
        self.wbuf.extend_from_slice(data);
        self.wtotal += data.len() as u64;
        if self.wmarks.len() < WMARK_CAP {
            self.wmarks.push_back((self.wtotal, Instant::now()));
        }
    }
}

struct PendingQuery {
    conn: usize,
    tag: u32,
    key: Option<Box<[u32]>>,
    graph: Graph,
    /// When the request frame was decoded off the socket.
    recv: Instant,
    /// When the query entered the admission queue.
    admitted: Instant,
    /// Request frame size (length prefix included), for the access log.
    bytes_in: u64,
}

/// A bound-but-not-yet-running server. [`Server::bind`] then
/// [`Server::run`].
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    poll: Poll,
    config: ServeConfig,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:7878`; port 0 picks an ephemeral
    /// port — read it back with [`Server::local_addr`]). When
    /// [`ServeConfig::http_addr`] is set, the HTTP monitoring listener is
    /// bound here too ([`Server::http_local_addr`]).
    pub fn bind(addr: &str, config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let poll = Poll::new()?;
        poll.register(&listener, LISTENER, Interest::READABLE)?;
        let http_listener = match &config.http_addr {
            None => None,
            Some(http_addr) => {
                let l = TcpListener::bind(http_addr.as_str())?;
                l.set_nonblocking(true)?;
                poll.register(&l, HTTP_LISTENER, Interest::READABLE)?;
                Some(l)
            }
        };
        Ok(Server {
            listener,
            http_listener,
            poll,
            config,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP monitoring address, when one was configured.
    pub fn http_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Run the event loop until a shutdown request (or `max_requests`)
    /// arrives, then drain the queue, flush responses, and return the
    /// run's totals. The loop's spans (`serve.request`, `serve.batch_exec`,
    /// …) and its `serve.*` / `cache.*` / `maint.*` numbers are absorbed
    /// into `registry` once, at shutdown.
    pub fn run(self, engine: &Engine, registry: &obs::Registry) -> io::Result<ServeReport> {
        let mut telemetry = ServeTelemetry::disabled();
        self.run_with_telemetry(engine, registry, &mut telemetry)
    }

    /// [`Server::run`] with telemetry attached: queries whose verify stage
    /// meets the slow-query threshold are captured into `telemetry.slow`,
    /// and every request is written to `telemetry.access` when it is set.
    /// Both outlive the run — the caller renders them after the server
    /// exits.
    pub fn run_with_telemetry(
        self,
        engine: &Engine,
        registry: &obs::Registry,
        telemetry: &mut ServeTelemetry,
    ) -> io::Result<ServeReport> {
        let epoch = engine.epoch();
        let watchdog = LoopWatchdog::new(self.config.stall_threshold);
        let mut lp = EventLoop {
            listener: self.listener,
            http_listener: self.http_listener,
            poll: self.poll,
            cache: QueryCache::new(self.config.cache_cap, epoch),
            config: self.config,
            engine,
            shard: registry.shard(),
            telemetry,
            watchdog,
            conns: Vec::new(),
            free: Vec::new(),
            pending: VecDeque::new(),
            report: ServeReport::default(),
            shutdown: false,
        };
        let result = lp.serve(registry);
        // Flush the access log so its error count is final before the
        // loop's numbers reach the registry, once.
        if let Some(access) = lp.telemetry.access.as_mut() {
            access.flush();
        }
        lp.record_owned(&lp.shard);
        let report = lp.report();
        registry.absorb(lp.shard);
        result.map(|()| report)
    }
}

struct EventLoop<'e> {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    poll: Poll,
    cache: QueryCache,
    config: ServeConfig,
    engine: &'e Engine,
    shard: obs::Shard,
    telemetry: &'e mut ServeTelemetry,
    watchdog: LoopWatchdog,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    pending: VecDeque<PendingQuery>,
    report: ServeReport,
    shutdown: bool,
}

impl EventLoop<'_> {
    fn serve(&mut self, registry: &obs::Registry) -> io::Result<()> {
        let mut events = Events::with_capacity(256);
        self.watchdog.begin_work();
        loop {
            while !self.pending.is_empty() {
                self.run_batch(registry);
            }
            if self.shutdown {
                break;
            }
            self.watchdog.end_work();
            self.poll.poll(&mut events, None)?;
            self.watchdog.begin_work();
            for ev in &events {
                match ev.token() {
                    LISTENER => self.accept_ready(ConnKind::Wire),
                    HTTP_LISTENER => self.accept_ready(ConnKind::Http),
                    Token(t) => {
                        let idx = t - CONN_BASE;
                        if ev.is_writable() {
                            self.flush_conn(idx);
                        }
                        if ev.is_readable() {
                            self.handle_readable(idx, registry);
                        }
                    }
                }
            }
        }
        self.watchdog.end_work();
        self.drain_writes();
        Ok(())
    }

    /// The run's totals: the loop's own tallies, with cache hits and
    /// stalls read from the cache and the watchdog that count them.
    fn report(&self) -> ServeReport {
        ServeReport {
            cache_hits: self.cache.hits(),
            stalls: self.watchdog.stalls(),
            ..self.report
        }
    }

    /// Write every number the loop's owners hold into `out`: the
    /// [`ServeReport`] tallies (stalls from the watchdog), the slow-query
    /// log's captures, the access log's write errors, the cache's counts
    /// and the engine's `maint.*` totals. The only writer of these names
    /// (see the module doc). A `serve.*` event counter appears with its
    /// first event; the cache and maintenance counters are always present,
    /// and the access-log error counter whenever a log is open.
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
    /// with the tracking allocator, heap bytes. The owners' numbers are
    /// written whatever the registry records.
    fn live_snapshot(&self, registry: &obs::Registry) -> obs::MetricSet {
        let owned = obs::Shard::detached(true);
        self.record_owned(&owned);
        let mut set = registry.snapshot();
        set.merge(&self.shard.peek());
        set.merge(&owned.into_set());
        set.set_gauge(Gauge::SERVE_QUEUE_DEPTH, self.pending.len() as u64);
        if obs::alloc::installed() {
            set.set_gauge(Gauge::MEM_ALLOC_LIVE_BYTES, obs::alloc::live_bytes());
            set.set_gauge(Gauge::MEM_ALLOC_PEAK_BYTES, obs::alloc::peak_bytes());
        }
        set
    }

    fn run_batch(&mut self, registry: &obs::Registry) {
        // One `maint.remine` observation per background re-mine published
        // since the last batch. The cache is synced with the live epoch
        // here, past writes applied since these queries were admitted, so
        // the check after the batch vetoes a fill only for a publication
        // made while the batch ran.
        for rep in self.engine.drain_remine_reports() {
            self.shard.observe(Span::MAINT_REMINE, rep.duration);
        }
        self.cache.sync_epoch(self.engine.epoch());
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
        let dispatched = Instant::now();
        let (mut results, epoch) = {
            let _span = self.shard.span(Span::SERVE_BATCH_EXEC);
            self.engine.query_batch_pinned(&runs, registry)
        };
        let batch_end = Instant::now();
        let residence = batch_end.saturating_duration_since(dispatched);
        let seq_base = self.report.served;
        self.report.batches += 1;
        self.report.served += n as u64;
        // Cache admission: results belong to the batch's pinned epoch. A
        // background re-mine may have published a newer snapshot while the
        // batch ran — then these answers are already stale and must not be
        // cached (the sync below has moved the cache past their epoch).
        let live = self.engine.epoch();
        let cacheable = !self.cache.sync_epoch(live) && epoch == live;
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
            // Latency decomposition. Admission→dispatch is queue wait, the
            // query's own stage total is its execution share, and the rest
            // of its batch residence is time spent waiting on co-batched
            // siblings. By construction `queue_wait + batch_wait +
            // exec_share ≤ serve.request`, whose clock keeps running
            // through respond-side bookkeeping below.
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
                    batch_end,
                    &[
                        ("serve.queue_wait_ns", dur_ns(queue_wait)),
                        ("serve.batch_wait_ns", dur_ns(batch_wait)),
                    ],
                );
            }
            if cacheable {
                if let Some(key) = key {
                    self.cache.insert(key, matches.clone());
                }
            }
            self.shard.observe(Span::SERVE_REQUEST, admitted.elapsed());
            let bytes_out = self.respond(
                conn,
                Response {
                    tag,
                    body: ResponseBody::Matches(matches),
                },
            );
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

    fn accept_ready(&mut self, kind: ConnKind) {
        loop {
            let accepted = match kind {
                ConnKind::Wire => self.listener.accept(),
                ConnKind::Http => match &self.http_listener {
                    Some(l) => l.accept(),
                    None => return,
                },
            };
            match accepted {
                Ok((stream, _)) => {
                    let open = self.conns.iter().filter(|c| c.is_some()).count();
                    if open >= self.config.max_conns || stream.set_nonblocking(true).is_err() {
                        continue; // dropped: accept backlog is the only wait
                    }
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    match self
                        .poll
                        .register(&stream, Token(idx + CONN_BASE), Interest::READABLE)
                    {
                        Ok(()) => self.conns[idx] = Some(Conn::new(stream, kind)),
                        Err(_) => self.free.push(idx),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Close connection `idx` and drop the queries it left queued, logging
    /// each as `dropped`: nobody is left to read their answers, and the
    /// slot goes to the next connection accepted, which must not receive
    /// them.
    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poll.deregister(&conn.stream);
        self.free.push(idx);
        let epoch = self.engine.epoch();
        let access = &mut self.telemetry.access;
        self.pending.retain(|p| {
            if p.conn != idx {
                return true;
            }
            if let Some(access) = access.as_mut() {
                access.log(&AccessRecord {
                    conn: idx,
                    tag: p.tag,
                    op: "query",
                    outcome: "dropped",
                    bytes_in: p.bytes_in,
                    bytes_out: 0,
                    cache_hit: None,
                    epoch,
                    stages: None,
                });
            }
            false
        });
    }

    fn handle_readable(&mut self, idx: usize, registry: &obs::Registry) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            let mut tmp = [0u8; 16 << 10];
            let mut taken = 0usize;
            loop {
                if taken >= READ_QUANTUM {
                    break; // level triggering re-notifies for the rest
                }
                match conn.stream.read(&mut tmp) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&tmp[..n]);
                        taken += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        let kind = self.conns.get(idx).and_then(Option::as_ref).map(|c| c.kind);
        match kind {
            Some(ConnKind::Wire) => self.parse_frames(idx, registry),
            Some(ConnKind::Http) => self.parse_http(idx, registry),
            None => {}
        }
        if dead {
            self.close_conn(idx);
        }
    }

    /// Parse and answer one HTTP monitoring request buffered on `idx`.
    /// One-shot semantics: the response closes the connection once its
    /// bytes drain.
    fn parse_http(&mut self, idx: usize, registry: &obs::Registry) {
        let parsed = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            if conn.close_after_flush {
                return; // response already queued; ignore trailing bytes
            }
            match http::parse_request(&conn.rbuf) {
                http::Parse::Incomplete => return,
                done => {
                    conn.rbuf.clear();
                    done
                }
            }
        };
        self.report.http_requests += 1;
        let data = match parsed {
            http::Parse::Incomplete => unreachable!("handled above"),
            http::Parse::Bad(why) => http::response(
                400,
                "Bad Request",
                "text/plain; charset=utf-8",
                format!("{why}\n").as_bytes(),
            ),
            http::Parse::Ok(req, _) if req.method != "GET" => http::response(
                405,
                "Method Not Allowed",
                "text/plain; charset=utf-8",
                b"only GET is supported\n",
            ),
            http::Parse::Ok(req, _) => match req.path.as_str() {
                "/metrics" => http::response(
                    200,
                    "OK",
                    obs::prom::CONTENT_TYPE,
                    obs::prom::render(&self.live_snapshot(registry)).as_bytes(),
                ),
                "/healthz" => {
                    let (status, reason, body) = self.health();
                    http::response(status, reason, "application/json", body.as_bytes())
                }
                "/slowz" => http::response(
                    200,
                    "OK",
                    "application/json",
                    self.telemetry.slow.render_chrome_json().as_bytes(),
                ),
                _ => http::response(
                    404,
                    "Not Found",
                    "text/plain; charset=utf-8",
                    b"not found (try /metrics, /healthz, /slowz)\n",
                ),
            },
        };
        self.send(idx, &data, true);
    }

    /// The `/healthz` verdict: `draining` once shutdown has begun,
    /// `degraded` while the watchdog's most recent stall is fresh, `ok`
    /// otherwise. Non-`ok` states use 503 so load-balancer checks fail
    /// without parsing the body.
    fn health(&self) -> (u16, &'static str, String) {
        let (status, reason, state) = if self.shutdown {
            (503, "Service Unavailable", "draining")
        } else if self.watchdog.degraded(Instant::now()) {
            (503, "Service Unavailable", "degraded")
        } else {
            (200, "OK", "ok")
        };
        let open = self.conns.iter().filter(|c| c.is_some()).count();
        let body = format!(
            "{{\"status\": \"{state}\", \"epoch\": {}, \"queue_depth\": {}, \
             \"queue_cap\": {}, \"conns\": {open}, \"stall_count\": {}, \
             \"max_stall_us\": {}}}\n",
            self.engine.epoch(),
            self.pending.len(),
            self.config.queue_cap,
            self.watchdog.stalls(),
            dur_us(self.watchdog.max_stall()),
        );
        (status, reason, body)
    }

    /// Decode and handle every complete frame buffered on `idx`. The
    /// leftover is bounded: `take_frame` rejects declared lengths beyond
    /// [`MAX_FRAME`], so at most `4 + MAX_FRAME` partial bytes linger.
    fn parse_frames(&mut self, idx: usize, registry: &obs::Registry) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                match protocol::take_frame(&conn.rbuf) {
                    Err(_) => None,
                    Ok(None) => return,
                    Ok(Some((payload, used))) => {
                        let recv = Instant::now(); // read-complete stamp
                        let tag = payload
                            .get(..4)
                            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                            .unwrap_or(0);
                        let req = protocol::decode_request(payload);
                        conn.rbuf.drain(..used);
                        Some((tag, req, used as u64, recv))
                    }
                }
            };
            match step {
                None => {
                    // Oversized frame: protocol violation, drop the link —
                    // counted under its own name so the operator can tell
                    // a misbehaving client from a malformed-but-framed
                    // request.
                    self.report.errors += 1;
                    self.report.proto_errors += 1;
                    self.log_access(AccessRecord {
                        conn: idx,
                        tag: 0,
                        op: "frame",
                        outcome: "proto_error",
                        bytes_in: 0,
                        bytes_out: 0,
                        cache_hit: None,
                        epoch: self.engine.epoch(),
                        stages: None,
                    });
                    self.close_conn(idx);
                    return;
                }
                Some((tag, Err(msg), bytes_in, _)) => {
                    self.report.errors += 1;
                    let bytes_out = self.respond(
                        idx,
                        Response {
                            tag,
                            body: ResponseBody::Error(msg),
                        },
                    );
                    self.log_access(AccessRecord {
                        conn: idx,
                        tag,
                        op: "invalid",
                        outcome: "error",
                        bytes_in,
                        bytes_out,
                        cache_hit: None,
                        epoch: self.engine.epoch(),
                        stages: None,
                    });
                }
                Some((_, Ok(req), bytes_in, recv)) => {
                    self.report.requests += 1;
                    self.handle_request(idx, req, recv, bytes_in, registry);
                    if self.config.max_requests > 0
                        && self.report.requests >= self.config.max_requests
                    {
                        self.shutdown = true;
                    }
                }
            }
        }
    }

    fn handle_request(
        &mut self,
        idx: usize,
        req: Request,
        recv: Instant,
        bytes_in: u64,
        registry: &obs::Registry,
    ) {
        let tag = req.tag;
        // Immediate (non-queued) outcomes share one access-record shape.
        let mut immediate: Option<(&'static str, &'static str, Option<bool>)> = None;
        let mut bytes_out = 0u64;
        match req.body {
            RequestBody::Query(g) => {
                self.report.queries += 1;
                if g.edge_count() == 0 {
                    self.report.errors += 1;
                    bytes_out = self.respond(
                        idx,
                        Response {
                            tag,
                            body: ResponseBody::Error(
                                "query must contain at least one edge".into(),
                            ),
                        },
                    );
                    immediate = Some(("query", "error", None));
                } else {
                    let key = (self.config.cache_cap > 0).then(|| query_key(&g));
                    let mut hit_ids = None;
                    if let Some(key) = &key {
                        // Every write and re-mine swap bumps the epoch, so
                        // syncing here is what keeps a retired snapshot's
                        // answer from being served.
                        self.cache.sync_epoch(self.engine.epoch());
                        hit_ids = self.cache.get(key).map(|hit| hit.to_vec());
                    }
                    if let Some(ids) = hit_ids {
                        bytes_out = self.respond(
                            idx,
                            Response {
                                tag,
                                body: ResponseBody::Matches(ids),
                            },
                        );
                        immediate = Some(("query", "ok", Some(true)));
                    } else if self.pending.len() >= self.config.queue_cap {
                        self.report.shed += 1;
                        bytes_out = self.respond(
                            idx,
                            Response {
                                tag,
                                body: ResponseBody::Busy,
                            },
                        );
                        immediate = Some(("query", "busy", None));
                    } else {
                        self.pending.push_back(PendingQuery {
                            conn: idx,
                            tag,
                            key,
                            graph: g,
                            recv,
                            admitted: Instant::now(),
                            bytes_in,
                        });
                        self.report.queue_peak = self.report.queue_peak.max(self.pending.len());
                        // Logged from run_batch, stage timings included.
                    }
                }
            }
            RequestBody::Insert(g) => {
                let start = Instant::now();
                let gid = self.engine.insert(g);
                self.shard.observe(Span::MAINT_APPLY, start.elapsed());
                bytes_out = self.respond(
                    idx,
                    Response {
                        tag,
                        body: ResponseBody::Inserted(gid),
                    },
                );
                immediate = Some(("insert", "ok", None));
            }
            RequestBody::Remove(gid) => {
                let start = Instant::now();
                let was_active = self.engine.remove(gid);
                if was_active {
                    self.shard.observe(Span::MAINT_APPLY, start.elapsed());
                }
                bytes_out = self.respond(
                    idx,
                    Response {
                        tag,
                        body: ResponseBody::Removed(was_active),
                    },
                );
                immediate = Some(("remove", "ok", None));
            }
            RequestBody::Stats => {
                // Answered inline — no queueing, no engine, no pause. The
                // snapshot layers the loop's numbers over the registry's
                // absorbed totals, so mid-load counters are visible.
                self.shard.add(Counter::SERVE_STATS, 1);
                let json = self.live_snapshot(registry).render_json();
                let (body, outcome) = if json.len() <= MAX_FRAME - 5 {
                    (ResponseBody::Stats(json), "ok")
                } else {
                    // Practically unreachable (a snapshot is a few KB), but
                    // a truncated JSON document would be worse than an error.
                    (
                        ResponseBody::Error("stats snapshot exceeds MAX_FRAME".into()),
                        "error",
                    )
                };
                bytes_out = self.respond(idx, Response { tag, body });
                immediate = Some(("stats", outcome, None));
            }
            RequestBody::Shutdown => {
                self.shutdown = true;
                bytes_out = self.respond(
                    idx,
                    Response {
                        tag,
                        body: ResponseBody::ShuttingDown,
                    },
                );
                immediate = Some(("shutdown", "ok", None));
            }
        }
        if let Some((op, outcome, cache_hit)) = immediate {
            // Read after the request: an insert or remove is logged under
            // the epoch it published.
            let epoch = self.engine.epoch();
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
                    admit_us: dur_us(recv.elapsed()),
                    ..AccessStages::default()
                }),
            });
        }
    }

    /// Queue `resp` on connection `idx` and try to flush. Returns the
    /// encoded frame size in bytes (0 when the client is already gone).
    fn respond(&mut self, idx: usize, resp: Response) -> u64 {
        let frame = protocol::encode_response(&resp);
        debug_assert!(frame.len() <= 4 + MAX_FRAME);
        if self.send(idx, &frame, false) {
            frame.len() as u64
        } else {
            0
        }
    }

    /// Queue `data` on connection `idx` and try to flush; with
    /// `close_after_flush` (HTTP responses are one-shot) the connection
    /// closes once its bytes drain. Returns false when the client is
    /// already gone.
    fn send(&mut self, idx: usize, data: &[u8], close_after_flush: bool) -> bool {
        let overflow = {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return false;
            };
            conn.enqueue(data);
            conn.close_after_flush |= close_after_flush;
            conn.unsent() > WBUF_CAP
        };
        if overflow {
            // Slow consumer: the peer stopped reading and its unsent
            // responses hit the cap. Count the drop — a silent disconnect
            // here looks like a network failure to the operator.
            self.shard.add(Counter::SERVE_SLOW_CONSUMER_DROP, 1);
            self.close_conn(idx);
        } else {
            self.flush_conn(idx);
        }
        true
    }

    fn flush_conn(&mut self, idx: usize) {
        let mut dead = false;
        let mut done = false;
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
                return;
            };
            loop {
                if conn.wpos >= conn.wbuf.len() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    done = conn.close_after_flush;
                    break;
                }
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.wflushed += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            // Responses fully on the wire: their enqueue→flush latency is
            // the write-wait component of the decomposition. The shard and
            // conns are disjoint fields, so observing here is fine.
            while let Some(&(mark, at)) = conn.wmarks.front() {
                if mark > conn.wflushed {
                    break;
                }
                conn.wmarks.pop_front();
                self.shard.observe(Span::SERVE_WRITE_WAIT, at.elapsed());
            }
        }
        if dead || done {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        let want_write = conn.wpos < conn.wbuf.len();
        if want_write != conn.writable_interest {
            conn.writable_interest = want_write;
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            let _ = self
                .poll
                .reregister(&conn.stream, Token(idx + CONN_BASE), interest);
        }
    }

    /// Best-effort post-shutdown flush so drained-queue answers and the
    /// shutdown ack reach their clients before the sockets drop.
    fn drain_writes(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(1);
        loop {
            let unsent: Vec<usize> = (0..self.conns.len())
                .filter(|&i| self.conns[i].as_ref().is_some_and(|c| c.unsent() > 0))
                .collect();
            if unsent.is_empty() || Instant::now() >= deadline {
                break;
            }
            for idx in unsent {
                self.flush_conn(idx);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
