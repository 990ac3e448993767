//! Deterministic simulation of the serving core, after FoundationDB's
//! deterministic simulation testing. One seed drives [`Machine`] through
//! a generated history — virtual clients connecting and leaving,
//! requests (some mutated) cut at arbitrary byte boundaries, half-closes,
//! zero-window readers, clock jumps, inserts and removes between queries
//! — with no socket, thread timing or wall clock in the loop, so a seed
//! replays step for step. After every step it checks that:
//!
//! - every `Matches` equals `scan_support` over the simulation's own model
//!   of the database, as of the step that answered it;
//! - every request frame decoded gets exactly one response, carrying its
//!   tag, on its own connection — unless that connection closed first;
//! - buffers stay within `READ_QUANTUM` / `MAX_FRAME`, a flush leaves at
//!   most `WBUF_CAP` unsent, the queue stays within `queue_cap`, and the
//!   core closes no connection unasked;
//! - [`ServeReport`] equals the simulation's own tallies.
//!
//! A failure names its `(seed, step)`; `run_seed` replays the seed. The
//! scripts at the end pin single behaviours on the same harness.

use super::*;
use crate::protocol::{decode_response, encode_request, take_frame};
use crate::telemetry::{AccessLog, SlowQueryLog};
use graph_core::graph_from;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};
use treepi::{scan_support, TreePiIndex, TreePiParams};

/// Seeds the full run covers.
const SEEDS: u64 = 1000;

fn index() -> &'static TreePiIndex {
    static INDEX: OnceLock<TreePiIndex> = OnceLock::new();
    INDEX.get_or_init(|| TreePiIndex::build(graphs()[..5].to_vec(), TreePiParams::quick()))
}

/// The database (the first five), then what clients query and insert
/// besides: a renumbered isomorph, an edge no graph has, an edgeless
/// graph, and labels beyond `MAX_LABEL` (a parse error).
fn graphs() -> Vec<Graph> {
    vec![
        graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
        graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
        graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        graph_from(&[0, 1], &[(0, 1, 1)]),
        graph_from(&[0, 0], &[(0, 1, 0)]),
        graph_from(&[1, 0, 0], &[(2, 1, 0), (1, 0, 0)]),
        graph_from(&[9, 9], &[(0, 1, 0)]),
        graph_from(&[7, 7], &[(0, 1, 3)]),
        graph_from(&[7, 7, 0], &[(0, 1, 3), (1, 2, 0)]),
        graph_from(&[3], &[]),
        graph_from(&[u32::MAX, 0], &[(0, 1, 0)]),
        graph_from(&[0, 0], &[(0, 1, graph_core::MAX_LABEL + 1)]),
    ]
}

const HEADS: [&str; 7] = [
    "GET /metrics HTTP/1.0\r\n\r\n",
    "GET /healthz?verbose=1 HTTP/1.1\n\n",
    "GET /slowz HTTP/1.0\r\nHost: x\r\n\r\n",
    "GET /nope HTTP/1.0\r\n\r\n",
    "HEAD /metrics HTTP/1.0\r\n\r\n",
    "GARBAGE\r\n\r\n",
    "GET /x NOTHTTP\r\n\r\n",
];

/// The access log's writer: memory, or a full disk.
#[derive(Clone)]
struct Sink(Arc<Mutex<Vec<u8>>>, bool);

impl std::io::Write for Sink {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        if self.1 {
            return Err(std::io::Error::other("no space left on device"));
        }
        self.0.lock().unwrap().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Default)]
struct Client {
    http: bool,
    /// The core's slot, until the connection closes; `ended` once the
    /// client or a frame of it asked for the close.
    idx: Option<usize>,
    ended: bool,
    /// Every byte written: `sent` of them delivered, the first `framed`
    /// of those parsed into frames.
    out: Vec<u8>,
    sent: usize,
    framed: usize,
    /// Start of a frame declaring more than `MAX_FRAME`: the core drops
    /// the link there, so no read carries bytes from before it as well.
    poison: Option<usize>,
    /// Bytes the client reads before it stops (`None`: all of them).
    window: Option<usize>,
    /// Bytes of its connection's output checked, and the responses in
    /// them; HTTP: the status code.
    seen: u64,
    got: Vec<Response>,
    status: Option<u16>,
}

struct Sim<'a> {
    core: Machine<'a>,
    now: &'a Cell<Instant>,
    model: TreePiIndex,
    clients: Vec<Client>,
    /// The queries the core holds queued: (client, tag, query).
    queue: VecDeque<(usize, u32, Graph)>,
    tally: ServeReport,
    /// Access records owed, those of dropped queries, writes applied.
    records: u64,
    dropped: u64,
    writes: u64,
    next_tag: u32,
    /// Connections given output by the current step.
    fresh: Vec<usize>,
    work_start: Instant,
    last_stall: Option<Instant>,
    /// The answers checked, hashed (FNV-1a), for the replay check.
    digest: u64,
}

impl Sim<'_> {
    fn open(&self) -> Vec<usize> {
        (0..self.clients.len())
            .filter(|&c| self.clients[c].idx.is_some())
            .collect()
    }

    fn hash(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest = (self.digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn connect(&mut self, http: bool) -> usize {
        let full = self.open().len() >= self.core.config.max_conns;
        let kind = [ConnKind::Wire, ConnKind::Http][http as usize];
        let idx = self.core.open(kind);
        assert_eq!(idx.is_none(), full, "refused iff max_conns open");
        self.tally.conns_refused += full as u64;
        self.clients.push(Client {
            http,
            idx,
            ..Client::default()
        });
        self.settle();
        self.clients.len() - 1
    }

    /// Client `c` writes `body` as one request frame; returns its tag.
    fn send(&mut self, c: usize, body: RequestBody) -> u32 {
        self.next_tag += 1;
        let tag = self.next_tag;
        let frame = encode_request(&Request { tag, body });
        self.clients[c].out.extend_from_slice(&frame);
        tag
    }

    /// One read: up to `n` of `c`'s undelivered bytes reach the core.
    fn deliver(&mut self, c: usize, n: usize) {
        let cl = &mut self.clients[c];
        let Some(idx) = cl.idx else { return };
        let end = match cl.poison {
            Some(p) if cl.sent < p => p,
            _ => cl.out.len(),
        };
        let space = self.core.read_space(idx).expect("an open slot");
        let n = n.min(end - cl.sent).min(space.len());
        space[..n].copy_from_slice(&cl.out[cl.sent..cl.sent + n]);
        cl.sent += n;
        self.core.received(idx, n);
        if self.clients[c].http {
            self.check_http(c);
        } else {
            self.check_frames(c);
        }
        self.settle();
    }

    /// Deliver everything `c` has written, in reads of at most `chunk`.
    fn deliver_all(&mut self, c: usize, chunk: usize) {
        while self.clients[c].idx.is_some() && self.clients[c].sent < self.clients[c].out.len() {
            self.deliver(c, chunk);
        }
    }

    /// The bytes queued on `c`'s connection since the last look.
    fn output(&mut self, c: usize) -> Vec<u8> {
        let cl = &mut self.clients[c];
        let Some((idx, conn)) = cl.idx.and_then(|i| Some((i, self.core.conns[i].as_ref()?))) else {
            return Vec::new();
        };
        let new = (conn.wtotal - cl.seen) as usize;
        cl.seen = conn.wtotal;
        let unsent = &conn.wbuf[conn.wpos..];
        assert!(new <= unsent.len(), "output flushed before it was checked");
        if new > 0 {
            self.fresh.push(idx);
        }
        unsent[unsent.len() - new..].to_vec()
    }

    fn responses(&mut self, c: usize) -> Vec<Response> {
        let (out, mut at, mut got) = (self.output(c), 0, Vec::new());
        while at < out.len() {
            let (payload, used) = take_frame(&out[at..]).unwrap().expect("whole frames");
            let r = decode_response(payload).expect("a well-formed response");
            if !matches!(r.body, ResponseBody::Stats(_)) {
                self.hash(payload); // a snapshot carries timings
            }
            at += used;
            got.push(r);
        }
        self.clients[c].got.extend(got.iter().cloned());
        got
    }

    /// Check how the frames one read completed were answered at once.
    fn check_frames(&mut self, c: usize) {
        let mut resp = self.responses(c).into_iter().peekable();
        loop {
            let cl = &mut self.clients[c];
            let payload = match take_frame(&cl.out[cl.framed..cl.sent]) {
                Ok(None) => break,
                Ok(Some((payload, used))) => {
                    cl.framed += used;
                    payload.to_vec()
                }
                Err(_) => {
                    cl.ended = true;
                    self.tally.errors += 1;
                    self.tally.proto_errors += 1;
                    self.records += 1;
                    break;
                }
            };
            self.records += 1;
            let tag = u32::from_le_bytes(payload[..4].try_into().unwrap());
            let now = resp.next_if(|r| r.tag == tag).map(|r| r.body);
            let req = protocol::decode_request(&payload).map(|r| r.body);
            let query = matches!(req, Ok(RequestBody::Query(_)));
            self.tally.requests += req.is_ok() as u64;
            self.tally.queries += query as u64;
            let cap = self.core.config.queue_cap;
            let want = match req {
                Err(msg) => {
                    self.tally.errors += 1;
                    // A message longer than a frame is cut at a char boundary.
                    let Some(ResponseBody::Error(got)) = &now else {
                        panic!("malformed frame {tag} ({msg}) answered {now:?}")
                    };
                    let whole = msg.len().min(MAX_FRAME - 5);
                    assert!(msg.starts_with(got.as_str()) && got.len() + 4 > whole);
                    now.clone()
                }
                Ok(RequestBody::Query(g)) if g.edge_count() == 0 => {
                    self.tally.errors += 1;
                    let msg = "query must contain at least one edge";
                    Some(ResponseBody::Error(msg.into()))
                }
                Ok(RequestBody::Query(g)) => match now {
                    Some(ResponseBody::Busy) => {
                        assert_eq!(self.queue.len(), cap, "shed below queue_cap");
                        self.tally.shed += 1;
                        now.clone()
                    }
                    Some(_) => {
                        self.tally.cache_hits += 1;
                        Some(ResponseBody::Matches(scan_support(&self.model, &g)))
                    }
                    None => {
                        assert!(self.queue.len() < cap, "queued past queue_cap");
                        self.queue.push_back((c, tag, g));
                        let peak = self.tally.queue_peak.max(self.queue.len());
                        self.tally.queue_peak = peak;
                        self.records -= 1; // logged when it runs or is dropped
                        None
                    }
                },
                Ok(RequestBody::Insert(g)) => {
                    self.writes += 1;
                    Some(ResponseBody::Inserted(self.model.insert(g)))
                }
                Ok(RequestBody::Remove(gid)) => {
                    let was_active = self.model.remove(gid);
                    self.writes += was_active as u64;
                    Some(ResponseBody::Removed(was_active))
                }
                Ok(RequestBody::Stats) => {
                    let Some(ResponseBody::Stats(json)) = &now else {
                        panic!("stats {tag} answered {now:?}")
                    };
                    let snap = obs::json::parse_metric_set(json).expect("a snapshot");
                    let queries = snap.counter(Counter::SERVE_QUERIES.name());
                    assert_eq!(queries, self.tally.queries, "a live snapshot's queries");
                    now.clone()
                }
                Ok(RequestBody::Shutdown) => Some(ResponseBody::ShuttingDown),
            };
            assert_eq!(now, want, "the answer to frame {tag}");
            let max = self.core.config.max_requests;
            assert!(max == 0 || self.tally.requests < max || self.core.shutting_down());
        }
        assert!(resp.next().is_none(), "a response nobody asked for");
    }

    /// An HTTP client's head is answered once, when complete; `/healthz`
    /// reports the watchdog as the simulation saw it.
    fn check_http(&mut self, c: usize) {
        let out = self.output(c);
        let recent = |at: Instant| self.now.get() - at < LoopWatchdog::DEGRADED_WINDOW;
        let health = match (self.core.shutdown, self.last_stall.is_some_and(recent)) {
            (true, _) => (503, "draining"),
            (false, true) => (503, "degraded"),
            (false, false) => (200, "ok"),
        };
        let cl = &mut self.clients[c];
        let (status, state) = match http::parse_request(&cl.out[..cl.sent]) {
            _ if cl.status.is_some() => return assert!(out.is_empty(), "a second answer"),
            http::Parse::Incomplete => return assert!(out.is_empty(), "answered early"),
            http::Parse::Bad(_) => (400, ""),
            http::Parse::Ok(req, _) if req.method != "GET" => (405, ""),
            http::Parse::Ok(req, _) => match req.path.as_str() {
                "/healthz" => health,
                "/metrics" | "/slowz" => (200, ""),
                _ => (404, ""),
            },
        };
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with(&format!("HTTP/1.0 {status} ")), "{text}");
        assert!(state.is_empty() || text.contains(&format!("\"status\": \"{state}\"")));
        (cl.status, cl.ended) = (Some(status), true);
        self.tally.http_requests += 1;
        self.hash(&status.to_le_bytes());
    }

    /// The shell writes up to `n` of `c`'s unsent bytes, as far as the
    /// client's window takes them; over `WBUF_CAP` left unsent, the core
    /// drops the connection.
    fn flush(&mut self, c: usize, n: usize) {
        let Some(idx) = self.clients[c].idx else {
            return;
        };
        let window = self.clients[c].window.unwrap_or(usize::MAX);
        let unsent = self.core.unsent(idx).len();
        let n = n.min(window).min(unsent);
        if let Some(w) = &mut self.clients[c].window {
            *w -= n;
        }
        let left = unsent - n;
        self.clients[c].ended |= left > WBUF_CAP; // a slow consumer
        self.core.wrote(idx, n);
        assert!(left <= WBUF_CAP || !self.core.is_open(idx), "kept");
        self.settle();
    }

    /// The client closes its write side: the shell writes what the socket
    /// takes and closes the connection.
    fn eof(&mut self, c: usize) {
        self.flush(c, usize::MAX);
        self.disconnect(c);
    }

    fn disconnect(&mut self, c: usize) {
        if let Some(idx) = self.clients[c].idx {
            self.clients[c].ended = true;
            self.core.close(idx);
        }
        self.settle();
    }

    /// One micro-batch: the queue's first `max_batch` queries are answered,
    /// each on its own connection, as the model stands now.
    fn batch(&mut self) {
        self.core.run_batch();
        let n = self.queue.len().min(self.core.config.max_batch.max(1));
        let mut due: Vec<_> = self.queue.drain(..n).collect();
        self.tally.batches += 1;
        self.tally.served += n as u64;
        self.records += n as u64;
        for c in 0..self.clients.len() {
            for r in self.responses(c) {
                let Some(i) = due.iter().position(|d| (d.0, d.1) == (c, r.tag)) else {
                    panic!("client {c} got an answer to {}", r.tag)
                };
                let want = ResponseBody::Matches(scan_support(&self.model, &due.swap_remove(i).2));
                assert_eq!(r.body, want, "the batched answer to {}", r.tag);
            }
        }
        assert!(due.is_empty(), "a query unanswered");
        self.settle();
    }

    /// The shell goes round its loop: every queued query runs, then it
    /// waits `idle` for events.
    fn turn(&mut self, idle: Duration) {
        while self.core.has_pending() {
            self.batch();
        }
        self.end_work();
        self.now.set(self.now.get() + idle);
        self.core.begin_work();
        self.work_start = self.now.get();
    }

    fn end_work(&mut self) {
        self.core.end_work();
        let (now, threshold) = (self.now.get(), self.core.config.stall_threshold);
        if threshold.is_some_and(|t| now.saturating_duration_since(self.work_start) >= t) {
            self.tally.stalls += 1;
            self.last_stall = Some(now);
        }
    }

    /// The checks after every step: closes asked for and announced, every
    /// output checked and announced, buffers and queue in bounds, the
    /// report equal to the tallies.
    fn settle(&mut self) {
        let touched: HashSet<usize> = std::iter::from_fn(|| self.core.next_touched()).collect();
        for idx in self.fresh.drain(..) {
            assert!(touched.contains(&idx), "output on {idx} unannounced");
        }
        for c in 0..self.clients.len() {
            let Some(idx) = self.clients[c].idx else {
                continue;
            };
            let Some(conn) = self.core.conns[idx].as_ref() else {
                assert!(self.clients[c].ended, "the core closed {idx} unasked");
                assert!(touched.contains(&idx), "close of {idx} unannounced");
                self.clients[c].idx = None;
                let before = self.queue.len();
                self.queue.retain(|q| q.0 != c);
                self.dropped += (before - self.queue.len()) as u64;
                self.records += (before - self.queue.len()) as u64;
                continue;
            };
            assert_eq!(conn.wtotal, self.clients[c].seen, "output unchecked");
            let rcap = match conn.kind {
                ConnKind::Wire => 4 + MAX_FRAME,
                ConnKind::Http => http::MAX_HEAD + 1,
            };
            let rbuf = conn.rbuf.len();
            assert!(conn.rlen < rcap && rbuf < rcap + READ_CHUNK, "read buffer");
        }
        let open = self.core.conns.len() - self.core.free.len();
        assert_eq!(open, self.open().len(), "open connections");
        assert_eq!(self.core.pending.len(), self.queue.len(), "queued queries");
        assert_eq!(self.core.report(), self.tally, "report vs tallies");
    }
}

/// A finished run: the report, the metrics absorbed at exit, the access
/// log, and the digest of every answer.
struct Outcome {
    report: ServeReport,
    exit: obs::MetricSet,
    log: String,
    digest: u64,
}

/// Run `drive` against a fresh core and engine, then end the run the way
/// the shell does, with two checks first: every frame still unread is
/// answered, and a STATS snapshot's loop counters equal the exit metrics
/// but for the shutdown after it.
fn run(config: ServeConfig, seats: usize, full: bool, drive: impl FnOnce(&mut Sim)) -> Outcome {
    let engine = Engine::new(index().clone(), seats);
    let registry = obs::Registry::new();
    let sink = Sink(Arc::default(), full);
    let mut telemetry = ServeTelemetry {
        slow: SlowQueryLog::new(Some(Duration::ZERO), 3),
        access: Some(AccessLog::to_writer(Box::new(sink.clone()))),
    };
    let now = Cell::new(Instant::now());
    let clock = || now.get();
    let mut sim = Sim {
        core: Machine::new(config, &engine, &registry, &mut telemetry, &clock),
        now: &now,
        model: index().clone(),
        clients: Vec::new(),
        queue: VecDeque::new(),
        tally: ServeReport::default(),
        records: 0,
        dropped: 0,
        writes: 0,
        next_tag: 0,
        fresh: Vec::new(),
        work_start: now.get(),
        last_stall: None,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    sim.core.begin_work();
    drive(&mut sim);
    let mut snapshot = None;
    if !sim.core.shutting_down() {
        for c in sim.open() {
            sim.deliver_all(c, READ_CHUNK);
        }
        sim.turn(Duration::ZERO);
        if sim.open().len() >= sim.core.config.max_conns {
            sim.disconnect(sim.open()[0]);
        }
        let c = sim.connect(false);
        sim.send(c, RequestBody::Stats);
        sim.send(c, RequestBody::Shutdown);
        sim.deliver_all(c, usize::MAX);
        snapshot = sim.clients[c].got.iter().find_map(|r| match &r.body {
            ResponseBody::Stats(json) => obs::json::parse_metric_set(json).ok(),
            _ => None,
        });
    }
    while sim.core.has_pending() {
        sim.batch();
    }
    sim.end_work();
    let (records, dropped, writes, digest) = (sim.records, sim.dropped, sim.writes, sim.digest);
    let report = sim.core.finish();
    assert_eq!(report, sim.tally, "the exit report against the tallies");
    let exit = registry.drain();
    let ours = |set: &obs::MetricSet| -> BTreeMap<&str, u64> {
        let prefixes = ["serve.", "cache.", "maint."];
        let ours = |n: &str| prefixes.iter().any(|p| n.starts_with(p));
        let named = set.counters().map(|(c, v)| (c.name(), v));
        named.filter(|c| ours(c.0)).collect()
    };
    if let Some(snapshot) = snapshot {
        for gauge in [Gauge::SERVE_QUEUE_PEAK, Gauge::SERVE_QUEUE_DEPTH] {
            assert!(snapshot.gauge(gauge.name()).is_some(), "{gauge:?}");
        }
        let mut want = ours(&snapshot);
        *want.entry(Counter::SERVE_REQUESTS.name()).or_default() += 1;
        if full {
            let errors = Counter::SERVE_ACCESS_LOG_WRITE_ERRORS.name();
            *want.entry(errors).or_default() += 2;
        }
        assert_eq!(want, ours(&exit), "STATS and the exit metrics");
    }
    assert_eq!(engine.maint_stats().applied, writes, "writes applied");
    // The slow-query threshold is zero: every batched query is captured.
    let slow = &telemetry.slow;
    let kept = report.served.min(3) as usize;
    assert_eq!((slow.seen(), slow.len()), (report.served, kept));
    let trace = slow.render_chrome_json();
    let slices = trace.matches("\"ph\": \"X\"").count();
    assert_eq!(slices, kept * (1 + Span::PIPELINE.len()), "slow log");
    let access = telemetry.access.as_ref().expect("the access log");
    let lost = if full { records } else { 0 };
    let written = (access.lines(), access.write_errors());
    assert_eq!(written, (records - lost, lost), "access records");
    let log = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let drops = log.matches("\"outcome\": \"dropped\"").count() as u64;
    assert!(full || drops == dropped, "{drops} logged dropped");
    Outcome {
        report,
        exit,
        log,
        digest,
    }
}

/// Append one request to `c`, mutated one time in five.
fn request(sim: &mut Sim, c: usize, rng: &mut ChaCha8Rng, pool: &[Graph]) {
    let g = pool[rng.gen_range(0..pool.len())].clone();
    let body = match rng.gen_range(0..20) {
        0..=12 => RequestBody::Query(g),
        13..=16 => RequestBody::Insert(g),
        17 | 18 => RequestBody::Remove(rng.gen_range(0..10)),
        _ => RequestBody::Stats,
    };
    let start = sim.clients[c].out.len();
    sim.send(c, body);
    let cl = &mut sim.clients[c];
    let at = rng.gen_range(start + 8..cl.out.len());
    match rng.gen_range(0..20) {
        0 => cl.out[at] ^= rng.gen_range(1..=255u8),
        1 => cl.out.truncate(at),
        2 => cl.out.insert(at, rng.gen_range(0..=255u8)),
        3 => {
            let len = (MAX_FRAME + rng.gen_range(1..4096usize)) as u32;
            cl.out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            cl.poison = Some(start);
            return;
        }
        _ => return,
    }
    let len = (cl.out.len() - start - 4) as u32;
    cl.out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// A query whose one line fills a frame, so the error message echoing
/// the line is cut — inside a multi-byte char two times in three.
fn long_line(sim: &mut Sim, c: usize, rng: &mut ChaCha8Rng) {
    let mut line = "z".repeat(rng.gen_range(1..=3));
    while line.len() + 3 <= MAX_FRAME - 5 {
        line.push('€');
    }
    sim.next_tag += 1;
    let out = &mut sim.clients[c].out;
    out.extend_from_slice(&((5 + line.len()) as u32).to_le_bytes());
    out.extend_from_slice(&sim.next_tag.to_le_bytes());
    out.push(b'Q');
    out.extend_from_slice(line.as_bytes());
}

/// One generated history.
fn run_seed(seed: u64, step: &Cell<u64>) -> Outcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = ServeConfig {
        max_batch: rng.gen_range(1..=6),
        queue_cap: rng.gen_range(1..=6),
        cache_cap: rng.gen_range(0..=4),
        max_conns: rng.gen_range(2..=5),
        max_requests: [0, rng.gen_range(4..40)][(rng.gen_range(0..8) == 0) as usize],
        http_addr: None,
        stall_threshold: Some(Duration::from_millis(rng.gen_range(1..200))),
    };
    let (seats, full, mut long) = (rng.gen_range(1..=2), rng.gen_range(0..10) == 0, true);
    let pool = graphs();
    run(config, seats, full, |sim| {
        for _ in 0..rng.gen_range(10..100) {
            if sim.core.shutting_down() {
                return;
            }
            for _ in 0..rng.gen_range(1..=4) {
                step.set(step.get() + 1);
                let open = sim.open();
                let connect = open.is_empty() || rng.gen_range(0..12) == 0;
                let Some(c) = (!connect).then(|| open[rng.gen_range(0..open.len())]) else {
                    let http = rng.gen_range(0..5) == 0;
                    let c = sim.connect(http);
                    if http {
                        let mut head = HEADS[rng.gen_range(0..HEADS.len())].as_bytes().to_vec();
                        match rng.gen_range(0..6) {
                            0 => head = format!("GET /{}", "a".repeat(http::MAX_HEAD)).into(),
                            1 => *head.last_mut().unwrap() ^= rng.gen_range(1..=255u8),
                            2 => head.extend_from_slice(b"trailing bytes"),
                            _ => {}
                        }
                        sim.clients[c].out = head;
                    }
                    continue;
                };
                let writer = !sim.clients[c].http && sim.clients[c].poison.is_none();
                match rng.gen_range(0..20) {
                    0..=6 if writer && long && rng.gen_range(0..512) == 0 => {
                        long = false;
                        long_line(sim, c, &mut rng);
                        sim.deliver_all(c, rng.gen_range(1..=READ_QUANTUM));
                    }
                    0..=6 if writer => request(sim, c, &mut rng, &pool),
                    0..=13 => {
                        let mut budget = rng.gen_range(1..=READ_QUANTUM);
                        while budget > 0 && sim.clients[c].idx.is_some() {
                            let n = rng.gen_range(1..=budget.min(3 * READ_CHUNK));
                            sim.deliver(c, n);
                            budget -= n;
                        }
                    }
                    14 | 15 => sim.flush(c, rng.gen_range(1..=4096)),
                    16 => {
                        let windows = [Some(0), Some(rng.gen_range(1..512usize)), None];
                        sim.clients[c].window = windows[rng.gen_range(0..3usize)];
                    }
                    17 => sim.disconnect(c),
                    18 => sim.eof(c),
                    _ => sim
                        .now
                        .set(sim.now.get() + Duration::from_millis(rng.gen_range(0..250))),
                }
            }
            sim.turn(Duration::from_millis(rng.gen_range(0..40_000)));
        }
    })
}

/// Run one seed; a failure is reported with its `(seed, step)`, below
/// the panic message that names the broken check.
fn run_checked(seed: u64) -> u64 {
    let step = Cell::new(0);
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_seed(seed, &step)));
    let failed = |_| panic!("simulation failed at (seed {seed}, step {})", step.get());
    run.unwrap_or_else(failed).digest
}

#[test]
fn every_seed_keeps_every_invariant() {
    for seed in 0..SEEDS {
        run_checked(seed);
    }
}

#[test]
fn a_seed_replays_step_for_step() {
    for seed in [1, 7, 42] {
        assert_eq!(run_checked(seed), run_checked(seed), "seed {seed}");
    }
}

fn quiet() -> ServeConfig {
    ServeConfig {
        stall_threshold: None,
        ..ServeConfig::default()
    }
}

#[test]
fn two_slots_refuse_a_third_client_and_count_it() {
    let config = ServeConfig {
        max_conns: 2,
        ..quiet()
    };
    let out = run(config, 1, false, |sim| {
        let clients = [(); 3].map(|_| sim.connect(false));
        assert!(sim.clients[clients[2]].idx.is_none());
        sim.disconnect(clients[0]);
    });
    assert_eq!(out.report.conns_refused, 1);
    assert_eq!(out.exit.counter(Counter::SERVE_CONNS_REFUSED.name()), 1);
}

/// End of file closes the connection: a client that half-closes gets the
/// answers written before its EOF was read and none after, and the next
/// client in its slot gets none of the rest.
#[test]
fn a_half_closed_client_gets_only_answers_written_before_its_eof() {
    let g = graphs();
    let out = run(quiet(), 2, false, |sim| {
        let a = sim.connect(false);
        let first = sim.send(a, RequestBody::Query(g[5].clone()));
        sim.deliver_all(a, usize::MAX);
        sim.turn(Duration::ZERO);
        for q in &g[6..9] {
            sim.send(a, RequestBody::Query(q.clone()));
        }
        let stats = sim.send(a, RequestBody::Stats);
        sim.deliver_all(a, 7);
        sim.eof(a);
        let b = sim.connect(false);
        assert_eq!(sim.clients[b].idx, Some(0), "b takes a's slot");
        let mine = sim.send(b, RequestBody::Query(g[9].clone()));
        sim.deliver_all(b, usize::MAX);
        sim.turn(Duration::ZERO);
        let tags = |c: usize| sim.clients[c].got.iter().map(|r| r.tag).collect::<Vec<_>>();
        assert_eq!((tags(a), tags(b)), (vec![first, stats], vec![mine]));
        assert_eq!(sim.dropped, 3);
    });
    assert_eq!((out.report.queue_peak, out.report.served), (3, 2));
    assert_eq!(out.log.matches("\"outcome\": \"dropped\"").count(), 3);
}

/// Identical queries pipelined in one read share a batch: each is answered
/// and accounted for, and the engine runs each distinct query once.
#[test]
fn identical_queries_in_one_batch_run_once() {
    let g = graphs();
    let out = run(quiet(), 2, false, |sim| {
        let c = sim.connect(false);
        for i in [1, 1, 3, 1, 3, 1] {
            sim.send(c, RequestBody::Query(g[i].clone()));
        }
        sim.deliver_all(c, usize::MAX);
        sim.turn(Duration::ZERO);
    });
    assert_eq!((out.report.batches, out.report.served), (1, 6));
    assert_eq!(out.exit.counter(Counter::FUNNEL_QUERIES.name()), 2);
    for span in [Span::SERVE_REQUEST, Span::SERVE_EXEC_SHARE] {
        assert_eq!(out.exit.span(span.name()).map(|s| s.count), Some(6));
    }
}

/// A write decoded after a query's admission but before its batch: the
/// batch runs on the written snapshot and fills the cache, so a repeat is
/// answered at once, until a remove empties it. Each write is logged
/// under the epoch it published.
#[test]
fn a_batch_after_a_write_fills_the_cache() {
    let g = graphs();
    let out = run(quiet(), 1, false, |sim| {
        let c = sim.connect(false);
        sim.send(c, RequestBody::Query(g[5].clone()));
        sim.deliver_all(c, usize::MAX);
        sim.turn(Duration::ZERO);
        // Checked against the model as of the batch: gid 5 among the matches.
        sim.send(c, RequestBody::Query(g[1].clone()));
        sim.send(c, RequestBody::Insert(g[1].clone()));
        sim.deliver_all(c, usize::MAX);
        sim.turn(Duration::ZERO);
        let repeat = sim.send(c, RequestBody::Query(g[1].clone()));
        sim.deliver_all(c, usize::MAX);
        let last = sim.clients[c].got.last().map(|r| r.tag);
        assert_eq!(last, Some(repeat), "a hit is answered at once");
        sim.send(c, RequestBody::Remove(5));
        sim.send(c, RequestBody::Query(g[1].clone()));
        sim.deliver_all(c, usize::MAX);
    });
    // Two epoch moves found the cache filled; hits never reach the pipeline.
    assert_eq!((out.report.cache_hits, out.report.served), (1, 3));
    assert_eq!(out.exit.counter(Counter::CACHE_INVALIDATIONS.name()), 2);
    assert_eq!(out.exit.counter(Counter::FUNNEL_QUERIES.name()), 3);
    for span in Span::PIPELINE {
        let count = out.exit.span(span.name()).map(|s| s.count);
        assert_eq!(count, Some(3), "{span:?}");
    }
    let epoch = |op: &str| {
        let op = format!("\"op\": \"{op}\"");
        let line = out.log.lines().find(|l| l.contains(&op))?;
        obs::json::parse(line).ok()?.get("epoch")?.as_u64()
    };
    assert_eq!((epoch("insert"), epoch("remove")), (Some(1), Some(2)));
}

/// The write cap judges what a flush leaves unsent: a client that reads
/// answers piled up past `WBUF_CAP` by one burst of requests keeps its
/// connection, one that reads nothing is dropped and counted.
#[test]
fn only_a_client_that_stops_reading_is_dropped_at_the_write_cap() {
    let mut rng = ChaCha8Rng::seed_from_u64(0);
    let out = run(quiet(), 1, false, |sim| {
        for window in [None, Some(0)] {
            let c = sim.connect(false);
            sim.clients[c].window = window;
            for _ in 0..9 {
                long_line(sim, c, &mut rng); // answered by a frame-sized error
            }
            sim.deliver_all(c, READ_CHUNK);
            assert!(sim.core.unsent(sim.clients[c].idx.unwrap()).len() > WBUF_CAP);
            sim.flush(c, usize::MAX);
            assert_eq!(sim.clients[c].idx.is_some(), window.is_none());
        }
    });
    let drops = Counter::SERVE_SLOW_CONSUMER_DROP.name();
    assert_eq!(out.exit.counter(drops), 1);
}
