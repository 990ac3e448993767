//! Every call into a repository crate is in this file, and each uses the
//! plainest entry point that exists for its operation. When the entry
//! points collapse (ROADMAP, "one context, one entry point per operation")
//! this is the one file of the benchmark that follows.
//!
//! Layers are measured from outside: by timing these calls, and by reading
//! what the public API already returns (`QueryStats`, `ServeReport`,
//! `MaintStats`, `memory_breakdown()`, a caller-supplied `obs::Registry`).

use crate::trace::{Span, Tracer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use graph_core::{CanonCode, Graph};
pub use obs::{MetricSet, Registry};
pub use serve::{Client, ServeReport, Server};
pub use treepi::{Engine, QueryStats, TreePiIndex};

/// The same allocator wrapper the `treepi` CLI installs, so allocation
/// counts are available and the allocator's cost is the CLI's.
#[global_allocator]
static ALLOC: obs::alloc::TrackingAlloc<std::alloc::System> =
    obs::alloc::TrackingAlloc::new(std::alloc::System);

pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

// ---------------------------------------------------------------- datagen

pub fn gen_db(graphs: usize, seed: u64) -> Vec<Graph> {
    datagen::generate_chem(&datagen::ChemParams::sized(graphs), &mut rng(seed))
}

pub fn gen_queries(db: &[Graph], edges: usize, count: usize, seed: u64) -> Vec<Graph> {
    datagen::extract_queries(db, edges, count, &mut rng(seed))
}

/// The key `serve` caches answers under (computed on its event-loop thread).
pub fn cache_key(q: &Graph) -> CanonCode {
    graph_core::canonical_code(q)
}

// ------------------------------------------------------------------- obs

pub fn registry(traced: bool) -> Registry {
    if traced {
        Registry::with_tracing()
    } else {
        Registry::disabled()
    }
}

pub fn drain(registry: &Registry) -> MetricSet {
    registry.drain()
}

pub fn counter(set: &MetricSet, name: &str) -> f64 {
    set.counter(name) as f64
}

/// `(count, total ms, p50 ms)` of a span the program recorded.
pub fn span_ms(set: &MetricSet, name: &str) -> (f64, f64, f64) {
    set.span(name).map_or((0.0, 0.0, 0.0), |s| {
        (
            s.count as f64,
            s.total_ns as f64 / 1e6,
            s.quantile_ns(0.5) as f64 / 1e6,
        )
    })
}

/// `(allocation calls, bytes allocated)` so far in this process.
pub fn alloc_totals() -> (u64, u64) {
    (
        obs::alloc::allocation_count(),
        obs::alloc::total_allocated_bytes(),
    )
}

/// Chrome-trace JSON of the harness spans plus whatever timeline the
/// program recorded into `registry` (nothing unless it was traced).
pub fn render_trace(spans: &[Span], registry: &Registry) -> String {
    let mut events = registry.drain_trace();
    events.extend(spans.iter().enumerate().map(|(id, s)| {
        let mut args = vec![("span".to_string(), id as u64)];
        if let Some(p) = s.parent {
            args.push(("parent".to_string(), p as u64));
        }
        obs::trace::TraceEvent {
            name: format!("ledger.{}", s.name),
            query: s.op,
            // Program lanes count up from 0; keep the harness's apart.
            lane: 1000 + s.lane,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            args,
        }
    }));
    obs::trace::render_chrome_json(&events)
}

pub fn parse_json(text: &str) -> Result<obs::json::Value, String> {
    obs::json::parse(text).map_err(|e| e.to_string())
}

pub use obs::json::{escape_string as json_string, Value as Json};

// ------------------------------------------------------ build and persist

/// Build with `TreePiParams::default()` on `threads` workers. A disabled
/// registry hands out a disabled shard, which is what the plain
/// `build_with_threads` passes too.
pub fn build(db: Vec<Graph>, threads: usize, registry: &Registry) -> TreePiIndex {
    let shard = registry.shard();
    let index =
        TreePiIndex::build_with_threads_obs(db, treepi::TreePiParams::default(), threads, &shard);
    registry.absorb(shard);
    index
}

/// Save as the CLI does (straight into the `File`); returns the file size.
pub fn save(index: &TreePiIndex, path: &Path) -> io::Result<u64> {
    let mut f = std::fs::File::create(path)?;
    index.save(&mut f)?;
    Ok(f.metadata()?.len())
}

pub fn load(path: &Path) -> io::Result<TreePiIndex> {
    TreePiIndex::load(&mut std::fs::File::open(path)?)
}

/// Shape and estimated heap bytes of an index, by structure.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexFacts {
    pub features: usize,
    pub center_positions: usize,
    pub heap_bytes: usize,
    pub db_bytes: usize,
    pub features_bytes: usize,
    pub supports_bytes: usize,
    pub centers_bytes: usize,
    pub sigs_bytes: usize,
    pub trie_bytes: usize,
}

pub fn index_facts(index: &TreePiIndex) -> IndexFacts {
    let m = index.memory_breakdown();
    IndexFacts {
        features: index.feature_count(),
        center_positions: index.stats().center_positions,
        heap_bytes: m.total(),
        db_bytes: m.db_bytes,
        features_bytes: m.features_bytes,
        supports_bytes: m.supports_bytes,
        centers_bytes: m.centers_bytes,
        sigs_bytes: m.sigs_bytes,
        trie_bytes: m.trie_bytes,
    }
}

pub fn db_of(index: &TreePiIndex) -> &[Graph] {
    index.db()
}

// ----------------------------------------------------------------- engine

pub fn engine(index: TreePiIndex, threads: usize) -> Engine {
    Engine::new(index, threads)
}

pub fn engine_over_copy(index: &TreePiIndex, threads: usize) -> Engine {
    Engine::new(index.clone(), threads)
}

pub fn snapshot(engine: &Engine) -> Arc<TreePiIndex> {
    engine.pin()
}

/// One caller, one query per call: a batch of one, which is how the engine
/// takes a single query (it then spends its pool inside the query).
pub fn query_one(
    engine: &Engine,
    q: &Graph,
    seed: u64,
    registry: &Registry,
) -> (Vec<u32>, QueryStats) {
    let (mut results, _) = engine.query_batch_obs(
        std::slice::from_ref(q),
        treepi::QueryOptions::default(),
        seed,
        registry,
    );
    let r = results.pop().expect("one result per query");
    (r.matches, r.stats)
}

/// The same queries as one batch: inter-query instead of intra-query
/// parallelism.
pub fn query_many(engine: &Engine, queries: &[Graph], seed: u64) -> Vec<Vec<u32>> {
    let (results, _) = engine.query_batch(queries, treepi::QueryOptions::default(), seed);
    results.into_iter().map(|r| r.matches).collect()
}

/// The brute-force oracle: VF2 over every active graph.
pub fn scan(index: &TreePiIndex, q: &Graph) -> Vec<u32> {
    treepi::scan_support(index, q)
}

/// `(ops applied, snapshots published)` by the engine's maintenance path.
pub fn maint_totals(engine: &Engine) -> (u64, u64) {
    let m = engine.maint_stats();
    (m.applied, m.snapshot_swaps)
}

/// What replayed queries saw at each stage boundary, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Funnel {
    pub parts: usize,
    pub sf_features: usize,
    pub filtered: usize,
    pub sig_killed: usize,
    pub pruned: usize,
    pub answers: usize,
}

/// Harness-timed stage durations of replayed queries, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub runs: Duration,
    pub enumerate: Duration,
    pub filter: Duration,
    pub sig: Duration,
    pub prune: Duration,
    pub verify: Duration,
}

impl StageTimes {
    pub fn total(&self) -> Duration {
        self.runs + self.enumerate + self.filter + self.sig + self.prune + self.verify
    }
}

/// Replay one query stage by stage through the public stage functions,
/// one harness span per layer, as the engine runs it: the RNG stream it
/// gives the first query of a batch seeded `seed` (so the partition, and
/// with it every later stage's input, is the engine's), and prune and
/// verify split over its pool when a stage has `INTRA_PAR_THRESHOLD`
/// candidates or more. Counts and times are added to `funnel` and `times`.
pub fn replay(
    engine: &Engine,
    q: &Graph,
    seed: u64,
    tr: &mut Tracer,
    funnel: &mut Funnel,
    times: &mut StageTimes,
) -> Vec<u32> {
    let index = &*engine.pin();
    let off = obs::Shard::disabled();
    let stage_threads = |candidates: usize| {
        if candidates >= treepi::INTRA_PAR_THRESHOLD {
            engine.parallelism()
        } else {
            1
        }
    };
    let mut rng = treepi::query_rng(seed, 0);

    // The δ runs, preceded by RP's first step: a query that is itself an
    // indexed feature tree is answered by that feature's support set.
    let span = tr.begin("partition.runs");
    let shortcut = (q.edge_count() + 1 == q.vertex_count())
        .then(|| tree_core::Tree::from_graph(q.clone()).ok())
        .flatten()
        .and_then(|t| index.feature_by_canon(&tree_core::canonical_string(&t)));
    if let Some(fid) = shortcut {
        let answer: Vec<u32> = index
            .feature(fid)
            .support
            .iter()
            .copied()
            .filter(|&gid| index.is_active(gid))
            .collect();
        times.runs += tr.end(span);
        funnel.parts += 1;
        funnel.sf_features += 1;
        funnel.filtered += answer.len();
        funnel.pruned += answer.len();
        funnel.answers += answer.len();
        return answer;
    }
    let delta = index.params().delta.resolve(q.edge_count());
    let runs = treepi::partition_runs_with(q, index, delta, &mut rng, false);
    times.runs += tr.end(span);
    let treepi::PartitionRuns::Ok {
        min_partition: parts,
        ..
    } = runs
    else {
        return Vec::new();
    };
    funnel.parts += parts.len();

    let span = tr.begin("partition.enumerate");
    let sf = treepi::enumerate_query_features(index, q);
    times.enumerate += tr.end(span);
    let Some(sf) = sf else {
        return Vec::new();
    };
    funnel.sf_features += sf.len();

    let span = tr.begin("filter");
    let pq = treepi::filter::filter(index, &sf);
    times.filter += tr.end(span);
    funnel.filtered += pq.len();

    let span = tr.begin("sig");
    let qsigs = treepi::sig::graph_sigs(q);
    let survivors = pq.len();
    let kept: Vec<u32> = pq
        .into_iter()
        .filter(|&gid| treepi::sig::graph_compatible(&qsigs, index.vertex_sigs(gid)))
        .collect();
    times.sig += tr.end(span);
    funnel.sig_killed += survivors - kept.len();

    let span = tr.begin("prune");
    let dq = treepi::prune::query_center_distances(q, &parts);
    let pruned = treepi::prune::center_prune_pool_obs(
        index,
        q,
        &kept,
        &parts,
        &dq,
        engine.pool(),
        stage_threads(kept.len()),
        &off,
    );
    times.prune += tr.end(span);
    funnel.pruned += pruned.len();

    let span = tr.begin("verify");
    let answer = treepi::verify::verify_all_pool_obs(
        index,
        q,
        &pruned,
        &parts,
        &dq,
        engine.pool(),
        stage_threads(pruned.len()),
        &off,
    );
    times.verify += tr.end(span);
    funnel.answers += answer.len();
    answer
}

// ------------------------------------------------------------------ serve

/// Bind `ServeConfig::default()` on an ephemeral loopback port.
pub fn bind_server() -> io::Result<(Server, String)> {
    let server = Server::bind("127.0.0.1:0", serve::ServeConfig::default())?;
    let addr = server.local_addr()?.to_string();
    Ok((server, addr))
}

/// Entries the default configuration's result cache holds.
pub fn cache_capacity() -> usize {
    serve::ServeConfig::default().cache_cap
}

/// Run the event loop until a shutdown request arrives.
pub fn run_server(server: Server, engine: &Engine, registry: &Registry) -> io::Result<ServeReport> {
    server.run(engine, registry)
}

pub fn connect(addr: &str) -> io::Result<Client> {
    Client::connect_retry(addr, Duration::from_secs(5))
}

/// A request the harness sends.
#[derive(Clone, Copy, Debug)]
pub enum Op<'a> {
    Query(&'a Graph),
    Insert(&'a Graph),
    Remove(u32),
    Shutdown,
}

/// A response, classified.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    Matches(Vec<u32>),
    Inserted(u32),
    Removed(bool),
    ShuttingDown,
    /// Shed: the admission queue was full.
    Busy,
    Error(String),
}

/// Send one frame; returns the tag its response will carry.
pub fn send(client: &mut Client, op: Op<'_>) -> io::Result<u32> {
    client.send(match op {
        Op::Query(g) => serve::RequestBody::Query(g.clone()),
        Op::Insert(g) => serve::RequestBody::Insert(g.clone()),
        Op::Remove(gid) => serve::RequestBody::Remove(gid),
        Op::Shutdown => serve::RequestBody::Shutdown,
    })
}

/// Block for the next response frame.
pub fn recv(client: &mut Client) -> io::Result<(u32, Reply)> {
    let resp = client.recv()?;
    let reply = match resp.body {
        serve::ResponseBody::Matches(ids) => Reply::Matches(ids),
        serve::ResponseBody::Inserted(gid) => Reply::Inserted(gid),
        serve::ResponseBody::Removed(was) => Reply::Removed(was),
        serve::ResponseBody::ShuttingDown => Reply::ShuttingDown,
        serve::ResponseBody::Busy => Reply::Busy,
        serve::ResponseBody::Error(msg) => Reply::Error(msg),
        serve::ResponseBody::Stats(_) => Reply::Error("unrequested stats reply".into()),
    };
    Ok((resp.tag, reply))
}

/// Mean microseconds per request frame to encode it (client side), to
/// decode it (server side, gSpan body included) and to compute its cache
/// key — the three per-request costs of the hit path, each timed alone.
pub fn time_hit_path(queries: &[Graph]) -> (f64, f64, f64) {
    use serve::protocol::{decode_request, encode_request, take_frame, Request};
    let n = queries.len() as f64;
    let t = Instant::now();
    let frames: Vec<Vec<u8>> = queries
        .iter()
        .enumerate()
        .map(|(i, g)| {
            encode_request(&Request {
                tag: i as u32,
                body: serve::RequestBody::Query(g.clone()),
            })
        })
        .collect();
    let encode = t.elapsed();
    let t = Instant::now();
    for frame in &frames {
        let (payload, _) = take_frame(frame)
            .expect("frame under the cap")
            .expect("frame complete");
        std::hint::black_box(decode_request(payload).expect("frame decodes"));
    }
    let decode = t.elapsed();
    let t = Instant::now();
    for g in queries {
        std::hint::black_box(cache_key(g));
    }
    let canon = t.elapsed();
    let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
    (us(encode), us(decode), us(canon))
}
