//! Fixed settings, and the set-up every workload does for itself:
//! gen → build → save → load → engine, several times, so that `setup_s`
//! means the same thing everywhere and is a median, not one sample.

use crate::adapter::{self, Engine, Graph, IndexFacts, MetricSet, Registry, TreePiIndex};
use crate::report::{Metrics, Outcome};
use crate::stats::median;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Engine and build workers: the CLI's default on the 2-core box the
/// ledger was sized on, fixed so that a bigger host changes `nproc` in the
/// host facts and nothing else.
pub const THREADS: usize = 2;
/// Load-generating connections, one thread each.
pub const CONNS: usize = 2;
/// The database and the query pools are fixtures of the benchmark, made
/// from these constants: ten seeds must measure the program ten times, not
/// ten different databases (build time alone moves ±15 % with the database
/// seed). `--seed` decides what is done with them: visiting order, engine
/// RNG streams, which queries are hot, which graphs are written, which
/// answers the oracle checks.
const DB_SEED: u64 = 0x7ee9_2007;
const POOL_SEED: u64 = 0x0051_ed9e;
/// The serving latency limit: p95 from due time, with nothing failed.
pub const LATENCY_LIMIT_MS: f64 = 25.0;
/// Open-loop rates, requests per second over all connections.
pub const OPEN_RATES: [f64; 2] = [400.0, 800.0];
/// Every how many ops of `serve_churn` one is a write.
pub const WRITE_EVERY: u64 = 16;
/// Inserted graphs a churning connection holds before it removes one.
pub const HELD_GIDS: usize = 4;

/// Input sizes. `--smoke` shrinks them and nothing else: same code paths.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub db_graphs: usize,
    /// 4-edge queries of `query_small`.
    pub small_queries: usize,
    /// 16-edge and, again, 20-edge queries of `query_large`.
    pub large_queries_each: usize,
    /// Distinct queries of the serving pool (4/8/12/16 edges).
    pub serve_pool: usize,
    pub warmup_requests: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Saves and loads per set-up; `save_ms`/`load_ms` are medians.
    pub persist_reps: usize,
    /// Queries per workload checked against the scan oracle.
    pub oracle_queries: usize,
    /// Fewest timed passes (or build cycles) whatever `--seconds` says.
    pub min_passes: usize,
}

impl Sizes {
    pub fn new(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                db_graphs: 60,
                small_queries: 200,
                large_queries_each: 20,
                serve_pool: 512,
                warmup_requests: 200,
                setups: 2,
                persist_reps: 2,
                oracle_queries: 64,
                min_passes: 2,
            }
        } else {
            Sizes {
                db_graphs: 200,
                small_queries: 600,
                large_queries_each: 100,
                serve_pool: 2 * adapter::cache_capacity(),
                warmup_requests: 2000,
                setups: 3,
                persist_reps: 5,
                oracle_queries: 256,
                min_passes: 3,
            }
        }
    }
}

/// One run's arguments and scratch space.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
    /// Inside the build directory, so inside the checkout.
    pub tmp: PathBuf,
}

impl Ctx {
    pub fn index_path(&self) -> PathBuf {
        self.tmp.join(format!("index-{}.tpi", std::process::id()))
    }
}

/// Timings and sizes of one gen → build → save → load → engine cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cycle {
    pub total_s: f64,
    pub gen_ms: f64,
    pub build_s: f64,
    pub save_ms: f64,
    pub load_ms: f64,
    pub file_bytes: u64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
}

/// The product of one cycle: the built index, and an engine over the
/// index loaded back from the file — what `treepi serve` would run on.
pub struct Indexed {
    pub cycle: Cycle,
    pub built: TreePiIndex,
    pub engine: Engine,
    /// What the program recorded while building (empty unless traced).
    pub build_set: MetricSet,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The fixture database.
pub fn database(sizes: &Sizes) -> Vec<Graph> {
    adapter::gen_db(sizes.db_graphs, DB_SEED)
}

/// One cycle. The program records the build into `registry` (nothing when
/// it is disabled); its timeline stays there, its metrics are taken out.
pub fn cycle(ctx: &Ctx, registry: &Registry) -> io::Result<Indexed> {
    let t0 = Instant::now();
    let db = database(&ctx.sizes);
    let gen_ms = ms(t0);

    let (count0, bytes0) = adapter::alloc_totals();
    let t = Instant::now();
    let built = adapter::build(db, THREADS, registry);
    let build_s = t.elapsed().as_secs_f64();
    let (count1, bytes1) = adapter::alloc_totals();

    let path = ctx.index_path();
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    let mut file_bytes = 0;
    let mut loaded = None;
    for _ in 0..ctx.sizes.persist_reps {
        let t = Instant::now();
        file_bytes = adapter::save(&built, &path)?;
        save_ms.push(ms(t));
        let t = Instant::now();
        loaded = Some(adapter::load(&path)?);
        load_ms.push(ms(t));
    }
    std::fs::remove_file(&path)?;
    let engine = adapter::engine(loaded.expect("at least one load"), THREADS);
    Ok(Indexed {
        cycle: Cycle {
            total_s: t0.elapsed().as_secs_f64(),
            gen_ms,
            build_s,
            save_ms: median(&save_ms),
            load_ms: median(&load_ms),
            file_bytes,
            alloc_count: count1 - count0,
            alloc_bytes: bytes1 - bytes0,
        },
        built,
        engine,
        build_set: adapter::drain(registry),
    })
}

/// The state a workload starts from: the last cycle's products plus every
/// cycle's timings.
pub struct Ready {
    pub cycles: Vec<Cycle>,
    pub last: Indexed,
    pub facts: IndexFacts,
    /// Enabled, with a timeline, on a traced run; disabled otherwise.
    pub registry: Registry,
}

pub fn ready(ctx: &Ctx) -> io::Result<Ready> {
    let registry = adapter::registry(ctx.traced);
    let mut cycles = Vec::new();
    let mut last = None;
    for _ in 0..ctx.sizes.setups {
        // Drop the previous cycle's indexes first: peak memory should be
        // one build's, not two.
        drop(last.take());
        let indexed = cycle(ctx, &registry)?;
        cycles.push(indexed.cycle);
        last = Some(indexed);
    }
    let last = last.expect("at least one set-up");
    let facts = adapter::index_facts(&adapter::snapshot(&last.engine));
    Ok(Ready {
        cycles,
        last,
        facts,
        registry,
    })
}

/// The index read back from the file must answer as the index that was
/// built, and both as a scan of the database: checked on the run's last
/// set-up with the first `oracle_queries / 4` of `queries`.
pub fn check_persisted(
    ready: &Ready,
    queries: &[Graph],
    seed: u64,
    sizes: &Sizes,
    out: &mut Outcome,
) {
    let off = adapter::registry(false);
    let snapshot = adapter::snapshot(&ready.last.engine);
    // An engine of its own over a copy of the built index: the price of
    // asking both through the same entry point.
    let built = adapter::engine_over_copy(&ready.last.built, THREADS);
    for (i, q) in queries.iter().take(sizes.oracle_queries / 4).enumerate() {
        let seed = seed.wrapping_add(i as u64);
        let from_file = adapter::query_one(&ready.last.engine, q, seed, &off).0;
        out.check(from_file == adapter::query_one(&built, q, seed, &off).0);
        out.check(from_file == adapter::scan(&snapshot, q));
    }
}

/// Seconds to build the fixture database on one worker: with
/// `index.build_s` (two workers) the build's scaling ratio.
pub fn build_on_one_worker(sizes: &Sizes) -> f64 {
    let db = database(sizes);
    let t = Instant::now();
    std::hint::black_box(adapter::build(db, 1, &adapter::registry(false)));
    t.elapsed().as_secs_f64()
}

fn column(cycles: &[Cycle], f: impl Fn(&Cycle) -> f64) -> f64 {
    median(&cycles.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports the same way.
pub fn common_end_to_end(cycles: &[Cycle], facts: &IndexFacts, out: &mut Outcome) {
    let m = &mut out.end_to_end;
    m.set("setup_s", column(cycles, |c| c.total_s));
    m.set("index_file_bytes", cycles[0].file_bytes as f64);
    m.set("index_heap_bytes", facts.heap_bytes as f64);
    m.set("rss_peak_mb", rss_peak_mb());
    out.note("setup.cycles", cycles.len());
}

/// The build-side layers, from what the program recorded during a traced
/// build and from the index it produced.
pub fn build_layers(ready: &Ready, sizes: &Sizes, m: &mut Metrics) {
    let (cycles, facts, set) = (&ready.cycles[..], &ready.facts, &ready.last.build_set);
    m.set("datagen.gen_ms", column(cycles, |c| c.gen_ms));
    m.set("index.build_s", column(cycles, |c| c.build_s));
    m.set("index.build_t1_s", build_on_one_worker(sizes));
    m.set("persist.save_ms", column(cycles, |c| c.save_ms));
    m.set("persist.load_ms", column(cycles, |c| c.load_ms));
    m.set("mining.mine_s", adapter::span_ms(set, "build.mine").1 / 1e3);
    let candidates = adapter::counter(set, "mine.candidates");
    let patterns = adapter::counter(set, "mine.patterns");
    m.set("mining.candidates", candidates);
    m.set("mining.patterns", patterns);
    m.set("mining.keep_ratio", patterns / candidates.max(1.0));
    m.set("index.shrink_ms", adapter::span_ms(set, "build.shrink").1);
    m.set("index.centers_ms", adapter::span_ms(set, "build.centers").1);
    m.set("index.sigs_ms", adapter::span_ms(set, "build.sigs").1);
    m.set(
        "alloc.build_count",
        column(cycles, |c| c.alloc_count as f64),
    );
    m.set(
        "alloc.build_bytes",
        column(cycles, |c| c.alloc_bytes as f64),
    );
    m.set("index.features", facts.features as f64);
    m.set("index.center_positions", facts.center_positions as f64);
    m.set("index.bytes.db", facts.db_bytes as f64);
    m.set("index.bytes.features", facts.features_bytes as f64);
    m.set("index.bytes.supports", facts.supports_bytes as f64);
    m.set("index.bytes.centers", facts.centers_bytes as f64);
    m.set("index.bytes.sigs", facts.sigs_bytes as f64);
    m.set("index.bytes.trie", facts.trie_bytes as f64);
}

/// The 4-edge pool of `query_small`.
pub fn small_pool(db: &[Graph], sizes: &Sizes) -> Vec<Graph> {
    adapter::gen_queries(db, 4, sizes.small_queries, POOL_SEED)
}

/// The 16- and 20-edge pool of `query_large`.
pub fn large_pool(db: &[Graph], sizes: &Sizes) -> Vec<Graph> {
    let mut pool = adapter::gen_queries(db, 16, sizes.large_queries_each, POOL_SEED);
    pool.extend(adapter::gen_queries(
        db,
        20,
        sizes.large_queries_each,
        POOL_SEED + 1,
    ));
    pool
}

/// The serving pool: queries of 4, 8, 12 and 16 edges in rotation, kept
/// only when no earlier one has the same canonical code — the server's
/// cache key — so the pool's size is its size relative to the cache.
pub fn serve_pool(db: &[Graph], sizes: &Sizes) -> Vec<Graph> {
    const EDGES: [usize; 4] = [4, 8, 12, 16];
    let mut seen = std::collections::HashSet::new();
    let mut pool = Vec::with_capacity(sizes.serve_pool);
    // Distinct 4-edge subgraphs run out long before the others do; a
    // bounded number of rounds lets the larger sizes make up the number.
    for round in 0..64u64 {
        for (k, &edges) in EDGES.iter().enumerate() {
            let batch = sizes.serve_pool / 8;
            for q in adapter::gen_queries(db, edges, batch, POOL_SEED + 4 * round + k as u64) {
                if pool.len() < sizes.serve_pool && seen.insert(adapter::cache_key(&q)) {
                    pool.push(q);
                }
            }
        }
        if pool.len() == sizes.serve_pool {
            break;
        }
    }
    pool
}
