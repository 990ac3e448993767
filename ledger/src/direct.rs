//! `query_small` and `query_large`: the engine called directly, one caller,
//! one query per call. The pool is visited in a seed-chosen order, once
//! untimed (the reference answers) and then in timed passes until
//! `--seconds` are spent; the median pass is reported.

use crate::adapter::{self, Engine, Funnel, Graph, QueryStats, StageTimes};
use crate::report::Outcome;
use crate::setup::{self, Ctx};
use crate::stats::{median, spread_frac, tail};
use crate::trace::{Span, Tracer};
use rand::seq::SliceRandom;
use std::io;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Small,
    Large,
}

/// One timed pass over the pool.
struct Pass {
    ops_per_s: f64,
    stats: Vec<QueryStats>,
    /// Per-query wall time, in visiting order.
    walls: Vec<Duration>,
}

impl Pass {
    fn latencies_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.walls.iter().map(|w| w.as_secs_f64() * 1e3)
    }
}

struct Driver<'a> {
    engine: &'a Engine,
    pool: &'a [Graph],
    /// Pool indices in visiting order.
    order: &'a [usize],
    reference: &'a [Vec<u32>],
    seed: u64,
}

/// The engine RNG seed of pool query `i`: fixed per query, so every pass
/// does the same work.
fn query_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add(i as u64)
}

impl Driver<'_> {
    fn pass(&self, registry: &adapter::Registry, out: &mut Outcome) -> Pass {
        let mut p = Pass {
            ops_per_s: 0.0,
            stats: Vec::with_capacity(self.order.len()),
            walls: Vec::with_capacity(self.order.len()),
        };
        let t0 = Instant::now();
        for &i in self.order {
            let t = Instant::now();
            let (answer, stats) = adapter::query_one(
                self.engine,
                &self.pool[i],
                query_seed(self.seed, i),
                registry,
            );
            let wall = t.elapsed();
            out.check(answer == self.reference[i]);
            p.stats.push(stats);
            p.walls.push(wall);
        }
        p.ops_per_s = self.order.len() as f64 / t0.elapsed().as_secs_f64();
        p
    }

    /// Timed passes for `seconds`, at least `min` of them.
    fn passes(
        &self,
        seconds: f64,
        min: usize,
        registry: &adapter::Registry,
        out: &mut Outcome,
    ) -> Vec<Pass> {
        let t0 = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < min || t0.elapsed().as_secs_f64() < seconds {
            passes.push(self.pass(registry, out));
        }
        passes
    }
}

fn ops(passes: &[Pass]) -> Vec<f64> {
    passes.iter().map(|p| p.ops_per_s).collect()
}

pub fn run(ctx: &Ctx, which: Which) -> io::Result<(Outcome, Vec<Span>, adapter::Registry)> {
    let mut out = Outcome::default();
    let ready = setup::ready(ctx)?;
    let engine = &ready.last.engine;
    let snapshot = adapter::snapshot(engine);
    let pool = match which {
        Which::Small => setup::small_pool(adapter::db_of(&snapshot), &ctx.sizes),
        Which::Large => setup::large_pool(adapter::db_of(&snapshot), &ctx.sizes),
    };
    let mut order: Vec<usize> = (0..pool.len()).collect();
    order.shuffle(&mut adapter::rng(ctx.seed));
    let off = adapter::registry(false);

    // The untimed warm-up pass gives the reference answers; the scan
    // oracle then vouches for the first `oracle_queries` of them.
    let mut reference = vec![Vec::new(); pool.len()];
    for &i in &order {
        reference[i] = adapter::query_one(engine, &pool[i], query_seed(ctx.seed, i), &off).0;
    }
    for &i in order.iter().take(ctx.sizes.oracle_queries) {
        out.check(reference[i] == adapter::scan(&snapshot, &pool[i]));
    }
    let driver = Driver {
        engine,
        pool: &pool,
        order: &order,
        reference: &reference,
        seed: ctx.seed,
    };
    out.note("pool.queries", pool.len());
    setup::check_persisted(&ready, &pool, ctx.seed, &ctx.sizes, &mut out);

    if !ctx.traced {
        let passes = driver.passes(ctx.seconds, ctx.sizes.min_passes, &off, &mut out);
        let all: Vec<f64> = passes.iter().flat_map(Pass::latencies_ms).collect();
        let t = tail(&all);
        setup::common_end_to_end(&ready.cycles, &ready.facts, &mut out);
        out.end_to_end.set("ops_per_s", median(&ops(&passes)));
        out.end_to_end.set("latency_p95_ms", t.p95);
        out.note("passes", passes.len());
        out.note("latency.samples", t.n);
        out.note("latency.p50_ms", t.p50);
        out.note("latency.p95_is_percentile", t.p95_at);
        out.note("client.pass_spread_frac", spread_frac(&ops(&passes)));
        return Ok((out, Vec::new(), off));
    }

    // Traced run. A third of the time each: the engine with the program's
    // recording off, then on (their ratio is the obs overhead), then the
    // stage-by-stage replay under harness spans.
    let third = ctx.seconds / 3.0;
    let plain = driver.passes(third, 1, &off, &mut out);
    let recorded = driver.passes(third, 1, &ready.registry, &mut out);
    let last = recorded.last().expect("at least one pass");

    let mut tr = Tracer::new(Instant::now(), 0);
    let mut funnel = Funnel::default();
    let mut stages = StageTimes::default();
    let pass_span = tr.begin("pass.replay");
    for (n, &i) in order.iter().enumerate() {
        tr.set_op(Some(n as u64));
        let span = tr.begin("query");
        let answer = adapter::replay(
            engine,
            &pool[i],
            query_seed(ctx.seed, i),
            &mut tr,
            &mut funnel,
            &mut stages,
        );
        tr.end(span);
        out.check(answer == reference[i]);
    }
    tr.set_op(None);
    tr.end(pass_span);

    let t = Instant::now();
    let batched = adapter::query_many(engine, &pool, ctx.seed);
    let batch_ops_per_s = pool.len() as f64 / t.elapsed().as_secs_f64();
    // A batch gives query `i` its own RNG stream, so partitions — not
    // answers — may differ from the one-per-call passes.
    for (answer, expected) in batched.iter().zip(&reference) {
        out.check(answer == expected);
    }

    // Reconciliation. Per query, the program's own stage times fit inside
    // the wall time the harness saw; what is left is pin, RNG set-up and
    // pool dispatch. The replay's stage total is set against the program's.
    let wall: Duration = last.walls.iter().sum();
    let staged: Duration = last.stats.iter().map(QueryStats::total).sum();
    out.check(
        last.stats
            .iter()
            .zip(&last.walls)
            .all(|(s, w)| s.total() <= *w),
    );

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let m = &mut out.per_layer;
    setup::build_layers(&ready, &ctx.sizes, m);
    m.set("partition.runs_ms", ms(stages.runs));
    m.set("partition.enumerate_ms", ms(stages.enumerate));
    m.set("partition.ms", ms(stages.runs + stages.enumerate));
    m.set("partition.parts", funnel.parts as f64);
    m.set("partition.sf_features", funnel.sf_features as f64);
    m.set("filter.ms", ms(stages.filter));
    m.set("filter.candidates", funnel.filtered as f64);
    m.set("sig.ms", ms(stages.sig));
    m.set("sig.killed", funnel.sig_killed as f64);
    m.set("sig.kill_ratio", ratio(funnel.sig_killed, funnel.filtered));
    let after_sig = funnel.filtered - funnel.sig_killed;
    m.set("prune.ms", ms(stages.prune));
    m.set("prune.survivors", funnel.pruned as f64);
    m.set(
        "prune.kill_ratio",
        ratio(after_sig - funnel.pruned, after_sig),
    );
    m.set("verify.ms", ms(stages.verify));
    m.set("verify.answers", funnel.answers as f64);
    m.set("verify.precision", ratio(funnel.answers, funnel.pruned));

    m.set("engine.dispatch_ms", ms(wall - staged));
    m.set("engine.batch_ops_per_s", batch_ops_per_s);
    m.set(
        "engine.replay_frac",
        ms(stages.total()) / ms(staged).max(f64::MIN_POSITIVE),
    );
    m.set(
        "obs.overhead_frac",
        1.0 - median(&ops(&recorded)) / median(&ops(&plain)),
    );
    m.set("client.pass_spread_frac", spread_frac(&ops(&plain)));
    let t = tail(&last.latencies_ms().collect::<Vec<_>>());
    m.set("client.latency_p50_ms", t.p50);
    m.set("client.latency_p99_ms", t.p99);

    let share = |d: Duration| format!("{:.1} %", 100.0 * ms(d) / ms(stages.total()));
    out.note("share.partition", share(stages.runs + stages.enumerate));
    out.note("share.filter", share(stages.filter));
    out.note(
        "share.sig+prune+verify",
        share(stages.sig + stages.prune + stages.verify),
    );
    out.note(
        "passes",
        format!(
            "{} plain, {} recorded, 1 replayed",
            plain.len(),
            recorded.len()
        ),
    );
    Ok((out, tr.into_spans(), ready.registry))
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}
