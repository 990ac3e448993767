//! `serve_zipf` and `serve_churn`: an in-process `serve::Server` with
//! `ServeConfig::default()` on loopback, driven over two connections.
//!
//! `serve_zipf` — Zipf(1.0) reads over a pool twice the cache's capacity:
//! a closed loop (two callers that wait), then open loops at two fixed
//! rates (independent clients), latency from due time.
//! `serve_churn` — the same reads in a closed loop with every 16th op a
//! write, so each snapshot publication empties the cache.

use crate::adapter::{self, Client, Engine, Graph, MetricSet, Registry, Reply, ServeReport};
use crate::driver::{self, Churn, Inputs, Reads, Sample, Script, Step, Stop};
use crate::report::Outcome;
use crate::setup::{self, Ctx, CONNS, HELD_GIDS, LATENCY_LIMIT_MS, OPEN_RATES, WRITE_EVERY};
use crate::stats::{median, spread_frac, tail, Tail, Zipf};
use crate::trace::{Span, Tracer};
use rand::seq::SliceRandom;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Which {
    Zipf,
    Churn,
}

/// One stretch of load with one shape.
#[derive(Clone, Copy)]
enum Phase {
    /// Closed loop, a fixed number of requests per connection, untimed.
    Warmup(u64),
    Closed(Duration),
    Open(f64, Duration),
    /// Reads of the listed pool queries on one connection, after writes
    /// have stopped.
    Quiesce,
}

impl Phase {
    fn name(&self) -> &'static str {
        match self {
            Phase::Warmup(_) => "phase.warmup",
            Phase::Closed(_) => "phase.closed",
            Phase::Open(..) => "phase.open",
            Phase::Quiesce => "phase.quiesce",
        }
    }
}

struct PhaseLog {
    phase: Phase,
    wall: Duration,
    samples: Vec<Sample>,
}

/// A script that reads a fixed list once.
struct Fixed {
    list: VecDeque<u32>,
}

impl Script for Fixed {
    fn next(&mut self) -> Step {
        Step::Read(self.list.pop_front().expect("quiesce reads are counted"))
    }
}

type BoxedScript<'a> = Box<dyn Script + Send + 'a>;

struct Load<'a> {
    ctx: &'a Ctx,
    inputs: Inputs<'a>,
    /// One script per connection, alive across sessions and phases: a
    /// churning connection must remember the graphs it still holds.
    scripts: Vec<BoxedScript<'a>>,
    quiesce: Vec<u32>,
    tracers: Vec<Tracer>,
    next_op: u64,
}

impl Load<'_> {
    fn phase(&mut self, clients: &mut [Client], phase: Phase) -> PhaseLog {
        let start = Instant::now();
        let inputs = self.inputs;
        let traced = self.ctx.traced;
        let first_op = self.next_op;
        let mut fixed = Fixed {
            list: self.quiesce.iter().copied().collect(),
        };
        let quiesce_reads = self.quiesce.len() as u64;
        let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
            let mut fixed = Some(&mut fixed);
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(self.scripts.iter_mut())
                .zip(self.tracers.iter_mut())
                .enumerate()
                .filter(|(conn, _)| !matches!(phase, Phase::Quiesce) || *conn == 0)
                .map(|(conn, ((client, script), tracer))| {
                    let quiesce_script = fixed.take();
                    s.spawn(move || {
                        let phase_span = traced.then(|| tracer.begin(phase.name()));
                        // Op ids interleave so they stay unique per phase.
                        let first_op = first_op + ((conn as u64) << 32);
                        let tr = traced.then_some((&mut *tracer, first_op));
                        let script: &mut dyn Script = script.as_mut();
                        let samples = match phase {
                            Phase::Warmup(n) => driver::closed_loop(
                                client,
                                script,
                                inputs,
                                Stop::After(n),
                                start,
                                tr,
                            ),
                            Phase::Closed(d) => driver::closed_loop(
                                client,
                                script,
                                inputs,
                                Stop::At(start + d),
                                start,
                                tr,
                            ),
                            Phase::Open(rate, d) => driver::open_loop(
                                client, script, inputs, conn, CONNS, rate, d, start, tr,
                            ),
                            Phase::Quiesce => driver::closed_loop(
                                client,
                                quiesce_script.expect("one connection quiesces"),
                                inputs,
                                Stop::After(quiesce_reads),
                                start,
                                tr,
                            ),
                        };
                        if let Some(id) = phase_span {
                            tracer.end(id);
                        }
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread"))
                .collect()
        });
        self.next_op += 1 << 20;
        PhaseLog {
            phase,
            wall: start.elapsed(),
            samples: per_conn.into_iter().flatten().collect(),
        }
    }

    /// One server lifetime: bind, run the phases, shut down, join.
    fn session(
        &mut self,
        engine: &Engine,
        registry: &Registry,
        phases: &[Phase],
    ) -> io::Result<(ServeReport, Vec<PhaseLog>)> {
        let (server, addr) = adapter::bind_server()?;
        std::thread::scope(|s| {
            let serving = s.spawn(|| adapter::run_server(server, engine, registry));
            let logs = (|| -> io::Result<Vec<PhaseLog>> {
                let mut clients = (0..CONNS)
                    .map(|_| adapter::connect(&addr))
                    .collect::<io::Result<Vec<_>>>()?;
                let logs = phases
                    .iter()
                    .map(|&p| self.phase(&mut clients, p))
                    .collect();
                adapter::send(&mut clients[0], adapter::Op::Shutdown)?;
                match adapter::recv(&mut clients[0])?.1 {
                    Reply::ShuttingDown => Ok(logs),
                    other => Err(io::Error::other(format!("shutdown answered {other:?}"))),
                }
            })();
            let report = serving.join().expect("server thread")?;
            Ok((report, logs?))
        })
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn reads(samples: &[Sample]) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(|s| matches!(s.step, Step::Read(_)))
}

fn latency_tail<'a>(samples: impl Iterator<Item = &'a Sample>) -> Tail {
    tail(&samples.map(|s| ms(s.latency)).collect::<Vec<_>>())
}

/// Completed ops per second in each of five equal consecutive slices.
fn slice_rates(log: &PhaseLog) -> Vec<f64> {
    let slice = log.wall.as_secs_f64() / 5.0;
    let mut counts = [0u32; 5];
    for s in &log.samples {
        counts[((s.done.as_secs_f64() / slice) as usize).min(4)] += 1;
    }
    counts.iter().map(|&c| f64::from(c) / slice).collect()
}

/// Did the reply answer the request at all?
fn answered(step: Step, reply: &Option<Reply>) -> bool {
    matches!(
        (step, reply),
        (Step::Read(_), Some(Reply::Matches(_)))
            | (Step::Insert(_), Some(Reply::Inserted(_)))
            | (Step::Remove(_), Some(Reply::Removed(true)))
    )
}

/// A read under churn is right when, over the base graphs, it is the base
/// answer, and every inserted graph it names is a copy of a base graph
/// that is in the base answer. (Whether a copy was live at that instant is
/// not knowable from outside, so its absence is not judged.)
fn churn_read_consistent(
    answer: &[u32],
    base_answer: &[u32],
    base_graphs: u32,
    donor_of: &HashMap<u32, u32>,
) -> bool {
    let (base, inserted): (Vec<u32>, Vec<u32>) = answer.iter().partition(|&&g| g < base_graphs);
    base == base_answer
        && inserted
            .iter()
            .all(|g| donor_of.get(g).is_some_and(|d| base_answer.contains(d)))
}

pub fn run(ctx: &Ctx, which: Which) -> io::Result<(Outcome, Vec<Span>, Registry)> {
    let mut out = Outcome::default();
    let ready = setup::ready(ctx)?;
    let engine = &ready.last.engine;
    let base = adapter::snapshot(engine);
    let donors: &[Graph] = adapter::db_of(&base);
    let pool = setup::serve_pool(donors, &ctx.sizes);
    let zipf = Zipf::new(pool.len(), 1.0);
    let mut ranks: Vec<u32> = (0..pool.len() as u32).collect();
    ranks.shuffle(&mut adapter::rng(ctx.seed));
    out.note("pool.queries", pool.len());
    out.note(
        "pool.over_cache",
        pool.len() as f64 / adapter::cache_capacity() as f64,
    );
    setup::check_persisted(&ready, &pool, ctx.seed, &ctx.sizes, &mut out);

    let epoch = Instant::now();
    let scripts = (0..CONNS as u64)
        .map(|conn| {
            let reads = Reads {
                zipf: &zipf,
                ranks: &ranks,
                rng: adapter::rng(ctx.seed ^ ((conn + 1) << 32)),
            };
            match which {
                Which::Zipf => Box::new(reads) as BoxedScript,
                Which::Churn => Box::new(Churn {
                    reads,
                    donors: donors.len() as u32,
                    write_every: WRITE_EVERY,
                    hold: HELD_GIDS,
                    sent: 0,
                    held: VecDeque::new(),
                }),
            }
        })
        .collect();
    let mut load = Load {
        ctx,
        inputs: Inputs {
            pool: &pool,
            donors,
        },
        scripts,
        // Every seventh query in rank order: hot and cold alike.
        quiesce: ranks
            .iter()
            .step_by(7)
            .take(ctx.sizes.oracle_queries)
            .copied()
            .collect(),
        tracers: (0..CONNS as u32).map(|c| Tracer::new(epoch, c)).collect(),
        next_op: 0,
    };

    // Warm-up fills the cache. Under churn there is nothing to fill — every
    // write empties it — so a tenth of the requests settles the connections.
    let warmup_requests = match which {
        Which::Zipf => ctx.sizes.warmup_requests,
        Which::Churn => ctx.sizes.warmup_requests / 10,
    };
    let warmup = Phase::Warmup(warmup_requests / CONNS as u64);
    let secs = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    let off = adapter::registry(false);
    let mut logs: Vec<PhaseLog> = Vec::new();
    // A traced run first measures the closed loop with the program's
    // recording off; the recorded session then gets the rest of the time.
    let mut plain_ops = None;
    let budget = if ctx.traced {
        let (_, first) = load.session(engine, &off, &[warmup, Phase::Closed(secs(0.25))])?;
        plain_ops = Some(first[1].samples.len() as f64 / first[1].wall.as_secs_f64());
        logs.extend(first);
        0.75
    } else {
        1.0
    };
    // The end-to-end numbers come from the closed loop alone, so an
    // untraced run spends all its time there. A fixed arrival rate turns a
    // slower machine into a busier server, which makes open-loop latency
    // swing further between runs than any bound allows: the open loops
    // run on the traced run only and are reported as `client.*`.
    let phases = match which {
        Which::Zipf if ctx.traced => vec![
            warmup,
            Phase::Closed(secs(0.4 * budget)),
            Phase::Open(OPEN_RATES[0], secs(0.3 * budget)),
            Phase::Open(OPEN_RATES[1], secs(0.3 * budget)),
        ],
        Which::Zipf => vec![warmup, Phase::Closed(secs(budget))],
        Which::Churn => vec![warmup, Phase::Closed(secs(budget)), Phase::Quiesce],
    };
    let (applied0, swaps0) = adapter::maint_totals(engine);
    let (report, session) = load.session(engine, &ready.registry, &phases)?;
    let (applied1, swaps1) = adapter::maint_totals(engine);
    let set: MetricSet = adapter::drain(&ready.registry);
    let final_snapshot = adapter::snapshot(engine);
    let first_recorded = logs.len();
    logs.extend(session);
    let closed = &logs[first_recorded + 1];

    // ---- every response classified
    let mut donor_of: HashMap<u32, u32> = HashMap::new();
    for s in logs.iter().flat_map(|l| &l.samples) {
        out.check(answered(s.step, &s.reply));
        if let (Step::Insert(d), Some(Reply::Inserted(gid))) = (s.step, &s.reply) {
            donor_of.insert(*gid, d);
        }
    }
    // ---- answers checked. Group each query's answers; the oracle takes a
    // seed-chosen share of the queries touched (the pool is shuffled by
    // seed, so "the first touched in rank order" is such a share).
    let mut by_query: BTreeMap<u32, Vec<&[u32]>> = BTreeMap::new();
    for l in logs.iter().filter(|l| !matches!(l.phase, Phase::Quiesce)) {
        for s in reads(&l.samples) {
            if let (Step::Read(i), Some(Reply::Matches(ids))) = (s.step, &s.reply) {
                by_query.entry(i).or_default().push(ids);
            }
        }
    }
    let base_graphs = donors.len() as u32;
    let mut oracle_left = 4 * ctx.sizes.oracle_queries;
    for &i in &ranks {
        let Some(answers) = by_query.get(&i) else {
            continue;
        };
        let check_oracle = oracle_left > 0;
        oracle_left -= usize::from(check_oracle);
        match which {
            Which::Zipf => {
                // The database never changes: one answer per query, ever.
                out.check(answers.iter().all(|a| *a == answers[0]));
                if check_oracle {
                    out.check(answers[0] == adapter::scan(&base, &pool[i as usize]));
                }
            }
            Which::Churn if check_oracle => {
                let base_answer = adapter::scan(&base, &pool[i as usize]);
                out.check(
                    answers
                        .iter()
                        .all(|a| churn_read_consistent(a, &base_answer, base_graphs, &donor_of)),
                );
            }
            Which::Churn => {}
        }
    }
    // After the writes stop, the server must answer exactly as a scan of
    // the final snapshot does.
    for s in logs
        .iter()
        .filter(|l| matches!(l.phase, Phase::Quiesce))
        .flat_map(|l| &l.samples)
    {
        if let (Step::Read(i), Some(Reply::Matches(ids))) = (s.step, &s.reply) {
            out.check(*ids == adapter::scan(&final_snapshot, &pool[i as usize]));
        }
    }
    out.check(report.shed == 0 && report.errors == 0);

    // ---- what the clients saw
    let closed_ops = closed.samples.len() as f64 / closed.wall.as_secs_f64();
    let rates = slice_rates(closed);
    let latency = latency_tail(reads(&closed.samples));
    let open_tails: Vec<(f64, &PhaseLog, Tail)> = logs[first_recorded..]
        .iter()
        .filter_map(|l| match l.phase {
            Phase::Open(rate, _) => Some((rate, l, latency_tail(l.samples.iter()))),
            _ => None,
        })
        .collect();
    out.note("latency.samples", latency.n);
    out.note("latency.p50_ms", latency.p50);
    out.note("latency.p95_is_percentile", latency.p95_at);
    out.note("client.pass_spread_frac", spread_frac(&rates));
    out.note("serve.report", report);
    if !ctx.traced {
        setup::common_end_to_end(&ready.cycles, &ready.facts, &mut out);
        out.end_to_end.set("ops_per_s", closed_ops);
        out.end_to_end.set("latency_p95_ms", latency.p95);
        return Ok((out, Vec::new(), off));
    }

    // ---- the layers, from what `serve` and the engine recorded
    let m = &mut out.per_layer;
    setup::build_layers(&ready, &ctx.sizes, m);
    let span = |name: &str| adapter::span_ms(&set, name);
    let (batched, request_total, request_p50) = span("serve.request");
    let parts: f64 = ["serve.queue_wait", "serve.batch_wait", "serve.exec_share"]
        .iter()
        .map(|n| span(n).1)
        .sum();
    m.set("serve.request_p50_ms", request_p50);
    m.set("serve.queue_wait_p50_ms", span("serve.queue_wait").2);
    m.set("serve.batch_wait_p50_ms", span("serve.batch_wait").2);
    m.set("serve.exec_share_p50_ms", span("serve.exec_share").2);
    m.set("serve.write_wait_p50_ms", span("serve.write_wait").2);
    m.set(
        "serve.batch_size_mean",
        report.served as f64 / (report.batches as f64).max(1.0),
    );
    m.set("serve.shed", report.shed as f64);
    m.set("serve.stalls", report.stalls as f64);
    m.set(
        "serve.residual_mean_ms",
        (request_total - parts) / batched.max(1.0),
    );
    m.set(
        "cache.hit_ratio",
        report.cache_hits as f64 / (report.queries as f64).max(1.0),
    );
    m.set("cache.evictions", adapter::counter(&set, "cache.evictions"));
    m.set(
        "cache.invalidations",
        adapter::counter(&set, "cache.invalidations"),
    );
    m.set("maint.apply_p50_ms", span("maint.apply").2);
    m.set("maint.apply_total_ms", span("maint.apply").1);
    m.set("maint.applied", (applied1 - applied0) as f64);
    m.set("maint.swaps", (swaps1 - swaps0) as f64);
    // The pipeline inside exec, as the engine records it per batched query.
    m.set("partition.ms", span("query.partition").1);
    m.set(
        "partition.parts",
        adapter::counter(&set, "funnel.partition_parts"),
    );
    m.set(
        "partition.sf_features",
        adapter::counter(&set, "funnel.sf_features"),
    );
    m.set("filter.ms", span("query.filter").1);
    m.set("sig.ms", span("query.sig_filter").1);
    m.set("prune.ms", span("query.prune").1);
    m.set("verify.ms", span("query.verify").1);
    let funnel = |name: &str| adapter::counter(&set, name);
    let (filtered, killed) = (funnel("funnel.filtered"), funnel("funnel.sig_killed"));
    let (pruned, answers) = (funnel("funnel.pruned"), funnel("funnel.answers"));
    m.set("filter.candidates", filtered);
    m.set("sig.killed", killed);
    m.set("sig.kill_ratio", killed / filtered.max(1.0));
    m.set("prune.survivors", pruned);
    m.set(
        "prune.kill_ratio",
        (filtered - killed - pruned) / (filtered - killed).max(1.0),
    );
    m.set("verify.answers", answers);
    m.set("verify.precision", answers / pruned.max(1.0));
    let (encode_us, decode_us, canon_us) = adapter::time_hit_path(&pool[..pool.len().min(512)]);
    m.set("protocol.encode_us", encode_us);
    m.set("protocol.decode_us", decode_us);
    m.set("canon.code_us", canon_us);

    // ---- the harness's own diagnostics, and the reconciliation
    let recorded_reads: Vec<&Sample> = logs[first_recorded..]
        .iter()
        .flat_map(|l| reads(&l.samples))
        .collect();
    let client_total: f64 = recorded_reads.iter().map(|s| ms(s.service)).sum();
    m.set(
        "client.residual_mean_ms",
        (client_total - request_total) / (recorded_reads.len() as f64).max(1.0),
    );
    m.set("client.latency_p50_ms", latency.p50);
    m.set("client.latency_p99_ms", latency.p99);
    m.set("client.pass_spread_frac", spread_frac(&rates));
    m.set(
        "client.write_p50_ms",
        latency_tail(
            closed
                .samples
                .iter()
                .filter(|s| !matches!(s.step, Step::Read(_))),
        )
        .p50,
    );
    if let Some(plain) = plain_ops {
        m.set("obs.overhead_frac", 1.0 - closed_ops / plain);
    }
    let mut max_rate_ok = 0.0;
    for (rate, log, t) in &open_tails {
        let late: Vec<f64> = log.samples.iter().map(|s| ms(s.late)).collect();
        let late_frac = late.iter().filter(|&&l| l > 1.0).count() as f64 / late.len().max(1) as f64;
        if *rate == OPEN_RATES[0] {
            m.set("client.open_p50_ms", t.p50);
            m.set("client.open_p95_ms", t.p95);
            m.set("client.late_frac", late_frac);
            m.set(
                "client.max_late_ms",
                late.iter().copied().fold(0.0, f64::max),
            );
        } else {
            m.set("client.p95_ms_at_800", t.p95);
        }
        let all_answered = log.samples.iter().all(|s| answered(s.step, &s.reply));
        if t.p95 <= LATENCY_LIMIT_MS && all_answered {
            max_rate_ok = f64::max(max_rate_ok, *rate);
        }
        out.notes.insert(
            format!("open.{rate}"),
            format!(
                "n={} p50={:.3} p95={:.3} late>1ms={late_frac:.4}",
                t.n, t.p50, t.p95
            ),
        );
    }
    m.set("client.max_rate_ok", max_rate_ok);
    // The layers nest: the server's own split fits in its request span,
    // and the requests it timed fit in what the clients waited.
    out.check(parts <= request_total * 1.000_001 && request_total <= client_total);
    out.note("closed.ops_per_s", closed_ops);
    out.note("closed.slice_median", median(&rates));

    let spans = load
        .tracers
        .into_iter()
        .flat_map(Tracer::into_spans)
        .collect();
    Ok((out, spans, ready.registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_reads_are_judged_against_the_base_answer() {
        let donor_of: HashMap<u32, u32> = [(300, 7), (301, 9)].into();
        let base_answer = [2, 7, 40];
        // Base part equal, inserted copy of a matching base graph: fine,
        // present or absent.
        assert!(churn_read_consistent(
            &[2, 7, 40, 300],
            &base_answer,
            300,
            &donor_of
        ));
        assert!(churn_read_consistent(
            &[2, 7, 40],
            &base_answer,
            300,
            &donor_of
        ));
        // A base graph missing or extra, a copy of a non-matching graph,
        // an id nobody inserted: all wrong.
        assert!(!churn_read_consistent(
            &[2, 40],
            &base_answer,
            300,
            &donor_of
        ));
        assert!(!churn_read_consistent(
            &[2, 7, 40, 41],
            &base_answer,
            300,
            &donor_of
        ));
        assert!(!churn_read_consistent(
            &[2, 7, 40, 301],
            &base_answer,
            300,
            &donor_of
        ));
        assert!(!churn_read_consistent(
            &[2, 7, 40, 999],
            &base_answer,
            300,
            &donor_of
        ));
    }

    #[test]
    fn only_the_expected_reply_kind_counts_as_answered() {
        assert!(answered(Step::Read(1), &Some(Reply::Matches(vec![]))));
        assert!(answered(Step::Insert(1), &Some(Reply::Inserted(9))));
        assert!(answered(Step::Remove(9), &Some(Reply::Removed(true))));
        assert!(!answered(Step::Remove(9), &Some(Reply::Removed(false))));
        assert!(!answered(Step::Read(1), &Some(Reply::Busy)));
        assert!(!answered(Step::Read(1), &Some(Reply::Error("x".into()))));
        assert!(!answered(Step::Read(1), &Some(Reply::Inserted(1))));
        assert!(!answered(Step::Read(1), &None));
    }
}
