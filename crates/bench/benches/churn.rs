//! Mixed-workload churn benchmark: what §7.1 maintenance costs a serving
//! process, and what the pinned-snapshot layer buys.
//!
//! Series:
//! - `query_only` vs `query_under_churn` at 1/2/8 workers: the same
//!   query batch, alone and interleaved with an 8-op churn round (queue +
//!   one snapshot apply) — the read-path tax of concurrent maintenance;
//! - `apply_batched` vs `apply_per_op`: 8 queued ops folded by one
//!   [`treepi::Engine::apply_pending`] against 8 immediate
//!   insert/remove calls — one snapshot lock and one epoch publication
//!   per batch instead of per op.
//!
//! Removed slots accumulate across iterations as blank graphs (removes
//! never shrink the database vector), so the gid range grows over a long
//! measurement; an apply no reader pins updates the index in place, so
//! its cost does not grow with it.
//! See EXPERIMENTS.md ("Churn benchmark") for methodology and the
//! single-core parity caveat.
//!
//! A measurement run (not `cargo test`'s `--test` smoke mode) also:
//! - drives a deterministic engine-level churn schedule plus one real
//!   mixed serve session (queries racing wire inserts/removes with
//!   background re-mining) and rewrites `BENCH_churn.json` at the repo
//!   root with the medians and the serve throughput;
//! - writes a curated `treepi.obs/v1` metrics file (default
//!   `BENCH_churn_metrics.json`, override with `CHURN_METRICS_OUT`)
//!   holding only counters that are deterministic for a fixed
//!   `CHURN_BENCH_GRAPHS` (funnel.*, maint.*, and the
//!   arrival-deterministic serve.* trio) — CI's churn-smoke job gates it
//!   with `metrics-diff --include-exempt` against
//!   `ci/churn-metrics-baseline.json`.

use bench::{chem_db, queries, treepi_index};
use criterion::{criterion_group, BenchmarkId, Criterion};
use graph_core::Graph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treepi::{Engine, QueryOptions};

/// Database size; CI shrinks it via `CHURN_BENCH_GRAPHS`.
fn db_size() -> usize {
    std::env::var("CHURN_BENCH_GRAPHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn workload(db: &[Graph]) -> Vec<Graph> {
    let mut qs = queries(db, 4, 12);
    qs.extend(queries(db, 8, 8));
    qs
}

/// One churn round: queue `ops/2` inserts (clones of database graphs) and
/// remove each inserted gid again, then fold everything with one apply.
/// Active count is unchanged; the database keeps its size plus blank slots.
fn churn_round(engine: &Engine, donors: &[Graph], rng: &mut ChaCha8Rng, ops: usize) {
    let mut inserted = Vec::with_capacity(ops / 2);
    for _ in 0..ops / 2 {
        let g = donors[rng.gen_range(0..donors.len())].clone();
        inserted.push(engine.queue_insert(g));
    }
    for gid in inserted {
        engine.queue_remove(gid);
    }
    engine.apply_pending();
}

fn bench_churn(c: &mut Criterion) {
    let db = chem_db(db_size());
    let qs = workload(&db);

    let mut group = c.benchmark_group("churn");
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        group.bench_with_input(BenchmarkId::new("query_only", threads), &qs, |b, qs| {
            b.iter(|| {
                let (r, _) = engine.query_batch(qs, QueryOptions::default(), 9);
                r.iter().map(|x| x.matches.len()).sum::<usize>()
            })
        });
        let mut rng = ChaCha8Rng::seed_from_u64(2007);
        group.bench_with_input(
            BenchmarkId::new("query_under_churn", threads),
            &qs,
            |b, qs| {
                b.iter(|| {
                    churn_round(&engine, &db, &mut rng, 8);
                    let (r, _) = engine.query_batch(qs, QueryOptions::default(), 9);
                    r.iter().map(|x| x.matches.len()).sum::<usize>()
                })
            },
        );
    }

    // Apply batching: the same 8 ops, one snapshot vs eight.
    let engine = Engine::new(treepi_index(&db), 2);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    group.bench_function("apply_batched_8", |b| {
        b.iter(|| {
            churn_round(&engine, &db, &mut rng, 8);
            engine.epoch()
        })
    });
    let engine = Engine::new(treepi_index(&db), 2);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    group.bench_function("apply_per_op_8", |b| {
        b.iter(|| {
            let mut inserted = Vec::with_capacity(4);
            for _ in 0..4 {
                inserted.push(engine.insert(db[rng.gen_range(0..db.len())].clone()));
            }
            for gid in inserted {
                engine.remove(gid);
            }
            engine.epoch()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_churn);

/// Median of `runs` timings of `f`, in ns.
fn median_ns(runs: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2]) as u64
}

/// Deterministic engine-level churn: 24 ops applied one at a time with
/// background re-mining at threshold 8, waiting out each re-mine so the
/// trigger schedule is timing-independent, then one metered query batch.
/// Returns the curated counters.
fn deterministic_churn_counters(db: &[Graph], qs: &[Graph]) -> obs::MetricSet {
    let registry = obs::Registry::new();
    let engine = Engine::with_remine(treepi_index(db), 2, 8);
    let mut rng = ChaCha8Rng::seed_from_u64(2007);
    let mut live: Vec<u32> = Vec::new();
    for _ in 0..24 {
        if live.is_empty() || rng.gen_bool(0.5) {
            live.push(engine.queue_insert(db[rng.gen_range(0..db.len())].clone()));
        } else {
            let i = rng.gen_range(0..live.len());
            engine.queue_remove(live.swap_remove(i));
        }
        engine.apply_pending();
        // Drain the re-mine after every apply: triggers then fire at
        // exactly every `threshold` repairs, independent of wall time.
        engine.wait_remine_idle();
    }
    let (_, _) = engine.query_batch_obs(qs, QueryOptions::default(), 9, &registry);
    let stats = engine.maint_stats();
    let drained = registry.drain();

    let mut out = obs::MetricSet::new();
    for (name, v) in drained.counters() {
        if name.starts_with("funnel.") {
            out.add(name, v);
        }
    }
    out.add(obs::names::MAINT_QUEUED, stats.queued);
    out.add(obs::names::MAINT_APPLIED, stats.applied);
    out.add(obs::names::MAINT_APPLY_BATCHES, stats.apply_batches);
    out.add(obs::names::MAINT_SNAPSHOT_SWAPS, stats.snapshot_swaps);
    out.add(obs::names::MAINT_REMINE_TRIGGERS, stats.remine_triggers);
    out.add(obs::names::MAINT_REMINES, stats.remines_completed);
    out
}

/// One real mixed serve session: a querier streaming the workload over a
/// socket while a mutator inserts/removes over the same wire protocol and
/// the engine re-mines in the background. Returns (queries, elapsed,
/// arrival-deterministic serve counters).
fn serve_mixed_session(db: &[Graph], qs: &[Graph]) -> (u64, std::time::Duration, obs::MetricSet) {
    use serve::protocol::ResponseBody;
    const OPS: usize = 30;
    const ROUNDS: usize = 6;

    let server = serve::Server::bind("127.0.0.1:0", serve::ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let index = treepi_index(db);
    let handle = std::thread::spawn(move || {
        let engine = Engine::with_remine(index, 2, 8);
        let registry = obs::Registry::new();
        let report = server.run(&engine, &registry).expect("serve");
        (report, registry.drain(), engine)
    });

    let mutator_addr = addr.clone();
    let donors: Vec<Graph> = db.iter().take(8).cloned().collect();
    let mutator = std::thread::spawn(move || {
        let mut client =
            serve::Client::connect_retry(&mutator_addr, std::time::Duration::from_secs(5))
                .expect("mutator connect");
        let mut live: Vec<u32> = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for _ in 0..OPS {
            if live.is_empty() || rng.gen_bool(0.5) {
                match client
                    .insert(&donors[rng.gen_range(0..donors.len())])
                    .expect("insert")
                    .body
                {
                    ResponseBody::Inserted(gid) => live.push(gid),
                    other => panic!("expected insert ack, got {other:?}"),
                }
            } else {
                let i = rng.gen_range(0..live.len());
                let gid = live.swap_remove(i);
                match client.remove(gid).expect("remove").body {
                    ResponseBody::Removed(was) => assert!(was),
                    other => panic!("expected remove ack, got {other:?}"),
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    });

    let mut client =
        serve::Client::connect_retry(&addr, std::time::Duration::from_secs(5)).expect("connect");
    let t0 = std::time::Instant::now();
    let mut served = 0u64;
    for _ in 0..ROUNDS {
        for q in qs {
            match client.query(q).expect("query").body {
                ResponseBody::Matches(_) => served += 1,
                other => panic!("expected matches, got {other:?}"),
            }
        }
    }
    let elapsed = t0.elapsed();
    mutator.join().expect("mutator");
    client.shutdown().expect("shutdown");
    let (report, drained, engine) = handle.join().expect("server");
    engine.wait_remine_idle();
    assert_eq!(report.maintenance, OPS as u64);

    // Only the arrival-deterministic trio goes into the gated set; batch
    // counts, cache hit/miss splits, and span timings depend on wall-clock
    // batching and stay out (the full drained set is for humans).
    let mut out = obs::MetricSet::new();
    for name in [
        obs::names::SERVE_REQUESTS,
        obs::names::SERVE_QUERIES,
        obs::names::SERVE_MAINTENANCE,
    ] {
        out.add(name, drained.counter(name));
    }
    (served, elapsed, out)
}

/// Re-time the headline series standalone and write `BENCH_churn.json`
/// (schema `treepi.bench.churn/v1`) plus the curated gate metrics file.
fn emit_json() {
    let db = chem_db(db_size());
    let qs = workload(&db);
    const RUNS: usize = 5;

    let mut rows: Vec<(String, u64)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        rows.push((
            format!("query_only/{threads}"),
            median_ns(RUNS, || {
                let (r, _) = engine.query_batch(&qs, QueryOptions::default(), 9);
                criterion::black_box(r.len());
            }),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(2007);
        rows.push((
            format!("query_under_churn/{threads}"),
            median_ns(RUNS, || {
                churn_round(&engine, &db, &mut rng, 8);
                let (r, _) = engine.query_batch(&qs, QueryOptions::default(), 9);
                criterion::black_box(r.len());
            }),
        ));
    }

    let mut metrics = deterministic_churn_counters(&db, &qs);
    let (served, elapsed, serve_counters) = serve_mixed_session(&db, &qs);
    metrics.merge(&serve_counters);
    let throughput = served as f64 / elapsed.as_secs_f64();

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"treepi.bench.churn/v1\",\n");
    json.push_str(&format!(
        "  \"graphs\": {},\n  \"queries\": {},\n",
        db.len(),
        qs.len()
    ));
    json.push_str(&format!(
        "  \"serve_mixed\": {{\"queries\": {served}, \"queries_per_sec\": {throughput:.1}}},\n"
    ));
    json.push_str("  \"series\": [\n");
    for (i, (name, ns)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ns\": {ns}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_churn.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let metrics_path = std::env::var("CHURN_METRICS_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_churn_metrics.json"
        )
        .to_string()
    });
    match std::fs::write(&metrics_path, metrics.render_json()) {
        Ok(()) => println!("wrote {metrics_path}"),
        Err(e) => eprintln!("could not write {metrics_path}: {e}"),
    }
}

fn main() {
    benches();
    // `cargo test` runs bench binaries with `--test` as a smoke test: never
    // overwrite the committed JSON with unmeasured garbage there.
    if !std::env::args().any(|a| a == "--test") {
        emit_json();
    }
}
