//! Batch query engine scaling: throughput of the batch query entry points
//! at 1/2/4/8 workers over a fixed mixed-size workload, plus the gIndex
//! batch baseline. Determinism is test-enforced elsewhere
//! (`treepi::engine`, `crates/treepi/tests/pool_prop.rs`); this group
//! measures the speedup the determinism contract is not allowed to cost.
//!
//! Series (all on one persistent [`treepi::Engine`] per worker count, its
//! pool threads spawned once outside the timed loop — the per-batch cost a
//! long-lived serving process sees):
//! - `treepi_batch_pooled`: `Engine::query_batch`;
//! - `treepi_batch_metered`: same with an enabled `obs::Registry`, bounding
//!   instrumentation overhead;
//! - `gindex_batch`: the gIndex baseline on the engine's pool.
//!
//! Besides the human-readable criterion report, a measurement run (not
//! `cargo test`'s `--test` smoke mode) re-times the pooled/gindex series
//! standalone and rewrites `BENCH_query_parallel.json` at the repo root
//! with per-series median ns/query, so the numbers are machine-checkable
//! without parsing bench stdout.

use bench::{chem_db, gindex_index, queries, treepi_index};
use criterion::{criterion_group, BenchmarkId, Criterion};
use treepi::QueryOptions;

fn workload(db: &[graph_core::Graph]) -> Vec<graph_core::Graph> {
    // Mixed query sizes so workers see uneven per-query cost — the
    // self-scheduling counter, not static chunking, is what's measured.
    let mut qs = queries(db, 4, 16);
    qs.extend(queries(db, 8, 16));
    qs.extend(queries(db, 12, 8));
    qs
}

fn bench_query_parallel(c: &mut Criterion) {
    let db = chem_db(200);
    let mut tp = treepi_index(&db);
    let gi = gindex_index(&db);
    let qs = workload(&db);

    let mut group = c.benchmark_group("query_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let engine = treepi::Engine::new(tp, threads);
        group.bench_with_input(
            BenchmarkId::new("treepi_batch_pooled", threads),
            &qs,
            |b, qs| {
                b.iter(|| {
                    let (results, _) = engine.query_batch(qs, QueryOptions::default(), 9);
                    results.iter().map(|r| r.matches.len()).sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("treepi_batch_metered", threads),
            &qs,
            |b, qs| {
                b.iter(|| {
                    let registry = obs::Registry::new();
                    let (results, _) =
                        engine.query_batch_obs(qs, QueryOptions::default(), 9, &registry);
                    let set = registry.drain();
                    results.iter().map(|r| r.matches.len()).sum::<usize>()
                        + set.counter(obs::names::ANSWERS) as usize
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("gindex_batch", threads), &qs, |b, qs| {
            b.iter(|| {
                gi.query_batch_pool_obs(qs, engine.pool(), &obs::Registry::disabled())
                    .iter()
                    .map(|r| r.matches.len())
                    .sum::<usize>()
            })
        });
        tp = engine.into_index();
    }
    group.finish();
}

criterion_group!(benches, bench_query_parallel);

/// Median of `runs` timings of `f`, in ns per query.
fn median_ns_per_query(runs: usize, n_queries: usize, mut f: impl FnMut()) -> u64 {
    let mut samples: Vec<u128> = (0..runs)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    (samples[samples.len() / 2] / n_queries as u128) as u64
}

/// Re-time the headline series and rewrite `BENCH_query_parallel.json` at
/// the repo root (schema `treepi.bench.query_parallel/v1`).
fn emit_json() {
    let db = chem_db(200);
    let mut tp = treepi_index(&db);
    let gi = gindex_index(&db);
    let qs = workload(&db);
    const RUNS: usize = 5;

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let engine = treepi::Engine::new(tp, threads);
        rows.push((
            "treepi_batch_pooled",
            threads,
            median_ns_per_query(RUNS, qs.len(), || {
                let (r, _) = engine.query_batch(&qs, QueryOptions::default(), 9);
                criterion::black_box(r.len());
            }),
        ));
        rows.push((
            "gindex_batch",
            threads,
            median_ns_per_query(RUNS, qs.len(), || {
                let off = obs::Registry::disabled();
                criterion::black_box(gi.query_batch_pool_obs(&qs, engine.pool(), &off).len());
            }),
        ));
        tp = engine.into_index();
    }

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"treepi.bench.query_parallel/v1\",\n");
    json.push_str(&format!("  \"queries\": {},\n  \"series\": [\n", qs.len()));
    for (i, (name, threads, ns)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"threads\": {threads}, \"median_ns_per_query\": {ns}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_query_parallel.json"
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
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
