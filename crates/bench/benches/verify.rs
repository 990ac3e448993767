//! Verification benchmark: what the neighborhood-signature kill stage
//! buys on hard queries, and what it saves the prune and verify stages.
//!
//! Series:
//! - `hard_on` vs `hard_off` at 1/2/8 workers: the same hard workload
//!   (large extracted subgraphs, preferring cyclic ones, plus
//!   label-perturbed near-misses) under the default full-enumeration
//!   filter with the signature stage on and off;
//! - `weakfilter_on` vs `weakfilter_off`: the same workload under the
//!   `SfMode::PartitionOnly` ablation filter. The full-enumeration
//!   filter subsumes most signature checks (every frequent star around
//!   a query vertex is already demanded by support intersection), so
//!   kills there come only from *infrequent* neighborhoods; the weak
//!   filter leaves the whole job to the signature stage, which is where
//!   its kill rate — and the time saved in CDC + verification — shows.
//!
//! Answers are asserted identical on/off for both modes before anything
//! is timed.
//!
//! A measurement run (not `cargo test`'s `--test` smoke mode) also:
//! - rewrites `BENCH_verify.json` at the repo root with the medians and
//!   per-mode kill rates;
//! - writes a curated `treepi.obs/v1` metrics file (default
//!   `BENCH_verify_metrics.json`, override with `VERIFY_METRICS_OUT`)
//!   holding only counters that are deterministic for a fixed
//!   `VERIFY_BENCH_GRAPHS` (the funnel.* namespace plus the sig-gate
//!   kill counters, summed over one metered batch per mode) — CI's
//!   verify-filter leg gates it with `metrics-diff --include-exempt`
//!   against `ci/verify-metrics-baseline.json`.

use bench::{bench_rng, chem_db, queries, treepi_index};
use criterion::{criterion_group, BenchmarkId, Criterion};
use graph_core::{Graph, GraphBuilder, VLabel};
use rand::Rng;
use treepi::{Engine, QueryOptions, SfMode};

/// Database size; CI shrinks it via `VERIFY_BENCH_GRAPHS`.
fn db_size() -> usize {
    std::env::var("VERIFY_BENCH_GRAPHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

/// Rebuild `g` with one vertex's label swapped to another label present
/// in the graph. The multiset of labels barely moves (support-set filters
/// often still pass) but the neighborhood around the swap changes — the
/// shape of candidate that survives the funnel yet cannot embed, which
/// is exactly what the signature stage is for.
fn perturb_labels(g: &Graph, rng: &mut impl Rng) -> Graph {
    let n = g.vertex_count();
    let mut labels: Vec<VLabel> = (0..n)
        .map(|v| g.vlabel(graph_core::VertexId(v as u32)))
        .collect();
    for _ in 0..16 {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if labels[i] != labels[j] {
            labels[i] = labels[j];
            break;
        }
    }
    let mut b = GraphBuilder::new();
    for &l in &labels {
        b.add_vertex(l);
    }
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.label).expect("edge copy");
    }
    b.build()
}

/// Hard workload: large extracted subgraphs (cyclic ones first), mid and
/// small sizes, plus a label-perturbed near-miss variant of each.
fn hard_workload(db: &[Graph]) -> Vec<Graph> {
    let mut rng = bench_rng(41);
    let big = queries(db, 10, 24);
    let mut qs: Vec<Graph> = big
        .iter()
        .filter(|q| q.edge_count() >= q.vertex_count())
        .cloned()
        .collect();
    qs.extend(big);
    qs.extend(queries(db, 8, 8));
    qs.extend(queries(db, 4, 16));
    let near_miss: Vec<Graph> = qs.iter().map(|q| perturb_labels(q, &mut rng)).collect();
    qs.extend(near_miss);
    qs
}

fn opts(sf: SfMode, sig: bool) -> QueryOptions {
    QueryOptions {
        sf_mode: sf,
        use_sig_filter: sig,
        ..QueryOptions::default()
    }
}

const MODES: [(&str, SfMode); 2] = [
    ("hard", SfMode::FullEnumeration),
    ("weakfilter", SfMode::PartitionOnly),
];

fn bench_verify(c: &mut Criterion) {
    let db = chem_db(db_size());
    let qs = hard_workload(&db);

    let mut group = c.benchmark_group("verify");
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        for (mode, sf) in MODES {
            // The filter is an optimization, never a semantics knob:
            // identical answers on and off, or the numbers mean nothing.
            let (on, _) = engine.query_batch(&qs, opts(sf, true), 9);
            let (off, _) = engine.query_batch(&qs, opts(sf, false), 9);
            for (i, (a, b)) in on.iter().zip(&off).enumerate() {
                assert_eq!(
                    a.matches, b.matches,
                    "{mode}, query {i}: filter changed answers"
                );
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}_on"), threads),
                &qs,
                |b, qs| {
                    b.iter(|| {
                        let (r, _) = engine.query_batch(qs, opts(sf, true), 9);
                        r.iter().map(|x| x.matches.len()).sum::<usize>()
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{mode}_off"), threads),
                &qs,
                |b, qs| {
                    b.iter(|| {
                        let (r, _) = engine.query_batch(qs, opts(sf, false), 9);
                        r.iter().map(|x| x.matches.len()).sum::<usize>()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_verify);

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

/// One metered filter-on batch per mode: the funnel counters
/// (thread-invariant by the determinism contract) plus the two
/// center-gate kill counters, summed across both modes for the gate
/// file; per-mode (killed, filtered) pairs for the kill rates.
fn deterministic_verify_counters(
    db: &[Graph],
    qs: &[Graph],
) -> (obs::MetricSet, Vec<(String, u64, u64)>) {
    let registry = obs::Registry::new();
    let engine = Engine::new(treepi_index(db), 2);
    let mut per_mode = Vec::new();
    let mut prev_killed = 0u64;
    let mut prev_filtered = 0u64;
    for (mode, sf) in MODES {
        let (_, _) = engine.query_batch_obs(qs, opts(sf, true), 9, &registry);
        let snap = registry.snapshot();
        let killed = snap.counter(obs::names::SIG_KILLED);
        let filtered = snap.counter(obs::names::FILTERED);
        per_mode.push((
            mode.to_string(),
            killed - prev_killed,
            filtered - prev_filtered,
        ));
        prev_killed = killed;
        prev_filtered = filtered;
    }
    let drained = registry.drain();

    let mut out = obs::MetricSet::new();
    for (name, v) in drained.counters() {
        if name.starts_with("funnel.") || name.ends_with("center_sig_kills") {
            out.add(name, v);
        }
    }
    (out, per_mode)
}

/// Re-time the headline series standalone and write `BENCH_verify.json`
/// (schema `treepi.bench.verify/v1`) plus the curated gate metrics file.
fn emit_json() {
    let db = chem_db(db_size());
    let qs = hard_workload(&db);
    const RUNS: usize = 5;

    let mut rows: Vec<(String, u64)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        for (mode, sf) in MODES {
            for (suffix, sig) in [("on", true), ("off", false)] {
                rows.push((
                    format!("{mode}_{suffix}/{threads}"),
                    median_ns(RUNS, || {
                        let (r, _) = engine.query_batch(&qs, opts(sf, sig), 9);
                        criterion::black_box(r.len());
                    }),
                ));
            }
        }
    }

    let (metrics, per_mode) = deterministic_verify_counters(&db, &qs);
    let total_killed: u64 = per_mode.iter().map(|(_, k, _)| k).sum();
    assert!(
        total_killed > 0,
        "hard workload produced zero signature kills — the stage is dead weight here"
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"treepi.bench.verify/v1\",\n");
    json.push_str(&format!(
        "  \"graphs\": {},\n  \"queries\": {},\n",
        db.len(),
        qs.len()
    ));
    json.push_str("  \"funnel\": [\n");
    for (i, (mode, killed, filtered)) in per_mode.iter().enumerate() {
        let rate = *killed as f64 / (*filtered).max(1) as f64;
        let sep = if i + 1 == per_mode.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"filtered\": {filtered}, \"sig_killed\": {killed}, \"kill_rate\": {rate:.4}}}{sep}\n"
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"series\": [\n");
    for (i, (name, ns)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"median_ns\": {ns}}}{sep}\n"
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_verify.json");
    match std::fs::write(path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }

    let metrics_path = std::env::var("VERIFY_METRICS_OUT").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_verify_metrics.json"
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
