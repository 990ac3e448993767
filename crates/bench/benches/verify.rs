//! Verification benchmark: the default pipeline (walk → cover → filter →
//! anchored search) on hard queries, the traffic the search's signature
//! gate exists for.
//!
//! Series, each at 1/2/8 workers, on one workload — large extracted
//! subgraphs (cyclic ones first), mid and small sizes, plus a
//! label-perturbed near miss of each:
//! - `hard`: the default full-enumeration filter;
//! - `weakfilter`: the `SfMode::PartitionOnly` ablation filter, which
//!   passes more candidates on to the search and so leaves more of the
//!   work to its signature gate.
//!
//! Answers are asserted identical at every worker count before anything
//! is timed.
//!
//! A measurement run (not `cargo test`'s `--test` smoke mode) also:
//! - rewrites `BENCH_verify.json` at the repo root with the medians and
//!   per-mode funnel rows (filtered, `verify.center_sig_kills`, answers);
//! - writes a curated `treepi.obs/v1` metrics file (default
//!   `BENCH_verify_metrics.json`, override with `VERIFY_METRICS_OUT`)
//!   holding only counters that are deterministic for a fixed
//!   `VERIFY_BENCH_GRAPHS` (the funnel.* namespace plus the center-gate
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
/// is what the search's signature gate rejects.
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

fn opts(sf: SfMode) -> QueryOptions {
    QueryOptions {
        sf_mode: sf,
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
    let mut want = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        for (m, (mode, sf)) in MODES.into_iter().enumerate() {
            // A worker count never changes an answer, or the numbers mean
            // nothing.
            let (r, _) = engine.query_batch(&qs, opts(sf), 9);
            let answers: Vec<Vec<u32>> = r.into_iter().map(|x| x.matches).collect();
            if m == want.len() {
                want.push(answers);
            } else {
                assert_eq!(answers, want[m], "{mode} at {threads} workers");
            }
            group.bench_with_input(BenchmarkId::new(mode, threads), &qs, |b, qs| {
                b.iter(|| {
                    let (r, _) = engine.query_batch(qs, opts(sf), 9);
                    r.iter().map(|x| x.matches.len()).sum::<usize>()
                })
            });
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

/// One metered batch per mode: the funnel counters (thread-invariant by
/// the determinism contract) plus the center-gate kill counters, summed
/// across both modes for the gate file, and each mode's
/// (filtered, center-gate kills, answers) row.
fn deterministic_verify_counters(
    db: &[Graph],
    qs: &[Graph],
) -> (obs::MetricSet, Vec<(&'static str, [u64; 3])>) {
    let engine = Engine::new(treepi_index(db), 2);
    let mut out = obs::MetricSet::new();
    let mut rows = Vec::new();
    for (mode, sf) in MODES {
        let registry = obs::Registry::new();
        let (_, _) = engine.query_batch_obs(qs, opts(sf), 9, &registry);
        let m = registry.drain();
        rows.push((
            mode,
            [
                obs::names::FILTERED,
                "verify.center_sig_kills",
                obs::names::ANSWERS,
            ]
            .map(|name| m.counter(name)),
        ));
        for (name, v) in m.counters() {
            if name.starts_with("funnel.") || name.ends_with("center_sig_kills") {
                out.add(name, v);
            }
        }
    }
    (out, rows)
}

/// Re-time the headline series standalone and write `BENCH_verify.json`
/// (schema `treepi.bench.verify/v2`) plus the curated gate metrics file.
fn emit_json() {
    let db = chem_db(db_size());
    let qs = hard_workload(&db);
    const RUNS: usize = 5;

    let mut rows: Vec<(String, u64)> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = Engine::new(treepi_index(&db), threads);
        for (mode, sf) in MODES {
            rows.push((
                format!("{mode}/{threads}"),
                median_ns(RUNS, || {
                    let (r, _) = engine.query_batch(&qs, opts(sf), 9);
                    criterion::black_box(r.len());
                }),
            ));
        }
    }

    let (metrics, funnel) = deterministic_verify_counters(&db, &qs);
    assert!(
        funnel.iter().all(|(_, [_, kills, _])| *kills > 0),
        "a mode made zero center-gate kills: the search's signature gate is dead weight here"
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"treepi.bench.verify/v2\",\n");
    json.push_str(&format!(
        "  \"graphs\": {},\n  \"queries\": {},\n",
        db.len(),
        qs.len()
    ));
    json.push_str("  \"funnel\": [\n");
    for (i, (mode, [filtered, kills, answers])) in funnel.iter().enumerate() {
        let sep = if i + 1 == funnel.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"mode\": \"{mode}\", \"filtered\": {filtered}, \"verify.center_sig_kills\": {kills}, \"answers\": {answers}}}{sep}\n"
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
