//! Index-construction scaling: wall time of
//! `TreePiIndex::build_with_threads_obs` at 1/2/4/8 worker threads over a
//! fixed synthetic database. The parallel miner and center-extraction stage
//! are bit-for-bit deterministic at any thread count (test-enforced in
//! `crates/treepi/tests/build_prop.rs`, `crates/treepi/tests/pool_prop.rs`,
//! and `crates/mining/tests/prop.rs`);
//! this group measures the speedup that determinism contract is not allowed
//! to cost — the ISSUE acceptance bar is ≥ 2× at 8 threads over 1.
//!
//! The `build_metered` series runs the same build with an enabled
//! `obs::Registry`, bounding the instrumentation overhead of the build
//! path; `build_pooled` reuses one persistent worker pool across
//! iterations, isolating the per-build thread spawn/join cost that the
//! threads entry point still pays.

use bench::synthetic_db;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treepi::{TreePiIndex, TreePiParams};

fn bench_build_parallel(c: &mut Criterion) {
    let db = synthetic_db(300, 4);

    let mut group = c.benchmark_group("build_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("build", threads), &db, |b, db| {
            b.iter(|| {
                let idx = TreePiIndex::build_with_threads_obs(
                    db.clone(),
                    TreePiParams::default(),
                    threads,
                    &obs::Shard::disabled(),
                );
                idx.feature_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("build_metered", threads), &db, |b, db| {
            b.iter(|| {
                let registry = obs::Registry::new();
                let shard = registry.shard();
                let idx = TreePiIndex::build_with_threads_obs(
                    db.clone(),
                    TreePiParams::default(),
                    threads,
                    &shard,
                );
                registry.absorb(shard);
                idx.feature_count() + registry.drain().counter("build.features") as usize
            })
        });
        let pool = graph_core::par::Pool::new(threads);
        group.bench_with_input(BenchmarkId::new("build_pooled", threads), &db, |b, db| {
            b.iter(|| {
                let idx = TreePiIndex::build_with_pool_obs(
                    db.clone(),
                    TreePiParams::default(),
                    &pool,
                    &obs::Shard::disabled(),
                    &obs::series::Sampler::disabled(),
                );
                idx.feature_count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build_parallel);
criterion_main!(benches);
