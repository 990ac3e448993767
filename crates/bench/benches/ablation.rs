//! Ablation benches for the design choices DESIGN.md calls out: Center
//! Distance pruning, verification from the stored centers, the SF_q
//! construction policy, and δ.

use bench::{bench_rng, chem_db, queries, treepi_index};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treepi::{QueryOptions, SfMode};

fn bench_ablation(c: &mut Criterion) {
    let db = chem_db(200);
    let tp = treepi_index(&db);
    let qs = queries(&db, 12, 10);
    let configs: Vec<(&str, QueryOptions)> = vec![
        ("full", QueryOptions::default()),
        (
            "no_cdc",
            QueryOptions {
                use_cdc: false,
                ..QueryOptions::default()
            },
        ),
        (
            "naive_verify",
            QueryOptions {
                use_reconstruction: false,
                ..QueryOptions::default()
            },
        ),
        (
            "sf_partition_only",
            QueryOptions {
                sf_mode: SfMode::PartitionOnly,
                ..QueryOptions::default()
            },
        ),
        (
            "delta_1",
            QueryOptions {
                delta_override: Some(1),
                ..QueryOptions::default()
            },
        ),
    ];
    let mut group = c.benchmark_group("ablation_query_pipeline");
    group.sample_size(20);
    for (name, cfg) in configs {
        group.bench_with_input(BenchmarkId::new("m12", name), &qs, |b, qs| {
            let mut rng = bench_rng(17);
            b.iter(|| {
                qs.iter()
                    .map(|q| tp.query_with(q, cfg, &mut rng).matches.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
