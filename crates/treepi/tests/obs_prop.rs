//! Property tests for the metrics layer: on arbitrary databases and query
//! batches, the `obs` funnel counters must reconcile **exactly** with the
//! per-query `QueryStats` the engine returns, and every deterministic
//! counter must be bit-identical at 1, 2, and 8 threads.
//!
//! These are the two invariants the whole observability design rests on:
//! shard-per-seat recording loses nothing (counters are integers merged
//! commutatively), and a query is recorded once, from its `QueryStats`, so
//! nothing observes the execution shape. One fixed batch pins the counts
//! themselves, so a change that moves them at every thread count alike is
//! seen too.

mod common;

use common::{arb_connected_graph, arb_db, deterministic_span_counts};
use graph_core::Graph;
use obs::{Counter, Gauge, Span};
use proptest::prelude::*;
use std::collections::BTreeMap;
use treepi::{Engine, TreePiIndex, TreePiParams};

fn run_metered(
    idx: &TreePiIndex,
    queries: &[Graph],
    threads: usize,
) -> (Vec<treepi::QueryResult>, obs::MetricSet) {
    let shard = obs::Shard::detached(true);
    let engine = Engine::new(idx.clone(), threads);
    let (results, _) = engine.query_batch_pinned(queries, &shard);
    (results, shard.into_set())
}

/// The database of `treepi gen --chem 25 --seed 7`, built under the paper's
/// default parameters and reloaded from its file, answers its own first
/// three graphs with exactly these counts at 1, 2 and 8 workers. Whole maps
/// are compared, so a counter that appears or disappears fails as well as
/// one that moves either way. After an intended change to what the walk,
/// the filter or the search counts, or to the index's heap, update the
/// constants and say why.
#[test]
fn fixed_query_batch_counts_are_pinned() {
    const COUNTERS: [(&str, u64); 10] = [
        ("funnel.answers", 3),
        ("funnel.filtered", 3),
        ("funnel.missing_feature", 0),
        ("funnel.partition_parts", 55),
        ("funnel.queries", 3),
        ("funnel.sf_features", 99),
        ("verify.tests", 3),
        ("walk.encodes", 209),
        ("walk.hits", 178),
        ("walk.probes", 787),
    ];
    const SPANS: [(&str, u64); 4] = [
        ("query.filter", 3),
        ("query.partition", 3),
        ("query.partition.enumerate", 3),
        ("query.verify", 3),
    ];
    // The canonical-string directory became a hash table of 512 slots for
    // the 328 features (it was one id per feature): 736 bytes more in
    // `trie_bytes` and the total.
    const INDEX_GAUGES: [(Gauge, u64); 7] = [
        (Gauge::MEM_INDEX_BYTES, 76_101),
        (Gauge::MEM_INDEX_CENTERS_BYTES, 8_796),
        (Gauge::MEM_INDEX_DB_BYTES, 24_837),
        (Gauge::MEM_INDEX_FEATURES_BYTES, 24_836),
        (Gauge::MEM_INDEX_SIGS_BYTES, 11_384),
        (Gauge::MEM_INDEX_SUPPORTS_BYTES, 3_336),
        (Gauge::MEM_INDEX_TRIE_BYTES, 2_912),
    ];
    let (file, queries) = common::chem25_index_file();
    let idx = TreePiIndex::load(&mut file.as_slice()).expect("load");

    let registry = obs::Registry::new();
    idx.record_mem_gauges(&registry);
    assert_eq!(registry.drain().gauges().collect::<Vec<_>>(), INDEX_GAUGES);
    let expected = (BTreeMap::from(COUNTERS), BTreeMap::from(SPANS));
    for threads in [1usize, 2, 8] {
        let (results, m) = run_metered(&idx, &queries, threads);
        assert!(results.iter().all(|r| !r.matches.is_empty()));
        let got = (m.deterministic_counters(), deterministic_span_counts(&m));
        assert_eq!(got, expected, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `funnel.*` and `walk.*` counters are exact sums of the returned
    /// `QueryStats`, and deterministic counters are bit-identical at 1, 2,
    /// and 8 threads.
    #[test]
    fn funnel_counters_reconcile_with_query_stats(
        db in arb_db(8, 7),
        queries in proptest::collection::vec(arb_connected_graph(5, 3), 1..=6),
    ) {
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let (results, base) = run_metered(&idx, &queries, 1);

        // Exact reconciliation against the per-query stats.
        prop_assert_eq!(base.counter(Counter::FUNNEL_QUERIES.name()), queries.len() as u64);
        let sums = |f: fn(&treepi::QueryStats) -> u32| -> u64 {
            results.iter().map(|r| u64::from(f(&r.stats))).sum()
        };
        prop_assert_eq!(base.counter(Counter::FUNNEL_FILTERED.name()), sums(|s| s.filtered));
        prop_assert_eq!(base.counter(Counter::FUNNEL_ANSWERS.name()), sums(|s| s.answers));
        prop_assert_eq!(base.counter(Counter::WALK_PROBES.name()), sums(|s| s.walk_probes));
        prop_assert_eq!(base.counter(Counter::WALK_ENCODES.name()), sums(|s| s.walk_encodes));
        prop_assert_eq!(base.counter(Counter::WALK_HITS.name()), sums(|s| s.walk_hits));
        prop_assert_eq!(base.counter(Counter::VERIFY_TESTS.name()), sums(|s| s.verify_tests));
        prop_assert_eq!(
            base.counter(Counter::VERIFY_CENTER_SIG_KILLS.name()),
            sums(|s| s.verify_center_sig_kills)
        );
        let missing: u64 = results.iter().filter(|r| r.stats.missing_feature).count() as u64;
        prop_assert_eq!(base.counter(Counter::FUNNEL_MISSING_FEATURE.name()), missing);

        // All three pipeline spans, and the partition stage's walk, are
        // observed exactly once per query, even for short-circuited queries.
        let walk = Span::QUERY_PARTITION_ENUMERATE;
        for id in Span::PIPELINE.into_iter().chain([walk]) {
            let span = base.span(id.name()).expect("pipeline span always present");
            prop_assert_eq!(span.count, queries.len() as u64);
        }

        // Thread-count invariance of every deterministic counter.
        let base_det = base.deterministic_counters();
        for threads in [2usize, 8] {
            let (results_t, m) = run_metered(&idx, &queries, threads);
            for (a, b) in results.iter().zip(&results_t) {
                prop_assert_eq!(&a.matches, &b.matches);
            }
            prop_assert_eq!(&m.deterministic_counters(), &base_det, "threads={}", threads);
        }
    }

    /// Build-path counter reconciliation: every deterministic counter
    /// (`mine.level{N}.*`, `mine.*` totals, `build.*`) and deterministic
    /// span count must match exactly between a serial and a parallel build — the parallel miner's canonical merge may not change
    /// what the instrumentation observes.
    #[test]
    fn build_counters_reconcile_across_thread_counts(db in arb_db(10, 8)) {
        let build_metered = |threads: usize| {
            let registry = obs::Registry::new();
            let shard = registry.shard();
            let idx = TreePiIndex::build_with_threads_obs(
                db.clone(),
                TreePiParams::quick(),
                threads,
                &shard,
            );
            registry.absorb(shard);
            (idx, registry.drain())
        };
        let (_, base) = build_metered(1);
        // Sanity: the serial build actually recorded mining/build counters.
        prop_assert!(base.counter("build.mined") > 0);
        prop_assert!(base.counter("mine.level1.candidates") > 0);

        let base_det = base.deterministic_counters();
        let base_spans = deterministic_span_counts(&base);
        for threads in [2usize, 8] {
            let (_, m) = build_metered(threads);
            prop_assert_eq!(&m.deterministic_counters(), &base_det, "threads={}", threads);
            prop_assert_eq!(&deterministic_span_counts(&m), &base_spans, "threads={}", threads);
        }
    }

    /// The metered batch returns exactly what the unmetered batch returns —
    /// instrumentation must never perturb results.
    #[test]
    fn metered_batch_matches_unmetered(
        db in arb_db(6, 6),
        queries in proptest::collection::vec(arb_connected_graph(5, 3), 1..=4),
    ) {
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let (plain, _) =
            Engine::new(idx.clone(), 2).query_batch_pinned(&queries, &obs::Shard::disabled());
        let (metered, _) = run_metered(&idx, &queries, 2);
        for (a, b) in plain.iter().zip(&metered) {
            prop_assert_eq!(&a.matches, &b.matches);
            prop_assert_eq!(a.stats.filtered, b.stats.filtered);
            prop_assert_eq!(a.stats.answers, b.stats.answers);
            prop_assert_eq!(a.stats.partition_size, b.stats.partition_size);
        }
    }
}
