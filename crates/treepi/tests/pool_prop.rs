//! Pool-equivalence property tests: the persistent worker pool must be
//! invisible in every output. On arbitrary databases and query batches, a
//! long-lived [`treepi::Engine`] must return bit-identical results and
//! deterministic funnel counters at 1, 2, and 8 pool workers **and**
//! against a plain sequential loop of single queries; index builds
//! dispatched onto a pool must serialize to the same bytes at any pool size. A deterministic
//! re-entrancy test drives the nested-dispatch path (a pool-run query
//! fanning its verify stage back into the same pool) that the
//! random cases rarely reach. One-query batches leave the engine's workers
//! idle, so it spends them inside the query: molecule queries large enough
//! to share their walk out over those workers must agree, count for count,
//! with a one-worker engine.

mod common;

use common::{arb_connected_graph, arb_db};
use graph_core::par::Pool;
use graph_core::{graph_from, Graph};
use proptest::prelude::*;
use treepi::{Engine, TreePiIndex, TreePiParams, INTRA_PAR_THRESHOLD};

fn save_bytes(idx: &TreePiIndex) -> Vec<u8> {
    let mut out = Vec::new();
    idx.save(&mut out).expect("in-memory save");
    out
}

/// `got` answers as `want` does, with every count of its statistics equal.
fn assert_same_query(got: &treepi::QueryResult, want: &treepi::QueryResult, what: &str) {
    let counts = |r: &treepi::QueryResult| {
        let s = &r.stats;
        (
            [s.partition_size, s.sf_size, s.filtered, s.answers],
            [s.walk_probes, s.walk_encodes, s.walk_hits],
            [s.verify_tests, s.verify_center_sig_kills],
            s.missing_feature,
        )
    };
    assert_eq!(got.matches, want.matches, "{what}");
    assert_eq!(counts(got), counts(want), "{what}");
}

fn run_engine(engine: &Engine, queries: &[Graph]) -> (Vec<treepi::QueryResult>, obs::MetricSet) {
    let shard = obs::Shard::detached(true);
    let (results, _) = engine.query_batch_pinned(queries, &shard);
    (results, shard.into_set())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Engine batches return identical matches, stats, and deterministic
    /// counters at 1, 2, and 8 pool workers, and match a plain sequential
    /// loop of single queries exactly.
    #[test]
    fn engine_is_pool_size_invariant_and_matches_sequential(
        db in arb_db(8, 7),
        queries in proptest::collection::vec(arb_connected_graph(5, 3), 1..=6),
    ) {
        let idx = TreePiIndex::build(db, TreePiParams::quick());

        // Reference: one query at a time, no batch engine involved, each
        // query's stats recorded by hand as the engine's seat records them.
        let seq: Vec<treepi::QueryResult> = queries.iter().map(|q| idx.query(q)).collect();
        let shard = obs::Shard::detached(true);
        for (i, r) in seq.iter().enumerate() {
            r.stats.record_into(&shard, i as u64, r.finished);
        }
        let seq_det = shard.into_set().deterministic_counters();

        let mut engine = Engine::new(idx, 1);
        let (base, base_metrics) = run_engine(&engine, &queries);
        for (a, b) in seq.iter().zip(&base) {
            prop_assert_eq!(&a.matches, &b.matches);
            prop_assert_eq!(a.stats.filtered, b.stats.filtered);
            prop_assert_eq!(a.stats.answers, b.stats.answers);
            prop_assert_eq!(a.stats.partition_size, b.stats.partition_size);
        }
        let base_det = base_metrics.deterministic_counters();
        prop_assert_eq!(&base_det, &seq_det);

        for workers in [2usize, 8] {
            engine = Engine::new(engine.into_index(), workers);
            let (results, metrics) = run_engine(&engine, &queries);
            for (a, b) in base.iter().zip(&results) {
                prop_assert_eq!(&a.matches, &b.matches);
                prop_assert_eq!(a.stats.filtered, b.stats.filtered);
                prop_assert_eq!(a.stats.answers, b.stats.answers);
            }
            prop_assert_eq!(
                &metrics.deterministic_counters(),
                &base_det,
                "workers={}",
                workers
            );
            // One query per batch: the workers go inside the query.
            for (q, want) in queries.iter().zip(&seq) {
                let (got, _) = run_engine(&engine, std::slice::from_ref(q));
                assert_same_query(&got[0], want, &format!("alone, workers={workers}"));
            }
        }
    }

    /// Builds dispatched onto an explicit pool serialize to identical bytes
    /// at 1, 2, and 8 workers (and match the thread-count entry point).
    #[test]
    fn pooled_build_is_pool_size_invariant(db in arb_db(10, 8)) {
        let off = obs::Shard::disabled();
        let base = TreePiIndex::build_with_threads_obs(db.clone(), TreePiParams::quick(), 1, &off);
        let base_bytes = save_bytes(&base);
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            let idx = TreePiIndex::build_with_pool_obs(db.clone(), TreePiParams::quick(), &pool, &off);
            prop_assert_eq!(
                &save_bytes(&idx),
                &base_bytes,
                "serialized index differs at pool workers={}",
                workers
            );
        }
    }
}

/// Molecule queries of 16 and 20 edges, one per batch, on engines of 1, 2
/// and 8 workers: each walk has seeds enough to be shared out over the idle
/// workers, and every answer and count equals a plain query's, as do the
/// batch totals of the deterministic counters.
#[test]
fn single_query_batches_split_the_walk_and_agree() {
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(60), &mut rng);
    let mut queries = datagen::extract_queries(&db, 16, 8, &mut rng);
    queries.extend(datagen::extract_queries(&db, 20, 8, &mut rng));
    let idx = TreePiIndex::build(db, TreePiParams::default());
    let want: Vec<treepi::QueryResult> = queries.iter().map(|q| idx.query(q)).collect();
    let mut engine = Engine::new(idx, 1);
    let mut totals = Vec::new();
    for workers in [1usize, 2, 8] {
        engine = Engine::new(engine.into_index(), workers);
        let shard = obs::Shard::detached(true);
        for (q, want) in queries.iter().zip(&want) {
            let (got, _) = engine.query_batch_pinned(std::slice::from_ref(q), &shard);
            assert_same_query(&got[0], want, &format!("workers={workers}"));
        }
        totals.push(shard.into_set().deterministic_counters());
    }
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "{totals:?}");
}

/// One database where a 3-cycle query has well over [`INTRA_PAR_THRESHOLD`]
/// candidates, batched twice on an 8-worker engine: the batch fans out over
/// pool seats AND each query's verify stage dispatches back into the
/// same pool from inside a seat (re-entrant nesting). Must complete (no
/// deadlock) and agree with a 1-worker engine.
#[test]
fn reentrant_stage_dispatch_is_deterministic() {
    let mut db = Vec::new();
    for i in 0..(INTRA_PAR_THRESHOLD + 8) {
        // Triangle plus a tail; the tail label varies so the db is not all
        // one graph.
        let tail = (i % 3) as u32;
        db.push(graph_from(
            &[0, 0, 0, tail],
            &[(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 1)],
        ));
    }
    let triangle = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
    let queries = vec![triangle.clone(), triangle];
    let idx = TreePiIndex::build(db, TreePiParams::quick());

    let serial = Engine::new(idx, 1);
    let (base, _) = serial.query_batch_pinned(&queries, &obs::Shard::disabled());
    // Sanity: the filter stage really produces an intra-parallel workload.
    assert!(base[0].stats.filtered as usize >= INTRA_PAR_THRESHOLD);
    assert_eq!(base[0].stats.answers as usize, INTRA_PAR_THRESHOLD + 8);

    let engine = Engine::new(serial.into_index(), 8);
    for round in 0..3 {
        let (results, _) = engine.query_batch_pinned(&queries, &obs::Shard::disabled());
        for (a, b) in base.iter().zip(&results) {
            assert_eq!(a.matches, b.matches, "round {round}");
            assert_eq!(a.stats.filtered, b.stats.filtered);
            assert_eq!(a.stats.answers, b.stats.answers);
        }
    }
}
