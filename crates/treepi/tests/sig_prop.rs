//! Signature suites: seeded random query/database pairs driven at 1, 2
//! and 8 pool workers.
//!
//! Near-miss exactness: the anchored search's signature gate (see
//! `treepi::sig` and `treepi::verify`) is the only per-candidate signature
//! check, and it may only discard candidates that cannot contain the
//! query. Every schedule batches random queries plus a label-perturbed
//! near miss of each, and demands answers equal to the brute-force
//! [`scan_support`] oracle, a funnel that only narrows
//! (`filtered >= answers`), and at least one center-gate kill
//! (`verify.center_sig_kills`), so the gate is exercised.
//!
//! A churn variant exercises the §7.1 maintenance invariant: per-vertex
//! signatures are a pure function of the stored payload, so
//! `sigs_consistent()` must hold after every insert and remove and after
//! a background re-mine publishes.
//!
//! The verification funnel pins the exact counts of one fixed chem
//! workload of hard queries and their near misses at 1 and 8 workers: any
//! change to what the filter passes, the gate kills or the search answers
//! shows as a changed count, up or down. (The gate on the weaker
//! partition-only filter is exercised by `prop.rs`'s
//! `every_stage_combination_is_exact`.)

use datagen::{extract_queries, generate_chem, perturb_labels, ChemParams};
use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use obs::Counter;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treepi::{scan_support, Engine, TreePiIndex, TreePiParams};

/// Random connected labeled graph (same shape as `churn_prop.rs`): a
/// random tree plus a few extra edges, replayable from the seed alone.
fn random_graph(rng: &mut ChaCha8Rng, nmax: usize) -> Graph {
    let n = rng.gen_range(2..=nmax);
    let mut b = GraphBuilder::new();
    for _ in 0..n {
        b.add_vertex(VLabel(rng.gen_range(0..3)));
    }
    for i in 1..n {
        let p = rng.gen_range(0..i);
        b.add_edge(
            VertexId(i as u32),
            VertexId(p as u32),
            ELabel(rng.gen_range(0..2)),
        )
        .expect("tree edge");
    }
    for _ in 0..rng.gen_range(0..3usize) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        let (u, v) = (VertexId(u as u32), VertexId(v as u32));
        if u != v && !b.has_edge(u, v) {
            let _ = b.add_edge(u, v, ELabel(rng.gen_range(0..2)));
        }
    }
    b.build()
}

const SEEDS: [u64; 3] = [7, 2007, 0x00C0_FFEE];

/// One seeded near-miss schedule at a fixed worker count: build a random
/// database, batch random queries and their near misses, and demand
/// oracle-exact answers, a narrowing funnel and center-gate kills.
fn run_near_miss(workers: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let db: Vec<Graph> = (0..10).map(|_| random_graph(&mut rng, 8)).collect();
    let engine = Engine::new(TreePiIndex::build(db, TreePiParams::quick()), workers);
    assert!(engine.pin().sigs_consistent(), "sigs wrong at build");

    let mut queries: Vec<Graph> = (0..12).map(|_| random_graph(&mut rng, 5)).collect();
    let near_miss: Vec<Graph> = queries
        .iter()
        .map(|q| perturb_labels(q, &mut rng))
        .collect();
    queries.extend(near_miss);
    let shard = obs::Shard::detached(true);
    let (results, _) = engine.query_batch_pinned(&queries, &shard);
    let snapshot = engine.pin();
    for (i, (q, r)) in queries.iter().zip(&results).enumerate() {
        assert_eq!(
            r.matches,
            scan_support(&snapshot, q),
            "seed {seed}, {workers} workers, query {i}: diverged from oracle"
        );
        let s = &r.stats;
        assert!(
            s.filtered >= s.answers,
            "query {i}: funnel does not narrow (filtered {} answers {})",
            s.filtered,
            s.answers
        );
    }
    let kills = shard.into_set().counter("verify.center_sig_kills");
    assert!(
        kills > 0,
        "seed {seed}, {workers} workers: the signature gate rejected nothing"
    );
}

#[test]
fn near_miss_exact_1_worker() {
    for seed in SEEDS {
        run_near_miss(1, seed);
    }
}

#[test]
fn near_miss_exact_2_workers() {
    for seed in SEEDS {
        run_near_miss(2, seed);
    }
}

#[test]
fn near_miss_exact_8_workers() {
    for seed in SEEDS {
        run_near_miss(8, seed);
    }
}

/// Churn variant: signatures track the payload exactly through inserts,
/// removes and a low-threshold background re-mine — with oracle-exact
/// answers after every write.
fn run_churn_sigs(workers: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let initial: Vec<Graph> = (0..6).map(|_| random_graph(&mut rng, 7)).collect();
    let engine = Engine::with_remine(
        TreePiIndex::build(initial, TreePiParams::quick()),
        workers,
        4,
    );
    let mut live: Vec<u32> = (0..6).collect();

    for step in 0..20u64 {
        if live.is_empty() || rng.gen_bool(0.6) {
            let gid = engine.insert(random_graph(&mut rng, 7));
            live.push(gid);
        } else {
            let i = rng.gen_range(0..live.len());
            let gid = live.swap_remove(i);
            assert!(engine.remove(gid), "step {step}: gid {gid} was live");
        }
        let snapshot = engine.pin();
        assert!(
            snapshot.sigs_consistent(),
            "step {step}, {workers} workers: sigs diverged from payload"
        );
        let q = random_graph(&mut rng, 4);
        let (results, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert_eq!(
            results[0].matches,
            scan_support(&snapshot, &q),
            "step {step}: churned answer diverged from oracle"
        );
    }

    engine.wait_remine_idle();
    assert!(
        engine.pin().sigs_consistent(),
        "re-mine published inconsistent sigs"
    );
    assert!(engine.into_index().sigs_consistent());
}

#[test]
fn sigs_track_churn_1_worker() {
    for seed in SEEDS {
        run_churn_sigs(1, seed);
    }
}

#[test]
fn sigs_track_churn_8_workers() {
    for seed in SEEDS {
        run_churn_sigs(8, seed);
    }
}

/// The funnel fixture's RNG for one purpose (`salt`).
fn fixture_rng(salt: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x7ee9 ^ salt)
}

/// Hard workload: large extracted subgraphs (cyclic ones first), mid and
/// small sizes, plus a label-perturbed near miss of each: the traffic the
/// anchored search's signature gate exists for.
fn hard_workload(db: &[Graph]) -> Vec<Graph> {
    let queries = |m: usize, count| extract_queries(db, m, count, &mut fixture_rng(3 + m as u64));
    let mut rng = fixture_rng(41);
    let big = queries(10, 24);
    let mut qs: Vec<Graph> = big
        .iter()
        .filter(|q| q.edge_count() >= q.vertex_count())
        .cloned()
        .collect();
    qs.extend(big);
    qs.extend(queries(8, 8));
    qs.extend(queries(4, 16));
    let near_miss: Vec<Graph> = qs.iter().map(|q| perturb_labels(q, &mut rng)).collect();
    qs.extend(near_miss);
    qs
}

/// The funnel counts of [`hard_workload`] on 60 chem graphs.
const FUNNEL_COUNTS: [(Counter, u64); 7] = [
    (Counter::FUNNEL_QUERIES, 104),
    (Counter::FUNNEL_FILTERED, 261),
    (Counter::FUNNEL_ANSWERS, 171),
    (Counter::FUNNEL_PARTITION_PARTS, 446),
    (Counter::FUNNEL_SF_FEATURES, 1026),
    (Counter::FUNNEL_MISSING_FEATURE, 3),
    (Counter::VERIFY_CENTER_SIG_KILLS, 5),
];

#[test]
fn verify_funnel_counts_are_pinned() {
    let db = generate_chem(&ChemParams::sized(60), &mut fixture_rng(1));
    let qs = hard_workload(&db);
    let index = TreePiIndex::build(db, TreePiParams::default());
    for workers in [1, 8] {
        let engine = Engine::new(index.clone(), workers);
        let shard = obs::Shard::detached(true);
        engine.query_batch_pinned(&qs, &shard);
        let m = shard.into_set();
        let got = FUNNEL_COUNTS.map(|(c, _)| (c, m.counter(c.name())));
        assert_eq!(got, FUNNEL_COUNTS, "{workers} workers");
    }
}
