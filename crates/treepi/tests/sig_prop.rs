//! Signature-filter soundness suite: seeded random query/database pairs
//! driven at 1, 2 and 8 pool workers.
//!
//! The neighborhood-signature kill stage (see `treepi::sig`) is a
//! *necessary-condition* filter: it may only discard candidates that
//! cannot contain the query. Three-way equivalence is checked on every
//! schedule — answers with the filter on, answers with it off, and the
//! brute-force [`scan_support`] oracle must agree exactly, while the
//! reported funnel stays consistent (`pruned - sig_killed >= answers`).
//!
//! A churn variant exercises the §7.1 maintenance invariant: per-vertex
//! signatures are a pure function of the stored payload, so
//! `sigs_consistent()` must hold after every queued insert/remove batch
//! and after a background re-mine publishes.

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use treepi::{scan_support, Engine, QueryOptions, TreePiIndex, TreePiParams};

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

/// One seeded soundness schedule at a fixed worker count: build a random
/// database, then batch random queries with the signature filter on and
/// off and demand both match the scan oracle candidate-for-candidate.
fn run_soundness(workers: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let db: Vec<Graph> = (0..10).map(|_| random_graph(&mut rng, 8)).collect();
    let engine = Engine::new(TreePiIndex::build(db, TreePiParams::quick()), workers);
    assert!(engine.pin().sigs_consistent(), "sigs wrong at build");

    let queries: Vec<Graph> = (0..12).map(|_| random_graph(&mut rng, 5)).collect();
    let on = QueryOptions {
        use_sig_filter: true,
        ..QueryOptions::default()
    };
    let off = QueryOptions {
        use_sig_filter: false,
        ..QueryOptions::default()
    };
    // Both runs cover each query with the same partition, so the funnels
    // are comparable stage-for-stage, not just answer-level.
    let (r_on, _) = engine.query_batch(&queries, on, 0);
    let (r_off, _) = engine.query_batch(&queries, off, 0);
    let snapshot = engine.pin();
    for (i, q) in queries.iter().enumerate() {
        let truth = scan_support(&snapshot, q);
        assert_eq!(
            r_on[i].matches, truth,
            "seed {seed}, {workers} workers, query {i}: filter-on diverged from oracle"
        );
        assert_eq!(
            r_off[i].matches, truth,
            "seed {seed}, {workers} workers, query {i}: filter-off diverged from oracle"
        );
        assert_eq!(
            r_off[i].stats.sig_killed, 0,
            "disabled filter must not report kills"
        );
        let s = &r_on[i].stats;
        assert!(
            s.filtered - s.sig_killed >= s.pruned && s.pruned >= s.answers,
            "query {i}: funnel does not narrow (filtered {} sig_killed {} pruned {} answers {})",
            s.filtered,
            s.sig_killed,
            s.pruned,
            s.answers
        );
        assert_eq!(
            s.filtered, r_off[i].stats.filtered,
            "query {i}: the kill stage must not change the upstream funnel"
        );
        assert!(
            s.pruned <= r_off[i].stats.pruned,
            "query {i}: killing candidates before CDC cannot grow the pruned set"
        );
    }
}

#[test]
fn sig_filter_sound_1_worker() {
    for seed in SEEDS {
        run_soundness(1, seed);
    }
}

#[test]
fn sig_filter_sound_2_workers() {
    for seed in SEEDS {
        run_soundness(2, seed);
    }
}

#[test]
fn sig_filter_sound_8_workers() {
    for seed in SEEDS {
        run_soundness(8, seed);
    }
}

/// Churn variant: signatures track the payload exactly through queued
/// inserts/removes, batched applies, and a low-threshold background
/// re-mine — with oracle-exact answers (sig filter on) after every batch.
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
            let gid = engine.queue_insert(random_graph(&mut rng, 7));
            live.push(gid);
        } else {
            let i = rng.gen_range(0..live.len());
            let gid = live.swap_remove(i);
            assert!(engine.queue_remove(gid), "step {step}: gid {gid} was live");
        }
        engine.apply_pending();
        let snapshot = engine.pin();
        assert!(
            snapshot.sigs_consistent(),
            "step {step}, {workers} workers: sigs diverged from payload"
        );
        let q = random_graph(&mut rng, 4);
        let (results, _) = engine.query_batch(std::slice::from_ref(&q), QueryOptions::default(), 0);
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
