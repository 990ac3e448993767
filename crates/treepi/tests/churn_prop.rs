//! Churn-equivalence property suite: seeded random insert/remove/query
//! schedules driven through [`Engine`] at 1, 2 and 8 pool workers.
//!
//! Two layers of invariants:
//!
//! - **Every step**: a query batch dispatched right after each mutation
//!   must equal the brute-force scan oracle over the snapshot it ran
//!   against — §7.1 maintenance never costs exactness, at any pool size —
//!   and the canonical-string directory must find exactly what a linear
//!   scan of the features finds, also across the inserts that register a
//!   novel single-edge feature; the postings an insert writes — read off
//!   the guided walk of the new graph — are what searching the graph for
//!   each feature finds.
//! - **Final state**: the churned index is equivalent to a fresh build on
//!   the surviving graphs *modulo §7.1 repair*. The bound is explicit:
//!   repairs patch support sets but never mine new features or retire old
//!   ones, so the churned index keeps the initial build's feature set and
//!   its answers stay exact (checked per step above); one
//!   [`TreePiIndex::remine_with_pool`] restores exact fresh-build feature
//!   parity (same canonical strings — σ is absolute, Eq. 1, so thresholds
//!   do not shift with churn), and answers agree with the fresh build
//!   through the survivor-rank gid map (churned gids are stable with
//!   tombstones; a fresh build densifies).
//!
//! A fixed chem schedule with background re-mining pins the exact counts
//! of the maintenance layer and of the query batch that follows it.

use datagen::{extract_queries, generate_chem, ChemParams};
use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use obs::Counter;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tree_core::CanonString;
use treepi::{scan_support, Engine, FeatureId, TreePiIndex, TreePiParams};

/// Random connected labeled graph: a random tree plus a few extra edges
/// (same shape as the proptest generator in `prop.rs`, but driven by a
/// plain seeded RNG so schedules replay exactly).
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

/// The directory is well formed and `feature_by_canon` agrees with a linear
/// scan of `features()` on every stored string and on near misses of each:
/// its proper prefix, an extension, and every one-token change.
fn assert_directory(idx: &TreePiIndex, what: &str) {
    assert!(idx.directory_consistent(), "{what}: directory out of order");
    let scan = |c: &CanonString| {
        let at = idx.features().iter().position(|f| f.canon == *c);
        at.map(|i| FeatureId(i as u32))
    };
    for f in idx.features() {
        let t = f.canon.tokens();
        let mut probes = vec![t.to_vec(), t[..t.len() - 1].to_vec(), [t, &t[..1]].concat()];
        probes.extend((0..t.len()).map(|i| {
            let mut p = t.to_vec();
            p[i] ^= 1;
            p
        }));
        for p in probes.into_iter().map(CanonString) {
            assert_eq!(idx.feature_by_canon(&p), scan(&p), "{what}: {p:?}");
        }
    }
}

/// Graph `gid`'s entry in every posting list is what a search of the graph
/// for that feature finds (nothing, for a feature it does not contain).
fn assert_postings_of(idx: &TreePiIndex, gid: u32, what: &str) {
    let g = &idx.db()[gid as usize];
    for (i, f) in idx.features().iter().enumerate() {
        let stored = idx.center_positions_of(FeatureId(i as u32), gid);
        let found = tree_core::center_positions(&f.tree(), g);
        assert!(stored.eq(found), "{what}: feature {i} in graph {gid}");
    }
}

fn sorted_canons(idx: &TreePiIndex) -> Vec<CanonString> {
    let mut v: Vec<_> = idx.features().iter().map(|f| f.canon.clone()).collect();
    v.sort();
    v
}

/// One seeded churn schedule: 30 mutations (60% insert / 40% remove of a
/// random live gid), an oracle-checked query batch after every step, and
/// the final fresh-build equivalence described in the module docs. Returns
/// whether some insert registered a novel single-edge feature.
fn run_churn(workers: usize, seed: u64) -> bool {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let initial: Vec<Graph> = (0..6).map(|_| random_graph(&mut rng, 7)).collect();
    let engine = Engine::new(TreePiIndex::build(initial, TreePiParams::quick()), workers);
    let built_features = engine.pin().feature_count();
    assert_directory(&engine.pin(), "fresh build");
    let mut live: Vec<u32> = (0..6).collect();
    let mut expected_next = 6u32;

    for step in 0..30u64 {
        if live.is_empty() || rng.gen_bool(0.6) {
            let gid = engine.insert(random_graph(&mut rng, 7));
            assert_eq!(gid, expected_next, "gids assign densely in insert order");
            expected_next += 1;
            live.push(gid);
            assert_postings_of(&engine.pin(), gid, &format!("step {step}"));
        } else {
            let i = rng.gen_range(0..live.len());
            let gid = live.swap_remove(i);
            assert!(engine.remove(gid), "step {step}: gid {gid} was live");
        }

        let queries: Vec<Graph> = (0..2).map(|_| random_graph(&mut rng, 4)).collect();
        let snapshot = engine.pin();
        assert!(
            snapshot.postings_consistent(),
            "step {step}, {workers} workers: posting lists out of step"
        );
        assert_directory(&snapshot, &format!("step {step}, {workers} workers"));
        let (results, _) = engine.query_batch_pinned(&queries, &obs::Shard::disabled());
        for (q, r) in queries.iter().zip(&results) {
            assert_eq!(
                r.matches,
                scan_support(&snapshot, q),
                "step {step}, {workers} workers: batch answer diverged from scan oracle"
            );
        }
    }

    // Final-state equivalence: re-mine the churned index and compare with
    // a fresh build on the survivors.
    let churned = engine.pin();
    let remined = churned.remine_with_pool(engine.pool());
    assert!(remined.postings_consistent() && remined.directory_consistent());
    // The churned index survives a file round trip unchanged: saving the
    // loaded copy reproduces the file byte for byte.
    let mut file = Vec::new();
    churned.save(&mut file).expect("in-memory save");
    let loaded = TreePiIndex::load(&mut file.as_slice()).expect("own file loads");
    assert_eq!(loaded.stats(), churned.stats());
    assert_directory(&loaded, "loaded");
    let mut again = Vec::new();
    loaded.save(&mut again).expect("in-memory save");
    assert_eq!(again, file, "save(load(save(x))) differs from save(x)");
    let mut rank: Vec<Option<u32>> = vec![None; churned.db().len()];
    let mut fresh_db = Vec::new();
    for (i, g) in churned.db().iter().enumerate() {
        if churned.is_active(i as u32) {
            rank[i] = Some(fresh_db.len() as u32);
            fresh_db.push(g.clone());
        }
    }
    assert_eq!(fresh_db.len(), live.len());
    let fresh = TreePiIndex::build(fresh_db, TreePiParams::quick());
    assert_eq!(
        sorted_canons(&remined),
        sorted_canons(&fresh),
        "one re-mine must restore fresh-build feature parity (σ is absolute)"
    );
    for k in 0..8u64 {
        let q = random_graph(&mut rng, 5);
        let mapped: Vec<u32> = churned
            .query(&q)
            .matches
            .iter()
            .map(|&g| rank[g as usize].expect("churned answers only cite active gids"))
            .collect();
        assert_eq!(
            mapped,
            fresh.query(&q).matches,
            "probe {k}: churned answers must equal fresh build through the gid map"
        );
    }

    // Teardown path: into_index applies/waits/unwraps without losing state.
    let final_idx = engine.into_index();
    assert_eq!(final_idx.maintenance_epoch(), churned.maintenance_epoch());
    assert_eq!(final_idx.active_count(), live.len());
    // Repairs never retire a feature, so growth means a directory splice.
    final_idx.feature_count() > built_features
}

const SEEDS: [u64; 3] = [7, 2007, 0x00C0_FFEE];

#[test]
fn churn_schedules_1_worker() {
    let spliced = SEEDS.map(|seed| run_churn(1, seed));
    assert!(
        spliced.contains(&true),
        "no schedule registered a novel single-edge feature: the directory splice went untested"
    );
}

#[test]
fn churn_schedules_2_workers() {
    for seed in SEEDS {
        run_churn(2, seed);
    }
}

#[test]
fn churn_schedules_8_workers() {
    for seed in SEEDS {
        run_churn(8, seed);
    }
}

/// Pinned snapshots stay internally consistent while a writer churns:
/// reader threads repeatedly pin, query, and oracle-check the *same* pin —
/// a torn snapshot (query path and database disagreeing mid-swap) fails
/// the comparison; a blocked reader fails the join deadline implicitly.
#[test]
fn pinned_reads_stay_consistent_under_concurrent_churn() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let initial: Vec<Graph> = (0..6).map(|_| random_graph(&mut rng, 7)).collect();
    let engine = std::sync::Arc::new(Engine::new(
        TreePiIndex::build(initial, TreePiParams::quick()),
        2,
    ));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let progress = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));

    let readers: Vec<_> = (0..3u64)
        .map(|r| {
            let engine = std::sync::Arc::clone(&engine);
            let stop = std::sync::Arc::clone(&stop);
            let progress = std::sync::Arc::clone(&progress);
            std::thread::spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(1000 + r);
                let mut checked = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let q = random_graph(&mut rng, 4);
                    let snap = engine.pin();
                    let got = snap.query(&q).matches;
                    assert_eq!(got, scan_support(&snap, &q), "reader {r}: torn snapshot");
                    checked += 1;
                    progress.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                checked
            })
        })
        .collect();

    let mut live: Vec<u32> = (0..6).collect();
    let mut ops = 0u32;
    // At least 40 churn ops, then keep churning (lightly) until the readers
    // have demonstrably overlapped with the writer — otherwise a slow thread
    // spawn on a loaded machine lets the writer finish before any reader
    // completes a single check.
    while ops < 40 || progress.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        if live.is_empty() || rng.gen_bool(0.6) {
            live.push(engine.insert(random_graph(&mut rng, 7)));
        } else {
            let i = rng.gen_range(0..live.len());
            let gid = live.swap_remove(i);
            assert!(engine.remove(gid));
        }
        ops += 1;
        if ops >= 40 {
            std::thread::yield_now();
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|h| h.join().expect("reader")).sum();
    assert!(total > 0, "readers must have made progress during churn");
}

/// Background re-mining under churn: with a low staleness threshold the
/// re-mine thread publishes mid-schedule; answers stay oracle-exact at
/// every step and the counters reconcile.
#[test]
fn background_remine_keeps_answers_exact_under_churn() {
    let mut rng = ChaCha8Rng::seed_from_u64(97);
    let initial: Vec<Graph> = (0..6).map(|_| random_graph(&mut rng, 7)).collect();
    let engine = Engine::with_remine(TreePiIndex::build(initial, TreePiParams::quick()), 2, 4);
    let mut live: Vec<u32> = (0..6).collect();
    for step in 0..40u64 {
        if live.is_empty() || rng.gen_bool(0.6) {
            live.push(engine.insert(random_graph(&mut rng, 7)));
        } else {
            let i = rng.gen_range(0..live.len());
            let gid = live.swap_remove(i);
            assert!(engine.remove(gid));
        }
        let q = random_graph(&mut rng, 4);
        let snapshot = engine.pin();
        assert!(snapshot.postings_consistent(), "step {step}");
        let (results, _) =
            engine.query_batch_pinned(std::slice::from_ref(&q), &obs::Shard::disabled());
        assert_eq!(
            results[0].matches,
            scan_support(&snapshot, &q),
            "step {step}"
        );
    }
    engine.wait_remine_idle();
    let stats = engine.maint_stats();
    assert!(
        stats.remines_completed >= 1,
        "threshold 4 over 40 ops must have re-mined: {stats:?}"
    );
    assert_eq!(stats.remines_completed, stats.remine_triggers);
    assert_eq!(stats.applied, 40);
    let idx = engine.into_index();
    assert_eq!(idx.active_count(), live.len());
}

/// The maintenance counters after [`deterministic_churn_counters`]'s
/// schedule, then the funnel counters of its one query batch.
const CHURN_COUNTS: [(Counter, u64); 10] = [
    (Counter::MAINT_APPLIED, 24),
    (Counter::MAINT_SNAPSHOT_SWAPS, 27),
    (Counter::MAINT_REMINE_TRIGGERS, 3),
    (Counter::MAINT_REMINES_COMPLETED, 3),
    (Counter::FUNNEL_QUERIES, 20),
    (Counter::FUNNEL_FILTERED, 41),
    (Counter::FUNNEL_ANSWERS, 33),
    (Counter::FUNNEL_PARTITION_PARTS, 62),
    (Counter::FUNNEL_SF_FEATURES, 149),
    (Counter::FUNNEL_MISSING_FEATURE, 0),
];

/// Deterministic engine-level churn on 60 chem graphs: 24 seeded ops
/// applied one at a time with background re-mining at threshold 8,
/// waiting out each re-mine so the trigger schedule does not depend on
/// wall time, then one metered batch of 20 extracted queries.
fn deterministic_churn_counters() -> obs::MetricSet {
    let fixture_rng = |salt: u64| ChaCha8Rng::seed_from_u64(0x7ee9 ^ salt);
    let db = generate_chem(&ChemParams::sized(60), &mut fixture_rng(1));
    let mut qs = extract_queries(&db, 4, 12, &mut fixture_rng(3 + 4));
    qs.extend(extract_queries(&db, 8, 8, &mut fixture_rng(3 + 8)));

    let shard = obs::Shard::detached(true);
    let engine = Engine::with_remine(
        TreePiIndex::build(db.clone(), TreePiParams::default()),
        2,
        8,
    );
    let mut rng = ChaCha8Rng::seed_from_u64(2007);
    let mut live: Vec<u32> = Vec::new();
    for _ in 0..24 {
        if live.is_empty() || rng.gen_bool(0.5) {
            live.push(engine.insert(db[rng.gen_range(0..db.len())].clone()));
        } else {
            let i = rng.gen_range(0..live.len());
            engine.remove(live.swap_remove(i));
        }
        // Drain the re-mine after every write: triggers then fire at
        // exactly every `threshold` repairs, independent of wall time.
        engine.wait_remine_idle();
    }
    engine.query_batch_pinned(&qs, &shard);
    let stats = engine.maint_stats();
    let mut out = obs::MetricSet::new();
    for (c, v) in shard.into_set().counters() {
        if c.name().starts_with("funnel.") {
            out.add(c, v);
        }
    }
    out.add(Counter::MAINT_APPLIED, stats.applied);
    out.add(Counter::MAINT_SNAPSHOT_SWAPS, stats.snapshot_swaps);
    out.add(Counter::MAINT_REMINE_TRIGGERS, stats.remine_triggers);
    out.add(Counter::MAINT_REMINES_COMPLETED, stats.remines_completed);
    out
}

#[test]
fn churn_counts_are_pinned() {
    let m = deterministic_churn_counters();
    let got = CHURN_COUNTS.map(|(c, _)| (c, m.counter(c.name())));
    assert_eq!(got, CHURN_COUNTS);
}
