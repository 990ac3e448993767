//! Allocation budget of the small-query path and of §7.1 writes.
//!
//! The `mem.alloc.*` gauges are gated in CI at 100 % tolerance, which is how
//! a `SmallVec` stand-in that heap-allocated every "inline" vector — 62 % of
//! a 4-edge query's allocations — went unnoticed. This binary installs the
//! counting allocator (it holds one test, so nothing else allocates while it
//! counts) and holds allocations per 4-edge and per 16-edge query, and per
//! insert and per remove through an engine nobody pins, under committed
//! ceilings.

use datagen::{extract_queries, generate_chem, ChemParams};
use graph_core::Graph;
use obs::alloc::{allocation_count, TrackingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{Engine, QueryOptions, TreePiIndex, TreePiParams};

#[global_allocator]
static ALLOC: TrackingAlloc<std::alloc::System> = TrackingAlloc::new(std::alloc::System);

/// Allocations per query on this fixture, measured, × 1.25: edge count of
/// the queries, ceiling. Lower a ceiling when its path gets cheaper.
///
/// 4 edges: 67 since the anchored search is the only per-candidate test
/// (68 with a standalone signature pass computing the query's signatures
/// a second time, 69 when `TP_q` first became a greedy cover, 119 with the δ
/// random runs building a `Tree` per part, 152 with CDC on; 1 531 with the
/// reconstruction join and a fresh oracle per candidate, 2 335 before the
/// δ runs stopped canonicalising every growth step, 6 446 with the
/// heap-backed `SmallVec`). 16 edges: such a query is nearly all
/// partition, one candidate to verify: 99 (100 with the signature pass,
/// 277 with the δ runs, 349 with CDC on, 643 with the join, 58 775 when
/// every subtree up to η edges was extracted, made a `Tree` and
/// canonicalised).
const CEILINGS: [(usize, u64); 2] = [(4, 84), (16, 124)];

/// Allocations per write through an engine no reader pins, measured,
/// × 1.25: (insert, remove). An apply mutates the published index in
/// place: an insert is the queued op, the §7.1 walk and the new posting
/// entries, 81 since each edge is looked up where it lies (387 when every
/// edge was made a `Tree` and a canonical string first); a remove is the
/// queued op, 1. When every apply cloned the index first they were 5 985
/// and 5 576 on this fixture.
const WRITE_CEILINGS: (u64, u64) = (101, 2);

/// Database graphs inserted again, then removed again.
const WRITES: usize = 20;

#[test]
fn queries_stay_within_their_allocation_budget() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let db = generate_chem(&ChemParams::sized(60), &mut rng);
    let pools = CEILINGS.map(|(edges, _)| extract_queries(&db, edges, 100, &mut rng));
    let copies: Vec<Graph> = db[..WRITES].to_vec();
    let engine = Engine::new(TreePiIndex::build(db, TreePiParams::default()), 1);
    for ((edges, ceiling), queries) in CEILINGS.into_iter().zip(&pools) {
        let before = allocation_count();
        let (results, _) = engine.query_batch(queries, QueryOptions::default(), 7);
        let per_query = (allocation_count() - before) / queries.len() as u64;
        assert!(results.iter().all(|r| !r.matches.is_empty()));
        assert!(
            per_query <= ceiling,
            "{per_query} allocations per {edges}-edge query, ceiling {ceiling}"
        );
    }

    let (insert_ceiling, remove_ceiling) = WRITE_CEILINGS;
    let mut gids = Vec::with_capacity(WRITES);
    let before = allocation_count();
    for g in copies {
        gids.push(engine.insert(g));
    }
    let per_insert = (allocation_count() - before) / WRITES as u64;
    let before = allocation_count();
    for &gid in &gids {
        assert!(engine.remove(gid));
    }
    let per_remove = (allocation_count() - before) / WRITES as u64;
    assert!(
        per_insert <= insert_ceiling,
        "{per_insert} allocations per insert, ceiling {insert_ceiling}"
    );
    assert!(
        per_remove <= remove_ceiling,
        "{per_remove} allocations per remove, ceiling {remove_ceiling}"
    );
}
