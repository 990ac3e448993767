//! Allocation budget of the small-query path.
//!
//! The `mem.alloc.*` gauges are gated in CI at 100 % tolerance, which is how
//! a `SmallVec` stand-in that heap-allocated every "inline" vector — 62 % of
//! a 4-edge query's allocations — went unnoticed. This binary installs the
//! counting allocator (it holds one test, so nothing else allocates while it
//! counts) and holds allocations per 4-edge and per 16-edge query under
//! committed ceilings.

use datagen::{extract_queries, generate_chem, ChemParams};
use obs::alloc::{allocation_count, TrackingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{Engine, QueryOptions, TreePiIndex, TreePiParams};

#[global_allocator]
static ALLOC: TrackingAlloc<std::alloc::System> = TrackingAlloc::new(std::alloc::System);

/// Allocations per query on this fixture, measured, × 1.25: edge count of
/// the queries, ceiling. Lower a ceiling when its path gets cheaper.
///
/// 4 edges: 69 since `TP_q` is a greedy cover of the walk's occurrences
/// (119 with the δ random runs building a `Tree` per part, 152 with CDC
/// on; 1 531 with the reconstruction join and a fresh oracle per
/// candidate, 2 335 before the δ runs stopped canonicalising every growth
/// step, 6 446 with the heap-backed `SmallVec`). 16 edges: such a query is
/// nearly all partition, one candidate to verify: 99 (277 with the δ runs,
/// 349 with CDC on, 643 with the join, 58 775 when every subtree up to η
/// edges was extracted, made a `Tree` and canonicalised).
const CEILINGS: [(usize, u64); 2] = [(4, 87), (16, 124)];

#[test]
fn queries_stay_within_their_allocation_budget() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let db = generate_chem(&ChemParams::sized(60), &mut rng);
    let pools = CEILINGS.map(|(edges, _)| extract_queries(&db, edges, 100, &mut rng));
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
}
