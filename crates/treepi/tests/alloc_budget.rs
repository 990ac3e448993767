//! Allocation budget of the small-query path.
//!
//! The `mem.alloc.*` gauges are gated in CI at 100 % tolerance, which is how
//! a `SmallVec` stand-in that heap-allocated every "inline" vector — 62 % of
//! a 4-edge query's allocations — went unnoticed. This binary installs the
//! counting allocator (it holds one test, so nothing else allocates while it
//! counts) and holds allocations per 4-edge query under a committed ceiling.

use datagen::{extract_queries, generate_chem, ChemParams};
use obs::alloc::{allocation_count, TrackingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{Engine, QueryOptions, TreePiIndex, TreePiParams};

#[global_allocator]
static ALLOC: TrackingAlloc<std::alloc::System> = TrackingAlloc::new(std::alloc::System);

/// Measured 2 335 per query on this fixture (6 446 with the heap-backed
/// `SmallVec`), × 1.25. Lower it when the path gets cheaper.
const CEILING_PER_QUERY: u64 = 2_920;

#[test]
fn four_edge_queries_stay_within_their_allocation_budget() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let db = generate_chem(&ChemParams::sized(60), &mut rng);
    let queries = extract_queries(&db, 4, 100, &mut rng);
    let engine = Engine::new(TreePiIndex::build(db, TreePiParams::default()), 1);
    let before = allocation_count();
    let (results, _) = engine.query_batch(&queries, QueryOptions::default(), 7);
    let per_query = (allocation_count() - before) / queries.len() as u64;
    assert!(results.iter().all(|r| !r.matches.is_empty()));
    assert!(
        per_query <= CEILING_PER_QUERY,
        "{per_query} allocations per 4-edge query, ceiling {CEILING_PER_QUERY}"
    );
}
