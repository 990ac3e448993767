//! Moderate-scale end-to-end smoke test (run explicitly with
//! `cargo test --release --test scale_smoke -- --ignored`): builds the
//! paper-parameter index over a few hundred molecules and checks exactness
//! on a mixed query workload. Kept out of the default test run for time.

use datagen::{extract_queries, generate_chem, ChemParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{scan_support, TreePiIndex, TreePiParams};

#[test]
#[ignore = "minutes-scale; run with --ignored in release mode"]
fn paper_parameters_at_scale() {
    let db = generate_chem(&ChemParams::sized(400), &mut ChaCha8Rng::seed_from_u64(42));
    let idx = TreePiIndex::build(db.clone(), TreePiParams::default());
    assert!(idx.feature_count() > 100);
    let mut rng = ChaCha8Rng::seed_from_u64(43);
    let mut stats = Vec::new();
    for m in [4usize, 8, 12, 16, 20] {
        for q in extract_queries(&db, m, 20, &mut rng) {
            let r = idx.query(&q);
            assert_eq!(r.matches, scan_support(&idx, &q), "m={m}");
            stats.push(r.stats);
        }
    }
    assert_eq!(stats.len(), 100);
    // the funnel must be meaningfully tighter than the whole database
    let filtered: usize = stats.iter().map(|s| s.filtered as usize).sum();
    assert!(filtered * 2 < db.len() * stats.len(), "Σ|Pq| = {filtered}");
}
