//! Dynamic index maintenance (paper §7.1): insert and delete graphs
//! without rebuilding, then re-mine the features once churn gets heavy.
//!
//! ```sh
//! cargo run --release --example dynamic_maintenance
//! ```

use datagen::{extract_queries, generate_chem, ChemParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{scan_support, TreePiIndex, TreePiParams};

fn main() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let initial = generate_chem(&ChemParams::sized(80), &mut rng);
    let incoming = generate_chem(&ChemParams::sized(20), &mut rng);

    let mut index = TreePiIndex::build(initial.clone(), TreePiParams::default());
    println!(
        "initial index: {} graphs, {} features",
        index.active_count(),
        index.feature_count()
    );

    // Stream in new molecules: supports and center positions update in
    // place, no re-mining.
    for g in incoming {
        index.insert(g);
    }
    println!("after 20 inserts: {} graphs", index.active_count());

    // Retire some molecules.
    for gid in [0u32, 7, 13, 21, 34] {
        index.remove(gid);
    }
    println!("after 5 deletes: {} graphs", index.active_count());

    // Queries remain exact throughout (verified against a scan).
    let queries = extract_queries(&initial, 6, 10, &mut rng);
    for q in &queries {
        let got = index.query(q).matches;
        assert_eq!(got, scan_support(&index, q));
    }
    println!("10 queries after churn: all exact");

    // The paper: once ~a quarter of the database has changed, re-mine to
    // restore feature quality. Graph ids stay as they were.
    let index = index.remine_with_pool(&graph_core::par::Pool::new(2));
    println!(
        "after re-mine: {} graphs, {} features (ids kept)",
        index.active_count(),
        index.feature_count()
    );
}
