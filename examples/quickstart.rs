//! Quickstart: build a TreePi index over a toy molecule database and run a
//! containment query.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use graph_core::graph_from;
use treepi::{TreePiIndex, TreePiParams};

fn main() {
    // A tiny database of labeled graphs (vertex labels, then
    // (u, v, edge label) triples). Think of labels as atom/bond types.
    let db = vec![
        // ethanol-ish chain: C-C-O
        graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
        // ring with a tail
        graph_from(&[0, 0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 0), (2, 3, 0)]),
        // star
        graph_from(&[0, 1, 1, 2], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
    ];

    // Build the index: mines frequent subtrees, shrinks them, and stores
    // support sets plus center positions (paper §4).
    let index = TreePiIndex::build(db, TreePiParams::default());
    println!(
        "index built: {} feature trees over {} graphs",
        index.feature_count(),
        index.active_count()
    );

    // Query: which graphs contain the path C-C-O? (graph 0 directly, and
    // graph 1 via its tail off the ring)
    let query = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
    let result = index.query(&query);

    println!("query answered: graphs {:?}", result.matches);
    println!(
        "pipeline: partition into {} parts, {} candidates after filter \
         and searched, {} verified",
        result.stats.partition_size, result.stats.filtered, result.stats.answers
    );
    assert_eq!(result.matches, vec![0, 1]);
}
