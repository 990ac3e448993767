//! Directed containment search (paper §7.2): index a database of directed
//! graphs — think metabolic pathways or citation motifs — and query with
//! direction-sensitive patterns.
//!
//! ```sh
//! cargo run --release --example directed_search
//! ```

use graph_core::digraph::{digraph_from, DiGraph};
use treepi::{DirectedTreePiIndex, TreePiParams};

fn main() {
    // A toy pathway database: labels are enzyme classes, arcs are
    // "catalyzes into" relations.
    let db: Vec<DiGraph> = vec![
        // linear pathway A→B→C→D
        digraph_from(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
        // branching: A→B, A→C, C→D
        digraph_from(&[0, 1, 2, 3], &[(0, 1, 0), (0, 2, 0), (2, 3, 0)]),
        // feedback loop: A→B→C→A
        digraph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]),
        // reversed chain D→C→B→A
        digraph_from(&[0, 1, 2, 3], &[(3, 2, 0), (2, 1, 0), (1, 0, 0)]),
    ];

    let index = DirectedTreePiIndex::build(db.clone(), TreePiParams::quick());
    println!(
        "indexed {} directed graphs ({} encoded features)",
        index.active_count(),
        index.inner().feature_count()
    );

    let cases = vec![
        ("A→B (forward arc)", digraph_from(&[0, 1], &[(0, 1, 0)])),
        ("B→A (reverse arc)", digraph_from(&[0, 1], &[(1, 0, 0)])),
        (
            "A→B→C chain",
            digraph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 0)]),
        ),
        ("C→A closing arc", digraph_from(&[0, 2], &[(1, 0, 0)])),
    ];
    for (name, q) in cases {
        let r = index.query(&q);
        // cross-check against the directed brute-force oracle
        let truth: Vec<u32> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_sub_digraph_isomorphic(&q, g))
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(r.matches, truth);
        println!("{name:22} -> graphs {:?}", r.matches);
    }
    println!("all directed answers verified against the directed oracle");
}
