//! The paper's running example, reconstructed (§3, Figures 1–3 and 6).
//!
//! Figure 1 shows a three-graph database over vertex labels {a, b} and edge
//! labels {1, 2, 3}; Figure 2 a query graph whose support set is {b, c}
//! (the second and third graphs). The figures are not machine-readable, so
//! this test rebuilds the *semantics*: same alphabets, a query supported by
//! exactly the last two graphs, 3-frequent trees as in Figure 3, and a
//! feature-tree partition as in Figure 6.

use graph_core::{graph_from, Graph};
use treepi::{feature_tree_partition, scan_support, PartitionRuns, TreePiIndex, TreePiParams};

const A: u32 = 0;
const B: u32 = 1;

/// Database in the spirit of Figure 1: graphs (a), (b), (c).
fn example_db() -> Vec<Graph> {
    vec![
        // (a): a larger mixed graph — does NOT contain the query
        graph_from(
            &[A, A, A, B, A, B],
            &[
                (0, 1, 1),
                (1, 2, 3),
                (2, 3, 1),
                (3, 4, 2),
                (4, 5, 3),
                (1, 4, 1),
            ],
        ),
        // (b): contains the query pattern
        graph_from(
            &[A, A, B, A, B],
            &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (1, 3, 3), (3, 4, 2)],
        ),
        // (c): (b) plus one extra pendant vertex — also contains the query
        graph_from(
            &[A, A, B, A, B, A],
            &[
                (0, 1, 1),
                (1, 2, 2),
                (2, 3, 1),
                (1, 3, 3),
                (3, 4, 2),
                (4, 5, 1),
            ],
        ),
    ]
}

/// Query in the spirit of Figure 2: supported by exactly {b, c}.
fn example_query() -> Graph {
    graph_from(&[A, B, A], &[(0, 1, 2), (1, 2, 1), (0, 2, 3)])
}

#[test]
fn query_support_is_b_and_c() {
    let db = example_db();
    let q = example_query();
    let idx = TreePiIndex::build(db, TreePiParams::quick());
    // ground truth first
    assert_eq!(
        scan_support(&idx, &q),
        vec![1, 2],
        "example must match Figure 2's support {{b, c}}"
    );
    assert_eq!(idx.query(&q).matches, vec![1, 2]);
}

#[test]
fn three_frequent_trees_exist() {
    // Figure 3 shows 3-frequent trees of the example database: trees
    // supported by all three graphs. At σ ≡ 3 the miner must find some.
    let db = example_db();
    let sigma = mining::SigmaFn {
        alpha: 0,
        beta: 2.0,
        eta: 3,
    };
    assert_eq!(sigma.threshold(1), Some(3));
    let (mined, _) = mining::mine_frequent_trees(&db, &sigma, 0.0);
    assert!(!mined.is_empty(), "no 3-frequent trees found");
    for m in &mined {
        assert!(m.support.len() >= 3);
    }
}

#[test]
fn feature_tree_partition_exists() {
    // Figure 6: the query graph admits a Feature-Tree-Partition. The query
    // is a triangle, so the minimum partition has ≥ 2 parts.
    let db = example_db();
    let q = example_query();
    let idx = TreePiIndex::build(db, TreePiParams::quick());
    match feature_tree_partition(&q, &idx) {
        PartitionRuns::Ok { min_partition, .. } => {
            assert!(min_partition.len() >= 2);
            let covered: usize = min_partition.iter().map(|p| p.q_edges.len()).sum();
            assert_eq!(covered, q.edge_count());
        }
        PartitionRuns::MissingFeature(_) => panic!("query edges all occur in the database"),
    }
}

#[test]
fn worst_case_partition_is_single_edges() {
    // §5.1: "in the worst case it can be partitioned into all one edge
    // trees, which are always selected to be feature trees". Force that
    // case with η = 1.
    let db = example_db();
    let q = example_query();
    let idx = TreePiIndex::build(
        db,
        TreePiParams {
            sigma: mining::SigmaFn {
                alpha: 1,
                beta: 1.0,
                eta: 1,
            },
            ..TreePiParams::quick()
        },
    );
    match feature_tree_partition(&q, &idx) {
        PartitionRuns::Ok { min_partition, .. } => {
            assert_eq!(min_partition.len(), q.edge_count());
            for p in &min_partition {
                assert_eq!(p.q_edges.len(), 1);
            }
        }
        PartitionRuns::MissingFeature(_) => panic!("single edges are always features"),
    }
    // and the query still answers exactly
    let r = idx.query(&q);
    assert_eq!(r.matches, vec![1, 2]);
}
