//! Feature-Tree-Partition of a query graph (paper §5.1), as a deterministic
//! greedy cover.
//!
//! A Feature-Tree-Partition splits the query's edges into non-overlapping
//! subtrees that are all indexed features (Definitions 4–5). The paper
//! wants the *minimum* one, which is NP-hard, so it runs a randomized
//! procedure `RP(q)` δ times and keeps the smallest partition found as
//! `TP_q`.
//!
//! We take `TP_q` from the occurrences the guided walk ([`crate::walk`])
//! already found: largest first (most edges, ties by edge set), every
//! occurrence edge-disjoint from those already taken becomes a part. Single
//! edges are occurrences (σ(1) = 1), so the cover is always complete, and
//! it costs one pass over the occurrences. Verification pins one part
//! ([`crate::verify`]) and CDC pruning ([`crate::prune`]) constrains the
//! parts' centers; both are sound over *any* set of feature occurrences in
//! `q`, so neither needs a minimum, nor randomness (DESIGN.md, substitution
//! 8).

use crate::index::{FeatureId, TreePiIndex};
use crate::walk::{QueryFeatures, WalkCounts};
use graph_core::par::Pool;
use graph_core::{EdgeId, Graph, VertexId};
use rand::Rng;
use smallvec::SmallVec;
use tree_core::{canonical_string, CanonString, Center, Tree};

/// One part of a Feature-Tree-Partition: a feature subtree of the query.
#[derive(Clone, Debug)]
pub struct Part {
    /// Query edge ids covered by this part, ascending.
    pub q_edges: Vec<EdgeId>,
    /// The indexed feature this part matches.
    pub feature: FeatureId,
    /// Query vertices representing the part's center (one vertex, or the
    /// two endpoints of a center edge), used for center-distance math.
    pub center_reps_in_q: SmallVec<[VertexId; 2]>,
}

/// A query's partition `TP_q` and filter sets, or the missing feature that
/// proves the support is empty.
pub enum PartitionRuns {
    /// `TP_q` and, from the same walk, the two filter sets.
    Ok {
        /// `TP_q`, the greedy cover (named for the smallest of the paper's
        /// δ random partitions, which it replaces).
        min_partition: Vec<Part>,
        /// `TP_q`'s features and those of `q`'s single edges, ascending.
        sf: Vec<FeatureId>,
        /// Every feature occurring in `q`, ascending: the full `SF_q` the
        /// query pipeline filters on ([`crate::enumerate_query_features`]).
        full_sf: Vec<FeatureId>,
    },
    /// Some query edge is not a feature: empty support, no verification
    /// needed.
    MissingFeature(CanonString),
}

/// `TP_q` and the filter sets of `q`: one walk of `q`, then [`cover`]. The
/// partition-only set `sf` holds only the parts' features and those of
/// `q`'s single edges — weaker than the full `SF_q` the query pipeline
/// filters on, an ablation point; `full_sf` is that full `SF_q`.
pub fn feature_tree_partition(q: &Graph, index: &TreePiIndex) -> PartitionRuns {
    partition(q, index, true)
}

/// Kept for the ledger's replay until ROADMAP item 1:
/// [`feature_tree_partition`] with both filter sets left empty unless
/// `collect_sf`; `delta` and `rng` are ignored.
pub fn partition_runs_with<R: Rng>(
    q: &Graph,
    index: &TreePiIndex,
    _delta: usize,
    _rng: &mut R,
    collect_sf: bool,
) -> PartitionRuns {
    partition(q, index, collect_sf)
}

fn partition(q: &Graph, index: &TreePiIndex, collect_sf: bool) -> PartitionRuns {
    let counts = &mut WalkCounts::default();
    match QueryFeatures::walk(index, q, &Pool::new(1), 1, counts) {
        Ok(found) => {
            let min_partition = cover(q, &found);
            let (sf, full_sf) = if collect_sf {
                (partition_features(&found, &min_partition), found.features())
            } else {
                Default::default()
            };
            PartitionRuns::Ok {
                min_partition,
                sf,
                full_sf,
            }
        }
        Err(e) => PartitionRuns::MissingFeature(missing_feature(q, e)),
    }
}

/// Canonical string of edge `e` of `q`, which the index does not hold.
fn missing_feature(q: &Graph, e: EdgeId) -> CanonString {
    let edge = q.edge(e);
    canonical_string(&Tree::single_edge(
        q.vlabel(edge.u),
        edge.label,
        q.vlabel(edge.v),
    ))
}

/// `TP_q`: the occurrences `found` in `q` taken largest first, each one
/// edge-disjoint from those taken before it. Every edge of `q` ends up in
/// exactly one part, because every single edge is an occurrence.
pub(crate) fn cover(q: &Graph, found: &QueryFeatures) -> Vec<Part> {
    assert!(q.edge_count() > 0, "queries must have at least one edge");
    let mut covered = vec![false; q.edge_count()];
    let mut uncovered = q.edge_count();
    let mut parts = Vec::new();
    for (edges, feature, center) in found.hits() {
        if uncovered == 0 {
            break;
        }
        if edges.iter().any(|e| covered[e.idx()]) {
            continue;
        }
        for e in edges {
            covered[e.idx()] = true;
        }
        uncovered -= edges.len();
        let center_reps_in_q = match center {
            Center::Vertex(v) => smallvec::smallvec![v],
            Center::Edge(e) => smallvec::smallvec![q.edge(e).u, q.edge(e).v],
        };
        parts.push(Part {
            q_edges: edges.to_vec(),
            feature,
            center_reps_in_q,
        });
    }
    parts
}

/// The partition-only filter set: the features of `parts` and of every
/// single edge in `found`, ascending.
pub(crate) fn partition_features(found: &QueryFeatures, parts: &[Part]) -> Vec<FeatureId> {
    let edges = found.hits().filter(|h| h.0.len() == 1).map(|h| h.1);
    let mut sf: Vec<FeatureId> = parts.iter().map(|p| p.feature).chain(edges).collect();
    sf.sort_unstable();
    sf.dedup();
    sf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use graph_core::graph_from;

    fn index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    /// Check partition invariants: covers all edges exactly once, each
    /// part's subgraph of q is a tree that is its feature, and its center,
    /// mapped into q, is the part's center representatives.
    fn check_partition(q: &Graph, idx: &TreePiIndex, parts: &[Part]) {
        let mut seen = vec![false; q.edge_count()];
        for p in parts {
            for &e in &p.q_edges {
                assert!(!seen[e.idx()], "edge covered twice");
                seen[e.idx()] = true;
            }
            let sub = graph_core::edge_subgraph(q, &p.q_edges);
            let tree = Tree::from_graph(sub.graph.clone()).expect("a part is a tree");
            assert_eq!(canonical_string(&tree), idx.feature(p.feature).canon);
            let mut reps: Vec<VertexId> = match tree_core::center(&tree) {
                Center::Vertex(v) => vec![sub.host_vertex(v)],
                Center::Edge(e) => {
                    let edge = q.edge(sub.host_edge(e));
                    vec![edge.u, edge.v]
                }
            };
            let mut want = p.center_reps_in_q.to_vec();
            reps.sort_unstable();
            want.sort_unstable();
            assert_eq!(reps, want, "center of part {:?}", p.q_edges);
        }
        assert!(seen.iter().all(|&s| s), "not all edges covered");
    }

    /// `TP_q`; panics on a missing feature.
    fn min_partition(q: &Graph, idx: &TreePiIndex) -> Vec<Part> {
        match feature_tree_partition(q, idx) {
            PartitionRuns::Ok { min_partition, .. } => min_partition,
            PartitionRuns::MissingFeature(_) => panic!("query edges are all features"),
        }
    }

    #[test]
    fn partition_covers_query() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        check_partition(&q, &idx, &min_partition(&q, &idx));
    }

    #[test]
    fn tree_query_can_be_single_part() {
        // Query = 2-edge path that is itself a feature: the cover takes it
        // whole. (γ < 1 disables shrinking, which would otherwise drop this
        // redundant path from the feature set.)
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ];
        let idx = TreePiIndex::build(
            db,
            crate::params::TreePiParams {
                gamma: 0.5,
                ..crate::params::TreePiParams::quick()
            },
        );
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        assert_eq!(min_partition(&q, &idx).len(), 1);
    }

    /// The largest occurrence goes first even where a smaller one has the
    /// lower edge ids, and an occurrence overlapping one already taken is
    /// passed over for smaller ones.
    #[test]
    fn largest_occurrence_is_taken_first() {
        let db = vec![
            graph_from(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
            graph_from(&[4, 5, 6], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[5, 6, 7], &[(0, 1, 0), (1, 2, 0)]),
        ];
        let idx = TreePiIndex::build(
            db,
            TreePiParams {
                gamma: 0.5,
                ..TreePiParams::quick()
            },
        );
        // Edges 0-1: the 2-path 0-1-2. Edges 2-4: the 3-path 0-1-2-3, stored
        // whole. Edges 5-7: the path 4-5-6-7, stored as no more than its
        // two overlapping 2-paths.
        let q = graph_from(
            &[0, 1, 2, 0, 1, 2, 3, 4, 5, 6, 7],
            &[
                (0, 1, 0),
                (1, 2, 0),
                (3, 4, 0),
                (4, 5, 0),
                (5, 6, 0),
                (7, 8, 0),
                (8, 9, 0),
                (9, 10, 0),
            ],
        );
        let parts = min_partition(&q, &idx);
        check_partition(&q, &idx, &parts);
        let edges: Vec<Vec<u32>> = parts
            .iter()
            .map(|p| p.q_edges.iter().map(|e| e.0).collect())
            .collect();
        assert_eq!(edges, [vec![2, 3, 4], vec![0, 1], vec![5, 6], vec![7]]);
    }

    #[test]
    fn missing_feature_detected() {
        let idx = index();
        // label 9 never occurs in the database
        let q = graph_from(&[0, 0, 9, 9], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        let PartitionRuns::MissingFeature(c) = feature_tree_partition(&q, &idx) else {
            panic!("an edge of the query is in no database graph");
        };
        let missing = Tree::single_edge(
            q.vlabel(VertexId(1)),
            graph_core::ELabel(0),
            q.vlabel(VertexId(2)),
        );
        assert_eq!(c, canonical_string(&missing), "the first edge not indexed");
    }

    #[test]
    fn partition_and_sf() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        match feature_tree_partition(&q, &idx) {
            PartitionRuns::Ok {
                min_partition,
                sf,
                full_sf,
            } => {
                check_partition(&q, &idx, &min_partition);
                // the full SF_q holds the partition-only set
                assert!(sf.iter().all(|f| full_sf.binary_search(f).is_ok()));
                assert!(!sf.is_empty());
                // sf is sorted and deduped
                let mut s = sf.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s, sf);
                // every part's feature is in sf
                for p in &min_partition {
                    assert!(sf.contains(&p.feature));
                }
                // and so is every single edge of q, in a part of its own or not
                for e in q.edges() {
                    let t = Tree::single_edge(q.vlabel(e.u), e.label, q.vlabel(e.v));
                    let fid = idx.feature_by_canon(&canonical_string(&t));
                    assert!(sf.contains(&fid.expect("indexed")));
                }
            }
            PartitionRuns::MissingFeature(_) => panic!("unexpected missing feature"),
        }
        // The ledger's entry point: the same partition, no filter set.
        let PartitionRuns::Ok {
            min_partition: parts,
            sf,
            full_sf,
        } = partition_runs_with(&q, &idx, 7, &mut rand::thread_rng(), false)
        else {
            panic!("unexpected missing feature");
        };
        assert!(sf.is_empty() && full_sf.is_empty());
        let edges = |ps: &[Part]| ps.iter().map(|p| p.q_edges.clone()).collect::<Vec<_>>();
        assert_eq!(edges(&parts), edges(&min_partition(&q, &idx)));
    }

    #[test]
    fn single_edge_query() {
        let idx = index();
        let q = graph_from(&[0, 1], &[(0, 1, 0)]);
        let parts = min_partition(&q, &idx);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].q_edges.len(), 1);
        // single edge is bicentral: two center reps
        assert_eq!(parts[0].center_reps_in_q.len(), 2);
    }
}
