//! Randomized Feature-Tree-Partition of a query graph (paper §5.1).
//!
//! A Feature-Tree-Partition splits the query's edges into non-overlapping
//! subtrees that are all indexed features (Definitions 4–5). Finding the
//! *minimum* partition is NP-hard, so the paper runs a randomized procedure
//! `RP(q)` δ times, keeps the smallest partition found as `TP_q`
//! (verification input), and unions all parts across runs into the feature
//! subtree set `SF_q` (filtering input).
//!
//! Our `RP` grows parts directly: pick a random uncovered edge, then grow a
//! random subtree from it for as long as the grown tree remains an indexed
//! feature, emit the part, repeat. This produces exactly the objects the
//! paper's recursive splitting produces — a randomized feature-tree
//! partition whose worst case is all single-edge parts — with the same
//! termination guarantee (single-edge trees are always features, σ(1) = 1).

use crate::index::{FeatureId, TreePiIndex};
use graph_core::{EdgeId, Graph, VertexId};
use rand::Rng;
use smallvec::SmallVec;
use tree_core::{canonical_string, center, CanonString, Center, Tree};

/// One part of a Feature-Tree-Partition: a feature subtree of the query.
#[derive(Clone, Debug)]
pub struct Part {
    /// Query edge ids covered by this part.
    pub q_edges: Vec<EdgeId>,
    /// Query vertex behind each part-tree vertex: part-tree vertex `i`
    /// corresponds to query vertex `q_vertices[i]`.
    pub q_vertices: Vec<VertexId>,
    /// The part as a standalone tree (isomorphic to the covered subgraph).
    pub tree: Tree,
    /// The indexed feature this part matches.
    pub feature: FeatureId,
    /// Query vertices representing the part's center (one vertex, or the
    /// two endpoints of a center edge), used for center-distance math.
    pub center_reps_in_q: SmallVec<[VertexId; 2]>,
}

/// Outcome of a partition attempt.
#[derive(Clone, Debug)]
pub enum PartitionOutcome {
    /// A complete feature-tree partition.
    Partition(Vec<Part>),
    /// Some single edge of the query is not an indexed feature — no
    /// database graph contains that edge, so the query's support is empty.
    MissingFeature(CanonString),
}

/// Incrementally grown part state.
struct Growth {
    edges: Vec<EdgeId>,
    /// Query vertices in the part, in insertion order (= part tree ids).
    vertices: Vec<VertexId>,
}

impl Growth {
    fn tree_of(&self, q: &Graph) -> Tree {
        let mut b = graph_core::GraphBuilder::with_capacity(self.vertices.len(), self.edges.len());
        for &v in &self.vertices {
            b.add_vertex(q.vlabel(v));
        }
        let local = |v: VertexId| {
            VertexId(
                self.vertices
                    .iter()
                    .position(|&x| x == v)
                    .expect("part vertex") as u32,
            )
        };
        for &e in &self.edges {
            let edge = q.edge(e);
            b.add_edge(local(edge.u), local(edge.v), edge.label)
                .expect("part edges are simple");
        }
        Tree::from_graph(b.build()).expect("growth maintains the tree invariant")
    }
}

/// One randomized partition run, `RP(q)`.
///
/// `extra_features`, when provided, collects every *intermediate* feature
/// tree observed while growing parts — the "group of additional feature
/// subtrees of the query graph" that §5.1 says RP generates as a byproduct.
/// They cost nothing (each growth step already performed the directory
/// lookup) and sharpen the filter intersection.
pub fn random_partition<R: Rng>(q: &Graph, index: &TreePiIndex, rng: &mut R) -> PartitionOutcome {
    random_partition_collecting(q, index, rng, &mut Vec::new())
}

/// [`random_partition`] that also reports intermediate feature trees.
pub fn random_partition_collecting<R: Rng>(
    q: &Graph,
    index: &TreePiIndex,
    rng: &mut R,
    extra_features: &mut Vec<FeatureId>,
) -> PartitionOutcome {
    let m = q.edge_count();
    assert!(m > 0, "queries must have at least one edge");
    let mut covered = vec![false; m];
    let mut covered_count = 0usize;
    let mut parts: Vec<Part> = Vec::new();

    while covered_count < m {
        // Random uncovered seed edge.
        let uncovered: Vec<EdgeId> = q.edge_ids().filter(|e| !covered[e.idx()]).collect();
        let seed = uncovered[rng.gen_range(0..uncovered.len())];
        let sedge = q.edge(seed);
        let mut growth = Growth {
            edges: vec![seed],
            vertices: vec![sedge.u, sedge.v],
        };
        let mut tree = growth.tree_of(q);
        let mut canon = canonical_string(&tree);
        let Some(mut fid) = index.feature_by_canon(&canon) else {
            return PartitionOutcome::MissingFeature(canon);
        };
        extra_features.push(fid);

        // Grow while the grown tree stays an indexed feature.
        loop {
            // Acyclic, uncovered extension candidates adjacent to the part.
            let mut cands: Vec<(EdgeId, VertexId, VertexId)> = Vec::new(); // (edge, attach, new vertex)
            for &v in &growth.vertices {
                for &(w, e) in q.neighbors(v) {
                    if covered[e.idx()] || growth.edges.contains(&e) {
                        continue;
                    }
                    if growth.vertices.contains(&w) {
                        continue; // would close a cycle within the part
                    }
                    cands.push((e, v, w));
                }
            }
            if cands.is_empty() {
                break;
            }
            // Random order; accept the first extension that stays a feature.
            let mut accepted = false;
            while !cands.is_empty() {
                let i = rng.gen_range(0..cands.len());
                let (e, _attach, w) = cands.swap_remove(i);
                if growth.edges.contains(&e) || growth.vertices.contains(&w) {
                    continue;
                }
                growth.edges.push(e);
                growth.vertices.push(w);
                let t2 = growth.tree_of(q);
                let c2 = canonical_string(&t2);
                if let Some(f2) = index.feature_by_canon(&c2) {
                    tree = t2;
                    canon = c2;
                    fid = f2;
                    extra_features.push(f2);
                    accepted = true;
                    break;
                }
                growth.edges.pop();
                growth.vertices.pop();
            }
            if !accepted {
                break;
            }
        }

        for &e in &growth.edges {
            covered[e.idx()] = true;
        }
        covered_count += growth.edges.len();

        let center_reps_in_q: SmallVec<[VertexId; 2]> = match center(&tree) {
            Center::Vertex(v) => smallvec::smallvec![growth.vertices[v.idx()]],
            Center::Edge(e) => {
                let edge = tree.graph().edge(e);
                smallvec::smallvec![growth.vertices[edge.u.idx()], growth.vertices[edge.v.idx()]]
            }
        };
        let _ = canon;
        parts.push(Part {
            q_edges: growth.edges.clone(),
            q_vertices: growth.vertices.clone(),
            tree,
            feature: fid,
            center_reps_in_q,
        });
    }
    PartitionOutcome::Partition(parts)
}

/// δ partition runs (paper §5.1): returns the minimum partition `TP_q` and
/// the union feature set `SF_q`, or the missing feature that proves the
/// support is empty.
pub enum PartitionRuns {
    /// `(TP_q, SF_q)`.
    Ok {
        /// The smallest partition found across the δ runs.
        min_partition: Vec<Part>,
        /// All distinct features used by any run (the filter set).
        sf: Vec<FeatureId>,
    },
    /// Some query edge is not a feature: empty support, no verification
    /// needed.
    MissingFeature(CanonString),
}

/// Run `RP(q)` `delta` times. The filter set `SF_q` unions, across runs,
/// the final parts, every intermediate growth tree, and all single-edge
/// trees of `q` (§1: "we enumerate the frequent subtrees in q"; §5.1: RP
/// "can also generate a group of additional feature subtrees … at the same
/// time").
pub fn partition_runs<R: Rng>(
    q: &Graph,
    index: &TreePiIndex,
    delta: usize,
    rng: &mut R,
) -> PartitionRuns {
    partition_runs_with(q, index, delta, rng, true)
}

/// [`partition_runs`] with control over `SF_q` collection. Callers that
/// replace the filter set anyway (full feature enumeration) pass
/// `collect_sf = false` and get `sf: vec![]` back without the per-run
/// accumulation and the final sort/dedup. The RNG stream is identical
/// either way — collection never consumes randomness — so `TP_q` does not
/// depend on this flag.
pub fn partition_runs_with<R: Rng>(
    q: &Graph,
    index: &TreePiIndex,
    delta: usize,
    rng: &mut R,
    collect_sf: bool,
) -> PartitionRuns {
    let mut best: Option<Vec<Part>> = None;
    let mut sf: Vec<FeatureId> = Vec::new();
    // Single edges of q: every one must be a feature (σ(1) = 1), or the
    // support is provably empty. This early-exit check runs regardless of
    // `collect_sf`; only the bookkeeping is conditional.
    for e in q.edge_ids() {
        let edge = q.edge(e);
        let t = Tree::single_edge(q.vlabel(edge.u), edge.label, q.vlabel(edge.v));
        let c = canonical_string(&t);
        match index.feature_by_canon(&c) {
            Some(fid) => {
                if collect_sf {
                    sf.push(fid);
                }
            }
            None => return PartitionRuns::MissingFeature(c),
        }
    }
    let mut scratch: Vec<FeatureId> = Vec::new();
    for _ in 0..delta.max(1) {
        let acc = if collect_sf { &mut sf } else { &mut scratch };
        match random_partition_collecting(q, index, rng, acc) {
            PartitionOutcome::MissingFeature(c) => return PartitionRuns::MissingFeature(c),
            PartitionOutcome::Partition(parts) => {
                if best.as_ref().is_none_or(|b| parts.len() < b.len()) {
                    best = Some(parts);
                }
            }
        }
        scratch.clear();
    }
    if collect_sf {
        sf.sort_unstable();
        sf.dedup();
    }
    PartitionRuns::Ok {
        min_partition: best.expect("delta >= 1 run"),
        sf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use graph_core::graph_from;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    /// Check partition invariants: covers all edges exactly once, parts are
    /// trees matching their feature, centers map into q.
    fn check_partition(q: &Graph, idx: &TreePiIndex, parts: &[Part]) {
        let mut seen = vec![false; q.edge_count()];
        for p in parts {
            for &e in &p.q_edges {
                assert!(!seen[e.idx()], "edge covered twice");
                seen[e.idx()] = true;
            }
            assert_eq!(p.q_edges.len(), p.tree.edge_count());
            assert_eq!(p.q_vertices.len(), p.tree.vertex_count());
            // tree is isomorphic to the indexed feature
            let f = idx.feature(p.feature);
            assert_eq!(canonical_string(&p.tree), f.canon);
            // part-tree labels match the query labels
            for (i, &qv) in p.q_vertices.iter().enumerate() {
                assert_eq!(p.tree.graph().vlabel(VertexId(i as u32)), q.vlabel(qv));
            }
            for &r in &p.center_reps_in_q {
                assert!(r.idx() < q.vertex_count());
            }
        }
        assert!(seen.iter().all(|&s| s), "not all edges covered");
    }

    #[test]
    fn partition_covers_query() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..20 {
            match random_partition(&q, &idx, &mut rng) {
                PartitionOutcome::Partition(parts) => check_partition(&q, &idx, &parts),
                PartitionOutcome::MissingFeature(_) => panic!("query edges are all features"),
            }
        }
    }

    #[test]
    fn tree_query_can_be_single_part() {
        // Query = 2-edge path that is itself a feature: some run should
        // find the 1-part partition. (γ < 1 disables shrinking, which would
        // otherwise drop this redundant path from the feature set.)
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
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut best = usize::MAX;
        for _ in 0..20 {
            if let PartitionOutcome::Partition(p) = random_partition(&q, &idx, &mut rng) {
                best = best.min(p.len());
            }
        }
        assert_eq!(best, 1);
    }

    #[test]
    fn missing_feature_detected() {
        let idx = index();
        // label 9 never occurs in the database
        let q = graph_from(&[9, 9], &[(0, 1, 0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        assert!(matches!(
            random_partition(&q, &idx, &mut rng),
            PartitionOutcome::MissingFeature(_)
        ));
    }

    #[test]
    fn runs_produce_min_partition_and_sf() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        match partition_runs(&q, &idx, 10, &mut rng) {
            PartitionRuns::Ok { min_partition, sf } => {
                check_partition(&q, &idx, &min_partition);
                assert!(!sf.is_empty());
                // sf is sorted and deduped
                let mut s = sf.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s, sf);
                // every part's feature of the min partition is in sf
                for p in &min_partition {
                    assert!(sf.contains(&p.feature));
                }
            }
            PartitionRuns::MissingFeature(_) => panic!("unexpected missing feature"),
        }
    }

    #[test]
    fn single_edge_query() {
        let idx = index();
        let q = graph_from(&[0, 1], &[(0, 1, 0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        match random_partition(&q, &idx, &mut rng) {
            PartitionOutcome::Partition(parts) => {
                assert_eq!(parts.len(), 1);
                assert_eq!(parts[0].q_edges.len(), 1);
                // single edge is bicentral: two center reps
                assert_eq!(parts[0].center_reps_in_q.len(), 2);
            }
            _ => panic!(),
        }
    }
}
