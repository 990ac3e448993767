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
//!
//! "Remains an indexed feature" is a table lookup: [`crate::walk`] finds
//! every feature occurrence in the query once, and all δ runs ask that
//! table by edge set instead of canonicalising each growth step.

use crate::index::{FeatureId, TreePiIndex};
use crate::walk::QueryFeatures;
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

impl Part {
    /// The part of `q` over `edges`, spanning `vertices` — both in the
    /// order the part was grown, which is the part tree's numbering.
    fn new(q: &Graph, edges: &[EdgeId], vertices: &[VertexId], feature: FeatureId) -> Self {
        let mut b = graph_core::GraphBuilder::with_capacity(vertices.len(), edges.len());
        for &v in vertices {
            b.add_vertex(q.vlabel(v));
        }
        let local = |v: VertexId| {
            let i = vertices.iter().position(|&x| x == v).expect("part vertex");
            VertexId(i as u32)
        };
        for &e in edges {
            let edge = q.edge(e);
            b.add_edge(local(edge.u), local(edge.v), edge.label)
                .expect("part edges are simple");
        }
        let tree = Tree::from_graph(b.build()).expect("growth maintains the tree invariant");
        let center_reps_in_q = match center(&tree) {
            Center::Vertex(v) => smallvec::smallvec![vertices[v.idx()]],
            Center::Edge(e) => {
                let edge = tree.graph().edge(e);
                smallvec::smallvec![vertices[edge.u.idx()], vertices[edge.v.idx()]]
            }
        };
        Self {
            q_edges: edges.to_vec(),
            q_vertices: vertices.to_vec(),
            tree,
            feature,
            center_reps_in_q,
        }
    }
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
///
/// Walks `q` for its feature occurrences first; the pipeline, which needs
/// them for the filter too, walks once and calls [`runs_over`] itself.
pub fn partition_runs_with<R: Rng>(
    q: &Graph,
    index: &TreePiIndex,
    delta: usize,
    rng: &mut R,
    collect_sf: bool,
) -> PartitionRuns {
    match QueryFeatures::walk(index, q) {
        Ok(found) => {
            let (min_partition, sf) = runs_over(q, &found, delta, rng, collect_sf);
            PartitionRuns::Ok { min_partition, sf }
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

/// The parts of one run, end to end: part `i` covers `edges` and spans
/// `vertices` up to its two `ends`, from where part `i - 1` stopped.
#[derive(Default)]
struct Run {
    edges: Vec<EdgeId>,
    vertices: Vec<VertexId>,
    /// `(end in edges, end in vertices, feature)` per part.
    ends: Vec<(usize, usize, FeatureId)>,
}

/// The δ runs over the feature occurrences `found` in `q`: `(TP_q, SF_q)`,
/// the latter empty unless `collect_sf`.
///
/// One run of `RP`: pick a random uncovered edge, then grow a random subtree
/// from it for as long as the grown tree — its edge set, asked of `found` —
/// remains an indexed feature, emit the part, repeat. Every growth step is
/// one more feature subtree of the query ("a group of additional feature
/// subtrees", §5.1) and goes into `SF_q`. Runs are compared as edge and
/// vertex lists; only the winner's parts are built.
pub(crate) fn runs_over<R: Rng>(
    q: &Graph,
    found: &QueryFeatures,
    delta: usize,
    rng: &mut R,
    collect_sf: bool,
) -> (Vec<Part>, Vec<FeatureId>) {
    let m = q.edge_count();
    assert!(m > 0, "queries must have at least one edge");
    let edge_feature = |e: EdgeId| found.get(&[e]).expect("every edge of q is a feature");
    // Single edges of q are feature subtrees of it whatever the runs pick.
    let mut sf: Vec<FeatureId> = Vec::new();
    if collect_sf {
        sf.extend(q.edge_ids().map(edge_feature));
    }
    let (mut run, mut best) = (Run::default(), Run::default());
    let mut covered = vec![false; m];
    let mut uncovered: Vec<EdgeId> = Vec::with_capacity(m);
    let mut in_part = vec![false; q.vertex_count()];
    // The growing part's edges, ascending: what `found` is asked.
    let mut key: Vec<EdgeId> = Vec::new();
    // Acyclic, uncovered extensions of the growing part: (edge, new vertex).
    let mut cands: Vec<(EdgeId, VertexId)> = Vec::new();

    for _ in 0..delta.max(1) {
        covered.fill(false);
        uncovered.clear();
        uncovered.extend(q.edge_ids());
        run.edges.clear();
        run.vertices.clear();
        run.ends.clear();
        while !uncovered.is_empty() {
            let (e_start, v_start) = (run.edges.len(), run.vertices.len());
            let seed = uncovered[rng.gen_range(0..uncovered.len())];
            let sedge = q.edge(seed);
            run.edges.push(seed);
            run.vertices.extend([sedge.u, sedge.v]);
            (in_part[sedge.u.idx()], in_part[sedge.v.idx()]) = (true, true);
            key.clear();
            key.push(seed);
            let mut fid = edge_feature(seed);
            // Grow while the grown tree stays an indexed feature.
            loop {
                cands.clear();
                for &v in &run.vertices[v_start..] {
                    for &(w, e) in q.neighbors(v) {
                        // A vertex already in the part means the part's own
                        // edge, or one that would close a cycle within it.
                        if !covered[e.idx()] && !in_part[w.idx()] {
                            cands.push((e, w));
                        }
                    }
                }
                // Random order; accept the first extension that stays a feature.
                let mut accepted = false;
                while !cands.is_empty() {
                    let (e, w) = cands.swap_remove(rng.gen_range(0..cands.len()));
                    let at = key.binary_search(&e).expect_err("not in the part");
                    key.insert(at, e);
                    if let Some(grown) = found.get(&key) {
                        fid = grown;
                        run.edges.push(e);
                        run.vertices.push(w);
                        in_part[w.idx()] = true;
                        if collect_sf {
                            sf.push(grown);
                        }
                        accepted = true;
                        break;
                    }
                    key.remove(at);
                }
                if !accepted {
                    break;
                }
            }
            for &e in &run.edges[e_start..] {
                covered[e.idx()] = true;
            }
            for &v in &run.vertices[v_start..] {
                in_part[v.idx()] = false;
            }
            uncovered.retain(|e| !covered[e.idx()]);
            run.ends.push((run.edges.len(), run.vertices.len(), fid));
        }
        if best.ends.is_empty() || run.ends.len() < best.ends.len() {
            std::mem::swap(&mut run, &mut best);
        }
    }
    if collect_sf {
        sf.sort_unstable();
        sf.dedup();
    }
    let (mut e_start, mut v_start) = (0, 0);
    let parts = best.ends.iter().map(|&(e_end, v_end, fid)| {
        let edges = &best.edges[std::mem::replace(&mut e_start, e_end)..e_end];
        let vertices = &best.vertices[std::mem::replace(&mut v_start, v_end)..v_end];
        Part::new(q, edges, vertices, fid)
    });
    (parts.collect(), sf)
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

    /// The minimum partition over `delta` runs; panics on a missing feature.
    fn min_partition(q: &Graph, idx: &TreePiIndex, delta: usize, seed: u64) -> Vec<Part> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match partition_runs(q, idx, delta, &mut rng) {
            PartitionRuns::Ok { min_partition, .. } => min_partition,
            PartitionRuns::MissingFeature(_) => panic!("query edges are all features"),
        }
    }

    #[test]
    fn partition_covers_query() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        for seed in 0..20 {
            check_partition(&q, &idx, &min_partition(&q, &idx, 1, seed));
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
        assert_eq!(min_partition(&q, &idx, 20, 2).len(), 1);
    }

    #[test]
    fn missing_feature_detected() {
        let idx = index();
        // label 9 never occurs in the database
        let q = graph_from(&[0, 0, 9, 9], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let PartitionRuns::MissingFeature(c) = partition_runs(&q, &idx, 4, &mut rng) else {
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
                // and so is every single edge of q, seed of a part or not
                for e in q.edges() {
                    let t = Tree::single_edge(q.vlabel(e.u), e.label, q.vlabel(e.v));
                    let fid = idx.feature_by_canon(&canonical_string(&t));
                    assert!(sf.contains(&fid.expect("indexed")));
                }
            }
            PartitionRuns::MissingFeature(_) => panic!("unexpected missing feature"),
        }
    }

    #[test]
    fn single_edge_query() {
        let idx = index();
        let q = graph_from(&[0, 1], &[(0, 1, 0)]);
        let parts = min_partition(&q, &idx, 1, 5);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].q_edges.len(), 1);
        // single edge is bicentral: two center reps
        assert_eq!(parts[0].center_reps_in_q.len(), 2);
    }
}
