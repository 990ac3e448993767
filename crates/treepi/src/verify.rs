//! Verification from the stored centers (paper §5.3, Algorithm 3): one
//! search per candidate, anchored where the index says the query can be.
//!
//! The paper retrieves each part of `TP_q` by a search "rooted in the
//! stored center vertices" (§5.3.2) and joins the retrieved subtrees under
//! its Canonical Reconstruction Form (§5.3.1). We keep the anchor and drop
//! the join: one part of `TP_q` is the *root*, its center representatives
//! are pinned onto each of its stored positions in turn, and a VF2 search
//! ([`graph_core::PreparedPattern`]) extends the pin over every query vertex
//! — including vertices no part covers — admitting a host vertex only if it
//! is unused, signature-compatible ([`VertexSig::compatible`]: label,
//! degree, neighbour-pair mask) and joined by an equally labelled edge to
//! every already-placed neighbour. The first complete embedding answers
//! yes.
//!
//! This is exact. Any embedding `f` of `q` into the candidate restricts to
//! an embedding of the root part, which maps the part's center onto a
//! center of that feature in the graph — a stored position, because the
//! posting lists hold every one — with the part's center representatives
//! on the position's representatives (both orientations are tried for an
//! edge). Every feasibility test is a necessary condition, so the search
//! pinned there finds `f`, or another embedding first. The root is the
//! part with the fewest signature-compatible positions; a part with none
//! proves `q ⊄ g` before any search (`verify.center_sig_kills`).
//!
//! DESIGN.md (substitution 4) has why no CRF, join or distance oracle is
//! needed and what that costs.

use crate::index::TreePiIndex;
use crate::partition::Part;
use crate::sig::{self, VertexSig};
use graph_core::{Graph, MatchScratch, PreparedPattern, VertexId};
use std::ops::ControlFlow;

/// Caller-owned verification scratch, reused across every candidate a
/// seat verifies.
struct VerifyScratch<'q> {
    /// Candidates refused because a part had no signature-compatible
    /// stored center (`verify.center_sig_kills`).
    center_sig_kills: usize,
    /// Signatures of the query's vertices, computed once per seat.
    qsigs: Vec<VertexSig>,
    /// Per-part count of signature-compatible stored positions.
    counts: Vec<usize>,
    /// The query planned from part `i`'s first center representative,
    /// made the first time part `i` is the root.
    plans: Vec<Option<PreparedPattern<'q>>>,
    search: MatchScratch,
}

impl<'q> VerifyScratch<'q> {
    fn for_query(q: &'q Graph, parts: usize) -> Self {
        Self {
            center_sig_kills: 0,
            qsigs: sig::graph_sigs(q),
            counts: Vec::with_capacity(parts),
            plans: (0..parts).map(|_| None).collect(),
            search: MatchScratch::default(),
        }
    }
}

/// Is `q` subgraph isomorphic to graph `gid`? The anchored search of the
/// module docs, rooted at the most selective part of `parts`; a gate kill
/// is counted in the scratch.
fn verify_anchored<'q>(
    index: &TreePiIndex,
    q: &'q Graph,
    gid: u32,
    parts: &[Part],
    scratch: &mut VerifyScratch<'q>,
) -> bool {
    let g = &index.db()[gid as usize];
    let hsigs = index.vertex_sigs(gid);
    let VerifyScratch {
        center_sig_kills,
        qsigs,
        counts,
        plans,
        search,
    } = scratch;
    let compatible = |p: &Part, c| sig::center_compatible(qsigs, hsigs, &p.center_reps_in_q, c, g);

    // Each part's number of signature-compatible stored positions; a part
    // with none proves non-containment before the search starts.
    counts.clear();
    for p in parts {
        let n = index
            .center_positions_of(p.feature, gid)
            .filter(|&c| compatible(p, c))
            .count();
        if n == 0 {
            *center_sig_kills += 1;
            return false;
        }
        counts.push(n);
    }
    // The root: fewest compatible positions, ties in part order. Without
    // parts (an edgeless query) there is nothing to anchor at.
    let Some(root) = (0..parts.len()).min_by_key(|&i| counts[i]) else {
        return graph_core::is_subgraph_isomorphic(q, g);
    };
    let part = &parts[root];
    let reps = &part.center_reps_in_q;
    let plan = plans[root].get_or_insert_with(|| PreparedPattern::new(q, Some(reps[0])));
    let admits = |qv: VertexId, hv: VertexId| qsigs[qv.idx()].compatible(&hsigs[hv.idx()]);
    let mut found = |pins: &[_]| {
        plan.for_each_embedding_pinned(g, pins, search, admits, |_| ControlFlow::Break(()))
            .is_break()
    };
    for c in index.center_positions_of(part.feature, gid) {
        if !compatible(part, c) {
            continue;
        }
        let hit = match (reps.as_slice(), c.representatives(g).as_slice()) {
            (&[a], &[u]) => found(&[(a, u)]),
            (&[a, b], &[u, v]) => found(&[(a, u), (b, v)]) || found(&[(a, v), (b, u)]),
            // A vertex part on an edge position (or the reverse) cannot
            // come from a consistent index: the part and its feature are
            // one tree, so they share a center kind.
            _ => false,
        };
        if hit {
            return true;
        }
    }
    false
}

/// Verify every graph in `candidates`, returning the exact answer set:
/// [`verify_counted`] as one inline chunk.
pub fn verify_all(index: &TreePiIndex, q: &Graph, candidates: &[u32], parts: &[Part]) -> Vec<u32> {
    verify_counted(
        index,
        q,
        candidates,
        parts,
        &graph_core::par::Pool::new(1),
        1,
    )
    .0
}

/// The general verifier: candidates are chunked contiguously into up to
/// `threads` chunks mapped on `pool`, each with its own scratch, and chunk
/// results concatenate in chunk order. Returns the answers and the
/// `verify.center_sig_kills` count; every candidate is one `verify.tests`.
/// Both are identical for any `threads` and pool size, and nothing is
/// recorded: the caller puts them in its `QueryStats`.
pub(crate) fn verify_counted(
    index: &TreePiIndex,
    q: &Graph,
    candidates: &[u32],
    parts: &[Part],
    pool: &graph_core::par::Pool,
    threads: usize,
) -> (Vec<u32>, usize) {
    if candidates.is_empty() {
        return (Vec::new(), 0);
    }
    let chunk_size = candidates
        .len()
        .div_ceil(threads.clamp(1, candidates.len()));
    let chunks: Vec<&[u32]> = candidates.chunks(chunk_size).collect();
    let verified = pool.ordered_map(&chunks, |chunk| {
        let mut scratch = VerifyScratch::for_query(q, parts.len());
        let answers: Vec<u32> = chunk
            .iter()
            .copied()
            .filter(|&gid| verify_anchored(index, q, gid, parts, &mut scratch))
            .collect();
        (answers, scratch.center_sig_kills)
    });
    let kills = verified.iter().map(|(_, kills)| kills).sum();
    (verified.into_iter().flat_map(|(a, _)| a).collect(), kills)
}

/// [`verify_counted`] recording its counts into `shard`: `verify.tests`
/// (one per candidate) and `verify.center_sig_kills`, each when nonzero.
///
/// `_dq` (the query's center distances) is unused: the anchored search
/// needs no distance. It stays, like the shard, until ROADMAP item 1
/// deletes the ledger's replay, which calls this function by name.
#[allow(clippy::too_many_arguments)]
pub fn verify_all_pool_obs(
    index: &TreePiIndex,
    q: &Graph,
    candidates: &[u32],
    parts: &[Part],
    _dq: &[Vec<u32>],
    pool: &graph_core::par::Pool,
    threads: usize,
    shard: &obs::Shard,
) -> Vec<u32> {
    let (answers, kills) = verify_counted(index, q, candidates, parts, pool, threads);
    for (id, n) in [
        (obs::Counter::VERIFY_TESTS, candidates.len()),
        (obs::Counter::VERIFY_CENTER_SIG_KILLS, kills),
    ] {
        if n > 0 {
            shard.add(id, n as u64);
        }
    }
    answers
}

/// Brute-force oracle: scan the whole database with VF2 (what a system
/// without an index must do; also the ground truth in tests).
pub fn scan_support(index: &TreePiIndex, q: &Graph) -> Vec<u32> {
    index
        .db()
        .iter()
        .enumerate()
        .filter(|(gid, g)| index.is_active(*gid as u32) && graph_core::is_subgraph_isomorphic(q, g))
        .map(|(gid, _)| gid as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use crate::partition::{feature_tree_partition, PartitionRuns};
    use crate::prune::query_center_distances;
    use graph_core::graph_from;

    /// Algorithm 3 on one candidate.
    fn verify(index: &TreePiIndex, q: &Graph, gid: u32, parts: &[Part]) -> bool {
        verify_all(index, q, &[gid], parts) == [gid]
    }

    fn db() -> Vec<Graph> {
        vec![
            // triangle with tail
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            // path
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            // star
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            // 4-cycle
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ]
    }

    fn run_query(q: &Graph, idx: &TreePiIndex) -> Vec<u32> {
        match feature_tree_partition(q, idx) {
            PartitionRuns::MissingFeature(_) => Vec::new(),
            PartitionRuns::Ok {
                min_partition, sf, ..
            } => {
                let pq = crate::filter::filter(idx, &sf);
                let dq = query_center_distances(q, &min_partition);
                let pruned = crate::prune::center_prune_pool_obs(
                    idx,
                    q,
                    &pq,
                    &min_partition,
                    &dq,
                    &graph_core::par::Pool::new(1),
                    1,
                    &obs::Shard::disabled(),
                );
                verify_all(idx, q, &pruned, &min_partition)
            }
        }
    }

    #[test]
    fn verified_answers_match_brute_force() {
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 1], &[(0, 1, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]), // cyclic query
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[1, 0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),    // absent labels
            graph_from(&[0, 0, 1], &[(0, 1, 0)]), // an uncovered vertex
            graph_from(&[0, 0, 0, 1], &[(0, 1, 0), (2, 3, 0)]), // two components
        ];
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(run_query(q, &idx), scan_support(&idx, q), "query {qi}");
        }
    }

    #[test]
    fn cyclic_query_needs_multi_part_search() {
        // A cyclic query can never be a single feature tree; the search
        // anchored at one part must close the cycle the other parts cover.
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let PartitionRuns::Ok { min_partition, .. } = feature_tree_partition(&q, &idx) else {
            panic!()
        };
        assert!(min_partition.len() >= 2);
        assert!(verify(&idx, &q, 0, &min_partition));
        assert!(!verify(&idx, &q, 1, &min_partition));
        assert_eq!(verify_all(&idx, &q, &[0, 1], &min_partition), [0]);
        assert!(verify_all(&idx, &q, &[], &min_partition).is_empty());
    }

    #[test]
    fn injectivity_enforced_across_parts() {
        // Query: path of 3 zero-labeled vertices (needs 3 distinct hosts).
        // Graph 1 (path 0-0-1) contains only two 0-vertices.
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let q = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);
        assert_eq!(run_query(&q, &idx), scan_support(&idx, &q));
    }

    #[test]
    fn edge_centers_are_pinned_in_both_orientations() {
        // The 0-1 edge is bicentral with distinct ends, so its center
        // representatives fit a stored 0-1 edge one way round only; graphs
        // 0 and 1 store that edge in opposite orientations.
        let db = vec![
            graph_from(&[0, 1], &[(0, 1, 0)]),
            graph_from(&[1, 0], &[(0, 1, 0)]),
        ];
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let q = graph_from(&[0, 1], &[(0, 1, 0)]);
        let PartitionRuns::Ok { min_partition, .. } = feature_tree_partition(&q, &idx) else {
            panic!()
        };
        assert_eq!(min_partition[0].center_reps_in_q.len(), 2);
        assert_eq!(verify_all(&idx, &q, &[0, 1], &min_partition), [0, 1]);
    }
}
