//! Pruning by Center Distance Constraints (paper §5.2.2, Algorithm 2).
//!
//! If `q ⊆ g` via embedding `f`, then the images under `f` of the centers
//! of `q`'s partitioned feature subtrees are stored center positions in
//! `g`, and because an embedding maps paths to walks,
//! `d_g(f(x), f(y)) ≤ d_q(x, y)` for every vertex pair. A candidate graph
//! therefore survives only if *some* assignment of stored center positions
//! to the partition's parts satisfies every pairwise distance constraint.
//! (The constraint direction matches the rationale in the paper's prose —
//! its formal statement has the inequality typo'd the other way around.)
//!
//! Distances between centers (which may be edges) are measured as the
//! minimum over representative endpoint pairs, identically in `q` and `g`,
//! preserving the soundness argument above.
//!
//! Candidate center positions are additionally gated by the per-vertex
//! neighborhood signatures ([`crate::sig`]): an embedding maps each part's
//! center representatives onto the stored position's representatives, so a
//! position that is not signature-compatible with them can never be part
//! of a satisfying assignment. The gate shrinks the backtracking search
//! and kills candidates whose every position for some part is
//! incompatible — both sound, for the same reason the distance constraint
//! is.
//!
//! The query pipeline does not run this stage: verification rejects every
//! candidate it would, for less than the stage costs (DESIGN.md,
//! substitution 7). It stays public for two callers that combine the stage
//! functions themselves: `crates/experiments`, whose Figures 10–11, γ
//! sweep, feature-class table and `ablate` report the paper's `|P'_q|`
//! with it, and the ledger's replay (until ROADMAP item 1).

use crate::index::TreePiIndex;
use crate::partition::Part;
use crate::sig::{self, VertexSig};
use graph_core::{bfs_distances, DistanceOracle, Graph, VertexId};
use rustc_hash::FxHashMap;
use tree_core::CenterPos;

/// Pairwise center distances of the partition's parts inside the query.
/// `dq[i][j]` = min distance between a center representative of part `i`
/// and one of part `j` (`u32::MAX` if disconnected).
pub fn query_center_distances(q: &Graph, parts: &[Part]) -> Vec<Vec<u32>> {
    // BFS once per distinct representative vertex.
    let mut rows: FxHashMap<VertexId, Vec<u32>> = FxHashMap::default();
    for p in parts {
        for &r in &p.center_reps_in_q {
            rows.entry(r).or_insert_with(|| bfs_distances(q, r));
        }
    }
    let n = parts.len();
    let mut dq = vec![vec![0u32; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let mut best = u32::MAX;
            for &a in &parts[i].center_reps_in_q {
                let row = &rows[&a];
                for &b in &parts[j].center_reps_in_q {
                    best = best.min(row[b.idx()]);
                }
            }
            dq[i][j] = best;
            dq[j][i] = best;
        }
    }
    dq
}

/// Distance between two center positions in `g` (min over representatives,
/// as [`query_center_distances`] measures them in the query).
fn pos_distance(g: &Graph, oracle: &mut DistanceOracle<'_>, a: CenterPos, b: CenterPos) -> u32 {
    let ra = a.representatives(g);
    let rb = b.representatives(g);
    let mut best = u32::MAX;
    for &x in &ra {
        for &y in &rb {
            best = best.min(oracle.dist(x, y));
        }
    }
    best
}

/// Chunk-local CDC state, reused across every candidate of a chunk: one
/// distance oracle [`DistanceOracle::reset`] per graph, each part's
/// signature-compatible positions collected once per candidate, and the
/// chunk's counts.
#[derive(Default)]
struct CdcScratch<'a> {
    /// Candidates refused for a part without a compatible stored center
    /// (`prune.center_sig_kills`).
    center_sig_kills: u64,
    /// BFS runs the distance oracle performed (`graph.bfs`).
    bfs: u64,
    oracle: Option<DistanceOracle<'a>>,
    /// Compatible positions of every part, back to back; part `i`'s are
    /// `positions[ends[i - 1]..ends[i]]`.
    positions: Vec<CenterPos>,
    ends: Vec<usize>,
    order: Vec<usize>,
    assigned: Vec<(usize, CenterPos)>,
}

/// Whether graph `gid` admits an assignment of stored center positions to
/// the parts that satisfies all Center Distance Constraints (Algorithm 2's
/// per-graph test), with candidate positions signature-gated against the
/// query's vertex signatures `qsigs`. Counts its signature kill and the
/// BFS runs its distance oracle performed in the scratch. Both counts
/// depend only on the candidate and the partition, never on which worker
/// runs the test, so batch totals stay thread-count invariant.
fn satisfies_cdc<'a>(
    index: &'a TreePiIndex,
    qsigs: &[VertexSig],
    gid: u32,
    parts: &[Part],
    dq: &[Vec<u32>],
    scratch: &mut CdcScratch<'a>,
) -> bool {
    let g = &index.db()[gid as usize];
    let hsigs = index.vertex_sigs(gid);
    let CdcScratch {
        center_sig_kills,
        bfs,
        oracle,
        positions,
        ends,
        order,
        assigned,
    } = scratch;
    // Each part's signature-compatible positions, collected once; fail fast
    // when a part has none (no stored position at all, or none its center
    // representatives are compatible with).
    positions.clear();
    ends.clear();
    for p in parts {
        let start = positions.len();
        positions.extend(
            index
                .center_positions_of(p.feature, gid)
                .filter(|&cp| sig::center_compatible(qsigs, hsigs, &p.center_reps_in_q, cp, g)),
        );
        if positions.len() == start {
            *center_sig_kills += 1;
            return false;
        }
        ends.push(positions.len());
    }
    let of_part = |i: usize| {
        let lo = if i == 0 { 0 } else { ends[i - 1] };
        &positions[lo..ends[i]]
    };
    // Assign most-constrained parts first: fewest compatible positions, the
    // actual branching factor of the search below (ties in part order).
    order.clear();
    order.extend(0..parts.len());
    order.sort_by_key(|&i| of_part(i).len());

    let oracle = oracle.get_or_insert_with(|| DistanceOracle::new(g));
    oracle.reset(g);
    assigned.clear();

    fn backtrack<'p>(
        order: &[usize],
        k: usize,
        of_part: &dyn Fn(usize) -> &'p [CenterPos],
        dq: &[Vec<u32>],
        g: &Graph,
        oracle: &mut DistanceOracle,
        assigned: &mut Vec<(usize, CenterPos)>,
    ) -> bool {
        if k == order.len() {
            return true;
        }
        let part_i = order[k];
        'cand: for &c in of_part(part_i) {
            for &(part_j, cj) in assigned.iter() {
                let limit = dq[part_i][part_j];
                // BFS from the assigned center: its row is shared by every
                // candidate center probed at this level.
                if limit != u32::MAX && pos_distance(g, oracle, cj, c) > limit {
                    continue 'cand;
                }
            }
            assigned.push((part_i, c));
            if backtrack(order, k + 1, of_part, dq, g, oracle, assigned) {
                return true;
            }
            assigned.pop();
        }
        false
    }

    let ok = backtrack(order, 0, &of_part, dq, g, oracle, assigned);
    *bfs += oracle.bfs_runs();
    ok
}

/// Algorithm 2: reduce the filtered set `P_q` to `P'_q`, split into up to
/// `threads` chunks mapped on `pool`. Each candidate's CDC test is
/// independent (every chunk owns its scratch and distance oracle), so the
/// set is chunked contiguously and the per-chunk results concatenated in
/// chunk order; the chunks' counts are summed and recorded into `shard`:
/// `prune.cdc_tests` (one per candidate), `prune.center_sig_kills` when
/// nonzero, and `graph.bfs` when a candidate reached the distance search.
/// The output and every counter are therefore identical for any `threads`
/// and pool size.
#[allow(clippy::too_many_arguments)]
pub fn center_prune_pool_obs(
    index: &TreePiIndex,
    q: &Graph,
    pq: &[u32],
    parts: &[Part],
    dq: &[Vec<u32>],
    pool: &graph_core::par::Pool,
    threads: usize,
    shard: &obs::Shard,
) -> Vec<u32> {
    if pq.is_empty() {
        return Vec::new();
    }
    // Query signatures are computed once and shared read-only by every
    // seat — they depend only on q.
    let qsigs = sig::graph_sigs(q);
    let chunk_size = pq.len().div_ceil(threads.clamp(1, pq.len()));
    let chunks: Vec<&[u32]> = pq.chunks(chunk_size).collect();
    let pruned = pool.ordered_map(&chunks, |chunk| {
        let mut scratch = CdcScratch::default();
        let kept: Vec<u32> = chunk
            .iter()
            .copied()
            .filter(|&gid| satisfies_cdc(index, &qsigs, gid, parts, dq, &mut scratch))
            .collect();
        (kept, scratch.center_sig_kills, scratch.bfs)
    });
    let kills: u64 = pruned.iter().map(|c| c.1).sum();
    shard.add(obs::Counter::PRUNE_CDC_TESTS, pq.len() as u64);
    if kills > 0 {
        shard.add(obs::Counter::PRUNE_CENTER_SIG_KILLS, kills);
    }
    if kills < pq.len() as u64 {
        shard.add(obs::Counter::GRAPH_BFS, pruned.iter().map(|c| c.2).sum());
    }
    pruned.into_iter().flat_map(|c| c.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use crate::partition::{feature_tree_partition, PartitionRuns};
    use graph_core::graph_from;

    /// Algorithm 2 on one inline chunk, metrics disabled.
    fn prune(
        idx: &TreePiIndex,
        q: &Graph,
        pq: &[u32],
        parts: &[Part],
        dq: &[Vec<u32>],
    ) -> Vec<u32> {
        let (pool, off) = (graph_core::par::Pool::new(1), obs::Shard::disabled());
        center_prune_pool_obs(idx, q, pq, parts, dq, &pool, 1, &off)
    }

    /// Figure 7's scenario in miniature: the query is two labeled edges at
    /// distance 1; one database graph places them adjacently, the other
    /// far apart. Filtering keeps both; CDC pruning must drop the far one.
    #[test]
    fn cdc_drops_distance_violators() {
        let near = graph_from(&[5, 0, 6, 0], &[(0, 1, 1), (1, 2, 2), (2, 3, 0)]);
        // same two feature edges, separated by a 4-hop path
        let far = graph_from(
            &[5, 0, 0, 0, 0, 0, 6],
            &[
                (0, 1, 1),
                (1, 2, 0),
                (2, 3, 0),
                (3, 4, 0),
                (4, 5, 0),
                (5, 6, 2),
            ],
        );
        let q = graph_from(&[5, 0, 6], &[(0, 1, 1), (1, 2, 2)]);
        let db = vec![near.clone(), far.clone()];
        let idx = TreePiIndex::build(
            db,
            TreePiParams {
                sigma: mining::SigmaFn {
                    alpha: 1,
                    beta: 10.0,
                    eta: 1,
                },
                ..TreePiParams::quick()
            },
        );
        // With η = 1 only single-edge features exist, so every partition
        // consists of the two query edges.
        let PartitionRuns::Ok {
            min_partition, sf, ..
        } = feature_tree_partition(&q, &idx)
        else {
            panic!("all query edges are features");
        };
        assert_eq!(min_partition.len(), 2);
        let pq = crate::filter::filter(&idx, &sf);
        assert_eq!(pq, vec![0, 1], "filtering alone keeps the false positive");
        let dq = query_center_distances(&q, &min_partition);
        let pruned = prune(&idx, &q, &pq, &min_partition, &dq);
        assert_eq!(pruned, vec![0], "CDC must prune the far-apart graph");
    }

    #[test]
    fn cdc_never_prunes_true_positives() {
        // Database of small graphs; queries cut from them; the true support
        // must always survive pruning.
        let db = vec![
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[0, 1, 0], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(
                &[1, 0, 1, 0, 1],
                &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
            ),
        ];
        let idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
        let q = graph_from(&[0, 1, 0], &[(0, 1, 0), (1, 2, 0)]);
        let truth: Vec<u32> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&q, g))
            .map(|(i, _)| i as u32)
            .collect();
        let PartitionRuns::Ok {
            min_partition, sf, ..
        } = feature_tree_partition(&q, &idx)
        else {
            panic!()
        };
        let pq = crate::filter::filter(&idx, &sf);
        let dq = query_center_distances(&q, &min_partition);
        let pruned = prune(&idx, &q, &pq, &min_partition, &dq);
        for t in &truth {
            assert!(pruned.contains(t), "true positive {t} was pruned");
        }
        // The pooled entry point agrees — with more seats asked for than
        // candidates, and with no candidates at all.
        let pool = graph_core::par::Pool::new(2);
        let off = obs::Shard::disabled();
        for (cands, want) in [(&pq[..], &pruned[..]), (&[][..], &[][..])] {
            let got = center_prune_pool_obs(&idx, &q, cands, &min_partition, &dq, &pool, 8, &off);
            assert_eq!(got, want);
        }
        // So do its counts, one chunk or one candidate per chunk.
        let counts = |threads| {
            let shard = obs::Shard::detached(true);
            center_prune_pool_obs(&idx, &q, &pq, &min_partition, &dq, &pool, threads, &shard);
            shard.into_set().deterministic_counters()
        };
        let one = counts(1);
        assert_eq!(one["prune.cdc_tests"], pq.len() as u64);
        assert_eq!(counts(pq.len()), one);
    }

    #[test]
    fn query_distances_symmetric_and_zero_diagonal() {
        let db = vec![graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)])];
        let idx = TreePiIndex::build(
            db,
            TreePiParams {
                sigma: mining::SigmaFn {
                    alpha: 1,
                    beta: 10.0,
                    eta: 1,
                },
                ..TreePiParams::quick()
            },
        );
        let q = graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)]);
        let PartitionRuns::Ok { min_partition, .. } = feature_tree_partition(&q, &idx) else {
            panic!()
        };
        let dq = query_center_distances(&q, &min_partition);
        let n = min_partition.len();
        for (i, row) in dq.iter().enumerate() {
            assert_eq!(row[i], 0);
            for (j, cell) in row.iter().enumerate() {
                assert_eq!(*cell, dq[j][i]);
            }
        }
        assert_eq!(dq.len(), n);
    }
}
