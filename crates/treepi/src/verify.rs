//! Reconstruction-based subgraph isomorphism (paper §5.3, Algorithm 3).
//!
//! Instead of a naive isomorphism search over the whole candidate graph,
//! verification re-finds each part of the query's Feature-Tree-Partition
//! rooted at its *stored center positions* (a rooted DFS, §5.3.2), then
//! joins the retrieved subtrees back into the query. The join never runs an
//! isomorphism test: two retrieved embeddings of the same part are
//! interchangeable iff they agree on the part's *boundary* (vertices shared
//! with other parts) and on the *set* of interior images — our realization
//! of the paper's Canonical Reconstruction Form (§5.3.1; see DESIGN.md
//! substitution 4). Each equivalence class is explored once per join node,
//! candidate center assignments are filtered by the Center Distance
//! Constraints (Algorithm 3's loop header), and the search unwinds on the
//! first complete reconstruction.

use crate::index::TreePiIndex;
use crate::partition::Part;
use crate::prune::pos_distance;
use crate::sig::{self, VertexSig};
use graph_core::{DistanceOracle, Graph, VertexId};
use rustc_hash::FxHashMap;
use smallvec::SmallVec;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use tree_core::{CenterPos, CenteredMatcher};

const UNMAPPED: VertexId = VertexId(u32::MAX);

/// Arena-backed CRF dedup set for one join level. Signatures live
/// back-to-back in one buffer with a hash → signature-indices map for
/// membership; inserts compare slices exactly (the hash only narrows
/// the probe), so the semantics equal a `HashSet<Vec<u32>>` — with zero
/// steady-state allocations once the buffers reach the query's
/// high-water mark, instead of one `Vec` clone per distinct signature.
#[derive(Default)]
struct LevelDedup {
    arena: Vec<u32>,
    /// Prefix ends: signature `i` is `arena[ends[i-1]..ends[i]]`.
    ends: Vec<u32>,
    map: FxHashMap<u64, SmallVec<[u32; 2]>>,
}

impl LevelDedup {
    fn clear(&mut self) {
        self.arena.clear();
        self.ends.clear();
        self.map.clear();
    }

    fn slice(&self, i: usize) -> &[u32] {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.arena[lo..self.ends[i] as usize]
    }

    /// Insert `sig`; false (and nothing stored) if already present.
    fn insert_if_new(&mut self, sig: &[u32]) -> bool {
        let mut h = rustc_hash::FxHasher::default();
        sig.hash(&mut h);
        let key = h.finish();
        if let Some(bucket) = self.map.get(&key) {
            if bucket.iter().any(|&i| self.slice(i as usize) == sig) {
                return false;
            }
        }
        let idx = self.ends.len() as u32;
        self.arena.extend_from_slice(sig);
        self.ends.push(self.arena.len() as u32);
        self.map.entry(key).or_default().push(idx);
        true
    }
}

/// Caller-owned verification scratch, reused across every candidate a
/// worker verifies (the caller-owned-scratch discipline the intersection
/// paths already follow): join state, per-level CRF dedup arenas,
/// selectivity ordering, and the query's vertex signatures — all retained
/// at their high-water marks. The distance oracle is the one piece that
/// cannot live here: it borrows the candidate graph.
pub(crate) struct VerifyScratch {
    /// Signatures of the query's vertices, computed once per query.
    qsigs: Vec<VertexSig>,
    /// query vertex → host vertex
    m: Vec<VertexId>,
    /// host vertices already used by the join (injectivity)
    used: Vec<bool>,
    assigned_centers: Vec<(usize, CenterPos)>,
    /// CRF signature assembly scratch, reused across every enumerated
    /// embedding instead of allocating two fresh `Vec`s per candidate.
    sig: Vec<u32>,
    interior: Vec<u32>,
    /// One CRF dedup set per join level.
    levels: Vec<LevelDedup>,
    /// Per-part signature-compatible center counts and the join order
    /// derived from them.
    counts: Vec<usize>,
    order: Vec<usize>,
}

impl VerifyScratch {
    pub(crate) fn for_query(q: &Graph) -> Self {
        Self {
            qsigs: sig::graph_sigs(q),
            m: Vec::new(),
            used: Vec::new(),
            assigned_centers: Vec::new(),
            sig: Vec::with_capacity(q.vertex_count() + 1),
            interior: Vec::new(),
            levels: Vec::new(),
            counts: Vec::new(),
            order: Vec::new(),
        }
    }
}

/// Fill `sig` with the embedding's CRF-deduplication signature: boundary
/// images in vertex order, separator, then the sorted interior image set.
/// `interior` is scratch; both buffers are cleared first.
fn signature_into(
    emb: &[VertexId],
    boundary: &[bool],
    sig: &mut Vec<u32>,
    interior: &mut Vec<u32>,
) {
    sig.clear();
    interior.clear();
    for (i, &gv) in emb.iter().enumerate() {
        if boundary[i] {
            sig.push(gv.0);
        } else {
            interior.push(gv.0);
        }
    }
    sig.push(u32::MAX);
    interior.sort_unstable();
    sig.extend(interior.iter().copied());
}

#[allow(clippy::too_many_arguments)]
fn search(
    index: &TreePiIndex,
    g: &Graph,
    gid: u32,
    hsigs: &[VertexSig],
    parts: &[Part],
    dq: &[Vec<u32>],
    boundaries: &[Vec<bool>],
    matchers: &[CenteredMatcher<'_>],
    st: &mut VerifyScratch,
    oracle: &mut DistanceOracle<'_>,
    k: usize,
) -> bool {
    if k == st.order.len() {
        return true;
    }
    let pi = st.order[k];
    let part = &parts[pi];
    let centers = index.center_positions_of(part.feature, gid);
    'center: for c in centers {
        // Signature gate: no embedding of the full query can land the
        // part's center representatives on this position's representatives
        // unless they are signature-compatible (see `crate::sig`).
        if !sig::center_compatible(&st.qsigs, hsigs, &part.center_reps_in_q, c, g) {
            continue 'center;
        }
        // Cheap rejection: the part's center corresponds to known query
        // vertices (`center_reps_in_q`); if the join has already mapped
        // one of them, the candidate center must sit on that image.
        let mut fully_pinned = true;
        {
            let reps = c.representatives(g);
            for &qr in &part.center_reps_in_q {
                let img = st.m[qr.idx()];
                if img == UNMAPPED {
                    fully_pinned = false;
                } else if !reps.contains(&img) {
                    continue 'center;
                }
            }
        }
        // Center Distance Constraints against already-placed parts. When
        // the join has already forced every center representative onto this
        // position, the true embedding realizes the distances and the check
        // is implied — skip the BFS work.
        if !fully_pinned {
            for j in 0..st.assigned_centers.len() {
                let (pj, cj) = st.assigned_centers[j];
                let limit = dq[pi][pj];
                // BFS rows are cached per source; source from the *assigned*
                // center so all candidate centers share one row.
                if limit != u32::MAX && pos_distance(g, oracle, cj, c) > limit {
                    continue 'center;
                }
            }
        }
        st.assigned_centers.push((pi, c));
        // Lazily enumerate embeddings centered at c; dedupe by CRF
        // signature in this level's arena; unwind on first success.
        st.levels[k].clear();
        let mut found = false;
        let _ = matchers[pi].for_each_embedding_centered(g, c, |emb| {
            // Compatibility with the partial join.
            for (i, &gv) in emb.iter().enumerate() {
                let qv = part.q_vertices[i];
                let cur = st.m[qv.idx()];
                if cur != UNMAPPED {
                    if cur != gv {
                        return ControlFlow::Continue(());
                    }
                } else if st.used[gv.idx()] {
                    return ControlFlow::Continue(());
                }
            }
            // CRF dedup: build the signature in the scratch buffers (used
            // and archived into the arena before the recursion below can
            // clobber them); nothing is allocated per embedding.
            {
                let VerifyScratch {
                    sig,
                    interior,
                    levels,
                    ..
                } = &mut *st;
                signature_into(emb, &boundaries[pi], sig, interior);
                if !levels[k].insert_if_new(sig) {
                    return ControlFlow::Continue(());
                }
            }
            // Apply, recurse, undo.
            let mut newly: SmallVec<[VertexId; 12]> = SmallVec::new();
            for (i, &gv) in emb.iter().enumerate() {
                let qv = part.q_vertices[i];
                if st.m[qv.idx()] == UNMAPPED {
                    st.m[qv.idx()] = gv;
                    st.used[gv.idx()] = true;
                    newly.push(qv);
                }
            }
            if search(
                index,
                g,
                gid,
                hsigs,
                parts,
                dq,
                boundaries,
                matchers,
                st,
                oracle,
                k + 1,
            ) {
                found = true;
                return ControlFlow::Break(());
            }
            for &qv in &newly {
                let gv = st.m[qv.idx()];
                st.used[gv.idx()] = false;
                st.m[qv.idx()] = UNMAPPED;
            }
            ControlFlow::Continue(())
        });
        if found {
            return true;
        }
        st.assigned_centers.pop();
    }
    false
}

/// Algorithm 3: is `q` subgraph isomorphic to graph `gid`, reconstructed
/// from the partition `parts` (with query center-distance matrix `dq`)?
pub fn verify(index: &TreePiIndex, q: &Graph, gid: u32, parts: &[Part], dq: &[Vec<u32>]) -> bool {
    let boundaries = part_boundaries(q, parts);
    let matchers: Vec<CenteredMatcher<'_>> = parts
        .iter()
        .map(|p| CenteredMatcher::new(&p.tree))
        .collect();
    let mut scratch = VerifyScratch::for_query(q);
    verify_with_boundaries_obs(
        index,
        q,
        gid,
        parts,
        dq,
        &boundaries,
        &matchers,
        &mut scratch,
        &obs::Shard::disabled(),
    )
}

/// Boundary flags per part: a part-tree vertex is boundary iff its query
/// vertex belongs to more than one part. Computed once per query.
pub(crate) fn part_boundaries(q: &Graph, parts: &[Part]) -> Vec<Vec<bool>> {
    let mut owners = vec![0u32; q.vertex_count()];
    for p in parts {
        for &qv in &p.q_vertices {
            owners[qv.idx()] += 1;
        }
    }
    parts
        .iter()
        .map(|p| {
            p.q_vertices
                .iter()
                .map(|&qv| owners[qv.idx()] > 1)
                .collect()
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_with_boundaries_obs(
    index: &TreePiIndex,
    q: &Graph,
    gid: u32,
    parts: &[Part],
    dq: &[Vec<u32>],
    boundaries: &[Vec<bool>],
    matchers: &[CenteredMatcher<'_>],
    scratch: &mut VerifyScratch,
    shard: &obs::Shard,
) -> bool {
    shard.add("verify.tests", 1);
    let g = &index.db()[gid as usize];
    let hsigs = index.vertex_sigs(gid);

    // Every part needs at least one stored center.
    for p in parts {
        if index.center_positions_of(p.feature, gid).next().is_none() {
            return false;
        }
    }
    // A single-part partition means the query *is* that feature tree and a
    // stored center position is itself proof of containment.
    if parts.len() == 1 {
        return true;
    }

    // Selectivity order: each part's estimated match count is its number
    // of signature-compatible stored centers; join the most selective part
    // first (ascending, ties stable in part order). A part with zero
    // compatible centers proves non-containment before the search starts.
    scratch.counts.clear();
    for p in parts {
        let n = index
            .center_positions_of(p.feature, gid)
            .filter(|&c| sig::center_compatible(&scratch.qsigs, hsigs, &p.center_reps_in_q, c, g))
            .count();
        if n == 0 {
            shard.add("verify.center_sig_kills", 1);
            return false;
        }
        scratch.counts.push(n);
    }
    scratch.order.clear();
    scratch.order.extend(0..parts.len());
    {
        let VerifyScratch { counts, order, .. } = &mut *scratch;
        order.sort_by_key(|&i| counts[i]);
    }

    scratch.m.clear();
    scratch.m.resize(q.vertex_count(), UNMAPPED);
    scratch.used.clear();
    scratch.used.resize(g.vertex_count(), false);
    scratch.assigned_centers.clear();
    while scratch.levels.len() < parts.len() {
        scratch.levels.push(LevelDedup::default());
    }
    let mut oracle = DistanceOracle::new(g);
    let ok = search(
        index,
        g,
        gid,
        hsigs,
        parts,
        dq,
        boundaries,
        matchers,
        scratch,
        &mut oracle,
        0,
    );
    shard.add("graph.bfs", oracle.bfs_runs());
    ok
}

/// Verify every graph in `pruned`, returning the exact answer set:
/// [`verify_all_pool_obs`] as one inline chunk with metrics disabled.
pub fn verify_all(
    index: &TreePiIndex,
    q: &Graph,
    pruned: &[u32],
    parts: &[Part],
    dq: &[Vec<u32>],
) -> Vec<u32> {
    let pool = graph_core::par::Pool::new(1);
    verify_all_pool_obs(
        index,
        q,
        pruned,
        parts,
        dq,
        &pool,
        1,
        &obs::Shard::disabled(),
    )
}

/// The general verifier: boundary flags and centered matchers are computed
/// once and shared read-only; candidates are chunked contiguously into up
/// to `threads` seats on `pool` (every `JoinState` is seat-local), and chunk
/// results concatenate in rank order. Records `verify.tests` per candidate
/// and the reconstruction oracle's `graph.bfs` runs; seats record into
/// [`obs::Shard::fork`]s merged in rank order, so the output and every
/// merged counter are identical for any `threads` and pool size.
#[allow(clippy::too_many_arguments)]
pub fn verify_all_pool_obs(
    index: &TreePiIndex,
    q: &Graph,
    pruned: &[u32],
    parts: &[Part],
    dq: &[Vec<u32>],
    pool: &graph_core::par::Pool,
    threads: usize,
    shard: &obs::Shard,
) -> Vec<u32> {
    if pruned.is_empty() {
        return Vec::new();
    }
    let boundaries = part_boundaries(q, parts);
    let matchers: Vec<CenteredMatcher<'_>> = parts
        .iter()
        .map(|p| CenteredMatcher::new(&p.tree))
        .collect();
    let chunk_size = pruned.len().div_ceil(threads.clamp(1, pruned.len()));
    let chunks: Vec<&[u32]> = pruned.chunks(chunk_size).collect();
    pool.fork_join_obs(chunks.len(), shard, |rank, worker| {
        let mut scratch = VerifyScratch::for_query(q);
        chunks[rank]
            .iter()
            .copied()
            .filter(|&gid| {
                verify_with_boundaries_obs(
                    index,
                    q,
                    gid,
                    parts,
                    dq,
                    &boundaries,
                    &matchers,
                    &mut scratch,
                    worker,
                )
            })
            .collect::<Vec<u32>>()
    })
    .into_iter()
    .flatten()
    .collect()
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
    use crate::partition::{partition_runs, PartitionRuns};
    use crate::prune::query_center_distances;
    use graph_core::graph_from;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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

    fn run_query(q: &Graph, idx: &TreePiIndex, seed: u64) -> Vec<u32> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        match partition_runs(q, idx, q.edge_count().max(1), &mut rng) {
            PartitionRuns::MissingFeature(_) => Vec::new(),
            PartitionRuns::Ok { min_partition, sf } => {
                let pq = crate::filter::filter(idx, &sf);
                let dq = query_center_distances(q, &min_partition);
                let pruned = crate::prune::center_prune_obs(
                    idx,
                    &crate::sig::graph_sigs(q),
                    &pq,
                    &min_partition,
                    &dq,
                    &obs::Shard::disabled(),
                );
                verify_all(idx, q, &pruned, &min_partition, &dq)
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
            graph_from(&[9, 9], &[(0, 1, 0)]), // absent labels
        ];
        for (qi, q) in queries.iter().enumerate() {
            let truth = scan_support(&idx, q);
            for seed in 0..5 {
                let got = run_query(q, &idx, seed);
                assert_eq!(got, truth, "query {qi} seed {seed}");
            }
        }
    }

    #[test]
    fn cyclic_query_needs_multi_part_join() {
        // A cyclic query can never be a single feature tree; verification
        // must reconstruct it from ≥ 2 tree parts.
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let PartitionRuns::Ok { min_partition, .. } = partition_runs(&q, &idx, 5, &mut rng) else {
            panic!()
        };
        assert!(min_partition.len() >= 2);
        let dq = query_center_distances(&q, &min_partition);
        assert!(verify(&idx, &q, 0, &min_partition, &dq));
        assert!(!verify(&idx, &q, 1, &min_partition, &dq));
        assert_eq!(verify_all(&idx, &q, &[0, 1], &min_partition, &dq), [0]);
        assert!(verify_all(&idx, &q, &[], &min_partition, &dq).is_empty());
    }

    #[test]
    fn injectivity_enforced_across_parts() {
        // Query: path of 3 zero-labeled vertices (needs 3 distinct hosts).
        // Graph 1 (path 0-0-1) contains only two 0-vertices.
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let q = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);
        let truth = scan_support(&idx, &q);
        for seed in 0..5 {
            assert_eq!(run_query(&q, &idx, seed), truth);
        }
    }

    #[test]
    fn crf_signatures_collapse_interchangeable_embeddings() {
        // Star embeddings that permute interior leaves share a signature;
        // boundary differences keep signatures distinct.
        let (mut sig, mut interior) = (Vec::new(), Vec::new());
        let mut sig_of = |emb: &[VertexId], boundary: &[bool]| {
            signature_into(emb, boundary, &mut sig, &mut interior);
            sig.clone()
        };
        let e1 = [VertexId(0), VertexId(1), VertexId(2)];
        let e2 = [VertexId(0), VertexId(2), VertexId(1)];
        let e3 = [VertexId(3), VertexId(1), VertexId(2)];
        let boundary = [true, false, false];
        assert_eq!(sig_of(&e1, &boundary), sig_of(&e2, &boundary));
        assert_ne!(sig_of(&e1, &boundary), sig_of(&e3, &boundary));
        // fully-boundary parts keep everything distinct
        let all = [true, true, true];
        assert_ne!(sig_of(&e1, &all), sig_of(&e2, &all));
    }

    #[test]
    fn level_dedup_matches_exact_set_semantics() {
        let mut d = LevelDedup::default();
        assert!(d.insert_if_new(&[1, 2, 3]));
        assert!(!d.insert_if_new(&[1, 2, 3]), "duplicate must be rejected");
        assert!(d.insert_if_new(&[1, 2]), "prefix is a distinct signature");
        assert!(d.insert_if_new(&[3, 2, 1]));
        assert!(!d.insert_if_new(&[3, 2, 1]));
        assert!(d.insert_if_new(&[]), "empty signature is a valid member");
        assert!(!d.insert_if_new(&[]));
        d.clear();
        assert!(d.insert_if_new(&[1, 2, 3]), "clear() must forget members");
    }

    #[test]
    fn boundary_flags_follow_part_overlap() {
        let idx = TreePiIndex::build(db(), TreePiParams::quick());
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let PartitionRuns::Ok { min_partition, .. } = partition_runs(&q, &idx, 5, &mut rng) else {
            panic!()
        };
        let b = part_boundaries(&q, &min_partition);
        assert_eq!(b.len(), min_partition.len());
        // in a partition of a triangle, shared vertices exist
        let shared: usize = b.iter().flatten().filter(|&&x| x).count();
        assert!(shared >= 2, "triangle partitions must share vertices");
    }
}
