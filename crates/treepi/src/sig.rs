//! Per-vertex neighborhood signatures: a compact, sound feasibility test
//! in the spirit of l2Match's label-pair / neighboring-label indexes (see
//! PAPERS.md), applied inside the matcher as CNI applies its neighbourhood
//! codes.
//!
//! For every vertex `v` of a database graph we precompute a 16-byte
//! fingerprint of its 1-hop neighborhood: its own label, its degree, and a
//! 64-bit mask with one bit hashed from each incident
//! `(edge label, neighbor label)` pair. The fingerprints support a cheap
//! *necessary* condition for subgraph isomorphism:
//!
//! If `q ⊆ g` via an embedding `f`, then for every query vertex `x` the
//! host vertex `f(x)` (a) carries the same label, (b) has at least `x`'s
//! degree (embeddings are injective on vertices and map edges to edges),
//! and (c) is incident to every `(edge label, neighbor label)` pair `x` is
//! incident to — so `x`'s mask bits are a subset of `f(x)`'s. The mask is
//! an OR over hashed pairs, which only ever *loses* distinctions (two
//! pairs may share a bit); a set bit in the query mask that is absent from
//! the host mask therefore proves a pair the host vertex lacks entirely.
//! Rejecting a host vertex, a stored center position or a whole candidate
//! on an incompatible signature can consequently never lose a true answer.
//!
//! Two consumers read them: the anchored search of [`crate::verify`]
//! (its per-part count of compatible stored positions, via
//! [`center_compatible`], and its per-vertex feasibility rule) and CDC
//! pruning ([`crate::prune`], which the query pipeline does not run).
//!
//! Signatures are a pure function of the stored graph payload — the index
//! keeps `sigs[gid] == graph_sigs(&db[gid])` as an invariant across
//! build, §7.1 insert/remove repairs, and re-mining — which is what lets
//! index files leave them out: [`crate::TreePiIndex::load`] recomputes them.

use graph_core::{Graph, VertexId};

/// Neighborhood fingerprint of one database (or query) vertex.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VertexSig {
    /// The vertex's own label.
    pub label: u32,
    /// Its degree.
    pub degree: u32,
    /// One hashed bit per incident `(edge label, neighbor label)` pair.
    pub mask: u64,
}

/// One SplitMix64 step: deterministic, platform-independent, and cheap —
/// the quality asked of it here is only that distinct inputs spread over
/// the output bits.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash an incident `(edge label, neighbor label)` pair to one of 64 mask
/// bits.
#[inline]
fn pair_bit(elabel: u32, nlabel: u32) -> u64 {
    1u64 << (splitmix64((elabel as u64) << 32 | nlabel as u64) & 63)
}

impl VertexSig {
    /// Fingerprint of vertex `v` in `g`.
    pub fn of(g: &Graph, v: VertexId) -> Self {
        let mut mask = 0u64;
        for &(n, e) in g.neighbors(v) {
            mask |= pair_bit(g.edge(e).label.0, g.vlabel(n).0);
        }
        VertexSig {
            label: g.vlabel(v).0,
            degree: g.degree(v) as u32,
            mask,
        }
    }

    /// Can a query vertex with signature `self` map to a host vertex with
    /// signature `host` under *some* subgraph-isomorphism embedding?
    /// (Necessary condition; see the module docs for the soundness
    /// argument.)
    #[inline]
    pub fn compatible(&self, host: &VertexSig) -> bool {
        self.label == host.label && self.degree <= host.degree && self.mask & !host.mask == 0
    }
}

/// Signatures of every vertex of `g`, in vertex order.
pub fn graph_sigs(g: &Graph) -> Vec<VertexSig> {
    g.vertices().map(|v| VertexSig::of(g, v)).collect()
}

/// Does every query vertex have at least one signature-compatible host
/// vertex? `false` proves `q ⊄ g`; `true` decides nothing. No query runs
/// it: kept for the ledger's replay until ROADMAP item 1.
pub fn graph_compatible(qsigs: &[VertexSig], hsigs: &[VertexSig]) -> bool {
    qsigs.iter().all(|q| hsigs.iter().any(|h| q.compatible(h)))
}

/// Can center position `c` (of a stored feature embedding in `g`) host the
/// part whose center representatives in the query are `q_reps`? A part
/// embedding maps the part tree's center onto the embedded subtree's
/// center — centers are isomorphism invariants — so the query-side center
/// representatives must land exactly on `c`'s representatives. Vertex
/// centers pin one vertex onto one; edge centers need the two query
/// representatives to map bijectively onto the two host endpoints in one
/// of the two orientations. A cardinality mismatch (impossible for
/// honestly stored centers) degrades to the weaker any-pair check, never
/// to a kill.
pub fn center_compatible(
    qsigs: &[VertexSig],
    hsigs: &[VertexSig],
    q_reps: &[VertexId],
    c: tree_core::CenterPos,
    g: &Graph,
) -> bool {
    let h_reps = c.representatives(g);
    match (q_reps, h_reps.as_slice()) {
        ([a], [u]) => qsigs[a.idx()].compatible(&hsigs[u.idx()]),
        ([a, b], [u, v]) => {
            let (sa, sb) = (&qsigs[a.idx()], &qsigs[b.idx()]);
            let (su, sv) = (&hsigs[u.idx()], &hsigs[v.idx()]);
            (sa.compatible(su) && sb.compatible(sv)) || (sa.compatible(sv) && sb.compatible(su))
        }
        (qs, hs) => qs.iter().all(|&a| {
            hs.iter()
                .any(|&u| qsigs[a.idx()].compatible(&hsigs[u.idx()]))
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    #[test]
    fn own_sig_is_self_compatible() {
        let g = graph_from(&[0, 1, 2], &[(0, 1, 0), (1, 2, 1)]);
        for v in g.vertices() {
            let s = VertexSig::of(&g, v);
            assert!(s.compatible(&s));
        }
    }

    #[test]
    fn label_and_degree_gate_compatibility() {
        // host path 0-0-1: middle vertex has degree 2
        let g = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let hub = VertexSig::of(&g, VertexId(1));
        // query single edge 0-0: endpoint has degree 1, same label → compatible
        let q = graph_from(&[0, 0], &[(0, 1, 0)]);
        let leaf = VertexSig::of(&q, VertexId(0));
        assert!(leaf.compatible(&hub));
        assert!(!hub.compatible(&leaf), "higher degree cannot map down");
        // wrong label is never compatible
        let q2 = graph_from(&[7, 0], &[(0, 1, 0)]);
        assert!(!VertexSig::of(&q2, VertexId(0)).compatible(&hub));
    }

    #[test]
    fn mask_detects_missing_incident_pair() {
        // query vertex incident to (elabel 5, nlabel 9); host vertex with the
        // same label/degree but a different incident pair must be rejected.
        let q = graph_from(&[0, 9], &[(0, 1, 5)]);
        let h = graph_from(&[0, 9], &[(0, 1, 6)]);
        let qs = VertexSig::of(&q, VertexId(0));
        let hs = VertexSig::of(&h, VertexId(0));
        // distinct pairs may collide in 64 bits, but these constants don't:
        assert_ne!(pair_bit(5, 9), pair_bit(6, 9));
        assert!(!qs.compatible(&hs));
    }

    #[test]
    fn subgraph_images_are_always_compatible() {
        // Soundness spot check: for actual sub-embeddings, every query
        // vertex must be compatible with its image.
        let g = graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]);
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        assert!(graph_core::is_subgraph_isomorphic(&q, &g));
        assert!(graph_compatible(&graph_sigs(&q), &graph_sigs(&g)));
    }

    #[test]
    fn graph_compatible_kills_impossible_candidates() {
        // Query needs a degree-3 hub; the path host has none.
        let q = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let host = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        assert!(!graph_compatible(&graph_sigs(&q), &graph_sigs(&host)));
    }

    #[test]
    fn center_compatible_checks_both_edge_orientations() {
        // Host edge 0(lbl 0) — 1(lbl 1); query reps with labels (1, 0) must
        // match via the flipped orientation.
        let g = graph_from(&[0, 1], &[(0, 1, 0)]);
        let q = graph_from(&[1, 0], &[(0, 1, 0)]);
        let (qs, hs) = (graph_sigs(&q), graph_sigs(&g));
        let c = tree_core::CenterPos::Edge(graph_core::EdgeId(0));
        assert!(center_compatible(
            &qs,
            &hs,
            &[VertexId(0), VertexId(1)],
            c,
            &g
        ));
        // Two query reps with the same label as only one endpoint: the
        // bijection requirement must reject.
        let q2 = graph_from(&[0, 0], &[(0, 1, 0)]);
        let qs2 = graph_sigs(&q2);
        assert!(!center_compatible(
            &qs2,
            &hs,
            &[VertexId(0), VertexId(1)],
            c,
            &g
        ));
    }
}
