//! Edge-induced subgraph extraction and connected edge-subset enumeration.
//!
//! The paper partitions query graphs into non-edge-overlapping subgraphs
//! (Definition 5) and the gIndex baseline enumerates the connected subgraphs
//! of a query up to a size limit; both reduce to operations on *edge
//! subsets* of a host graph, implemented here.

use crate::graph::{EdgeId, Graph, GraphBuilder, VertexId};
use rand::Rng;
use rustc_hash::FxHashMap;
use std::ops::ControlFlow;

/// A subgraph extracted from a host graph, remembering where its vertices
/// and edges came from.
#[derive(Clone, Debug)]
pub struct ExtractedSubgraph {
    /// The subgraph itself, with dense fresh ids.
    pub graph: Graph,
    /// `vertex_map[i]` = host vertex id of subgraph vertex `i`.
    pub vertex_map: Vec<VertexId>,
    /// `edge_map[i]` = host edge id of subgraph edge `i`.
    pub edge_map: Vec<EdgeId>,
}

impl ExtractedSubgraph {
    /// Host vertex corresponding to subgraph vertex `v`.
    pub fn host_vertex(&self, v: VertexId) -> VertexId {
        self.vertex_map[v.idx()]
    }

    /// Host edge corresponding to subgraph edge `e`.
    pub fn host_edge(&self, e: EdgeId) -> EdgeId {
        self.edge_map[e.idx()]
    }
}

/// Build the edge-induced subgraph of `g` over `edges` (vertices are those
/// incident to the chosen edges). Edge order in the result follows `edges`.
pub fn edge_subgraph(g: &Graph, edges: &[EdgeId]) -> ExtractedSubgraph {
    let mut vmap: FxHashMap<VertexId, VertexId> = FxHashMap::default();
    let mut vertex_map = Vec::new();
    let mut b = GraphBuilder::with_capacity(edges.len() + 1, edges.len());
    let mut local = |host: VertexId, b: &mut GraphBuilder, vertex_map: &mut Vec<VertexId>| {
        *vmap.entry(host).or_insert_with(|| {
            let id = b.add_vertex(g.vlabel(host));
            vertex_map.push(host);
            id
        })
    };
    let mut edge_map = Vec::with_capacity(edges.len());
    for &eid in edges {
        let e = g.edge(eid);
        let lu = local(e.u, &mut b, &mut vertex_map);
        let lv = local(e.v, &mut b, &mut vertex_map);
        b.add_edge(lu, lv, e.label)
            .expect("host edges are simple, so extraction cannot create duplicates");
        edge_map.push(eid);
    }
    ExtractedSubgraph {
        graph: b.build(),
        vertex_map,
        edge_map,
    }
}

/// Split an edge set of `g` into connected components (by shared vertices).
pub fn edge_components(g: &Graph, edges: &[EdgeId]) -> Vec<Vec<EdgeId>> {
    if edges.is_empty() {
        return Vec::new();
    }
    // Union-find over the endpoints restricted to `edges`.
    let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
    fn find(parent: &mut FxHashMap<VertexId, VertexId>, v: VertexId) -> VertexId {
        let p = *parent.entry(v).or_insert(v);
        if p == v {
            v
        } else {
            let r = find(parent, p);
            parent.insert(v, r);
            r
        }
    }
    for &eid in edges {
        let e = g.edge(eid);
        let ru = find(&mut parent, e.u);
        let rv = find(&mut parent, e.v);
        if ru != rv {
            parent.insert(ru, rv);
        }
    }
    let mut groups: FxHashMap<VertexId, Vec<EdgeId>> = FxHashMap::default();
    for &eid in edges {
        let r = find(&mut parent, g.edge(eid).u);
        groups.entry(r).or_default().push(eid);
    }
    let mut out: Vec<Vec<EdgeId>> = groups.into_values().collect();
    out.sort_by_key(|c| c[0]);
    out
}

/// Extract a random connected subgraph of `g` with exactly `m` edges by
/// randomized edge growth (the paper's query-set construction: "extract a
/// connected m edge subgraph from each graph randomly", §6.1).
///
/// Returns `None` if `g` has no connected subgraph with `m` edges reachable
/// from the sampled seed (e.g. the seed's component is too small).
pub fn random_connected_edge_subgraph<R: Rng>(
    g: &Graph,
    m: usize,
    rng: &mut R,
) -> Option<Vec<EdgeId>> {
    if m == 0 || g.edge_count() < m {
        return None;
    }
    let seed = EdgeId(rng.gen_range(0..g.edge_count() as u32));
    let mut chosen = vec![seed];
    let mut in_set = vec![false; g.edge_count()];
    in_set[seed.idx()] = true;
    let mut vertices = vec![g.edge(seed).u, g.edge(seed).v];

    while chosen.len() < m {
        // Frontier: edges incident to the current vertex set, not chosen.
        let mut frontier = Vec::new();
        for &v in &vertices {
            for &(_, eid) in g.neighbors(v) {
                if !in_set[eid.idx()] {
                    frontier.push(eid);
                }
            }
        }
        frontier.sort_unstable();
        frontier.dedup();
        if frontier.is_empty() {
            return None; // component exhausted before reaching m edges
        }
        let pick = frontier[rng.gen_range(0..frontier.len())];
        in_set[pick.idx()] = true;
        chosen.push(pick);
        let e = g.edge(pick);
        for w in [e.u, e.v] {
            if !vertices.contains(&w) {
                vertices.push(w);
            }
        }
    }
    Some(chosen)
}

/// Enumerate the connected edge subsets of `g` with `1..=max_edges` edges,
/// each at most once, showing `f` each subset (edges in discovery order).
/// `f` answers `Continue(true)` to grow the subset further,
/// `Continue(false)` to skip every subset grown from it, and `Break` to
/// stop. Answering `true` throughout visits every connected subset.
///
/// Uses the standard seed-and-forbid scheme: subsets are rooted at their
/// minimum edge id; extension edges below the seed are forbidden, and each
/// frontier edge is either taken or excluded for the rest of its branch, so
/// no subset is produced twice. A subset is grown from its prefixes, each
/// connected, so a property that every connected subset of a passing subset
/// also passes (a frequent fragment, an acyclic subset) prunes soundly:
/// answering `false` where it fails loses no subset where it holds.
pub fn for_each_connected_edge_subset<F>(g: &Graph, max_edges: usize, mut f: F) -> ControlFlow<()>
where
    F: FnMut(&[EdgeId]) -> ControlFlow<(), bool>,
{
    let ecount = g.edge_count();
    let mut grow = Grow {
        g,
        max_edges,
        current: Vec::with_capacity(max_edges.min(ecount)),
        in_set: vec![false; ecount],
        excluded: vec![false; ecount],
    };
    if max_edges > 0 {
        for seed in g.edge_ids() {
            grow.take(seed, seed, &mut f)?;
        }
    }
    ControlFlow::Continue(())
}

/// The state of one [`for_each_connected_edge_subset`] search.
struct Grow<'g> {
    g: &'g Graph,
    max_edges: usize,
    current: Vec<EdgeId>,
    in_set: Vec<bool>,
    excluded: Vec<bool>,
}

impl Grow<'_> {
    /// Add `e` to the subset, show it to `f` and grow it as `f` answers.
    fn take<F>(&mut self, seed: EdgeId, e: EdgeId, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&[EdgeId]) -> ControlFlow<(), bool>,
    {
        self.current.push(e);
        self.in_set[e.idx()] = true;
        let r = match f(&self.current) {
            ControlFlow::Continue(true) if self.current.len() < self.max_edges => {
                self.extend(seed, f)
            }
            r => r.map_continue(|_| ()),
        };
        self.current.pop();
        self.in_set[e.idx()] = false;
        r
    }

    /// Binary branching over the subset's frontier (edges above `seed`
    /// touching it, neither in it nor excluded) in id order: each edge is
    /// taken with the earlier ones excluded.
    fn extend<F>(&mut self, seed: EdgeId, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&[EdgeId]) -> ControlFlow<(), bool>,
    {
        let g = self.g;
        let mut fr: Vec<EdgeId> = self
            .current
            .iter()
            .flat_map(|&eid| [g.edge(eid).u, g.edge(eid).v])
            .flat_map(|v| g.neighbors(v).iter().map(|&(_, ne)| ne))
            .filter(|&ne| ne > seed && !self.in_set[ne.idx()] && !self.excluded[ne.idx()])
            .collect();
        fr.sort_unstable();
        fr.dedup();
        let r = fr.iter().try_for_each(|&e| {
            let r = self.take(seed, e, f);
            self.excluded[e.idx()] = true;
            r
        });
        for e in &fr {
            self.excluded[e.idx()] = false;
        }
        r
    }
}

/// Enumerate connected **acyclic** edge subsets (subtrees) of `g` with
/// `1..=max_edges` edges, each exactly once: [`for_each_connected_edge_subset`]
/// growing only acyclic subsets. Every connected subset of a tree is a tree,
/// so stopping at the first cycle loses no subtree. §7.1 of the paper uses
/// this to find the feature subtrees of a deleted graph.
pub fn for_each_subtree_edge_subset<F>(g: &Graph, max_edges: usize, mut f: F) -> ControlFlow<()>
where
    F: FnMut(&[EdgeId]) -> ControlFlow<()>,
{
    // The vertices of the subset shown last, in the order they joined it.
    let mut spanned: Vec<VertexId> = Vec::new();
    let mut in_tree = vec![false; g.vertex_count()];
    for_each_connected_edge_subset(g, max_edges, |edges| {
        // A subset's prefix less its last edge was a tree, shown earlier,
        // whose vertices are the first `edges.len()` of `spanned`.
        let keep = if edges.len() == 1 { 0 } else { edges.len() };
        for v in spanned.drain(keep..) {
            in_tree[v.idx()] = false;
        }
        let e = g.edge(edges[edges.len() - 1]);
        if in_tree[e.u.idx()] && in_tree[e.v.idx()] {
            return ControlFlow::Continue(false); // the edge closes a cycle
        }
        for v in [e.u, e.v] {
            if !std::mem::replace(&mut in_tree[v.idx()], true) {
                spanned.push(v);
            }
        }
        f(edges)?;
        ControlFlow::Continue(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{graph_from, ELabel, VLabel};
    use rand::SeedableRng;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0 (triangle), 2-3 (tail)
        graph_from(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 1), (2, 0, 2), (2, 3, 3)])
    }

    #[test]
    fn extract_preserves_labels_and_maps() {
        let g = triangle_plus_tail();
        let s = edge_subgraph(&g, &[EdgeId(1), EdgeId(3)]);
        assert_eq!(s.graph.vertex_count(), 3);
        assert_eq!(s.graph.edge_count(), 2);
        // vertices 1, 2, 3 of host
        let hosts: Vec<u32> = s.vertex_map.iter().map(|v| v.0).collect();
        assert_eq!(hosts, vec![1, 2, 3]);
        assert_eq!(s.graph.vlabel(VertexId(0)), VLabel(1));
        assert_eq!(s.graph.edge(EdgeId(0)).label, ELabel(1));
        assert_eq!(s.host_edge(EdgeId(1)), EdgeId(3));
        assert_eq!(s.host_vertex(VertexId(2)), VertexId(3));
    }

    #[test]
    fn components_split_correctly() {
        let g = graph_from(&[0; 6], &[(0, 1, 0), (1, 2, 0), (3, 4, 0), (4, 5, 0)]);
        let comps = edge_components(&g, &[EdgeId(0), EdgeId(2), EdgeId(3)]);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![EdgeId(0)]);
        assert_eq!(comps[1], vec![EdgeId(2), EdgeId(3)]);
    }

    #[test]
    fn random_subgraph_is_connected_with_m_edges() {
        let g = triangle_plus_tail();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        for m in 1..=4 {
            let edges = random_connected_edge_subgraph(&g, m, &mut rng).unwrap();
            assert_eq!(edges.len(), m);
            let s = edge_subgraph(&g, &edges);
            assert!(s.graph.is_connected());
        }
        assert!(random_connected_edge_subgraph(&g, 5, &mut rng).is_none());
    }

    #[test]
    fn enumerate_counts_on_triangle() {
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let mut n = 0;
        let _ = for_each_connected_edge_subset(&tri, 3, |_| {
            n += 1;
            ControlFlow::Continue(true)
        });
        // connected edge subsets of a triangle: 3 single edges, 3 pairs,
        // 1 full triangle = 7
        assert_eq!(n, 7);
    }

    #[test]
    fn enumerate_respects_max() {
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let mut n = 0;
        let _ = for_each_connected_edge_subset(&tri, 1, |_| {
            n += 1;
            ControlFlow::Continue(true)
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn unbounded_max_edges_allocates_by_graph_size() {
        // `max_edges` can come from an untrusted η; the scratch buffer must
        // be sized by the graph, not by the caller's bound.
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let (mut connected, mut subtrees) = (0, 0);
        let _ = for_each_connected_edge_subset(&tri, usize::MAX, |_| {
            connected += 1;
            ControlFlow::Continue(true)
        });
        let _ = for_each_subtree_edge_subset(&tri, usize::MAX, |_| {
            subtrees += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(connected, 7);
        assert_eq!(subtrees, 6); // everything but the full triangle
    }

    #[test]
    fn enumerate_no_duplicates() {
        let g = triangle_plus_tail();
        let mut seen = std::collections::HashSet::new();
        let _ = for_each_connected_edge_subset(&g, 4, |s| {
            let mut key: Vec<u32> = s.iter().map(|e| e.0).collect();
            key.sort_unstable();
            assert!(seen.insert(key), "duplicate subset {s:?}");
            // connectivity check
            assert_eq!(edge_components(&g, s).len(), 1);
            ControlFlow::Continue(true)
        });
        // count: all connected edge subsets of the 4-edge graph
        // Exhaustive check: all 2^4-1 nonempty subsets, keep connected ones.
        let all: Vec<Vec<u32>> = (1u32..16)
            .map(|mask| (0..4).filter(|i| mask & (1 << i) != 0).collect())
            .filter(|s: &Vec<u32>| {
                let ids: Vec<EdgeId> = s.iter().map(|&i| EdgeId(i)).collect();
                edge_components(&g, &ids).len() == 1
            })
            .collect();
        assert_eq!(seen.len(), all.len());
    }

    #[test]
    fn subtree_enumeration_is_acyclic_and_complete() {
        let g = triangle_plus_tail();
        let mut seen = std::collections::HashSet::new();
        let _ = for_each_subtree_edge_subset(&g, 4, |s| {
            let mut key: Vec<u32> = s.iter().map(|e| e.0).collect();
            key.sort_unstable();
            assert!(seen.insert(key), "duplicate subtree {s:?}");
            let sub = edge_subgraph(&g, s);
            assert!(sub.graph.is_tree(), "subset {s:?} is not a tree");
            ControlFlow::Continue(())
        });
        // Compare against brute force: connected acyclic subsets.
        let mut brute = 0;
        let _ = for_each_connected_edge_subset(&g, 4, |s| {
            if edge_subgraph(&g, s).graph.is_tree() {
                brute += 1;
            }
            ControlFlow::Continue(true)
        });
        assert_eq!(seen.len(), brute);
    }

    #[test]
    fn early_break_stops_enumeration() {
        let g = triangle_plus_tail();
        let mut n = 0;
        let r = for_each_connected_edge_subset(&g, 4, |_| {
            n += 1;
            if n == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(true)
            }
        });
        assert_eq!(r, ControlFlow::Break(()));
        assert_eq!(n, 3);
    }

    /// Answering `false` at one subset skips exactly the subsets grown from
    /// it, those whose discovery order starts with its own, and nothing
    /// else: the subset itself is still shown, every other branch is grown.
    #[test]
    fn do_not_extend_stops_exactly_that_branch() {
        // A triangle with a tail at each corner and a chord-free square
        // hanging off it: cycles, branching and long paths.
        let g = graph_from(
            &[0; 7],
            &[
                (0, 1, 0),
                (1, 2, 0),
                (2, 0, 0),
                (0, 3, 0),
                (1, 4, 0),
                (2, 5, 0),
                (5, 6, 0),
            ],
        );
        let shown = |stop: Option<&[EdgeId]>| {
            let mut seen = Vec::new();
            let _ = for_each_connected_edge_subset(&g, 5, |s| {
                seen.push(s.to_vec());
                ControlFlow::Continue(stop != Some(s))
            });
            seen
        };
        let all = shown(None);
        let mut skipped_any = false;
        for stop in &all {
            let below = |t: &Vec<EdgeId>| t.len() > stop.len() && t.starts_with(stop);
            let expected: Vec<_> = all.iter().filter(|t| !below(t)).cloned().collect();
            skipped_any |= expected.len() < all.len();
            assert_eq!(shown(Some(stop)), expected, "stopped at {stop:?}");
        }
        assert!(skipped_any);
    }
}
