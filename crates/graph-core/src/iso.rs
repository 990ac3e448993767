//! Subgraph isomorphism (VF2-style backtracking) for labeled graphs.
//!
//! This is both a substrate (the paper's Definition 2/3 operations, used by
//! mining, the gIndex baseline's naive verification, and the brute-force
//! oracle in tests) and the inner loop of TreePi's verification, which pins
//! a [`PreparedPattern`] of the whole query at each stored center position
//! (paper §5.3.2's search "rooted in the stored center vertices").
//!
//! Semantics follow Definition 3: a pattern `p` is subgraph isomorphic to a
//! target `g` if an injective vertex mapping exists that preserves vertex
//! labels and maps every pattern edge onto a target edge with an equal label.
//! The match is **not** induced — extra target edges between mapped vertices
//! are allowed — which is the standard containment-query semantics.

use crate::graph::{Graph, VertexId};
use std::ops::ControlFlow;

/// A pattern-to-target vertex mapping: `embedding[i]` is the image of
/// pattern vertex `i`.
pub type Embedding = Vec<VertexId>;

/// Search order for pattern vertices: each vertex after the first within a
/// connected component has at least one earlier neighbor ("anchor"), so
/// candidate images can be drawn from the anchor image's adjacency list
/// instead of the whole target.
struct MatchPlan {
    /// Pattern vertices in match order.
    order: Vec<VertexId>,
    /// For order position k (k > 0 within a component): Some(position of an
    /// earlier neighbor in `order`). None for component roots.
    anchor: Vec<Option<usize>>,
}

fn make_plan(p: &Graph, root: Option<VertexId>) -> MatchPlan {
    let n = p.vertex_count();
    let mut order = Vec::with_capacity(n);
    let mut anchor = Vec::with_capacity(n);
    let mut pos = vec![usize::MAX; n]; // position of pattern vertex in order
    let mut visited = vec![false; n];

    let mut roots: Vec<VertexId> = Vec::new();
    if let Some(r) = root {
        roots.push(r);
    }
    // Prefer high-degree start vertices: they constrain the search fastest.
    let mut rest: Vec<VertexId> = p.vertices().collect();
    rest.sort_by_key(|&v| std::cmp::Reverse(p.degree(v)));
    roots.extend(rest);

    for r in roots {
        if visited[r.idx()] {
            continue;
        }
        visited[r.idx()] = true;
        pos[r.idx()] = order.len();
        order.push(r);
        anchor.push(None);
        // BFS from r so every later vertex has an earlier neighbor.
        let mut qi = order.len() - 1;
        while qi < order.len() {
            let v = order[qi];
            // Visit neighbors in descending degree for better pruning.
            let mut nbrs: Vec<VertexId> = p.neighbors(v).iter().map(|&(w, _)| w).collect();
            nbrs.sort_by_key(|&w| std::cmp::Reverse(p.degree(w)));
            for w in nbrs {
                if !visited[w.idx()] {
                    visited[w.idx()] = true;
                    pos[w.idx()] = order.len();
                    order.push(w);
                    anchor.push(Some(pos[v.idx()]));
                }
            }
            qi += 1;
        }
    }
    MatchPlan { order, anchor }
}

/// Caller-owned search state for [`PreparedPattern::for_each_embedding_pinned`]:
/// the partial mapping, the used-target flags and the pins. A caller that
/// searches many times (TreePi's verifier, once per stored center position
/// per candidate) keeps one and pays no allocation per search once the
/// buffers reach the largest pattern and target; every search leaves them
/// reset.
#[derive(Default)]
pub struct MatchScratch {
    /// image[pattern vertex] = target vertex, or UNMAPPED.
    image: Vec<VertexId>,
    used: Vec<bool>,
    /// pinned[pattern vertex] = required target vertex, or UNMAPPED.
    pinned: Vec<VertexId>,
}

struct SearchState<'a, A, F> {
    p: &'a Graph,
    g: &'a Graph,
    plan: &'a MatchPlan,
    st: &'a mut MatchScratch,
    /// Extra necessary condition on a (pattern, target) vertex pair.
    admits: A,
    on_match: F,
}

const UNMAPPED: VertexId = VertexId(u32::MAX);

impl<A, F> SearchState<'_, A, F>
where
    A: Fn(VertexId, VertexId) -> bool,
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    fn feasible(&self, pv: VertexId, gv: VertexId) -> bool {
        if self.st.used[gv.idx()] {
            return false;
        }
        if self.p.vlabel(pv) != self.g.vlabel(gv) {
            return false;
        }
        if self.p.degree(pv) > self.g.degree(gv) {
            return false;
        }
        if !(self.admits)(pv, gv) {
            return false;
        }
        // Every already-mapped pattern neighbor must be a target neighbor
        // with an equal edge label.
        for &(pw, pe) in self.p.neighbors(pv) {
            let gw = self.st.image[pw.idx()];
            if gw == UNMAPPED {
                continue;
            }
            match self.g.edge_between(gv, gw) {
                Some(ge) if self.g.edge(ge).label == self.p.edge(pe).label => {}
                _ => return false,
            }
        }
        true
    }

    fn assign_and_recurse(&mut self, k: usize, pv: VertexId, gv: VertexId) -> ControlFlow<()> {
        self.st.image[pv.idx()] = gv;
        self.st.used[gv.idx()] = true;
        let r = self.search(k + 1);
        self.st.used[gv.idx()] = false;
        self.st.image[pv.idx()] = UNMAPPED;
        r
    }

    fn search(&mut self, k: usize) -> ControlFlow<()> {
        if k == self.plan.order.len() {
            return (self.on_match)(&self.st.image);
        }
        let pv = self.plan.order[k];
        // A pinned vertex has one candidate; `feasible` checks it against
        // every mapped neighbour, the anchor included.
        let pin = self.st.pinned[pv.idx()];
        if pin != UNMAPPED {
            if self.feasible(pv, pin) {
                self.assign_and_recurse(k, pv, pin)?;
            }
            return ControlFlow::Continue(());
        }
        match self.plan.anchor[k] {
            Some(apos) => {
                let anchor_img = self.st.image[self.plan.order[apos].idx()];
                // Candidates: neighbors of the anchor's image.
                for i in 0..self.g.neighbors(anchor_img).len() {
                    let (gv, _) = self.g.neighbors(anchor_img)[i];
                    if self.feasible(pv, gv) {
                        self.assign_and_recurse(k, pv, gv)?;
                    }
                }
            }
            None => {
                for gv in self.g.vertices() {
                    if self.feasible(pv, gv) {
                        self.assign_and_recurse(k, pv, gv)?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// Enumerate embeddings of `p` into `g`, invoking `f` for each. Return
/// `ControlFlow::Break(())` from `f` to stop early.
pub fn for_each_embedding<F>(p: &Graph, g: &Graph, f: F) -> ControlFlow<()>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    if p.vertex_count() == 0
        || p.vertex_count() > g.vertex_count()
        || p.edge_count() > g.edge_count()
    {
        return ControlFlow::Continue(());
    }
    PreparedPattern::new(p, None).for_each_embedding_pinned(
        g,
        &[],
        &mut MatchScratch::default(),
        |_, _| true,
        f,
    )
}

/// Enumerate embeddings of `p` into `g` with each `(pattern, target)` pair
/// in `pins` fixed. Bicentral feature trees pin both endpoints of their
/// center edge onto a stored center edge of the host graph.
pub fn for_each_embedding_pinned<F>(
    p: &Graph,
    g: &Graph,
    pins: &[(VertexId, VertexId)],
    f: F,
) -> ControlFlow<()>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    if p.vertex_count() == 0 {
        return ControlFlow::Continue(());
    }
    PreparedPattern::new(p, pins.first().map(|&(pv, _)| pv)).for_each_embedding_pinned(
        g,
        pins,
        &mut MatchScratch::default(),
        |_, _| true,
        f,
    )
}

/// A pattern with its search order precomputed. Hot callers (TreePi's
/// verification probes the same query against many candidate graphs and
/// many center positions) prepare once and reuse; the plan depends only on
/// the pattern and the root choice.
pub struct PreparedPattern<'p> {
    p: &'p Graph,
    plan: MatchPlan,
}

impl<'p> PreparedPattern<'p> {
    /// Prepare `p`, optionally forcing the search to start at `root` (the
    /// vertex that will be pinned).
    pub fn new(p: &'p Graph, root: Option<VertexId>) -> Self {
        Self {
            p,
            plan: make_plan(p, root),
        }
    }

    /// Enumerate embeddings into `g` with the given pins, in the caller's
    /// `scratch`, visiting only target vertices `admits(pattern, target)`
    /// accepts (a necessary condition the caller knows, such as TreePi's
    /// neighbourhood signatures). The first pin's pattern vertex must be
    /// the `root` this pattern was prepared with (or `None` root and no
    /// pins).
    pub fn for_each_embedding_pinned<A, F>(
        &self,
        g: &Graph,
        pins: &[(VertexId, VertexId)],
        scratch: &mut MatchScratch,
        admits: A,
        f: F,
    ) -> ControlFlow<()>
    where
        A: Fn(VertexId, VertexId) -> bool,
        F: FnMut(&[VertexId]) -> ControlFlow<()>,
    {
        let p = self.p;
        if p.vertex_count() == 0 || p.vertex_count() > g.vertex_count() {
            return ControlFlow::Continue(());
        }
        debug_assert!(
            pins.first().map(|&(pv, _)| pv) == Some(self.plan.order[0]) || pins.is_empty(),
            "first pin must match the prepared root"
        );
        // Two pins that send one pattern vertex to two targets, or two
        // pattern vertices to one target, can never be satisfied; the same
        // pair twice is one pin.
        for (i, &(pv, gv)) in pins.iter().enumerate() {
            if pins[..i].iter().any(|&(qv, hv)| (qv == pv) != (hv == gv)) {
                return ControlFlow::Continue(());
            }
        }
        let MatchScratch {
            image,
            used,
            pinned,
        } = &mut *scratch;
        image.clear();
        image.resize(p.vertex_count(), UNMAPPED);
        used.clear();
        used.resize(g.vertex_count(), false);
        pinned.clear();
        pinned.resize(p.vertex_count(), UNMAPPED);
        for &(pv, gv) in pins {
            pinned[pv.idx()] = gv;
        }
        SearchState {
            p,
            g,
            plan: &self.plan,
            st: scratch,
            admits,
            on_match: f,
        }
        .search(0)
    }
}

/// Whether `p` is subgraph isomorphic to `g` (Definition 3).
pub fn is_subgraph_isomorphic(p: &Graph, g: &Graph) -> bool {
    find_embedding(p, g).is_some()
}

/// One embedding of `p` into `g`, if any.
pub fn find_embedding(p: &Graph, g: &Graph) -> Option<Embedding> {
    let mut result = None;
    let _ = for_each_embedding(p, g, |m| {
        result = Some(m.to_vec());
        ControlFlow::Break(())
    });
    result
}

/// All embeddings of `p` into `g`, up to `cap` (None = unlimited).
pub fn all_embeddings(p: &Graph, g: &Graph, cap: Option<usize>) -> Vec<Embedding> {
    let mut out = Vec::new();
    let _ = for_each_embedding(p, g, |m| {
        out.push(m.to_vec());
        if cap.is_some_and(|c| out.len() >= c) {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Whether `a` and `b` are isomorphic (Definition 2).
///
/// Equal vertex/edge counts plus any embedding of `a` into `b` implies a
/// bijection covering all edges of both (edge counts are equal), i.e. an
/// isomorphism.
pub fn is_isomorphic(a: &Graph, b: &Graph) -> bool {
    a.vertex_count() == b.vertex_count()
        && a.edge_count() == b.edge_count()
        && a.vlabel_multiset() == b.vlabel_multiset()
        && a.edge_triple_multiset() == b.edge_triple_multiset()
        && (a.vertex_count() == 0 || is_subgraph_isomorphic(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from;

    #[test]
    fn triangle_in_k4() {
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let k4 = graph_from(
            &[0, 0, 0, 0],
            &[
                (0, 1, 0),
                (0, 2, 0),
                (0, 3, 0),
                (1, 2, 0),
                (1, 3, 0),
                (2, 3, 0),
            ],
        );
        assert!(is_subgraph_isomorphic(&tri, &k4));
        assert!(!is_subgraph_isomorphic(&k4, &tri));
        // K4 has 4 choose 3 = 4 triangles, each with 3! = 6 automorphic maps.
        assert_eq!(all_embeddings(&tri, &k4, None).len(), 24);
    }

    #[test]
    fn labels_constrain_matching() {
        let p = graph_from(&[1, 2], &[(0, 1, 7)]);
        let g_ok = graph_from(&[2, 1, 3], &[(0, 1, 7), (1, 2, 5)]);
        let g_bad_elabel = graph_from(&[1, 2], &[(0, 1, 8)]);
        let g_bad_vlabel = graph_from(&[1, 3], &[(0, 1, 7)]);
        assert!(is_subgraph_isomorphic(&p, &g_ok));
        assert!(!is_subgraph_isomorphic(&p, &g_bad_elabel));
        assert!(!is_subgraph_isomorphic(&p, &g_bad_vlabel));
    }

    #[test]
    fn non_induced_semantics() {
        // Pattern path 0-1-2 embeds in a triangle even though the triangle
        // has the extra closing edge.
        let path = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        assert!(is_subgraph_isomorphic(&path, &tri));
    }

    #[test]
    fn injectivity_enforced() {
        // Star with two leaves of the same label needs two distinct images.
        let star = graph_from(&[0, 1, 1], &[(0, 1, 0), (0, 2, 0)]);
        let single = graph_from(&[0, 1], &[(0, 1, 0)]);
        assert!(!is_subgraph_isomorphic(&star, &single));
    }

    #[test]
    fn isomorphism_detects_equivalence() {
        // Same path labeled 1-2-3, built with different vertex orders.
        let a = graph_from(&[1, 2, 3], &[(0, 1, 0), (1, 2, 0)]);
        let b = graph_from(&[3, 2, 1], &[(0, 1, 0), (1, 2, 0)]);
        let c = graph_from(&[1, 3, 2], &[(0, 2, 0), (2, 1, 0)]);
        assert!(is_isomorphic(&a, &b));
        assert!(is_isomorphic(&a, &c));
        let d = graph_from(&[1, 2, 3], &[(0, 1, 0), (0, 2, 0)]); // star, not path
        assert!(!is_isomorphic(&a, &d));
    }

    #[test]
    fn rooted_embedding_pins_root() {
        // Pattern edge a-b; target path a-b-a (vertex labels 5,6,5).
        let p = graph_from(&[5, 6], &[(0, 1, 0)]);
        let g = graph_from(&[5, 6, 5], &[(0, 1, 0), (1, 2, 0)]);
        let mut images = Vec::new();
        let _ = for_each_embedding_pinned(&p, &g, &[(VertexId(0), VertexId(2))], |m| {
            images.push(m.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(images, vec![vec![VertexId(2), VertexId(1)]]);
        // Root with wrong label yields nothing.
        let mut n = 0;
        let _ = for_each_embedding_pinned(&p, &g, &[(VertexId(0), VertexId(1))], |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(n, 0);
    }

    #[test]
    fn admits_prunes_targets_and_scratch_is_reusable() {
        // Path a-b-a in a longer path a-b-a-b-a: rooted at pattern vertex 1,
        // two host roots, two embeddings each (the flip).
        let p = graph_from(&[1, 2, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(
            &[1, 2, 1, 2, 1],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
        );
        let prepared = PreparedPattern::new(&p, Some(VertexId(1)));
        let mut scratch = MatchScratch::default();
        let mut count = |root: u32, admits: &dyn Fn(VertexId, VertexId) -> bool| {
            let mut n = 0;
            let pins = [(VertexId(1), VertexId(root))];
            let _ = prepared.for_each_embedding_pinned(&g, &pins, &mut scratch, admits, |_| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        };
        assert_eq!(count(1, &|_, _| true), 2);
        assert_eq!(count(3, &|_, _| true), 2);
        // Both embeddings at root 1 use host vertex 0; none at root 3 does.
        assert_eq!(count(1, &|_, h| h != VertexId(0)), 0);
        assert_eq!(count(3, &|_, h| h != VertexId(0)), 2);
        // A search into a smaller target after a larger one starts clean.
        let small = graph_from(&[1, 2, 1], &[(0, 1, 0), (1, 2, 0)]);
        let mut n = 0;
        let pins = [(VertexId(1), VertexId(1))];
        let _ = prepared.for_each_embedding_pinned(
            &small,
            &pins,
            &mut scratch,
            |_, _| true,
            |m| {
                assert_eq!(m[1], VertexId(1));
                n += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(n, 2);
    }

    #[test]
    fn conflicting_pins_yield_nothing_and_repeated_pins_are_one() {
        // Pattern a-a on target path a-a-a: every vertex pair is label-feasible.
        let p = graph_from(&[5, 5], &[(0, 1, 0)]);
        let g = graph_from(&[5, 5, 5], &[(0, 1, 0), (1, 2, 0)]);
        let count = |pins: &[(VertexId, VertexId)]| {
            let mut n = 0;
            let _ = for_each_embedding_pinned(&p, &g, pins, |_| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        };
        let (p0, p1) = (VertexId(0), VertexId(1));
        let (g0, g1) = (VertexId(0), VertexId(1));
        assert_eq!(count(&[(p0, g0), (p1, g1)]), 1);
        // The same pair twice is one pin.
        assert_eq!(count(&[(p0, g1)]), 2);
        assert_eq!(count(&[(p0, g1), (p0, g1)]), 2);
        // One pattern vertex on two targets; two pattern vertices on one.
        assert_eq!(count(&[(p0, g0), (p0, g1)]), 0);
        assert_eq!(count(&[(p0, g1), (p1, g1)]), 0);
    }

    #[test]
    fn cap_limits_enumeration() {
        let tri = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        let k4 = graph_from(
            &[0, 0, 0, 0],
            &[
                (0, 1, 0),
                (0, 2, 0),
                (0, 3, 0),
                (1, 2, 0),
                (1, 3, 0),
                (2, 3, 0),
            ],
        );
        assert_eq!(all_embeddings(&tri, &k4, Some(5)).len(), 5);
    }

    #[test]
    fn empty_pattern_matches_nothing() {
        let g = graph_from(&[0], &[]);
        let empty = graph_from(&[], &[]);
        assert!(find_embedding(&empty, &g).is_none());
        assert!(is_isomorphic(&empty, &empty));
    }

    #[test]
    fn disconnected_pattern() {
        // Two isolated labeled vertices must map to two distinct vertices.
        let p = graph_from(&[4, 4], &[]);
        let g1 = graph_from(&[4], &[]);
        let g2 = graph_from(&[4, 4, 1], &[(0, 2, 0)]);
        assert!(!is_subgraph_isomorphic(&p, &g1));
        assert!(is_subgraph_isomorphic(&p, &g2));
    }

    #[test]
    fn embeddings_are_valid() {
        let p = graph_from(&[1, 2, 1], &[(0, 1, 3), (1, 2, 4)]);
        let g = graph_from(&[2, 1, 1, 2], &[(1, 0, 3), (0, 2, 4), (2, 3, 3), (3, 1, 4)]);
        for emb in all_embeddings(&p, &g, None) {
            // check labels and edges
            for pv in p.vertices() {
                assert_eq!(p.vlabel(pv), g.vlabel(emb[pv.idx()]));
            }
            for e in p.edges() {
                let ge = g
                    .edge_between(emb[e.u.idx()], emb[e.v.idx()])
                    .expect("pattern edge must be mapped");
                assert_eq!(g.edge(ge).label, e.label);
            }
        }
    }
}
