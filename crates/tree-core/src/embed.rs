//! Embedding feature trees into database graphs, tracking where the
//! embeddings are *centered*.
//!
//! This is the location information TreePi stores (paper §4.2.1): for each
//! feature tree `t` and each graph `g` containing it, the set of vertices
//! (or edges, for bicentral `t`) of `g` at which some embedding of `t` is
//! centered. The pruning and verification stages never need full
//! embeddings, only these centers — which is what makes the location store
//! fit in memory where gIndex had to discard occurrence information.
//!
//! [`center_positions`] finds all centers of one tree in one graph from
//! scratch: the reference the miner's posting lists and the guided walk's
//! `insert` are tested against (the build never searches, and query
//! verification pins the whole query at a stored position instead).

use crate::center::{center, Center};
use crate::tree::Tree;
use graph_core::iso::{MatchScratch, PreparedPattern};
use graph_core::{EdgeId, Graph, VertexId};
use std::ops::ControlFlow;

/// A position in a *host graph* where a feature-tree embedding is centered.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CenterPos {
    /// Image of a vertex center.
    Vertex(VertexId),
    /// Image of an edge center.
    Edge(EdgeId),
}

impl CenterPos {
    /// Representative vertices of the position (1 for a vertex, the two
    /// endpoints for an edge). Distances between positions are measured
    /// between representatives.
    pub fn representatives(&self, g: &Graph) -> smallvec::SmallVec<[VertexId; 2]> {
        match *self {
            CenterPos::Vertex(v) => smallvec::smallvec![v],
            CenterPos::Edge(e) => {
                let edge = g.edge(e);
                smallvec::smallvec![edge.u, edge.v]
            }
        }
    }
}

/// All positions in `g` at which some embedding of `t` is centered, in
/// ascending id order, by a rooted search from every label-matched anchor.
///
/// Exhaustive (every position is found): soundness of Center Distance
/// Constraint pruning requires that the center of the *true* embedding of
/// each partitioned feature tree is among the stored positions.
pub fn center_positions(t: &Tree, g: &Graph) -> Vec<CenterPos> {
    // Every probe pins the same root (the center vertex, or the center
    // edge's `u` in both orientations): one search plan serves them all.
    let matcher = CenteredMatcher::new(t);
    let mut scratch = MatchScratch::default();
    let mut centered_at = |pos| {
        matcher
            .for_each_embedding_centered(g, pos, &mut scratch, |_| ControlFlow::Break(()))
            .is_break()
    };
    let mut out = Vec::new();
    match matcher.center {
        Center::Vertex(c) => {
            let want = t.graph().vlabel(c);
            for v in g.vertices().filter(|&v| g.vlabel(v) == want) {
                if centered_at(CenterPos::Vertex(v)) {
                    out.push(CenterPos::Vertex(v));
                }
            }
        }
        Center::Edge(ce) => {
            let want = t.graph().edge(ce).label;
            for ge in g.edge_ids().filter(|&ge| g.edge(ge).label == want) {
                if centered_at(CenterPos::Edge(ge)) {
                    out.push(CenterPos::Edge(ge));
                }
            }
        }
    }
    out
}

/// Enumerate embeddings of `t` into `g` whose center maps to `pos`,
/// invoking `f` with the vertex mapping (tree vertex i → `mapping[i]`).
///
/// For an edge position both orientations of the center edge are tried.
pub fn for_each_embedding_centered<F>(t: &Tree, g: &Graph, pos: CenterPos, f: F) -> ControlFlow<()>
where
    F: FnMut(&[VertexId]) -> ControlFlow<()>,
{
    CenteredMatcher::new(t).for_each_embedding_centered(g, pos, &mut MatchScratch::default(), f)
}

/// A tree prepared for repeated centered-embedding retrieval: the search
/// plan (rooted at the tree's center) is computed once and reused for every
/// position [`center_positions`] probes.
struct CenteredMatcher<'t> {
    tree: &'t Tree,
    center: Center,
    prepared: PreparedPattern<'t>,
}

impl<'t> CenteredMatcher<'t> {
    fn new(t: &'t Tree) -> Self {
        let c = center(t);
        let root = match c {
            Center::Vertex(v) => v,
            Center::Edge(e) => t.graph().edge(e).u,
        };
        Self {
            tree: t,
            center: c,
            prepared: PreparedPattern::new(t.graph(), Some(root)),
        }
    }

    /// Enumerate embeddings into `g` centered at `pos` (both orientations
    /// for edge centers).
    fn for_each_embedding_centered<F>(
        &self,
        g: &Graph,
        pos: CenterPos,
        scratch: &mut MatchScratch,
        mut f: F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&[VertexId]) -> ControlFlow<()>,
    {
        match (self.center, pos) {
            (Center::Vertex(c), CenterPos::Vertex(v)) => {
                let pins = [(c, v)];
                self.prepared
                    .for_each_embedding_pinned(g, &pins, scratch, |_, _| true, f)
            }
            (Center::Edge(ce), CenterPos::Edge(ge)) => {
                let cedge = self.tree.graph().edge(ce);
                let gedge = g.edge(ge);
                if gedge.label != cedge.label {
                    return ControlFlow::Continue(());
                }
                for (a, b) in [(gedge.u, gedge.v), (gedge.v, gedge.u)] {
                    let pins = [(cedge.u, a), (cedge.v, b)];
                    self.prepared.for_each_embedding_pinned(
                        g,
                        &pins,
                        scratch,
                        |_, _| true,
                        &mut f,
                    )?;
                }
                ControlFlow::Continue(())
            }
            // Mismatched kinds can never align a center onto the position.
            _ => ControlFlow::Continue(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::tree_from;
    use graph_core::graph_from;

    #[test]
    fn vertex_center_positions_on_path() {
        // Feature: path a-b-a centered at b. Host: path a-b-a-b-a.
        let t = tree_from(&[1, 2, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(
            &[1, 2, 1, 2, 1],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
        );
        let pos = center_positions(&t, &g);
        assert_eq!(
            pos,
            vec![
                CenterPos::Vertex(VertexId(1)),
                CenterPos::Vertex(VertexId(3))
            ]
        );
    }

    #[test]
    fn edge_center_positions() {
        // Feature: single edge a-b (bicentral). Host has two such edges.
        let t = tree_from(&[1, 2], &[(0, 1, 5)]);
        let g = graph_from(&[1, 2, 1, 2], &[(0, 1, 5), (1, 2, 6), (2, 3, 5)]);
        let pos = center_positions(&t, &g);
        assert_eq!(
            pos,
            vec![CenterPos::Edge(EdgeId(0)), CenterPos::Edge(EdgeId(2))]
        );
    }

    #[test]
    fn no_positions_when_absent() {
        let t = tree_from(&[9, 9], &[(0, 1, 0)]);
        let g = graph_from(&[1, 2], &[(0, 1, 0)]);
        assert!(center_positions(&t, &g).is_empty());
    }

    #[test]
    fn centered_embeddings_are_centered() {
        let t = tree_from(&[1, 2, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g = graph_from(
            &[1, 2, 1, 2, 1],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0)],
        );
        let mut count = 0;
        let _ = for_each_embedding_centered(&t, &g, CenterPos::Vertex(VertexId(1)), |m| {
            assert_eq!(m[1], VertexId(1)); // tree center is vertex 1
            count += 1;
            ControlFlow::Continue(())
        });
        // leaves 0 and 2 of the host flank vertex 1: two embeddings (swap)
        assert_eq!(count, 2);
    }

    #[test]
    fn centered_embeddings_edge_orientations() {
        // Bicentral path x-a-b-y with distinct ends; host identical.
        let t = tree_from(&[7, 1, 2, 8], &[(0, 1, 0), (1, 2, 3), (2, 3, 0)]);
        let g = graph_from(&[7, 1, 2, 8], &[(0, 1, 0), (1, 2, 3), (2, 3, 0)]);
        let pos = center_positions(&t, &g);
        assert_eq!(pos, vec![CenterPos::Edge(EdgeId(1))]);
        let mut count = 0;
        let _ = for_each_embedding_centered(&t, &g, pos[0], |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn symmetric_edge_center_counts_both_orientations() {
        // Symmetric single-edge pattern a-a on host edge a-a: both
        // orientations are distinct embeddings.
        let t = tree_from(&[1, 1], &[(0, 1, 0)]);
        let g = graph_from(&[1, 1], &[(0, 1, 0)]);
        let mut count = 0;
        let _ = for_each_embedding_centered(&t, &g, CenterPos::Edge(EdgeId(0)), |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn positions_in_cyclic_host() {
        // Star feature centered at hub; host is a wheel-ish graph.
        let t = tree_from(&[0, 1, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let g = graph_from(
            &[0, 1, 1, 1, 0],
            &[(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (4, 1, 0)],
        );
        let pos = center_positions(&t, &g);
        assert_eq!(pos, vec![CenterPos::Vertex(VertexId(0))]);
    }
}
