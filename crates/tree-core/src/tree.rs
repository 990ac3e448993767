//! The free labeled tree type.
//!
//! A [`Tree`] is a connected acyclic [`Graph`] — the index structure class
//! the paper argues for: rich enough to preserve most structural
//! information, yet with polynomial-time canonical forms and a unique
//! center (Theorem 1).

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use std::fmt;

/// Error returned when a graph is not a free tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NotATree;

impl fmt::Display for NotATree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "graph is not a free tree (must be connected and acyclic)"
        )
    }
}

impl std::error::Error for NotATree {}

/// A free labeled tree. Wraps a [`Graph`] with the tree invariant
/// (connected, |E| = |V| − 1, at least one vertex) checked at construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tree {
    graph: Graph,
}

impl Tree {
    /// Validate and wrap a graph.
    pub fn from_graph(graph: Graph) -> Result<Self, NotATree> {
        if graph.is_tree() {
            Ok(Self { graph })
        } else {
            Err(NotATree)
        }
    }

    /// The single-edge tree `a —el— b`, smaller endpoint label first: one
    /// representative per labeled edge, whichever way the edge is read.
    pub fn single_edge(a: VLabel, el: ELabel, b: VLabel) -> Self {
        let mut gb = GraphBuilder::with_capacity(2, 1);
        let u = gb.add_vertex(a.min(b));
        let v = gb.add_vertex(a.max(b));
        gb.add_edge(u, v, el).expect("two distinct fresh vertices");
        Self { graph: gb.build() }
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges ("size" in the paper's σ(s) function is edge count).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Vertices with degree ≤ 1 (the peeling seeds for center finding).
    pub fn leaves(&self) -> Vec<VertexId> {
        self.graph
            .vertices()
            .filter(|&v| self.graph.degree(v) <= 1)
            .collect()
    }

    /// Consume, returning the underlying graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }
}

/// Convenience constructor mirroring [`graph_core::graph_from`].
///
/// # Panics
/// Panics if the described graph is not a tree.
pub fn tree_from(vlabels: &[u32], edges: &[(u32, u32, u32)]) -> Tree {
    Tree::from_graph(graph_core::graph_from(vlabels, edges)).expect("tree_from: not a tree")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    #[test]
    fn accepts_trees() {
        assert!(Tree::from_graph(graph_from(&[1], &[])).is_ok());
        assert!(Tree::from_graph(graph_from(&[1, 2], &[(0, 1, 0)])).is_ok());
        let path = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        assert!(Tree::from_graph(path).is_ok());
    }

    #[test]
    fn rejects_cycles_and_forests() {
        let cycle = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        assert_eq!(Tree::from_graph(cycle), Err(NotATree));
        let forest = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (2, 3, 0)]);
        assert_eq!(Tree::from_graph(forest), Err(NotATree));
        let empty = graph_from(&[], &[]);
        assert_eq!(Tree::from_graph(empty), Err(NotATree));
    }

    #[test]
    fn single_edge_is_orientation_independent() {
        let t = Tree::single_edge(VLabel(7), ELabel(3), VLabel(2));
        assert_eq!(t, Tree::single_edge(VLabel(2), ELabel(3), VLabel(7)));
        assert_eq!(t, tree_from(&[2, 7], &[(0, 1, 3)]));
    }

    #[test]
    fn leaves_of_star() {
        let star = tree_from(&[0, 1, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let mut ls = star.leaves();
        ls.sort();
        assert_eq!(ls, vec![VertexId(1), VertexId(2), VertexId(3)]);
    }

    #[test]
    fn single_vertex_is_its_own_leaf() {
        let t = tree_from(&[5], &[]);
        assert_eq!(t.leaves(), vec![VertexId(0)]);
        assert_eq!(t.edge_count(), 0);
    }
}
