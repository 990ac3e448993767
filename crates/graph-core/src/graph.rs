//! Labeled undirected graph representation.
//!
//! Graphs are built with [`GraphBuilder`] and immutable afterwards, matching
//! the paper's setting where the database is preprocessed once and queried
//! many times. Vertices and edges are identified by dense `u32` ids; labels
//! are opaque `u32` values (see [`crate::io::LabelInterner`] for mapping
//! strings such as atom names onto them).

use smallvec::SmallVec;
use std::fmt;

/// Identifier of a vertex within one graph. Dense, starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexId(pub u32);

/// Identifier of an edge within one graph. Dense, starting at 0, in
/// insertion order. Stable edge ids let the TreePi index store *edge*
/// center positions for bicentral feature trees.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// Vertex label (e.g. an atom type).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VLabel(pub u32);

/// Edge label (e.g. a bond type).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ELabel(pub u32);

/// Largest vertex or edge label accepted from outside the program (gSpan
/// text, index files). Canonical forms add a small tag offset to every
/// label (`tree_core::canonical`, [`crate::canon`]); keeping labels at or
/// below this bound keeps those sums inside `u32`, so no label can alias a
/// tag or another label.
pub const MAX_LABEL: u32 = u32::MAX - 4;

impl VertexId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usize, for indexing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An undirected labeled edge. Endpoints are stored with `u <= v` never
/// enforced; use [`Edge::other`] to walk from a known endpoint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// The edge label.
    pub label: ELabel,
}

impl Edge {
    /// Given one endpoint, return the other.
    ///
    /// # Panics
    /// Panics if `w` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, w: VertexId) -> VertexId {
        if w == self.u {
            self.v
        } else {
            debug_assert_eq!(w, self.v, "vertex is not an endpoint of this edge");
            self.u
        }
    }

    /// Whether `w` is an endpoint.
    #[inline]
    pub fn touches(&self, w: VertexId) -> bool {
        w == self.u || w == self.v
    }
}

/// An immutable labeled undirected graph (Definition 1 of the paper).
///
/// Self-loops and parallel edges are rejected at build time: the paper's
/// datasets (chemical compounds, synthetic fragment compositions) are simple
/// graphs, and tree centers are only defined for simple structures.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    vlabels: Vec<VLabel>,
    edges: Vec<Edge>,
    /// CSR adjacency: the (neighbor, edge id) pairs of vertex `v` are
    /// `adj[off[v]..off[v + 1]]`, in edge-id order. `off` has one entry per
    /// vertex plus one, and none at all for the empty graph.
    off: Vec<u32>,
    adj: Vec<(VertexId, EdgeId)>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vlabels.len() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn vlabel(&self, v: VertexId) -> VLabel {
        self.vlabels[v.idx()]
    }

    /// The edge with id `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.idx()]
    }

    /// All edges in id order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of `v` as (neighbor, edge id) pairs.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        &self.adj[self.off[v.idx()] as usize..self.off[v.idx() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.off[v.idx() + 1] - self.off[v.idx()]) as usize
    }

    /// The edge between `u` and `v`, if any.
    pub fn edge_between(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        let (small, target) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(small)
            .iter()
            .find(|(n, _)| *n == target)
            .map(|&(_, e)| e)
    }

    /// Whether the graph is connected (the empty graph counts as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![VertexId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(w, _) in self.neighbors(v) {
                if !seen[w.idx()] {
                    seen[w.idx()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Whether the graph is a free tree: connected with |E| = |V| - 1.
    pub fn is_tree(&self) -> bool {
        self.vertex_count() >= 1
            && self.edge_count() + 1 == self.vertex_count()
            && self.is_connected()
    }

    /// Multiset of vertex labels, as sorted vec (useful as a cheap
    /// containment pre-check: a pattern cannot embed if its label counts
    /// exceed the target's).
    pub fn vlabel_multiset(&self) -> Vec<VLabel> {
        let mut m = self.vlabels.clone();
        m.sort_unstable();
        m
    }

    /// Estimated heap bytes held by this graph: label, edge, and adjacency
    /// storage. Length-based (live elements, not reserved capacity), so the
    /// estimate is deterministic for a given graph regardless of build
    /// history; feeds the `mem.*` observability gauges.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.vlabels.len() * size_of::<VLabel>()
            + self.edges.len() * size_of::<Edge>()
            + self.off.len() * size_of::<u32>()
            + self.adj.len() * size_of::<(VertexId, EdgeId)>()
    }

    /// Multiset of `(min endpoint label, edge label, max endpoint label)`
    /// triples, sorted. Two isomorphic graphs have equal triple multisets.
    pub fn edge_triple_multiset(&self) -> Vec<(VLabel, ELabel, VLabel)> {
        let mut m: Vec<_> = self
            .edges
            .iter()
            .map(|e| {
                let a = self.vlabel(e.u);
                let b = self.vlabel(e.v);
                (a.min(b), e.label, a.max(b))
            })
            .collect();
        m.sort_unstable();
        m
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Graph(|V|={}, |E|={})",
            self.vertex_count(),
            self.edge_count()
        )?;
        for v in self.vertices() {
            writeln!(f, "  v {} {}", v.0, self.vlabel(v).0)?;
        }
        for e in &self.edges {
            writeln!(f, "  e {} {} {}", e.u.0, e.v.0, e.label.0)?;
        }
        Ok(())
    }
}

/// Errors raised while building a graph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BuildError {
    /// An edge endpoint does not name an existing vertex.
    UnknownVertex(VertexId),
    /// Both endpoints of an edge are the same vertex.
    SelfLoop(VertexId),
    /// An edge between these endpoints already exists.
    ParallelEdge(VertexId, VertexId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownVertex(v) => write!(f, "unknown vertex {}", v.0),
            BuildError::SelfLoop(v) => write!(f, "self loop at vertex {}", v.0),
            BuildError::ParallelEdge(u, v) => {
                write!(f, "parallel edge between {} and {}", u.0, v.0)
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`Graph`].
#[derive(Clone, Default, Debug)]
pub struct GraphBuilder {
    vlabels: Vec<VLabel>,
    edges: Vec<Edge>,
    adj: Vec<SmallVec<[(VertexId, EdgeId); 6]>>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with vertex capacity reserved.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        Self {
            vlabels: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
            adj: Vec::with_capacity(vertices),
        }
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Add a vertex with the given label, returning its id.
    pub fn add_vertex(&mut self, label: VLabel) -> VertexId {
        let id = VertexId(self.vlabels.len() as u32);
        self.vlabels.push(label);
        self.adj.push(SmallVec::new());
        id
    }

    /// Add an undirected edge, returning its id.
    pub fn add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        label: ELabel,
    ) -> Result<EdgeId, BuildError> {
        let n = self.vlabels.len() as u32;
        if u.0 >= n {
            return Err(BuildError::UnknownVertex(u));
        }
        if v.0 >= n {
            return Err(BuildError::UnknownVertex(v));
        }
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        if self.adj[u.idx()].iter().any(|(w, _)| *w == v) {
            return Err(BuildError::ParallelEdge(u, v));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { u, v, label });
        self.adj[u.idx()].push((v, id));
        self.adj[v.idx()].push((u, id));
        Ok(id)
    }

    /// Label of an already-added vertex.
    pub fn vlabel(&self, v: VertexId) -> VLabel {
        self.vlabels[v.idx()]
    }

    /// Whether an edge between `u` and `v` already exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        u.idx() < self.adj.len() && self.adj[u.idx()].iter().any(|(w, _)| *w == v)
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.idx()].len()
    }

    /// Finish building: the per-vertex lists, each already in edge-id
    /// order, are laid end to end.
    pub fn build(self) -> Graph {
        let mut off = Vec::new();
        let mut adj = Vec::with_capacity(2 * self.edges.len());
        if !self.adj.is_empty() {
            off.reserve_exact(self.adj.len() + 1);
            off.push(0);
            for list in &self.adj {
                adj.extend_from_slice(list);
                off.push(u32::try_from(adj.len()).expect("adjacency offsets fit u32"));
            }
        }
        Graph {
            vlabels: self.vlabels,
            edges: self.edges,
            off,
            adj,
        }
    }
}

/// Convenience constructor used pervasively in tests and examples: build a
/// graph from vertex labels and `(u, v, edge label)` triples.
///
/// # Panics
/// Panics on invalid edges (unknown endpoint, self loop, parallel edge).
pub fn graph_from(vlabels: &[u32], edges: &[(u32, u32, u32)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(vlabels.len(), edges.len());
    for &l in vlabels {
        b.add_vertex(VLabel(l));
    }
    for &(u, v, l) in edges {
        b.add_edge(VertexId(u), VertexId(v), ELabel(l))
            .expect("invalid edge in graph_from");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let g = graph_from(&[1, 2, 3], &[(0, 1, 10), (1, 2, 11)]);
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.vlabel(VertexId(0)), VLabel(1));
        assert_eq!(g.edge(EdgeId(0)).label, ELabel(10));
        assert_eq!(g.degree(VertexId(1)), 2);
        assert!(g.is_connected());
        assert!(g.is_tree());
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new();
        let v = b.add_vertex(VLabel(0));
        assert_eq!(b.add_edge(v, v, ELabel(0)), Err(BuildError::SelfLoop(v)));
    }

    #[test]
    fn rejects_parallel_edge() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VLabel(0));
        let v = b.add_vertex(VLabel(0));
        b.add_edge(u, v, ELabel(0)).unwrap();
        assert_eq!(
            b.add_edge(v, u, ELabel(1)),
            Err(BuildError::ParallelEdge(v, u))
        );
    }

    #[test]
    fn rejects_unknown_vertex() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(VLabel(0));
        assert_eq!(
            b.add_edge(u, VertexId(7), ELabel(0)),
            Err(BuildError::UnknownVertex(VertexId(7)))
        );
    }

    #[test]
    fn edge_between_finds_edges() {
        let g = graph_from(&[0, 0, 0], &[(0, 1, 5), (1, 2, 6)]);
        assert_eq!(g.edge_between(VertexId(0), VertexId(1)), Some(EdgeId(0)));
        assert_eq!(g.edge_between(VertexId(1), VertexId(0)), Some(EdgeId(0)));
        assert_eq!(g.edge_between(VertexId(0), VertexId(2)), None);
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = graph_from(&[0, 0, 0, 0], &[(0, 1, 0), (2, 3, 0)]);
        assert!(!g.is_connected());
        assert!(!g.is_tree());
    }

    #[test]
    fn cycle_is_not_tree() {
        let g = graph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0), (2, 0, 0)]);
        assert!(g.is_connected());
        assert!(!g.is_tree());
    }

    #[test]
    fn single_vertex_is_tree() {
        let g = graph_from(&[3], &[]);
        assert!(g.is_tree());
        assert!(g.is_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = graph_from(&[], &[]);
        assert!(g.is_connected());
        // but not a tree: a tree needs at least one vertex
        assert!(!g.is_tree());
    }

    #[test]
    fn empty_graph_holds_no_heap() {
        // A tombstoned database slot is an empty graph and must weigh 0.
        assert_eq!(graph_from(&[], &[]).heap_bytes(), 0);
        assert_eq!(GraphBuilder::new().build(), graph_from(&[], &[]));
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge {
            u: VertexId(3),
            v: VertexId(5),
            label: ELabel(0),
        };
        assert_eq!(e.other(VertexId(3)), VertexId(5));
        assert_eq!(e.other(VertexId(5)), VertexId(3));
        assert!(e.touches(VertexId(3)));
        assert!(!e.touches(VertexId(4)));
    }

    #[test]
    fn label_multisets() {
        let g = graph_from(&[2, 1, 2], &[(0, 1, 9), (1, 2, 4)]);
        assert_eq!(g.vlabel_multiset(), vec![VLabel(1), VLabel(2), VLabel(2)]);
        assert_eq!(
            g.edge_triple_multiset(),
            vec![
                (VLabel(1), ELabel(4), VLabel(2)),
                (VLabel(1), ELabel(9), VLabel(2))
            ]
        );
    }
}
