//! Directed labeled graphs and their reduction to the undirected engine
//! (paper §7.2: "it is easy to extend our method to directed labeled
//! graphs").
//!
//! The paper sketches adapting the miner and canonical forms to carry edge
//! directions; we implement the equivalent (and provably correct)
//! **subdivision encoding** instead: every directed edge `u →ℓ v` becomes a
//! midpoint vertex `m` with two undirected edges `u —(2ℓ)— m —(2ℓ+1)— v`.
//! Midpoint vertices live in a reserved label range, so
//!
//! * the encoding is isomorphism-invariant (no dependence on vertex ids),
//! * directed (sub)graph isomorphism holds between two digraphs **iff**
//!   undirected (sub)graph isomorphism holds between their encodings, and
//! * the whole TreePi pipeline — mining, centers, partitions, pruning,
//!   verification — applies unchanged, exactly as §7.2 claims for the
//!   query-processing phase.

use crate::graph::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use crate::iso::for_each_embedding;
use std::ops::ControlFlow;

/// Reserved vertex-label base for edge midpoints in the encoding. Real
/// vertex labels must stay below this value.
pub const MIDPOINT_LABEL_BASE: u32 = 0x4000_0000;

/// A directed edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Arc {
    /// Source vertex.
    pub from: VertexId,
    /// Target vertex.
    pub to: VertexId,
    /// Arc label.
    pub label: ELabel,
}

/// A directed labeled graph (multi-arcs and 2-cycles allowed; self loops
/// rejected).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiGraph {
    vlabels: Vec<VLabel>,
    arcs: Vec<Arc>,
}

impl DiGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vlabels.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Vertex label.
    pub fn vlabel(&self, v: VertexId) -> VLabel {
        self.vlabels[v.idx()]
    }

    /// All arcs.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Iterator over vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vlabels.len() as u32).map(VertexId)
    }

    /// Out-neighbors of `v` as (target, label) pairs.
    pub fn out_neighbors(&self, v: VertexId) -> Vec<(VertexId, ELabel)> {
        self.arcs
            .iter()
            .filter(|a| a.from == v)
            .map(|a| (a.to, a.label))
            .collect()
    }

    /// Encode as an undirected graph by subdividing every arc.
    ///
    /// Vertices keep their ids; arc `i` becomes midpoint vertex
    /// `n + i` labeled `MIDPOINT_LABEL_BASE + label`, connected by an
    /// out-side edge labeled `2·label` and an in-side edge labeled
    /// `2·label + 1`.
    pub fn encode(&self) -> Graph {
        let n = self.vertex_count();
        let mut b = GraphBuilder::with_capacity(n + self.arcs.len(), 2 * self.arcs.len());
        for &l in &self.vlabels {
            debug_assert!(
                l.0 < MIDPOINT_LABEL_BASE,
                "vertex label collides with midpoint range"
            );
            b.add_vertex(l);
        }
        for a in &self.arcs {
            let m = b.add_vertex(VLabel(MIDPOINT_LABEL_BASE + a.label.0));
            b.add_edge(a.from, m, ELabel(2 * a.label.0))
                .expect("fresh midpoint edges are simple");
            b.add_edge(m, a.to, ELabel(2 * a.label.0 + 1))
                .expect("fresh midpoint edges are simple");
        }
        b.build()
    }
}

/// Errors raised while building a digraph.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiBuildError {
    /// An arc endpoint does not exist.
    UnknownVertex(VertexId),
    /// A self loop was requested.
    SelfLoop(VertexId),
    /// A parallel arc (same source, target, label) already exists.
    DuplicateArc,
    /// A vertex label fell into the reserved midpoint range.
    ReservedLabel(u32),
}

/// Builder for [`DiGraph`].
#[derive(Clone, Default, Debug)]
pub struct DiGraphBuilder {
    vlabels: Vec<VLabel>,
    arcs: Vec<Arc>,
}

impl DiGraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a vertex.
    pub fn add_vertex(&mut self, label: VLabel) -> Result<VertexId, DiBuildError> {
        if label.0 >= MIDPOINT_LABEL_BASE {
            return Err(DiBuildError::ReservedLabel(label.0));
        }
        let id = VertexId(self.vlabels.len() as u32);
        self.vlabels.push(label);
        Ok(id)
    }

    /// Add a directed arc.
    pub fn add_arc(
        &mut self,
        from: VertexId,
        to: VertexId,
        label: ELabel,
    ) -> Result<(), DiBuildError> {
        let n = self.vlabels.len() as u32;
        if from.0 >= n {
            return Err(DiBuildError::UnknownVertex(from));
        }
        if to.0 >= n {
            return Err(DiBuildError::UnknownVertex(to));
        }
        if from == to {
            return Err(DiBuildError::SelfLoop(from));
        }
        let arc = Arc { from, to, label };
        if self.arcs.contains(&arc) {
            return Err(DiBuildError::DuplicateArc);
        }
        self.arcs.push(arc);
        Ok(())
    }

    /// Finish building.
    pub fn build(self) -> DiGraph {
        DiGraph {
            vlabels: self.vlabels,
            arcs: self.arcs,
        }
    }
}

/// Convenience constructor: vertex labels plus `(from, to, label)` arcs.
///
/// # Panics
/// Panics on invalid input.
pub fn digraph_from(vlabels: &[u32], arcs: &[(u32, u32, u32)]) -> DiGraph {
    let mut b = DiGraphBuilder::new();
    for &l in vlabels {
        b.add_vertex(VLabel(l)).expect("digraph_from: bad label");
    }
    for &(u, v, l) in arcs {
        b.add_arc(VertexId(u), VertexId(v), ELabel(l))
            .expect("digraph_from: bad arc");
    }
    b.build()
}

/// Directed subgraph isomorphism (oracle used in tests and by the wrapper's
/// documentation of correctness): does `p` embed in `g` preserving vertex
/// labels, arc directions, and arc labels?
pub fn is_sub_digraph_isomorphic(p: &DiGraph, g: &DiGraph) -> bool {
    // Reduction: p ⊆ g as digraphs iff encode(p) ⊆ encode(g) undirected.
    // (Midpoint vertices can only map to midpoint vertices — the labels are
    // disjoint — and the 2ℓ/2ℓ+1 edge labels force the orientation.)
    let ep = p.encode();
    let eg = g.encode();
    let mut found = false;
    let _ = for_each_embedding(&ep, &eg, |_| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_shapes() {
        let d = digraph_from(&[1, 2], &[(0, 1, 5)]);
        let e = d.encode();
        assert_eq!(e.vertex_count(), 3);
        assert_eq!(e.edge_count(), 2);
        assert_eq!(e.vlabel(VertexId(2)).0, MIDPOINT_LABEL_BASE + 5);
    }

    #[test]
    fn direction_matters() {
        let fwd = digraph_from(&[1, 2], &[(0, 1, 0)]);
        let bwd = digraph_from(&[1, 2], &[(1, 0, 0)]);
        assert!(is_sub_digraph_isomorphic(&fwd, &fwd));
        assert!(!is_sub_digraph_isomorphic(&fwd, &bwd));
        assert!(!is_sub_digraph_isomorphic(&bwd, &fwd));
    }

    #[test]
    fn two_cycle_supported() {
        // u ⇄ v is representable (two arcs) and contains both single arcs.
        let cyc = digraph_from(&[1, 1], &[(0, 1, 0), (1, 0, 0)]);
        let one = digraph_from(&[1, 1], &[(0, 1, 0)]);
        assert!(is_sub_digraph_isomorphic(&one, &cyc));
        assert!(!is_sub_digraph_isomorphic(&cyc, &one));
    }

    #[test]
    fn chain_containment() {
        let chain3 = digraph_from(&[0, 0, 0], &[(0, 1, 0), (1, 2, 0)]);
        let chain2 = digraph_from(&[0, 0], &[(0, 1, 0)]);
        // anti-chain: arcs point inward — not a directed 2-chain host
        let inward = digraph_from(&[0, 0, 0], &[(0, 1, 0), (2, 1, 0)]);
        assert!(is_sub_digraph_isomorphic(&chain2, &chain3));
        assert!(is_sub_digraph_isomorphic(&chain2, &inward));
        assert!(!is_sub_digraph_isomorphic(&chain3, &inward));
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = DiGraphBuilder::new();
        assert!(matches!(
            b.add_vertex(VLabel(MIDPOINT_LABEL_BASE)),
            Err(DiBuildError::ReservedLabel(_))
        ));
        let u = b.add_vertex(VLabel(0)).unwrap();
        let v = b.add_vertex(VLabel(0)).unwrap();
        assert_eq!(b.add_arc(u, u, ELabel(0)), Err(DiBuildError::SelfLoop(u)));
        b.add_arc(u, v, ELabel(0)).unwrap();
        assert_eq!(b.add_arc(u, v, ELabel(0)), Err(DiBuildError::DuplicateArc));
        // opposite direction is a different arc
        assert!(b.add_arc(v, u, ELabel(0)).is_ok());
        assert_eq!(
            b.add_arc(u, VertexId(9), ELabel(0)),
            Err(DiBuildError::UnknownVertex(VertexId(9)))
        );
    }

    #[test]
    fn out_neighbors() {
        let d = digraph_from(&[0, 1, 2], &[(0, 1, 5), (0, 2, 6), (2, 0, 7)]);
        let outs = d.out_neighbors(VertexId(0));
        assert_eq!(outs.len(), 2);
        assert!(outs.contains(&(VertexId(1), ELabel(5))));
        assert!(outs.contains(&(VertexId(2), ELabel(6))));
        assert_eq!(d.out_neighbors(VertexId(1)).len(), 0);
    }
}
