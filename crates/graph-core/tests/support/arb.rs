//! The random connected graph the property tests of `mining`, `gindex`,
//! `pathgrep` and `treepi` draw, included by path (`#[path = …] mod arb;`)
//! so the four test binaries share one definition.

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use proptest::prelude::*;

/// A random connected labeled graph of 2..=`nmax` vertices over three
/// vertex and two edge labels: a random tree plus fewer than `extras`
/// extra edges.
pub fn arb_connected_graph(nmax: usize, extras: usize) -> impl Strategy<Value = Graph> {
    (2..=nmax).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0u32..3, n);
        let parents = proptest::collection::vec((0usize..nmax, 0u32..2), n - 1);
        let extras = proptest::collection::vec((0usize..nmax, 0usize..nmax, 0u32..2), 0..extras);
        (vlabels, parents, extras).prop_map(move |(vl, ps, ex)| {
            let mut b = GraphBuilder::new();
            for l in &vl {
                b.add_vertex(VLabel(*l));
            }
            for (i, (p, el)) in ps.iter().enumerate() {
                let (v, p) = (VertexId((i + 1) as u32), VertexId((p % (i + 1)) as u32));
                b.add_edge(v, p, ELabel(*el)).expect("tree edge");
            }
            for (u, v, el) in ex {
                let (u, v) = (VertexId((u % n) as u32), VertexId((v % n) as u32));
                if u != v && !b.has_edge(u, v) {
                    let _ = b.add_edge(u, v, ELabel(el));
                }
            }
            b.build()
        })
    })
}
