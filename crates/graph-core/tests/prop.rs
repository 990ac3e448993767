//! Property tests for the graph substrate: canonical codes are permutation
//! invariants, isomorphism test properties, enumeration completeness.

use graph_core::*;
use proptest::prelude::*;

/// Strategy: a random labeled graph with up to `nmax` vertices. Edges are
/// deduped; self loops dropped.
fn arb_graph(nmax: usize) -> impl Strategy<Value = Graph> {
    (2..=nmax).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0u32..4, n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 0u32..3), 0..(2 * n));
        (vlabels, edges).prop_map(|(vl, es)| {
            let mut b = GraphBuilder::new();
            for l in &vl {
                b.add_vertex(VLabel(*l));
            }
            for (u, v, l) in es {
                if u != v && !b.has_edge(VertexId(u), VertexId(v)) {
                    let _ = b.add_edge(VertexId(u), VertexId(v), ELabel(l));
                }
            }
            b.build()
        })
    })
}

/// Relabel the vertices of `g` by the permutation `perm` (perm[i] = new id
/// of old vertex i).
fn permute(g: &Graph, perm: &[u32]) -> Graph {
    let mut b = GraphBuilder::new();
    // inverse: position j holds old vertex with perm[old] == j
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    for &old in &inv {
        b.add_vertex(g.vlabel(VertexId(old)));
    }
    for e in g.edges() {
        b.add_edge(
            VertexId(perm[e.u.idx()]),
            VertexId(perm[e.v.idx()]),
            e.label,
        )
        .expect("permutation preserves simplicity");
    }
    b.build()
}

fn arb_graph_and_perm(nmax: usize) -> impl Strategy<Value = (Graph, Vec<u32>)> {
    arb_graph(nmax).prop_flat_map(|g| {
        let n = g.vertex_count();
        (
            Just(g),
            Just((0..n as u32).collect::<Vec<u32>>()).prop_shuffle(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_code_is_permutation_invariant((g, perm) in arb_graph_and_perm(7)) {
        let h = permute(&g, &perm);
        prop_assert_eq!(canonical_code(&g), canonical_code(&h));
    }

    #[test]
    fn permuted_graphs_are_isomorphic((g, perm) in arb_graph_and_perm(7)) {
        let h = permute(&g, &perm);
        prop_assert!(is_isomorphic(&g, &h));
    }

    #[test]
    fn canonical_code_equality_implies_isomorphism(a in arb_graph(5), b in arb_graph(5)) {
        // Both directions: the code is a complete invariant.
        prop_assert_eq!(canonical_code(&a) == canonical_code(&b), is_isomorphic(&a, &b));
    }

    #[test]
    fn embeddings_preserve_labels_and_edges(g in arb_graph(6), (h, perm) in arb_graph_and_perm(6)) {
        let _ = perm;
        for emb in all_embeddings(&g, &h, Some(50)) {
            for v in g.vertices() {
                prop_assert_eq!(g.vlabel(v), h.vlabel(emb[v.idx()]));
            }
            for e in g.edges() {
                let he = h.edge_between(emb[e.u.idx()], emb[e.v.idx()]);
                prop_assert!(he.is_some());
                prop_assert_eq!(h.edge(he.unwrap()).label, e.label);
            }
            // injectivity
            let mut images: Vec<_> = emb.clone();
            images.sort();
            images.dedup();
            prop_assert_eq!(images.len(), emb.len());
        }
    }

    #[test]
    fn subgraph_isomorphism_is_reflexive_and_monotone(g in arb_graph(6)) {
        prop_assert!(g.vertex_count() == 0 || is_subgraph_isomorphic(&g, &g));
        // removing edges keeps it a subgraph of the original
        if g.edge_count() > 0 {
            let keep: Vec<EdgeId> = g.edge_ids().skip(1).collect();
            let sub = edge_subgraph(&g, &keep);
            prop_assert!(sub.graph.edge_count() == 0 || is_subgraph_isomorphic(&sub.graph, &g));
        }
    }

    #[test]
    fn connected_subset_enumeration_matches_bruteforce(g in arb_graph(5)) {
        // count via enumerator
        let mut enumerated = std::collections::HashSet::new();
        let _ = for_each_connected_edge_subset(&g, g.edge_count(), |s| {
            let mut k: Vec<u32> = s.iter().map(|e| e.0).collect();
            k.sort_unstable();
            assert!(enumerated.insert(k));
            std::ops::ControlFlow::Continue(true)
        });
        // brute force over all subsets (edge count is small)
        let m = g.edge_count();
        prop_assume!(m <= 10);
        let mut brute = 0usize;
        for mask in 1u32..(1 << m) {
            let ids: Vec<EdgeId> = (0..m).filter(|i| mask & (1 << i) != 0).map(|i| EdgeId(i as u32)).collect();
            if edge_components(&g, &ids).len() == 1 {
                brute += 1;
            }
        }
        prop_assert_eq!(enumerated.len(), brute);
    }

    #[test]
    fn subtree_enumeration_matches_bruteforce(g in arb_graph(6), max in 1usize..6) {
        let m = g.edge_count();
        prop_assume!(m <= 12);
        let mut shown = 0usize;
        let mut enumerated = std::collections::BTreeSet::new();
        let _ = for_each_subtree_edge_subset(&g, max, |s| {
            let mut k: Vec<u32> = s.iter().map(|e| e.0).collect();
            k.sort_unstable();
            enumerated.insert(k);
            shown += 1;
            std::ops::ControlFlow::Continue(())
        });
        let brute: std::collections::BTreeSet<Vec<u32>> = (1u32..(1 << m))
            .map(|mask| (0..m as u32).filter(|i| mask & (1 << i) != 0).collect::<Vec<u32>>())
            .filter(|s| s.len() <= max)
            .filter(|s| {
                let ids: Vec<EdgeId> = s.iter().map(|&i| EdgeId(i)).collect();
                edge_subgraph(&g, &ids).graph.is_tree()
            })
            .collect();
        prop_assert_eq!(shown, brute.len());
        prop_assert_eq!(enumerated, brute);
    }

    #[test]
    fn bfs_distance_satisfies_triangle_inequality(g in arb_graph(7)) {
        prop_assume!(g.vertex_count() >= 3);
        let a = VertexId(0);
        let b = VertexId(1);
        let c = VertexId(2);
        let (ab, bc, ac) = (distance(&g, a, b), distance(&g, b, c), distance(&g, a, c));
        if ab != UNREACHABLE && bc != UNREACHABLE {
            prop_assert!(ac <= ab + bc);
        }
    }

    /// The flat adjacency is a pure function of the edge list: `neighbors(v)`
    /// is the (other endpoint, id) of each incident edge in id order —
    /// beyond the builder's inline degree of 6 too — and the byte count is
    /// the four columns' lengths.
    #[test]
    fn adjacency_is_the_incident_edges_in_id_order(g in arb_graph(12)) {
        for v in g.vertices() {
            let incident: Vec<(VertexId, EdgeId)> = g
                .edge_ids()
                .filter(|&e| g.edge(e).touches(v))
                .map(|e| (g.edge(e).other(v), e))
                .collect();
            prop_assert_eq!(g.neighbors(v), incident.as_slice());
            prop_assert_eq!(g.degree(v), incident.len());
            for u in g.vertices() {
                let between = incident.iter().find(|(w, _)| *w == u).map(|&(_, e)| e);
                prop_assert_eq!(g.edge_between(v, u), between);
            }
        }
        let (n, m) = (g.vertex_count(), g.edge_count());
        prop_assert_eq!(g.heap_bytes(), 4 * n + 12 * m + 4 * (n + 1) + 8 * 2 * m);
    }

    #[test]
    fn io_round_trip(g in arb_graph(7)) {
        let text = io::write_graphs(std::slice::from_ref(&g));
        let back = io::parse_graphs(&text).unwrap();
        prop_assert_eq!(back.len(), 1);
        prop_assert_eq!(&back[0], &g);
    }
}

mod digraph_props {
    use graph_core::digraph::{DiGraph, DiGraphBuilder};
    use graph_core::{is_sub_digraph_isomorphic, ELabel, VLabel, VertexId};
    use proptest::prelude::*;

    fn arb_digraph(nmax: usize) -> impl Strategy<Value = DiGraph> {
        (2..=nmax).prop_flat_map(move |n| {
            let vlabels = proptest::collection::vec(0u32..3, n);
            let arcs = proptest::collection::vec((0..n as u32, 0..n as u32, 0u32..2), 1..(2 * n));
            (vlabels, arcs).prop_map(|(vl, arcs)| {
                let mut b = DiGraphBuilder::new();
                for l in &vl {
                    b.add_vertex(VLabel(*l)).expect("label in range");
                }
                for (u, v, l) in arcs {
                    if u != v {
                        let _ = b.add_arc(VertexId(u), VertexId(v), ELabel(l));
                    }
                }
                b.build()
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn encoding_preserves_shape(d in arb_digraph(6)) {
            let e = d.encode();
            prop_assert_eq!(e.vertex_count(), d.vertex_count() + d.arc_count());
            prop_assert_eq!(e.edge_count(), 2 * d.arc_count());
        }

        #[test]
        fn digraph_self_containment(d in arb_digraph(6)) {
            prop_assert!(is_sub_digraph_isomorphic(&d, &d));
        }

        #[test]
        fn arc_removal_is_contained(d in arb_digraph(6)) {
            prop_assume!(d.arc_count() >= 2);
            // drop the last arc: the rest must embed in the original
            let mut b = DiGraphBuilder::new();
            for v in d.vertices() {
                b.add_vertex(d.vlabel(v)).expect("label in range");
            }
            for a in &d.arcs()[..d.arc_count() - 1] {
                b.add_arc(a.from, a.to, a.label).expect("copying arcs");
            }
            let smaller = b.build();
            prop_assert!(is_sub_digraph_isomorphic(&smaller, &d));
        }
    }
}
