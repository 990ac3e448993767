//! Property tests for the tree layer: canonical strings are complete free-
//! tree invariants, centers are permutation invariant and minimize
//! eccentricity, centered retrieval is exhaustive.

use graph_core::{ELabel, GraphBuilder, VLabel, VertexId};
use proptest::prelude::*;
use std::ops::ControlFlow;
use tree_core::*;

/// Strategy: a random labeled free tree with 1..=nmax vertices (random
/// attachment).
fn arb_tree(nmax: usize) -> impl Strategy<Value = Tree> {
    (1..=nmax).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0u32..4, n);
        let parents =
            proptest::collection::vec((0usize..nmax.max(1), 0u32..3), n.saturating_sub(1));
        (vlabels, parents).prop_map(move |(vl, ps)| {
            let mut b = GraphBuilder::new();
            for l in &vl {
                b.add_vertex(VLabel(*l));
            }
            for (i, (p, el)) in ps.iter().enumerate() {
                let child = VertexId((i + 1) as u32);
                let parent = VertexId((p % (i + 1)) as u32);
                b.add_edge(child, parent, ELabel(*el)).expect("tree edge");
            }
            Tree::from_graph(b.build()).expect("random attachment builds a tree")
        })
    })
}

fn permute_tree(t: &Tree, perm: &[u32]) -> Tree {
    let g = t.graph();
    let mut inv = vec![0u32; perm.len()];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    let mut b = GraphBuilder::new();
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
    Tree::from_graph(b.build()).expect("permutation preserves treeness")
}

/// A canonical string decodes to a tree with that string, isomorphic to
/// the one encoded, whose edge count and kind of center the string tells.
fn assert_decode_round_trips(t: &Tree) {
    let c = canonical_string(t);
    let d = c.decode();
    assert_eq!(canonical_string(&d), c);
    assert!(graph_core::is_isomorphic(d.graph(), t.graph()), "{t:?}");
    assert_eq!(c.edge_count(), t.edge_count());
    assert_eq!(c.is_bicentral(), center(t).is_edge());
}

#[test]
fn decode_round_trips_the_smallest_and_bicentral_trees() {
    let trees = [
        tree_from(&[3], &[]),
        tree_from(&[2, 1], &[(0, 1, 5)]),
        tree_from(&[1, 1], &[(0, 1, 0)]),
        // Bicentral: paths of three and five edges, halves unequal or equal.
        tree_from(&[5, 1, 2, 6], &[(0, 1, 0), (1, 2, 9), (2, 3, 0)]),
        tree_from(&[0; 4], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
        tree_from(
            &[0; 6],
            &[(0, 1, 0), (1, 2, 0), (2, 3, 1), (3, 4, 0), (4, 5, 0)],
        ),
        // Unicentral with equal sibling subtrees.
        tree_from(&[0, 1, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 0)]),
    ];
    for t in &trees {
        assert_decode_round_trips(t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_inverts_the_canonical_string(t in arb_tree(14)) {
        assert_decode_round_trips(&t);
    }

    #[test]
    fn canonical_string_is_permutation_invariant(t in arb_tree(9), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..t.vertex_count() as u32).collect();
        perm.shuffle(&mut rng);
        let u = permute_tree(&t, &perm);
        prop_assert_eq!(canonical_string(&t), canonical_string(&u));
    }

    #[test]
    fn canonical_string_equality_iff_isomorphic(a in arb_tree(6), b in arb_tree(6)) {
        let same = canonical_string(&a) == canonical_string(&b);
        let iso = graph_core::is_isomorphic(a.graph(), b.graph());
        prop_assert_eq!(same, iso);
    }

    #[test]
    fn center_is_permutation_equivariant(t in arb_tree(9), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..t.vertex_count() as u32).collect();
        perm.shuffle(&mut rng);
        let u = permute_tree(&t, &perm);
        // the center maps under the permutation
        match (center(&t), center(&u)) {
            (Center::Vertex(a), Center::Vertex(b)) => {
                prop_assert_eq!(VertexId(perm[a.idx()]), b);
            }
            (Center::Edge(ea), Center::Edge(eb)) => {
                let (a, b) = {
                    let e = t.graph().edge(ea);
                    (perm[e.u.idx()], perm[e.v.idx()])
                };
                let e2 = u.graph().edge(eb);
                let mut x = [a, b];
                x.sort_unstable();
                let mut y = [e2.u.0, e2.v.0];
                y.sort_unstable();
                prop_assert_eq!(x, y);
            }
            (a, b) => prop_assert!(false, "center kind changed: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn center_minimizes_eccentricity(t in arb_tree(9)) {
        let oracle = center_by_eccentricity(&t);
        match center(&t) {
            Center::Vertex(v) => prop_assert_eq!(oracle, vec![v]),
            Center::Edge(e) => {
                let edge = t.graph().edge(e);
                let mut pair = vec![edge.u, edge.v];
                pair.sort();
                let mut o = oracle;
                o.sort();
                prop_assert_eq!(o, pair);
            }
        }
    }

    #[test]
    fn center_positions_complete_and_sound(t in arb_tree(4), host in arb_tree(8)) {
        prop_assume!(t.edge_count() >= 1);
        let g = host.graph();
        let positions = center_positions(&t, g);
        // sound: every reported position admits a centered embedding
        for &pos in &positions {
            let mut hit = false;
            let _ = for_each_embedding_centered(&t, g, pos, |_| {
                hit = true;
                ControlFlow::Break(())
            });
            prop_assert!(hit, "position {pos:?} has no embedding");
        }
        // complete: total embeddings found through positions equals the
        // total number of embeddings whose center lands anywhere
        let total_direct = graph_core::all_embeddings(t.graph(), g, None).len();
        let mut total_via_centers = 0usize;
        for &pos in &positions {
            let _ = for_each_embedding_centered(&t, g, pos, |_| {
                total_via_centers += 1;
                ControlFlow::Continue(())
            });
        }
        prop_assert_eq!(total_via_centers, total_direct);
    }
}
