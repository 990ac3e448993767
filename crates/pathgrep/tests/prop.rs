//! Property tests for the path index: queries are exact against a
//! brute-force scan, and candidate sets always contain the answers.

#[path = "../../graph-core/tests/support/arb.rs"]
mod arb;

use arb::arb_connected_graph;
use graph_core::{GraphBuilder, VertexId};
use pathgrep::{label_paths, PathGrep, PathGrepParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn queries_are_exact(
        db in proptest::collection::vec(arb_connected_graph(6, 3), 1..8),
        q in arb_connected_graph(5, 3),
    ) {
        let idx = PathGrep::build(db.clone(), PathGrepParams::default());
        let truth: Vec<u32> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&q, g))
            .map(|(i, _)| i as u32)
            .collect();
        let r = idx.query(&q);
        prop_assert_eq!(r.matches, truth);
        prop_assert!(r.stats.filtered >= r.stats.answers);
    }

    #[test]
    fn candidates_contain_truth(
        db in proptest::collection::vec(arb_connected_graph(6, 3), 1..8),
        q in arb_connected_graph(4, 3),
    ) {
        let idx = PathGrep::build(db.clone(), PathGrepParams { max_len: 3 });
        let (cands, _) = idx.candidates(&q);
        for (gid, g) in db.iter().enumerate() {
            if graph_core::is_subgraph_isomorphic(&q, g) {
                prop_assert!(cands.contains(&(gid as u32)));
            }
        }
    }

    #[test]
    fn path_keys_are_isomorphism_invariant(g in arb_connected_graph(6, 3), seed in any::<u64>()) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // permute vertices; label paths must be identical
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<u32> = (0..g.vertex_count() as u32).collect();
        perm.shuffle(&mut rng);
        let mut b = GraphBuilder::new();
        let mut inv = vec![0u32; perm.len()];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as u32;
        }
        for &old in &inv {
            b.add_vertex(g.vlabel(VertexId(old)));
        }
        for e in g.edges() {
            b.add_edge(VertexId(perm[e.u.idx()]), VertexId(perm[e.v.idx()]), e.label)
                .expect("permutation preserves simplicity");
        }
        let h = b.build();
        prop_assert_eq!(label_paths(&g, 4), label_paths(&h, 4));
    }
}
