//! Property tests for the gIndex baseline: exactness against the scan and
//! candidate-set soundness on arbitrary databases.

#[path = "../../graph-core/tests/support/arb.rs"]
mod arb;

use arb::arb_connected_graph;
use gindex::{GIndex, GIndexParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn queries_are_exact(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
        q in arb_connected_graph(4, 2),
    ) {
        let idx = GIndex::build(db.clone(), GIndexParams::quick(db.len()));
        let truth: Vec<u32> = db
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&q, g))
            .map(|(i, _)| i as u32)
            .collect();
        let r = idx.query(&q);
        prop_assert_eq!(r.matches, truth);
    }

    #[test]
    fn fragment_supports_are_exact(
        db in proptest::collection::vec(arb_connected_graph(5, 2), 1..5),
    ) {
        let idx = GIndex::build(db.clone(), GIndexParams::quick(db.len()));
        for f in idx.fragments() {
            let brute: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&f.graph, g))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(&f.support, &brute);
        }
    }
}
