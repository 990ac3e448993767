//! Property tests for the gIndex baseline: exactness against the scan,
//! candidate-set soundness on arbitrary databases, and a query enumeration
//! whose Apriori prune changes no candidate.

#[path = "../../graph-core/tests/support/arb.rs"]
mod arb;

use arb::arb_connected_graph;
use gindex::{GIndex, GIndexParams};
use graph_core::{canonical_code, edge_subgraph, for_each_connected_edge_subset, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// `GIndex::candidates` without its prune: every connected subset of `q` up
/// to maxL edges is looked up. Returns `C_q`, the discriminative fragments
/// used and the subsets enumerated.
fn unpruned_candidates(idx: &GIndex, q: &Graph) -> (Vec<u32>, usize, usize) {
    let (mut used, mut enumerated, mut missing) = (HashSet::new(), 0, false);
    let _ = for_each_connected_edge_subset(q, idx.params().psi.max_l, |edges| {
        enumerated += 1;
        let code = canonical_code(&edge_subgraph(q, edges).graph);
        match idx.fragment_by_code(&code) {
            Some(f) if f.discriminative => {
                used.insert(code);
            }
            None if edges.len() == 1 => {
                missing = true;
                return ControlFlow::Break(());
            }
            _ => {}
        }
        ControlFlow::Continue(true)
    });
    if missing {
        return (Vec::new(), used.len(), enumerated);
    }
    let sets: Vec<&[u32]> = used
        .iter()
        .map(|c| idx.fragment_by_code(c).expect("used").support.as_slice())
        .collect();
    (
        mining::intersect_many(&sets, idx.db().len()),
        used.len(),
        enumerated,
    )
}

/// On a molecule database, under a ψ that rises from 4 edges up to maxL =
/// 6, a 12-edge query enumerates 75 subsets pruned and 102 unpruned, with
/// the same `C_q`.
#[test]
fn pruning_skips_subsets_of_a_molecule_query() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(40), &mut rng);
    let q = datagen::extract_queries(&db, 12, 1, &mut rng).remove(0);
    let psi = mining::PsiFn {
        max_l: 6,
        theta: 20.0,
    };
    let idx = GIndex::build(
        db,
        GIndexParams {
            psi,
            gamma_min: 2.0,
        },
    );
    let (cands, stats) = idx.candidates(&q);
    let (full, used, enumerated) = unpruned_candidates(&idx, &q);
    assert_eq!((cands, stats.fragments_used), (full, used));
    assert_eq!((stats.enumerated, enumerated), (75, 102));
}

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

    #[test]
    fn pruned_candidates_equal_unpruned(
        db in proptest::collection::vec(arb_connected_graph(7, 3), 1..8),
        pick in 0usize..8,
        q in arb_connected_graph(6, 3),
    ) {
        // ψ rises from 4 edges on, so both sides meet infrequent fragments.
        let psi = mining::PsiFn { max_l: 6, theta: db.len() as f64 };
        let idx = GIndex::build(db.clone(), GIndexParams { psi, gamma_min: 2.0 });
        // A database graph has every connected subset frequent up to ψ's
        // rise; an arbitrary graph may miss an edge outright.
        for q in [&db[pick % db.len()], &q] {
            let (cands, stats) = idx.candidates(q);
            let (full, used, enumerated) = unpruned_candidates(&idx, q);
            prop_assert_eq!(cands, full);
            prop_assert_eq!(stats.fragments_used, used);
            prop_assert!(stats.enumerated <= enumerated);
        }
    }
}
