//! Property tests for mining: the miner agrees with the two reference
//! miners on arbitrary databases and, at any γ, with the reference shrink of
//! their output; supports are exact, σ thresholds are honored, the center
//! columns equal an exhaustive VF2 search, and a subtree encoded where it
//! lies in its host graph encodes as the same subtree extracted.

mod reference;

#[path = "../../graph-core/tests/support/arb.rs"]
mod arb;

use arb::arb_connected_graph;
use graph_core::{graph_from, EdgeId, Graph, VertexId};
use mining::*;
use proptest::prelude::*;
use std::ops::ControlFlow;
use tree_core::{
    canonical_string, center_positions, CanonString, Center, CenterPos, SubtreeEncoder, Tree,
};

/// The general miner on an `n`-seat pool, metrics disabled.
fn mine_on(
    db: &[Graph],
    sigma: &SigmaFn,
    gamma: f64,
    threads: usize,
) -> (Vec<MinedTree>, MiningStats) {
    let pool = graph_core::par::Pool::new(threads);
    mine_frequent_trees_pool_obs(db, sigma, gamma, &pool, &obs::Shard::disabled())
}

/// Every frequent tree (γ = 0 keeps them all), on one seat.
fn mine_all(db: &[Graph], sigma: &SigmaFn) -> (Vec<MinedTree>, MiningStats) {
    mine_frequent_trees(db, sigma, 0.0)
}

fn keyed(mined: Vec<MinedTree>) -> Vec<(tree_core::CanonString, Vec<u32>)> {
    let mut out: Vec<_> = mined.into_iter().map(|m| (m.canon, m.support)).collect();
    out.sort();
    out
}

/// Every tree's columns are a well-formed posting list holding, for every
/// graph of its support, exactly the positions `center_positions` finds.
/// Returns whether a (vertex-, edge-)centered tree was seen.
fn assert_columns_equal_vf2(db: &[Graph], mined: &[MinedTree]) -> [bool; 2] {
    let mut kinds = [false; 2];
    for m in mined {
        let tree = m.canon.decode();
        let what = format!("{:?} over {:?}", m.canon, m.support);
        assert_eq!(
            m.offsets.len(),
            m.support.len(),
            "one end per graph: {what}"
        );
        assert_eq!(
            m.offsets.last(),
            Some(&(m.positions.len() as u32)),
            "{what}"
        );
        kinds[matches!(tree_core::center(&tree), Center::Edge(_)) as usize] = true;
        let mut start = 0usize;
        for (&gid, &end) in m.support.iter().zip(&m.offsets) {
            assert!(start < end as usize, "offsets strictly increase: {what}");
            let found: Vec<u32> = center_positions(&tree, &db[gid as usize])
                .into_iter()
                .map(|p| match p {
                    CenterPos::Vertex(v) => v.0,
                    CenterPos::Edge(e) => e.0,
                })
                .collect();
            assert!(found.windows(2).all(|w| w[0] < w[1]), "reference ascends");
            assert_eq!(
                &m.positions[start..end as usize],
                &found[..],
                "graph {gid} of {what}"
            );
            start = end as usize;
        }
    }
    kinds
}

#[test]
fn miners_agree_on_small_databases() {
    let dbs = [
        vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ],
        vec![
            graph_from(&[2, 1, 0, 1], &[(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 0, 1)]),
            graph_from(&[1, 1, 2], &[(0, 1, 1), (1, 2, 0)]),
        ],
    ];
    let sigmas = [(3, 1.0, 3), (1, 1.0, 4), (0, 2.0, 2)];
    for db in &dbs {
        for (alpha, beta, eta) in sigmas {
            let sigma = SigmaFn { alpha, beta, eta };
            let a = reference::mine_enum(db, &sigma);
            let b = reference::mine_apriori(db, &sigma);
            let c = keyed(mine_all(db, &sigma).0);
            assert_eq!(a, b, "enum vs apriori disagree for sigma {sigma:?}");
            assert_eq!(a, c, "enum vs levelwise disagree for sigma {sigma:?}");
        }
    }
}

/// Databases chosen for what the center columns must get right. In the
/// first two a 2-edge path with two equal end labels is reached by
/// extending the symmetric single edge at either end, so (whichever label
/// order sorts that edge first) one pattern has two representatives whose
/// centers are *different* pattern vertices: the columns are the union of
/// each representative's own. The star has three occurrences of one
/// pattern centered on one vertex: the columns hold it once.
#[test]
fn columns_on_fixed_databases() {
    let two_reps = |a: u32, b: u32| {
        vec![
            graph_from(&[a, a, b], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[a, a, b], &[(0, 1, 0), (0, 2, 0)]),
            graph_from(&[a, a, b, b], &[(1, 0, 0), (1, 2, 0), (0, 3, 0)]),
        ]
    };
    let star = vec![graph_from(
        &[0, 1, 1, 1, 2],
        &[(0, 1, 0), (0, 2, 0), (0, 3, 0), (3, 4, 1)],
    )];
    let sigma = SigmaFn {
        alpha: 4,
        beta: 1.0,
        eta: 4,
    };
    for db in [two_reps(0, 1), two_reps(1, 0), star] {
        let mut kinds = [false; 2];
        for threads in [1, 2, 8] {
            let (mined, stats) = mine_on(&db, &sigma, 0.0, threads);
            assert!(!stats.truncated);
            let seen = assert_columns_equal_vf2(&db, &mined);
            kinds = [kinds[0] | seen[0], kinds[1] | seen[1]];
        }
        assert_eq!(kinds, [true; 2], "vertex- and edge-centered trees");
    }
}

/// More seats than a byte can number: a 300-seat pool mines a 300-graph
/// database exactly as one seat does. The molecules are four times the
/// default size, so that seats numbered past 255 still find graphs left to
/// scan: a merge that kept seat numbers in a byte panicked here in five of
/// six debug-build runs.
#[test]
fn three_hundred_seats_mine_what_one_seat_does() {
    use datagen::ChemParams;
    use rand::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let params = ChemParams {
        mean_vertices: 100.0,
        ..ChemParams::sized(300)
    };
    let db = datagen::generate_chem(&params, &mut rng);
    let sigma = SigmaFn {
        alpha: 3,
        beta: 2.0,
        eta: 4,
    };
    let (base, base_stats) = mine_on(&db, &sigma, 1.5, 1);
    let (wide, wide_stats) = mine_on(&db, &sigma, 1.5, 300);
    assert_eq!(wide_stats, base_stats);
    assert_eq!(wide.len(), base.len());
    for (a, b) in base.iter().zip(&wide) {
        assert_eq!(
            (&a.canon, &a.support, &a.offsets, &a.positions),
            (&b.canon, &b.support, &b.offsets, &b.positions)
        );
    }
}

/// The growth bound changes what is grown, not what is kept. γ = 0, where
/// the bound never fails, mines every frequent tree of a chem fixture; the
/// reference shrink of that list at γ > 0 is exactly what a run at that γ
/// returns, on 1, 2 and 8 seats, with the γ = 0 run's supports and center
/// columns — while it counts fewer frequent trees and generates fewer
/// instances, so the bound did cut growth.
#[test]
fn growth_bound_keeps_what_the_reference_shrink_keeps() {
    use rand::SeedableRng;
    let db = datagen::generate_chem(
        &datagen::ChemParams::sized(30),
        &mut rand_chacha::ChaCha8Rng::seed_from_u64(7),
    );
    let sigma = SigmaFn {
        alpha: 3,
        beta: 2.0,
        eta: 6,
    };
    let (all, all_stats) = mine_on(&db, &sigma, 0.0, 1);
    assert_eq!(all_stats.patterns, all.len());
    let frequent = keyed(all.clone());
    let columns: std::collections::HashMap<_, _> = all
        .iter()
        .map(|m| (&m.canon, (&m.support, &m.offsets, &m.positions)))
        .collect();
    for gamma in [1.0, 1.5, 2.0, 3.0] {
        let want = reference::shrink(&frequent, gamma);
        assert!(want.len() < frequent.len(), "γ={gamma} drops trees");
        for threads in [1usize, 2, 8] {
            let (kept, stats) = mine_on(&db, &sigma, gamma, threads);
            let what = format!("γ={gamma} threads={threads}");
            assert!(stats.patterns < all_stats.patterns, "{what}");
            assert!(stats.candidates < all_stats.candidates, "{what}");
            for m in &kept {
                let got = (&m.support, &m.offsets, &m.positions);
                assert_eq!(columns[&m.canon], got, "{what}: {:?}", m.canon);
            }
            assert_eq!(keyed(kept), want, "{what}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// What the miner's canonicalization rests on. It encodes a candidate
    /// where its instance lies, as `SubtreeEncoder::encode(host, new leaf,
    /// |e| e is one of the instance's edges)`, maps the center it returns
    /// back to pattern vertices, and encodes a leaf-removal subtree by also
    /// leaving one leaf edge out, read from that edge's inner end. For
    /// every acyclic connected edge set of up to 5 edges: the tokens are
    /// those of the extracted subtree, the mapped center is its center, and
    /// the leaf-skip encodings are the reference's leaf removals.
    #[test]
    fn host_encoding_equals_extraction(
        db in proptest::collection::vec(arb_connected_graph(7, 2), 1..5),
    ) {
        let mut enc = SubtreeEncoder::default();
        for g in &db {
            let _ = graph_core::for_each_subtree_edge_subset(g, 5, |subset| {
                let mut edges: Vec<u32> = subset.iter().map(|e| e.0).collect();
                edges.sort_unstable();
                let sub = graph_core::edge_subgraph(g, subset);
                let vertex_map = sub.vertex_map;
                let tree = Tree::from_graph(sub.graph).expect("an acyclic connected edge set");
                let local = |h: VertexId| {
                    let i = vertex_map.iter().position(|&v| v == h).expect("a vertex of the set");
                    VertexId(i as u32)
                };
                let leaf = g.edge(*subset.last().expect("a nonempty set")).v;
                let (tokens, center) = enc.encode(g, leaf, |e| edges.binary_search(&e.0).is_ok());
                assert_eq!(tokens, canonical_string(&tree).tokens(), "{edges:?} in {g:?}");
                let mapped = match center {
                    Center::Vertex(v) => Center::Vertex(local(v)),
                    Center::Edge(e) => {
                        let e = g.edge(e);
                        let local_edge = tree.graph().edge_between(local(e.u), local(e.v));
                        Center::Edge(local_edge.expect("the center edge is in the set"))
                    }
                };
                assert_eq!(mapped, tree_core::center(&tree), "{edges:?} in {g:?}");

                // A single edge has no leaf removal.
                let is_leaf = |v: VertexId| subset.len() > 1 && tree.graph().degree(local(v)) == 1;
                let mut skips: Vec<CanonString> = Vec::new();
                for &e in subset {
                    let edge = g.edge(e);
                    let inner = match (is_leaf(edge.u), is_leaf(edge.v)) {
                        (true, _) => edge.v,
                        (_, true) => edge.u,
                        _ => continue,
                    };
                    let in_rest = |x: EdgeId| x != e && edges.binary_search(&x.0).is_ok();
                    skips.push(CanonString(enc.encode(g, inner, in_rest).0.to_vec()));
                }
                let mut want = reference::leaf_removals(&tree);
                skips.sort();
                want.sort();
                assert_eq!(skips, want, "{edges:?} in {g:?}");
                ControlFlow::Continue(())
            });
        }
    }

    #[test]
    fn three_engines_agree(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
        alpha in 1usize..3,
        beta in 1u32..3,
        eta in 2usize..4,
    ) {
        let sigma = SigmaFn { alpha, beta: beta as f64, eta: eta.max(alpha) };
        let a = reference::mine_enum(&db, &sigma);
        let b = keyed(mine_all(&db, &sigma).0);
        let c = reference::mine_apriori(&db, &sigma);
        prop_assert_eq!(&a, &b, "enum vs levelwise");
        prop_assert_eq!(&a, &c, "enum vs apriori");
    }

    #[test]
    fn supports_are_exact_and_thresholds_hold(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
    ) {
        let sigma = SigmaFn { alpha: 2, beta: 1.0, eta: 3 };
        let (mined, _) = mine_all(&db, &sigma);
        for m in &mined {
            let tree = m.canon.decode();
            let brute: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(tree.graph(), g))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(&m.support, &brute);
            let thr = sigma.threshold(m.size()).expect("mined sizes are finite") as usize;
            prop_assert!(m.support.len() >= thr);
            prop_assert!(m.size() <= sigma.eta);
        }
        // no duplicates
        let mut canons: Vec<_> = mined.iter().map(|m| &m.canon).collect();
        let n = canons.len();
        canons.sort();
        canons.dedup();
        prop_assert_eq!(canons.len(), n);
    }

    /// The parallel miner is bit-for-bit identical to the serial miner at
    /// any thread count: same patterns in the same order, same support sets
    /// and center columns, same stats.
    #[test]
    fn parallel_mine_is_thread_count_invariant(
        db in proptest::collection::vec(arb_connected_graph(7, 2), 1..8),
        alpha in 1usize..3,
        beta in 1u32..3,
        eta in 2usize..5,
    ) {
        let sigma = SigmaFn { alpha, beta: beta as f64, eta: eta.max(alpha) };
        let (base, base_stats) = mine_on(&db, &sigma, 0.0, 1);
        for threads in [2usize, 3, 8] {
            let (mined, stats) = mine_on(&db, &sigma, 0.0, threads);
            prop_assert_eq!(stats, base_stats, "stats differ at threads={}", threads);
            prop_assert_eq!(mined.len(), base.len(), "pattern count differs at threads={}", threads);
            for (a, b) in base.iter().zip(&mined) {
                prop_assert_eq!(&a.canon, &b.canon, "canon order differs at threads={}", threads);
                prop_assert_eq!(&a.support, &b.support, "supports differ at threads={}", threads);
                prop_assert_eq!(
                    (&a.offsets, &a.positions), (&b.offsets, &b.positions),
                    "center columns differ at threads={}", threads
                );
            }
        }
    }

    /// Soundness oracle: the parallel-mined pattern set and supports equal
    /// a brute-force subtree enumeration (independent of all miner
    /// machinery), so the merge can't silently drop or duplicate anything.
    #[test]
    fn parallel_mine_matches_bruteforce_oracle(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
        alpha in 1usize..3,
        eta in 2usize..4,
    ) {
        let sigma = SigmaFn { alpha, beta: 1.0, eta: eta.max(alpha) };
        let (mined, _) = mine_on(&db, &sigma, 0.0, 8);

        prop_assert_eq!(keyed(mined), reference::mine_enum(&db, &sigma));
    }

    /// Each instance is generated once, from its canonical parent, so no
    /// duplicate is left to remove: with σ ≡ 1 every subtree is frequent,
    /// and the instances generated are exactly the database's acyclic
    /// connected edge subsets of 2..=η edges, at any pool size.
    #[test]
    fn each_instance_is_generated_once(
        db in proptest::collection::vec(arb_connected_graph(7, 2), 1..6),
        eta in 2usize..5,
    ) {
        let sigma = SigmaFn { alpha: eta, beta: 1.0, eta };
        let mut subtrees = 0;
        for g in &db {
            let _ = graph_core::for_each_subtree_edge_subset(g, eta, |edges| {
                subtrees += usize::from(edges.len() >= 2);
                ControlFlow::Continue(())
            });
        }
        for threads in [1usize, 2, 8] {
            let (_, stats) = mine_on(&db, &sigma, 0.0, threads);
            prop_assert!(!stats.truncated);
            prop_assert_eq!(stats.candidates, subtrees, "threads={}", threads);
        }
    }

    /// The miner's center columns are the posting lists an exhaustive VF2
    /// search would produce, at any pool size.
    #[test]
    fn columns_equal_vf2_center_positions(
        db in proptest::collection::vec(arb_connected_graph(7, 2), 1..8),
        alpha in 1usize..4,
        eta in 2usize..5,
    ) {
        let sigma = SigmaFn { alpha, beta: 1.0, eta: eta.max(alpha) };
        for threads in [1usize, 2, 8] {
            let (mined, _) = mine_on(&db, &sigma, 0.0, threads);
            assert_columns_equal_vf2(&db, &mined);
        }
    }

    #[test]
    fn shrinking_is_a_subset_and_keeps_edges(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
        gamma in 1u32..4,
    ) {
        let sigma = SigmaFn { alpha: 3, beta: 1.0, eta: 3 };
        let (mined, _) = mine_all(&db, &sigma);
        let before: std::collections::HashSet<_> =
            mined.iter().map(|m| m.canon.clone()).collect();
        let singles: Vec<_> = mined.iter().filter(|m| m.size() == 1).map(|m| m.canon.clone()).collect();
        let (kept, stats) = mine_frequent_trees(&db, &sigma, gamma as f64);
        // The growth bound leaves trees that cannot lead to a kept one
        // unmined: at most the frequent trees are counted.
        prop_assert!(stats.patterns <= mined.len(), "γ mined a tree that is not frequent");
        for m in &kept {
            prop_assert!(before.contains(&m.canon), "shrinking invented a feature");
        }
        // every single-edge tree survives (completeness)
        let kept_set: std::collections::HashSet<_> = kept.iter().map(|m| m.canon.clone()).collect();
        for c in singles {
            prop_assert!(kept_set.contains(&c), "shrinking dropped a single edge");
        }
    }

    /// The γ test inside the miner keeps exactly what the reference shrink
    /// keeps of the frequent trees, at any pool size, and the kept trees'
    /// center columns are an exhaustive search's.
    #[test]
    fn gamma_shrink_equals_reference(
        db in proptest::collection::vec(arb_connected_graph(6, 2), 1..6),
        alpha in 1usize..3,
        eta in 2usize..4,
    ) {
        let sigma = SigmaFn { alpha, beta: 1.0, eta: eta.max(alpha) };
        let frequent = reference::mine_enum(&db, &sigma);
        for gamma in [0.0, 1.0, 1.5, 2.0, 3.0] {
            let want = reference::shrink(&frequent, gamma);
            for threads in [1usize, 2, 8] {
                let (mined, stats) = mine_on(&db, &sigma, gamma, threads);
                // Every frequent tree at γ = 0, where the growth bound
                // never fails; at most those at any γ.
                if gamma == 0.0 {
                    prop_assert_eq!(stats.patterns, frequent.len());
                } else {
                    prop_assert!(stats.patterns <= frequent.len());
                }
                assert_columns_equal_vf2(&db, &mined);
                prop_assert_eq!(keyed(mined), want.clone(), "γ={} threads={}", gamma, threads);
            }
        }
    }
}
