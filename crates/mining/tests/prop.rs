//! Property tests for mining: the three subtree-mining engines agree on
//! arbitrary databases, supports are exact, and σ thresholds are honored.

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use mining::*;
use proptest::prelude::*;

fn arb_connected_graph(nmax: usize) -> impl Strategy<Value = Graph> {
    (2..=nmax).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0u32..3, n);
        let parents = proptest::collection::vec((0usize..nmax, 0u32..2), n - 1);
        let extras = proptest::collection::vec((0usize..nmax, 0usize..nmax, 0u32..2), 0..2);
        (vlabels, parents, extras).prop_map(move |(vl, ps, ex)| {
            let mut b = GraphBuilder::new();
            for l in &vl {
                b.add_vertex(VLabel(*l));
            }
            for (i, (p, el)) in ps.iter().enumerate() {
                b.add_edge(
                    VertexId((i + 1) as u32),
                    VertexId((p % (i + 1)) as u32),
                    ELabel(*el),
                )
                .expect("tree edge");
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

/// The general miner on an `n`-seat pool, metrics disabled.
fn mine_on(
    db: &[Graph],
    sigma: &SigmaFn,
    limits: &MiningLimits,
    threads: usize,
) -> (Vec<MinedTree>, MiningStats) {
    let pool = graph_core::par::Pool::new(threads);
    mine_frequent_trees_pool_obs(db, sigma, limits, &pool, &obs::Shard::disabled())
}

fn keyed(mined: Vec<MinedTree>) -> Vec<(tree_core::CanonString, Vec<u32>)> {
    let mut out: Vec<_> = mined.into_iter().map(|m| (m.canon, m.support)).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn three_engines_agree(
        db in proptest::collection::vec(arb_connected_graph(6), 1..6),
        alpha in 1usize..3,
        beta in 1u32..3,
        eta in 2usize..4,
    ) {
        let sigma = SigmaFn { alpha, beta: beta as f64, eta: eta.max(alpha) };
        let limits = MiningLimits::default();
        let a = keyed(mine_frequent_trees_enum(&db, &sigma, &limits).0);
        let b = keyed(mine_frequent_trees(&db, &sigma, &limits).0);
        let c = keyed(mine_frequent_trees_apriori(&db, &sigma, &limits).0);
        prop_assert_eq!(&a, &b, "enum vs levelwise");
        prop_assert_eq!(&a, &c, "enum vs apriori");
    }

    #[test]
    fn supports_are_exact_and_thresholds_hold(
        db in proptest::collection::vec(arb_connected_graph(6), 1..6),
    ) {
        let sigma = SigmaFn { alpha: 2, beta: 1.0, eta: 3 };
        let (mined, _) = mine_frequent_trees(&db, &sigma, &MiningLimits::default());
        for m in &mined {
            let brute: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(m.tree.graph(), g))
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
    /// any thread count: same patterns in the same order, same
    /// representative trees, same support sets, same stats.
    #[test]
    fn parallel_mine_is_thread_count_invariant(
        db in proptest::collection::vec(arb_connected_graph(7), 1..8),
        alpha in 1usize..3,
        beta in 1u32..3,
        eta in 2usize..5,
    ) {
        let sigma = SigmaFn { alpha, beta: beta as f64, eta: eta.max(alpha) };
        let limits = MiningLimits::default();
        let (base, base_stats) = mine_on(&db, &sigma, &limits, 1);
        for threads in [2usize, 3, 8] {
            let (mined, stats) = mine_on(&db, &sigma, &limits, threads);
            prop_assert_eq!(stats, base_stats, "stats differ at threads={}", threads);
            prop_assert_eq!(mined.len(), base.len(), "pattern count differs at threads={}", threads);
            for (a, b) in base.iter().zip(&mined) {
                prop_assert_eq!(&a.canon, &b.canon, "canon order differs at threads={}", threads);
                prop_assert_eq!(&a.support, &b.support, "supports differ at threads={}", threads);
                prop_assert_eq!(
                    a.tree.graph(), b.tree.graph(),
                    "representative tree differs at threads={}", threads
                );
            }
        }
    }

    /// Soundness oracle: the parallel-mined pattern set and supports equal
    /// a brute-force subtree enumeration (independent of all miner
    /// machinery), so the merge can't silently drop or duplicate anything.
    #[test]
    fn parallel_mine_matches_bruteforce_oracle(
        db in proptest::collection::vec(arb_connected_graph(6), 1..6),
        alpha in 1usize..3,
        eta in 2usize..4,
    ) {
        let sigma = SigmaFn { alpha, beta: 1.0, eta: eta.max(alpha) };
        let (mined, _) = mine_on(&db, &sigma, &MiningLimits::default(), 8);

        // Oracle: enumerate every subtree edge subset of every graph,
        // canonicalize, collect support sets, apply the σ filter.
        let mut oracle: std::collections::BTreeMap<tree_core::CanonString, (usize, Vec<u32>)> =
            std::collections::BTreeMap::new();
        for (gid, g) in db.iter().enumerate() {
            let _ = graph_core::for_each_subtree_edge_subset(g, sigma.eta, |edges| {
                let sub = graph_core::edge_subgraph(g, edges);
                let t = tree_core::Tree::from_graph(sub.graph).expect("subtree");
                let c = tree_core::canonical_string(&t);
                let entry = oracle.entry(c).or_insert((edges.len(), Vec::new()));
                if entry.1.last() != Some(&(gid as u32)) {
                    entry.1.push(gid as u32);
                }
                std::ops::ControlFlow::<()>::Continue(())
            });
        }
        let expected: Vec<(tree_core::CanonString, Vec<u32>)> = oracle
            .into_iter()
            .filter_map(|(c, (size, support))| {
                let thr = sigma.threshold(size)? as usize;
                (support.len() >= thr).then_some((c, support))
            })
            .collect();
        prop_assert_eq!(keyed(mined), expected);
    }

    /// `max_patterns` truncation is deterministic under parallelism: the
    /// cutoff is taken in (size, canonical string) order, so a truncated
    /// parallel mine equals a truncated serial mine, and both equal the
    /// (size, canon)-ordered prefix of the untruncated result.
    #[test]
    fn truncation_is_thread_count_invariant(
        db in proptest::collection::vec(arb_connected_graph(6), 2..7),
        cap in 1usize..12,
    ) {
        let sigma = SigmaFn { alpha: 2, beta: 1.0, eta: 3 };
        let full_limits = MiningLimits::default();
        let capped = MiningLimits { max_patterns: cap, ..full_limits };
        let (serial, serial_stats) = mine_on(&db, &sigma, &capped, 1);
        for threads in [2usize, 8] {
            let (par, par_stats) = mine_on(&db, &sigma, &capped, threads);
            prop_assert_eq!(par_stats, serial_stats, "threads={}", threads);
            prop_assert_eq!(keyed(par), keyed(serial.clone()), "threads={}", threads);
        }
        // The truncated result is a prefix of the untruncated one in the
        // documented (size, canon) order.
        let (full, full_stats) = mine_on(&db, &sigma, &full_limits, 1);
        prop_assert!(!full_stats.truncated);
        prop_assert_eq!(serial.len(), full.len().min(cap));
        if full.len() > cap {
            prop_assert!(serial_stats.truncated);
        }
        for (a, b) in serial.iter().zip(&full) {
            prop_assert_eq!(&a.canon, &b.canon, "not a (size, canon) prefix");
            prop_assert_eq!(&a.support, &b.support);
        }
    }

    #[test]
    fn shrinking_is_a_subset_and_keeps_edges(
        db in proptest::collection::vec(arb_connected_graph(6), 1..6),
        gamma in 1u32..4,
    ) {
        let sigma = SigmaFn { alpha: 3, beta: 1.0, eta: 3 };
        let (mined, _) = mine_frequent_trees(&db, &sigma, &MiningLimits::default());
        let before: std::collections::HashSet<_> =
            mined.iter().map(|m| m.canon.clone()).collect();
        let singles: Vec<_> = mined.iter().filter(|m| m.size() == 1).map(|m| m.canon.clone()).collect();
        let kept = shrink_features(mined, gamma as f64);
        for m in &kept {
            prop_assert!(before.contains(&m.canon), "shrinking invented a feature");
        }
        // every single-edge tree survives (completeness)
        let kept_set: std::collections::HashSet<_> = kept.iter().map(|m| m.canon.clone()).collect();
        for c in singles {
            prop_assert!(kept_set.contains(&c), "shrinking dropped a single edge");
        }
    }
}
