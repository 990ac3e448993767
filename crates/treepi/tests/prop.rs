//! Property tests for the index: on arbitrary databases and queries, the
//! pipeline is exact (equals the brute-force scan), and so is every
//! pipeline the public stage functions form (either filter set, with or
//! without center-distance pruning, anchored or VF2 verification);
//! verification from the stored centers is VF2 on every candidate, the
//! candidate funnel only narrows, and partitions are well-formed covers.

mod common;

use common::{arb_connected_graph, arb_db};
use graph_core::{Graph, GraphBuilder, VLabel, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tree_core::{canonical_string, Center, Tree};
use treepi::prune::{center_prune_pool_obs, query_center_distances};
use treepi::verify::{verify_all, verify_all_pool_obs};
use treepi::{
    enumerate_query_features, feature_tree_partition, scan_support, Engine, PartitionRuns,
    TreePiIndex, TreePiParams,
};

/// `gs` side by side, then one isolated vertex per label in `isolated`.
fn disjoint_union(gs: &[&Graph], isolated: &[u32]) -> Graph {
    let mut b = GraphBuilder::new();
    for g in gs {
        let base = b.vertex_count() as u32;
        for v in g.vertices() {
            b.add_vertex(g.vlabel(v));
        }
        for e in g.edges() {
            let (u, v) = (VertexId(base + e.u.0), VertexId(base + e.v.0));
            b.add_edge(u, v, e.label).expect("copied edge");
        }
    }
    for &l in isolated {
        b.add_vertex(VLabel(l));
    }
    b.build()
}

/// A query: half the time one connected graph, otherwise with isolated
/// vertices or a second component beside it — shapes the server and the
/// CLI accept, in which some query vertex lies in no part of a partition
/// or two parts are out of each other's reach.
fn arb_query(nmax: usize) -> impl Strategy<Value = Graph> {
    let isolated = proptest::collection::vec(0u32..3, 1..=2);
    (
        arb_connected_graph(nmax, 3),
        0u32..4,
        isolated,
        arb_connected_graph(3, 3),
    )
        .prop_map(|(g, shape, isolated, second)| match shape {
            0 | 1 => g,
            2 => disjoint_union(&[&g], &isolated),
            _ => disjoint_union(&[&g, &second], &isolated[1..]),
        })
}

/// Verification from the stored centers against VF2 of the whole query on
/// every survivor of the filter (the partition's `SF_q`, the weaker one),
/// so candidates center-distance pruning would have rejected are decided
/// too: `(verify, vf2)`, or `None` when a query edge is no feature.
fn anchored_and_vf2(idx: &TreePiIndex, q: &Graph) -> Option<(Vec<u32>, Vec<u32>)> {
    let PartitionRuns::Ok {
        min_partition, sf, ..
    } = feature_tree_partition(q, idx)
    else {
        return None;
    };
    let survivors = treepi::filter::filter(idx, &sf);
    let vf2 = survivors
        .iter()
        .copied()
        .filter(|&gid| graph_core::is_subgraph_isomorphic(q, &idx.db()[gid as usize]))
        .collect();
    Some((verify_all(idx, q, &survivors, &min_partition), vf2))
}

/// Both center kinds root the search somewhere in a sweep, and the
/// shapes that no partition covers whole (isolated vertices, a second
/// component) are decided like VF2 decides them — on molecules, at the
/// default parameters and at `quick()`.
#[test]
fn anchored_verify_is_vf2_on_molecules() {
    let mut rng = ChaCha8Rng::seed_from_u64(25);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(30), &mut rng);
    // Isolated vertices carry the query's rarest label, so graphs that
    // hold the connected part and too few such atoms are among the
    // candidates.
    let mut frequency = std::collections::HashMap::new();
    for v in db
        .iter()
        .flat_map(|g| g.vertices().map(move |v| g.vlabel(v).0))
    {
        *frequency.entry(v).or_insert(0usize) += 1;
    }
    let mut queries = Vec::new();
    for m in [2, 3, 4, 6, 8] {
        let qs = datagen::extract_queries(&db, m, 8, &mut rng);
        for (i, q) in qs.iter().enumerate() {
            let labels = q.vertices().map(|v| q.vlabel(v).0);
            let rare = labels.min_by_key(|l| frequency[l]).expect("non-empty");
            queries.push(q.clone());
            queries.push(disjoint_union(&[q], &[rare, rare]));
            queries.push(disjoint_union(&[q, &qs[(i + 1) % qs.len()]], &[]));
        }
    }
    for params in [TreePiParams::default(), TreePiParams::quick()] {
        let idx = TreePiIndex::build(db.clone(), params);
        let (mut vertex_parts, mut edge_parts, mut answers) = (0, 0, 0);
        for (i, q) in queries.iter().enumerate() {
            if let PartitionRuns::Ok { min_partition, .. } = feature_tree_partition(q, &idx) {
                for p in &min_partition {
                    match p.center_reps_in_q.len() {
                        1 => vertex_parts += 1,
                        _ => edge_parts += 1,
                    }
                }
            }
            let (got, want) = anchored_and_vf2(&idx, q).expect("db-derived");
            assert_eq!(got, want, "query {i}");
            answers += got.len();
        }
        assert!(vertex_parts > 0 && edge_parts > 0 && answers > 0);
    }
}

/// `sub` holds only elements of `set` (both ascending).
fn is_subset(sub: &[u32], set: &[u32]) -> bool {
    sub.iter().all(|x| set.binary_search(x).is_ok())
}

/// A query on `db`: three times in four a connected subgraph of 1–5 edges
/// of one of its graphs, so every edge is a feature and the query reaches
/// the filter; otherwise an [`arb_query`], whose edges may be in no graph.
fn query_of(db: &[Graph], rng: &mut proptest::TestRng) -> Graph {
    if rng.below(4) > 0 {
        let g = &db[rng.below(db.len() as u64) as usize];
        let m = 1 + rng.below(g.edge_count().min(5) as u64) as usize;
        let mut sampler = ChaCha8Rng::seed_from_u64(rng.next_u64());
        if let Some(edges) = graph_core::random_connected_edge_subgraph(g, m, &mut sampler) {
            return graph_core::edge_subgraph(g, &edges).graph;
        }
    }
    arb_query(5).generate(rng)
}

/// Every pipeline the stage functions form on `q`: the full `SF_q` or the
/// partition's, center-distance pruning (Algorithm 2) on or off,
/// verification anchored at the stored centers or VF2 of the whole query.
/// Each must answer like the scan, with filtered ⊇ pruned ⊇ answers.
/// Returns `None` when a query edge is no feature (nothing reaches the
/// filter), else the candidates the anchored search's signature gate
/// rejected behind the partition-only filter.
fn check_stage_combinations(idx: &TreePiIndex, q: &Graph) -> Result<Option<u64>, TestCaseError> {
    let pool = graph_core::par::Pool::new(1);
    let off = obs::Shard::disabled();
    let truth = scan_support(idx, q);
    let PartitionRuns::Ok {
        min_partition: parts,
        sf,
        full_sf: full,
    } = feature_tree_partition(q, idx)
    else {
        prop_assert!(truth.is_empty());
        prop_assert!(enumerate_query_features(idx, q).is_none());
        return Ok(None);
    };
    // The partition's walk finds the same full `SF_q` a walk of its own does.
    prop_assert_eq!(Some(full.clone()), enumerate_query_features(idx, q));
    let dq = query_center_distances(q, &parts);
    let mut partition_only_kills = 0;
    for (partition_only, sf) in [(false, full), (true, sf)] {
        let filtered = treepi::filter::filter(idx, &sf);
        let cdc = center_prune_pool_obs(idx, q, &filtered, &parts, &dq, &pool, 1, &off);
        prop_assert!(is_subset(&cdc, &filtered), "{:?} ⊄ {:?}", cdc, filtered);
        for (pruned, survivors) in [(false, &filtered), (true, &cdc)] {
            let case = format!("partition_only={partition_only} cdc={pruned}");
            prop_assert!(is_subset(&truth, survivors), "{}", case);
            let registry = obs::Registry::new();
            let shard = registry.shard();
            let anchored = verify_all_pool_obs(idx, q, survivors, &parts, &[], &pool, 1, &shard);
            registry.absorb(shard);
            if partition_only && !pruned {
                partition_only_kills += registry.drain().counter("verify.center_sig_kills");
            }
            let vf2: Vec<u32> = survivors
                .iter()
                .copied()
                .filter(|&gid| graph_core::is_subgraph_isomorphic(q, &idx.db()[gid as usize]))
                .collect();
            prop_assert_eq!(&anchored, &truth, "anchored, {}", case);
            prop_assert_eq!(&vf2, &truth, "vf2, {}", case);
        }
    }
    Ok(Some(partition_only_kills))
}

/// [`check_stage_combinations`] on arbitrary databases and queries drawn
/// mostly from their graphs — at least half of the cases must reach the
/// filter — then on molecules with a label-perturbed near miss of each
/// query — the traffic the anchored search's signature gate exists for —
/// where the gate must reject some candidate of the partition-only filter,
/// so it is exercised where the filter is weakest.
#[test]
fn every_stage_combination_is_exact() {
    const CASES: u32 = 24;
    let name = concat!(module_path!(), "::every_stage_combination_is_exact");
    let mut filtered = 0;
    proptest::run_proptest(name, &ProptestConfig::with_cases(CASES), |rng| {
        let db = arb_db(6, 6).generate(rng);
        let q = query_of(&db, rng);
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        filtered += u32::from(check_stage_combinations(&idx, &q)?.is_some());
        Ok(())
    });
    assert!(
        2 * filtered >= CASES,
        "{filtered} of {CASES} arbitrary cases reached the filter"
    );

    let mut rng = ChaCha8Rng::seed_from_u64(47);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(30), &mut rng);
    let idx = TreePiIndex::build(db.clone(), TreePiParams::default());
    let mut kills = 0;
    for m in [4, 8] {
        for q in datagen::extract_queries(&db, m, 8, &mut rng) {
            let near_miss = datagen::perturb_labels(&q, &mut rng);
            for q in [q, near_miss] {
                let checked = check_stage_combinations(&idx, &q).expect("exact on molecules");
                kills += checked.unwrap_or(0);
            }
        }
    }
    assert!(
        kills > 0,
        "the signature gate rejected no partition-only candidate"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn query_is_exact_on_arbitrary_databases(
        db in arb_db(8, 7),
        q in arb_query(5),
    ) {
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let wall = std::time::Instant::now();
        let r = idx.query(&q);
        let wall = wall.elapsed();
        prop_assert_eq!(&r.matches, &scan_support(&idx, &q));
        // The funnel narrows, and the stage clocks nest: the walk inside
        // partition, the three stages inside the call.
        let s = &r.stats;
        prop_assert!(s.filtered >= s.answers);
        prop_assert!(s.t_enumerate <= s.t_partition, "{:?}", s);
        prop_assert!(s.total() <= wall, "{:?} in {:?}", s, wall);
    }

    #[test]
    fn anchored_verify_is_vf2_on_every_filter_survivor(
        db in arb_db(8, 7),
        q in arb_query(5),
        quick in any::<bool>(),
    ) {
        let params = if quick { TreePiParams::quick() } else { TreePiParams::default() };
        let idx = TreePiIndex::build(db, params);
        if let Some((got, want)) = anchored_and_vf2(&idx, &q) {
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn partitions_cover_queries_exactly_once(
        db in arb_db(6, 6),
        q in arb_connected_graph(6, 3),
    ) {
        let idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
        // The database graphs hold every feature: their occurrences overlap.
        for g in db.iter().chain([&q]) {
            let PartitionRuns::Ok {
        min_partition, sf, ..
    } = feature_tree_partition(g, &idx) else {
                // then the scan must also be empty
                prop_assert!(scan_support(&idx, g).is_empty());
                continue;
            };
            let mut covered = vec![false; g.edge_count()];
            for (i, p) in min_partition.iter().enumerate() {
                for e in &p.q_edges {
                    prop_assert!(!covered[e.idx()], "edge covered twice");
                    covered[e.idx()] = true;
                }
                // The part's subgraph is a tree, its feature, and its center
                // lands on the part's center representatives.
                let sub = graph_core::edge_subgraph(g, &p.q_edges);
                let tree = Tree::from_graph(sub.graph.clone()).expect("a part is a tree");
                prop_assert_eq!(&canonical_string(&tree), &idx.feature(p.feature).canon);
                let mut reps = match tree_core::center(&tree) {
                    Center::Vertex(v) => vec![sub.host_vertex(v)],
                    Center::Edge(e) => {
                        let edge = g.edge(sub.host_edge(e));
                        vec![edge.u, edge.v]
                    }
                };
                let mut want = p.center_reps_in_q.to_vec();
                reps.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(reps, want, "center of part {}", i);
                // Largest first: no later part has more edges.
                if let Some(next) = min_partition.get(i + 1) {
                    prop_assert!(next.q_edges.len() <= p.q_edges.len());
                }
            }
            prop_assert!(covered.iter().all(|&c| c));
            prop_assert!(!sf.is_empty());
        }
    }

    #[test]
    fn query_batch_is_deterministic_across_thread_counts(
        db in arb_db(6, 6),
        queries in proptest::collection::vec(arb_query(5), 1..=6),
    ) {
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        // Sequential ground truth: one query at a time.
        let seq: Vec<_> = queries.iter().map(|q| idx.query(q)).collect();
        for threads in [1usize, 2, 8] {
            let engine = Engine::new(idx.clone(), threads);
            let (batch, _) = engine.query_batch_pinned(&queries, &obs::Shard::disabled());
            prop_assert_eq!(batch.len(), queries.len());
            for (i, (b, s)) in batch.iter().zip(&seq).enumerate() {
                prop_assert_eq!(&b.matches, &s.matches, "matches, query {} threads {}", i, threads);
                prop_assert_eq!(
                    b.stats.filtered, s.stats.filtered,
                    "candidate count |Pq|, query {} threads {}", i, threads
                );
                prop_assert_eq!(
                    b.stats.answers, s.stats.answers,
                    "answer count |Dq|, query {} threads {}", i, threads
                );
                prop_assert_eq!(
                    b.stats.partition_size, s.stats.partition_size,
                    "partition size, query {} threads {}", i, threads
                );
            }
        }
    }

    #[test]
    fn insert_remove_preserve_exactness(
        db in arb_db(5, 6),
        extra in arb_connected_graph(6, 3),
        q in arb_query(4),
    ) {
        let mut idx = TreePiIndex::build(db, TreePiParams::quick());
        let gid = idx.insert(extra);
        prop_assert_eq!(idx.query(&q).matches, scan_support(&idx, &q));
        idx.remove(gid);
        if gid > 0 {
            idx.remove(gid - 1);
        }
        prop_assert_eq!(idx.query(&q).matches, scan_support(&idx, &q));
    }
}
