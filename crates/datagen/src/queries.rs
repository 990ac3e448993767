//! Query-set construction (paper §6.1).
//!
//! "We randomly select 1,000 graphs from the antiviral screen dataset and
//! then extract a connected m edge subgraph from each graph randomly. These
//! 1,000 subgraphs are taken as query set, denoted by Q_m."
//!
//! [`perturb_labels`] turns a query into a near miss (not in the paper).

use graph_core::{edge_subgraph, random_connected_edge_subgraph, Graph, GraphBuilder, VLabel};
use rand::Rng;

/// Extract `count` random connected `m`-edge query graphs from `db`.
///
/// Each query is cut from a randomly chosen database graph, so every query
/// has support ≥ 1 by construction. Graphs with fewer than `m` edges are
/// skipped (resampled).
pub fn extract_queries<R: Rng>(db: &[Graph], m: usize, count: usize, rng: &mut R) -> Vec<Graph> {
    assert!(m >= 1, "queries need at least one edge");
    assert!(!db.is_empty(), "empty database");
    let mut out = Vec::with_capacity(count);
    let mut failures = 0usize;
    while out.len() < count {
        let g = &db[rng.gen_range(0..db.len())];
        if g.edge_count() < m {
            failures += 1;
            if failures > count * 100 {
                panic!("database has too few graphs with >= {m} edges");
            }
            continue;
        }
        match random_connected_edge_subgraph(g, m, rng) {
            Some(edges) => out.push(edge_subgraph(g, &edges).graph),
            None => failures += 1,
        }
        if failures > count * 100 {
            panic!("could not extract enough {m}-edge connected subgraphs");
        }
    }
    out
}

/// `g` with one vertex's label swapped to another label present in it: a
/// near miss of `g`. The label multiset barely moves, so support filters
/// often still pass, but the neighbourhood around the swap changes, so the
/// candidates that survive the filter may no longer contain it. A graph
/// with a single label comes back unchanged.
pub fn perturb_labels<R: Rng>(g: &Graph, rng: &mut R) -> Graph {
    let n = g.vertex_count();
    let mut labels: Vec<VLabel> = g.vertices().map(|v| g.vlabel(v)).collect();
    for _ in 0..16 {
        let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if labels[i] != labels[j] {
            labels[i] = labels[j];
            break;
        }
    }
    let mut b = GraphBuilder::new();
    for &l in &labels {
        b.add_vertex(l);
    }
    for e in g.edges() {
        b.add_edge(e.u, e.v, e.label).expect("edge copy");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chem::{generate_chem, ChemParams};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn queries_have_exact_size_and_connectivity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let db = generate_chem(&ChemParams::sized(50), &mut rng);
        for m in [1, 4, 8, 12] {
            let qs = extract_queries(&db, m, 25, &mut rng);
            assert_eq!(qs.len(), 25);
            for q in &qs {
                assert_eq!(q.edge_count(), m);
                assert!(q.is_connected());
            }
        }
    }

    #[test]
    fn queries_are_contained_in_some_db_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let db = generate_chem(&ChemParams::sized(30), &mut rng);
        let qs = extract_queries(&db, 6, 10, &mut rng);
        for q in &qs {
            assert!(
                db.iter().any(|g| graph_core::is_subgraph_isomorphic(q, g)),
                "query not supported by its own database"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one edge")]
    fn zero_edge_queries_rejected() {
        let db = vec![graph_core::graph_from(&[0, 0], &[(0, 1, 0)])];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        extract_queries(&db, 0, 1, &mut rng);
    }

    #[test]
    fn near_miss_keeps_edges_and_moves_one_label() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let db = generate_chem(&ChemParams::sized(20), &mut rng);
        for q in extract_queries(&db, 6, 20, &mut rng) {
            let p = perturb_labels(&q, &mut rng);
            assert_eq!(p.edges(), q.edges());
            let moved = q.vertices().filter(|&v| p.vlabel(v) != q.vlabel(v)).count();
            assert!(moved <= 1, "{moved} labels moved");
            assert!(p
                .vertices()
                .all(|v| q.vlabel_multiset().contains(&p.vlabel(v))));
        }
    }
}
