//! Cross-crate soundness: on generated workloads, TreePi and gIndex must
//! both return exactly the brute-force answer set, and TreePi's candidate
//! funnel must always contain the truth.

use datagen::{extract_queries, generate_chem, generate_synthetic, ChemParams, SyntheticParams};
use gindex::{GIndex, GIndexParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use treepi::{scan_support, TreePiIndex, TreePiParams};

fn chem_db(n: usize, seed: u64) -> Vec<graph_core::Graph> {
    generate_chem(&ChemParams::sized(n), &mut ChaCha8Rng::seed_from_u64(seed))
}

#[test]
fn treepi_answers_equal_brute_force_on_chem() {
    let db = chem_db(60, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
    for m in [1, 3, 5, 8] {
        for q in extract_queries(&db, m, 8, &mut rng) {
            let got = idx.query(&q);
            let truth = scan_support(&idx, &q);
            assert_eq!(got.matches, truth, "query size {m}");
            assert!(got.stats.filtered >= got.stats.answers);
        }
    }
}

#[test]
fn treepi_answers_equal_brute_force_on_synthetic() {
    let params = SyntheticParams {
        n_graphs: 50,
        seed_size: 4.0,
        graph_size: 12.0,
        seed_count: 10,
        vertex_labels: 4,
        edge_labels: 2,
    };
    let db = generate_synthetic(&params, &mut ChaCha8Rng::seed_from_u64(3));
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
    for m in [2, 4, 6] {
        for q in extract_queries(&db, m, 6, &mut rng) {
            let got = idx.query(&q);
            assert_eq!(got.matches, scan_support(&idx, &q), "query size {m}");
        }
    }
}

#[test]
fn gindex_answers_equal_brute_force() {
    let db = chem_db(40, 5);
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let idx = GIndex::build(db.clone(), GIndexParams::quick(db.len()));
    for m in [1, 3, 4] {
        for q in extract_queries(&db, m, 6, &mut rng) {
            let r = idx.query(&q);
            let truth: Vec<u32> = db
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&q, g))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(r.matches, truth, "query size {m}");
        }
    }
}

#[test]
fn treepi_and_gindex_agree() {
    let db = chem_db(40, 7);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let tp = TreePiIndex::build(db.clone(), TreePiParams::quick());
    let gi = GIndex::build(db, GIndexParams::quick(40));
    for m in [2, 4] {
        for q in extract_queries(tp.db(), m, 6, &mut rng) {
            assert_eq!(tp.query(&q).matches, gi.query(&q).matches);
        }
    }
}

#[test]
fn maintenance_keeps_queries_exact() {
    let db = chem_db(30, 9);
    let extra = chem_db(10, 10);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let mut idx = TreePiIndex::build(db.clone(), TreePiParams::quick());
    for g in extra {
        idx.insert(g);
    }
    idx.remove(0);
    idx.remove(17);
    for q in extract_queries(&db, 4, 8, &mut rng) {
        let got = idx.query(&q);
        assert_eq!(got.matches, scan_support(&idx, &q));
    }
}
