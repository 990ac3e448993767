//! TreePi vs gIndex head-to-head on a synthetic dataset (the paper's §6.2
//! setup, scaled down): build both indexes over `D1kI10T20S100L4`-style
//! data and compare index sizes, candidate-set sizes (TreePi's `|Pq|`, the
//! candidates its anchored search tests, against gIndex's `|Cq|`), and
//! query times.
//!
//! ```sh
//! cargo run --release --example synthetic_workload -- [n_graphs] [labels]
//! ```

use datagen::{extract_queries, generate_synthetic, SyntheticParams};
use gindex::{GIndex, GIndexParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use treepi::{TreePiIndex, TreePiParams};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    let labels: u32 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let params = SyntheticParams {
        n_graphs: n,
        seed_size: 10.0,
        graph_size: 20.0,
        seed_count: (n / 8).max(20),
        vertex_labels: labels,
        edge_labels: 2,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    println!("dataset {} …", params.name());
    let db = generate_synthetic(&params, &mut rng);

    let t = Instant::now();
    let tp = TreePiIndex::build(db.clone(), TreePiParams::default());
    let t_tp = t.elapsed();
    let t = Instant::now();
    let gi = GIndex::build(db.clone(), GIndexParams::paper_default(n));
    let t_gi = t.elapsed();

    println!(
        "index sizes: TreePi {} features ({t_tp:.2?}), gIndex {} fragments ({t_gi:.2?})\n",
        tp.feature_count(),
        gi.feature_count()
    );

    println!(
        "{:>4} {:>10} {:>10} {:>8} {:>12} {:>12}",
        "|q|", "|Pq| (TP)", "|Cq| (gI)", "|Dq|", "treepi", "gindex"
    );
    for m in [4, 6, 8, 10] {
        let queries = extract_queries(&db, m, 20, &mut rng);
        let (mut pq, mut dq_t) = (0usize, 0usize);
        let t = Instant::now();
        for q in &queries {
            let r = tp.query(q);
            pq += r.stats.filtered as usize;
            dq_t += r.stats.answers as usize;
        }
        let t_tpq = t.elapsed() / queries.len() as u32;
        let (mut cq, mut dq_g) = (0usize, 0usize);
        let t = Instant::now();
        for q in &queries {
            let r = gi.query(q);
            cq += r.stats.filtered;
            dq_g += r.stats.answers;
        }
        let t_giq = t.elapsed() / queries.len() as u32;
        assert_eq!(dq_t, dq_g, "the two systems must agree");
        let k = queries.len();
        println!(
            "{:>4} {:>10} {:>10} {:>8} {:>12.2?} {:>12.2?}",
            m,
            pq / k,
            cq / k,
            dq_t / k,
            t_tpq,
            t_giq
        );
    }
}
