//! Chemical substructure search — the paper's motivating application
//! (ChemIDplus-style lookups over a screen database).
//!
//! Generates an AIDS-surrogate molecule database, indexes it, and answers
//! substructure queries of growing size, printing the candidate funnel
//! (filtered → answers: every filtered candidate gets one anchored search)
//! and comparing against a full database scan. The paper's Center
//! Distance pruning, which would sit between the two, is not part of the
//! served pipeline; `experiments fig10` reports its `|P'q|`.
//!
//! ```sh
//! cargo run --release --example chemical_search -- [n_molecules]
//! ```

use datagen::{extract_queries, generate_chem, ChemParams};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;
use treepi::{scan_support, TreePiIndex, TreePiParams};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(300);
    let mut rng = ChaCha8Rng::seed_from_u64(2026);

    println!("generating {n} molecules…");
    let db = generate_chem(&ChemParams::sized(n), &mut rng);

    println!("building TreePi index (α=5, β=2, η=10, γ=1.5)…");
    let t = Instant::now();
    let index = TreePiIndex::build(db.clone(), TreePiParams::default());
    println!(
        "  {} features, {} center positions, built in {:.2?}\n",
        index.feature_count(),
        index.stats().center_positions,
        t.elapsed()
    );

    println!(
        "{:>4} {:>8} {:>8} {:>12} {:>12}",
        "|q|", "|Pq|", "|Dq|", "treepi", "full scan"
    );
    for m in [4, 8, 12, 16] {
        let queries = extract_queries(&db, m, 20, &mut rng);
        let (mut pq, mut dq) = (0usize, 0usize);
        let t = Instant::now();
        for q in &queries {
            let r = index.query(q);
            pq += r.stats.filtered as usize;
            dq += r.stats.answers as usize;
        }
        let t_index = t.elapsed() / queries.len() as u32;

        let t = Instant::now();
        let mut scan_total = 0usize;
        for q in &queries {
            scan_total += scan_support(&index, q).len();
        }
        let t_scan = t.elapsed() / queries.len() as u32;
        assert_eq!(dq, scan_total, "index must agree with the scan");

        let k = queries.len();
        println!(
            "{:>4} {:>8} {:>8} {:>12.2?} {:>12.2?}",
            m,
            pq / k,
            dq / k,
            t_index,
            t_scan
        );
    }
    println!("\n(averages per query; treepi answers match the scan exactly)");
}
