//! What the `treepi` test binaries share: random connected graphs for the
//! property tests, the two fixed databases whose counts are pinned, and the
//! helpers that compare those counts. Each binary uses a subset.
#![allow(dead_code)]

#[path = "../../../graph-core/tests/support/arb.rs"]
mod arb;

pub use arb::arb_connected_graph;
use graph_core::Graph;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use treepi::{TreePiIndex, TreePiParams};

pub fn arb_db(graphs: usize, nmax: usize) -> impl Strategy<Value = Vec<Graph>> {
    proptest::collection::vec(arb_connected_graph(nmax, 3), 1..=graphs)
}

/// The file `treepi build` writes for the database of `treepi gen --chem 25
/// --seed 7` under the paper's default parameters, and that database's
/// first three graphs as a query batch.
pub fn chem25_index_file() -> (Vec<u8>, Vec<Graph>) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(25), &mut rng);
    let queries = db[..3].to_vec();
    let mut file = Vec::new();
    TreePiIndex::build(db, TreePiParams::default())
        .save(&mut file)
        .expect("in-memory save");
    (file, queries)
}

/// The database of `treepi gen --chem 40 --seed 11`.
pub fn chem40_db() -> Vec<Graph> {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    datagen::generate_chem(&datagen::ChemParams::sized(40), &mut rng)
}

/// Counts of the spans the catalog marks deterministic (the `serve.*`,
/// `loadgen.*` and `maint.*` ones follow arrival timing).
pub fn deterministic_span_counts(m: &obs::MetricSet) -> BTreeMap<&'static str, u64> {
    m.spans()
        .filter(|(span, _)| span.is_deterministic())
        .map(|(span, s)| (span.name(), s.count))
        .collect()
}
