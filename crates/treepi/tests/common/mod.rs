//! What the `treepi` test binaries share: random connected graphs for the
//! property tests, the two fixed databases whose counts are pinned, and the
//! helpers that compare those counts. Each binary uses a subset.
#![allow(dead_code)]

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use treepi::{TreePiIndex, TreePiParams};

/// A random connected labeled graph: random tree plus a few extra edges.
pub fn arb_connected_graph(nmax: usize) -> impl Strategy<Value = Graph> {
    (2..=nmax).prop_flat_map(move |n| {
        let vlabels = proptest::collection::vec(0u32..3, n);
        let parents = proptest::collection::vec((0usize..nmax, 0u32..2), n - 1);
        let extras = proptest::collection::vec((0usize..nmax, 0usize..nmax, 0u32..2), 0..3);
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

pub fn arb_db(graphs: usize, nmax: usize) -> impl Strategy<Value = Vec<Graph>> {
    proptest::collection::vec(arb_connected_graph(nmax), 1..=graphs)
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

pub fn owned(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

/// Span counts outside the timing-dependent namespaces (`engine.*` and
/// `pool.*` worker histograms describe execution shape).
pub fn deterministic_span_counts(m: &obs::MetricSet) -> BTreeMap<String, u64> {
    m.spans()
        .filter(|(k, _)| !obs::names::EXEMPT_PREFIXES.iter().any(|p| k.starts_with(p)))
        .map(|(k, s)| (k.to_string(), s.count))
        .collect()
}
