//! Build-equivalence property tests: on arbitrary databases, the index
//! built at 1, 2, and 8 threads must be **the same index** — not just
//! equivalent under queries, but byte-identical under [`persist`]
//! serialization (features in canon order, support sets, center columns)
//! with identical `BuildStats` shape counters. The per-vertex signatures are
//! derived data the file leaves out, so they are checked against a fresh
//! recompute instead. This is the determinism contract of the parallel
//! miner (which produces the posting lists) and the parallel signature
//! stage. One fixed database pins the bytes themselves, so a change that
//! moves them at every worker count alike is seen too.

use graph_core::{ELabel, Graph, GraphBuilder, VLabel, VertexId};
use proptest::prelude::*;
use treepi::{TreePiIndex, TreePiParams};

/// A random connected labeled graph: random tree plus a few extra edges.
fn arb_connected_graph(nmax: usize) -> impl Strategy<Value = Graph> {
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

fn arb_db(graphs: usize, nmax: usize) -> impl Strategy<Value = Vec<Graph>> {
    proptest::collection::vec(arb_connected_graph(nmax), 1..=graphs)
}

fn build(db: Vec<Graph>, threads: usize) -> TreePiIndex {
    TreePiIndex::build_with_threads_obs(db, TreePiParams::quick(), threads, &obs::Shard::disabled())
}

fn save_bytes(idx: &TreePiIndex) -> Vec<u8> {
    let mut out = Vec::new();
    idx.save(&mut out).expect("in-memory save");
    out
}

/// The database of `treepi gen --chem 40 --seed 11` under the paper's
/// default parameters builds this file at every worker count: 67 886 bytes
/// ending — as every `TPI4` file does — in the FNV-1a-64 of everything after
/// the magic, so the pair pins every byte. Re-recorded once when feature
/// trees began to be written in canonical vertex order (decoded from their
/// canonical strings) instead of the miner's: the size is unchanged, and a
/// file in the earlier order loads and re-saves to these bytes. A change
/// that means to alter the index or its format re-records it and says so.
#[test]
fn fixed_input_builds_the_golden_file() {
    use rand::SeedableRng;
    const GOLDEN: (usize, u64) = (67_886, 0xc6fd_21fc_d532_ee98);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let db = datagen::generate_chem(&datagen::ChemParams::sized(40), &mut rng);
    for threads in [1usize, 2, 8] {
        let idx = TreePiIndex::build_with_threads_obs(
            db.clone(),
            TreePiParams::default(),
            threads,
            &obs::Shard::disabled(),
        );
        let bytes = save_bytes(&idx);
        let sum = u64::from_le_bytes(*bytes.last_chunk().expect("a checksum"));
        assert_eq!((bytes.len(), sum), GOLDEN, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Builds at 1, 2, and 8 threads serialize to identical bytes and
    /// report identical shape counters.
    #[test]
    fn build_is_thread_count_invariant(db in arb_db(10, 8)) {
        let base = build(db.clone(), 1);
        prop_assert!(base.postings_consistent() && base.directory_consistent());
        let base_bytes = save_bytes(&base);
        for threads in [2usize, 8] {
            let idx = build(db.clone(), threads);
            prop_assert_eq!(
                &save_bytes(&idx),
                &base_bytes,
                "serialized index differs at threads={}",
                threads
            );
            prop_assert_eq!(base.stats(), idx.stats());
            prop_assert!(idx.postings_consistent(), "threads={}", threads);
            prop_assert!(idx.directory_consistent(), "threads={}", threads);
            prop_assert!(idx.sigs_consistent(), "threads={}", threads);
        }
    }

    /// Serialization itself is a pure function of the built index: two
    /// serial builds of the same database produce identical bytes (guards
    /// against transient fields — e.g. timings — leaking into the format).
    #[test]
    fn save_is_deterministic_across_runs(db in arb_db(6, 6)) {
        let a = build(db.clone(), 1);
        let b = build(db, 1);
        prop_assert_eq!(save_bytes(&a), save_bytes(&b));
    }
}
