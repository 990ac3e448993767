//! Build-equivalence property tests: on arbitrary databases, the index
//! built at 1, 2, and 8 threads must be **the same index** — not just
//! equivalent under queries, but byte-identical under [`persist`]
//! serialization (features in canon order, support sets, center columns)
//! with identical `BuildStats` shape counters. The per-vertex signatures are
//! derived data the file leaves out, so they are checked against a fresh
//! recompute instead. This is the determinism contract of the parallel
//! miner (which produces the posting lists) and the parallel signature
//! stage. One fixed database pins the bytes themselves, and the counts its
//! metered build records, so a change that moves them at every worker count
//! alike is seen too.

mod common;

use common::{arb_db, deterministic_span_counts};
use graph_core::Graph;
use obs::Gauge;
use proptest::prelude::*;
use std::collections::BTreeMap;
use treepi::{TreePiIndex, TreePiParams};

fn build(db: Vec<Graph>, threads: usize) -> TreePiIndex {
    TreePiIndex::build_with_threads_obs(db, TreePiParams::quick(), threads, &obs::Shard::disabled())
}

fn save_bytes(idx: &TreePiIndex) -> Vec<u8> {
    let mut out = Vec::new();
    idx.save(&mut out).expect("in-memory save");
    out
}

/// The database of `treepi gen --chem 40 --seed 11` under the paper's
/// default parameters builds this file at every worker count: 67 870 bytes
/// ending — as every `TPI5` file does — in the FNV-1a-64 of everything after
/// the magic, so the pair pins every byte. Re-recorded when feature trees
/// began to be written in canonical vertex order (decoded from their
/// canonical strings) instead of the miner's, with the size unchanged, and
/// when `TPI5` dropped the two mining-limit words (16 bytes) after δ, and when
/// the miner's γ growth bound changed the `mined` word alone (4 459 → 2 645
/// frequent trees counted, the same 418 kept). A change that means to alter
/// the index or its format re-records it and says so.
///
/// The same builds are metered, and every deterministic counter, span
/// count outside the timing-dependent namespaces and `mem.index.*` gauge is
/// pinned too: extension kinds, mined candidates and patterns per level
/// under σ(s) (the paper's Fig. 10), the γ test's survivors and the patterns
/// grown per level, that the miner's per-level guard discarded no level, and
/// the heap per structure. Whole maps are compared, so a
/// counter that appears or disappears fails as well as one that moves
/// either way.
#[test]
fn fixed_input_builds_the_golden_file() {
    const GOLDEN: (usize, u64) = (67_870, 0x83b7_af00_3020_8b6a);
    const TOTALS: [(&str, u64); 9] = [
        ("build.center_entries", 1_358),
        ("build.center_positions", 2_234),
        ("build.features", 418),
        ("build.features_kept", 418),
        ("build.mined", 2_645),
        ("build.sig_vertices", 1_068),
        ("build.truncated", 0),
        ("mine.candidates", 18_055),
        ("mine.patterns", 2_645),
    ];
    /// `mine.levelN.{kinds, candidates, patterns, pruned_by_support, kept,
    /// grown}`, N = 1..=8: extension kinds encoded, distinct candidate
    /// patterns they form, the σ(N) filter's survivors and rejects, the
    /// survivors the γ test kept, and those that pass the growth bound
    /// |D_p| / σ(N+1) > γ and were extended. Past level 1 an instance is
    /// generated only from its canonical parent (the one its largest leaf
    /// edge leaves) of a pattern that grew, so `.candidates` counts the
    /// patterns reached that way. Without the bound (4 459 mined) there were
    /// 9 levels and 35 000 instances.
    const LEVELS: [(u64, u64, u64, u64, u64, u64); 8] = [
        (38, 38, 38, 0, 38, 34),
        (199, 136, 136, 0, 62, 83),
        (591, 346, 346, 0, 103, 180),
        (1_343, 686, 686, 0, 98, 309),
        (2_603, 1_213, 1_213, 0, 89, 93),
        (2_178, 739, 184, 555, 23, 32),
        (1_135, 363, 42, 321, 5, 3),
        (166, 62, 0, 62, 0, 0),
    ];
    // The canonical-string directory became a hash table of 1 024 slots
    // for the 418 features (it was one id per feature): 2 424 bytes more in
    // `trie_bytes` and the total.
    const INDEX_GAUGES: [(Gauge, u64); 7] = [
        (Gauge::MEM_INDEX_BYTES, 114_848),
        (Gauge::MEM_INDEX_CENTERS_BYTES, 14_368),
        (Gauge::MEM_INDEX_DB_BYTES, 39_040),
        (Gauge::MEM_INDEX_FEATURES_BYTES, 32_816),
        (Gauge::MEM_INDEX_SIGS_BYTES, 18_048),
        (Gauge::MEM_INDEX_SUPPORTS_BYTES, 5_432),
        (Gauge::MEM_INDEX_TRIE_BYTES, 5_144),
    ];
    let mut counters = BTreeMap::from(TOTALS);
    let mut spans = BTreeMap::from([("build.mine", 1), ("build.sigs", 1)]);
    for (n, (kinds, candidates, patterns, pruned, kept, grown)) in (1..).zip(LEVELS) {
        use obs::MineLevel::*;
        let fields = [Kinds, Candidates, Patterns, PrunedBySupport, Kept, Grown];
        let values = [kinds, candidates, patterns, pruned, kept, grown];
        for (field, v) in fields.into_iter().zip(values) {
            counters.insert(field.at(n).name(), v);
        }
        spans.insert(obs::Span::mine_level(n).name(), 1);
    }
    let expected = (counters, spans);

    let db = common::chem40_db();
    for threads in [1usize, 2, 8] {
        let registry = obs::Registry::new();
        let shard = registry.shard();
        let idx = TreePiIndex::build_with_threads_obs(
            db.clone(),
            TreePiParams::default(),
            threads,
            &shard,
        );
        registry.absorb(shard);
        idx.record_mem_gauges(&registry);
        let bytes = save_bytes(&idx);
        let sum = u64::from_le_bytes(*bytes.last_chunk().expect("a checksum"));
        assert_eq!((bytes.len(), sum), GOLDEN, "threads={threads}");

        let m = registry.drain();
        let got = (m.deterministic_counters(), deterministic_span_counts(&m));
        assert_eq!(got, expected, "threads={threads}");
        let gauges: Vec<_> = m.gauges().collect();
        assert_eq!(gauges, INDEX_GAUGES, "threads={threads}");
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
