//! gIndex construction (Yan, Yu & Han, SIGMOD'04), as configured in the
//! TreePi paper's §6.1: frequent subgraphs up to `maxL` edges under the
//! size-increasing support ψ(l), thinned to *discriminative* fragments.
//!
//! A fragment `x` is discriminative if the graphs containing all of `x`'s
//! already-indexed subfragments outnumber the graphs containing `x` itself
//! by at least γ_min: `|⋂_{y ⊂ x, y indexed} D_y| / |D_x| ≥ γ_min`.
//! Following gIndex's DFS-code tree, *all* frequent fragments stay in the
//! lookup structure (they guide query-time fragment enumeration), but only
//! discriminative ones contribute support sets to filtering.

use graph_core::{CanonCode, Graph};
use mining::{intersect_many, mine_frequent_subgraphs, PsiFn, SupportSet};
use obs::Gauge;
use rustc_hash::FxHashMap;

/// One frequent fragment in the index.
#[derive(Clone, Debug)]
pub struct Fragment {
    /// The pattern graph.
    pub graph: Graph,
    /// Canonical code (lookup key).
    pub code: CanonCode,
    /// Sorted support set.
    pub support: SupportSet,
    /// Whether the fragment passed the discriminative test (only these
    /// filter queries; the rest only guide enumeration).
    pub discriminative: bool,
}

/// gIndex parameters (paper §6.1 defaults via [`GIndexParams::paper_default`]).
#[derive(Clone, Copy, Debug)]
pub struct GIndexParams {
    /// Size-increasing support function ψ(l).
    pub psi: PsiFn,
    /// Minimum discriminative ratio γ_min (paper value 2.0).
    pub gamma_min: f64,
}

impl GIndexParams {
    /// The paper's configuration for a database of `n` graphs: maxL = 10,
    /// γ_min = 2.0, Θ = 0.1·N.
    pub fn paper_default(n: usize) -> Self {
        Self {
            psi: PsiFn::paper_default(n),
            gamma_min: 2.0,
        }
    }

    /// A small configuration for tests and quick experiments.
    pub fn quick(n: usize) -> Self {
        Self {
            psi: PsiFn {
                max_l: 4,
                theta: 0.5 * n as f64,
            },
            gamma_min: 2.0,
        }
    }
}

/// Build statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct GBuildStats {
    /// Frequent fragments mined.
    pub mined: usize,
    /// Discriminative fragments (= index size, Figure 9's gIndex series).
    pub features: usize,
    /// Whether mining reached its per-level guard and stopped early (see
    /// [`mining::MiningStats::truncated`]).
    pub truncated: bool,
    /// Milliseconds spent in total.
    pub t_build_ms: u128,
}

/// The gIndex baseline.
pub struct GIndex {
    db: Vec<Graph>,
    fragments: Vec<Fragment>,
    by_code: FxHashMap<CanonCode, u32>,
    params: GIndexParams,
    stats: GBuildStats,
}

impl GIndex {
    /// Mine and select fragments over `db`.
    pub fn build(db: Vec<Graph>, params: GIndexParams) -> Self {
        let t0 = std::time::Instant::now();
        let (mined, mstats) = mine_frequent_subgraphs(&db, &params.psi);
        let mined_count = mined.len();

        // Discriminative selection in size order. Sub-fragment supports are
        // approximated by the direct (one-edge-removed) ancestors that are
        // already selected — the binding constraints, since smaller
        // ancestors have superset supports.
        let mut fragments: Vec<Fragment> = Vec::with_capacity(mined.len());
        let mut selected_codes: FxHashMap<CanonCode, usize> = FxHashMap::default();
        for m in mined {
            let discriminative = if m.graph.edge_count() == 1 {
                true // size-1 fragments are always indexed (completeness)
            } else {
                let mut parent_sets: Vec<&[u32]> = Vec::new();
                for code in crate::removal_codes(&m.graph) {
                    if let Some(&i) = selected_codes.get(&code) {
                        parent_sets.push(&fragments[i].support);
                    }
                }
                let denom = m.support.len().max(1) as f64;
                let inter = if parent_sets.is_empty() {
                    db.len()
                } else {
                    intersect_many(&parent_sets, db.len()).len()
                };
                inter as f64 / denom >= params.gamma_min
            };
            if discriminative {
                selected_codes.insert(m.code.clone(), fragments.len());
            }
            fragments.push(Fragment {
                graph: m.graph,
                code: m.code,
                support: m.support,
                discriminative,
            });
        }

        let by_code = fragments
            .iter()
            .enumerate()
            .map(|(i, f)| (f.code.clone(), i as u32))
            .collect();
        let stats = GBuildStats {
            mined: mined_count,
            features: fragments.iter().filter(|f| f.discriminative).count(),
            truncated: mstats.truncated,
            t_build_ms: t0.elapsed().as_millis(),
        };
        Self {
            db,
            fragments,
            by_code,
            params,
            stats,
        }
    }

    /// The database.
    pub fn db(&self) -> &[Graph] {
        &self.db
    }

    /// All frequent fragments (discriminative and guide-only).
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Number of discriminative fragments — the index size reported in
    /// Figure 9.
    pub fn feature_count(&self) -> usize {
        self.stats.features
    }

    /// Configuration.
    pub fn params(&self) -> &GIndexParams {
        &self.params
    }

    /// Build statistics.
    pub fn stats(&self) -> &GBuildStats {
        &self.stats
    }

    /// Fragment lookup by canonical code.
    pub fn fragment_by_code(&self, code: &CanonCode) -> Option<&Fragment> {
        self.by_code.get(code).map(|&i| &self.fragments[i as usize])
    }

    /// Estimated heap bytes of the fragment set: pattern graphs, canonical
    /// codes, and support sets. Length-based, like
    /// [`graph_core::Graph::heap_bytes`].
    pub fn fragments_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fragments
            .iter()
            .map(|f| {
                f.graph.heap_bytes()
                    + f.code.0.len() * size_of::<u32>()
                    + f.support.len() * size_of::<u32>()
            })
            .sum()
    }

    /// Estimated heap bytes of the code → fragment lookup map (keys are
    /// cloned codes).
    pub fn lookup_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.by_code
            .keys()
            .map(|code| size_of::<(CanonCode, u32)>() + code.0.len() * size_of::<u32>())
            .sum()
    }

    /// Total estimated heap bytes (database + fragments + lookup map).
    pub fn heap_bytes(&self) -> usize {
        self.db.iter().map(Graph::heap_bytes).sum::<usize>()
            + self.fragments_heap_bytes()
            + self.lookup_heap_bytes()
    }

    /// Record the heap estimates as `mem.gindex.*` gauges.
    pub fn record_mem_gauges(&self, registry: &obs::Registry) {
        registry.set_gauge(Gauge::MEM_GINDEX_BYTES, self.heap_bytes() as u64);
        registry.set_gauge(
            Gauge::MEM_GINDEX_FRAGMENTS_BYTES,
            self.fragments_heap_bytes() as u64,
        );
        registry.set_gauge(
            Gauge::MEM_GINDEX_LOOKUP_BYTES,
            self.lookup_heap_bytes() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graph_core::graph_from;

    fn tiny_db() -> Vec<Graph> {
        vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ]
    }

    #[test]
    fn build_selects_fragments() {
        let db = tiny_db();
        let idx = GIndex::build(db, GIndexParams::quick(3));
        assert!(idx.feature_count() >= 1);
        assert!(idx.stats().mined >= idx.feature_count());
        assert!(!idx.stats().truncated);
        // all size-1 fragments discriminative
        for f in idx.fragments() {
            if f.graph.edge_count() == 1 {
                assert!(f.discriminative);
            }
            // supports sorted & correct
            let brute: Vec<u32> = idx
                .db()
                .iter()
                .enumerate()
                .filter(|(_, g)| graph_core::is_subgraph_isomorphic(&f.graph, g))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(f.support, brute);
        }
    }

    #[test]
    fn heap_estimates_are_positive_and_consistent() {
        let idx = GIndex::build(tiny_db(), GIndexParams::quick(3));
        assert!(idx.fragments_heap_bytes() > 0);
        assert!(idx.lookup_heap_bytes() > 0);
        assert!(idx.heap_bytes() > idx.fragments_heap_bytes() + idx.lookup_heap_bytes());
        let r = obs::Registry::new();
        idx.record_mem_gauges(&r);
        assert_eq!(
            r.snapshot().gauge(Gauge::MEM_GINDEX_BYTES.name()),
            Some(idx.heap_bytes() as u64)
        );
    }

    #[test]
    fn lookup_round_trips() {
        let idx = GIndex::build(tiny_db(), GIndexParams::quick(3));
        for f in idx.fragments() {
            let found = idx.fragment_by_code(&f.code).expect("lookup");
            assert_eq!(found.support, f.support);
        }
    }

    #[test]
    fn discriminative_thinning_reduces_index() {
        // A redundant chain database: larger fragments have the same
        // support as their parents, so they are not discriminative.
        let db = vec![
            graph_from(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
            graph_from(&[0, 1, 2, 3], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]),
        ];
        let idx = GIndex::build(db, GIndexParams::quick(2));
        let total = idx.fragments().len();
        assert!(idx.feature_count() < total, "nothing was thinned");
    }
}
