//! The TreePi query pipeline (paper §3, "Query Processing"): partition →
//! filter → verify from the stored centers, with per-stage statistics (the
//! quantities plotted in Figures 10–13). The partition stage walks the
//! query once for every occurrence of a stored feature: their features are
//! the filter set `SF_q`, and a greedy cover by the largest of them is
//! `TP_q` ([`crate::partition`]). Nothing on the path draws a random
//! number, so a query's answer and statistics are functions of the query
//! and the index alone. Each filter survivor gets one test, the anchored
//! search of [`crate::verify`]; its vertex-signature gate is the funnel's
//! only per-candidate signature check.
//!
//! The pipeline only computes: every count and stage time of a query comes
//! back in its [`QueryStats`], and nothing on the path records a metric.
//! The batch engine records each query once ([`QueryStats::record_into`]),
//! into its caller's shard after the batch returns.
//!
//! The pipeline has no options. Center-distance pruning (Algorithm 2,
//! [`crate::prune`]) does not run here: with verification one anchored
//! search of ≈ 1 µs per candidate, the few candidates it rejects save far
//! less search time than its distance oracles cost (DESIGN.md,
//! substitution 7). The paper's `|P'_q|` (Figures 10–11) and the other
//! ablations — `SF_q` from the partition alone, naive VF2 verification —
//! are measured by `crates/experiments`, which combines the public stage
//! functions.

use crate::filter::filter;
use crate::index::TreePiIndex;
use crate::partition::cover;
use crate::verify::verify_counted;
use crate::walk::{QueryFeatures, WalkCounts};
use graph_core::par::Pool;
use graph_core::Graph;
use std::time::{Duration, Instant};

/// Minimum candidate-set size before a query's verify stage is split
/// across workers. Measured, not derived: 32 beats 64 and ties 16; see
/// DESIGN.md ("Parallel query engine") for the numbers.
pub const INTRA_PAR_THRESHOLD: usize = 32;

/// Minimum count of growing seeds before a query's walk is shared out over
/// workers ([`crate::walk`]). Below it, posting the pool job costs more
/// than the second seat saves; measured, see DESIGN.md ("Parallel query
/// engine").
pub(crate) const WALK_SPLIT_SEEDS: usize = 16;

/// Per-query statistics.
///
/// The counts are `u32`: each is bounded by the query's edges, the
/// features or the database graphs, all numbered by `u32` ids, but for the
/// walk's, which saturate. That keeps the record at 104 bytes, where
/// callers that keep one per query (the ledger's direct workloads do) would
/// keep 144 with `usize` counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Parts in the partition `TP_q`.
    pub partition_size: u32,
    /// Distinct features in the filter set `SF_q`.
    pub sf_size: u32,
    /// `|P_q|` — candidates after filtering (gIndex's `|C_q|` analogue):
    /// the candidates verification searches.
    pub filtered: u32,
    /// `|D_q|` — the exact answer count.
    pub answers: u32,
    /// The query contained an edge that is not a feature (empty support
    /// proven without touching the database).
    pub missing_feature: bool,
    /// Edge subsets of the query the walk visited (zero when the query is
    /// itself a feature tree).
    pub walk_probes: u32,
    /// Of those, the subsets whose shape may be a feature's: canonically
    /// encoded and looked up.
    pub walk_encodes: u32,
    /// Of those, the subsets that are features: occurrences found.
    pub walk_hits: u32,
    /// Candidates the anchored search tested: `filtered`, unless the
    /// feature-tree shortcut answered without verifying.
    pub verify_tests: u32,
    /// Of those, candidates refused before any search because a part had
    /// no signature-compatible stored center.
    pub verify_center_sig_kills: u32,
    /// Time in the partition stage: the feature-tree shortcut, the walk and
    /// the cover.
    pub t_partition: Duration,
    /// Of `t_partition`, enumerating the query's indexed subtrees: the
    /// walk `TP_q` is covered from and `SF_q` is.
    pub t_enumerate: Duration,
    /// Time in the filter stage.
    pub t_filter: Duration,
    /// Time in the verify stage.
    pub t_verify: Duration,
}

impl QueryStats {
    /// The pipeline stages in funnel order, as `(span, time)` pairs —
    /// [`obs::Span::PIPELINE`] with this query's clocks. Every
    /// per-stage report (the total, metrics, traces, the server's
    /// slow-query capture) iterates this one list.
    pub fn stages(&self) -> [(obs::Span, Duration); 3] {
        let [partition, filter, verify] = obs::Span::PIPELINE;
        [
            (partition, self.t_partition),
            (filter, self.t_filter),
            (verify, self.t_verify),
        ]
    }

    /// Total processing time.
    pub fn total(&self) -> Duration {
        self.stages().iter().map(|&(_, t)| t).sum()
    }

    /// Record this query's funnel counters and stage timings into `shard`,
    /// and, when the shard traces, its stages as timeline events tagged
    /// with `query`, its batch position, ending at `end`, the instant it
    /// finished ([`QueryResult::finished`]). This is the one place a query
    /// is recorded: the batch engine calls it for each query once its
    /// batch returns.
    ///
    /// Every pipeline span ([`QueryStats::stages`]) and the partition
    /// stage's enumeration are observed unconditionally —
    /// short-circuited queries (feature-tree shortcut, missing feature)
    /// contribute zero-duration observations — so a metrics snapshot always
    /// carries the full stage breakdown. The `verify.*` counters are
    /// recorded only when nonzero. Everything recorded here is a pure
    /// function of the query outcome, so batch totals are bit-identical at
    /// any thread count. The stages are traced end to end before `end`
    /// ([`obs::trace::stages_ending_at`]).
    pub fn record_into(&self, shard: &obs::Shard, query: u64, end: Instant) {
        use obs::Counter;
        shard.add(Counter::FUNNEL_QUERIES, 1);
        shard.add(Counter::FUNNEL_FILTERED, self.filtered.into());
        shard.add(Counter::FUNNEL_ANSWERS, self.answers.into());
        shard.add(Counter::FUNNEL_MISSING_FEATURE, self.missing_feature.into());
        shard.add(Counter::FUNNEL_PARTITION_PARTS, self.partition_size.into());
        shard.add(Counter::FUNNEL_SF_FEATURES, self.sf_size.into());
        shard.add(Counter::WALK_PROBES, self.walk_probes.into());
        shard.add(Counter::WALK_ENCODES, self.walk_encodes.into());
        shard.add(Counter::WALK_HITS, self.walk_hits.into());
        for (id, n) in [
            (Counter::VERIFY_TESTS, self.verify_tests),
            (
                Counter::VERIFY_CENTER_SIG_KILLS,
                self.verify_center_sig_kills,
            ),
        ] {
            if n > 0 {
                shard.add(id, n.into());
            }
        }
        shard.observe(obs::Span::QUERY_PARTITION_ENUMERATE, self.t_enumerate);
        let stages = self.stages();
        for (span, t) in stages {
            shard.observe(span, t);
        }
        if shard.is_tracing() {
            for (span, start, t) in obs::trace::stages_ending_at(&stages, end) {
                shard.trace_complete(span, Some(query), start, t);
            }
        }
    }
}

/// Result of a TreePi query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Sorted ids of the graphs containing the query (`D_q`).
    pub matches: Vec<u32>,
    /// Stage statistics.
    pub stats: QueryStats,
    /// The instant the query returned: where its traced stages end.
    pub finished: Instant,
}

impl TreePiIndex {
    /// Answer the containment query `q` (paper §3): all active database
    /// graphs of which `q` is a subgraph.
    pub fn query(&self, q: &Graph) -> QueryResult {
        self.query_with_pool(q, &Pool::new(1), 1)
    }

    /// [`Self::query`] on `pool`, with up to `intra` seats of it for each
    /// stage that splits: the walk shares its growing seeds out over them
    /// when it has `WALK_SPLIT_SEEDS` (16) or more, and verification splits
    /// when the filter keeps [`INTRA_PAR_THRESHOLD`] candidates or more.
    /// Safe to call from inside a pool seat — the batch engine does exactly
    /// that — because [`Pool::run`] lets the dispatcher claim its own job's
    /// seats. Results and counts are identical at any `intra`/pool size:
    /// the walk's hits are put in one total order and its counts summed,
    /// and candidates are chunked in order and chunk results concatenated
    /// in order. Nothing is recorded; see [`QueryStats::record_into`].
    pub fn query_with_pool(&self, q: &Graph, pool: &Pool, intra: usize) -> QueryResult {
        let (matches, stats) = self.answer(q, pool, intra);
        QueryResult {
            matches,
            stats,
            finished: Instant::now(),
        }
    }

    /// The matches and statistics of [`Self::query_with_pool`].
    fn answer(&self, q: &Graph, pool: &Pool, intra: usize) -> (Vec<u32>, QueryStats) {
        assert!(q.edge_count() > 0, "queries must have at least one edge");
        let mut stats = QueryStats::default();

        // ---- Feature-tree shortcut (§5.1: RP first checks whether q
        // itself "is a feature tree in the index list"). Its stored
        // support set *is* the exact answer. ----
        let t = Instant::now();
        // Only tree-shaped queries can be feature trees; the encoder reads
        // the query as it stands, so nothing is copied to find out.
        let as_feature = |q: &Graph| {
            let mut enc = tree_core::SubtreeEncoder::default();
            let (tokens, _) = enc.encode(q, graph_core::VertexId(0), |_| true);
            self.feature_by_tokens(tokens)
        };
        if let Some(fid) = Some(q).filter(|q| q.is_tree()).and_then(as_feature) {
            let matches: Vec<u32> = self
                .feature(fid)
                .support
                .iter()
                .copied()
                .filter(|&gid| self.is_active(gid))
                .collect();
            stats.t_partition = t.elapsed();
            stats.partition_size = 1;
            stats.sf_size = 1;
            stats.filtered = count(matches.len());
            stats.answers = count(matches.len());
            return (matches, stats);
        }

        // ---- Partition: one walk finds every feature occurrence in q;
        // the cover TP_q and the filter set both read it. ----
        let t_enumerate = Instant::now();
        let mut walk = WalkCounts::default();
        let found = QueryFeatures::walk(self, q, pool, intra, &mut walk);
        stats.t_enumerate = t_enumerate.elapsed();
        (stats.walk_probes, stats.walk_encodes, stats.walk_hits) =
            (count(walk.probes), count(walk.encodes), count(walk.hits));
        let Ok(found) = found else {
            stats.t_partition = t.elapsed();
            stats.missing_feature = true;
            return (Vec::new(), stats);
        };
        let parts = cover(q, &found);
        let sf = found.features();
        stats.t_partition = t.elapsed();
        stats.partition_size = count(parts.len());
        stats.sf_size = count(sf.len());

        // ---- Filter (Algorithm 1) ----
        let t = Instant::now();
        let pq = filter(self, &sf);
        stats.t_filter = t.elapsed();
        stats.filtered = count(pq.len());

        // ---- Verify (Algorithm 3); split only on large candidate sets ----
        let t = Instant::now();
        let threads = if pq.len() >= INTRA_PAR_THRESHOLD {
            intra.max(1)
        } else {
            1
        };
        let (matches, kills) = verify_counted(self, q, &pq, &parts, pool, threads);
        stats.t_verify = t.elapsed();
        stats.answers = count(matches.len());
        stats.verify_tests = count(pq.len());
        stats.verify_center_sig_kills = count(kills);
        (matches, stats)
    }
}

/// `n` as a [`QueryStats`] count, saturating.
fn count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use crate::verify::scan_support;
    use graph_core::graph_from;

    fn index() -> TreePiIndex {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        TreePiIndex::build(db, TreePiParams::quick())
    }

    #[test]
    fn query_matches_oracle_and_stats_are_consistent() {
        let idx = index();
        let queries = vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        for q in &queries {
            let r = idx.query(q);
            assert_eq!(r.matches, scan_support(&idx, q));
            let s = &r.stats;
            assert!(s.partition_size >= 1);
            assert!(s.sf_size >= 1);
            // the funnel only narrows
            assert!(s.filtered >= s.answers);
            assert_eq!(s.answers as usize, r.matches.len());
            assert!(!s.missing_feature);
        }
    }

    /// A query vertex no part covers must still be placed: with one part
    /// (the 0-0 edge) a stored center for it was taken as proof, and the
    /// isolated 0 needs a third vertex that graphs 0 and 2 lack.
    #[test]
    fn isolated_query_vertex_needs_a_host_vertex() {
        let db = vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
        ];
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let q = graph_from(&[0, 0, 0], &[(0, 1, 0)]);
        assert_eq!(scan_support(&idx, &q), [1]);
        let r = idx.query(&q);
        assert_eq!(r.matches, [1]);
        assert_eq!(r.stats.partition_size, 1);
    }

    /// The record callers keep per query stays as small as the doc says.
    #[test]
    fn query_stats_are_104_bytes() {
        assert_eq!(std::mem::size_of::<QueryStats>(), 104);
    }

    #[test]
    fn missing_feature_short_circuits() {
        let idx = index();
        let q = graph_from(&[42, 42], &[(0, 1, 0)]);
        let r = idx.query(&q);
        assert!(r.matches.is_empty());
        assert!(r.stats.missing_feature);
        assert_eq!(r.stats.filtered, 0);
    }

    /// A tree-shaped query far deeper than the thread's stack could recurse
    /// — the shape a single wire frame can carry — goes through the
    /// feature-tree shortcut's canonical string and the walk's check of
    /// every edge; its last edge is in no database graph.
    #[test]
    fn long_path_query_fits_a_small_stack() {
        const N: u32 = 50_000;
        let idx = index();
        let worker = std::thread::Builder::new().stack_size(256 * 1024);
        let answer = worker.spawn(move || {
            let labels: Vec<u32> = (0..N).map(|i| u32::from(i == N - 1) * 42).collect();
            let edges: Vec<(u32, u32, u32)> = (1..N).map(|i| (i - 1, i, 0)).collect();
            let q = graph_from(&labels, &edges);
            idx.query(&q)
        });
        let r = answer.expect("thread spawns").join().expect("no overflow");
        assert!(r.matches.is_empty() && r.stats.missing_feature);
    }

    /// The same length with every edge indexed (the 4-cycle's 0-1 edge,
    /// labels alternating): the whole pipeline runs on it — walk, cover,
    /// filter, verification — in time linear in its length.
    #[test]
    fn long_indexed_path_query_fits_a_small_stack() {
        const N: u32 = 50_000;
        let idx = index();
        let labels: Vec<u32> = (0..N).map(|i| i % 2).collect();
        let edges: Vec<(u32, u32, u32)> = (1..N).map(|i| (i - 1, i, 0)).collect();
        let q = graph_from(&labels, &edges);
        let r = std::thread::scope(|s| {
            let worker = std::thread::Builder::new().stack_size(256 * 1024);
            let answer = worker.spawn_scoped(s, || idx.query(&q));
            answer.expect("thread spawns").join().expect("no overflow")
        });
        assert!(!r.stats.missing_feature);
        assert!(r.stats.filtered > 0, "the filter keeps candidates");
        assert_eq!(r.matches, scan_support(&idx, &q));
    }

    #[test]
    fn query_after_insert_and_remove() {
        let mut idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let g_new = graph_from(&[0, 0, 1, 0], &[(0, 1, 0), (1, 2, 0), (2, 3, 0)]);
        let gid = idx.insert(g_new);
        let r = idx.query(&q);
        assert!(r.matches.contains(&gid), "inserted graph must be found");
        assert_eq!(r.matches, scan_support(&idx, &q));
        idx.remove(gid);
        idx.remove(1);
        let r2 = idx.query(&q);
        assert!(!r2.matches.contains(&gid));
        assert!(!r2.matches.contains(&1));
        assert_eq!(r2.matches, scan_support(&idx, &q));
    }
}
