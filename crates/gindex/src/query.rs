//! gIndex query processing: enumerate the query's frequent fragments,
//! intersect their support sets (candidate set `C_q`), then verify with
//! **naive** subgraph isomorphism — no location information exists to do
//! better, which is precisely the gap TreePi closes.
//!
//! A query only computes: its counts and stage times come back as
//! [`GQueryStats`], and a batch records them into its caller's shard once
//! its pool map returns ([`GIndex::query_batch_pool_obs`]), as TreePi's
//! engine does with its `QueryStats`.

use crate::index::GIndex;
use graph_core::{canonical_code, edge_subgraph, for_each_connected_edge_subset, Graph};
use mining::{intersect_many, SupportSet};
use obs::{Counter, Span};
use rustc_hash::FxHashSet;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Per-query statistics (mirrors TreePi's `QueryStats` where applicable).
#[derive(Clone, Copy, Debug, Default)]
pub struct GQueryStats {
    /// Distinct indexed fragments found in the query.
    pub fragments_used: usize,
    /// Query subgraphs enumerated (after frequent-prefix pruning).
    pub enumerated: usize,
    /// `|C_q|` — candidates after filtering.
    pub filtered: usize,
    /// `|D_q|` — exact answers.
    pub answers: usize,
    /// Time spent enumerating fragments and filtering.
    pub t_filter: Duration,
    /// Time spent in naive verification.
    pub t_verify: Duration,
}

impl GQueryStats {
    /// Record this query's funnel counters and stage timings into `shard`,
    /// under the **same names** TreePi uses so cross-system metric files
    /// line up column-for-column. Every candidate costs one full
    /// isomorphism test, so `graph.iso_tests` is `filtered` (recorded when
    /// nonzero); the absent partition stage observes zero. When the shard
    /// traces, the stages are traced as TreePi's are, ending at `end`, the
    /// query's finish.
    fn record_into(&self, shard: &obs::Shard, query: u64, end: Instant) {
        shard.add(Counter::FUNNEL_QUERIES, 1);
        shard.add(Counter::FUNNEL_FILTERED, self.filtered as u64);
        shard.add(Counter::FUNNEL_ANSWERS, self.answers as u64);
        shard.add(Counter::GINDEX_ENUMERATED, self.enumerated as u64);
        shard.add(Counter::GINDEX_FRAGMENTS_USED, self.fragments_used as u64);
        if self.filtered > 0 {
            shard.add(Counter::GRAPH_ISO_TESTS, self.filtered as u64);
        }
        let [partition, filter, verify] = Span::PIPELINE;
        let stages = [
            (partition, Duration::ZERO),
            (filter, self.t_filter),
            (verify, self.t_verify),
        ];
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

/// Result of a gIndex query.
#[derive(Clone, Debug)]
pub struct GQueryResult {
    /// Sorted ids of graphs containing the query.
    pub matches: Vec<u32>,
    /// Stage statistics.
    pub stats: GQueryStats,
    /// The instant the query returned: where its traced stages end.
    pub finished: Instant,
}

impl GIndex {
    /// Candidate set `C_q`: graphs containing every indexed fragment of
    /// `q`. Exposed separately because Figure 10/11 plot `|C_q|` itself.
    pub fn candidates(&self, q: &Graph) -> (SupportSet, GQueryStats) {
        let mut stats = GQueryStats::default();
        let t = Instant::now();
        let max_l = self.params().psi.max_l;
        let mut used: FxHashSet<graph_core::CanonCode> = FxHashSet::default();
        let mut any_missing_edge = false;
        let mut enumerated = 0usize;

        // Enumerate connected edge subsets, growing only frequent
        // fragments. The index holds every frequent fragment up to maxL and
        // ψ is non-decreasing, so no superset of a non-fragment is one
        // (Apriori): the prune loses no fragment.
        let _ = for_each_connected_edge_subset(q, max_l, |edges| {
            enumerated += 1;
            let sub = edge_subgraph(q, edges);
            let code = canonical_code(&sub.graph);
            match self.fragment_by_code(&code) {
                Some(f) => {
                    if f.discriminative {
                        used.insert(code);
                    }
                    ControlFlow::Continue(true)
                }
                // A single query edge unseen in the whole database: the
                // support is provably empty.
                None if edges.len() == 1 => {
                    any_missing_edge = true;
                    ControlFlow::Break(())
                }
                None => ControlFlow::Continue(false),
            }
        });
        stats.enumerated = enumerated;

        let candidates = if any_missing_edge {
            Vec::new()
        } else {
            let sets: Vec<&[u32]> = used
                .iter()
                .map(|c| {
                    self.fragment_by_code(c)
                        .expect("used fragment")
                        .support
                        .as_slice()
                })
                .collect();
            intersect_many(&sets, self.db().len())
        };
        stats.fragments_used = used.len();
        stats.filtered = candidates.len();
        stats.t_filter = t.elapsed();
        (candidates, stats)
    }

    /// Full gIndex query: filter then naive verification, one
    /// isomorphism test per candidate.
    pub fn query(&self, q: &Graph) -> GQueryResult {
        assert!(q.edge_count() > 0, "queries must have at least one edge");
        let (candidates, mut stats) = self.candidates(q);
        let t = Instant::now();
        let matches: Vec<u32> = candidates
            .into_iter()
            .filter(|&gid| graph_core::is_subgraph_isomorphic(q, &self.db()[gid as usize]))
            .collect();
        stats.t_verify = t.elapsed();
        stats.answers = matches.len();
        GQueryResult {
            matches,
            stats,
            finished: Instant::now(),
        }
    }

    /// Batch entry point mirroring `treepi::Engine::query_batch_pinned` so
    /// cross-system comparisons run both sides with the same work
    /// distribution on a caller-owned worker pool; results come back in
    /// query order, identical at any pool size. Once the map returns, this
    /// thread records every query into the caller's `shard`, so the
    /// deterministic totals are pool-size invariant, as for TreePi.
    pub fn query_batch_pool_obs(
        &self,
        queries: &[Graph],
        pool: &graph_core::par::Pool,
        shard: &obs::Shard,
    ) -> Vec<GQueryResult> {
        let results = pool.ordered_map(queries, |q| self.query(q));
        for (i, r) in results.iter().enumerate() {
            r.stats.record_into(shard, i as u64, r.finished);
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GIndexParams;
    use graph_core::graph_from;

    fn index() -> GIndex {
        let db = vec![
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1), (2, 3, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
        ];
        GIndex::build(db, GIndexParams::quick(4))
    }

    fn oracle(idx: &GIndex, q: &Graph) -> Vec<u32> {
        idx.db()
            .iter()
            .enumerate()
            .filter(|(_, g)| graph_core::is_subgraph_isomorphic(q, g))
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn query_matches_oracle() {
        let idx = index();
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[0, 1, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 0, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        for (i, q) in queries.iter().enumerate() {
            let r = idx.query(q);
            assert_eq!(r.matches, oracle(&idx, q), "query {i}");
            assert!(r.stats.filtered >= r.stats.answers);
        }
    }

    #[test]
    fn candidates_contain_answers() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]);
        let (cands, _) = idx.candidates(&q);
        for a in oracle(&idx, &q) {
            assert!(cands.contains(&a));
        }
    }

    #[test]
    fn missing_edge_short_circuits() {
        let idx = index();
        let q = graph_from(&[7, 7], &[(0, 1, 3)]);
        let r = idx.query(&q);
        assert!(r.matches.is_empty());
        assert_eq!(r.stats.filtered, 0);
    }

    #[test]
    fn stats_track_fragments() {
        let idx = index();
        let q = graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]);
        let r = idx.query(&q);
        assert!(r.stats.fragments_used >= 1);
        assert!(r.stats.enumerated >= r.stats.fragments_used);
    }

    #[test]
    fn obs_counters_reconcile_and_share_treepi_names() {
        let idx = index();
        let queries = vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        let run = |threads: usize| {
            let shard = obs::Shard::detached(true);
            let pool = graph_core::par::Pool::new(threads);
            let results = idx.query_batch_pool_obs(&queries, &pool, &shard);
            (results, shard.into_set())
        };
        let (results, m) = run(1);
        assert_eq!(
            m.counter(Counter::FUNNEL_QUERIES.name()),
            queries.len() as u64
        );
        let filtered: u64 = results.iter().map(|r| r.stats.filtered as u64).sum();
        let answers: u64 = results.iter().map(|r| r.stats.answers as u64).sum();
        assert_eq!(m.counter(Counter::FUNNEL_FILTERED.name()), filtered);
        assert_eq!(m.counter(Counter::FUNNEL_ANSWERS.name()), answers);
        // one full isomorphism test per candidate
        assert_eq!(m.counter(Counter::GRAPH_ISO_TESTS.name()), filtered);
        // all three TreePi pipeline spans exist (partition is zeros)
        for name in Span::PIPELINE.map(Span::name) {
            assert_eq!(
                m.span(name).expect("span present").count,
                queries.len() as u64,
                "{name}"
            );
        }
        for threads in [2, 8] {
            let (_, m2) = run(threads);
            assert_eq!(
                m2.deterministic_counters(),
                m.deterministic_counters(),
                "threads={threads}"
            );
        }
    }

    /// A traced batch tags every pipeline-stage event with its query's
    /// batch position, at any pool size, on the caller's lane, each
    /// query's stages laid end to end.
    #[test]
    fn traced_batch_tags_stage_events_with_batch_position() {
        let idx = index();
        let queries = vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
        ];
        for threads in [1, 3] {
            let reg = obs::Registry::with_tracing();
            let pool = graph_core::par::Pool::new(threads);
            let shard = reg.shard();
            idx.query_batch_pool_obs(&queries, &pool, &shard);
            reg.absorb(shard);
            let events = reg.drain_trace();
            assert_eq!(events.len(), queries.len() * Span::PIPELINE.len());
            assert!(events.iter().all(|e| e.lane == events[0].lane));
            for q in 0..queries.len() as u64 {
                let stages: Vec<_> = Span::PIPELINE
                    .iter()
                    .map(|span| {
                        let e = events
                            .iter()
                            .find(|e| e.query == Some(q) && e.name == span.name());
                        let e = e.expect("stage traced");
                        (e.start_ns, e.start_ns + e.dur_ns)
                    })
                    .collect();
                for w in stages.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "query {q}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn batch_matches_sequential_at_any_thread_count() {
        let idx = index();
        let queries = vec![
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0), (2, 0, 1)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        let seq: Vec<Vec<u32>> = queries.iter().map(|q| idx.query(q).matches).collect();
        for threads in [1, 2, 8] {
            let pool = graph_core::par::Pool::new(threads);
            let batch = idx.query_batch_pool_obs(&queries, &pool, &obs::Shard::disabled());
            assert_eq!(batch.len(), queries.len());
            for (i, r) in batch.iter().enumerate() {
                assert_eq!(r.matches, seq[i], "query {i}, threads {threads}");
            }
        }
    }
}
