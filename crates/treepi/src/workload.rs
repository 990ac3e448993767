//! Workload-level aggregation of per-query statistics: means, percentiles,
//! and funnel ratios over a batch of queries — the quantities the paper's
//! evaluation plots (average candidate-set sizes, average processing time)
//! plus tail behavior the averages hide.

use crate::query::QueryStats;
use std::time::Duration;

/// Aggregated statistics over a query workload.
#[derive(Clone, Debug, Default)]
pub struct WorkloadSummary {
    /// Number of queries aggregated.
    pub queries: usize,
    /// Mean `|P_q|` (after filtering).
    pub mean_filtered: f64,
    /// Mean `|P'_q|` (after Center Distance pruning).
    pub mean_pruned: f64,
    /// Mean `|D_q|` (answers).
    pub mean_answers: f64,
    /// Mean partition size `|TP_q|`.
    pub mean_partition_size: f64,
    /// Queries short-circuited by a missing feature.
    pub missing_feature: usize,
    /// Mean total processing time.
    pub mean_time: Duration,
    /// Median total processing time.
    pub p50_time: Duration,
    /// 95th-percentile total processing time.
    pub p95_time: Duration,
    /// Worst total processing time.
    pub max_time: Duration,
    /// Filtering precision `Σ|D_q| / Σ|P_q|` (1.0 = perfect filter). When
    /// the funnel is empty (`Σ|P_q| = 0` — every query short-circuited or
    /// filtered to nothing), this is defined as 1.0, not NaN: an empty
    /// candidate set admitted zero false positives, which is exactly what
    /// precision 1.0 claims, and it keeps the ratio finite for plots and
    /// CSV output. Same convention for [`Self::prune_precision`].
    pub filter_precision: f64,
    /// Pruning precision `Σ|D_q| / Σ|P'_q|` (1.0 = verification-free).
    /// Defined as 1.0 on an empty funnel (see [`Self::filter_precision`]).
    pub prune_precision: f64,
}

/// Aggregate a batch of per-query statistics.
///
/// Funnel ratios are guarded against empty denominators: a batch whose
/// every query produced zero candidates reports both precisions as exactly
/// 1.0 rather than dividing by zero (see the field docs on
/// [`WorkloadSummary`]).
pub fn summarize(stats: &[QueryStats]) -> WorkloadSummary {
    if stats.is_empty() {
        return WorkloadSummary::default();
    }
    let n = stats.len() as f64;
    let mut times: Vec<Duration> = stats.iter().map(|s| s.total()).collect();
    times.sort_unstable();
    // Ceil-based nearest rank: the smallest sample with at least a `p`
    // fraction of the distribution at or below it. Rounding (n-1)·p to the
    // *nearest* index under-reports the tail on small batches — with 20
    // queries, p95 landed on index 18, the p90 element; ceiling gives
    // index 19, the max, and never reports a value below the true quantile.
    let pct = |p: f64| -> Duration {
        let idx = ((times.len() as f64 - 1.0) * p).ceil() as usize;
        times[idx.min(times.len() - 1)]
    };
    let sum_f: usize = stats.iter().map(|s| s.filtered).sum();
    let sum_p: usize = stats.iter().map(|s| s.pruned).sum();
    let sum_a: usize = stats.iter().map(|s| s.answers).sum();
    WorkloadSummary {
        queries: stats.len(),
        mean_filtered: sum_f as f64 / n,
        mean_pruned: sum_p as f64 / n,
        mean_answers: sum_a as f64 / n,
        mean_partition_size: stats.iter().map(|s| s.partition_size).sum::<usize>() as f64 / n,
        missing_feature: stats.iter().filter(|s| s.missing_feature).count(),
        mean_time: times.iter().sum::<Duration>() / stats.len() as u32,
        p50_time: pct(0.50),
        p95_time: pct(0.95),
        max_time: *times.last().expect("nonempty"),
        filter_precision: if sum_f > 0 {
            sum_a as f64 / sum_f as f64
        } else {
            1.0
        },
        prune_precision: if sum_p > 0 {
            sum_a as f64 / sum_p as f64
        } else {
            1.0
        },
    }
}

impl std::fmt::Display for WorkloadSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} queries: |Pq|={:.1} |P'q|={:.1} |Dq|={:.1} (filter precision {:.2}, prune precision {:.2})",
            self.queries,
            self.mean_filtered,
            self.mean_pruned,
            self.mean_answers,
            self.filter_precision,
            self.prune_precision
        )?;
        write!(
            f,
            "time: mean {:.2?}, p50 {:.2?}, p95 {:.2?}, max {:.2?}; parts/query {:.1}; {} missing-feature short-circuits",
            self.mean_time,
            self.p50_time,
            self.p95_time,
            self.max_time,
            self.mean_partition_size,
            self.missing_feature
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TreePiParams;
    use crate::TreePiIndex;
    use graph_core::graph_from;

    fn fake(filtered: usize, pruned: usize, answers: usize, ms: u64) -> QueryStats {
        QueryStats {
            partition_size: 2,
            sf_size: 3,
            filtered,
            pruned,
            answers,
            missing_feature: false,
            t_partition: Duration::from_millis(ms / 2),
            t_filter: Duration::ZERO,
            t_prune: Duration::ZERO,
            t_verify: Duration::from_millis(ms - ms / 2),
            ..QueryStats::default()
        }
    }

    #[test]
    fn aggregates_means_and_precision() {
        let s = summarize(&[fake(10, 8, 4, 2), fake(20, 12, 6, 4)]);
        assert_eq!(s.queries, 2);
        assert!((s.mean_filtered - 15.0).abs() < 1e-9);
        assert!((s.mean_pruned - 10.0).abs() < 1e-9);
        assert!((s.mean_answers - 5.0).abs() < 1e-9);
        assert!((s.filter_precision - 10.0 / 30.0).abs() < 1e-9);
        assert!((s.prune_precision - 10.0 / 20.0).abs() < 1e-9);
        assert_eq!(s.max_time, Duration::from_millis(4));
        // ceil-based nearest rank lands on the upper of 2 samples
        assert_eq!(s.p50_time, Duration::from_millis(4));
    }

    #[test]
    fn percentiles_use_ceil_nearest_rank() {
        // 20 samples of 1..=20 ms: p95 must be the max (index 19), not the
        // p90 element (index 18) the old round-to-nearest picked.
        let batch: Vec<QueryStats> = (1..=20).map(|i| fake(10, 10, 5, i)).collect();
        let s = summarize(&batch);
        assert_eq!(s.p50_time, Duration::from_millis(11)); // ceil(19·0.5)=10
        assert_eq!(s.p95_time, Duration::from_millis(20)); // ceil(19·0.95)=19
        assert_eq!(s.max_time, Duration::from_millis(20));

        // Odd batch: p50 is the true median, p95 the last element.
        let batch: Vec<QueryStats> = (1..=5).map(|i| fake(10, 10, 5, i)).collect();
        let s = summarize(&batch);
        assert_eq!(s.p50_time, Duration::from_millis(3)); // ceil(4·0.5)=2
        assert_eq!(s.p95_time, Duration::from_millis(5)); // ceil(4·0.95)=4
        assert_eq!(s.max_time, Duration::from_millis(5));

        // Single sample: every percentile is that sample.
        let s = summarize(&[fake(1, 1, 1, 7)]);
        assert_eq!(s.p50_time, Duration::from_millis(7));
        assert_eq!(s.p95_time, Duration::from_millis(7));
        assert_eq!(s.max_time, Duration::from_millis(7));
    }

    #[test]
    fn p95_never_below_true_quantile() {
        // For any batch size, at least 95% of samples must be ≤ p95.
        for n in 1..=40u64 {
            let batch: Vec<QueryStats> = (1..=n).map(|i| fake(1, 1, 1, i)).collect();
            let s = summarize(&batch);
            let at_or_below = (1..=n)
                .filter(|&i| Duration::from_millis(i) <= s.p95_time)
                .count();
            assert!(
                at_or_below as f64 >= 0.95 * n as f64,
                "n={n}: only {at_or_below} samples ≤ p95"
            );
        }
    }

    #[test]
    fn empty_summary_is_default() {
        assert_eq!(summarize(&[]).queries, 0);
    }

    #[test]
    fn empty_funnel_precisions_are_one_not_nan() {
        // Every query short-circuited (missing feature): Σ|Pq| = Σ|P'q| = 0.
        // The precisions must be exactly 1.0 — finite, plottable, and
        // truthful (an empty candidate set admitted no false positives).
        let mut s = fake(0, 0, 0, 1);
        s.missing_feature = true;
        let sum = summarize(&[s, s, s]);
        assert_eq!(sum.queries, 3);
        assert_eq!(sum.missing_feature, 3);
        assert_eq!(sum.filter_precision, 1.0);
        assert_eq!(sum.prune_precision, 1.0);
        assert!(sum.filter_precision.is_finite());
        assert!(sum.prune_precision.is_finite());

        // Mixed case: only one query contributes candidates; ratios use the
        // non-zero sums and stay well-defined.
        let sum = summarize(&[fake(0, 0, 0, 1), fake(10, 5, 5, 1)]);
        assert!((sum.filter_precision - 0.5).abs() < 1e-9);
        assert!((sum.prune_precision - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_are_ordered() {
        let batch: Vec<QueryStats> = (1..=100).map(|i| fake(10, 10, 5, i)).collect();
        let s = summarize(&batch);
        assert!(s.p50_time <= s.p95_time);
        assert!(s.p95_time <= s.max_time);
        assert_eq!(s.max_time, Duration::from_millis(100));
    }

    #[test]
    fn end_to_end_with_real_queries() {
        let db = vec![
            graph_from(&[0, 0, 1], &[(0, 1, 0), (1, 2, 0)]),
            graph_from(&[0, 1], &[(0, 1, 1)]),
            graph_from(&[0, 0, 1, 1], &[(0, 1, 0), (0, 2, 0), (0, 3, 1)]),
        ];
        let idx = TreePiIndex::build(db, TreePiParams::quick());
        let queries = [
            graph_from(&[0, 0], &[(0, 1, 0)]),
            graph_from(&[0, 1], &[(0, 1, 1)]),
            graph_from(&[9, 9], &[(0, 1, 0)]),
        ];
        let stats: Vec<QueryStats> = queries.iter().map(|q| idx.query(q).stats).collect();
        let s = summarize(&stats);
        assert_eq!(s.queries, 3);
        assert_eq!(s.missing_feature, 1);
        assert!(s.prune_precision > 0.0);
        let text = s.to_string();
        assert!(text.contains("3 queries"));
    }
}
