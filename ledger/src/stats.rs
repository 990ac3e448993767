//! The harness's own arithmetic: medians, percentiles under the
//! sample-count rule, the quartile spread the acceptance check uses, the
//! open-loop due-time schedule, a Zipf sampler and the bound check.
//! Nothing here calls into the repository.

use rand::Rng;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The sample-count rule: a percentile is reported only when at least ten
/// samples lie beyond it. Returns the percentile actually supported when
/// `want` is asked of `n` samples — `want` itself when `n` is large enough,
/// otherwise the highest supported one, never below the median.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Median plus the tail percentiles of a latency sample, each clamped by
/// [`supported_percentile`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    /// The percentile `p95` really is, after the sample-count rule.
    pub p95_at: f64,
}

pub fn tail(samples: &[f64]) -> Tail {
    if samples.is_empty() {
        return Tail::default();
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p95_at = supported_percentile(n, 0.95);
    Tail {
        n,
        p50: percentile_sorted(&v, 0.5),
        p95: percentile_sorted(&v, p95_at),
        p99: percentile_sorted(&v, supported_percentile(n, 0.99)),
        p95_at,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — the acceptance check is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the run-to-run noise band. Zero when fewer than two samples exist.
pub fn spread_frac(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Due time, in nanoseconds after the phase start, of request `i` on
/// connection `conn` of `conns` when the phase as a whole sends `rate`
/// requests per second: connections interleave evenly.
pub fn due_ns(i: u64, conn: usize, conns: usize, rate: f64) -> u64 {
    let interval = conns as f64 * 1e9 / rate;
    ((i as f64 + conn as f64 / conns as f64) * interval) as u64
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// Outcome of comparing one (workload, metric) pair between two result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Within,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The noise band of either side exceeds the bound: no call is made.
    Unresolved,
}

/// By what share of `a` the value `b` is worse (negative when better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Apply a bound: `spread` is the wider noise band of the two sides.
pub fn bound_check(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over an empty domain");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn sample_count_rule_needs_ten_beyond() {
        // p95 needs 200 samples, p99 needs 1000.
        assert_eq!(supported_percentile(200, 0.95), 0.95);
        assert!(supported_percentile(199, 0.95) < 0.95);
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
        assert_eq!(supported_percentile(100, 0.99), 0.9);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_percentile(7, 0.95), 0.5);
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(
            (t.n, t.p50, t.p95, t.p99, t.p95_at),
            (3, 3.0, 3.0, 3.0, 0.5)
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert!((spread_frac(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread_frac(&[3.0]), 0.0);
    }

    #[test]
    fn due_times_interleave_connections() {
        // 400 req/s over 2 connections: each sends every 5 ms, offset 2.5 ms.
        assert_eq!(due_ns(0, 0, 2, 400.0), 0);
        assert_eq!(due_ns(0, 1, 2, 400.0), 2_500_000);
        assert_eq!(due_ns(1, 0, 2, 400.0), 5_000_000);
        assert_eq!(due_ns(3, 1, 2, 400.0), 17_500_000);
    }

    #[test]
    fn bound_check_directions_and_noise() {
        use Better::*;
        assert_eq!(
            bound_check(100.0, 109.0, Lower, 0.10, 0.02),
            Verdict::Within
        );
        assert_eq!(bound_check(100.0, 111.0, Lower, 0.10, 0.02), Verdict::Worse);
        assert_eq!(bound_check(100.0, 50.0, Lower, 0.10, 0.02), Verdict::Within);
        assert_eq!(bound_check(100.0, 89.0, Higher, 0.10, 0.02), Verdict::Worse);
        assert_eq!(
            bound_check(100.0, 91.0, Higher, 0.10, 0.02),
            Verdict::Within
        );
        // A noise band wider than the bound: no verdict either way.
        assert_eq!(
            bound_check(100.0, 150.0, Lower, 0.10, 0.11),
            Verdict::Unresolved
        );
        assert!((worse_by(200.0, 220.0, Lower) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut hits = [0u32; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        // Rank 0 carries 1/H_100 ≈ 19 % of the mass.
        assert!((hits[0] as f64 / 20_000.0 - 0.193).abs() < 0.02);
    }
}
