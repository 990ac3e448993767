//! Prometheus encoder coverage: a golden-file rendering of a fixed
//! [`obs::MetricSet`] plus a property test over randomly generated spans
//! (bucket cumulativity, `+Inf` totals).
//!
//! The property test uses a local splitmix64 — `obs` deliberately has no
//! dev-dependencies (same pattern as the histogram tests in `src/lib.rs`).

use obs::prom::render;
use obs::{Counter, Gauge, MetricSet, Span};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
fn golden_rendering_of_a_fixed_set() {
    let mut set = MetricSet::new();
    set.add(Counter::SERVE_QUERIES, 42);
    set.set_gauge(Gauge::SERVE_QUEUE_DEPTH, 7);
    set.observe_ns(Span::SERVE_REQUEST, 3);
    set.observe_ns(Span::SERVE_REQUEST, 3);
    set.observe_ns(Span::SERVE_REQUEST, 7);
    let expected = "\
# HELP serve_queries_total serve.queries: Query requests (cache hits, queued and shed included).
# TYPE serve_queries_total counter
serve_queries_total 42
# HELP serve_queue_depth serve.queue_depth: Admission-queue depth when a live snapshot was taken.
# TYPE serve_queue_depth gauge
serve_queue_depth 7
# HELP serve_request_seconds serve.request: Admission to response of one served query.
# TYPE serve_request_seconds histogram
serve_request_seconds_bucket{le=\"0.000000003\"} 2
serve_request_seconds_bucket{le=\"0.000000007\"} 3
serve_request_seconds_bucket{le=\"+Inf\"} 3
serve_request_seconds_sum 0.000000013
serve_request_seconds_count 3
";
    assert_eq!(render(&set), expected);
}

/// Pull every `fam_bucket{le="..."} v` sample for `fam` out of rendered
/// text, in emission order, as `(le, cumulative_count)` pairs.
fn bucket_samples(text: &str, fam: &str) -> Vec<(String, u64)> {
    let prefix = format!("{fam}_bucket{{le=\"");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|rest| {
            let (le, rest) = rest.split_once("\"}").expect("closing label brace");
            (le.to_string(), rest.trim().parse().expect("bucket count"))
        })
        .collect()
}

fn sample_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .map(|v| v.trim().parse().expect("sample value"))
}

#[test]
fn histograms_are_cumulative_and_inf_matches_span_count() {
    let mut state = 0xC0FFEEu64;
    for _ in 0..50 {
        let mut set = MetricSet::new();
        let n_obs = (splitmix64(&mut state) % 200) as usize + 1;
        for _ in 0..n_obs {
            // Spread over the whole log-linear range including the
            // beyond-K_MAX clamp (2^55 max), while keeping the 200-sample
            // total_ns sum far from u64 overflow.
            let shift = 9 + splitmix64(&mut state) % 55;
            let ns = splitmix64(&mut state) >> shift;
            set.observe_ns(Span::QUERY_VERIFY, ns);
        }
        let text = render(&set);
        let buckets = bucket_samples(&text, "query_verify_seconds");
        assert!(!buckets.is_empty());
        let mut prev = 0u64;
        for (le, c) in &buckets {
            assert!(*c >= prev, "bucket counts must be cumulative ({le}: {c})");
            prev = *c;
        }
        let (last_le, inf_count) = buckets.last().unwrap();
        assert_eq!(last_le, "+Inf", "histogram must end with +Inf");
        assert_eq!(*inf_count, n_obs as u64, "+Inf equals the span count");
        // The bucket just before +Inf already covers every observation.
        if buckets.len() >= 2 {
            assert_eq!(buckets[buckets.len() - 2].1, n_obs as u64);
        }
        assert_eq!(
            sample_value(&text, "query_verify_seconds_count"),
            Some(n_obs as f64)
        );
        let sum = sample_value(&text, "query_verify_seconds_sum").unwrap();
        let expected = set.span("query.verify").unwrap().total_ns as f64 / 1e9;
        assert!((sum - expected).abs() <= expected * 1e-9 + 1e-12);
    }
}
