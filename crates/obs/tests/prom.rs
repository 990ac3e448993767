//! Prometheus encoder coverage: a golden-file rendering of a fixed
//! [`obs::MetricSet`] plus property tests over randomly generated sets
//! (bucket cumulativity, `+Inf` totals, sanitization round-trips).
//!
//! The property tests use a local splitmix64 — `obs` deliberately has no
//! dev-dependencies (same pattern as the histogram tests in `src/lib.rs`).

use obs::prom::{render, sanitize};
use obs::MetricSet;

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
    set.add("9weird-name.x", 1);
    set.add("serve.queries", 42);
    set.set_gauge("serve.queue_depth", 7);
    set.observe_ns("serve.request", 3);
    set.observe_ns("serve.request", 3);
    set.observe_ns("serve.request", 7);
    let expected = "\
# HELP _9weird_name_x_total treepi counter 9weird-name.x
# TYPE _9weird_name_x_total counter
_9weird_name_x_total 1
# HELP serve_queries_total treepi counter serve.queries
# TYPE serve_queries_total counter
serve_queries_total 42
# HELP serve_queue_depth treepi gauge serve.queue_depth
# TYPE serve_queue_depth gauge
serve_queue_depth 7
# HELP serve_request_seconds treepi span serve.request (latency histogram, seconds)
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
            set.observe_ns("t.span", ns);
        }
        let text = render(&set);
        let buckets = bucket_samples(&text, "t_span_seconds");
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
            sample_value(&text, "t_span_seconds_count"),
            Some(n_obs as f64)
        );
        let sum = sample_value(&text, "t_span_seconds_sum").unwrap();
        let expected = set.span("t.span").unwrap().total_ns as f64 / 1e9;
        assert!((sum - expected).abs() <= expected * 1e-9 + 1e-12);
    }
}

#[test]
fn counters_survive_sanitization_round_trip() {
    let mut state = 0xDEADBEEFu64;
    for round in 0..50 {
        let mut set = MetricSet::new();
        let mut expected: Vec<(String, u64)> = Vec::new();
        for i in 0..8 {
            // Random names over a hostile alphabet (dots, dashes, digits,
            // spaces, non-ASCII), kept collision-free by an index suffix.
            let alphabet: Vec<char> = "ab9.-_ :μ/".chars().collect();
            let len = (splitmix64(&mut state) % 12) as usize + 1;
            let mut name: String = (0..len)
                .map(|_| alphabet[(splitmix64(&mut state) as usize) % alphabet.len()])
                .collect();
            name.push_str(&format!(".{round}x{i}"));
            let v = splitmix64(&mut state) % 1_000_000;
            set.add(&name, v);
            expected.push((name, v));
        }
        let text = render(&set);
        for (name, v) in expected {
            let mut fam = sanitize(&name);
            if !fam.ends_with("_total") {
                fam.push_str("_total");
            }
            // The sanitized family name is legal Prometheus…
            let mut chars = fam.chars();
            let first = chars.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            // …idempotent under re-sanitization…
            assert_eq!(sanitize(&fam), fam);
            // …and its sample carries the original value, with the original
            // name recoverable from the HELP line.
            assert_eq!(sample_value(&text, &fam), Some(v as f64), "{name:?}");
            assert!(text.contains(&format!("# HELP {fam} treepi counter {name}")));
        }
    }
}
