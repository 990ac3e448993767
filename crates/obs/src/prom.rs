//! Prometheus text-exposition rendering of a [`MetricSet`]
//! (`treepi.obs/v1` → exposition format version 0.0.4).
//!
//! The mapping is mechanical, which is the point — anything that can
//! scrape Prometheus text can monitor a `treepi serve` process without
//! knowing our JSON schema:
//!
//! - **counters** become `counter` families named `<sanitized>_total`
//!   (`serve.queries` → `serve_queries_total`);
//! - **gauges** become `gauge` families under their sanitized name;
//! - **spans** become `histogram` families named `<sanitized>_seconds`.
//!   The log-linear HDR buckets ([`crate::BUCKETS`]) translate directly:
//!   each occupied bucket's inclusive nanosecond upper bound
//!   ([`crate::bucket_upper`]) is an `le` boundary in seconds, counts are
//!   emitted cumulatively, and the mandatory `+Inf` bucket equals the
//!   span count. `_sum` is `total_ns` in seconds, `_count` is the span
//!   count — so `rate(serve_request_seconds_sum[1m]) /
//!   rate(serve_request_seconds_count[1m])` is the usual mean-latency
//!   query.
//!
//! Metric names are sanitized to the Prometheus charset
//! `[a-zA-Z_:][a-zA-Z0-9_:]*` by [`sanitize`] (dots and any other
//! illegal byte become `_`, a leading digit is prefixed with `_`). The
//! original name is preserved in the `# HELP` line so an operator can map
//! a family back to its `treepi.obs/v1` key. Sanitization can in
//! principle collide (`a.b` and `a_b`); our metric namespace never does,
//! and a collision would merely repeat a family header.
//!
//! Only occupied buckets get an `le` line — a fresh histogram over 720
//! buckets would otherwise dominate every scrape. Prometheus semantics
//! do not require any particular boundary set, only cumulative counts
//! and the `+Inf` terminator.

use crate::{bucket_upper, MetricSet, SpanStat};
use std::fmt::Write as _;

/// Content-Type for HTTP responses carrying [`render`] output.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Map an arbitrary metric name into the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: every illegal character becomes `_` and a
/// leading digit gets a `_` prefix. Idempotent (a sanitized name passes
/// through unchanged), never empty.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if legal {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a HELP string per the exposition format: backslash and newline.
fn help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Nanoseconds as seconds, in Rust's shortest-round-trip decimal form
/// (never scientific notation — Go's ParseFloat accepts it either way,
/// but plain decimals are easier on human readers).
fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

fn render_histogram(out: &mut String, fam: &str, original: &str, s: &SpanStat) {
    let _ = writeln!(
        out,
        "# HELP {fam} treepi span {} (latency histogram, seconds)",
        help_escape(original)
    );
    let _ = writeln!(out, "# TYPE {fam} histogram");
    let mut cumulative = 0u64;
    for (i, &c) in s.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        let _ = writeln!(
            out,
            "{fam}_bucket{{le=\"{}\"}} {cumulative}",
            seconds(bucket_upper(i))
        );
    }
    let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {}", s.count);
    let _ = writeln!(out, "{fam}_sum {}", seconds(s.total_ns));
    let _ = writeln!(out, "{fam}_count {}", s.count);
}

/// Render `set` as Prometheus text exposition format 0.0.4. Families are
/// emitted in original-name order within each kind: counters, then
/// gauges, then span histograms.
pub fn render(set: &MetricSet) -> String {
    let mut out = String::with_capacity(4096);
    for (name, v) in set.counters() {
        let mut fam = sanitize(name);
        if !fam.ends_with("_total") {
            fam.push_str("_total");
        }
        let _ = writeln!(out, "# HELP {fam} treepi counter {}", help_escape(name));
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {v}");
    }
    for (name, v) in set.gauges() {
        let fam = sanitize(name);
        let _ = writeln!(out, "# HELP {fam} treepi gauge {}", help_escape(name));
        let _ = writeln!(out, "# TYPE {fam} gauge");
        let _ = writeln!(out, "{fam} {v}");
    }
    for (name, s) in set.spans() {
        let fam = format!("{}_seconds", sanitize(name));
        render_histogram(&mut out, &fam, name, s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_maps_into_charset() {
        assert_eq!(sanitize("serve.queries"), "serve_queries");
        assert_eq!(sanitize("mem.alloc.live_bytes"), "mem_alloc_live_bytes");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("a-b c/d"), "a_b_c_d");
        assert_eq!(sanitize(""), "_");
        assert_eq!(sanitize("already_fine:ok"), "already_fine:ok");
    }

    #[test]
    fn sanitize_is_idempotent() {
        for name in ["serve.queries", "9lives", "", "Ω.μ", "x-y.z", "_ok"] {
            let once = sanitize(name);
            assert_eq!(sanitize(&once), once, "sanitize({name:?}) not a fixpoint");
        }
    }

    #[test]
    fn counter_total_suffix_is_not_doubled() {
        let mut set = MetricSet::new();
        set.add("loadgen.requests_total", 3);
        let text = render(&set);
        assert!(text.contains("loadgen_requests_total 3"));
        assert!(!text.contains("_total_total"));
    }

    #[test]
    fn seconds_renders_plain_decimals() {
        assert_eq!(seconds(0), "0");
        assert_eq!(seconds(3), "0.000000003");
        assert_eq!(seconds(1_500_000_000), "1.5");
    }
}
