//! Prometheus text-exposition rendering of a [`MetricSet`]
//! (`treepi.obs/v1` → exposition format version 0.0.4).
//!
//! The mapping is mechanical, which is the point — anything that can
//! scrape Prometheus text can monitor a `treepi serve` process without
//! knowing our JSON schema:
//!
//! - **counters** become `counter` families named `<family>_total`
//!   (`serve.queries` → `serve_queries_total`);
//! - **gauges** become `gauge` families under their family name;
//! - **spans** become `histogram` families named `<family>_seconds`.
//!   The log-linear HDR buckets ([`crate::BUCKETS`]) translate directly:
//!   each occupied bucket's inclusive nanosecond upper bound
//!   ([`crate::bucket_upper`]) is an `le` boundary in seconds, counts are
//!   emitted cumulatively, and the mandatory `+Inf` bucket equals the
//!   span count. `_sum` is `total_ns` in seconds, `_count` is the span
//!   count — so `rate(serve_request_seconds_sum[1m]) /
//!   rate(serve_request_seconds_count[1m])` is the usual mean-latency
//!   query.
//!
//! A family is its catalog name with `.` written `_` (the catalog's tests
//! hold every name to the Prometheus charset), and its `# HELP` line gives
//! the `treepi.obs/v1` name and the catalog's help text.
//!
//! Only occupied buckets get an `le` line — a fresh histogram over 720
//! buckets would otherwise dominate every scrape. Prometheus semantics
//! do not require any particular boundary set, only cumulative counts
//! and the `+Inf` terminator.

use crate::{bucket_upper, MetricSet};
use std::fmt::Write as _;

/// Content-Type for HTTP responses carrying [`render`] output.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Nanoseconds as seconds, in Rust's shortest-round-trip decimal form
/// (never scientific notation — Go's ParseFloat accepts it either way,
/// but plain decimals are easier on human readers).
fn seconds(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

/// The `# HELP` and `# TYPE` lines of family `fam` for metric `name`.
fn header(out: &mut String, fam: &str, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {fam} {name}: {help}");
    let _ = writeln!(out, "# TYPE {fam} {kind}");
}

/// Render `set` as Prometheus text exposition format 0.0.4. Families are
/// emitted in metric-name order within each kind: counters, then gauges,
/// then span histograms.
pub fn render(set: &MetricSet) -> String {
    let mut out = String::with_capacity(4096);
    for (c, v) in set.counters() {
        let fam = format!("{}_total", c.name().replace('.', "_"));
        header(&mut out, &fam, c.name(), c.help(), "counter");
        let _ = writeln!(out, "{fam} {v}");
    }
    for (g, v) in set.gauges() {
        let fam = g.name().replace('.', "_");
        header(&mut out, &fam, g.name(), g.help(), "gauge");
        let _ = writeln!(out, "{fam} {v}");
    }
    for (span, s) in set.spans() {
        let fam = format!("{}_seconds", span.name().replace('.', "_"));
        header(&mut out, &fam, span.name(), span.help(), "histogram");
        let mut cumulative = 0u64;
        for (i, &c) in (0..).zip(&s.buckets) {
            if c > 0 {
                cumulative += c;
                let le = seconds(bucket_upper(i));
                let _ = writeln!(out, "{fam}_bucket{{le=\"{le}\"}} {cumulative}");
            }
        }
        let _ = writeln!(out, "{fam}_bucket{{le=\"+Inf\"}} {}", s.count);
        let _ = writeln!(out, "{fam}_sum {}", seconds(s.total_ns));
        let _ = writeln!(out, "{fam}_count {}", s.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_renders_plain_decimals() {
        assert_eq!(seconds(0), "0");
        assert_eq!(seconds(3), "0.000000003");
        assert_eq!(seconds(1_500_000_000), "1.5");
    }
}
