//! Metrics regression gate: compare two [`crate::MetricSet`]s (a
//! checked-in baseline and a fresh run) and fail when a gated value grew
//! by more than a tolerance.
//!
//! Gating rules, chosen to make the gate useful in CI without flaking:
//!
//! - **Counters** and **span invocation counts** are gated — they are
//!   deterministic for seeded workloads, so any growth is a real
//!   algorithmic change (more candidates surviving the filter, more
//!   verification calls). The timing-dependent namespaces of
//!   [`crate::names::EXEMPT_PREFIXES`] are exempt, matching
//!   [`crate::MetricSet::deterministic_counters`]: they describe execution
//!   shape or arrival timing and legitimately vary between runs.
//! - **Gauges** (the `mem.*` family) are gated on *increase only* — a
//!   peak-memory or index-size regression fails, shrinkage never does.
//! - **Span p50/p95 latencies** are wall-clock and machine-dependent, so
//!   they are gated only when [`DiffOptions::include_timings`] is set
//!   (CLI `--time`); by default they are reported but never fail.
//! - A gated entry present in the baseline but **missing from the current
//!   run** is a regression: losing instrumentation must not silently pass.
//! - Entries new in the current run are reported as informational.

use crate::{names, MetricSet};

/// What kind of value a [`DiffEntry`] compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotonic counter.
    Counter,
    /// A point-in-time gauge (gated on increase only).
    Gauge,
    /// A span's invocation count.
    SpanCount,
    /// A span's p50 latency estimate (gated only with `include_timings`).
    SpanP50,
    /// A span's p95 latency estimate (gated only with `include_timings`).
    SpanP95,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::SpanCount => "span.count",
            Kind::SpanP50 => "span.p50_ns",
            Kind::SpanP95 => "span.p95_ns",
        }
    }
}

/// Outcome of one compared value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Identical on both sides.
    Unchanged,
    /// Lower than the baseline (never fails the gate).
    Improved,
    /// Higher than the baseline but within tolerance, or not a gated kind.
    Within,
    /// Higher than the baseline beyond tolerance — fails the gate.
    Regressed,
    /// Present in the baseline, absent from the current run — fails the
    /// gate for gated kinds (instrumentation loss).
    Missing,
    /// Absent from the baseline (informational).
    New,
}

/// One compared value in a [`DiffReport`].
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Metric name.
    pub name: String,
    /// Which value of the metric this row compares.
    pub kind: Kind,
    /// Baseline value (`None` when new).
    pub base: Option<u64>,
    /// Current value (`None` when missing).
    pub current: Option<u64>,
    /// Outcome.
    pub status: Status,
}

impl DiffEntry {
    /// Percent change vs the baseline; `None` when either side is absent
    /// or the baseline is 0 with a non-zero current (unbounded growth).
    pub fn pct_change(&self) -> Option<f64> {
        match (self.base, self.current) {
            (Some(0), Some(0)) => Some(0.0),
            (Some(0), Some(_)) => None,
            (Some(b), Some(c)) => Some((c as f64 - b as f64) / b as f64 * 100.0),
            _ => None,
        }
    }
}

/// Tolerances and scope for [`diff`].
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Maximum tolerated increase, in percent, for gated values.
    pub max_regress_pct: f64,
    /// Also gate span p50/p95 wall-clock estimates (off by default —
    /// machine-dependent).
    pub include_timings: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            max_regress_pct: 10.0,
            include_timings: false,
        }
    }
}

/// The result of comparing a current [`MetricSet`] against a baseline.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// All compared values, in (name, kind) order.
    pub entries: Vec<DiffEntry>,
    /// The options the comparison ran with.
    pub options: DiffOptions,
}

impl DiffReport {
    /// Whether any gated value regressed (the CI failure condition).
    pub fn regressed(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e.status, Status::Regressed | Status::Missing))
    }

    /// The failing entries.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.status, Status::Regressed | Status::Missing))
    }

    /// Human-readable table: every changed or failing row, then a verdict
    /// line (`ok:` or `REGRESSED:`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut shown = 0usize;
        for e in &self.entries {
            if e.status == Status::Unchanged {
                continue;
            }
            shown += 1;
            let fmt_side = |v: Option<u64>| match v {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            };
            let pct = match e.pct_change() {
                Some(p) => format!("{p:+.1}%"),
                None => "n/a".to_string(),
            };
            out.push_str(&format!(
                "  {:<10} {:<12} {:<40} {:>14} -> {:<14} {:>9}\n",
                match e.status {
                    Status::Improved => "improved",
                    Status::Within => "within",
                    Status::Regressed => "REGRESSED",
                    Status::Missing => "MISSING",
                    Status::New => "new",
                    Status::Unchanged => unreachable!(),
                },
                e.kind.label(),
                e.name,
                fmt_side(e.base),
                fmt_side(e.current),
                pct,
            ));
        }
        if shown == 0 {
            out.push_str("  (no differences)\n");
        }
        let unchanged = self.entries.len() - shown;
        let failures = self.regressions().count();
        if failures > 0 {
            out.push_str(&format!(
                "REGRESSED: {failures} gated value(s) exceed +{:.1}% ({unchanged} unchanged)\n",
                self.options.max_regress_pct
            ));
        } else {
            out.push_str(&format!(
                "ok: no gated value exceeds +{:.1}% ({unchanged} unchanged)\n",
                self.options.max_regress_pct
            ));
        }
        out
    }
}

/// Whether `(name, kind)` is covered by the gate under `opts`.
fn gated(name: &str, kind: Kind, opts: &DiffOptions) -> bool {
    // The timing-dependent namespaces are exempt, as in
    // MetricSet::deterministic_counters.
    if names::EXEMPT_PREFIXES.iter().any(|p| name.starts_with(p)) {
        return false;
    }
    match kind {
        Kind::Counter | Kind::Gauge | Kind::SpanCount => true,
        Kind::SpanP50 | Kind::SpanP95 => opts.include_timings,
    }
}

/// Classify one gated value pair under the tolerance.
fn classify(base: u64, current: u64, gate: bool, pct: f64) -> Status {
    use std::cmp::Ordering;
    match current.cmp(&base) {
        Ordering::Equal => Status::Unchanged,
        Ordering::Less => Status::Improved,
        Ordering::Greater => {
            let within = base > 0 && (current as f64 - base as f64) / base as f64 * 100.0 <= pct;
            if !gate || within {
                Status::Within
            } else {
                Status::Regressed
            }
        }
    }
}

/// Compare `current` against `base` under `opts`.
pub fn diff(base: &MetricSet, current: &MetricSet, opts: &DiffOptions) -> DiffReport {
    let mut entries = Vec::new();
    let mut push = |name: &str, kind: Kind, b: Option<u64>, c: Option<u64>| {
        let gate = gated(name, kind, opts);
        let status = match (b, c) {
            (Some(b), Some(c)) => classify(b, c, gate, opts.max_regress_pct),
            (Some(_), None) => {
                if gate {
                    Status::Missing
                } else {
                    Status::Within
                }
            }
            (None, Some(_)) => Status::New,
            (None, None) => return,
        };
        entries.push(DiffEntry {
            name: name.to_string(),
            kind,
            base: b,
            current: c,
            status,
        });
    };

    fn merged_names<'a>(
        b: impl Iterator<Item = &'a str>,
        c: impl Iterator<Item = &'a str>,
    ) -> Vec<String> {
        let mut v: Vec<String> = b.chain(c).map(str::to_string).collect();
        v.sort();
        v.dedup();
        v
    }

    for name in merged_names(
        base.counters().map(|(k, _)| k),
        current.counters().map(|(k, _)| k),
    ) {
        let b = base.counters().find(|(k, _)| *k == name).map(|(_, v)| v);
        let c = current.counters().find(|(k, _)| *k == name).map(|(_, v)| v);
        push(&name, Kind::Counter, b, c);
    }
    for name in merged_names(
        base.gauges().map(|(k, _)| k),
        current.gauges().map(|(k, _)| k),
    ) {
        push(&name, Kind::Gauge, base.gauge(&name), current.gauge(&name));
    }
    for name in merged_names(
        base.spans().map(|(k, _)| k),
        current.spans().map(|(k, _)| k),
    ) {
        let b = base.span(&name);
        let c = current.span(&name);
        push(
            &name,
            Kind::SpanCount,
            b.map(|s| s.count),
            c.map(|s| s.count),
        );
        push(
            &name,
            Kind::SpanP50,
            b.map(|s| s.quantile_ns(0.50)),
            c.map(|s| s.quantile_ns(0.50)),
        );
        push(
            &name,
            Kind::SpanP95,
            b.map(|s| s.quantile_ns(0.95)),
            c.map(|s| s.quantile_ns(0.95)),
        );
    }
    DiffReport {
        entries,
        options: *opts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(
        counters: &[(&str, u64)],
        gauges: &[(&str, u64)],
        spans: &[(&str, &[u64])],
    ) -> MetricSet {
        let mut m = MetricSet::new();
        for &(k, v) in counters {
            m.add(k, v);
        }
        for &(k, v) in gauges {
            m.set_gauge(k, v);
        }
        for &(k, obs) in spans {
            for &ns in obs {
                m.observe_ns(k, ns);
            }
        }
        m
    }

    #[test]
    fn identical_sets_pass_at_zero_tolerance() {
        let m = set(
            &[("funnel.filtered", 100)],
            &[("mem.index.bytes", 4096)],
            &[("query.filter", &[100, 200, 300])],
        );
        let report = diff(
            &m,
            &m.clone(),
            &DiffOptions {
                max_regress_pct: 0.0,
                include_timings: true,
            },
        );
        assert!(!report.regressed(), "{}", report.render_text());
        assert!(report.entries.iter().all(|e| e.status == Status::Unchanged));
    }

    #[test]
    fn counter_growth_beyond_tolerance_fails() {
        let base = set(&[("funnel.filtered", 100)], &[], &[]);
        let worse = set(&[("funnel.filtered", 125)], &[], &[]);
        let opts = DiffOptions {
            max_regress_pct: 10.0,
            include_timings: false,
        };
        let report = diff(&base, &worse, &opts);
        assert!(report.regressed());
        assert_eq!(report.regressions().count(), 1);
        // Within tolerance passes.
        let slightly = set(&[("funnel.filtered", 105)], &[], &[]);
        assert!(!diff(&base, &slightly, &opts).regressed());
        // Decrease never fails, even at zero tolerance.
        let better = set(&[("funnel.filtered", 10)], &[], &[]);
        let strict = DiffOptions {
            max_regress_pct: 0.0,
            include_timings: false,
        };
        assert!(!diff(&base, &better, &strict).regressed());
    }

    #[test]
    fn gauge_increase_fails_and_decrease_passes() {
        let base = set(&[], &[("mem.index.bytes", 1000)], &[]);
        let opts = DiffOptions {
            max_regress_pct: 10.0,
            include_timings: false,
        };
        assert!(diff(&base, &set(&[], &[("mem.index.bytes", 1200)], &[]), &opts).regressed());
        assert!(!diff(&base, &set(&[], &[("mem.index.bytes", 500)], &[]), &opts).regressed());
    }

    #[test]
    fn engine_namespace_is_exempt() {
        let base = set(
            &[("engine.workers", 1)],
            &[],
            &[("engine.worker_busy", &[10])],
        );
        let worse = set(
            &[("engine.workers", 64)],
            &[],
            &[("engine.worker_busy", &[10, 10, 10, 10])],
        );
        let opts = DiffOptions {
            max_regress_pct: 0.0,
            include_timings: true,
        };
        assert!(!diff(&base, &worse, &opts).regressed());
        // Even disappearing engine metrics don't fail.
        assert!(!diff(&base, &MetricSet::new(), &opts).regressed());
    }

    #[test]
    fn serving_namespaces_are_exempt() {
        // serve./cache./loadgen. depend on arrival timing, like engine.*.
        let base = set(
            &[("serve.shed", 0), ("cache.hit", 100), ("loadgen.ok", 50)],
            &[],
            &[("serve.request", &[10])],
        );
        let worse = set(
            &[("serve.shed", 999), ("cache.hit", 1), ("loadgen.ok", 1)],
            &[],
            &[("serve.request", &[10, 10, 10])],
        );
        let opts = DiffOptions {
            max_regress_pct: 0.0,
            include_timings: true,
        };
        assert!(!diff(&base, &worse, &opts).regressed());
        assert!(!diff(&base, &MetricSet::new(), &opts).regressed());
    }

    #[test]
    fn pool_namespace_is_exempt() {
        let base = set(&[("pool.tasks", 1)], &[], &[("pool.worker_busy", &[10])]);
        let worse = set(
            &[
                ("pool.tasks", 640),
                ("pool.steal_or_queue_wait_ns", 1 << 30),
            ],
            &[],
            &[("pool.worker_busy", &[10, 10, 10, 10])],
        );
        let opts = DiffOptions {
            max_regress_pct: 0.0,
            include_timings: true,
        };
        assert!(!diff(&base, &worse, &opts).regressed());
        assert!(!diff(&base, &MetricSet::new(), &opts).regressed());
    }

    #[test]
    fn timings_gated_only_on_request() {
        let base = set(&[], &[], &[("query.verify", &[100, 100, 100])]);
        // Same count, much slower observations.
        let slower = set(&[], &[], &[("query.verify", &[100_000, 100_000, 100_000])]);
        let lenient = DiffOptions {
            max_regress_pct: 10.0,
            include_timings: false,
        };
        assert!(!diff(&base, &slower, &lenient).regressed());
        let timed = DiffOptions {
            max_regress_pct: 10.0,
            include_timings: true,
        };
        let report = diff(&base, &slower, &timed);
        assert!(report.regressed());
        assert!(report
            .regressions()
            .any(|e| matches!(e.kind, Kind::SpanP50 | Kind::SpanP95)));
    }

    #[test]
    fn missing_gated_entry_fails_and_new_entry_does_not() {
        let base = set(&[("funnel.queries", 3)], &[], &[]);
        let report = diff(&base, &MetricSet::new(), &DiffOptions::default());
        assert!(report.regressed());
        assert_eq!(report.regressions().next().unwrap().status, Status::Missing);
        // New metric in current only: informational.
        let report = diff(&MetricSet::new(), &base, &DiffOptions::default());
        assert!(!report.regressed());
        assert_eq!(report.entries[0].status, Status::New);
    }

    #[test]
    fn zero_baseline_growth_is_a_regression() {
        let base = set(&[("funnel.answers", 0)], &[], &[]);
        let grown = set(&[("funnel.answers", 5)], &[], &[]);
        let report = diff(&base, &grown, &DiffOptions::default());
        assert!(report.regressed());
        assert_eq!(report.entries[0].pct_change(), None);
    }

    #[test]
    fn render_text_names_the_verdict() {
        let base = set(&[("funnel.filtered", 100)], &[], &[]);
        let worse = set(&[("funnel.filtered", 300)], &[], &[]);
        let report = diff(&base, &worse, &DiffOptions::default());
        let text = report.render_text();
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("funnel.filtered"), "{text}");
        assert!(text.contains("+200.0%"), "{text}");
        let ok = diff(&base, &base.clone(), &DiffOptions::default()).render_text();
        assert!(ok.starts_with("  (no differences)"), "{ok}");
        assert!(ok.contains("ok:"), "{ok}");
    }
}
