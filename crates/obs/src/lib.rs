//! Stage-level observability for the TreePi pipeline.
//!
//! The paper's evaluation (§6, Figures 9–13) decomposes query cost into a
//! filter/prune/verify funnel; this crate is the measurement layer that
//! makes the same decomposition available at runtime: **spans** (RAII wall
//! timers with log-bucketed latency histograms), **counters** (monotonic
//! event tallies), and a thread-safe [`Registry`] that aggregates them.
//!
//! Design constraints (see DESIGN.md, "Observability"):
//!
//! - **No locks on the fast path.** Work records into a [`Shard`] owned by
//!   one thread (interior mutability, `!Sync`): a command's, the server
//!   loop's, a build's. A query batch records into its caller's shard once
//!   the batch returns; the worker pool forks no shard. A shard is merged
//!   into the registry's aggregate once, by its owner
//!   ([`Registry::absorb`]).
//! - **No globals.** Everything flows through explicit `&Registry` /
//!   `&Shard` handles; a disabled handle ([`Registry::disabled`],
//!   [`Shard::disabled`]) makes every record call a single branch.
//! - **One catalog.** Every metric is one row of the catalog (the
//!   `catalog` module): name, kind, deterministic or exempt, help. Records
//!   take its typed ids ([`Counter`], [`Gauge`], [`Span`]), so a name that
//!   is not declared does not compile, and a set is an array per kind
//!   indexed by id.
//! - **Deterministic aggregation.** Merging is commutative integer
//!   addition, so counter totals are bit-identical for any thread count or
//!   scheduling order. The catalog marks the metrics that describe
//!   *arrival timing* (batching, cache hits) exempt;
//!   [`MetricSet::deterministic_counters`] leaves those out.
//! - **Stable rendering.** Metric names sort lexicographically in the
//!   versioned JSON schema ([`JSON_SCHEMA`]); see EXPERIMENTS.md for the
//!   schema reference.
//!
//! ```
//! use obs::{Counter, Span};
//! let registry = obs::Registry::new();
//! let shard = registry.shard();
//! {
//!     let _span = shard.span(Span::QUERY_FILTER);
//!     shard.add(Counter::FUNNEL_FILTERED, 42);
//! } // span records its elapsed time on drop
//! registry.absorb(shard);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("funnel.filtered"), 42);
//! assert_eq!(snap.span("query.filter").unwrap().count, 1);
//! ```

#![warn(missing_docs)]

pub mod alloc;
mod catalog;
pub mod json;
pub mod prom;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use catalog::{Counter, Gauge, MineLevel, Span, MAX_LEVEL};

/// Version tag embedded in every JSON rendering of a [`MetricSet`].
pub const JSON_SCHEMA: &str = "treepi.obs/v1";

/// Linear sub-buckets per power of two in the HDR-style log-linear
/// histogram layout (see [`BUCKETS`]).
pub const SUB_BUCKETS: usize = 16;
/// `log2(SUB_BUCKETS)` — the number of mantissa bits each bucket resolves.
const SUB_BITS: usize = 4;
/// Largest fully resolved power of two: values up to `2^(K_MAX+1)` ns
/// (~78 hours) are bucketed with full resolution; beyond that they clamp
/// into the last bucket.
const K_MAX: usize = 47;

/// Number of latency buckets in the HDR-style **log-linear** layout:
/// values below [`SUB_BUCKETS`] ns get one exact bucket each, and every
/// power-of-two range `[2^k, 2^(k+1))` above that is split into
/// [`SUB_BUCKETS`] equal-width linear sub-buckets. A bucket's width is
/// therefore at most `1/16` of its lower bound, which caps the relative
/// error of histogram quantile estimates at 6.25% (the old pure-log₂
/// layout was up to 2× off). The range still reaches ~78 hours, far
/// beyond any span this codebase times.
pub const BUCKETS: usize = SUB_BUCKETS + (K_MAX - SUB_BITS + 1) * SUB_BUCKETS;

/// Bucket index for a nanosecond value.
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let k = 63 - ns.leading_zeros() as usize; // ≥ SUB_BITS here
    if k > K_MAX {
        return BUCKETS - 1;
    }
    let sub = ((ns >> (k - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    SUB_BUCKETS + (k - SUB_BITS) * SUB_BUCKETS + sub
}

/// Upper bound (ns, inclusive) of bucket `i` — the value quantile
/// estimates report, and the canonical bucket identifier in the JSON
/// encoding. `bucket_of(bucket_upper(i)) == i` for every valid `i`, which
/// is what lets [`json::parse_metric_set`] invert the encoding.
#[inline]
pub(crate) fn bucket_upper(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let j = i - SUB_BUCKETS;
    let k = SUB_BITS + j / SUB_BUCKETS;
    let sub = (j % SUB_BUCKETS) as u64;
    (1u64 << k) + (sub + 1) * (1u64 << (k - SUB_BITS)) - 1
}

/// Aggregated statistics of one named span: invocation count, total wall
/// time, min/max, and a log-linear-bucketed latency histogram (see
/// [`BUCKETS`] for the layout and its 6.25% quantile error bound).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of recorded invocations.
    pub count: u64,
    /// Sum of recorded durations in nanoseconds.
    pub total_ns: u64,
    /// Shortest recorded duration (ns); 0 when `count == 0`.
    pub min_ns: u64,
    /// Longest recorded duration (ns).
    pub max_ns: u64,
    /// Log-linear histogram; `buckets[i]` counts durations in bucket `i`.
    pub buckets: [u64; BUCKETS],
}

impl Default for SpanStat {
    fn default() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl SpanStat {
    /// Record one duration.
    pub fn observe_ns(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_of(ns)] += 1;
    }

    /// Merge another span's statistics into this one (commutative).
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// Mean duration in nanoseconds (0 when never recorded).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Histogram quantile estimate: the upper bound of the smallest bucket
    /// holding at least a `p` fraction of samples (`0.0 ≤ p ≤ 1.0`). An
    /// upper bound by construction — never under-reports the tail — and,
    /// because each log-linear bucket is at most `1/16` of its lower bound
    /// wide, never more than 6.25% above the exact sample quantile.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// A plain, unsynchronized collection of counters, gauges and span stats
/// — the payload of a [`Shard`] and the aggregate held by a [`Registry`].
///
/// Each kind is a slot per catalog id (the `catalog` module), allocated on the
/// first record, so an empty set owns no heap. Every listing and rendering
/// is in lexicographic name order, stable across runs and thread counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<u64>>,
    spans: Vec<Option<Box<SpanStat>>>,
}

/// The slot of id `i` in `slots`, sized to `count` on first use.
fn slot<T>(slots: &mut Vec<Option<T>>, i: usize, count: usize) -> &mut Option<T> {
    if slots.is_empty() {
        slots.resize_with(count, || None);
    }
    &mut slots[i]
}

/// The recorded `(id, value)` pairs of `slots` in name order.
fn by_name<I: Copy, T>(
    ids: impl Iterator<Item = I>,
    slots: &[Option<T>],
    name: fn(I) -> &'static str,
) -> std::vec::IntoIter<(I, &T)> {
    let mut out: Vec<_> = ids
        .zip(slots)
        .filter_map(|(id, v)| Some((id, v.as_ref()?)))
        .collect();
    out.sort_unstable_by_key(|&(id, _)| name(id));
    out.into_iter()
}

/// One object of the JSON rendering: `"key": {` and its members, one a
/// line, in the order given.
fn json_object(key: &str, members: impl Iterator<Item = (&'static str, String)>) -> String {
    let members: Vec<String> = members
        .map(|(n, v)| format!("\n    \"{n}\": {v}"))
        .collect();
    let end = if members.is_empty() { "" } else { "\n  " };
    format!("  \"{key}\": {{{}{end}}}", members.join(","))
}

impl MetricSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }

    /// Add `n` to counter `c` (created at 0 on first use).
    pub fn add(&mut self, c: Counter, n: u64) {
        *slot(&mut self.counters, c.index(), Counter::COUNT).get_or_insert(0) += n;
    }

    /// Record a duration under span `s`.
    pub fn observe_ns(&mut self, s: Span, ns: u64) {
        slot(&mut self.spans, s.index(), Span::COUNT)
            .get_or_insert_with(Default::default)
            .observe_ns(ns);
    }

    /// Set gauge `g` to `v` — a point-in-time *level* (bytes held, peak
    /// bytes, structure sizes), as opposed to a monotonically accumulating
    /// counter. Setting overwrites; merging keeps the max (see [`Self::merge`]).
    pub fn set_gauge(&mut self, g: Gauge, v: u64) {
        *slot(&mut self.gauges, g.index(), Gauge::COUNT) = Some(v);
    }

    /// Merge `other` into `self` (commutative and associative, so the merge
    /// order of shards cannot change any total). Counters and
    /// span histograms add; gauges keep the **max** of both sides, so level
    /// readings like peak memory survive shard merges as true high-water
    /// marks.
    pub fn merge(&mut self, other: &MetricSet) {
        for (c, v) in Counter::all().zip(&other.counters) {
            if let Some(v) = v {
                self.add(c, *v);
            }
        }
        for (g, v) in Gauge::all().zip(&other.gauges) {
            if let Some(v) = *v {
                let mine = slot(&mut self.gauges, g.index(), Gauge::COUNT);
                *mine = Some(mine.map_or(v, |m| m.max(v)));
            }
        }
        for (s, stat) in Span::all().zip(&other.spans) {
            if let Some(stat) = stat {
                match slot(&mut self.spans, s.index(), Span::COUNT) {
                    Some(mine) => mine.merge(stat),
                    empty => *empty = Some(stat.clone()),
                }
            }
        }
    }

    /// Current value of the counter named `name` (0 if never recorded or
    /// not in the catalog).
    pub fn counter(&self, name: &str) -> u64 {
        Counter::from_name(name)
            .and_then(|c| *self.counters.get(c.index())?)
            .unwrap_or(0)
    }

    /// Current value of the gauge named `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        Gauge::from_name(name).and_then(|g| *self.gauges.get(g.index())?)
    }

    /// Statistics of the span named `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        Span::from_name(name).and_then(|s| self.spans.get(s.index())?.as_deref())
    }

    /// All recorded counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        by_name(Counter::all(), &self.counters, Counter::name).map(|(c, v)| (c, *v))
    }

    /// All set gauges, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (Gauge, u64)> + '_ {
        by_name(Gauge::all(), &self.gauges, Gauge::name).map(|(g, v)| (g, *v))
    }

    /// All recorded spans, in name order.
    pub fn spans(&self) -> impl Iterator<Item = (Span, &SpanStat)> {
        by_name(Span::all(), &self.spans, Span::name).map(|(s, stat)| (s, &**stat))
    }

    /// The counters covered by the determinism contract (catalog rows
    /// marked `det`). Totals here must be bit-identical at any thread
    /// count.
    pub fn deterministic_counters(&self) -> BTreeMap<&'static str, u64> {
        Counter::all()
            .zip(&self.counters)
            .filter_map(|(c, v)| Some((c, (*v)?)))
            .filter(|(c, _)| c.is_deterministic())
            .map(|(c, v)| (c.name(), v))
            .collect()
    }

    /// Stable JSON rendering (schema [`JSON_SCHEMA`]; documented with a
    /// worked example in EXPERIMENTS.md). Counter values and span counts
    /// are deterministic; `*_ns` fields are wall-clock measurements and are
    /// not. Histogram buckets are emitted sparsely as
    /// `[bucket_upper_ns, count]` pairs.
    pub fn render_json(&self) -> String {
        let counters = self.counters().map(|(c, v)| (c.name(), v.to_string()));
        let gauges = self.gauges().map(|(g, v)| (g.name(), v.to_string()));
        let spans = self.spans().map(|(span, s)| {
            let buckets: Vec<String> = (0..)
                .zip(&s.buckets)
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| format!("[{}, {c}]", bucket_upper(b)))
                .collect();
            let value = format!(
                "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"buckets\": [{}]}}",
                s.count,
                s.total_ns,
                s.min_ns.min(s.max_ns), // 0, not the sentinel, when empty
                s.max_ns,
                s.mean_ns(),
                s.quantile_ns(0.50),
                s.quantile_ns(0.95),
                buckets.join(", ")
            );
            (span.name(), value)
        });
        format!(
            "{{\n  \"schema\": \"{JSON_SCHEMA}\",\n{},\n{},\n{}\n}}\n",
            json_object("counters", counters),
            json_object("gauges", gauges),
            json_object("spans", spans),
        )
    }
}

/// A thread-owned metric shard: interior mutability, no synchronization,
/// `!Sync` by construction. Create one per owner from [`Registry::shard`]
/// (or free-standing via [`Shard::detached`]), record into it lock-free,
/// and hand it back with [`Registry::absorb`].
#[derive(Debug)]
pub struct Shard {
    enabled: bool,
    set: RefCell<MetricSet>,
    trace: Option<trace::TraceShard>,
}

impl Shard {
    /// A free-standing shard, not tied to a registry. An enabled one's
    /// metrics are read with [`Shard::into_set`] or absorbed later.
    pub fn detached(enabled: bool) -> Self {
        Self {
            enabled,
            set: RefCell::default(),
            trace: None,
        }
    }

    /// Whether this shard buffers trace events.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Record a complete trace event retroactively: `span` of the query at
    /// batch position `query` (if any) ran from `start` for `dur`, as a
    /// query's record traces its stages ([`trace::stages_ending_at`]). A
    /// single branch when tracing is off.
    #[inline]
    pub fn trace_complete(&self, span: Span, query: Option<u64>, start: Instant, dur: Duration) {
        if let Some(t) = &self.trace {
            t.push(span.name(), query, start, dur);
        }
    }

    /// A permanently disabled shard: every record call is one branch.
    pub fn disabled() -> Self {
        Self::detached(false)
    }

    /// Add `n` to counter `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if self.enabled {
            self.set.borrow_mut().add(c, n);
        }
    }

    /// Set gauge `g` to `v` (see [`MetricSet::set_gauge`]).
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        if self.enabled {
            self.set.borrow_mut().set_gauge(g, v);
        }
    }

    /// Record `d` under span `s`.
    #[inline]
    pub fn observe(&self, s: Span, d: Duration) {
        if self.enabled {
            self.set
                .borrow_mut()
                .observe_ns(s, d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Start an RAII span: the guard records the elapsed wall time under
    /// `s` when dropped. Disabled shards skip even the clock read.
    #[inline]
    pub fn span(&self, s: Span) -> SpanGuard<'_> {
        SpanGuard {
            shard: self,
            span: s,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Clone the recorded metrics without draining the shard. Used by live
    /// snapshots (the serve `STATS` op) that must observe mid-run state
    /// while the owning loop keeps recording into the same shard.
    pub fn peek(&self) -> MetricSet {
        self.set.borrow().clone()
    }

    /// Consume the shard, yielding its metrics.
    pub fn into_set(self) -> MetricSet {
        self.set.into_inner()
    }
}

/// RAII span timer returned by [`Shard::span`]; records on drop.
#[must_use = "a span guard records when dropped; binding it to _ drops it immediately"]
pub struct SpanGuard<'a> {
    shard: &'a Shard,
    span: Span,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            self.shard.observe(self.span, elapsed);
            self.shard.trace_complete(self.span, None, start, elapsed);
        }
    }
}

/// The thread-safe aggregation point: hands out [`Shard`]s and merges them
/// back. The only lock is taken in [`Registry::absorb`]/[`Registry::snapshot`]
/// — once per shard, never per event.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: bool,
    agg: Mutex<MetricSet>,
    trace: Option<trace::TraceSink>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// An enabled registry that also collects a trace timeline: shards it
    /// hands out buffer an event for every span and [`Shard::trace_complete`]
    /// record, merged at absorb time and taken by [`Self::drain_trace`].
    pub fn with_tracing() -> Self {
        Self {
            trace: Some(trace::TraceSink::new()),
            ..Self::new()
        }
    }

    /// A disabled registry: shards it hands out record nothing, absorb is a
    /// no-op, snapshots are empty.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A fresh shard with this registry's enablement (and, when tracing, a
    /// trace buffer on a fresh lane).
    pub fn shard(&self) -> Shard {
        let trace = self.trace.as_ref().filter(|_| self.enabled);
        Shard {
            trace: trace.map(trace::TraceSink::shard),
            ..Shard::detached(self.enabled)
        }
    }

    /// Merge a shard's metrics (and trace events, if any) into the
    /// aggregate. An empty aggregate takes the shard's set as it is.
    pub fn absorb(&self, shard: Shard) {
        if self.enabled {
            let Shard { set, trace, .. } = shard;
            let set = set.into_inner();
            let mut agg = self.agg.lock().expect("obs registry poisoned");
            if agg.is_empty() {
                *agg = set;
            } else {
                agg.merge(&set);
            }
            if let (Some(sink), Some(t)) = (&self.trace, trace) {
                sink.absorb(t);
            }
        }
    }

    /// Set an aggregate gauge (takes the lock — cold paths only; see
    /// [`MetricSet::set_gauge`]).
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        if self.enabled {
            self.agg
                .lock()
                .expect("obs registry poisoned")
                .set_gauge(g, v);
        }
    }

    /// Take the collected trace timeline (empty when not tracing), sorted
    /// by start offset.
    pub fn drain_trace(&self) -> Vec<trace::TraceEvent> {
        self.trace
            .as_ref()
            .map(trace::TraceSink::drain)
            .unwrap_or_default()
    }

    /// A copy of the current aggregate.
    pub fn snapshot(&self) -> MetricSet {
        self.agg.lock().expect("obs registry poisoned").clone()
    }

    /// Take the aggregate, resetting the registry to empty.
    pub fn drain(&self) -> MetricSet {
        std::mem::take(&mut *self.agg.lock().expect("obs registry poisoned"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_spans_round_trip() {
        let r = Registry::new();
        let s = r.shard();
        s.add(Counter::WALK_HITS, 3);
        s.add(Counter::WALK_HITS, 4);
        s.observe(Span::QUERY_VERIFY, Duration::from_micros(5));
        {
            let _g = s.span(Span::BUILD_MINE);
        }
        r.absorb(s);
        let snap = r.snapshot();
        assert_eq!(snap.counter("walk.hits"), 7);
        assert_eq!(snap.counter("walk.probes"), 0);
        // A name the catalog does not declare reads as nothing.
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("missing"), None);
        assert!(snap.span("missing").is_none());
        assert_eq!(snap.span("query.verify").unwrap().count, 1);
        assert_eq!(snap.span("query.verify").unwrap().total_ns, 5_000);
        assert_eq!(snap.span("build.mine").unwrap().count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let s = r.shard();
        s.add(Counter::FUNNEL_QUERIES, 1);
        s.observe(Span::QUERY_FILTER, Duration::from_secs(1));
        {
            let _g = s.span(Span::QUERY_VERIFY);
        }
        r.absorb(s);
        r.set_gauge(Gauge::MEM_INDEX_BYTES, 1);
        // Nothing was recorded, so no slot array was allocated.
        let snap = r.snapshot();
        let capacities = [
            snap.counters.capacity(),
            snap.gauges.capacity(),
            snap.spans.capacity(),
        ];
        assert!(snap.is_empty() && capacities == [0; 3]);
        // Disabled spans never read the clock.
        let d = Shard::disabled();
        assert!(d.span(Span::QUERY_FILTER).start.is_none());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricSet::new();
        a.add(Counter::FUNNEL_ANSWERS, 1);
        a.observe_ns(Span::QUERY_FILTER, 10);
        let mut b = MetricSet::new();
        b.add(Counter::FUNNEL_ANSWERS, 2);
        b.add(Counter::FUNNEL_QUERIES, 5);
        b.observe_ns(Span::QUERY_FILTER, 1000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("funnel.answers"), 3);
        let s = ab.span("query.filter").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 1010);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        // Values below SUB_BUCKETS are their own bucket (exact).
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(15), 15);
        // First log-linear bucket: [16, 17).
        assert_eq!(bucket_of(16), SUB_BUCKETS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // bucket_upper inverts bucket_of over the whole index range.
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "bucket {i} not canonical");
        }
        let mut s = SpanStat::default();
        for ns in [1u64, 2, 3, 4, 1000] {
            s.observe_ns(ns);
        }
        assert_eq!(s.count, 5);
        assert_eq!(s.min_ns, 1);
        assert_eq!(s.max_ns, 1000);
        // p50: rank 3 falls in the exact linear bucket for 3.
        assert_eq!(s.quantile_ns(0.50), 3);
        // p95+ lands in the top occupied bucket, clamped to the max.
        assert_eq!(s.quantile_ns(0.95), 1000);
        assert_eq!(s.quantile_ns(1.0), 1000);
        // Quantiles never under-report: p ≥ actual fraction at/below.
        assert!(s.quantile_ns(0.2) >= 1);
        // Empty span.
        assert_eq!(SpanStat::default().quantile_ns(0.5), 0);
        assert_eq!(SpanStat::default().mean_ns(), 0);
    }

    /// Listings are in plain byte order of the names, so `mine.level10.*`
    /// sorts before `mine.level2.*`; the deterministic ones leave out the
    /// rows the catalog marks exempt.
    #[test]
    fn listings_sort_by_name_and_keep_the_contract() {
        let mut m = MetricSet::new();
        for (i, c) in [2, 10, 1]
            .map(|s| MineLevel::Kinds.at(s))
            .into_iter()
            .enumerate()
        {
            m.add(c, i as u64);
        }
        for c in [Counter::CACHE_MISS, Counter::CACHE_HIT, Counter::GRAPH_BFS] {
            m.add(c, 7);
        }
        let names: Vec<_> = m.counters().map(|(c, _)| c.name()).collect();
        let sorted = ["cache.hit", "cache.miss", "graph.bfs", "mine.level1.kinds"];
        assert_eq!(names[..4], sorted);
        assert_eq!(names[4..], ["mine.level10.kinds", "mine.level2.kinds"]);
        let det: Vec<_> = m.deterministic_counters().into_keys().collect();
        assert_eq!(
            det,
            [
                "graph.bfs",
                "mine.level1.kinds",
                "mine.level10.kinds",
                "mine.level2.kinds"
            ]
        );
    }

    #[test]
    fn json_rendering_parses_and_round_trips_values() {
        let mut m = MetricSet::new();
        m.add(Counter::FUNNEL_FILTERED, 7);
        m.observe_ns(Span::QUERY_FILTER, 123);
        m.observe_ns(Span::QUERY_FILTER, 456);
        let text = m.render_json();
        let v = json::parse(&text).expect("render_json must emit valid JSON");
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some(JSON_SCHEMA)
        );
        let counters = v.get("counters").expect("counters object");
        assert_eq!(
            counters
                .get("funnel.filtered")
                .and_then(json::Value::as_u64),
            Some(7)
        );
        let span = v
            .get("spans")
            .and_then(|s| s.get("query.filter"))
            .expect("span object");
        assert_eq!(span.get("count").and_then(json::Value::as_u64), Some(2));
        assert_eq!(
            span.get("total_ns").and_then(json::Value::as_u64),
            Some(579)
        );
        // Empty set still renders valid JSON with every top-level key.
        let empty = MetricSet::new().render_json();
        assert_eq!(
            empty,
            "{\n  \"schema\": \"treepi.obs/v1\",\n  \"counters\": {},\n  \"gauges\": {},\n  \"spans\": {}\n}\n"
        );
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty stat: every quantile is 0.
        let empty = SpanStat::default();
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(empty.quantile_ns(p), 0);
        }
        // Single observation: every quantile is that observation (the
        // bucket upper bound clamps to max_ns).
        let mut single = SpanStat::default();
        single.observe_ns(777);
        for p in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(single.quantile_ns(p), 777);
        }
        // Exact bucket boundaries: powers of two start a fresh sub-bucket
        // and the max_ns clamp snaps the estimate back to the exact value.
        for ns in [1u64, 2, 4, 1024, 1 << 20] {
            let mut s = SpanStat::default();
            s.observe_ns(ns);
            assert_eq!(s.quantile_ns(0.5), ns, "boundary value {ns}");
        }
        // Zero-duration observations occupy the dedicated 0 bucket.
        let mut zeros = SpanStat::default();
        zeros.observe_ns(0);
        zeros.observe_ns(0);
        assert_eq!(zeros.quantile_ns(1.0), 0);
        // Two-bucket split: p at the first bucket's cumulative fraction
        // stays in it; just above moves to the next.
        let mut split = SpanStat::default();
        for _ in 0..50 {
            split.observe_ns(3); // exact linear bucket, upper 3
        }
        for _ in 0..50 {
            split.observe_ns(1000); // log-linear bucket [992, 1024)
        }
        assert_eq!(split.quantile_ns(0.50), 3);
        assert_eq!(split.quantile_ns(0.51), 1000);
    }

    /// Deterministic PRNG for the quantile property test (obs has no
    /// dev-dependencies by design, so no proptest).
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Property: for adversarial sample sets, the log-linear histogram's
    /// p50/p95/p99 estimates are (a) never below the exact sorted-sample
    /// quantile and (b) at most 6.25% above it. This is the accuracy
    /// contract the HDR-style layout exists to provide (the old pure-log₂
    /// buckets were up to 2× off).
    #[test]
    fn quantile_error_bound_property() {
        let mut state = 0x5eed_1234_u64;
        let check = |samples: &mut Vec<u64>, what: &str| {
            let mut s = SpanStat::default();
            for &ns in samples.iter() {
                s.observe_ns(ns);
            }
            samples.sort_unstable();
            for p in [0.50, 0.95, 0.99] {
                let rank = ((samples.len() as f64) * p).ceil().max(1.0) as usize;
                let exact = samples[rank - 1];
                let est = s.quantile_ns(p);
                assert!(
                    est >= exact,
                    "{what}: p{p} estimate {est} under-reports exact {exact}"
                );
                // est ≤ exact * 1.0625, in integer arithmetic.
                assert!(
                    (est - exact).saturating_mul(10_000) <= exact.saturating_mul(625),
                    "{what}: p{p} estimate {est} exceeds 6.25% error vs exact {exact}"
                );
            }
        };
        for round in 0..50 {
            // Log-uniform: spread across many powers of two.
            let mut log_uniform: Vec<u64> = (0..500)
                .map(|_| {
                    let shift = splitmix64(&mut state) % 40;
                    splitmix64(&mut state) >> (24 + shift % 40)
                })
                .collect();
            check(&mut log_uniform, "log-uniform");
            // Adversarial: values clustered just above powers of two, where
            // pure-log₂ buckets had their worst (~2×) error.
            let mut boundary: Vec<u64> = (0..500)
                .map(|_| {
                    let k = 4 + splitmix64(&mut state) % 30;
                    (1u64 << k) + splitmix64(&mut state) % 8
                })
                .collect();
            check(&mut boundary, "boundary-cluster");
            // Heavy tail: mostly microseconds, occasional seconds.
            let mut heavy: Vec<u64> = (0..500)
                .map(|_| {
                    if splitmix64(&mut state) % 100 < 97 {
                        1_000 + splitmix64(&mut state) % 9_000
                    } else {
                        1_000_000_000 + splitmix64(&mut state) % 1_000_000_000
                    }
                })
                .collect();
            check(&mut heavy, "heavy-tail");
            // Tiny sample counts, including zeros and the linear region.
            let n = 1 + (round % 7) as usize;
            let mut small: Vec<u64> = (0..n).map(|_| splitmix64(&mut state) % 32).collect();
            check(&mut small, "small-linear");
        }
    }

    fn assert_round_trips(m: &MetricSet) {
        let parsed = json::parse_metric_set(&m.render_json()).expect("round-trip parse");
        assert_eq!(&parsed, m);
        // And rendering the parsed set is a fixpoint.
        assert_eq!(parsed.render_json(), m.render_json());
    }

    #[test]
    fn json_round_trips_to_equal_metric_set() {
        let mut m = MetricSet::new();
        m.add(Counter::FUNNEL_QUERIES, 3);
        m.add(Counter::CACHE_HIT, 2);
        m.set_gauge(Gauge::MEM_INDEX_BYTES, 123_456);
        m.set_gauge(Gauge::MEM_ALLOC_PEAK_BYTES, 9_999_999);
        for ns in [0u64, 1, 500, 1_000_000, u64::MAX >> 20] {
            m.observe_ns(Span::QUERY_VERIFY, ns);
        }
        m.observe_ns(Span::QUERY_FILTER, 42);
        assert_round_trips(&m);
        // Empty set round-trips too.
        assert_round_trips(&MetricSet::new());

        // A set holding every id of every kind, the level families included.
        let mut all = MetricSet::new();
        for (i, c) in (1..).zip(Counter::all()) {
            all.add(c, i);
        }
        for (i, g) in (1..).zip(Gauge::all()) {
            all.set_gauge(g, i);
        }
        for (i, s) in (1..).zip(Span::all()) {
            all.observe_ns(s, i);
        }
        for s in [1, 2, 10] {
            all.add(MineLevel::Grown.at(s), 1);
            all.observe_ns(Span::mine_level(s), 7);
        }
        assert_eq!(all.counters().count(), Counter::COUNT);
        assert_round_trips(&all);
    }

    #[test]
    fn parse_metric_set_rejects_malformed_documents() {
        // Wrong schema tag.
        assert!(json::parse_metric_set(
            "{\"schema\": \"other/v9\", \"counters\": {}, \"spans\": {}}"
        )
        .is_err());
        // Missing counters object.
        assert!(json::parse_metric_set(&format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"spans\": {{}}}}"
        ))
        .is_err());
        // Histogram total inconsistent with count.
        let bad = format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{}}, \"spans\": {{\"query.filter\": \
             {{\"count\": 2, \"total_ns\": 5, \"min_ns\": 1, \"max_ns\": 4, \"buckets\": \
             [[4, 1]]}}}}}}"
        );
        assert!(json::parse_metric_set(&bad).is_err());
        // Non-canonical bucket bound: 32 was a valid pure-log₂ upper but is
        // not a log-linear/16 bound (that bucket's upper is 33) — old-format
        // documents must fail with a clear versioned error.
        let bad = format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{}}, \"spans\": {{\"query.filter\": \
             {{\"count\": 1, \"total_ns\": 32, \"min_ns\": 32, \"max_ns\": 32, \"buckets\": \
             [[32, 1]]}}}}}}"
        );
        let err = json::parse_metric_set(&bad).unwrap_err().to_string();
        assert!(
            err.contains("log-linear") && err.contains("treepi.obs/v1"),
            "old-format rejection must name the schema and layout: {err}"
        );
        // Documents without a "gauges" key (pre-gauge emitters) still parse.
        let old = format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{\"cache.hit\": 1}}, \"spans\": {{}}}}"
        );
        let parsed = json::parse_metric_set(&old).unwrap();
        assert_eq!(parsed.counter("cache.hit"), 1);
        assert_eq!(parsed.gauges().count(), 0);
        // A name the catalog does not declare, or declares as another kind,
        // is refused by name: here a retired counter and a gauge.
        for (kind, name) in [("counters", "maint.queued"), ("counters", "cache.entries")] {
            let doc = format!(
                "{{\"schema\": \"{JSON_SCHEMA}\", \"{kind}\": {{\"{name}\": 1}}, \"spans\": {{}}}}"
            );
            let err = json::parse_metric_set(&doc).unwrap_err().to_string();
            assert!(err.contains(name), "{err}");
        }
    }

    #[test]
    fn tracing_registry_collects_span_timeline() {
        let r = Registry::with_tracing();
        assert!(r.shard().is_tracing());
        let s = r.shard();
        assert!(s.is_tracing());
        {
            let _g = s.span(Span::QUERY_FILTER);
        }
        s.trace_complete(Span::QUERY_VERIFY, Some(7), Instant::now(), Duration::ZERO);
        r.absorb(s);
        let events = r.drain_trace();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "query.filter");
        assert_eq!(events[0].query, None);
        assert_eq!(events[1].name, "query.verify");
        assert_eq!(events[1].query, Some(7));
        // Metrics flow unchanged alongside the trace.
        assert_eq!(r.snapshot().span("query.filter").unwrap().count, 1);
        // Non-tracing registries yield no events and no trace shards.
        let plain = Registry::new();
        assert!(!plain.shard().is_tracing());
        assert!(plain.drain_trace().is_empty());
    }

    #[test]
    fn gauges_set_overwrite_and_merge_keeps_max() {
        let (x, y) = (Gauge::MEM_INDEX_BYTES, Gauge::CACHE_ENTRIES);
        let mut a = MetricSet::new();
        a.set_gauge(x, 10);
        a.set_gauge(x, 5); // set overwrites, even downward
        assert_eq!(a.gauge(x.name()), Some(5));
        let mut b = MetricSet::new();
        b.set_gauge(x, 8);
        b.set_gauge(y, 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "gauge merge must be commutative");
        assert_eq!(ab.gauge(x.name()), Some(8), "merge keeps the max");
        assert_eq!(ab.gauge(y.name()), Some(1));
        assert_eq!(ab.gauge("mem.index.sigs_bytes"), None);
    }

    #[test]
    fn registry_absorb_and_drain() {
        let r = Registry::new();
        for n in [2, 3] {
            let s = r.shard();
            s.add(Counter::SERVE_STATS, n);
            r.absorb(s);
        }
        assert_eq!(r.snapshot().counter("serve.stats"), 5);
        let drained = r.drain();
        assert_eq!(drained.counter("serve.stats"), 5);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn absorb_from_worker_threads_sums_deterministically() {
        let totals: Vec<u64> = [1usize, 2, 8]
            .iter()
            .map(|&workers| {
                let r = Registry::new();
                std::thread::scope(|s| {
                    for w in 0..workers {
                        let r = &r;
                        s.spawn(move || {
                            let shard = r.shard();
                            // Same total work split differently per config.
                            for _ in 0..(240 / workers) {
                                shard.add(Counter::FUNNEL_QUERIES, 1);
                            }
                            let _ = w;
                            r.absorb(shard);
                        });
                    }
                });
                r.snapshot().counter("funnel.queries")
            })
            .collect();
        assert_eq!(totals, vec![240, 240, 240]);
    }
}
