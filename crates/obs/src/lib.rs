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
//! - **No locks on the fast path.** Work records into a worker-owned
//!   [`Shard`] (interior mutability, `!Sync`); shards are merged into the
//!   registry's aggregate once, at batch end ([`Registry::absorb`]).
//! - **No globals.** Everything flows through explicit `&Registry` /
//!   `&Shard` handles; a disabled handle ([`Registry::disabled`],
//!   [`Shard::disabled`]) makes every record call a single branch.
//! - **Deterministic aggregation.** Merging is commutative integer
//!   addition, so counter totals are bit-identical for any thread count or
//!   scheduling order. By convention, names under the prefixes of
//!   [`names::EXEMPT_PREFIXES`] describe *execution shape* (worker counts,
//!   busy time) or *arrival timing* (batching, cache hits) and are exempt;
//!   [`MetricSet::deterministic_counters`] applies the convention.
//! - **Stable rendering.** Metric names sort lexicographically in the
//!   versioned JSON schema ([`JSON_SCHEMA`]); see EXPERIMENTS.md for the
//!   schema reference.
//!
//! ```
//! let registry = obs::Registry::new();
//! let shard = registry.shard();
//! {
//!     let _span = shard.span("query.filter");
//!     shard.add("funnel.filtered", 42);
//! } // span records its elapsed time on drop
//! registry.absorb(shard);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("funnel.filtered"), 42);
//! assert_eq!(snap.span("query.filter").unwrap().count, 1);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod json;
pub mod prom;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

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
pub fn bucket_upper(i: usize) -> u64 {
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

    /// Minimum as reported (0 instead of the `u64::MAX` sentinel).
    pub fn min_ns_or_zero(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }
}

/// A plain, unsynchronized collection of named counters and span stats —
/// the payload of a [`Shard`] and the aggregate held by a [`Registry`].
///
/// Names sort lexicographically (BTreeMap), which is what makes text and
/// JSON renderings stable across runs and thread counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    spans: BTreeMap<String, SpanStat>,
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

    /// Add `n` to counter `name` (created at 0 on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += n,
            None => {
                self.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Record a duration under span `name`.
    pub fn observe_ns(&mut self, name: &str, ns: u64) {
        match self.spans.get_mut(name) {
            Some(s) => s.observe_ns(ns),
            None => {
                let mut s = SpanStat::default();
                s.observe_ns(ns);
                self.spans.insert(name.to_string(), s);
            }
        }
    }

    /// Set gauge `name` to `v` — a point-in-time *level* (bytes held, peak
    /// bytes, structure sizes), as opposed to a monotonically accumulating
    /// counter. Setting overwrites; merging keeps the max (see [`Self::merge`]).
    pub fn set_gauge(&mut self, name: &str, v: u64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Merge `other` into `self` (commutative and associative, so the merge
    /// order of per-worker shards cannot change any total). Counters and
    /// span histograms add; gauges keep the **max** of both sides, so level
    /// readings like peak memory survive shard merges as true high-water
    /// marks.
    pub fn merge(&mut self, other: &MetricSet) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            match self.gauges.get_mut(k) {
                Some(mine) => *mine = (*mine).max(*v),
                None => {
                    self.gauges.insert(k.clone(), *v);
                }
            }
        }
        for (k, s) in &other.spans {
            match self.spans.get_mut(k) {
                Some(mine) => mine.merge(s),
                None => {
                    self.spans.insert(k.clone(), s.clone());
                }
            }
        }
    }

    /// Current value of counter `name` (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, name-sorted.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Statistics of span `name`, if recorded.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.get(name)
    }

    /// All counters, name-sorted.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All spans, name-sorted.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &SpanStat)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The counters covered by the determinism contract: everything outside
    /// the timing-dependent namespaces of [`names::EXEMPT_PREFIXES`].
    /// Totals here must be bit-identical at any thread count.
    pub fn deterministic_counters(&self) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(k, _)| !names::EXEMPT_PREFIXES.iter().any(|p| k.starts_with(p)))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Stable JSON rendering (schema [`JSON_SCHEMA`]; documented with a
    /// worked example in EXPERIMENTS.md). Counter values and span counts
    /// are deterministic; `*_ns` fields are wall-clock measurements and are
    /// not. Histogram buckets are emitted sparsely as
    /// `[bucket_upper_ns, count]` pairs.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": {},\n",
            json::escape_string(JSON_SCHEMA)
        ));
        out.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::escape_string(k)));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {v}", json::escape_string(k)));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n");
        out.push_str("  \"spans\": {");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = s
                .buckets
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(b, &c)| format!("[{}, {c}]", bucket_upper(b)))
                .collect();
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"buckets\": [{}]}}",
                json::escape_string(k),
                s.count,
                s.total_ns,
                s.min_ns_or_zero(),
                s.max_ns,
                s.mean_ns(),
                s.quantile_ns(0.50),
                s.quantile_ns(0.95),
                buckets.join(", ")
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// A worker-owned metric shard: interior mutability, no synchronization,
/// `!Sync` by construction. Create one per worker from
/// [`Registry::shard`] (or free-standing via [`Shard::detached`]), record
/// into it lock-free, and hand it back with [`Registry::absorb`].
#[derive(Debug)]
pub struct Shard {
    enabled: bool,
    set: RefCell<MetricSet>,
    trace: Option<trace::TraceShard>,
}

impl Shard {
    /// A free-standing shard, not tied to a registry. Enabled shards can be
    /// merged into another shard ([`Shard::merge`]) or absorbed later.
    pub fn detached(enabled: bool) -> Self {
        Self {
            enabled,
            set: RefCell::new(MetricSet::new()),
            trace: None,
        }
    }

    /// A shard that additionally buffers trace events (only handed out by a
    /// tracing [`Registry`]).
    fn traced(enabled: bool, trace: Option<trace::TraceShard>) -> Self {
        Self {
            enabled,
            set: RefCell::new(MetricSet::new()),
            trace,
        }
    }

    /// Whether this shard buffers trace events.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Attach `q` (a query's batch position) to subsequently traced events;
    /// `None` detaches. A single branch when tracing is off.
    #[inline]
    pub fn set_trace_query(&self, q: Option<u64>) {
        if let Some(t) = &self.trace {
            t.set_query(q);
        }
    }

    /// Record a complete trace event retroactively: `name` ran from `start`
    /// for `dur`. Used by pipeline sites that measure stage durations
    /// themselves instead of holding a [`SpanGuard`]. A single branch when
    /// tracing is off.
    #[inline]
    pub fn trace_complete(&self, name: &str, start: Instant, dur: Duration) {
        if let Some(t) = &self.trace {
            t.push(name, start, dur);
        }
    }

    /// A permanently disabled shard: every record call is one branch.
    pub fn disabled() -> Self {
        Self::detached(false)
    }

    /// Whether this shard records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// An empty shard with the same enablement (for handing to a helper
    /// thread; merge it back with [`Shard::merge`]). Forks never trace —
    /// the per-query timeline belongs to the worker that owns the query.
    pub fn fork(&self) -> Shard {
        Shard::detached(self.enabled)
    }

    /// Merge a forked shard's metrics into this one.
    pub fn merge(&self, child: Shard) {
        if self.enabled {
            self.set.borrow_mut().merge(&child.set.into_inner());
        }
    }

    /// Add `n` to counter `name`.
    #[inline]
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled {
            self.set.borrow_mut().add(name, n);
        }
    }

    /// Set gauge `name` to `v` (see [`MetricSet::set_gauge`]).
    #[inline]
    pub fn set_gauge(&self, name: &str, v: u64) {
        if self.enabled {
            self.set.borrow_mut().set_gauge(name, v);
        }
    }

    /// Record `d` under span `name`.
    #[inline]
    pub fn observe(&self, name: &str, d: Duration) {
        if self.enabled {
            self.set
                .borrow_mut()
                .observe_ns(name, d.as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Start an RAII span: the guard records the elapsed wall time under
    /// `name` when dropped. Disabled shards skip even the clock read.
    #[inline]
    pub fn span<'a>(&'a self, name: &'a str) -> SpanGuard<'a> {
        SpanGuard {
            shard: self,
            name,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Take the recorded metrics, leaving the shard empty.
    pub fn take(&self) -> MetricSet {
        self.set.take()
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

    /// Consume the shard, yielding metrics and the trace buffer (if any).
    fn into_parts(self) -> (MetricSet, Option<trace::TraceShard>) {
        (self.set.into_inner(), self.trace)
    }
}

/// RAII span timer returned by [`Shard::span`]; records on drop.
#[must_use = "a span guard records when dropped; binding it to _ drops it immediately"]
pub struct SpanGuard<'a> {
    shard: &'a Shard,
    name: &'a str,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let elapsed = start.elapsed();
            self.shard.observe(self.name, elapsed);
            self.shard.trace_complete(self.name, start, elapsed);
        }
    }
}

/// The thread-safe aggregation point: hands out [`Shard`]s and merges them
/// back. The only lock is taken in [`Registry::absorb`]/[`Registry::snapshot`]
/// — once per worker per batch, never per event.
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
            agg: Mutex::new(MetricSet::new()),
            trace: None,
        }
    }

    /// An enabled registry that additionally collects a trace timeline:
    /// shards it hands out buffer begin/end events for every span (and the
    /// retroactive pipeline-stage records, [`Shard::trace_complete`]),
    /// merged at absorb time and exported via [`Self::drain_trace`].
    pub fn with_tracing() -> Self {
        Self {
            enabled: true,
            agg: Mutex::new(MetricSet::new()),
            trace: Some(trace::TraceSink::new()),
        }
    }

    /// A disabled registry: shards it hands out record nothing, absorb is a
    /// no-op, snapshots are empty.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            agg: Mutex::new(MetricSet::new()),
            trace: None,
        }
    }

    /// Whether metrics are being collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether a trace timeline is being collected.
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// A fresh shard with this registry's enablement (and, when tracing, a
    /// trace buffer on a fresh lane).
    pub fn shard(&self) -> Shard {
        match &self.trace {
            Some(sink) if self.enabled => Shard::traced(true, Some(sink.shard())),
            _ => Shard::detached(self.enabled),
        }
    }

    /// Merge a shard's metrics (and trace events, if any) into the
    /// aggregate.
    pub fn absorb(&self, shard: Shard) {
        if self.enabled {
            let (set, shard_trace) = shard.into_parts();
            if !set.is_empty() {
                self.agg.lock().expect("obs registry poisoned").merge(&set);
            }
            if let (Some(sink), Some(t)) = (&self.trace, shard_trace) {
                sink.absorb(t);
            }
        }
    }

    /// Add directly to an aggregate counter (takes the lock — cold paths
    /// only; hot paths go through a shard).
    pub fn add(&self, name: &str, n: u64) {
        if self.enabled {
            self.agg.lock().expect("obs registry poisoned").add(name, n);
        }
    }

    /// Set an aggregate gauge (takes the lock — cold paths only; see
    /// [`MetricSet::set_gauge`]).
    pub fn set_gauge(&self, name: &str, v: u64) {
        if self.enabled {
            self.agg
                .lock()
                .expect("obs registry poisoned")
                .set_gauge(name, v);
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

/// Canonical metric names shared across the pipeline layers, so treepi and
/// the gindex baseline render directly comparable stage breakdowns.
pub mod names {
    /// Prefixes of the namespaces exempt from the determinism contract.
    /// `engine.` and `pool.` describe execution shape (worker counts,
    /// scheduling, pool busy/park time) and vary with `--threads`;
    /// `serve.`, `cache.`, `loadgen.` and `maint.` depend on arrival
    /// timing (batch boundaries, cache hits vs. in-flight misses, shed
    /// decisions, how many queued ops each apply batch happens to fold
    /// together).
    pub const EXEMPT_PREFIXES: [&str; 6] =
        ["engine.", "pool.", "serve.", "cache.", "loadgen.", "maint."];

    /// Query partition stage: the walk for the query's feature occurrences,
    /// the greedy cover `TP_q` and `SF_q`.
    pub const SPAN_PARTITION: &str = "query.partition";
    /// Query filter stage (support-set intersection, Algorithm 1).
    pub const SPAN_FILTER: &str = "query.filter";
    /// Center-distance pruning stage (Algorithm 2; zero-duration unless
    /// the paper's toggle turns it on).
    pub const SPAN_PRUNE: &str = "query.prune";
    /// Verification stage (Algorithm 3's anchored search, whose signature
    /// gate is the only per-candidate signature check, or naive
    /// isomorphism).
    pub const SPAN_VERIFY: &str = "query.verify";
    /// Within [`SPAN_PARTITION`]: enumeration of the query's indexed subtrees.
    pub const SPAN_PARTITION_ENUMERATE: &str = "query.partition.enumerate";
    /// The four pipeline stages in funnel order.
    pub const PIPELINE_SPANS: [&str; 4] = [SPAN_PARTITION, SPAN_FILTER, SPAN_PRUNE, SPAN_VERIFY];

    /// Queries processed.
    pub const QUERIES: &str = "funnel.queries";
    /// Candidates surviving the filter stage (Σ |P_q|).
    pub const FILTERED: &str = "funnel.filtered";
    /// Candidates surviving CDC pruning (Σ |P'_q|); equal to
    /// [`FILTERED`] with CDC off.
    pub const PRUNED: &str = "funnel.pruned";
    /// Exact answers (Σ |D_q|).
    pub const ANSWERS: &str = "funnel.answers";
    /// Queries short-circuited by a missing feature.
    pub const MISSING_FEATURE: &str = "funnel.missing_feature";
    /// Edge subsets of queries the guided subtree walk visited.
    pub const WALK_PROBES: &str = "walk.probes";
    /// Of those, the subsets whose shape invariant may be a feature's,
    /// canonically encoded and looked up.
    pub const WALK_ENCODES: &str = "walk.encodes";
    /// Of those, the subsets that are stored features.
    pub const WALK_HITS: &str = "walk.hits";

    /// Gauge: bytes currently live per the tracking allocator.
    pub const GAUGE_ALLOC_LIVE: &str = "mem.alloc.live_bytes";
    /// Gauge: peak live bytes per the tracking allocator.
    pub const GAUGE_ALLOC_PEAK: &str = "mem.alloc.peak_bytes";
    /// Gauge: cumulative bytes ever allocated.
    pub const GAUGE_ALLOC_TOTAL: &str = "mem.alloc.total_bytes";
    /// Gauge: cumulative allocation calls.
    pub const GAUGE_ALLOC_COUNT: &str = "mem.alloc.allocations";

    /// Gauge: total estimated heap bytes of the TreePi index.
    pub const GAUGE_INDEX_TOTAL: &str = "mem.index.bytes";
    /// Gauge: heap bytes of the indexed graph database.
    pub const GAUGE_INDEX_DB: &str = "mem.index.db_bytes";
    /// Gauge: heap bytes of the features' canonical strings.
    pub const GAUGE_INDEX_FEATURES: &str = "mem.index.features_bytes";
    /// Gauge: heap bytes of the per-feature support sets.
    pub const GAUGE_INDEX_SUPPORTS: &str = "mem.index.supports_bytes";
    /// Gauge: heap bytes of the center-position tables.
    pub const GAUGE_INDEX_CENTERS: &str = "mem.index.centers_bytes";
    /// Gauge: heap bytes of the per-vertex neighborhood signatures.
    pub const GAUGE_INDEX_SIGS: &str = "mem.index.sigs_bytes";
    /// Gauge: heap bytes of the canonical-string directory (one feature id
    /// per feature) and the shape filter (whole 8-byte words; the name dates
    /// from the prefix trie they replaced).
    pub const GAUGE_INDEX_TRIE: &str = "mem.index.trie_bytes";

    /// Gauge: total estimated heap bytes of the gIndex baseline.
    pub const GAUGE_GINDEX_TOTAL: &str = "mem.gindex.bytes";
    /// Gauge: heap bytes of the gIndex fragment set (graphs + codes).
    pub const GAUGE_GINDEX_FRAGMENTS: &str = "mem.gindex.fragments_bytes";
    /// Gauge: heap bytes of the gIndex code→fragment lookup map.
    pub const GAUGE_GINDEX_LOOKUP: &str = "mem.gindex.lookup_bytes";

    // The serving front end (`serve.*` / `cache.*`) and the load
    // generator (`loadgen.*`). All three namespaces depend on arrival
    // timing and are exempt from the determinism contract, like
    // `engine.*` / `pool.*`.

    /// Counter: request frames decoded by the server.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Counter: query requests (cache hits, queued, and shed included).
    pub const SERVE_QUERIES: &str = "serve.queries";
    /// Counter: queries refused with a Busy response (admission queue
    /// full — the backpressure path).
    pub const SERVE_SHED: &str = "serve.shed";
    /// Counter: micro-batches dispatched to the engine.
    pub const SERVE_BATCHES: &str = "serve.batches";
    /// Counter: queries executed inside micro-batches.
    pub const SERVE_BATCHED: &str = "serve.batched_queries";
    /// Counter: maintenance operations (insert/remove) applied to the
    /// engine's index.
    pub const SERVE_MAINTENANCE: &str = "serve.maintenance";
    /// Counter: malformed frames / protocol errors answered with `E`.
    pub const SERVE_ERRORS: &str = "serve.errors";
    /// Counter: connections dropped because the peer stopped reading and
    /// its write buffer hit the cap (slow-consumer protection).
    pub const SERVE_SLOW_CONSUMER_DROP: &str = "serve.slow_consumer_drop";
    /// Counter: queries whose verify stage exceeded the `--slow-query-us`
    /// threshold and were captured into the slow-query log.
    pub const SERVE_SLOW_QUERIES: &str = "serve.slow_queries";
    /// Counter: `STATS` admin snapshots served.
    pub const SERVE_STATS: &str = "serve.stats";
    /// Counter: connections dropped for a wire-protocol violation (an
    /// oversized declared frame length).
    pub const SERVE_PROTO_ERROR: &str = "serve.proto_error";
    /// Counter: HTTP monitoring requests served (`/metrics`, `/healthz`,
    /// `/slowz`, and error responses alike).
    pub const SERVE_HTTP_REQUESTS: &str = "serve.http_requests";
    /// Counter: access-log records (and flushes) lost to writer I/O errors;
    /// present whenever an access log is open.
    pub const SERVE_ACCESS_LOG_WRITE_ERRORS: &str = "serve.access_log.write_errors";
    /// Counter: event-loop iterations whose non-poll work exceeded the
    /// stall threshold (watchdog trips).
    pub const SERVE_LOOP_STALLS: &str = "serve.loop.stall_count";
    /// Gauge: longest observed event-loop stall, in microseconds.
    pub const GAUGE_SERVE_LOOP_MAX_STALL: &str = "serve.loop.max_stall_us";
    /// Span: admission-to-response latency of one served query.
    pub const SPAN_SERVE_REQUEST: &str = "serve.request";
    /// Span: wall time of one engine micro-batch execution.
    pub const SPAN_SERVE_BATCH: &str = "serve.batch_exec";
    /// Span: admission-to-dispatch wait in the bounded queue.
    pub const SPAN_SERVE_QUEUE_WAIT: &str = "serve.queue_wait";
    /// Span: batch residence time minus the query's own execution time —
    /// the cost of waiting on co-batched siblings.
    pub const SPAN_SERVE_BATCH_WAIT: &str = "serve.batch_wait";
    /// Span: the query's own pipeline execution time inside its batch
    /// (sum of the four stage durations).
    pub const SPAN_SERVE_EXEC_SHARE: &str = "serve.exec_share";
    /// Span: response-enqueued-to-socket-flushed latency.
    pub const SPAN_SERVE_WRITE_WAIT: &str = "serve.write_wait";
    /// The four per-request latency-decomposition histograms, in
    /// pipeline order (queue → batch → execute → write).
    pub const DECOMPOSITION_SPANS: [&str; 4] = [
        SPAN_SERVE_QUEUE_WAIT,
        SPAN_SERVE_BATCH_WAIT,
        SPAN_SERVE_EXEC_SHARE,
        SPAN_SERVE_WRITE_WAIT,
    ];
    /// Gauge: peak depth the admission queue ever reached (≤ queue cap —
    /// the bounded-memory witness).
    pub const GAUGE_SERVE_QUEUE_PEAK: &str = "serve.queue_peak";
    /// Gauge: admission-queue depth when a live snapshot (STATS,
    /// `/metrics`) is taken — instantaneous, unlike the monotone peak above,
    /// so it is not in the exit file.
    pub const GAUGE_SERVE_QUEUE_DEPTH: &str = "serve.queue_depth";

    /// Counter: result-cache hits (answered without touching the engine).
    pub const CACHE_HIT: &str = "cache.hit";
    /// Counter: result-cache misses.
    pub const CACHE_MISS: &str = "cache.miss";
    /// Counter: entries evicted by LRU capacity pressure.
    pub const CACHE_EVICTIONS: &str = "cache.evictions";
    /// Counter: whole-cache invalidations caused by an epoch bump
    /// (§7.1 insert/remove maintenance).
    pub const CACHE_INVALIDATIONS: &str = "cache.invalidations";
    /// Gauge: resident cache entries.
    pub const GAUGE_CACHE_ENTRIES: &str = "cache.entries";

    /// Span: client-observed request round-trip latency in the load
    /// generator (p50/p95/p99 come from this histogram).
    pub const SPAN_LOADGEN_REQUEST: &str = "loadgen.request";
    /// Counter: loadgen requests answered with matches.
    pub const LOADGEN_OK: &str = "loadgen.ok";
    /// Counter: loadgen requests answered with Busy (shed by the server).
    pub const LOADGEN_BUSY: &str = "loadgen.busy";
    /// Counter: loadgen transport/protocol errors.
    pub const LOADGEN_ERRORS: &str = "loadgen.errors";

    /// Counter: §7.1 ops applied to the published snapshot (insert +
    /// remove of an active gid; see `treepi::Engine::insert` / `remove`).
    /// Each is applied when it arrives and publishes one snapshot.
    pub const MAINT_APPLIED: &str = "maint.applied";
    /// Counter: total snapshot publications (applied ops plus background
    /// re-mine swaps).
    pub const MAINT_SNAPSHOT_SWAPS: &str = "maint.snapshot_swaps";
    /// Counter: background re-mines triggered by accumulated repairs.
    pub const MAINT_REMINE_TRIGGERS: &str = "maint.remine_triggers";
    /// Counter: background re-mines that completed and were swapped in.
    pub const MAINT_REMINES: &str = "maint.remines_completed";
    /// Span: latency of one applied §7.1 op (after a copy of the index
    /// only when a reader held it).
    pub const SPAN_MAINT_APPLY: &str = "maint.apply";
    /// Span: wall time of one background re-mine build.
    pub const SPAN_MAINT_REMINE: &str = "maint.remine";
    /// Gauge: §7.1 ops applied since the last re-mine trigger.
    pub const GAUGE_MAINT_REPAIRS: &str = "maint.repairs_since_mine";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_spans_round_trip() {
        let r = Registry::new();
        assert!(r.is_enabled());
        let s = r.shard();
        s.add("a.x", 3);
        s.add("a.x", 4);
        s.observe("t.y", Duration::from_micros(5));
        {
            let _g = s.span("t.z");
        }
        r.absorb(s);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.x"), 7);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.span("t.y").unwrap().count, 1);
        assert_eq!(snap.span("t.y").unwrap().total_ns, 5_000);
        assert_eq!(snap.span("t.z").unwrap().count, 1);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::disabled();
        let s = r.shard();
        s.add("a", 1);
        s.observe("b", Duration::from_secs(1));
        {
            let _g = s.span("c");
        }
        r.absorb(s);
        assert!(r.snapshot().is_empty());
        // Disabled spans never read the clock.
        let d = Shard::disabled();
        assert!(d.span("x").start.is_none());
    }

    #[test]
    fn merge_is_order_independent() {
        let mut a = MetricSet::new();
        a.add("c", 1);
        a.observe_ns("s", 10);
        let mut b = MetricSet::new();
        b.add("c", 2);
        b.add("d", 5);
        b.observe_ns("s", 1000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), 3);
        let s = ab.span("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 1010);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 1000);
    }

    #[test]
    fn fork_and_merge_shards() {
        let parent = Shard::detached(true);
        parent.add("x", 1);
        let child = parent.fork();
        child.add("x", 2);
        child.observe("s", Duration::from_nanos(7));
        parent.merge(child);
        let set = parent.into_set();
        assert_eq!(set.counter("x"), 3);
        assert_eq!(set.span("s").unwrap().count, 1);
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
        assert_eq!(SpanStat::default().min_ns_or_zero(), 0);
    }

    #[test]
    fn deterministic_counters_exclude_engine_and_pool_namespaces() {
        let mut m = MetricSet::new();
        m.add("funnel.filtered", 10);
        m.add("engine.workers", 4);
        m.add("pool.tasks", 9);
        m.add("pool.worker_busy_ns", 1234);
        m.add("serve.shed", 3);
        m.add("cache.hit", 8);
        m.add("loadgen.ok", 5);
        m.add("graph.bfs", 2);
        let det = m.deterministic_counters();
        assert_eq!(det.len(), 2);
        assert!(det.contains_key("funnel.filtered"));
        assert!(det.contains_key("graph.bfs"));
        assert!(!det.contains_key("engine.workers"));
        assert!(!det.contains_key("pool.tasks"));
        assert!(!det.contains_key("serve.shed"));
        assert!(!det.contains_key("cache.hit"));
        assert!(!det.contains_key("loadgen.ok"));
    }

    #[test]
    fn json_rendering_parses_and_round_trips_values() {
        let mut m = MetricSet::new();
        m.add("funnel.filtered", 7);
        m.add("weird\"name\\", 1);
        m.observe_ns("query.filter", 123);
        m.observe_ns("query.filter", 456);
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
        assert_eq!(
            counters.get("weird\"name\\").and_then(json::Value::as_u64),
            Some(1)
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
        // Empty set still renders valid JSON with both top-level keys.
        let v = json::parse(&MetricSet::new().render_json()).unwrap();
        assert!(v.get("counters").is_some());
        assert!(v.get("spans").is_some());
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

    #[test]
    fn json_round_trips_to_equal_metric_set() {
        let mut m = MetricSet::new();
        m.add("funnel.queries", 3);
        m.add("engine.workers", 2);
        m.set_gauge("mem.index.bytes", 123_456);
        m.set_gauge("mem.alloc.peak_bytes", 9_999_999);
        for ns in [0u64, 1, 500, 1_000_000, u64::MAX >> 20] {
            m.observe_ns("query.verify", ns);
        }
        m.observe_ns("query.filter", 42);
        let parsed = json::parse_metric_set(&m.render_json()).expect("round-trip parse");
        assert_eq!(parsed, m);
        // And rendering the parsed set is a fixpoint.
        assert_eq!(parsed.render_json(), m.render_json());
        // Empty set round-trips too.
        let empty = MetricSet::new();
        assert_eq!(json::parse_metric_set(&empty.render_json()).unwrap(), empty);
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
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{}}, \"spans\": {{\"s\": \
             {{\"count\": 2, \"total_ns\": 5, \"min_ns\": 1, \"max_ns\": 4, \"buckets\": \
             [[4, 1]]}}}}}}"
        );
        assert!(json::parse_metric_set(&bad).is_err());
        // Non-canonical bucket bound: 32 was a valid pure-log₂ upper but is
        // not a log-linear/16 bound (that bucket's upper is 33) — old-format
        // documents must fail with a clear versioned error.
        let bad = format!(
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{}}, \"spans\": {{\"s\": \
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
            "{{\"schema\": \"{JSON_SCHEMA}\", \"counters\": {{\"c\": 1}}, \"spans\": {{}}}}"
        );
        let parsed = json::parse_metric_set(&old).unwrap();
        assert_eq!(parsed.counter("c"), 1);
        assert_eq!(parsed.gauges().count(), 0);
    }

    #[test]
    fn tracing_registry_collects_span_timeline() {
        let r = Registry::with_tracing();
        assert!(r.is_tracing());
        let s = r.shard();
        assert!(s.is_tracing());
        s.set_trace_query(Some(7));
        {
            let _g = s.span("query.filter");
        }
        s.set_trace_query(None);
        // Forks never trace.
        assert!(!s.fork().is_tracing());
        r.absorb(s);
        let events = r.drain_trace();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "query.filter");
        assert_eq!(events[0].query, Some(7));
        // Metrics flow unchanged alongside the trace.
        assert_eq!(r.snapshot().span("query.filter").unwrap().count, 1);
        // Non-tracing registries yield no events and no trace shards.
        let plain = Registry::new();
        assert!(!plain.is_tracing());
        assert!(!plain.shard().is_tracing());
        assert!(plain.drain_trace().is_empty());
    }

    #[test]
    fn gauges_set_overwrite_and_merge_keeps_max() {
        let mut a = MetricSet::new();
        a.set_gauge("mem.x", 10);
        a.set_gauge("mem.x", 5); // set overwrites, even downward
        assert_eq!(a.gauge("mem.x"), Some(5));
        let mut b = MetricSet::new();
        b.set_gauge("mem.x", 8);
        b.set_gauge("mem.y", 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "gauge merge must be commutative");
        assert_eq!(ab.gauge("mem.x"), Some(8), "merge keeps the max");
        assert_eq!(ab.gauge("mem.y"), Some(1));
        assert_eq!(ab.gauge("mem.missing"), None);
    }

    #[test]
    fn registry_add_and_drain() {
        let r = Registry::new();
        r.add("direct", 2);
        r.add("direct", 3);
        assert_eq!(r.snapshot().counter("direct"), 5);
        let drained = r.drain();
        assert_eq!(drained.counter("direct"), 5);
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
                                shard.add("work.items", 1);
                            }
                            let _ = w;
                            r.absorb(shard);
                        });
                    }
                });
                r.snapshot().counter("work.items")
            })
            .collect();
        assert_eq!(totals, vec![240, 240, 240]);
    }
}
