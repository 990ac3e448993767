//! Per-query trace timeline: begin/end events collected alongside the
//! span statistics and exported as Chrome trace-event JSON, so a whole
//! batch's parallel execution can be inspected visually in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Tracing shares the shard-per-worker architecture of the metric layer:
//! a [`TraceSink`] (owned by a tracing [`crate::Registry`]) defines the
//! trace epoch and hands each shard a [`TraceShard`] — an unsynchronized
//! event buffer plus a *lane* id that becomes the Chrome `tid`. Workers
//! append complete events lock-free; [`crate::Registry::absorb`] moves
//! them into the sink, and [`crate::Registry::drain_trace`] yields the
//! merged timeline sorted by start offset.
//!
//! When tracing is not enabled (the default), every trace call in the
//! pipeline is a single branch on an `Option` that is `None` — the same
//! cost model as disabled metric shards.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One complete (begin + duration) event on the trace timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Stage or span name (e.g. `query.filter`, `serve.batch_exec`).
    pub name: String,
    /// Batch position of the query being processed, when one is in scope.
    pub query: Option<u64>,
    /// Lane (worker/shard) id — rendered as the Chrome `tid`.
    pub lane: u32,
    /// Start offset from the trace epoch, in nanoseconds.
    pub start_ns: u64,
    /// Event duration in nanoseconds.
    pub dur_ns: u64,
    /// Extra `(key, value)` pairs rendered into the Chrome `args` object —
    /// e.g. the filter-funnel counters attached to a slow-query capture.
    /// Empty for ordinary span events.
    pub args: Vec<(String, u64)>,
}

/// The aggregation point for trace events: defines the epoch all offsets
/// are measured from, hands out lanes, and collects per-shard buffers.
#[derive(Debug)]
pub(crate) struct TraceSink {
    epoch: Instant,
    lanes: AtomicU32,
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceSink {
    /// A sink whose epoch is "now".
    pub(crate) fn new() -> Self {
        Self {
            epoch: Instant::now(),
            lanes: AtomicU32::new(0),
            events: Mutex::new(Vec::new()),
        }
    }

    /// A [`TraceShard`] on a fresh lane, sharing this sink's epoch.
    pub(crate) fn shard(&self) -> TraceShard {
        TraceShard {
            epoch: self.epoch,
            lane: self.lanes.fetch_add(1, Ordering::Relaxed),
            query: Cell::new(None),
            events: RefCell::new(Vec::new()),
        }
    }

    /// Move a shard's events into the sink.
    pub(crate) fn absorb(&self, shard: TraceShard) {
        let mut events = shard.events.into_inner();
        if !events.is_empty() {
            self.events
                .lock()
                .expect("trace sink poisoned")
                .append(&mut events);
        }
    }

    /// Take the collected timeline, sorted by (start, lane, name) so the
    /// rendered file is stable regardless of worker retirement order.
    pub(crate) fn drain(&self) -> Vec<TraceEvent> {
        let mut events = std::mem::take(&mut *self.events.lock().expect("trace sink poisoned"));
        events.sort_by(|a, b| {
            (a.start_ns, a.lane, a.name.as_str()).cmp(&(b.start_ns, b.lane, b.name.as_str()))
        });
        events
    }
}

/// A worker-owned trace buffer: interior mutability, no synchronization.
/// Created by [`TraceSink::shard`] and carried inside [`crate::Shard`].
#[derive(Debug)]
pub(crate) struct TraceShard {
    epoch: Instant,
    lane: u32,
    query: Cell<Option<u64>>,
    events: RefCell<Vec<TraceEvent>>,
}

impl TraceShard {
    /// Set (or clear) the query id attached to subsequent events.
    #[inline]
    pub(crate) fn set_query(&self, q: Option<u64>) {
        self.query.set(q);
    }

    /// Append a complete event that started at `start` and ran for `dur`.
    /// Starts before the epoch clamp to offset 0.
    pub(crate) fn push(&self, name: &str, start: Instant, dur: Duration) {
        let start_ns = start
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.events.borrow_mut().push(TraceEvent {
            name: name.to_string(),
            query: self.query.get(),
            lane: self.lane,
            start_ns,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
            args: Vec::new(),
        });
    }
}

/// Render events as Chrome trace-event JSON (the "JSON Array Format" with
/// a `traceEvents` wrapper object, loadable by `chrome://tracing` and
/// Perfetto). Each event is a complete (`"ph": "X"`) slice; timestamps are
/// microseconds with sub-microsecond precision preserved as fractions.
/// Lanes appear as thread ids under one process, with `thread_name`
/// metadata records so the viewer labels them `lane-N`.
pub fn render_chrome_json(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [");
    let mut first = true;
    let mut push_record = |record: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\n    ");
        out.push_str(&record);
    };
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        push_record(
            format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {lane}, \
                 \"args\": {{\"name\": \"lane-{lane}\"}}}}"
            ),
            &mut first,
        );
    }
    for e in events {
        let mut fields: Vec<String> = Vec::with_capacity(1 + e.args.len());
        if let Some(q) = e.query {
            fields.push(format!("\"query\": {q}"));
        }
        for (k, v) in &e.args {
            fields.push(format!("{}: {v}", crate::json::escape_string(k)));
        }
        let args = format!("{{{}}}", fields.join(", "));
        push_record(
            format!(
                "{{\"ph\": \"X\", \"name\": {}, \"cat\": \"treepi\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {args}}}",
                crate::json::escape_string(&e.name),
                e.lane,
                e.start_ns / 1_000,
                e.start_ns % 1_000,
                e.dur_ns / 1_000,
                e.dur_ns % 1_000,
            ),
            &mut first,
        );
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_events() -> Vec<TraceEvent> {
        let sink = TraceSink::new();
        let a = sink.shard();
        let b = sink.shard();
        let t0 = Instant::now();
        a.set_query(Some(0));
        a.push("query.filter", t0, Duration::from_micros(5));
        b.set_query(Some(1));
        b.push("query.verify", t0, Duration::from_nanos(1500));
        b.set_query(None);
        b.push("serve.batch_exec", t0, Duration::from_micros(9));
        sink.absorb(a);
        sink.absorb(b);
        sink.drain()
    }

    #[test]
    fn shards_get_distinct_lanes_and_events_merge() {
        let events = sample_events();
        assert_eq!(events.len(), 3);
        let lanes: std::collections::BTreeSet<u32> = events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 2);
        let filter = events.iter().find(|e| e.name == "query.filter").unwrap();
        assert_eq!(filter.query, Some(0));
        assert_eq!(filter.dur_ns, 5_000);
        let batch = events.iter().find(|e| e.name == "serve.batch_exec");
        assert_eq!(batch.unwrap().query, None);
    }

    #[test]
    fn pre_epoch_starts_clamp_to_zero() {
        let shard = TraceSink::new().shard();
        let Some(long_ago) = Instant::now().checked_sub(Duration::from_secs(3600)) else {
            return; // monotonic clock too young to test against
        };
        shard.push("x", long_ago, Duration::from_nanos(7));
        let e = shard.events.into_inner().pop().unwrap();
        assert_eq!(e.start_ns, 0);
        assert_eq!(e.dur_ns, 7);
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let events = sample_events();
        let text = render_chrome_json(&events);
        let v = json::parse(&text).expect("valid JSON");
        let arr = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        // 2 thread_name metadata records + 3 events.
        assert_eq!(arr.len(), 5);
        let slices: Vec<&json::Value> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 3);
        for s in &slices {
            assert!(s.get("name").is_some());
            assert!(s.get("ts").and_then(json::Value::as_f64).is_some());
            assert!(s.get("dur").and_then(json::Value::as_f64).is_some());
            assert!(s.get("tid").and_then(json::Value::as_u64).is_some());
        }
        // Sub-microsecond durations survive as fractional microseconds.
        let verify = slices
            .iter()
            .find(|s| s.get("name").and_then(json::Value::as_str) == Some("query.verify"))
            .unwrap();
        assert_eq!(verify.get("dur").and_then(json::Value::as_f64), Some(1.5));
    }

    #[test]
    fn event_args_render_into_chrome_args_object() {
        let e = TraceEvent {
            name: "serve.slow_query".to_string(),
            query: Some(42),
            lane: 0,
            start_ns: 1_000,
            dur_ns: 2_500,
            args: vec![
                ("funnel.filtered".to_string(), 17),
                ("funnel.answers".to_string(), 3),
            ],
        };
        let v = json::parse(&render_chrome_json(&[e])).expect("valid JSON");
        let arr = v
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        let slice = arr
            .iter()
            .find(|r| r.get("ph").and_then(json::Value::as_str) == Some("X"))
            .unwrap();
        let args = slice.get("args").expect("args object");
        assert_eq!(args.get("query").and_then(json::Value::as_u64), Some(42));
        assert_eq!(
            args.get("funnel.filtered").and_then(json::Value::as_u64),
            Some(17)
        );
        assert_eq!(
            args.get("funnel.answers").and_then(json::Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn empty_trace_renders_valid_json() {
        let v = json::parse(&render_chrome_json(&[])).expect("valid JSON");
        assert_eq!(
            v.get("traceEvents")
                .and_then(json::Value::as_array)
                .map(<[json::Value]>::len),
            Some(0)
        );
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        let sink = TraceSink::new();
        let s = sink.shard();
        let t0 = Instant::now();
        s.push("b", t0 + Duration::from_micros(10), Duration::ZERO);
        s.push("a", t0, Duration::ZERO);
        sink.absorb(s);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].start_ns <= events[1].start_ns);
        assert_eq!(events[0].name, "a");
        assert!(sink.drain().is_empty());
    }
}
