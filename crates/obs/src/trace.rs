//! Per-query trace timeline: complete events collected alongside the span
//! statistics and exported as Chrome trace-event JSON, loadable in
//! `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! A [`TraceSink`] (owned by a tracing [`crate::Registry`]) defines the
//! epoch and hands each shard a [`TraceShard`]: an unsynchronized buffer
//! plus a *lane*, the Chrome `tid`. [`crate::Registry::absorb`] moves a
//! shard's events into the sink. A query batch records into its caller's
//! shard, so its events share the caller's lane, each tagged with its
//! query's batch position; the stages are laid end to end before the
//! query's finish ([`stages_ending_at`]), and [`render_chrome_json`] gives
//! queries that overlap rows of their own. When tracing is off, every
//! trace call is one branch on a `None`.

use crate::json::escape_string;
use crate::Span;
use std::cell::RefCell;
use std::cmp::Reverse;
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
    events: RefCell<Vec<TraceEvent>>,
}

impl TraceShard {
    /// Append a complete event of query `query` (a batch position, when one
    /// is in scope) that started at `start` and ran for `dur`. Starts
    /// before the epoch clamp to offset 0.
    pub(crate) fn push(&self, name: &str, query: Option<u64>, start: Instant, dur: Duration) {
        let start_ns = start
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_nanos()
            .min(u64::MAX as u128) as u64;
        self.events.borrow_mut().push(TraceEvent {
            name: name.to_string(),
            query,
            lane: self.lane,
            start_ns,
            dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
            args: Vec::new(),
        });
    }
}

/// Lay a query's `stages` end to end so that the last ends at `end`, the
/// instant the query finished: each stage's `(span, start, duration)`. A
/// query's stages run back to back, so no clock is read in the pipeline.
pub fn stages_ending_at(
    stages: &[(Span, Duration)],
    end: Instant,
) -> impl Iterator<Item = (Span, Instant, Duration)> + '_ {
    let mut at = end
        .checked_sub(stages.iter().map(|&(_, t)| t).sum())
        .unwrap_or(end);
    stages.iter().map(move |&(span, t)| {
        at += t;
        (span, at - t, t)
    })
}

/// A row of a lane: its tid and its open slices' `(end, query)`, innermost last.
type Row = (u32, Vec<(u64, Option<u64>)>);

/// Render events as Chrome trace-event JSON (the "JSON Array Format" with
/// a `traceEvents` wrapper object, loadable by `chrome://tracing` and
/// Perfetto): complete (`"ph": "X"`) slices, timestamps in microseconds
/// with sub-microsecond fractions, lanes as thread ids labelled `lane-N`.
///
/// Slices on one thread must nest, so a lane's slices are laid in start
/// order, each on the first row where it lies after or within the
/// innermost open slice (of the same query, when both have one). A slice
/// no row takes opens a row: a fresh tid above every lane, `lane-N.k`.
pub fn render_chrome_json(events: &[TraceEvent]) -> String {
    let stop = |e: &TraceEvent| e.start_ns.saturating_add(e.dur_ns);
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.lane, e.start_ns, Reverse(stop(e))));
    let mut fresh_tid = events.iter().map(|e| e.lane + 1).max().unwrap_or(0);
    let thread = |tid, name: String| {
        format!(
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{name}\"}}}}"
        )
    };
    let (mut records, mut slices) = (Vec::new(), Vec::new());
    let mut rows: Vec<Row> = Vec::new();
    for (i, e) in order.iter().enumerate() {
        if i == 0 || order[i - 1].lane != e.lane {
            records.push(thread(e.lane, format!("lane-{}", e.lane)));
            rows = vec![(e.lane, Vec::new())];
        }
        let fits = |(_, open): &mut Row| {
            open.retain(|&(until, _)| until > e.start_ns);
            open.last().is_none_or(|&(until, q)| {
                until >= stop(e) && (q.is_none() || e.query.is_none() || q == e.query)
            })
        };
        let row = rows.iter_mut().position(fits).unwrap_or_else(|| {
            records.push(thread(fresh_tid, format!("lane-{}.{}", e.lane, rows.len())));
            rows.push((fresh_tid, Vec::new()));
            fresh_tid += 1;
            rows.len() - 1
        });
        rows[row].1.push((stop(e), e.query));
        let query = e.query.map(|q| format!("\"query\": {q}"));
        let args = e
            .args
            .iter()
            .map(|(k, v)| format!("{}: {v}", escape_string(k)));
        slices.push(format!(
            "{{\"ph\": \"X\", \"name\": {}, \"cat\": \"treepi\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"args\": {{{}}}}}",
            escape_string(&e.name),
            rows[row].0,
            e.start_ns / 1_000,
            e.start_ns % 1_000,
            e.dur_ns / 1_000,
            e.dur_ns % 1_000,
            query.into_iter().chain(args).collect::<Vec<_>>().join(", "),
        ));
    }
    records.append(&mut slices);
    let end = if records.is_empty() { "" } else { "\n  " };
    let records: Vec<String> = records.iter().map(|r| format!("\n    {r}")).collect();
    let records = records.join(",");
    format!("{{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [{records}{end}]\n}}\n")
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
        a.push("query.filter", Some(0), t0, Duration::from_micros(5));
        b.push("query.verify", Some(1), t0, Duration::from_nanos(1500));
        b.push("serve.batch_exec", None, t0, Duration::from_micros(9));
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

    /// The X slices of a rendered trace as `(tid, query, start, end)`, in
    /// nanoseconds; panics unless every thread's slices nest, none partly
    /// overlapping another.
    fn nested_slices(text: &str) -> Vec<(u64, Option<u64>, u64, u64)> {
        let v = json::parse(text).expect("valid JSON");
        let records = v.get("traceEvents").and_then(json::Value::as_array);
        let mut slices: Vec<_> = records
            .expect("traceEvents array")
            .iter()
            .filter(|r| r.get("ph").and_then(json::Value::as_str) == Some("X"))
            .map(|r| {
                let ns = |key| (r.get(key).and_then(json::Value::as_f64).unwrap() * 1e3).round();
                let tid = r.get("tid").and_then(json::Value::as_u64).unwrap();
                let query = r.get("args").and_then(|a| a.get("query")?.as_u64());
                let start = ns("ts") as u64;
                (tid, query, start, start + ns("dur") as u64)
            })
            .collect();
        slices.sort_by_key(|&(tid, _, start, end)| (tid, start, std::cmp::Reverse(end)));
        let mut open: Vec<(u64, u64)> = Vec::new();
        for &(tid, _, start, end) in &slices {
            open.retain(|&(t, until)| t == tid && until > start);
            if let Some(&(_, until)) = open.last() {
                assert!(
                    end <= until,
                    "tid {tid}: slice {start}..{end} ends past {until}"
                );
            }
            open.push((tid, end));
        }
        slices
    }

    /// Two slow-query captures of one batch overlap on lane 0, as queries
    /// run side by side do: query 0 ran 0–10 µs and query 1 3–10 µs, so
    /// query 0's partition stage partly overlaps query 1's umbrella. Each
    /// query gets a row of the lane, and every row nests.
    #[test]
    fn overlapping_captures_of_one_batch_get_rows_that_nest() {
        let slice = |name: &str, query, start_ns, dur_ns| TraceEvent {
            name: name.to_string(),
            query: Some(query),
            lane: 0,
            start_ns,
            dur_ns,
            args: Vec::new(),
        };
        let events = [
            slice("serve.slow_query", 0, 0, 10_000),
            slice("query.partition", 0, 0, 4_000),
            slice("query.filter", 0, 4_000, 1_000),
            slice("query.verify", 0, 5_000, 5_000),
            slice("serve.slow_query", 1, 3_000, 7_000),
            slice("query.partition", 1, 3_000, 3_000),
            slice("query.filter", 1, 6_000, 1_000),
            slice("query.verify", 1, 7_000, 3_000),
        ];
        let text = render_chrome_json(&events);
        let slices = nested_slices(&text);
        assert_eq!(slices.len(), events.len());
        let rows: std::collections::BTreeSet<_> = slices.iter().map(|&(t, q, ..)| (t, q)).collect();
        assert_eq!(
            rows.into_iter().collect::<Vec<_>>(),
            [(0, Some(0)), (1, Some(1))]
        );
        assert!(text.contains("\"tid\": 1, \"args\": {\"name\": \"lane-0.1\"}"));
    }

    /// Stages laid end to end finish at the instant given, in order.
    #[test]
    fn stages_end_at_the_finish_instant() {
        let end = Instant::now() + Duration::from_secs(1);
        let [p, f, v] = Span::PIPELINE;
        let ms = Duration::from_millis;
        let stages = [(p, ms(3)), (f, ms(1)), (v, ms(5))];
        let laid: Vec<_> = stages_ending_at(&stages, end).collect();
        assert_eq!(laid[0], (p, end - ms(9), ms(3)));
        assert_eq!(laid[1], (f, end - ms(6), ms(1)));
        assert_eq!(laid[2], (v, end - ms(5), ms(5)));
    }

    #[test]
    fn pre_epoch_starts_clamp_to_zero() {
        let shard = TraceSink::new().shard();
        let Some(long_ago) = Instant::now().checked_sub(Duration::from_secs(3600)) else {
            return; // monotonic clock too young to test against
        };
        shard.push("x", None, long_ago, Duration::from_nanos(7));
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
        s.push("b", None, t0 + Duration::from_micros(10), Duration::ZERO);
        s.push("a", None, t0, Duration::ZERO);
        sink.absorb(s);
        let events = sink.drain();
        assert_eq!(events.len(), 2);
        assert!(events[0].start_ns <= events[1].start_ns);
        assert_eq!(events[0].name, "a");
        assert!(sink.drain().is_empty());
    }
}
