//! Serving forensics that ride inside the event-loop thread (no
//! synchronization): the [`SlowQueryLog`], the [`LoopWatchdog`] and the
//! [`AccessLog`].
//!
//! The slow-query log captures the filter-funnel counters plus a
//! reconstructed per-stage timeline for every query whose verify stage
//! exceeded the configured threshold. It is a bounded ring — under a
//! pathological query mix it keeps the most recent captures and counts
//! the rest — and dumps as Chrome trace-event JSON
//! ([`SlowQueryLog::render_chrome_json`]) loadable in Perfetto, with the
//! funnel counters attached as per-slice `args`. Each of the three owns
//! its counts (`seen`, `stalls`, `write_errors`); the event loop reads
//! them into its metrics and writes no copy of its own.

use obs::json::escape_string;
use obs::trace::TraceEvent;
use std::collections::VecDeque;
use std::io::Write;
use std::time::{Duration, Instant};
use treepi::QueryStats;

/// Default capacity of the slow-query ring.
pub const SLOW_LOG_CAP: usize = 256;

/// Telemetry state owned by one server run: the slow-query log and the
/// optional structured access log. Construct with real settings for live
/// observability or [`ServeTelemetry::disabled`] for the zero-overhead
/// default.
#[derive(Debug)]
pub struct ServeTelemetry {
    /// Slow-query captures.
    pub slow: SlowQueryLog,
    /// Structured per-request JSONL access log (`None` disables it).
    pub access: Option<AccessLog>,
}

impl ServeTelemetry {
    /// Telemetry that records nothing: no query is slow enough to
    /// capture, and no access log is written.
    pub fn disabled() -> Self {
        Self {
            slow: SlowQueryLog::new(None, SLOW_LOG_CAP),
            access: None,
        }
    }
}

/// Detector for the single-threaded event loop's worst failure mode: one
/// iteration holding the thread long enough that every queued client
/// stalls behind it.
///
/// The watchdog times the **work period** — the span from one
/// `poll(2)` return to the next `poll` entry, i.e. batch execution,
/// frame parsing, and socket shuffling — and trips when it exceeds the
/// threshold. Time blocked *inside* `poll` is idleness, not a stall, and
/// is deliberately excluded. Trips maintain `serve.loop.stall_count` /
/// `serve.loop.max_stall_us` and flip `/healthz` to `degraded` while the
/// most recent stall is younger than [`LoopWatchdog::DEGRADED_WINDOW`].
#[derive(Debug)]
pub struct LoopWatchdog {
    threshold: Option<Duration>,
    work_start: Option<Instant>,
    stalls: u64,
    max_stall: Duration,
    last_stall: Option<Instant>,
}

impl LoopWatchdog {
    /// How long after the most recent stall `/healthz` keeps reporting
    /// `degraded`: long enough for a scraper on a typical 5–15 s interval
    /// to observe it, short enough to self-clear once the loop recovers.
    pub const DEGRADED_WINDOW: Duration = Duration::from_secs(30);

    /// A watchdog tripping on work periods ≥ `threshold` (`None`
    /// disables measurement entirely).
    pub fn new(threshold: Option<Duration>) -> Self {
        Self {
            threshold,
            work_start: None,
            stalls: 0,
            max_stall: Duration::ZERO,
            last_stall: None,
        }
    }

    /// Mark the start of a work period at `now` (call right after `poll`
    /// returns).
    #[inline]
    pub fn begin_work(&mut self, now: Instant) {
        if self.threshold.is_some() {
            self.work_start = Some(now);
        }
    }

    /// Mark the end of a work period at `now` (call right before
    /// re-entering `poll`). Returns the period's duration when it tripped
    /// the threshold.
    #[inline]
    pub fn end_work(&mut self, now: Instant) -> Option<Duration> {
        let threshold = self.threshold?;
        let gap = now.saturating_duration_since(self.work_start.take()?);
        if gap < threshold {
            return None;
        }
        self.stalls += 1;
        self.max_stall = self.max_stall.max(gap);
        self.last_stall = Some(now);
        Some(gap)
    }

    /// Total threshold trips so far.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Longest work period observed among the trips.
    pub fn max_stall(&self) -> Duration {
        self.max_stall
    }

    /// Whether the loop should be reported as degraded at `now`: a stall
    /// happened within the last [`LoopWatchdog::DEGRADED_WINDOW`].
    pub fn degraded(&self, now: Instant) -> bool {
        self.last_stall
            .is_some_and(|at| now.saturating_duration_since(at) < Self::DEGRADED_WINDOW)
    }
}

/// Per-request stage timings attached to executed-query access records.
#[derive(Clone, Copy, Debug, Default)]
pub struct AccessStages {
    /// Decode-to-admission time (cache key + cache probe), µs.
    pub admit_us: u64,
    /// Admission-to-dispatch wait in the bounded queue, µs.
    pub queue_wait_us: u64,
    /// Batch residence beyond the query's own execution, µs.
    pub batch_wait_us: u64,
    /// The query's own pipeline execution time, µs.
    pub exec_us: u64,
}

/// One access-log record, borrowed from the event loop's state at the
/// moment the response is enqueued.
#[derive(Clone, Copy, Debug)]
pub struct AccessRecord<'a> {
    /// Connection slot index.
    pub conn: usize,
    /// Client-chosen request tag.
    pub tag: u32,
    /// Operation name (`query`, `insert`, `remove`, `stats`, `shutdown`,
    /// `invalid`).
    pub op: &'a str,
    /// Outcome (`ok`, `busy`, `error`, or `dropped` for a query whose
    /// connection closed before it ran).
    pub outcome: &'a str,
    /// Request frame size in bytes (length prefix included).
    pub bytes_in: u64,
    /// Response frame size in bytes (length prefix included).
    pub bytes_out: u64,
    /// `Some(true)` for cache hits, `Some(false)` for executed queries,
    /// `None` where the cache does not apply.
    pub cache_hit: Option<bool>,
    /// Maintenance epoch the request was served under.
    pub epoch: u64,
    /// Stage decomposition. Executed queries carry the full breakdown;
    /// immediately-answered requests (cache hits, admin ops, errors)
    /// carry only the admit time, with the wait/exec fields zero.
    pub stages: Option<AccessStages>,
}

/// Structured JSONL access log: one self-describing JSON object per
/// request, written at response-enqueue time.
///
/// Writes are best-effort — a full disk must degrade the log, never the
/// serving path — so I/O errors are counted ([`AccessLog::write_errors`])
/// and otherwise swallowed. The writer is boxed so tests can capture
/// records in memory while the CLI hands in a buffered file.
pub struct AccessLog {
    out: Box<dyn Write + Send>,
    epoch: Instant,
    lines: u64,
    write_errors: u64,
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("lines", &self.lines)
            .field("write_errors", &self.write_errors)
            .finish_non_exhaustive()
    }
}

impl AccessLog {
    /// An access log writing JSONL records to `out`.
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out,
            epoch: Instant::now(),
            lines: 0,
            write_errors: 0,
        }
    }

    /// An access log appending to the file at `path` (created if absent,
    /// truncated if present), buffered.
    pub fn create(path: &str) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(std::io::BufWriter::new(f))))
    }

    /// Append one record.
    pub fn log(&mut self, rec: &AccessRecord<'_>) {
        let mut line = String::with_capacity(192);
        line.push_str(&format!(
            "{{\"t_ns\": {}, \"conn\": {}, \"tag\": {}, \"op\": {}, \"outcome\": {}, \
             \"bytes_in\": {}, \"bytes_out\": {}, \"epoch\": {}",
            self.epoch.elapsed().as_nanos().min(u64::MAX as u128),
            rec.conn,
            rec.tag,
            escape_string(rec.op),
            escape_string(rec.outcome),
            rec.bytes_in,
            rec.bytes_out,
            rec.epoch,
        ));
        if let Some(hit) = rec.cache_hit {
            line.push_str(&format!(", \"cache_hit\": {hit}"));
        }
        if let Some(s) = rec.stages {
            line.push_str(&format!(
                ", \"admit_us\": {}, \"queue_wait_us\": {}, \"batch_wait_us\": {}, \"exec_us\": {}",
                s.admit_us, s.queue_wait_us, s.batch_wait_us, s.exec_us
            ));
        }
        line.push_str("}\n");
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(_) => self.write_errors += 1,
        }
    }

    /// Records successfully written.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Records lost to writer I/O errors.
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Flush the underlying writer (the event loop exits through this).
    pub fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.write_errors += 1;
        }
    }
}

/// Bounded ring of slow-query captures.
///
/// A query is captured when its verify-stage time meets `threshold`
/// (`None` disables capture entirely). Each capture stores an umbrella
/// `serve.slow_query` slice spanning the whole pipeline with the funnel
/// counters as `args`, plus one slice per stage of
/// [`treepi::QueryStats::stages`], laid end to end up to the completion
/// instant as the engine's own trace does.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold: Option<Duration>,
    cap: usize,
    epoch: Instant,
    ring: VecDeque<Vec<TraceEvent>>,
    seen: u64,
}

impl SlowQueryLog {
    /// A log capturing queries with verify time ≥ `threshold`, keeping
    /// the most recent `cap` captures.
    pub fn new(threshold: Option<Duration>, cap: usize) -> Self {
        Self {
            threshold,
            cap: cap.max(1),
            epoch: Instant::now(),
            ring: VecDeque::new(),
            seen: 0,
        }
    }

    /// Whether captures can ever happen (used to skip per-query work).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.threshold.is_some()
    }

    /// Total slow queries observed, including ones evicted from the ring.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Captures currently retained (≤ cap).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no capture has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Consider one finished query: capture it if its verify stage met
    /// the threshold. `seq` is the running query number (rendered as the
    /// Chrome `query` arg), `end` the instant the query finished, and
    /// `extra_args` additional `(name, value)` pairs — the server attaches
    /// the queue/batch-wait decomposition here — appended to the umbrella
    /// slice's `args`. Returns whether a capture happened.
    pub fn record(
        &mut self,
        seq: u64,
        stats: &QueryStats,
        end: Instant,
        extra_args: &[(&str, u64)],
    ) -> bool {
        let Some(threshold) = self.threshold else {
            return false;
        };
        if stats.t_verify < threshold {
            return false;
        }
        self.seen += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        // The stages run back-to-back and end at `end`: the first starts
        // `total()` before it, each where the previous one ended.
        let query_start = end - stats.total();
        let off = |at: Instant| {
            at.checked_duration_since(self.epoch)
                .unwrap_or_default()
                .as_nanos()
                .min(u64::MAX as u128) as u64
        };
        let slice =
            |name: &str, start: Instant, dur: Duration, args: Vec<(String, u64)>| TraceEvent {
                name: name.to_string(),
                query: Some(seq),
                lane: 0,
                start_ns: off(start),
                dur_ns: dur.as_nanos().min(u64::MAX as u128) as u64,
                args,
            };
        use obs::Counter;
        let mut umbrella_args: Vec<(String, u64)> = vec![
            (
                Counter::FUNNEL_FILTERED.name().into(),
                stats.filtered as u64,
            ),
            (Counter::FUNNEL_ANSWERS.name().into(), stats.answers as u64),
            (
                Counter::FUNNEL_MISSING_FEATURE.name().into(),
                stats.missing_feature as u64,
            ),
        ];
        umbrella_args.extend(extra_args.iter().map(|&(k, v)| (k.to_string(), v)));
        let mut capture = vec![slice(
            "serve.slow_query",
            query_start,
            stats.total(),
            umbrella_args,
        )];
        let mut start = query_start;
        for (span, t) in stats.stages() {
            capture.push(slice(span.name(), start, t, Vec::new()));
            start += t;
        }
        self.ring.push_back(capture);
        true
    }

    /// Render every retained capture as one Chrome trace-event JSON
    /// document (timeline order within each capture is preserved).
    pub fn render_chrome_json(&self) -> String {
        let events: Vec<TraceEvent> = self.ring.iter().flatten().cloned().collect();
        obs::trace::render_chrome_json(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slow_stats() -> QueryStats {
        QueryStats {
            partition_size: 2,
            sf_size: 3,
            filtered: 17,
            answers: 4,
            missing_feature: false,
            t_partition: Duration::from_micros(10),
            t_filter: Duration::from_micros(20),
            t_verify: Duration::from_micros(500),
            ..QueryStats::default()
        }
    }

    #[test]
    fn threshold_gates_capture() {
        let mut log = SlowQueryLog::new(Some(Duration::from_millis(1)), 8);
        assert!(!log.record(0, &slow_stats(), Instant::now(), &[]));
        assert!(log.is_empty());
        let mut log = SlowQueryLog::new(Some(Duration::from_micros(100)), 8);
        assert!(log.record(0, &slow_stats(), Instant::now(), &[]));
        assert_eq!(log.len(), 1);
        assert_eq!(log.seen(), 1);
        let mut off = SlowQueryLog::new(None, 8);
        assert!(!off.is_enabled());
        assert!(!off.record(0, &slow_stats(), Instant::now(), &[]));
    }

    #[test]
    fn ring_is_bounded_but_seen_counts_all() {
        let mut log = SlowQueryLog::new(Some(Duration::ZERO), 3);
        for seq in 0..10 {
            assert!(log.record(seq, &slow_stats(), Instant::now(), &[]));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.seen(), 10);
        // The retained captures are the most recent ones.
        let doc = log.render_chrome_json();
        assert!(doc.contains("\"query\": 9"));
        assert!(!doc.contains("\"query\": 0,"));
    }

    #[test]
    fn capture_renders_funnel_args_and_stages() {
        let mut log = SlowQueryLog::new(Some(Duration::ZERO), 8);
        log.record(7, &slow_stats(), Instant::now(), &[]);
        let doc = log.render_chrome_json();
        let v = obs::json::parse(&doc).expect("valid Chrome JSON");
        let events = v
            .get("traceEvents")
            .and_then(obs::json::Value::as_array)
            .expect("traceEvents");
        let slices: Vec<&obs::json::Value> = events
            .iter()
            .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
            .collect();
        // Umbrella + 3 stages.
        assert_eq!(slices.len(), 1 + obs::Span::PIPELINE.len());
        let umbrella = slices
            .iter()
            .find(|s| s.get("name").and_then(obs::json::Value::as_str) == Some("serve.slow_query"))
            .expect("umbrella slice");
        let args = umbrella.get("args").expect("args");
        assert_eq!(
            args.get("funnel.filtered")
                .and_then(obs::json::Value::as_u64),
            Some(17)
        );
        assert_eq!(args.get("funnel.pruned"), None);
        assert_eq!(
            args.get("query").and_then(obs::json::Value::as_u64),
            Some(7)
        );
        // Stage slices tile the umbrella: verify ends where it ends.
        for name in obs::Span::PIPELINE.map(obs::Span::name) {
            assert!(
                slices
                    .iter()
                    .any(|s| s.get("name").and_then(obs::json::Value::as_str) == Some(name)),
                "missing stage slice {name}"
            );
        }
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let t = ServeTelemetry::disabled();
        assert!(!t.slow.is_enabled());
        assert!(t.access.is_none());
        // Renders a valid empty document either way.
        assert!(obs::json::parse(&t.slow.render_chrome_json()).is_ok());
    }

    #[test]
    fn slow_log_attaches_extra_args_to_umbrella() {
        let mut log = SlowQueryLog::new(Some(Duration::ZERO), 4);
        log.record(
            1,
            &slow_stats(),
            Instant::now(),
            &[("serve.queue_wait_ns", 1234), ("serve.batch_wait_ns", 56)],
        );
        let v = obs::json::parse(&log.render_chrome_json()).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(obs::json::Value::as_array)
            .expect("traceEvents");
        let umbrella = events
            .iter()
            .find(|e| e.get("name").and_then(obs::json::Value::as_str) == Some("serve.slow_query"))
            .expect("umbrella slice");
        let args = umbrella.get("args").expect("args");
        assert_eq!(
            args.get("serve.queue_wait_ns")
                .and_then(obs::json::Value::as_u64),
            Some(1234)
        );
        assert_eq!(
            args.get("serve.batch_wait_ns")
                .and_then(obs::json::Value::as_u64),
            Some(56)
        );
    }

    #[test]
    fn watchdog_trips_only_at_or_beyond_threshold() {
        let t0 = Instant::now();
        let mut wd = LoopWatchdog::new(Some(Duration::ZERO));
        assert_eq!(wd.end_work(t0), None, "no work period started yet");
        wd.begin_work(t0);
        // Threshold zero: any work period is a stall.
        assert!(wd.end_work(t0).is_some());
        assert_eq!(wd.stalls(), 1);
        assert!(wd.degraded(t0));
        // A stall ages out of the degraded window.
        assert!(!wd.degraded(t0 + LoopWatchdog::DEGRADED_WINDOW));

        let hour = Duration::from_secs(3600);
        let mut calm = LoopWatchdog::new(Some(hour));
        calm.begin_work(t0);
        assert_eq!(
            calm.end_work(t0 + hour / 2),
            None,
            "an hour has not elapsed"
        );
        assert_eq!(calm.stalls(), 0);
        calm.begin_work(t0);
        assert_eq!(calm.end_work(t0 + hour), Some(hour), "an hour is a stall");
        assert_eq!(calm.max_stall(), hour);

        let mut off = LoopWatchdog::new(None);
        off.begin_work(t0);
        assert_eq!(off.end_work(t0 + hour), None);
        assert_eq!(off.max_stall(), Duration::ZERO);
    }

    #[test]
    fn access_log_writes_one_json_object_per_record() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
        let mut log = AccessLog::to_writer(Box::new(buf.clone()));
        log.log(&AccessRecord {
            conn: 3,
            tag: 9,
            op: "query",
            outcome: "ok",
            bytes_in: 40,
            bytes_out: 17,
            cache_hit: Some(false),
            epoch: 2,
            stages: Some(AccessStages {
                admit_us: 1,
                queue_wait_us: 2,
                batch_wait_us: 3,
                exec_us: 4,
            }),
        });
        log.log(&AccessRecord {
            conn: 0,
            tag: 1,
            op: "stats",
            outcome: "ok",
            bytes_in: 9,
            bytes_out: 1000,
            cache_hit: None,
            epoch: 2,
            stages: None,
        });
        log.flush();
        assert_eq!(log.lines(), 2);
        assert_eq!(log.write_errors(), 0);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = obs::json::parse(lines[0]).expect("line 1 is valid JSON");
        assert_eq!(
            first.get("op").and_then(obs::json::Value::as_str),
            Some("query")
        );
        assert_eq!(
            first
                .get("queue_wait_us")
                .and_then(obs::json::Value::as_u64),
            Some(2)
        );
        assert_eq!(
            first
                .get("cache_hit")
                .map(|v| matches!(v, obs::json::Value::Bool(false))),
            Some(true)
        );
        let second = obs::json::parse(lines[1]).expect("line 2 is valid JSON");
        assert_eq!(
            second.get("op").and_then(obs::json::Value::as_str),
            Some("stats")
        );
        assert!(second.get("queue_wait_us").is_none());
        assert!(second.get("cache_hit").is_none());
    }
}
