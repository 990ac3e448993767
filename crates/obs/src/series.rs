//! Ring-buffer time-series sampler (`treepi.series/v1`).
//!
//! Counters and span histograms aggregate over a whole run; they can tell
//! you *that* the queue peaked at 64 but not *when*, or whether the cache
//! hit rate degraded as the working set churned. The [`Sampler`] fills that
//! gap: callers record periodic samples of a few selected values (queue
//! depth, shed count, cache hits, live heap bytes) into a bounded ring,
//! and the whole series renders as one JSON document at exit.
//!
//! Two sampling drivers exist:
//!
//! - **tick-driven** — the serve event loop calls [`Sampler::due`] once per
//!   poll iteration and records when the configured interval has elapsed,
//!   so sampling costs one `Instant::now` comparison per loop;
//! - **phase-driven** — the index build records one labelled sample at each
//!   phase boundary (`build.start`, `build.mine`, `build.sigs`),
//!   bypassing `due` so short builds still produce a useful series.
//!
//! The ring is bounded: when full, the oldest sample is evicted and
//! [`Sampler::dropped`] counts it, keeping memory constant under
//! arbitrarily long runs. Timestamps are nanoseconds since the sampler's
//! construction and are monotone by construction (one `Instant` epoch).

use crate::json::escape_string;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Schema tag embedded in rendered series documents.
pub const SERIES_SCHEMA: &str = "treepi.series/v1";

/// One recorded observation: a timestamp, an optional phase label, and the
/// sampled `(name, value)` pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Nanoseconds since the sampler's epoch (monotone across samples).
    pub t_ns: u64,
    /// Phase label for boundary-driven samples (e.g. `"build.mine"`);
    /// `None` for periodic ticks.
    pub label: Option<String>,
    /// Sampled values, in the order the caller supplied them.
    pub values: Vec<(String, u64)>,
}

/// Bounded ring of [`Sample`]s with interval-gated recording.
///
/// Interior mutability (like [`crate::Shard`]) so the owning single-threaded
/// loop can record through a shared reference; `!Sync` by construction.
#[derive(Debug)]
pub struct Sampler {
    enabled: bool,
    epoch: Instant,
    interval: Duration,
    cap: usize,
    last: Cell<Option<Instant>>,
    samples: RefCell<VecDeque<Sample>>,
    dropped: Cell<u64>,
}

impl Sampler {
    /// A sampler recording at most every `interval`, keeping the most
    /// recent `cap` samples (older ones are evicted and counted).
    pub fn new(interval: Duration, cap: usize) -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            interval,
            cap: cap.max(1),
            last: Cell::new(None),
            samples: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
        }
    }

    /// A permanently disabled sampler: `due` is always false and `sample`
    /// is a no-op. Lets call sites thread one parameter unconditionally.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            interval: Duration::ZERO,
            cap: 1,
            last: Cell::new(None),
            samples: RefCell::new(VecDeque::new()),
            dropped: Cell::new(0),
        }
    }

    /// Whether this sampler records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether the periodic interval has elapsed since the last recorded
    /// sample (always true for the first one). One clock read when enabled,
    /// one branch when disabled — cheap enough for a per-poll-iteration
    /// call in the serve event loop.
    #[inline]
    pub fn due(&self) -> bool {
        if !self.enabled {
            return false;
        }
        match self.last.get() {
            None => true,
            Some(t) => t.elapsed() >= self.interval,
        }
    }

    /// Record one sample. `label` is `Some` at phase boundaries, `None`
    /// for periodic ticks. Resets the interval clock either way.
    pub fn sample(&self, label: Option<&str>, values: &[(&str, u64)]) {
        if !self.enabled {
            return;
        }
        self.last.set(Some(Instant::now()));
        let mut ring = self.samples.borrow_mut();
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.set(self.dropped.get() + 1);
        }
        ring.push_back(Sample {
            t_ns: self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            label: label.map(str::to_owned),
            values: values.iter().map(|&(n, v)| (n.to_owned(), v)).collect(),
        });
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.borrow().len()
    }

    /// Whether no samples have been retained.
    pub fn is_empty(&self) -> bool {
        self.samples.borrow().is_empty()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Render the retained series as a `treepi.series/v1` JSON document:
    /// `{"schema", "interval_ns", "dropped", "samples": [{"t_ns", "label"?,
    /// "values": {...}}]}`. Timestamps are non-decreasing in array order.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": {},\n",
            escape_string(SERIES_SCHEMA)
        ));
        out.push_str(&format!(
            "  \"interval_ns\": {},\n",
            self.interval.as_nanos().min(u64::MAX as u128)
        ));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped.get()));
        out.push_str("  \"samples\": [");
        let ring = self.samples.borrow();
        for (i, s) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"t_ns\": {}", s.t_ns));
            if let Some(label) = &s.label {
                out.push_str(&format!(", \"label\": {}", escape_string(label)));
            }
            out.push_str(", \"values\": {");
            for (j, (name, v)) in s.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {v}", escape_string(name)));
            }
            out.push_str("}}");
        }
        if !ring.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn records_and_renders_monotone_series() {
        let s = Sampler::new(Duration::ZERO, 16);
        assert!(s.due(), "first sample is always due");
        s.sample(None, &[("serve.queue_depth", 3), ("cache.hit", 1)]);
        s.sample(Some("build.mine"), &[("mem.alloc.live_bytes", 1024)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 0);
        let doc = s.render_json();
        let v = json::parse(&doc).expect("series renders valid JSON");
        assert_eq!(
            v.get("schema").and_then(json::Value::as_str),
            Some(SERIES_SCHEMA)
        );
        let samples = v
            .get("samples")
            .and_then(json::Value::as_array)
            .expect("samples array");
        assert_eq!(samples.len(), 2);
        let mut prev = 0u64;
        for sample in samples {
            let t = sample.get("t_ns").and_then(json::Value::as_u64).unwrap();
            assert!(t >= prev, "timestamps must be monotone");
            prev = t;
        }
        assert_eq!(
            samples[0]
                .get("values")
                .and_then(|m| m.get("serve.queue_depth"))
                .and_then(json::Value::as_u64),
            Some(3)
        );
        assert_eq!(
            samples[1].get("label").and_then(json::Value::as_str),
            Some("build.mine")
        );
        assert!(samples[0].get("label").is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let s = Sampler::new(Duration::ZERO, 3);
        for i in 0..5u64 {
            s.sample(None, &[("x", i)]);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let ring = s.samples.borrow();
        let kept: Vec<u64> = ring.iter().map(|smp| smp.values[0].1).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest samples are evicted first");
    }

    #[test]
    fn interval_gates_due() {
        let s = Sampler::new(Duration::from_secs(3600), 4);
        assert!(s.due());
        s.sample(None, &[]);
        assert!(!s.due(), "an hour has not elapsed");
        let fast = Sampler::new(Duration::ZERO, 4);
        fast.sample(None, &[]);
        assert!(fast.due(), "zero interval is always due");
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let s = Sampler::disabled();
        assert!(!s.is_enabled());
        assert!(!s.due());
        s.sample(Some("phase"), &[("x", 1)]);
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 0);
        // Still renders a valid (empty) document.
        assert!(json::parse(&s.render_json()).is_ok());
    }

    #[test]
    fn empty_and_escaped_rendering() {
        let s = Sampler::new(Duration::ZERO, 4);
        assert!(json::parse(&s.render_json()).is_ok());
        s.sample(Some("we\"ird\\"), &[("na\"me", 7)]);
        let v = json::parse(&s.render_json()).expect("escaped names stay valid JSON");
        let samples = v.get("samples").and_then(json::Value::as_array).unwrap();
        assert_eq!(
            samples[0].get("label").and_then(json::Value::as_str),
            Some("we\"ird\\")
        );
        assert_eq!(
            samples[0]
                .get("values")
                .and_then(|m| m.get("na\"me"))
                .and_then(json::Value::as_u64),
            Some(7)
        );
    }
}
