//! Harness spans: the benchmark's own record of when it called into each
//! layer. A span has a name, a start and an end, the span that caused it
//! and the id of the operation it belongs to; all are kept in memory and
//! written out once, as Chrome-trace JSON, when the run ends.

use std::time::{Duration, Instant};

/// One finished (or still open) harness span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The operation (query or request number) the span belongs to.
    pub op: Option<u64>,
    /// Index, in the same tracer, of the span that caused this one.
    pub parent: Option<usize>,
    /// Thread lane, so concurrent tracers stay apart in the viewer.
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A single-threaded span recorder. Every load-generating thread owns one;
/// they share the epoch so their spans line up on one timeline.
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    op: Option<u64>,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            epoch,
            lane,
            op: None,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Operation id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            lane: self.lane,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return how long it ran.
    pub fn end(&mut self, id: usize) -> Duration {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        Duration::from_nanos(span.dur_ns)
    }

    /// Record a span whose start and end were taken elsewhere (a request
    /// that was in flight while others were sent).
    pub fn complete(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            op: Some(op),
            parent: self.open.last().copied(),
            lane: self.lane,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.set_op(Some(9));
        let outer = t.begin("query");
        let a = t.begin("partition");
        std::thread::sleep(Duration::from_millis(2));
        let da = t.end(a);
        let b = t.begin("verify");
        let db = t.end(b);
        let d_outer = t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[a].parent, Some(outer));
        assert_eq!(spans[b].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans.iter().all(|s| s.op == Some(9) && s.lane == 3));
        assert!(da >= Duration::from_millis(2));
        assert!(d_outer >= da + db);
    }
}
