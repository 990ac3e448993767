//! The harness's own load generator over `serve::Client` send/recv.
//!
//! A closed loop sends a connection's next request when the previous one
//! is answered: callers that wait. An open loop sends on a schedule
//! whatever has come back: independent clients. In the open loop a
//! request's latency runs from the instant it was *due*, so a stall is
//! charged to every request it delays, and how late the generator itself
//! ran is reported. Every response is kept and later classified; nothing
//! is assumed to have succeeded.

use crate::adapter::{self, Client, Graph, Op, Reply};
use crate::stats::{due_ns, Zipf};
use crate::trace::Tracer;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One planned request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Query the pool graph with this index.
    Read(u32),
    /// Insert the donor graph with this index.
    Insert(u32),
    /// Remove this graph id.
    Remove(u32),
}

/// One request as the client saw it.
#[derive(Clone, Debug)]
pub struct Sample {
    pub step: Step,
    /// When the reply arrived, after the phase start.
    pub done: Duration,
    /// Reply instant minus due instant (open loop) or send instant (closed).
    pub latency: Duration,
    /// Reply instant minus send instant.
    pub service: Duration,
    /// Send instant minus due instant: the generator's own lateness.
    pub late: Duration,
    /// `None`: the connection failed before a reply arrived.
    pub reply: Option<Reply>,
}

/// Where a connection's requests come from.
pub trait Script {
    fn next(&mut self) -> Step;
    /// Called with each reply, for scripts whose plan depends on them.
    fn observe(&mut self, _step: Step, _reply: &Reply) {}
}

/// Zipf-distributed reads: rank `r` of the distribution is pool query
/// `ranks[r]`, so the seed decides which queries are hot.
pub struct Reads<'a> {
    pub zipf: &'a Zipf,
    pub ranks: &'a [u32],
    pub rng: ChaCha8Rng,
}

impl Script for Reads<'_> {
    fn next(&mut self) -> Step {
        Step::Read(self.ranks[self.zipf.sample(&mut self.rng)])
    }
}

/// Reads with every `write_every`-th op a write: insert a donor graph, or,
/// once `hold` inserted graphs are held, remove the oldest of them.
pub struct Churn<'a> {
    pub reads: Reads<'a>,
    pub donors: u32,
    pub write_every: u64,
    pub hold: usize,
    pub sent: u64,
    pub held: VecDeque<u32>,
}

impl Script for Churn<'_> {
    fn next(&mut self) -> Step {
        self.sent += 1;
        if !self.sent.is_multiple_of(self.write_every) {
            return self.reads.next();
        }
        if self.held.len() >= self.hold {
            Step::Remove(self.held.pop_front().expect("hold is at least one"))
        } else {
            Step::Insert(self.reads.rng.gen_range(0..self.donors))
        }
    }

    fn observe(&mut self, step: Step, reply: &Reply) {
        if let (Step::Insert(_), Reply::Inserted(gid)) = (step, reply) {
            self.held.push_back(*gid);
        }
    }
}

/// The graphs requests are made of.
#[derive(Clone, Copy)]
pub struct Inputs<'a> {
    pub pool: &'a [Graph],
    pub donors: &'a [Graph],
}

impl Inputs<'_> {
    fn op(&self, step: Step) -> Op<'_> {
        match step {
            Step::Read(i) => Op::Query(&self.pool[i as usize]),
            Step::Insert(d) => Op::Insert(&self.donors[d as usize]),
            Step::Remove(gid) => Op::Remove(gid),
        }
    }
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(u64),
    At(Instant),
}

/// One connection's closed loop. `tracer`, when given, gets one
/// `client.request` span per request, numbered from `first_op`.
pub fn closed_loop(
    client: &mut Client,
    script: &mut dyn Script,
    inputs: Inputs<'_>,
    stop: Stop,
    start: Instant,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    loop {
        match stop {
            Stop::After(n) if samples.len() as u64 >= n => break,
            Stop::At(t) if Instant::now() >= t => break,
            _ => {}
        }
        let step = script.next();
        let sent = Instant::now();
        let reply = adapter::send(client, inputs.op(step))
            .and_then(|tag| adapter::recv(client).map(|(got, reply)| (tag, got, reply)))
            .ok()
            .and_then(|(tag, got, reply)| (tag == got).then_some(reply));
        let done = Instant::now();
        if let Some((tr, first_op)) = tracer.as_mut() {
            tr.complete(
                "client.request",
                *first_op + samples.len() as u64,
                sent,
                done,
            );
        }
        if let Some(reply) = &reply {
            script.observe(step, reply);
        }
        let failed = reply.is_none();
        samples.push(Sample {
            step,
            done: done - start,
            latency: done - sent,
            service: done - sent,
            late: Duration::ZERO,
            reply,
        });
        if failed {
            break; // the stream is out of step: nothing more can be matched
        }
    }
    samples
}

/// A request sent and not yet answered.
struct InFlight {
    step: Step,
    due: Instant,
    sent: Instant,
    op: u64,
}

/// One connection's share of an open loop of `rate` requests per second
/// over `conns` connections for `duration`. Requests go out when due
/// whether or not earlier ones are answered; while any is outstanding the
/// connection waits in `recv`, so a send can run late by at most one
/// service time — and that lateness is in the latency, which starts at the
/// due time, and in `Sample::late`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    client: &mut Client,
    script: &mut dyn Script,
    inputs: Inputs<'_>,
    conn: usize,
    conns: usize,
    rate: f64,
    duration: Duration,
    start: Instant,
    mut tracer: Option<(&mut Tracer, u64)>,
) -> Vec<Sample> {
    let planned = (duration.as_secs_f64() * rate / conns as f64) as u64;
    let due_at = |i: u64| start + Duration::from_nanos(due_ns(i, conn, conns, rate));
    let mut samples = Vec::with_capacity(planned as usize);
    let mut flying: HashMap<u32, InFlight> = HashMap::new();
    let mut next = 0u64;
    let lost = |f: InFlight, now: Instant| Sample {
        step: f.step,
        done: now - start,
        latency: now - f.due,
        service: now - f.sent,
        late: f.sent - f.due,
        reply: None,
    };
    'run: while next < planned || !flying.is_empty() {
        while next < planned && due_at(next) <= Instant::now() {
            let step = script.next();
            let sent = Instant::now();
            let flight = InFlight {
                step,
                due: due_at(next),
                sent,
                op: next,
            };
            next += 1;
            match adapter::send(client, inputs.op(step)) {
                Ok(tag) => {
                    flying.insert(tag, flight);
                }
                Err(_) => {
                    samples.push(lost(flight, Instant::now()));
                    break 'run;
                }
            }
        }
        if flying.is_empty() {
            std::thread::sleep(due_at(next).saturating_duration_since(Instant::now()));
            continue;
        }
        let Ok((tag, reply)) = adapter::recv(client) else {
            break;
        };
        let done = Instant::now();
        let Some(f) = flying.remove(&tag) else {
            break; // a reply to nothing we sent
        };
        if let Some((tr, first_op)) = tracer.as_mut() {
            tr.complete("client.request", *first_op + f.op, f.due, done);
        }
        samples.push(Sample {
            step: f.step,
            done: done - start,
            latency: done - f.due,
            service: done - f.sent,
            late: f.sent - f.due,
            reply: Some(reply),
        });
    }
    // Whatever is still in flight was never answered.
    let now = Instant::now();
    samples.extend(flying.into_values().map(|f| lost(f, now)));
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::rng;

    #[test]
    fn churn_writes_every_nth_op_and_holds_a_bounded_set() {
        let zipf = Zipf::new(10, 1.0);
        let ranks: Vec<u32> = (0..10).collect();
        let mut script = Churn {
            reads: Reads {
                zipf: &zipf,
                ranks: &ranks,
                rng: rng(3),
            },
            donors: 5,
            write_every: 4,
            hold: 2,
            sent: 0,
            held: VecDeque::new(),
        };
        let mut next_gid = 100;
        let mut writes = Vec::new();
        for n in 1..=40u64 {
            let step = script.next();
            match step {
                Step::Read(i) => assert!(n % 4 != 0 && i < 10),
                Step::Insert(d) => {
                    assert!(n % 4 == 0 && d < 5);
                    script.observe(step, &Reply::Inserted(next_gid));
                    next_gid += 1;
                    writes.push(step);
                }
                Step::Remove(_) => {
                    assert_eq!(n % 4, 0);
                    writes.push(step);
                }
            }
            assert!(script.held.len() <= 2);
        }
        // Two inserts fill the set; from then on the oldest is removed and
        // a new graph inserted, in turn.
        assert!(matches!(writes[0], Step::Insert(_)));
        assert!(matches!(writes[1], Step::Insert(_)));
        assert_eq!(writes[2], Step::Remove(100));
        assert!(matches!(writes[3], Step::Insert(_)));
        assert_eq!(writes[4], Step::Remove(101));
    }
}
