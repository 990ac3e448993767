//! Load generator: open- or closed-loop request streams with a Zipf
//! skew knob, reporting client-observed p50/p95/p99 latency.
//!
//! Each connection is one thread in a closed loop (next request only
//! after the previous response). With [`LoadgenConfig::rate`] set, the
//! loop is *open*: request `k` of a connection is released at
//! `start + k / per_conn_rate` regardless of response progress, so an
//! overloaded server faces sustained offered load and must shed —
//! exactly the backpressure path the server promises to take instead of
//! buffering unboundedly.
//!
//! Latencies are aggregated into an [`obs::SpanStat`] histogram owned by
//! the report itself (so percentiles work even when the `obs` crate is
//! compiled `off`) and mirrored into the registry as the
//! `loadgen.request` span for `--metrics` export.

use crate::client::Client;
use crate::protocol::{RequestBody, ResponseBody};
use graph_core::Graph;
use obs::{Counter, Span};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent connections (one thread each).
    pub connections: usize,
    /// Total requests across all connections.
    pub requests: u64,
    /// Offered load in requests/second across all connections
    /// (open loop). `None` = closed loop (send upon response).
    pub rate: Option<f64>,
    /// Zipf skew exponent over the query set: 0 = uniform, larger =
    /// more repetition of the first queries (cache-friendly).
    pub zipf: f64,
    /// RNG seed for query selection.
    pub seed: u64,
    /// Send a shutdown request after the run completes.
    pub shutdown: bool,
    /// How long to retry the initial connects.
    pub connect_timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            connections: 4,
            requests: 1000,
            rate: None,
            zipf: 0.0,
            seed: 42,
            shutdown: false,
            connect_timeout: Duration::from_secs(5),
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// Responses with matches (served or cache-hit).
    pub ok: u64,
    /// Busy responses (shed by the server under overload).
    pub busy: u64,
    /// Transport or protocol errors.
    pub errors: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Client-observed round-trip latency histogram.
    pub latency: obs::SpanStat,
}

impl LoadgenReport {
    /// Completed requests (ok + busy) per second of wall time.
    pub fn throughput(&self) -> f64 {
        let done = (self.ok + self.busy) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            done / secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for LoadgenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "sent={} ok={} busy={} errors={} elapsed={:.3}s throughput={:.1}/s",
            self.sent,
            self.ok,
            self.busy,
            self.errors,
            self.elapsed.as_secs_f64(),
            self.throughput()
        )?;
        write!(
            f,
            "latency p50={}us p95={}us p99={}us max={}us",
            self.latency.quantile_ns(0.50) / 1_000,
            self.latency.quantile_ns(0.95) / 1_000,
            self.latency.quantile_ns(0.99) / 1_000,
            self.latency.max_ns / 1_000
        )
    }
}

/// Zipf(s) sampler over `0..n` via the inverse CDF (small n: the query
/// set), with `s = 0` degenerating to uniform.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf(s) draws over `0..n`, exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf needs a non-empty domain");
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw an index in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Drive `addr` with `queries`, recording client-side metrics into
/// `registry` (`loadgen.request` span, `loadgen.ok/busy/errors`).
///
/// Returns an error only when no connection could be established; I/O
/// errors mid-run are counted in [`LoadgenReport::errors`].
pub fn run(
    addr: &str,
    queries: &[Graph],
    cfg: &LoadgenConfig,
    registry: &obs::Registry,
) -> io::Result<LoadgenReport> {
    assert!(!queries.is_empty(), "loadgen needs at least one query");
    let conns = cfg.connections.max(1);
    let zipf = Zipf::new(queries.len(), cfg.zipf);
    let merged: Mutex<LoadgenReport> = Mutex::new(LoadgenReport::default());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..conns {
            let my_requests =
                cfg.requests / conns as u64 + u64::from((c as u64) < cfg.requests % conns as u64);
            let per_conn_interval = cfg
                .rate
                .map(|r| Duration::from_secs_f64(conns as f64 / r.max(1e-9)));
            let (zipf, merged) = (&zipf, &merged);
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(
                    cfg.seed ^ (c as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                let mut local = LoadgenReport::default();
                let shard = registry.shard();
                let mut client = match Client::connect_retry(addr, cfg.connect_timeout) {
                    Ok(cl) => cl,
                    Err(_) => {
                        local.errors = my_requests;
                        shard.add(Counter::LOADGEN_ERRORS, my_requests);
                        registry.absorb(shard);
                        fold_into(merged, &local);
                        return;
                    }
                };
                let start = Instant::now();
                for k in 0..my_requests {
                    if let Some(interval) = per_conn_interval {
                        // Open loop: release on schedule, late is late.
                        let due = start + interval.mul_f64(k as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                    }
                    let q = &queries[zipf.sample(&mut rng)];
                    let t = Instant::now();
                    local.sent += 1;
                    match client.request(RequestBody::Query(q.clone())) {
                        Ok(resp) => {
                            let dt = t.elapsed();
                            local.latency.observe_ns(dt.as_nanos() as u64);
                            shard.observe(Span::LOADGEN_REQUEST, dt);
                            match resp.body {
                                ResponseBody::Matches(_) => {
                                    local.ok += 1;
                                    shard.add(Counter::LOADGEN_OK, 1);
                                }
                                ResponseBody::Busy => {
                                    local.busy += 1;
                                    shard.add(Counter::LOADGEN_BUSY, 1);
                                }
                                _ => {
                                    local.errors += 1;
                                    shard.add(Counter::LOADGEN_ERRORS, 1);
                                }
                            }
                        }
                        Err(_) => {
                            local.errors += 1;
                            shard.add(Counter::LOADGEN_ERRORS, 1);
                            break; // connection is gone
                        }
                    }
                }
                registry.absorb(shard);
                fold_into(merged, &local);
            });
        }
    });
    let mut report = merged.into_inner().expect("loadgen merge");
    report.elapsed = t0.elapsed();
    if cfg.shutdown {
        let mut client = Client::connect_retry(addr, cfg.connect_timeout)?;
        let _ = client.shutdown();
    }
    Ok(report)
}

/// Fold one connection's totals into the shared report under its lock.
fn fold_into(merged: &Mutex<LoadgenReport>, local: &LoadgenReport) {
    let mut m = merged.lock().expect("loadgen merge");
    m.sent += local.sent;
    m.ok += local.ok;
    m.busy += local.busy;
    m.errors += local.errors;
    m.latency.merge(&local.latency);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_skews_toward_low_indices() {
        let z = Zipf::new(10, 1.5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[4], "{counts:?}");
        assert!(counts[0] > counts[9] * 4, "{counts:?}");
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn report_percentiles_come_from_the_histogram() {
        let mut r = LoadgenReport::default();
        for us in [100u64, 200, 300, 400, 50_000] {
            r.latency.observe_ns(us * 1_000);
        }
        r.ok = 5;
        r.elapsed = Duration::from_secs(1);
        assert!(r.latency.quantile_ns(0.5) >= 100_000);
        assert!(r.latency.quantile_ns(0.99) >= 50_000_000 / 2);
        assert!((r.throughput() - 5.0).abs() < 1e-9);
        let text = r.to_string();
        assert!(text.contains("p95="), "{text}");
    }
}
