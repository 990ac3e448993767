//! Shared parallelism primitives: a persistent worker [`Pool`], the only
//! way compute is parallelised in the pipeline crates.
//!
//! Worker threads are spawned once and parked on a condvar between jobs;
//! callers dispatch through two methods:
//!
//! - [`Pool::ordered_map`]/[`Pool::ordered_map_obs`]: run an independent
//!   function over every item of a slice and return results in item order
//!   (the one batch fan-out: TreePi's engine, gIndex batches, signatures,
//!   the scan baseline). Seats self-schedule off a shared atomic counter,
//!   so one slow item does not stall a statically assigned chunk.
//! - [`Pool::fork_join_obs`]: run one closure per worker rank with a forked
//!   [`obs::Shard`] each, joining results and merging shards in rank order
//!   (the parallel miner's and the intra-query stages' primitive — the
//!   closure does its own self-scheduling over whatever work units it
//!   partitions).
//!
//! Chunking and merge order depend only on the inputs, so results (and every
//! metric outside the `engine.*`/`pool.*` namespaces) are bit-identical
//! across worker counts. A 1-seat pool spawns no threads and runs every
//! method inline: the serial path is the parallel path with one worker.

use obs::{Counter, Span};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolve a `threads` argument: `0` means all available parallelism.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// State shared between a job's dispatcher and every thread that claims
/// one of its seats.
struct Job {
    /// The seat body. The `'static` lifetime is a lie told by
    /// [`Pool::run`]: the borrow is erased so the job can sit in the
    /// queue, and soundness comes from `run` blocking until every seat
    /// has finished before returning (see the SAFETY comment there).
    f: &'static (dyn Fn(usize) + Sync),
    /// Number of seats; each runs `f(seat)` exactly once.
    seats: usize,
    /// Atomic seat cursor: `fetch_add` hands out each seat exactly once.
    next_seat: AtomicUsize,
    state: Mutex<JobState>,
    /// Signalled when the last seat finishes.
    done: Condvar,
}

#[derive(Default)]
struct JobState {
    finished: usize,
    /// First panic payload raised by a seat; rethrown by the dispatcher.
    panic: Option<Box<dyn Any + Send>>,
}

impl Job {
    /// Claim one seat and run it; returns `false` once all seats are
    /// handed out. Panics in the seat body are caught and parked for the
    /// dispatcher, so pool workers survive a panicking task.
    fn claim_and_run(&self) -> bool {
        let seat = self.next_seat.fetch_add(1, Ordering::Relaxed);
        if seat >= self.seats {
            return false;
        }
        let result = catch_unwind(AssertUnwindSafe(|| (self.f)(seat)));
        let mut state = self.state.lock().expect("pool job state");
        if let Err(payload) = result {
            state.panic.get_or_insert(payload);
        }
        state.finished += 1;
        if state.finished == self.seats {
            self.done.notify_all();
        }
        true
    }

    fn exhausted(&self) -> bool {
        self.next_seat.load(Ordering::Relaxed) >= self.seats
    }
}

struct JobQueue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<JobQueue>,
    /// Parked workers wait here; signalled on every dispatch and shutdown.
    available: Condvar,
    // Lifetime counters drained by `Pool::flush_metrics`.
    tasks: AtomicU64,
    steal_wait_ns: AtomicU64,
    busy_ns: Vec<AtomicU64>,
    park_ns: Vec<AtomicU64>,
}

fn pool_worker(shared: Arc<PoolShared>, idx: usize) {
    loop {
        let job = {
            let mut q = shared.queue.lock().expect("pool queue");
            loop {
                // Drop jobs whose seats are all handed out; dispatchers
                // hold their own `Arc` until the stragglers finish.
                q.jobs.retain(|j| !j.exhausted());
                if let Some(j) = q.jobs.front() {
                    break Arc::clone(j);
                }
                if q.shutdown {
                    return;
                }
                let parked = Instant::now();
                q = shared.available.wait(q).expect("pool park");
                shared.park_ns[idx]
                    .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        };
        let busy = Instant::now();
        while job.claim_and_run() {}
        shared.busy_ns[idx].fetch_add(busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A persistent worker pool: `parallelism - 1` background threads spawned
/// once and parked on a condvar between jobs, with the dispatching thread
/// itself acting as the final worker.
///
/// A job is a closure run once per *seat*; seats are handed out through an
/// atomic cursor, and the pool's entry points ([`Pool::ordered_map_obs`],
/// [`Pool::fork_join_obs`]) assign work to seats by a discipline that
/// depends only on the input, so outputs are bit-identical across any
/// worker count.
///
/// **Re-entrancy:** a seat body may dispatch back into the same pool. The
/// dispatcher of every job claims that job's seats in a loop before
/// blocking, so a nested job always makes progress on the thread that
/// submitted it even when every worker is occupied — the dependency graph
/// between jobs is strictly nested, so this cannot deadlock.
///
/// **Panics:** a panicking seat is caught on the claiming thread, recorded,
/// and re-raised on the dispatcher once the job completes. Workers survive;
/// the pool stays usable.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    parallelism: usize,
}

impl Pool {
    /// Create a pool sized for `threads` workers (`0` = available
    /// parallelism). `threads == 1` spawns no background threads at all;
    /// every entry point then runs inline on the caller.
    pub fn new(threads: usize) -> Self {
        let parallelism = resolve_threads(threads).max(1);
        let background = parallelism - 1;
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            tasks: AtomicU64::new(0),
            steal_wait_ns: AtomicU64::new(0),
            busy_ns: (0..background).map(|_| AtomicU64::new(0)).collect(),
            park_ns: (0..background).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = (0..background)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("treepi-pool-{idx}"))
                    .spawn(move || pool_worker(shared, idx))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            parallelism,
        }
    }

    /// The worker count this pool was sized for (callers use it to pick
    /// chunk counts, exactly as they would a `threads` argument).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Run `f(seat)` once for every `seat in 0..seats`, on the caller plus
    /// any idle workers. Returns when all seats have finished; re-raises
    /// the first seat panic, if any.
    pub fn run<F>(&self, seats: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let seats = seats.max(1);
        self.shared.tasks.fetch_add(1, Ordering::Relaxed);
        if seats == 1 || self.handles.is_empty() {
            for seat in 0..seats {
                f(seat);
            }
            return;
        }
        self.run_dyn(seats, &f);
    }

    fn run_dyn(&self, seats: usize, f: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the borrow is erased to `'static` so the job can live in
        // the shared queue, but `run_dyn` does not return until
        // `finished == seats`, and no thread touches `f` after claiming a
        // seat past the cursor end — so every use of `f` happens while the
        // original borrow is still live on this stack frame.
        let f: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        let job = Arc::new(Job {
            f,
            seats,
            next_seat: AtomicUsize::new(0),
            state: Mutex::new(JobState::default()),
            done: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            q.jobs.push_back(Arc::clone(&job));
        }
        self.shared.available.notify_all();
        // Claim our own job's seats: the dispatcher never depends on a
        // worker being free, which is what makes nested dispatch safe.
        while job.claim_and_run() {}
        let mut state = job.state.lock().expect("pool job state");
        if state.finished < seats {
            // Remaining seats were stolen by workers; wait for them.
            let wait = Instant::now();
            while state.finished < seats {
                state = job.done.wait(state).expect("pool job wait");
            }
            self.shared
                .steal_wait_ns
                .fetch_add(wait.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            resume_unwind(payload);
        }
    }

    /// Apply `f` to every item, output in item order, seats self-scheduling
    /// off an atomic cursor. `f` must be independent per item — nothing
    /// orders cross-item side effects.
    pub fn ordered_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.ordered_map_obs(items, &obs::Registry::disabled(), |item, _| f(item))
    }

    /// [`Pool::ordered_map`] with per-seat metric shards: `f` receives the
    /// item and the seat's [`obs::Shard`]; shards are absorbed into
    /// `registry` as each seat retires. While `f` runs on item `i`, the
    /// shard's trace events carry query id `i` (its batch position) and an
    /// `engine.worker_busy` span times the call. The pool itself records
    /// `engine.workers`, per-seat `engine.items`, and an id-less
    /// `engine.worker_wall` span per seat — all under the `engine.`
    /// namespace because they describe execution shape, not work done (see
    /// `obs::MetricSet::deterministic_counters`).
    pub fn ordered_map_obs<T, R, F>(&self, items: &[T], registry: &obs::Registry, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &obs::Shard) -> R + Sync,
    {
        let map_one = |i: usize, shard: &obs::Shard| {
            shard.set_trace_query(Some(i as u64));
            let _busy = shard.span(Span::ENGINE_WORKER_BUSY);
            f(&items[i], shard)
        };
        let workers = self.parallelism.min(items.len().max(1));
        if workers <= 1 {
            let shard = registry.shard();
            let out = {
                let _wall = shard.span(Span::ENGINE_WORKER_WALL);
                let out = (0..items.len()).map(|i| map_one(i, &shard)).collect();
                shard.set_trace_query(None);
                out
            };
            shard.add(Counter::ENGINE_WORKERS, 1);
            shard.add(Counter::ENGINE_ITEMS, items.len() as u64);
            registry.absorb(shard);
            return out;
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run(workers, |_seat| {
            let shard = registry.shard();
            let mut served = 0u64;
            {
                let _wall = shard.span(Span::ENGINE_WORKER_WALL);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let r = map_one(i, &shard);
                    *slots[i].lock().expect("slot") = Some(r);
                    served += 1;
                }
                shard.set_trace_query(None);
            }
            shard.add(Counter::ENGINE_WORKERS, 1);
            shard.add(Counter::ENGINE_ITEMS, served);
            registry.absorb(shard);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot").expect("every item mapped"))
            .collect()
    }

    /// Run `f(rank, shard)` once per rank in `0..workers` and return the
    /// results in rank order. Each rank records into a [`obs::Shard::fork`]
    /// of `shard`; forks are merged back in rank order after the join, so
    /// counter totals are independent of scheduling. Seats beyond the pool's
    /// parallelism are legal (they queue); `workers <= 1` runs inline on
    /// `shard` itself.
    ///
    /// `f` receives only its rank: work distribution (an atomic chunk
    /// counter, a precomputed partition, …) is the caller's business.
    pub fn fork_join_obs<R, F>(&self, workers: usize, shard: &obs::Shard, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &obs::Shard) -> R + Sync,
    {
        if workers <= 1 {
            return vec![f(0, shard)];
        }
        // `obs::Shard` is `Send` but not `Sync`, so each rank's fork is
        // parked in a mutex for the claiming thread to take and return.
        let forks: Vec<Mutex<Option<obs::Shard>>> = (0..workers)
            .map(|_| Mutex::new(Some(shard.fork())))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        self.run(workers, |rank| {
            let worker = forks[rank]
                .lock()
                .expect("fork slot")
                .take()
                .expect("fork claimed once");
            let r = f(rank, &worker);
            *forks[rank].lock().expect("fork slot") = Some(worker);
            *slots[rank].lock().expect("result slot") = Some(r);
        });
        let mut out = Vec::with_capacity(workers);
        for (fork, slot) in forks.into_iter().zip(slots) {
            let worker = fork
                .into_inner()
                .expect("fork slot")
                .expect("fork returned");
            shard.merge(worker);
            out.push(
                slot.into_inner()
                    .expect("result slot")
                    .expect("every rank ran"),
            );
        }
        out
    }

    /// Drain the pool's lifetime execution-shape metrics into `shard` as
    /// `pool.*` entries (reset to zero afterwards, so batch-end flushes
    /// yield per-batch deltas): `pool.tasks` jobs dispatched,
    /// `pool.steal_or_queue_wait_ns` dispatcher time spent waiting on
    /// seats stolen by workers, and per-worker busy/park time (totals as
    /// counters, per-worker samples as `pool.worker_busy`/`pool.worker_park`
    /// histograms). Like `engine.*`, the `pool.*` namespace describes
    /// scheduling, not work done, and is exempt from the determinism
    /// contract ([`obs::MetricSet::deterministic_counters`]).
    pub fn flush_metrics(&self, shard: &obs::Shard) {
        shard.add(
            Counter::POOL_TASKS,
            self.shared.tasks.swap(0, Ordering::Relaxed),
        );
        shard.add(
            Counter::POOL_STEAL_OR_QUEUE_WAIT_NS,
            self.shared.steal_wait_ns.swap(0, Ordering::Relaxed),
        );
        for w in &self.shared.busy_ns {
            let ns = w.swap(0, Ordering::Relaxed);
            shard.add(Counter::POOL_WORKER_BUSY_NS, ns);
            shard.observe(Span::POOL_WORKER_BUSY, Duration::from_nanos(ns));
        }
        for w in &self.shared.park_ns {
            let ns = w.swap(0, Ordering::Relaxed);
            shard.add(Counter::POOL_WORKER_PARK_NS, ns);
            shard.observe(Span::POOL_WORKER_PARK, Duration::from_nanos(ns));
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("pool queue");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_resolves_to_available() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn pool_ordered_map_matches_plain_iterator_at_any_worker_count() {
        let items: Vec<usize> = (0..211).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for workers in [1usize, 2, 8] {
            let pool = Pool::new(workers);
            assert_eq!(pool.parallelism(), workers);
            // Reused across calls: the whole point of a persistent pool.
            for _ in 0..3 {
                assert_eq!(pool.ordered_map(&items, |&x| x * x + 1), expected);
            }
            let empty: Vec<u32> = Vec::new();
            assert!(pool.ordered_map(&empty, |&x| x).is_empty());
        }
    }

    #[test]
    fn pool_ordered_map_obs_accounts_for_every_item() {
        let items: Vec<u64> = (0..50).collect();
        for workers in [1usize, 3, 8] {
            let pool = Pool::new(workers);
            let registry = obs::Registry::new();
            let out = pool.ordered_map_obs(&items, &registry, |&x, shard| {
                shard.add(Counter::WALK_PROBES, x);
                x
            });
            assert_eq!(out, items);
            let snap = registry.snapshot();
            assert_eq!(snap.counter("engine.items"), 50);
            assert_eq!(snap.counter("walk.probes"), (0..50).sum::<u64>());
            assert!(snap.counter("engine.workers") >= 1);
            assert!(snap.counter("engine.workers") <= workers as u64);
        }
    }

    #[test]
    fn pool_fork_join_returns_in_rank_order_and_merges_shards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for workers in [1usize, 2, 5] {
            let pool = Pool::new(2);
            let shard = obs::Shard::detached(true);
            let next = AtomicUsize::new(0);
            let ranks = pool.fork_join_obs(workers, &shard, |rank, w| {
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= 10 {
                        break;
                    }
                    w.add(Counter::WALK_PROBES, i as u64);
                }
                rank
            });
            assert_eq!(ranks, (0..workers).collect::<Vec<_>>());
            let set = shard.into_set();
            assert_eq!(set.counter("walk.probes"), (0..10).sum::<usize>() as u64);
        }
    }

    #[test]
    fn pool_panicking_task_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.ordered_map(&items, |&x| {
                if x == 37 {
                    panic!("seat panic");
                }
                x
            })
        }));
        let payload = attempt.expect_err("panic must reach the dispatcher");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "seat panic");
        // The pool is still fully usable afterwards.
        assert_eq!(
            pool.ordered_map(&items, |&x| x + 1),
            (1..101).collect::<Vec<u32>>()
        );
    }

    #[test]
    fn pool_reentrant_dispatch_completes() {
        use std::sync::atomic::{AtomicU64, Ordering};
        // More seats than workers, and every seat dispatches a nested job
        // back into the same pool: exercises caller-participation (the
        // dispatcher finishing its own job with all workers busy).
        for workers in [1usize, 2, 4] {
            let pool = Pool::new(workers);
            let total = AtomicU64::new(0);
            let outer: Vec<u64> = (0..workers as u64 * 3).collect();
            let out = pool.ordered_map(&outer, |&x| {
                let inner: Vec<u64> = (0..5).map(|k| x * 10 + k).collect();
                let inner_out = pool.ordered_map(&inner, |&y| {
                    total.fetch_add(1, Ordering::Relaxed);
                    y * 2
                });
                inner_out.iter().sum::<u64>()
            });
            let expect: Vec<u64> = outer
                .iter()
                .map(|&x| (0..5).map(|k| (x * 10 + k) * 2).sum())
                .collect();
            assert_eq!(out, expect);
            assert_eq!(total.load(Ordering::Relaxed), outer.len() as u64 * 5);
        }
    }

    #[test]
    fn pool_flush_metrics_drains_to_deltas() {
        let pool = Pool::new(3);
        let items: Vec<u32> = (0..64).collect();
        let _ = pool.ordered_map(&items, |&x| x);
        let shard = obs::Shard::detached(true);
        pool.flush_metrics(&shard);
        let set = shard.into_set();
        assert!(set.counter("pool.tasks") >= 1);
        // A second flush with no work in between reports zero tasks.
        let shard = obs::Shard::detached(true);
        pool.flush_metrics(&shard);
        assert_eq!(shard.into_set().counter("pool.tasks"), 0);
    }

    #[test]
    fn pool_zero_threads_resolves_to_available() {
        let pool = Pool::new(0);
        assert!(pool.parallelism() >= 1);
        assert_eq!(pool.ordered_map(&[1u32, 2, 3], |&x| x), vec![1, 2, 3]);
    }
}
