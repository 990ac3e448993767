//! Shared parallelism primitives: a persistent worker [`Pool`], the only
//! way compute is parallelised in the pipeline crates.
//!
//! Worker threads are spawned once and parked on a condvar between jobs;
//! callers dispatch through two methods:
//!
//! - [`Pool::ordered_map`]: run an independent function over every item
//!   of a slice and return results in item order (the one batch fan-out:
//!   TreePi's engine, gIndex batches, signatures, the scan baseline, and
//!   the split of a large candidate set by verification and by
//!   center-distance pruning). Seats self-schedule off a shared atomic
//!   counter, so one slow item does not stall a statically assigned chunk.
//! - [`Pool::run`]: run one closure per seat (the miner's passes, which do
//!   their own self-scheduling over chunks of a level).
//!
//! The pool only schedules and knows nothing of metrics: a metered batch
//! returns each item's record from its seat, and the dispatching thread
//! records them into its own shard once the map returns (the engine
//! records one `QueryStats` per query). Chunking and result order depend
//! only on the inputs, so results and every deterministic metric are
//! bit-identical across worker counts. A 1-seat pool spawns no
//! threads and runs every method inline: the serial path is the parallel
//! path with one worker.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

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
}

fn pool_worker(shared: Arc<PoolShared>) {
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
                q = shared.available.wait(q).expect("pool park");
            }
        };
        while job.claim_and_run() {}
    }
}

/// A persistent worker pool: `parallelism - 1` background threads spawned
/// once and parked on a condvar between jobs, with the dispatching thread
/// itself acting as the final worker.
///
/// A job is a closure run once per *seat*; seats are handed out through an
/// atomic cursor, and [`Pool::ordered_map`] assigns items to seats by
/// a discipline that depends only on the input (results land in item
/// order), so outputs are bit-identical across any worker count.
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
        });
        let handles = (0..background)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("treepi-pool-{idx}"))
                    .spawn(move || pool_worker(shared))
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
        // Remaining seats were taken by workers; wait for them.
        while state.finished < seats {
            state = job.done.wait(state).expect("pool job wait");
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
        let workers = self.parallelism.min(items.len().max(1));
        if workers <= 1 {
            return items.iter().map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run(workers, |_seat| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let r = f(&items[i]);
            *slots[i].lock().expect("slot") = Some(r);
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("slot").expect("every item mapped"))
            .collect()
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
    fn pool_zero_threads_resolves_to_available() {
        let pool = Pool::new(0);
        assert!(pool.parallelism() >= 1);
        assert_eq!(pool.ordered_map(&[1u32, 2, 3], |&x| x), vec![1, 2, 3]);
    }
}
