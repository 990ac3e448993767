//! Memory accounting: a tracking allocator wrapping the global allocator
//! with per-thread allocation, byte and free counters.
//!
//! Install it once in a binary crate:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obs::alloc::TrackingAlloc<std::alloc::System> =
//!     obs::alloc::TrackingAlloc::new(std::alloc::System);
//! ```
//!
//! Counting is exact request-size accounting (what the program asked for,
//! not what the allocator rounded to), so values are comparable across
//! allocators and platforms. They are read via [`live_bytes`] /
//! [`peak_bytes`] / [`total_allocated_bytes`] / [`allocation_count`] and
//! snapshotted into `mem.alloc.*` gauges with [`record_gauges`].
//!
//! # Design: every thread writes only memory it owns
//!
//! A program that allocates every few dozen nanoseconds on several threads
//! cannot afford process-wide atomic read-modify-writes per allocation: the
//! one cache line they share bounces between cores and the accounting costs
//! more than the allocation (measured here: ≈2× on a serial query stream,
//! and a 2-worker build slower than a 1-worker one). So the counters live in
//! a fixed table of 128 cache-line-aligned cells
//! `{allocs, alloc_bytes, free_bytes}`:
//!
//! * a thread claims a cell on its first allocation and keeps the index in a
//!   `const`-initialised, destructor-free `thread_local!` — the allocator
//!   itself must neither allocate nor register a TLS destructor;
//! * an owned cell has a single writer, so it is updated with a plain
//!   `load` + `store` (no `lock` prefix, no shared line);
//! * cells are never handed back (that would need the destructor), so the
//!   threads beyond the table share one overflow cell updated with
//!   `fetch_add` — slower, still exact.
//!
//! # What is exact and what is sampled
//!
//! [`allocation_count`], [`total_allocated_bytes`] and [`live_bytes`] are
//! sums over the cells and **exact** whenever no allocation is in flight. A
//! block freed on another thread than it was allocated on is normal and
//! needs no care: live = Σ `alloc_bytes` − Σ `free_bytes` (saturating, for a
//! reader racing the writers).
//!
//! [`peak_bytes`] is **sampled**: a cell re-reads the global live level and
//! raises the one shared high-water mark each time its own cumulative
//! `alloc_bytes` crosses a multiple of 64 KiB. Any single allocation of
//! 64 KiB or more crosses one and is therefore seen exactly; between samples
//! a thread has allocated less than 64 KiB, so the reported peak
//! under-estimates the true one by less than 64 KiB × (threads allocating
//! at that moment), and with a single allocating thread is never above it.
//! (With several, a sample sums cells that are being written, each read at
//! a slightly different instant — a statistic, not a snapshot.)

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Owned cells in the table; thread number `CELLS + 1` onwards shares the
/// overflow cell `SLOTS[CELLS]`.
const CELLS: usize = 128;

/// A cell samples the peak each time it has allocated this many more bytes.
const PEAK_SAMPLE_BYTES: u64 = 64 * 1024;

/// One thread's counters, alone on its cache lines (128: adjacent-line
/// prefetch pulls pairs of 64-byte lines).
#[repr(align(128))]
struct Slot {
    allocs: AtomicU64,
    alloc_bytes: AtomicU64,
    free_bytes: AtomicU64,
}

static SLOTS: [Slot; CELLS + 1] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        alloc_bytes: AtomicU64::new(0),
        free_bytes: AtomicU64::new(0),
    }
}; CELLS + 1];
static CLAIMED: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

const UNCLAIMED: usize = usize::MAX;

thread_local! {
    /// Index of this thread's slot. `const`-initialised and without a
    /// destructor, so reading it never allocates and works for the whole
    /// life of the thread, TLS teardown included.
    static MY_SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
}

/// This thread's slot and whether the thread is its only writer.
#[inline]
fn my_slot() -> (&'static Slot, bool) {
    let i = MY_SLOT.with(|c| {
        let mut i = c.get();
        if i == UNCLAIMED {
            i = CLAIMED.fetch_add(1, Relaxed).min(CELLS);
            c.set(i);
        }
        i
    });
    (&SLOTS[i], i < CELLS)
}

/// Add to a counter: plain load + store for its single writer, `fetch_add`
/// on the shared overflow slot. Returns the previous value.
#[inline]
fn bump(counter: &AtomicU64, by: u64, owned: bool) -> u64 {
    if owned {
        let before = counter.load(Relaxed);
        counter.store(before.wrapping_add(by), Relaxed);
        before
    } else {
        counter.fetch_add(by, Relaxed)
    }
}

#[inline]
fn on_alloc(bytes: u64) {
    let (slot, owned) = my_slot();
    bump(&slot.allocs, 1, owned);
    let before = bump(&slot.alloc_bytes, bytes, owned);
    if before / PEAK_SAMPLE_BYTES != before.wrapping_add(bytes) / PEAK_SAMPLE_BYTES {
        PEAK.fetch_max(live_bytes(), Relaxed);
    }
}

#[inline]
fn on_dealloc(bytes: u64) {
    let (slot, owned) = my_slot();
    bump(&slot.free_bytes, bytes, owned);
}

fn sum(field: fn(&Slot) -> &AtomicU64) -> u64 {
    SLOTS
        .iter()
        .fold(0u64, |acc, s| acc.wrapping_add(field(s).load(Relaxed)))
}

/// A [`GlobalAlloc`] wrapper that counts live, peak, and cumulative bytes.
/// The counters are module-level statics, so readers need no handle to the
/// installed instance.
#[derive(Debug, Default)]
pub struct TrackingAlloc<A>(A);

impl<A> TrackingAlloc<A> {
    /// Wrap `inner` (const, so it can initialize a `#[global_allocator]`
    /// static).
    pub const fn new(inner: A) -> Self {
        Self(inner)
    }
}

// SAFETY: all methods delegate to the inner allocator unchanged; the
// wrapper only updates counters and never inspects or alters the returned
// memory, so the inner allocator's contract carries over.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = self.0.alloc(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = self.0.alloc_zeroed(layout);
        if !ptr.is_null() {
            on_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.0.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = self.0.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            // Accounted as a fresh allocation plus a free of the old block:
            // the totals see the churn, the live level sees the net change.
            on_alloc(new_size as u64);
            on_dealloc(layout.size() as u64);
        }
        new_ptr
    }
}

/// Bytes currently allocated and not yet freed.
pub fn live_bytes() -> u64 {
    // Frees first: a reader racing the writers then errs towards blocks
    // whose free it has not seen yet, never towards a negative level.
    let freed = sum(|s| &s.free_bytes);
    total_allocated_bytes().saturating_sub(freed)
}

/// High-water mark of [`live_bytes`] since process start (or the last
/// [`reset_peak`]), sampled: see the module docs for the bound.
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Cumulative bytes ever allocated (never decreases).
pub fn total_allocated_bytes() -> u64 {
    sum(|s| &s.alloc_bytes)
}

/// Number of allocation calls served (never decreases).
pub fn allocation_count() -> u64 {
    sum(|s| &s.allocs)
}

/// Whether a [`TrackingAlloc`] has observed any allocation — i.e. one is
/// installed as the global allocator.
pub fn installed() -> bool {
    allocation_count() > 0
}

/// Lower the peak to the current live level, so a subsequent phase's peak
/// is measured from here.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Relaxed);
}

/// Record the allocator counters as `mem.alloc.*` gauges
/// ([`crate::Gauge::MEM_ALLOC_LIVE_BYTES`] and friends) into `registry`.
/// A no-op when no tracking allocator is installed (the gauges would all
/// read zero and mean nothing).
pub fn record_gauges(registry: &crate::Registry) {
    if !installed() {
        return;
    }
    registry.set_gauge(crate::Gauge::MEM_ALLOC_LIVE_BYTES, live_bytes());
    registry.set_gauge(crate::Gauge::MEM_ALLOC_PEAK_BYTES, peak_bytes());
    registry.set_gauge(crate::Gauge::MEM_ALLOC_TOTAL_BYTES, total_allocated_bytes());
    registry.set_gauge(crate::Gauge::MEM_ALLOC_ALLOCATIONS, allocation_count());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-wide statics; serialize the tests that
    /// mutate them so their deltas are exact.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Exercise the GlobalAlloc impl directly (a test binary cannot install
    /// a second global allocator, but the counters are instance-free).
    #[test]
    fn counting_tracks_alloc_realloc_dealloc() {
        let _guard = TEST_LOCK.lock().unwrap();
        let a = TrackingAlloc::new(std::alloc::System);
        let layout = Layout::from_size_align(1024, 8).unwrap();
        let live0 = live_bytes();
        let total0 = total_allocated_bytes();
        let count0 = allocation_count();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(live_bytes() - live0, 1024);
            let p = a.realloc(p, layout, 4096);
            assert!(!p.is_null());
            assert_eq!(live_bytes() - live0, 4096);
            a.dealloc(p, Layout::from_size_align(4096, 8).unwrap());
        }
        assert_eq!(live_bytes(), live0);
        assert_eq!(total_allocated_bytes() - total0, 1024 + 4096);
        assert_eq!(allocation_count() - count0, 2);
        assert!(installed());
    }

    #[test]
    fn reset_peak_lowers_to_live() {
        let _guard = TEST_LOCK.lock().unwrap();
        let a = TrackingAlloc::new(std::alloc::System);
        // One sample interval, so the sampled peak must see it.
        let layout = Layout::from_size_align(PEAK_SAMPLE_BYTES as usize, 8).unwrap();
        unsafe {
            let p = a.alloc_zeroed(layout);
            assert!(!p.is_null());
            assert!(peak_bytes() >= live_bytes());
            a.dealloc(p, layout);
        }
        assert!(peak_bytes() > live_bytes());
        reset_peak();
        assert_eq!(peak_bytes(), live_bytes());
    }

    /// Allocate and free `pairs` blocks through the `GlobalAlloc` impl on
    /// each of `threads` threads; every second block is freed by the next
    /// thread instead of its allocator. Returns the bytes requested.
    fn churn_across_threads(threads: usize, pairs: usize) -> u64 {
        use std::sync::mpsc;
        static A: TrackingAlloc<std::alloc::System> = TrackingAlloc::new(std::alloc::System);
        let layout_of = |i: usize| Layout::from_size_align(16 + (i % 7) * 8, 8).unwrap();
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..threads).map(|_| mpsc::channel::<usize>()).unzip();
        let bytes: u64 = (0..pairs).map(|i| layout_of(i).size() as u64).sum();
        std::thread::scope(|s| {
            for (t, rx) in rxs.into_iter().enumerate() {
                let tx = txs[(t + 1) % threads].clone();
                s.spawn(move || {
                    for i in 0..pairs {
                        // SAFETY: a fresh block of a non-zero-sized layout,
                        // freed exactly once with the same layout: here, or
                        // by the thread that receives its address.
                        unsafe {
                            let p = A.alloc(layout_of(i));
                            assert!(!p.is_null());
                            if i % 2 == 0 {
                                A.dealloc(p, layout_of(i));
                            } else {
                                tx.send(p as usize).unwrap();
                            }
                        }
                    }
                    drop(tx);
                    let mut i = 1;
                    for addr in rx {
                        // SAFETY: see above; the sender no longer uses it.
                        unsafe { A.dealloc(addr as *mut u8, layout_of(i)) };
                        i += 2;
                    }
                });
            }
            drop(txs);
        });
        bytes * threads as u64
    }

    /// Eight threads on owned cells, then more threads than the table has
    /// cells. One test, so the first phase is known to run before the
    /// second uses the table up.
    #[test]
    fn exact_across_threads_on_owned_cells_and_on_overflow() {
        let _guard = TEST_LOCK.lock().unwrap();
        for (threads, pairs) in [(8, 10_000), (CELLS + 8, 200)] {
            let (live0, total0, count0) =
                (live_bytes(), total_allocated_bytes(), allocation_count());
            let bytes = churn_across_threads(threads, pairs);
            assert_eq!(allocation_count() - count0, (threads * pairs) as u64);
            assert_eq!(total_allocated_bytes() - total0, bytes);
            assert_eq!(live_bytes(), live0);
            let overflowed = CLAIMED.load(Relaxed) > CELLS;
            assert_eq!(overflowed, threads > CELLS, "phase ran on the wrong path");
        }
        assert!(SLOTS[CELLS].allocs.load(Relaxed) > 0);
    }

    /// The sampled peak against an exactly tracked reference: never above
    /// it, within one sample interval below it (one allocating thread), and
    /// exact for a block of at least the interval.
    #[test]
    fn sampled_peak_is_within_its_bound() {
        let _guard = TEST_LOCK.lock().unwrap();
        let a = TrackingAlloc::new(std::alloc::System);
        reset_peak();
        let base = live_bytes();
        let (mut live, mut reference) = (base, base);
        let mut held = Vec::new();
        // Ramp up in 1000-byte steps, release half, ramp again.
        for round in 0..3 {
            for _ in 0..150 {
                let layout = Layout::from_size_align(1000, 8).unwrap();
                // SAFETY: non-zero size; freed below with the same layout.
                held.push((unsafe { a.alloc(layout) }, layout));
                live += 1000;
                reference = reference.max(live);
            }
            for (p, layout) in held.drain(..held.len() / (round + 2)) {
                // SAFETY: allocated above with this layout, freed once.
                unsafe { a.dealloc(p, layout) };
                live -= layout.size() as u64;
            }
        }
        assert!(peak_bytes() <= reference);
        assert!(reference - peak_bytes() < PEAK_SAMPLE_BYTES);
        let big = Layout::from_size_align(PEAK_SAMPLE_BYTES as usize, 8).unwrap();
        // SAFETY: as above.
        held.push((unsafe { a.alloc(big) }, big));
        assert_eq!(peak_bytes(), live + PEAK_SAMPLE_BYTES);
        for (p, layout) in held {
            // SAFETY: as above.
            unsafe { a.dealloc(p, layout) };
        }
        assert_eq!(live_bytes(), base);
    }
}
