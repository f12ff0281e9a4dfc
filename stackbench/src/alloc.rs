//! Counting global allocator: heap allocations and peak live bytes, so
//! `allocs_per_event` and `peak_heap_mb` come from the process itself.
//!
//! Counting must not slow what it counts. Process-wide `fetch_add`s made
//! the two-thread workloads 2.5x slower (one cache line bouncing between
//! cores), and even uncontended ones cost `window_shard` 25% (a `lock`
//! prefix on each of its 43 million allocations and frees per round). So
//! each thread counts on a cache line of its own with plain loads and
//! stores, and moves its byte balance to the shared total once it has
//! drifted by `FLUSH_STEP`. The peak is taken at those moments, so it can
//! miss at most `FLUSH_STEP` per live thread.
//! The counters publish no other data, hence relaxed atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SHARDS: usize = 64;
const FLUSH_STEP: isize = 4 << 10;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    /// Bytes allocated minus bytes freed since the last flush.
    drift: AtomicIsize,
}

static TABLE: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        drift: AtomicIsize::new(0),
    }
}; SHARDS];
static THREADS_SEEN: AtomicUsize = AtomicUsize::new(0);
/// Live bytes as of each shard's last flush.
static FLUSHED: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Live bytes at the last reset.
static BASE: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // No destructor, so reading it inside the allocator is safe at any
    // point of a thread's life and never allocates.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard. The first thread (main) keeps shard 0 to
/// itself; later threads take the other 63 in turn, so two threads share
/// one only if 63 threads started in between and the older still runs.
/// Sharing can lose a count, never memory safety.
fn shard() -> &'static Shard {
    let idx = MY_SHARD
        .try_with(|mine| {
            if mine.get() == usize::MAX {
                let nth = THREADS_SEEN.fetch_add(1, Relaxed);
                mine.set(if nth == 0 {
                    0
                } else {
                    1 + (nth - 1) % (SHARDS - 1)
                });
            }
            mine.get()
        })
        .unwrap_or(0);
    &TABLE[idx]
}

fn count(s: &Shard, allocs: u64, bytes: isize) {
    s.allocs.store(s.allocs.load(Relaxed) + allocs, Relaxed);
    let drift = s.drift.load(Relaxed) + bytes;
    if drift.abs() < FLUSH_STEP {
        s.drift.store(drift, Relaxed);
    } else {
        s.drift.store(0, Relaxed);
        let live = FLUSHED.fetch_add(drift, Relaxed) + drift;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn live_bytes() -> isize {
    FLUSHED.load(Relaxed) + TABLE.iter().map(|s| s.drift.load(Relaxed)).sum::<isize>()
}

pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(shard(), 1, layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(shard(), 1, layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this layout.
        unsafe { System.dealloc(ptr, layout) };
        count(shard(), 0, -(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this layout, and the
        // caller guarantees `new_size` is valid for it.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(shard(), 1, new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Counters since the last [`reset`].
#[derive(Clone, Copy, Debug)]
pub struct HeapCounters {
    pub allocs: u64,
    /// Most bytes live at once, above what was live at the reset: what
    /// the measured code added, whatever the benchmark itself holds.
    pub peak_bytes: usize,
}

/// Start a new measurement: zero the allocation count and restart the
/// peak from what is live right now. Call it while no other thread
/// allocates.
pub fn reset() {
    for s in &TABLE {
        s.allocs.store(0, Relaxed);
    }
    let live = live_bytes();
    BASE.store(live, Relaxed);
    PEAK.store(live, Relaxed);
}

pub fn counters() -> HeapCounters {
    HeapCounters {
        allocs: TABLE.iter().map(|s| s.allocs.load(Relaxed)).sum(),
        peak_bytes: usize::try_from(PEAK.load(Relaxed).max(live_bytes()) - BASE.load(Relaxed))
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Other tests allocate on parallel threads, so this is the only test
    /// that holds a block this large, and counts get lower bounds only.
    #[test]
    fn counters_reset_per_run_and_frees_balance_across_threads() {
        const BIG: usize = 256 << 20;
        reset();
        let before = counters().allocs;
        let block = std::hint::black_box(Vec::<u8>::with_capacity(BIG));
        for i in 0..1000 {
            std::hint::black_box(Box::new(i));
        }
        let during = counters();
        assert!(during.allocs >= before + 1001);
        assert!(during.peak_bytes >= BIG);
        std::thread::spawn(move || drop(block)).join().unwrap();
        assert!(
            live_bytes() < BIG as isize,
            "a free on another thread still counts"
        );
        assert!(
            counters().peak_bytes >= BIG,
            "the peak survives the free until the next reset"
        );
        reset();
        assert!(
            counters().peak_bytes < BIG,
            "the peak restarts from live bytes"
        );
    }
}
