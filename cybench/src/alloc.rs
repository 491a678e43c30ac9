//! Allocation counting for `engine.allocs_per_op`.
//!
//! `cypher_bench::CountingAlloc` does this job for the e-benches, but it
//! bumps three shared atomics on every allocation of every thread. That
//! is harmless in a single-threaded micro-bench and not here: installed
//! in this binary it slowed the parallel label aggregate of
//! `traverse_agg` from 20 ms to 87 ms and `point_read` from 150 000 to
//! 78 000 ops/s, because the threads fought over the counters' cache
//! line — in the *untraced* run, which must not pay for tracing. This allocator counts only while a traced
//! replay asks it to; otherwise an allocation costs one relaxed load of
//! a flag nobody is writing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

pub struct GatedCountingAlloc;

impl GatedCountingAlloc {
    fn note() {
        // Relaxed: a statistic; it publishes no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every operation is forwarded unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is side-effect-free
// atomic arithmetic that never allocates.
unsafe impl GlobalAlloc for GatedCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }
}

/// Runs `f` and returns its result with the heap allocations (and
/// reallocations) made meanwhile, on this and every other thread.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}
