//! # cypher-bench
//!
//! Criterion benchmark harness: one bench target per experiment
//! (ARCHITECTURE.md, "Benchmarks") plus general scaling sweeps. The
//! binaries print the series the paper's narrative implies — who wins and
//! by roughly what factor; the README's results table records the
//! measured numbers.

#![warn(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared helper: format a mean duration in microseconds.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // Racy max is fine: the peak is a diagnostic watermark, and the CAS
    // loop converges under contention.
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while live > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

fn on_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// An allocation-counting wrapper around the system allocator. Bench
/// binaries install it with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cypher_bench::CountingAlloc = cypher_bench::CountingAlloc;
/// ```
///
/// and then assert per-query allocation budgets via
/// [`allocations_during`] — the regression tripwire for "this hot loop
/// quietly started cloning per row" (experiments E19/E20 pin the scan and
/// seek paths this way) — and **peak live bytes** via [`peak_during`],
/// the tripwire for "this breaker quietly went back to materializing its
/// whole input" (experiment E22 pins partial aggregation this way).
pub struct CountingAlloc;

// SAFETY: defers to `System` for every operation; the counters are
// side-effect-free atomic arithmetic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        on_dealloc(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

/// Heap allocations (including reallocations) counted so far. Only
/// meaningful when [`CountingAlloc`] is installed as the global
/// allocator; otherwise stays 0.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed (all threads).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Runs `f` and returns its result together with the number of heap
/// allocations it performed (on this and every other thread — runs where
/// the workload spawns workers count the workers too).
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocation_count();
    let out = f();
    (out, allocation_count() - before)
}

/// Runs `f` and returns its result together with the **peak growth of
/// live heap bytes** above the starting level during the call — the
/// "how much did this query materialize at its worst moment" number.
/// Like the counters, it observes every thread.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let baseline = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak = PEAK_BYTES.load(Ordering::Relaxed);
    (out, peak.saturating_sub(baseline))
}

/// Median-of-five wall-clock time of one call to `f`, in microseconds —
/// the cheap summary measurement bench binaries mirror into their
/// [`BenchReport`] sidecar (criterion keeps its own statistics for the
/// interactive output; the sidecar only needs a stable headline number).
pub fn measure_us(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

/// Machine-readable sidecar for a bench binary's headline numbers.
///
/// Every experiment prints its summary to stdout for humans; a
/// [`BenchReport`] mirrors those numbers as a flat `metric → value`
/// JSON object written to `<dir>/BENCH_<name>.json` when the
/// `CYPHER_BENCH_JSON` environment variable names a directory (created
/// if missing). Unset, everything is a no-op — local `cargo bench`
/// runs stay file-free, CI uploads the sidecars as artifacts so runs
/// can be compared without scraping stdout.
pub struct BenchReport {
    name: String,
    metrics: Vec<(String, f64)>,
}

impl BenchReport {
    /// A report for the experiment `name` (`BENCH_<name>.json`).
    pub fn new(name: &str) -> BenchReport {
        BenchReport {
            name: name.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Records one metric. Call with the same numbers the bench prints.
    pub fn metric(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.push((key.to_string(), value));
        self
    }

    /// Writes `BENCH_<name>.json` into `$CYPHER_BENCH_JSON` (no-op when
    /// the variable is unset or empty). Non-finite values serialize as
    /// `null` — JSON has no NaN — and I/O failures panic: a CI job that
    /// asked for sidecars must not silently produce none.
    pub fn emit(&self) {
        let Some(dir) = std::env::var_os("CYPHER_BENCH_JSON") else {
            return;
        };
        if dir.is_empty() {
            return;
        }
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create CYPHER_BENCH_JSON directory");
        let mut body = String::from("{\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let key = k.replace('\\', "\\\\").replace('"', "\\\"");
            if v.is_finite() {
                body.push_str(&format!("  \"{key}\": {v}"));
            } else {
                body.push_str(&format!("  \"{key}\": null"));
            }
            body.push_str(if i + 1 == self.metrics.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        body.push_str("}\n");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, body).expect("write bench JSON sidecar");
        println!("bench json: wrote {}", path.display());
    }
}
