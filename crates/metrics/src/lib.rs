//! Lock-free metric primitives and a Prometheus-style text renderer.
//!
//! Three instrument kinds cover everything the engine reports:
//!
//! * [`Counter`] — a monotonically increasing `u64` (requests served,
//!   rows returned, poison events).
//! * [`Gauge`] — an instantaneous `i64` level (open connections, queue
//!   depth, pinned snapshots).
//! * [`Histogram`] — a log₂-bucketed distribution of `u64` samples
//!   (latencies in microseconds, commit-group sizes) answering
//!   p50/p90/p99/max without storing samples.
//!
//! Every instrument is a handful of `AtomicU64`s updated with relaxed
//! ordering: recording never takes a lock, never allocates, and scales
//! with writer concurrency. Snapshots are taken field-by-field while
//! writers proceed; each field is individually monotonic, and a
//! histogram's `count` is *derived from* its bucket reads (not stored
//! separately), so `count == Σ buckets` holds in every snapshot by
//! construction.
//!
//! [`fmt_counter`], [`fmt_gauge`] and [`fmt_histogram`] append the
//! conventional `# TYPE`-annotated exposition lines to a string, so any
//! layer can contribute its instruments to one text page.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge starting at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket `i` of a histogram holds samples whose bit length is `i`:
/// bucket 0 is exactly the value `0`, bucket `i ≥ 1` covers
/// `[2^(i-1), 2^i)`. 65 buckets cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A lock-free log₂-bucketed distribution of `u64` samples.
///
/// Recording touches three atomics (bucket, sum, max) with relaxed
/// ordering. Quantiles are estimated from bucket boundaries — exact to
/// within a factor of two, which is the resolution that matters for
/// latency monitoring — and `max` is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array from a const item.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index a value lands in: its bit length.
    fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The largest value bucket `i` can hold (inclusive).
    fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy. Writers may race the copy; every field is
    /// individually monotonic and `count == Σ buckets` always holds
    /// (the count is computed from the very bucket reads it summarizes).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
            count += buckets[i];
        }
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A consistent copy of a [`Histogram`]'s state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; see [`HISTOGRAM_BUCKETS`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples — always the sum of `buckets`.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (`0.0 ..= 1.0`), estimated as the upper
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q · count)`. Zero when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top occupied bucket is bounded by the exact max.
                return Histogram::upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// Appends a `# TYPE`-annotated counter exposition line.
pub fn fmt_counter(out: &mut String, name: &str, help: &str, v: u64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {v}");
}

/// Appends a `# TYPE`-annotated gauge exposition line.
pub fn fmt_gauge(out: &mut String, name: &str, help: &str, v: i64) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {v}");
}

/// Appends histogram exposition lines: cumulative `_bucket{le="…"}`
/// series for each occupied bucket boundary, then `_sum` and `_count`.
pub fn fmt_histogram(out: &mut String, name: &str, help: &str, s: &HistogramSnapshot) {
    use std::fmt::Write;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (i, &c) in s.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cum}",
            Histogram::upper_bound(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", s.count);
    let _ = writeln!(out, "{name}_sum {}", s.sum);
    let _ = writeln!(out, "{name}_count {}", s.count);
}

/// Something [`instruments!`] can put on a text page: it appends its own
/// exposition lines under the metric `name` and `help` its registry
/// declared for it.
pub trait Instrument {
    /// Appends this instrument's current reading to `out`.
    fn render(&self, out: &mut String, name: &str, help: &str);
}

impl Instrument for Counter {
    fn render(&self, out: &mut String, name: &str, help: &str) {
        fmt_counter(out, name, help, self.get());
    }
}

impl Instrument for Gauge {
    fn render(&self, out: &mut String, name: &str, help: &str) {
        fmt_gauge(out, name, help, self.get());
    }
}

impl Instrument for Histogram {
    fn render(&self, out: &mut String, name: &str, help: &str) {
        fmt_histogram(out, name, help, &self.snapshot());
    }
}

/// Declares a metrics registry **once**: the struct, its `Default`
/// constructor and its `render_into` all come from one field list, so a
/// new instrument cannot be declared without being constructed and
/// exposed (or exposed under a name its declaration does not show).
///
/// A field written `name: Type = "metric_name", "help text";` is an
/// [`Instrument`] rendered, in declaration order, by `render_into`, and
/// its help text closes its documentation (so it needs a doc comment
/// only to say more); a field written `name: Type;` is plain
/// `Default`-constructed state the page does not show.
///
/// ```
/// cypher_metrics::instruments! {
///     /// Front-door counters.
///     pub struct Door {
///         pub opened: cypher_metrics::Counter = "door_opened_total", "visitors let in";
///         /// Those who have not left yet.
///         pub inside: cypher_metrics::Gauge = "door_inside", "visitors inside";
///         last_visitor: std::sync::atomic::AtomicU64;
///     }
/// }
/// let door = Door::default();
/// door.opened.inc();
/// let mut page = String::new();
/// door.render_into(&mut page);
/// assert!(page.contains("door_opened_total 1"));
/// assert!(page.find("door_opened_total").unwrap() < page.find("door_inside").unwrap());
/// ```
#[macro_export]
macro_rules! instruments {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $kind:ty $(= $metric:literal, $help:literal)? ;
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$fmeta])* $(#[doc = $help])? $fvis $field: $kind, )*
        }

        impl $name {
            /// Appends every declared instrument, in declaration order,
            /// to a Prometheus-style text page.
            pub fn render_into(&self, out: &mut String) {
                $( $( $crate::Instrument::render(&self.$field, out, $metric, $help); )? )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert_eq!(s.sum, 1111);
        assert_eq!(s.max, 1000);
        assert_eq!(s.buckets[0], 1); // the value 0
        assert_eq!(s.buckets[1], 2); // the value 1, twice
        assert_eq!(s.buckets[2], 2); // 2 and 3
        assert_eq!(s.buckets[3], 1); // 4
                                     // p50: rank 4 of 8 lands in bucket 2 (values 2..=3).
        assert_eq!(s.p50(), 3);
        // p99: the top sample; bucket bound 1023 clamped to the exact max.
        assert_eq!(s.p99(), 1000);
        // Extremes.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
    }

    #[test]
    fn huge_values_land_in_the_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2 + 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        let c = Counter::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                s.spawn(|| {
                    let _ = t;
                    for v in 0..1000u64 {
                        h.record(v);
                        c.inc();
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.count, s.buckets.iter().sum::<u64>());
        assert_eq!(c.get(), 8000);
        assert_eq!(s.max, 999);
    }

    #[test]
    fn snapshot_under_concurrent_writers_keeps_invariants() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            let writer = s.spawn(|| {
                for v in 0..50_000u64 {
                    h.record(v % 4096);
                }
            });
            for _ in 0..200 {
                let snap = h.snapshot();
                // Derived count: always equals the bucket sum, even while
                // a writer races the per-bucket reads.
                assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
            }
            writer.join().unwrap();
        });
        assert_eq!(h.snapshot().count, 50_000);
    }

    #[test]
    fn exposition_format() {
        let mut out = String::new();
        fmt_counter(&mut out, "x_total", "events", 3);
        assert!(out.contains("# TYPE x_total counter"));
        assert!(out.contains("x_total 3"));

        let mut out = String::new();
        fmt_gauge(&mut out, "depth", "queue depth", -2);
        assert!(out.contains("# TYPE depth gauge"));
        assert!(out.contains("depth -2"));

        let h = Histogram::new();
        h.record(1);
        h.record(5);
        let mut out = String::new();
        fmt_histogram(&mut out, "lat_us", "latency", &h.snapshot());
        assert!(out.contains("# TYPE lat_us histogram"));
        assert!(out.contains("lat_us_bucket{le=\"1\"} 1"));
        assert!(out.contains("lat_us_bucket{le=\"7\"} 2"));
        assert!(out.contains("lat_us_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("lat_us_sum 6"));
        assert!(out.contains("lat_us_count 2"));
    }
}
