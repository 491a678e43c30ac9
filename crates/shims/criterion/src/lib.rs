//! Offline stand-in for the `criterion` crate (0.5 API subset).
//!
//! Real wall-clock measurement with a much simpler methodology: each
//! benchmark warms up, auto-calibrates an iteration count so one sample
//! lasts roughly `measurement_time / sample_size`, then takes
//! `sample_size` samples and reports the median, minimum and maximum
//! per-iteration time. No plots, no statistical regression — just honest
//! numbers on stdout in a stable, grep-friendly format:
//!
//! ```text
//! bench: e15_depends_on/engine/200  median 1.234 ms  min 1.201 ms  max 1.299 ms  (10 samples x 8 iters)
//! ```

#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Identifies one benchmark within a group: a function name and a
/// parameter rendered as `name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A benchmark id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The timing loop handed to benchmark closures.
pub struct Bencher<'a> {
    cfg: &'a Config,
    label: String,
}

impl Bencher<'_> {
    /// Runs `f` repeatedly, measuring wall-clock time per call, and prints
    /// a summary line for the enclosing benchmark.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up & calibration: find an iteration count whose batch takes
        // roughly one sample's worth of time.
        let mut one = Duration::ZERO;
        for _ in 0..3 {
            let t = Instant::now();
            black_box(f());
            one = t.elapsed().max(Duration::from_nanos(1));
        }
        let per_sample = self.cfg.measurement_time / self.cfg.sample_size.max(1) as u32;
        let iters = (per_sample.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;

        let mut samples: Vec<Duration> = Vec::with_capacity(self.cfg.sample_size);
        for _ in 0..self.cfg.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            samples.push(t.elapsed() / iters as u32);
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let max = samples[samples.len() - 1];
        println!(
            "bench: {}  median {}  min {}  max {}  ({} samples x {} iters)",
            self.label,
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
            samples.len(),
            iters
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[derive(Debug, Clone)]
struct Config {
    sample_size: usize,
    measurement_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
        }
    }
}

/// The benchmark harness entry point.
#[derive(Debug, Clone, Default)]
pub struct Criterion {
    cfg: Config,
}

impl Criterion {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.cfg.sample_size = n;
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            cfg: self.cfg.clone(),
            name: name.into(),
            _parent: std::marker::PhantomData,
        }
    }
}

/// A group of benchmarks sharing a name prefix and configuration.
pub struct BenchmarkGroup<'a> {
    cfg: Config,
    name: String,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the group's measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.cfg.measurement_time = d;
        self
    }

    /// Benchmarks `f` under `group_name/id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F)
    where
        F: FnMut(&mut Bencher<'_>),
    {
        let label = format!("{}/{}", self.name, id.into().id);
        let mut b = Bencher {
            cfg: &self.cfg,
            label,
        };
        f(&mut b);
    }

    /// Benchmarks `f` with a borrowed input under `group_name/id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let label = format!("{}/{}", self.name, id.into().id);
        let mut b = Bencher {
            cfg: &self.cfg,
            label,
        };
        f(&mut b, input);
    }

    /// Ends the group (kept for API compatibility; no-op).
    pub fn finish(self) {}
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $cfg;
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("shim");
        group.measurement_time(Duration::from_millis(10));
        let mut calls = 0u64;
        group.bench_function("noop", |b| b.iter(|| calls += 1));
        group.finish();
        assert!(calls > 3, "timing loop actually ran the closure");
    }
}
