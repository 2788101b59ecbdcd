//! Offline stand-in for `criterion`.
//!
//! The build environment has no registry access, so this crate implements
//! the criterion 0.5 API surface the benches use — `benchmark_group`,
//! `sample_size`, `bench_function`, `BenchmarkId`, `Bencher::iter`, and
//! the `criterion_group!`/`criterion_main!` macros — over a simple
//! wall-clock sampler. Output mimics criterion's
//! `name  time: [lo mean hi]` lines so results remain grep-able; there
//! is no statistical regression machinery.

use std::fmt;
use std::time::{Duration, Instant};

/// Re-export matching `criterion::black_box` (benches here use
/// `std::hint::black_box` directly, but the name is part of the API).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifier for one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new<F: fmt::Display, P: fmt::Display>(function: F, parameter: P) -> BenchmarkId {
        BenchmarkId { label: format!("{function}/{parameter}") }
    }

    /// Parameter-only form.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> BenchmarkId {
        BenchmarkId { label: parameter.to_string() }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { label: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { label: s }
    }
}

/// Timing loop handle passed to benchmark closures.
pub struct Bencher {
    samples_ns: Vec<f64>,
    sample_count: usize,
}

impl Bencher {
    /// Measures `f`: calibrates an iteration count so one sample takes
    /// roughly a millisecond, then records `sample_count` samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibration: run until ~1ms or 10k iters to pick batch size.
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_start.elapsed() < Duration::from_millis(1) && calib_iters < 10_000 {
            std::hint::black_box(f());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_nanos() as f64 / calib_iters.max(1) as f64;
        let batch = ((1_000_000.0 / per_iter.max(1.0)) as u64).clamp(1, 100_000);

        self.samples_ns.clear();
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            self.samples_ns.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }

    fn report(&self) -> (f64, f64, f64) {
        if self.samples_ns.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        (sorted[0], mean, sorted[sorted.len() - 1])
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// A named set of related benchmarks. Holds a phantom borrow of the
/// `Criterion` so the lifetime relationship matches the real crate.
pub struct BenchmarkGroup<'a> {
    _criterion: std::marker::PhantomData<&'a mut Criterion>,
    name: String,
    sample_count: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_count = n.max(2);
        self
    }

    /// Runs one benchmark and prints its timing line.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples_ns: Vec::new(),
            // Cap shim sample counts: criterion defaults to 100 samples
            // with warm-up; the shim targets quick CI-friendly runs.
            sample_count: self.sample_count.min(30),
        };
        f(&mut b);
        let (lo, mean, hi) = b.report();
        println!(
            "{:<50} time:   [{} {} {}]",
            format!("{}/{}", self.name, id),
            fmt_ns(lo),
            fmt_ns(mean),
            fmt_ns(hi)
        );
        self
    }

    /// Ends the group (blank separator line, as criterion does).
    pub fn finish(self) {
        println!();
    }
}

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group<N: Into<String>>(&mut self, name: N) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("benchmarking group: {name}");
        BenchmarkGroup { _criterion: std::marker::PhantomData, name, sample_count: 20 }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(5);
        let mut ran = false;
        g.bench_function(BenchmarkId::from_parameter("noop"), |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        g.finish();
        assert!(ran);
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("read", "android").to_string(), "read/android");
        assert_eq!(BenchmarkId::from_parameter(128).to_string(), "128");
    }
}
