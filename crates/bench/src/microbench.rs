//! In-repo micro-benchmark runner with a Criterion-shaped API.
//!
//! The `benches/*.rs` files were written against Criterion; this module
//! keeps their call sites intact (`benchmark_group`, `sample_size`,
//! `bench_with_input`, `Bencher::iter`, the `criterion_group!` /
//! `criterion_main!` macros) while running on `std::time::Instant` alone,
//! so the workspace has no external benchmarking dependency.
//!
//! Methodology: after a wall-clock warm-up, each benchmark takes
//! `sample_size` samples; every sample times a batch of iterations sized
//! from the warm-up estimate so one sample lasts roughly
//! `measurement_time / sample_size`. The reported figure is the median
//! ns/iteration across samples (robust to scheduler noise).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Identifier for one benchmark: a function name plus an optional
/// parameter rendered with `Display`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            name: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { name: s }
    }
}

/// One benchmark's measured statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchResult {
    pub group: String,
    pub id: String,
    pub median_ns: f64,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub samples: usize,
    pub iters_per_sample: u64,
}

/// Top-level driver, one per bench binary.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    pub fn from_env() -> Self {
        Criterion {
            results: Vec::new(),
        }
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 20,
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }

    /// Bench outside any group (ungrouped names go under "default").
    pub fn bench_function(&mut self, id: impl Into<BenchmarkId>, f: impl FnMut(&mut Bencher)) {
        let mut g = self.benchmark_group("default");
        g.bench_function(id, f);
        g.finish();
    }

    /// Print the closing summary.
    pub fn final_summary(&self) {
        println!("{} benchmarks completed", self.results.len());
    }

    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }
}

/// A named group of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut bencher = Bencher::new(self.sample_size, self.warm_up, self.measurement);
        f(&mut bencher, input);
        self.record(id.name, bencher);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher::new(self.sample_size, self.warm_up, self.measurement);
        f(&mut bencher);
        self.record(id.into().name, bencher);
        self
    }

    fn record(&mut self, id: String, bencher: Bencher) {
        let (median, mean, min, iters) = bencher
            .stats()
            .expect("benchmark closure must call Bencher::iter");
        println!(
            "{}/{}: median {} mean {} min {} ({} samples x {} iters)",
            self.name,
            id,
            fmt_ns(median),
            fmt_ns(mean),
            fmt_ns(min),
            self.sample_size,
            iters
        );
        self.criterion.results.push(BenchResult {
            group: self.name.clone(),
            id,
            median_ns: median,
            mean_ns: mean,
            min_ns: min,
            samples: self.sample_size,
            iters_per_sample: iters,
        });
    }

    pub fn finish(&mut self) {}
}

/// Passed to the benchmark closure; `iter` runs the measurement.
pub struct Bencher {
    sample_size: usize,
    warm_up: Duration,
    measurement: Duration,
    sample_ns: Option<Vec<f64>>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(sample_size: usize, warm_up: Duration, measurement: Duration) -> Self {
        Bencher {
            sample_size,
            warm_up,
            measurement,
            sample_ns: None,
            iters_per_sample: 1,
        }
    }

    /// Measure `routine`: warm up, choose a batch size, then time
    /// `sample_size` batches.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm-up: run until the budget elapses, estimating cost per call.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warm_up {
            black_box(routine());
            warm_iters += 1;
        }
        let per_iter_ns =
            (warm_start.elapsed().as_nanos() as f64 / warm_iters.max(1) as f64).max(1.0);

        // Size batches so the samples together fill the measurement budget.
        let target_sample_ns = self.measurement.as_nanos() as f64 / self.sample_size.max(1) as f64;
        let iters = ((target_sample_ns / per_iter_ns).round() as u64).max(1);
        self.iters_per_sample = iters;

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.sample_ns = Some(samples);
    }

    /// (median, mean, min, iters-per-sample) in ns/iteration.
    fn stats(&self) -> Option<(f64, f64, f64, u64)> {
        let samples = self.sample_ns.as_ref()?;
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Some((median, mean, sorted[0], self.iters_per_sample))
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2}µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

/// Compatibility macro: `criterion_group!(benches, bench_fn, ...)` defines
/// a function running each bench fn against one [`Criterion`] driver.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::microbench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Compatibility macro: `criterion_main!(benches)` defines `main`.
#[macro_export]
macro_rules! criterion_main {
    ($name:ident) => {
        fn main() {
            let mut c = $crate::microbench::Criterion::from_env();
            $name(&mut c);
            c.final_summary();
        }
    };
}

pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut c = Criterion::from_env();
        {
            let mut g = c.benchmark_group("t");
            g.sample_size(3);
            g.warm_up_time(Duration::from_millis(2));
            g.measurement_time(Duration::from_millis(10));
            g.bench_function("sum", |b| {
                b.iter(|| (0..100u64).sum::<u64>());
            });
            g.finish();
        }
        let r = &c.results()[0];
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert_eq!(r.samples, 3);
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("f", 10).name, "f/10");
        assert_eq!(BenchmarkId::from("plain").name, "plain");
    }
}
