//! Offline wall-clock stand-in for the [`criterion`] benchmark harness.
//!
//! The crates.io registry is unreachable in this workspace's build
//! environment, so the real `criterion` cannot be resolved. This crate
//! implements the API subset the workspace's benches use — groups,
//! `bench_function`, `bench_with_input`, `iter`, `iter_batched`,
//! `criterion_group!`/`criterion_main!` — with a tiny wall-clock harness:
//! warm up, collect per-iteration samples until a time budget is spent,
//! reject outliers by median absolute deviation, and report the median ± σ
//! of the surviving samples.
//!
//! No plots or history are produced. Pass `--quick` (or set
//! `CCAL_BENCH_QUICK=1`) to shrink the time budget for smoke runs:
//!
//! ```text
//! cargo bench -p ccal-bench --bench composition_scaling -- --quick
//! ```
//!
//! [`criterion`]: https://docs.rs/criterion

use std::fmt;
use std::time::{Duration, Instant};

/// Mirror of `criterion::BatchSize` (only the variant the workspace uses).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration setup output; setup runs once per iteration.
    SmallInput,
}

/// Identifies one benchmark within a group (mirror of
/// `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// A parameter-only id.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Re-export parity with `criterion::black_box` (benches may also use
/// `std::hint::black_box` directly).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Debug, Clone, Copy)]
struct Budget {
    warmup: Duration,
    measure: Duration,
}

impl Budget {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                warmup: Duration::from_millis(5),
                measure: Duration::from_millis(20),
            }
        } else {
            Self {
                warmup: Duration::from_millis(50),
                measure: Duration::from_millis(250),
            }
        }
    }
}

/// A robust summary of one benchmark's per-iteration samples.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median per-iteration time over the samples that survived outlier
    /// rejection.
    pub median: Duration,
    /// Standard deviation of the surviving samples.
    pub sigma: Duration,
    /// Samples collected (= iterations timed).
    pub iters: u64,
    /// Samples rejected as outliers (beyond 5 MADs from the median).
    pub outliers: u64,
}

/// Summarizes raw per-iteration samples (in nanoseconds): sort, take the
/// median, reject samples farther than 5 median-absolute-deviations from
/// it, then report the median and standard deviation of the survivors.
/// With `MAD = 0` (more than half the samples identical) nothing is
/// rejected — a zero-width band would throw away legitimate samples.
fn summarize(mut ns: Vec<u64>) -> Measurement {
    assert!(!ns.is_empty(), "summarize needs at least one sample");
    let total = ns.len() as u64;
    ns.sort_unstable();
    let median_of = |sorted: &[u64]| -> u64 {
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            u64::midpoint(sorted[mid - 1], sorted[mid])
        } else {
            sorted[mid]
        }
    };
    let med = median_of(&ns);
    let mut devs: Vec<u64> = ns.iter().map(|&x| x.abs_diff(med)).collect();
    devs.sort_unstable();
    let mad = median_of(&devs);
    let kept: Vec<u64> = if mad == 0 {
        ns
    } else {
        ns.into_iter()
            .filter(|&x| x.abs_diff(med) <= mad.saturating_mul(5))
            .collect()
    };
    let outliers = total - kept.len() as u64;
    let median = median_of(&kept);
    let mean = kept.iter().map(|&x| x as f64).sum::<f64>() / kept.len() as f64;
    let var = kept
        .iter()
        .map(|&x| {
            let d = x as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / kept.len() as f64;
    Measurement {
        median: Duration::from_nanos(median),
        sigma: Duration::from_nanos(var.sqrt() as u64),
        iters: total,
        outliers,
    }
}

/// Measures one benchmark routine (mirror of `criterion::Bencher`).
pub struct Bencher {
    budget: Budget,
    result: Option<Measurement>,
}

impl Bencher {
    /// Times `routine`, including nothing else, reporting the mean.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.run(|| {
            let start = Instant::now();
            std::hint::black_box(routine());
            start.elapsed()
        });
    }

    /// Times `routine` on fresh input from `setup`; setup time is excluded
    /// from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        self.run(|| {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            start.elapsed()
        });
    }

    /// Drives one timed iteration closure through warmup + measurement,
    /// collecting per-iteration samples for the robust summary.
    fn run<F: FnMut() -> Duration>(&mut self, mut one: F) {
        const MAX_SAMPLES: usize = 100_000;
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.budget.warmup {
            one();
        }
        let mut samples: Vec<u64> = Vec::new();
        let measure_start = Instant::now();
        while measure_start.elapsed() < self.budget.measure && samples.len() < MAX_SAMPLES {
            samples.push(u64::try_from(one().as_nanos()).unwrap_or(u64::MAX));
        }
        if samples.is_empty() {
            samples.push(u64::try_from(one().as_nanos()).unwrap_or(u64::MAX));
        }
        self.result = Some(summarize(samples));
    }
}

fn render_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// A named collection of benchmarks (mirror of
/// `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the wall-clock harness sizes runs
    /// by time budget, not sample count.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Benchmarks `routine` under `group-name/id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(&full, &mut routine);
        self
    }

    /// Benchmarks `routine` on `input` under `group-name/id`.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion
            .run_one(&full, &mut |b: &mut Bencher| routine(b, input));
        self
    }

    /// Ends the group (no-op beyond API parity).
    pub fn finish(self) {}
}

/// The harness entry point (mirror of `criterion::Criterion`).
pub struct Criterion {
    budget: Budget,
}

impl Default for Criterion {
    fn default() -> Self {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var_os("CCAL_BENCH_QUICK").is_some();
        Self {
            budget: Budget::new(quick),
        }
    }
}

impl Criterion {
    /// Starts a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = id.to_string();
        self.run_one(&full, &mut routine);
        self
    }

    fn run_one(&mut self, name: &str, routine: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            budget: self.budget,
            result: None,
        };
        routine(&mut bencher);
        match bencher.result {
            Some(m) => {
                println!(
                    "{name:<50} time: [{} ± {}]  ({} iterations, {} outliers rejected)",
                    render_duration(m.median),
                    render_duration(m.sigma),
                    m.iters,
                    m.outliers
                );
            }
            None => println!("{name:<50} (no measurement recorded)"),
        }
    }
}

/// Groups benchmark functions into one callable (mirror of
/// `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups (mirror of
/// `criterion::criterion_main!`).
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
    fn bencher_measures_something() {
        let mut b = Bencher {
            budget: Budget::new(true),
            result: None,
        };
        b.iter(|| std::hint::black_box(1 + 1));
        let m = b.result.expect("measured");
        assert!(m.iters > 0);
        assert!(m.median < Duration::from_secs(1));
        assert!(m.outliers < m.iters, "rejection must keep some samples");
    }

    #[test]
    fn summary_is_median_with_outliers_rejected() {
        // A tight cluster around 100ns plus one wild 10µs spike: the spike
        // must be rejected and neither the median nor σ may feel it.
        let mut samples = vec![98, 99, 100, 100, 101, 102, 99, 101, 100, 98];
        samples.push(10_000);
        let m = summarize(samples);
        assert_eq!(m.iters, 11);
        assert_eq!(m.outliers, 1);
        assert_eq!(m.median, Duration::from_nanos(100));
        assert!(m.sigma < Duration::from_nanos(5), "sigma {:?}", m.sigma);
    }

    #[test]
    fn summary_of_identical_samples_rejects_nothing() {
        let m = summarize(vec![50; 32]);
        assert_eq!(m.outliers, 0);
        assert_eq!(m.median, Duration::from_nanos(50));
        assert_eq!(m.sigma, Duration::ZERO);
    }

    #[test]
    fn batched_excludes_setup() {
        let mut b = Bencher {
            budget: Budget::new(true),
            result: None,
        };
        b.iter_batched(|| vec![0_u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.result.is_some());
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("ticket", 4).to_string(), "ticket/4");
        assert_eq!(BenchmarkId::from_parameter(16).to_string(), "16");
    }
}
