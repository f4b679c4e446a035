//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crate registry, so the workspace vendors
//! the slice of the criterion API its benches use: [`Criterion`],
//! benchmark groups with `sample_size`, [`BenchmarkId`], [`Throughput`],
//! and `Bencher::iter`. Measurement is a plain calibrated wall-clock
//! loop (median of `sample_size` samples, printed beside the samples'
//! quartiles so one run states its own spread) — good enough to compare
//! engines and track regressions, with none of criterion's statistics.
//!
//! Like criterion, the bench binary takes a name filter:
//! `cargo bench --bench <file> -- <filter>` runs only the benchmarks
//! whose full `group/name` id contains `<filter>` (see [`name_filter`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] for parity with criterion.
pub use std::hint::black_box;

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(300);

/// An identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            full: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.full)
    }
}

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Runs one benchmark's timing loop.
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    /// Median seconds per iteration, filled by [`Bencher::iter`].
    per_iter: f64,
    /// First and third quartiles of the samples' seconds per iteration.
    spread: (f64, f64),
}

impl Bencher {
    /// Times `routine`, storing the median per-iteration duration and
    /// the samples' quartiles.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up + calibration: find an iteration count that runs long
        // enough to be timeable.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(2) || iters >= 1 << 24 {
                break;
            }
            iters *= 8;
        }
        // Measurement: `samples` timed batches within the global budget.
        let batch = iters.max(1);
        let mut times: Vec<f64> = Vec::with_capacity(self.samples);
        let budget_start = Instant::now();
        for _ in 0..self.samples.max(1) {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            times.push(start.elapsed().as_secs_f64() / batch as f64);
            if budget_start.elapsed() > TARGET {
                break;
            }
        }
        times.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&times);
        self.per_iter = median;
        self.spread = (q1, q3);
    }
}

/// `(first quartile, median, third quartile)` of ascending `sorted`, by
/// nearest rank: the samples at `len / 4`, `len / 2` and `3 · len / 4`.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    (sorted[n / 4], sorted[n / 2], sorted[3 * n / 4])
}

fn human(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// The benchmark name filter in a bench binary's arguments (program
/// name first, as [`std::env::args`] gives them): the first argument
/// that is not a flag. Flags — `--bench`, which `cargo bench` always
/// passes, and anything else starting with `-` — are ignored.
pub fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().skip(1).find(|a| !a.starts_with('-'))
}

/// Whether the benchmark with full id `id` (`group/name`) runs under
/// `filter`: every benchmark runs without one, otherwise those whose id
/// contains it.
#[must_use]
pub fn selected(filter: Option<&str>, id: &str) -> bool {
    filter.is_none_or(|f| id.contains(f))
}

fn run_one(
    filter: Option<&str>,
    name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    f: impl FnOnce(&mut Bencher),
) {
    if !selected(filter, name) {
        return;
    }
    let mut b = Bencher {
        samples,
        per_iter: 0.0,
        spread: (0.0, 0.0),
    };
    f(&mut b);
    let mut line = format!("{name:<50} {:>12}/iter", human(b.per_iter));
    if let Some(tp) = throughput {
        let (count, unit) = match tp {
            Throughput::Elements(n) => (n, "elem"),
            Throughput::Bytes(n) => (n, "B"),
        };
        if b.per_iter > 0.0 {
            line.push_str(&format!("   {:>12.0} {unit}/s", count as f64 / b.per_iter));
        }
    }
    // The samples' quartiles: how far one run's median can be trusted.
    let (q1, q3) = b.spread;
    line.push_str(&format!("   [q1 {} … q3 {}]", human(q1), human(q3)));
    println!("{line}");
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    parent: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Annotates following benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `routine` under `id`.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, id: impl Display, routine: F) {
        run_one(
            self.parent.filter.as_deref(),
            &format!("{}/{}", self.name, id),
            self.samples,
            self.throughput,
            routine,
        );
    }

    /// Benchmarks `routine` with a borrowed input under `id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, routine: F)
    where
        F: FnOnce(&mut Bencher, &I),
    {
        run_one(
            self.parent.filter.as_deref(),
            &format!("{}/{}", self.name, id),
            self.samples,
            self.throughput,
            |b| routine(b, input),
        );
    }

    /// Ends the group (formatting no-op).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Runs only the benchmarks whose id contains this (all when `None`).
    filter: Option<String>,
}

impl Criterion {
    /// Takes the name filter from the process arguments
    /// ([`name_filter`]).
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = name_filter(std::env::args());
        self
    }

    /// Benchmarks a single function.
    pub fn bench_function<F: FnOnce(&mut Bencher)>(&mut self, name: &str, routine: F) -> &mut Self {
        run_one(self.filter.as_deref(), name, 10, None, routine);
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 10,
            throughput: None,
            parent: self,
        }
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default().configure_from_args();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // Each group reads the name filter from the arguments.
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
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.sample_size(3).throughput(Throughput::Elements(4));
        g.bench_with_input(BenchmarkId::new("f", 4), &4, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
    }

    #[test]
    fn quartiles_are_nearest_rank_samples() {
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0, 2.0));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (3.0, 6.0, 8.0));
    }

    #[test]
    fn name_filter_is_the_first_non_flag_argument() {
        let args = |a: &[&str]| a.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert_eq!(name_filter(args(&["bench"])), None);
        assert_eq!(name_filter(args(&["bench", "--bench"])), None);
        assert_eq!(
            name_filter(args(&["bench", "short_pairs", "--bench"])),
            Some("short_pairs".to_string())
        );
        assert_eq!(
            name_filter(args(&["bench", "--bench", "-q", "per_pair", "x"])),
            Some("per_pair".to_string())
        );
    }

    #[test]
    fn filter_matches_a_substring_of_the_full_id() {
        assert!(selected(None, "g/f/4"));
        assert!(selected(Some("g/f"), "g/f/4"));
        assert!(selected(Some("f/4"), "g/f/4"));
        assert!(!selected(Some("h"), "g/f/4"));
        assert!(!selected(Some("g/f/44"), "g/f/4"));
    }

    #[test]
    fn filtered_benchmarks_never_run() {
        let mut c = Criterion {
            filter: Some("keep".to_string()),
        };
        let mut ran = Vec::new();
        let mut g = c.benchmark_group("g");
        g.sample_size(1);
        g.bench_function("keep", |b| {
            ran.push("keep");
            b.iter(|| 1)
        });
        g.bench_function("skip", |b| {
            ran.push("skip");
            b.iter(|| 1)
        });
        g.finish();
        assert_eq!(ran, ["keep"]);
    }

    #[test]
    fn human_formats() {
        assert!(human(5e-9).contains("ns"));
        assert!(human(5e-6).contains("µs"));
        assert!(human(5e-3).contains("ms"));
        assert!(human(5.0).contains('s'));
    }
}
