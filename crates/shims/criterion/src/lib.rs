//! Offline shim for `criterion`.
//!
//! A minimal wall-clock benchmark harness exposing the criterion API surface
//! this workspace uses: `Criterion`, `benchmark_group` / `BenchmarkGroup`
//! with `sample_size` and `finish`, `bench_function`, `Bencher::iter`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros.
//!
//! Compared to upstream criterion there is no statistical analysis, HTML
//! report, or outlier detection: each benchmark calibrates an iteration
//! count targeting ~5ms per sample, takes `sample_size` samples, and prints
//! the median, best, and worst ns/iter to stdout. Good enough to compare
//! orders of magnitude (the use here: instrumentation overhead numbers).

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Minimum measured span per sample; keeps timer overhead amortised.
const TARGET_SAMPLE_NANOS: u128 = 5_000_000;

/// Benchmark harness entry point.
pub struct Criterion {
    filter: Option<String>,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // Honor `cargo bench -- <filter>`; ignore flag-style args criterion
        // would normally parse (--bench, --save-baseline, ...).
        let filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-'));
        Criterion { filter, default_sample_size: 30 }
    }
}

impl Criterion {
    /// Sets the default sample count for benchmarks run under this harness
    /// (builder form, used by `criterion_group!`'s `config = ...` arm).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.default_sample_size = n.max(2);
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let sample_size = self.default_sample_size;
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size,
        }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let id = id.to_string();
        run_benchmark(&id, self.filter.as_deref(), self.default_sample_size, f);
        self
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(&full, self.criterion.filter.as_deref(), self.sample_size, f);
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; times the routine under test.
pub struct Bencher {
    iters: u64,
    nanos: u128,
}

impl Bencher {
    /// Times `routine`, running it enough times to dominate timer overhead.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.nanos = start.elapsed().as_nanos();
    }

    /// Lets `routine` do its own timing: it is told how many iterations
    /// are wanted and returns how long that many took (criterion's
    /// `iter_custom`). For routines whose natural unit of work is a batch
    /// of iterations.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        self.nanos = routine(self.iters).as_nanos();
    }
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    id: &str,
    filter: Option<&str>,
    sample_size: usize,
    mut f: F,
) {
    if let Some(filter) = filter {
        if !id.contains(filter) {
            return;
        }
    }

    // Calibrate: grow the iteration count until one sample is long enough.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher { iters, nanos: 0 };
        f(&mut b);
        if b.nanos >= TARGET_SAMPLE_NANOS || iters >= 1 << 30 {
            break;
        }
        // Aim straight for the target with headroom, at least doubling.
        let scaled = (iters as u128 * TARGET_SAMPLE_NANOS * 2)
            .checked_div(b.nanos)
            .map_or(iters * 100, |n| n as u64);
        iters = scaled.max(iters * 2);
    }

    let mut per_iter: Vec<f64> = (0..sample_size)
        .map(|_| {
            let mut b = Bencher { iters, nanos: 0 };
            f(&mut b);
            b.nanos as f64 / iters as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));

    let median = per_iter[per_iter.len() / 2];
    let best = per_iter[0];
    let worst = per_iter[per_iter.len() - 1];
    println!(
        "{id:<50} {median:>12.2} ns/iter  (best {best:.2}, worst {worst:.2}, {sample_size} samples x {iters} iters)"
    );
    results::record(id, median, best, worst, sample_size, iters);
}

/// Machine-readable results: every finished benchmark is merged into one
/// JSON file so CI can archive numbers without scraping stdout.
mod results {
    use serde_json::Value;
    use std::path::PathBuf;

    /// Where to merge results: `BENCH_RESULTS_PATH` when set, else
    /// `<manifest>/../../results/BENCH_results.json` — which resolves to the
    /// workspace `results/` directory for the bench crate. The file is only
    /// written when its parent directory already exists, so unit tests of
    /// crates without a `results/` sibling stay side-effect free.
    fn path() -> Option<PathBuf> {
        if let Ok(p) = std::env::var("BENCH_RESULTS_PATH") {
            return Some(PathBuf::from(p));
        }
        let manifest = std::env::var("CARGO_MANIFEST_DIR").ok()?;
        Some(PathBuf::from(manifest).join("../../results/BENCH_results.json"))
    }

    pub(crate) fn record(
        id: &str,
        median: f64,
        best: f64,
        worst: f64,
        samples: usize,
        iters: u64,
    ) {
        let Some(path) = path() else { return };
        if !path.parent().is_some_and(|d| d.is_dir()) {
            return;
        }
        let mut benchmarks: Vec<(String, Value)> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(&text).ok())
            .and_then(|doc| doc.get("benchmarks").and_then(|b| b.as_object().map(<[_]>::to_vec)))
            .unwrap_or_default();
        let entry = Value::Object(vec![
            ("median_ns".into(), Value::F64(median)),
            ("best_ns".into(), Value::F64(best)),
            ("worst_ns".into(), Value::F64(worst)),
            ("samples".into(), Value::U64(samples as u64)),
            ("iters".into(), Value::U64(iters)),
        ]);
        match benchmarks.iter_mut().find(|(name, _)| name == id) {
            Some(slot) => slot.1 = entry,
            None => benchmarks.push((id.to_string(), entry)),
        }
        benchmarks.sort_by(|a, b| a.0.cmp(&b.0));
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("vmp-bench/1".into())),
            ("unit".into(), Value::Str("ns/iter".into())),
            ("benchmarks".into(), Value::Object(benchmarks)),
        ]);
        if let Ok(text) = serde_json::to_string_pretty(&doc) {
            let _ = std::fs::write(&path, text + "\n");
        }
    }
}

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the given groups.
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
    fn bench_function_times_and_prints() {
        let mut c = Criterion { filter: None, default_sample_size: 30 };
        let mut group = c.benchmark_group("shim");
        group.sample_size(2);
        let mut ran = false;
        group.bench_function("noop", |b| {
            ran = true;
            b.iter(|| black_box(1u64 + 1));
        });
        group.finish();
        assert!(ran);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion {
            filter: Some("matches-nothing-xyz".into()),
            default_sample_size: 30,
        };
        let mut ran = false;
        c.bench_function("skipped", |b| {
            ran = true;
            b.iter(|| ());
        });
        assert!(!ran);
    }
}
