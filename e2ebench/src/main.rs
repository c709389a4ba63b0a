//! `e2ebench` — the benchmark binary.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json)
//! e2ebench run [--runs N] [--seed N] [--seconds N] [--smoke] [--out PATH]
//! e2ebench agree A.json B.json
//! ```
//!
//! The bin target owns what library code may not hold: the counting
//! `#[global_allocator]` with its atomics, the ambient reads (`env::args`,
//! the executable's path) and the process exit code.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use vmp_e2ebench::alloc::{AllocHooks, AllocTotals};
use vmp_e2ebench::child::{run_child, ChildArgs};
use vmp_e2ebench::runner::{agree, load, run, RunArgs};

/// Counts allocations while a traced run asks for it. All orderings are
/// relaxed: the values are statistics that publish no other data, and an
/// untraced run pays one relaxed load per call.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or runs after teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `record` only touches atomics and a
// const-initialised thread-local `Cell`, so it neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn hooks() -> AllocHooks {
    AllocHooks {
        set_counting: |on| COUNTING.swap(on, Ordering::Relaxed),
        totals: || AllocTotals {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        },
        thread_allocs: || THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0),
    }
}

const USAGE: &str = "usage:
  e2ebench --workload <paper_full|scale_stream|ingest_spill|scenario_sweep> --seed <n> --seconds <s> --trace <0|1>
  e2ebench run [--runs N] [--seed N] [--seconds N] [--smoke] [--out PATH]
  e2ebench agree A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Spill files, traces and result sets stay inside the package.
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_set(&args[1..], &out_dir),
        Some("agree") => compare(&args[1..]),
        Some(flag) if flag.starts_with("--") && flag != "--help" => one_run(&args, &out_dir),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn one_run(args: &[String], out_dir: &Path) -> Result<bool, String> {
    let args = ChildArgs::parse(args)?;
    let report = run_child(&args, out_dir, &hooks())?;
    for (name, unit, value) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    for failure in &report.failures {
        eprintln!("output check failed: {failure}");
    }
    // The result line carries `correct`; a run that printed it exits 0.
    println!("{}", report.result_line());
    Ok(true)
}

fn run_set(args: &[String], out_dir: &Path) -> Result<bool, String> {
    let args = RunArgs::parse(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    run(&exe, out_dir, &args)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else { return Err(USAGE.to_string()) };
    let (ok, table) = agree(&load(&PathBuf::from(a))?, &load(&PathBuf::from(b))?)?;
    print!("{table}");
    Ok(ok)
}
