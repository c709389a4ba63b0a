//! Named atomic metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Counters and histograms are *striped*: each instrument is a fixed array
//! of cache-line-aligned cells, a recording thread writes only the cell at
//! its own thread-local slot, and reads sum the cells (max for `max`). Two
//! shards bumping the same counter therefore never write the same line.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::export::{HistogramSnapshot, RegistrySnapshot};

/// Cells per striped instrument. Threads beyond this many share cells,
/// which stays exact — every write is an atomic RMW — and only costs the
/// contention striping otherwise removes.
const STRIPES: usize = 8;

/// Hands out stripe slots round-robin, one per thread on first use.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// The calling thread's stripe slot, in `0..STRIPES`.
#[inline]
fn stripe_slot() -> usize {
    STRIPE.with(|slot| *slot)
}

/// Number of histogram buckets: a 1-2-5 log series spanning 1 .. 5e11,
/// plus an implicit overflow bucket tracked by `HISTOGRAM_BUCKETS`'s end.
pub(crate) const HISTOGRAM_BUCKETS: usize = 36;

/// Upper bounds (inclusive) of the value buckets. Values are raw `u64`s —
/// callers pick the unit (spans record nanoseconds, byte counters record
/// bytes) and the 1-2-5 series keeps relative error under ~2.5x per bucket
/// across eleven decades.
#[expect(
    clippy::cast_possible_truncation,
    reason = "bucket indexes are below HISTOGRAM_BUCKETS, so the decade is tiny"
)]
pub(crate) fn bucket_bound(index: usize) -> u64 {
    let (decade, step) = (index / 3, index % 3);
    [1u64, 2, 5][step] * 10u64.pow(decade as u32)
}

/// [`bucket_bound`] for every bucket, built at compile time so `record`
/// finds its bucket without a `pow` per probe.
const BUCKET_BOUNDS: [u64; HISTOGRAM_BUCKETS] = {
    let mut bounds = [0u64; HISTOGRAM_BUCKETS];
    let mut decade = 1u64;
    let mut i = 0;
    while i < HISTOGRAM_BUCKETS {
        bounds[i] = decade;
        bounds[i + 1] = 2 * decade;
        bounds[i + 2] = 5 * decade;
        decade *= 10;
        i += 3;
    }
    bounds
};

/// Index of the first bucket whose bound is `>= value`, or `None` for the
/// overflow bucket.
#[inline]
fn bucket_index(value: u64) -> Option<usize> {
    let i = BUCKET_BOUNDS.partition_point(|&bound| bound < value);
    (i < HISTOGRAM_BUCKETS).then_some(i)
}

/// One thread-slot's share of a counter, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct CounterStripe {
    value: AtomicU64,
}

type CounterCells = [CounterStripe; STRIPES];

/// One thread-slot's share of a histogram (five cache lines, none shared
/// with another slot).
#[repr(align(64))]
struct HistogramStripe {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramStripe {
    fn default() -> HistogramStripe {
        HistogramStripe {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

type HistogramCells = [HistogramStripe; STRIPES];

/// Sums one per-stripe cell across stripes, wrapping exactly as a single
/// `fetch_add` cell would.
fn stripe_total<S>(cells: &[S; STRIPES], cell: impl Fn(&S) -> &AtomicU64) -> u64 {
    cells.iter().fold(0u64, |total, s| total.wrapping_add(cell(s).load(Ordering::Relaxed)))
}

fn histogram_snapshot(cells: &HistogramCells) -> HistogramSnapshot {
    let counts = (0..HISTOGRAM_BUCKETS).map(|i| stripe_total(cells, |s| &s.counts[i])).collect();
    let max = cells.iter().map(|s| s.max.load(Ordering::Relaxed)).max().unwrap_or(0);
    HistogramSnapshot::from_raw(
        counts,
        stripe_total(cells, |s| &s.overflow),
        stripe_total(cells, |s| &s.sum),
        stripe_total(cells, |s| &s.count),
        max,
    )
}

/// A monotonically increasing named counter.
///
/// Cheap to clone; cache one per hot path rather than re-looking it up by
/// name. `inc`/`add` are one relaxed RMW on the calling thread's stripe.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_slot()].value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (the sum over stripes).
    pub fn get(&self) -> u64 {
        stripe_total(&self.cells, |s| &s.value)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A named signed gauge (current level, not a rate).
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

/// A fixed-bucket histogram over raw `u64` values.
///
/// Buckets follow a 1-2-5 log series from 1 to 5e11 with an overflow
/// bucket above, so one shape serves nanosecond latencies and byte sizes
/// alike. Recording is wait-free (three relaxed `fetch_add`s plus a
/// `fetch_max`, all on the calling thread's stripe); quantiles are
/// estimated at snapshot time by linear interpolation inside the
/// containing bucket.
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        let stripe = &self.cells[stripe_slot()];
        match bucket_index(value) {
            Some(i) => stripe.counts[i].fetch_add(1, Ordering::Relaxed),
            None => stripe.overflow.fetch_add(1, Ordering::Relaxed),
        };
        stripe.sum.fetch_add(value, Ordering::Relaxed);
        stripe.count.fetch_add(1, Ordering::Relaxed);
        stripe.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration as nanoseconds (the convention spans use).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the nanosecond count is clamped to u64::MAX first"
    )]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        stripe_total(&self.cells, |s| &s.count)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        stripe_total(&self.cells, |s| &s.sum)
    }

    /// Point-in-time copy of the full distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        histogram_snapshot(&self.cells)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// The cell registered under `name`, created on first use. A hit neither
/// allocates nor copies the name.
fn resolve<T: Default>(table: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut table = table.lock();
    match table.get(name) {
        Some(cell) => cell.clone(),
        None => table.entry(name.to_string()).or_default().clone(),
    }
}

/// A registry of named metrics.
///
/// Lookup (`counter`/`gauge`/`histogram`) takes a short mutex on the name
/// table and hands back a clonable handle bound to the underlying atomics;
/// all recording after that is lock-free.
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<CounterCells>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCells>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Handle to the counter `name`, creating it at zero if new.
    pub fn counter(&self, name: &str) -> Counter {
        Counter { cells: resolve(&self.counters, name) }
    }

    /// Handle to the gauge `name`, creating it at zero if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge { value: resolve(&self.gauges, name) }
    }

    /// Handle to the histogram `name`, creating it empty if new.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram { cells: resolve(&self.histograms, name) }
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, cells)| (name.clone(), stripe_total(cells, |s| &s.value)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .iter()
            .map(|(name, v)| (name.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, cells)| (name.clone(), histogram_snapshot(cells)))
            .collect();
        RegistrySnapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_1_2_5_series() {
        assert_eq!(bucket_bound(0), 1);
        assert_eq!(bucket_bound(1), 2);
        assert_eq!(bucket_bound(2), 5);
        assert_eq!(bucket_bound(3), 10);
        assert_eq!(bucket_bound(4), 20);
        assert_eq!(bucket_bound(HISTOGRAM_BUCKETS - 1), 500_000_000_000);
    }

    #[test]
    fn bucket_table_matches_bucket_bound_and_the_linear_scan() {
        for (i, &bound) in BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(bound, bucket_bound(i), "bucket {i}");
        }
        let scan = |value: u64| (0..HISTOGRAM_BUCKETS).find(|&i| value <= bucket_bound(i));
        let mut probes = vec![0, u64::MAX];
        for &bound in &BUCKET_BOUNDS {
            probes.extend([bound, bound + 1]);
        }
        for value in probes {
            assert_eq!(bucket_index(value), scan(value), "value {value}");
        }
        assert_eq!(bucket_index(u64::MAX), None);
    }

    #[test]
    fn concurrent_recording_is_exact_across_stripes() {
        const OWN_VALUES: [u64; 4] = [1, 10, 100, 1000];
        const THREADS: u64 = OWN_VALUES.len() as u64;
        const PER_THREAD: u64 = 100_000;
        let reg = MetricsRegistry::new();
        let counter = reg.counter("hits");
        let histogram = reg.histogram("lat");
        let start = std::sync::Barrier::new(OWN_VALUES.len());
        std::thread::scope(|scope| {
            for own in OWN_VALUES {
                let (counter, histogram, start) = (&counter, &histogram, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        counter.inc();
                        counter.add(2);
                        // Half into a bucket only this thread hits, half
                        // into one every thread hits.
                        histogram.record(if i % 2 == 0 { own } else { 7 });
                    }
                });
            }
        });
        let n = THREADS * PER_THREAD;
        assert_eq!(counter.get(), 3 * n);
        assert_eq!(histogram.count(), n);
        let expected_sum = (PER_THREAD / 2) * OWN_VALUES.iter().sum::<u64>() + (n / 2) * 7;
        assert_eq!(histogram.sum(), expected_sum);
        let snap = histogram.snapshot();
        assert_eq!(snap.max, 1000);
        assert_eq!((snap.count, snap.sum), (n, expected_sum));
        let bucket = |bound: u64| {
            snap.buckets.iter().find(|(b, _)| *b == bound).map(|(_, c)| *c)
        };
        // 7 lands in the (5, 10] bucket together with the second thread's 10s.
        assert_eq!(bucket(1), Some(PER_THREAD / 2));
        assert_eq!(bucket(10), Some(PER_THREAD / 2 + n / 2));
        assert_eq!(bucket(100), Some(PER_THREAD / 2));
        assert_eq!(bucket(1000), Some(PER_THREAD / 2));
        assert_eq!(snap.buckets.iter().map(|(_, c)| *c).sum::<u64>(), n);
        // The registry-wide snapshot reads the same cells as the handles.
        let all = reg.snapshot();
        assert_eq!(all.counters["hits"], counter.get());
        assert_eq!(all.histograms["lat"], snap);
    }

    #[test]
    fn counters_and_gauges_track_values() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5);

        let g = reg.gauge("level");
        g.set(10);
        g.add(-3);
        assert_eq!(reg.gauge("level").get(), 7);
    }

    #[test]
    fn a_handle_is_one_pointer() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<Counter>(), word);
        assert_eq!(std::mem::size_of::<Gauge>(), word);
        assert_eq!(std::mem::size_of::<Histogram>(), word);
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [1u64, 3, 3, 1000, 7_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1 + 3 + 3 + 1000 + 7_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.max, 7_000_000);
        assert_eq!(snap.count, 5);
    }

    #[test]
    fn values_beyond_last_bound_land_in_overflow() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("big");
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.quantile(0.5) >= bucket_bound(HISTOGRAM_BUCKETS - 1) as f64);
    }
}
