//! Background resource sampler: periodic RSS / metric snapshots into a
//! bounded timeline ring.
//!
//! [`ResourceSampler::start`] spawns one thread that, every
//! `interval_ms`, captures a [`TimelineSample`] — resident-set size from
//! `/proc/self/statm`, every counter and gauge value, and the
//! count/p50/p90/p99 of every histogram — into a [`TimelineRing`] that
//! keeps the newest `capacity` samples and counts the rest as dropped
//! (memory stays bounded no matter how long the run is). The sampling
//! thread runs under the starting thread's [`crate::Recorder`]: when that
//! recorder collects a Chrome trace, each sample also lands as counter
//! events on the resource trace process ([`crate::trace::PID_RESOURCE`]),
//! so RSS and views/sec curves render beside the span timeline in
//! Perfetto.
//!
//! [`ResourceSampler::stop`] joins the thread and hands back the
//! [`Timeline`]; the run report embeds it as its time-series section.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use serde::Serialize;

use crate::MetricsRegistry;

/// Default ring capacity: at the default 50 ms interval this holds over
/// three minutes of samples — more than any current run needs, at under
/// ~1 MB of timeline state.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 4096;

/// Resident-set size of this process in bytes, from `/proc/self/statm`
/// (second field, in pages; the kernel ABI fixes the page size reported
/// there at 4 KiB only via `sysconf`, so we use the ubiquitous 4096 —
/// exact on every platform this workspace targets). Returns 0 when the
/// proc filesystem is unavailable (non-Linux hosts), keeping the sampler
/// functional with RSS reported as absent rather than failing the run.
pub fn rss_bytes() -> u64 {
    const PAGE_BYTES: u64 = 4096;
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    statm
        .split_whitespace()
        .nth(1)
        .and_then(|pages| pages.parse::<u64>().ok())
        .map_or(0, |pages| pages * PAGE_BYTES)
}

/// Frozen quantiles of one histogram at one sample instant.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramPoint {
    /// Observations so far.
    pub count: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One periodic snapshot of process resources and metric levels.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimelineSample {
    /// Microseconds since the recorder's trace epoch (shared with span
    /// slices, so timeline rows align with the Chrome trace); 0 when the
    /// sampling thread has no recorder.
    pub t_us: u64,
    /// Resident-set size in bytes (0 when `/proc` is unavailable).
    pub rss_bytes: u64,
    /// Absolute counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram quantiles by name (empty histograms omitted).
    pub histograms: BTreeMap<String, HistogramPoint>,
}

/// Bounded FIFO of timeline samples: pushes past `capacity` evict the
/// oldest sample and bump the dropped count, so memory stays constant.
#[derive(Debug)]
pub struct TimelineRing {
    capacity: usize,
    samples: VecDeque<TimelineSample>,
    dropped: u64,
}

impl TimelineRing {
    /// An empty ring keeping the newest `capacity` samples (minimum 1).
    pub fn new(capacity: usize) -> TimelineRing {
        TimelineRing { capacity: capacity.max(1), samples: VecDeque::new(), dropped: 0 }
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, sample: TimelineSample) {
        if self.samples.len() >= self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TimelineSample> {
        self.samples.iter()
    }

    /// Samples evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the ring into an exported timeline.
    fn into_timeline(self, interval_ms: u64) -> Timeline {
        Timeline {
            interval_ms,
            dropped: self.dropped,
            samples: self.samples.into_iter().collect(),
        }
    }
}

/// The exported time-series section: everything the ring retained.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Timeline {
    /// Sampling interval the run was configured with.
    pub interval_ms: u64,
    /// Samples evicted from the bounded ring (oldest-first loss).
    pub dropped: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<TimelineSample>,
}

impl Timeline {
    /// An empty timeline (used when sampling was not armed).
    pub fn empty() -> Timeline {
        Timeline { interval_ms: 0, dropped: 0, samples: Vec::new() }
    }

    /// Peak RSS across retained samples (bytes; 0 when unsampled).
    pub fn peak_rss_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.rss_bytes).max().unwrap_or(0)
    }
}

/// Captures one sample from `registry` right now, stamped on the current
/// thread's recorder's trace epoch. Public so benchmarks can measure the
/// tick cost and callers can take a final sample at a precise boundary
/// (the background thread uses exactly this path).
pub fn sample_now(registry: &MetricsRegistry) -> TimelineSample {
    let snapshot = registry.snapshot();
    let histograms = snapshot
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| {
            (
                name.clone(),
                HistogramPoint { count: h.count, p50: h.p50, p90: h.p90, p99: h.p99 },
            )
        })
        .collect();
    TimelineSample {
        t_us: crate::recorder::with_current(|r| r.chrome_trace().elapsed_us()).unwrap_or(0),
        rss_bytes: rss_bytes(),
        counters: snapshot.counters,
        gauges: snapshot.gauges,
        histograms,
    }
}

/// Handle to the background sampling thread.
#[derive(Debug)]
pub struct ResourceSampler {
    stop: Arc<AtomicBool>,
    ring: Arc<Mutex<TimelineRing>>,
    interval_ms: u64,
    handle: Option<JoinHandle<()>>,
}

impl ResourceSampler {
    /// Spawns the sampling thread against the global registry, under the
    /// calling thread's recorder, keeping [`DEFAULT_TIMELINE_CAPACITY`]
    /// samples.
    pub fn start(interval_ms: u64) -> ResourceSampler {
        let interval_ms = interval_ms.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let ring = Arc::new(Mutex::new(TimelineRing::new(DEFAULT_TIMELINE_CAPACITY)));
        let thread_stop = stop.clone();
        let thread_ring = ring.clone();
        let ticks = crate::counter("obs.timeline_samples");
        let rss_gauge = crate::gauge("obs.rss_bytes");
        let recorder = crate::Recorder::current();
        let handle = std::thread::Builder::new()
            .name("vmp-resource-sampler".to_string())
            .spawn(move || {
                let _installed = recorder.as_ref().map(crate::Recorder::install);
                while !thread_stop.load(Ordering::Relaxed) {
                    let sample = sample_now(crate::global());
                    rss_gauge.set(i64::try_from(sample.rss_bytes).unwrap_or(i64::MAX));
                    ticks.inc();
                    crate::trace::trace_resource(
                        "rss_mb",
                        sample.t_us,
                        &[("rss_mb", sample.rss_bytes as f64 / (1024.0 * 1024.0))],
                    );
                    thread_ring.lock().push(sample);
                    // Sleep in short slices so stop() returns promptly even
                    // at long intervals.
                    let mut remaining = interval_ms;
                    while remaining > 0 && !thread_stop.load(Ordering::Relaxed) {
                        let slice = remaining.min(10);
                        std::thread::sleep(Duration::from_millis(slice));
                        remaining -= slice;
                    }
                }
            })
            .ok();
        ResourceSampler { stop, ring, interval_ms, handle }
    }

    /// Stops the thread, takes one final boundary sample, and returns the
    /// assembled timeline.
    pub fn stop(mut self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let mut ring = std::mem::replace(&mut *self.ring.lock(), TimelineRing::new(1));
        ring.push(sample_now(crate::global()));
        ring.into_timeline(self.interval_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_at(t_us: u64, counter: u64) -> TimelineSample {
        TimelineSample {
            t_us,
            rss_bytes: 1000 + t_us,
            counters: BTreeMap::from([("x".to_string(), counter)]),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_newest() {
        let mut ring = TimelineRing::new(3);
        for i in 0..10u64 {
            ring.push(sample_at(i, i));
        }
        assert_eq!(ring.samples().count(), 3);
        assert_eq!(ring.dropped(), 7);
        let kept: Vec<u64> = ring.samples().map(|s| s.t_us).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn peak_rss_is_the_max_over_retained_samples() {
        let mut ring = TimelineRing::new(10);
        for (t, v) in [(0u64, 0u64), (10, 4), (20, 4), (30, 9)] {
            ring.push(sample_at(t, v));
        }
        let timeline = ring.into_timeline(10);
        assert_eq!(timeline.peak_rss_bytes(), 1030);
    }

    #[test]
    fn sampler_collects_and_stops() {
        let recorder = crate::Recorder::new(crate::Collect::default());
        let _installed = recorder.install();
        let sampler = ResourceSampler::start(1);
        std::thread::sleep(Duration::from_millis(30));
        let timeline = sampler.stop();
        assert!(!timeline.samples.is_empty(), "expected at least the boundary sample");
        // RSS is real on Linux; tolerate 0 elsewhere.
        let last = timeline.samples.last().expect("non-empty");
        assert!(last.t_us > 0);
    }

    #[test]
    fn rss_reads_without_panicking() {
        // On Linux this is the live RSS; elsewhere it must degrade to 0.
        let _ = rss_bytes();
    }
}
