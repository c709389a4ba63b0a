//! # vmp-monitor — the streaming health plane
//!
//! The analytics crates answer questions *after* a run; this crate answers
//! them *during* one. A [`HealthMonitor`] consumes session completions the
//! moment they finish (no second pass over collected records), maintains
//! sliding-window aggregates — rebuffer ratio, join failures, fatal-exit
//! rate, mean bitrate, retry counts — keyed by publisher, CDN, region, and
//! (CDN, region) cells, and runs an EWMA + robust-threshold detector per
//! (cell, metric). Anomalies surface as typed [`Alert`]s; [`localize::rank`]
//! turns an alert batch into a ranked culprit list ("cdn=C fatal-exit
//! 0.00→0.31"), and [`score::score_alerts`] grades the whole stream against
//! fault-injection ground truth.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** The monitor never touches an RNG and never reads
//!    wall time; everything keys off the fault clock carried by each view.
//!    Observing a fault-free run raises zero alerts and perturbs nothing.
//! 2. **Bounded memory.** Every cell owns one fixed [`RingWindow`]; total
//!    memory is O(cells × window) regardless of stream length.
//! 3. **Cheap ingest.** [`HealthMonitor::observe`] is a tick computation
//!    plus a handful of adds into at most four ring buckets. Detector
//!    evaluation happens only at tick boundaries, amortized across every
//!    view in the tick.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod alert;
pub mod cell;
pub mod detector;
pub mod localize;
pub mod score;
pub mod view;
pub mod window;

pub use alert::{Alert, Metric, Severity};
pub use cell::Cell;
pub use detector::{Detector, DetectorConfig, Verdict};
pub use localize::{rank, Culprit};
pub use score::{score_alerts, DetectionScore};
pub use view::ViewEnd;
pub use window::{BucketStats, RingWindow, WindowStats};

use vmp_core::cdn::CdnName;
use vmp_core::units::Seconds;
use vmp_session::hooks::{CompletionSink, SessionEnd};

/// Tunables for the whole health plane.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Width of one aggregation tick on the fault clock.
    pub bucket: Seconds,
    /// Window length in ticks (memory per cell is O(window)).
    pub window: usize,
    /// Minimum views in a cell's window before its detectors evaluate;
    /// below this the cell is statistically silent, not "healthy".
    pub min_views: u64,
    /// Region indices at or above this are folded out of the region and
    /// (CDN, region) dimensions (CDN/publisher cells still see the view).
    pub max_regions: usize,
    /// Distinct publishers tracked; later publishers are not celled.
    pub max_publishers: usize,
    /// Shared detector tuning.
    pub detector: DetectorConfig,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            bucket: Seconds(60.0),
            window: 6,
            min_views: 5,
            max_regions: 8,
            max_publishers: 64,
            detector: DetectorConfig::default(),
        }
    }
}

/// Window ring plus one detector per watched metric.
struct CellState {
    ring: RingWindow,
    detectors: [Detector; Metric::ALL.len()],
}

impl CellState {
    fn new(window: usize) -> CellState {
        CellState { ring: RingWindow::new(window), detectors: Default::default() }
    }
}

/// The streaming health plane.
pub struct HealthMonitor {
    config: MonitorConfig,
    /// Tick currently accumulating; evaluated when a later tick arrives.
    current_tick: Option<u64>,
    /// Dense per-CDN cells, indexed by `CdnName::dense_index`.
    cdns: Vec<Option<Box<CellState>>>,
    /// Dense per-region cells, `0..max_regions`.
    regions: Vec<Option<Box<CellState>>>,
    /// Dense (CDN, region) cells, `cdn_dense * max_regions + region`.
    pairs: Vec<Option<Box<CellState>>>,
    /// Sparse publisher cells, insertion-ordered (small by construction).
    publishers: Vec<(u64, CellState)>,
    alerts: Vec<Alert>,
    views_ingested: u64,
    metric_views: vmp_obs::Counter,
    metric_alerts: vmp_obs::Counter,
    metric_ticks: vmp_obs::Counter,
    tick_span: vmp_obs::SpanHandle,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("config", &self.config)
            .field("current_tick", &self.current_tick)
            .field("views_ingested", &self.views_ingested)
            .field("alerts", &self.alerts.len())
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// A monitor with the given tuning.
    pub fn new(config: MonitorConfig) -> HealthMonitor {
        assert!(config.bucket.0 > 0.0, "bucket width must be positive");
        assert!(config.window >= 1, "window must hold at least one tick");
        HealthMonitor {
            config,
            current_tick: None,
            cdns: (0..CdnName::OBSERVED_TOTAL).map(|_| None).collect(),
            regions: (0..config.max_regions).map(|_| None).collect(),
            pairs: (0..CdnName::OBSERVED_TOTAL * config.max_regions).map(|_| None).collect(),
            publishers: Vec::new(),
            alerts: Vec::new(),
            views_ingested: 0,
            metric_views: vmp_obs::counter("monitor.views"),
            metric_alerts: vmp_obs::counter("monitor.alerts"),
            metric_ticks: vmp_obs::counter("monitor.ticks"),
            tick_span: vmp_obs::SpanHandle::new("monitor.tick_eval"),
        }
    }

    /// A monitor with default tuning.
    pub fn with_defaults() -> HealthMonitor {
        HealthMonitor::new(MonitorConfig::default())
    }

    /// The active tuning.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// Ingests one finished view.
    ///
    /// Views must arrive in non-decreasing *tick* order for detectors to
    /// evaluate every tick exactly once (within a tick, any order — window
    /// buckets are commutative sums). A view from an already-evaluated tick
    /// is still accumulated (it will count in later windows) but cannot
    /// retroactively re-run that tick's evaluation.
    pub fn observe(&mut self, v: &ViewEnd) {
        let tick = self.tick_of(v.end_clock);
        match self.current_tick {
            None => self.current_tick = Some(tick),
            Some(current) if tick > current => {
                self.evaluate_tick(current);
                self.current_tick = Some(tick);
            }
            _ => {}
        }

        self.views_ingested += 1;
        self.metric_views.inc();

        let one = BucketStats {
            views: 1,
            fatal: v.fatal as u64,
            joins: v.join_failed as u64,
            retries: v.retries as u64,
            rebuffer: v.rebuffer,
            played: v.played,
            bitrate_sum: if v.played > 0.0 { v.bitrate_kbps } else { 0.0 },
            bitrate_sq: if v.played > 0.0 { v.bitrate_kbps * v.bitrate_kbps } else { 0.0 },
            bitrate_n: (v.played > 0.0) as u64,
        };

        let window = self.config.window;
        let ci = v.cdn.dense_index();
        ingest(&mut self.cdns[ci], window, tick, &one);
        if let Some(r) = v.region.filter(|r| *r < self.config.max_regions) {
            ingest(&mut self.regions[r], window, tick, &one);
            ingest(&mut self.pairs[ci * self.config.max_regions + r], window, tick, &one);
        }
        if let Some(p) = v.publisher {
            match self.publishers.iter_mut().position(|(id, _)| *id == p) {
                Some(i) => merge_into(&mut self.publishers[i].1, tick, &one),
                None if self.publishers.len() < self.config.max_publishers => {
                    let mut state = CellState::new(window);
                    merge_into(&mut state, tick, &one);
                    self.publishers.push((p, state));
                }
                None => {}
            }
        }
    }

    /// Evaluates the still-open tick. Call once after the last view; safe
    /// to call on an empty monitor.
    pub fn finish(&mut self) {
        if let Some(current) = self.current_tick.take() {
            self.evaluate_tick(current);
        }
    }

    /// Every alert raised so far, in raise order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Ranked suspects behind the alerts raised so far.
    pub fn culprits(&self) -> Vec<Culprit> {
        localize::rank(&self.alerts)
    }

    /// Total views ingested.
    pub fn views_ingested(&self) -> u64 {
        self.views_ingested
    }

    /// Cells currently materialized (memory bound = this × window).
    pub fn cell_count(&self) -> usize {
        self.cdns.iter().filter(|c| c.is_some()).count()
            + self.regions.iter().filter(|c| c.is_some()).count()
            + self.pairs.iter().filter(|c| c.is_some()).count()
            + self.publishers.len()
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the clock is clamped at 0; tick numbers fit a u64"
    )]
    fn tick_of(&self, clock: Seconds) -> u64 {
        (clock.0.max(0.0) / self.config.bucket.0) as u64
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "alert times are non-negative seconds; microseconds fit a u64"
    )]
    fn evaluate_tick(&mut self, tick: u64) {
        let _tick_span = self.tick_span.enter();
        self.metric_ticks.inc();
        let cfg = self.config;
        let window_span = (
            Seconds(((tick + 1).saturating_sub(cfg.window as u64)) as f64 * cfg.bucket.0),
            Seconds((tick + 1) as f64 * cfg.bucket.0),
        );
        let recorder = vmp_obs::Recorder::current();
        let tracing = recorder.as_ref().is_some_and(vmp_obs::Recorder::traces);
        let mut raised: Vec<Alert> = Vec::new();

        let mut eval = |cell: Cell, state: &mut CellState| {
            let stats = state.ring.aggregate(tick);
            if stats.totals.views < cfg.min_views {
                return;
            }
            if tracing {
                if let Cell::Cdn(name) = cell {
                    trace_cell(&name, &stats, window_span.1);
                }
            }
            for (i, metric) in Metric::ALL.iter().enumerate() {
                let Some(value) = metric.value(&stats) else { continue };
                let noise = metric.standard_error(&stats);
                match state.detectors[i].evaluate(*metric, value, noise, &cfg.detector) {
                    Verdict::Raise { severity, baseline, z } => raised.push(Alert {
                        cell,
                        metric: *metric,
                        severity,
                        window: window_span,
                        baseline,
                        observed: value,
                        z,
                        views: stats.totals.views,
                        exemplars: Vec::new(),
                    }),
                    Verdict::Healthy | Verdict::Quiet => {}
                }
            }
        };

        for (id, state) in &mut self.publishers {
            eval(Cell::Publisher(*id), state);
        }
        for (i, slot) in self.cdns.iter_mut().enumerate() {
            if let (Some(state), Some(name)) = (slot.as_deref_mut(), CdnName::from_dense_index(i)) {
                eval(Cell::Cdn(name), state);
            }
        }
        for (r, slot) in self.regions.iter_mut().enumerate() {
            if let Some(state) = slot.as_deref_mut() {
                eval(Cell::Region(r), state);
            }
        }
        for (i, slot) in self.pairs.iter_mut().enumerate() {
            if let Some(state) = slot.as_deref_mut() {
                // The pairs vec is indexed by dense-cdn × region, so the
                // inverse lookup can only miss if that sizing broke; skip
                // the slot rather than panic mid-evaluation.
                let Some(name) = CdnName::from_dense_index(i / cfg.max_regions) else {
                    continue;
                };
                eval(Cell::CdnRegion(name, i % cfg.max_regions), state);
            }
        }

        for mut alert in raised {
            self.metric_alerts.inc();
            if let Some(recorder) = &recorder {
                attach_exemplars(recorder, &mut alert);
            }
            if tracing {
                vmp_obs::trace_instant(
                    "monitor.alert",
                    (alert.at().0 * 1e6) as u64,
                    &alert.to_string(),
                );
            }
            self.alerts.push(alert);
        }
    }
}

/// Attaches up to [`alert::MAX_EXEMPLARS`] kept session-trace ids from the
/// alert's culprit cell and window, and records the alert into the trace
/// capture so `vmp-trace exemplars` can resolve it offline. No-op (and the
/// alert's rendering is unchanged) unless the recorder traces sessions
/// (`--session-trace`).
#[expect(
    clippy::cast_possible_truncation,
    reason = "dense CDN indexes are below 36 and regions below 255"
)]
fn attach_exemplars(recorder: &vmp_obs::Recorder, alert: &mut Alert) {
    let query = vmp_obs::ExemplarQuery {
        publisher: match alert.cell {
            Cell::Publisher(p) => Some(p),
            _ => None,
        },
        cdn: alert.cell.cdn().map(|c| c.dense_index() as u8),
        region: alert.cell.region().map(|r| r as u8),
        window: Some((alert.window.0 .0, alert.window.1 .0)),
        limit: alert::MAX_EXEMPLARS,
    };
    let ids = recorder
        .with_sessions(|c| {
            let ids = c.exemplars(&query);
            c.note_alert(alert.to_string(), ids.clone());
            ids
        })
        .unwrap_or_default();
    alert.exemplars = ids;
}

/// Emits one virtual-timeline counter sample per CDN cell per tick.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "cell times are non-negative seconds; microseconds fit a u64"
)]
fn trace_cell(name: &CdnName, stats: &WindowStats, at: Seconds) {
    let series = format!("monitor cdn={name:?}");
    vmp_obs::trace_counter(
        &series,
        (at.0 * 1e6) as u64,
        &[
            ("fatal_rate", stats.fatal_rate().unwrap_or(0.0)),
            ("rebuffer_ratio", stats.rebuffer_ratio().unwrap_or(0.0)),
            ("retry_rate", stats.retry_rate().unwrap_or(0.0)),
            ("views", stats.totals.views as f64),
        ],
    );
}

fn ingest(slot: &mut Option<Box<CellState>>, window: usize, tick: u64, one: &BucketStats) {
    let state = slot.get_or_insert_with(|| Box::new(CellState::new(window)));
    merge_into(state, tick, one);
}

fn merge_into(state: &mut CellState, tick: u64, one: &BucketStats) {
    let b = state.ring.bucket_mut(tick);
    b.views += one.views;
    b.fatal += one.fatal;
    b.joins += one.joins;
    b.retries += one.retries;
    b.rebuffer += one.rebuffer;
    b.played += one.played;
    b.bitrate_sum += one.bitrate_sum;
    b.bitrate_sq += one.bitrate_sq;
    b.bitrate_n += one.bitrate_n;
}

impl CompletionSink for HealthMonitor {
    fn on_session_end(&mut self, end: &SessionEnd) {
        self.observe(&ViewEnd::from_end(end));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_view(cdn: CdnName, region: usize, at: f64, jitter: f64) -> ViewEnd {
        ViewEnd {
            cdn,
            region: Some(region),
            publisher: Some(1),
            end_clock: Seconds(at),
            played: 300.0,
            rebuffer: 1.0 + jitter,
            bitrate_kbps: 2500.0 - 40.0 * jitter,
            retries: 0,
            fatal: false,
            join_failed: false,
        }
    }

    fn broken_view(cdn: CdnName, region: usize, at: f64) -> ViewEnd {
        ViewEnd {
            cdn,
            region: Some(region),
            publisher: Some(1),
            end_clock: Seconds(at),
            played: 0.0,
            rebuffer: 0.0,
            bitrate_kbps: 0.0,
            retries: 6,
            fatal: true,
            join_failed: true,
        }
    }

    /// Deterministic pseudo-noise without any RNG dependency.
    fn jitter(i: u64) -> f64 {
        ((i.wrapping_mul(2654435761) >> 7) % 100) as f64 / 100.0
    }

    /// Maps slot `k` to a (cdn, region) pair so every pair cell gets
    /// steady baseline traffic: cdn cycles with `k % 3`, region with
    /// `(k / 3) % 3`.
    fn slot(k: u64) -> (CdnName, usize) {
        ([CdnName::A, CdnName::B, CdnName::C][(k % 3) as usize], ((k / 3) % 3) as usize)
    }

    fn feed_healthy(monitor: &mut HealthMonitor, ticks: u64, per_tick: u64) {
        let mut i = 0u64;
        for t in 0..ticks {
            for k in 0..per_tick {
                let (cdn, region) = slot(k);
                let at = t as f64 * 60.0 + (k as f64 % 59.0);
                monitor.observe(&healthy_view(cdn, region, at, jitter(i)));
                i += 1;
            }
        }
    }

    #[test]
    fn healthy_stream_raises_no_alerts() {
        let mut monitor = HealthMonitor::with_defaults();
        feed_healthy(&mut monitor, 30, 24);
        monitor.finish();
        assert!(monitor.alerts().is_empty(), "healthy stream must stay silent");
        assert_eq!(monitor.views_ingested(), 30 * 24);
        // 3 cdn + 3 region + 9 pair + 1 publisher cells at minimum.
        assert!(monitor.cell_count() >= 16);
    }

    #[test]
    fn cdn_outage_is_detected_and_localized() {
        let mut monitor = HealthMonitor::with_defaults();
        feed_healthy(&mut monitor, 10, 24);
        // From tick 10, every CdnName::B view dies; A and C stay healthy.
        let mut i = 10_000u64;
        for t in 10..16 {
            for k in 0..24u64 {
                let (cdn, region) = slot(k);
                let at = t as f64 * 60.0 + (k as f64 % 59.0);
                if cdn == CdnName::B {
                    monitor.observe(&broken_view(cdn, region, at));
                } else {
                    monitor.observe(&healthy_view(cdn, region, at, jitter(i)));
                }
                i += 1;
            }
        }
        monitor.finish();
        assert!(!monitor.alerts().is_empty(), "outage must raise alerts");
        // Nothing fired for the healthy CDNs.
        for alert in monitor.alerts() {
            assert_ne!(alert.cell.cdn(), Some(CdnName::A), "{alert}");
            assert_ne!(alert.cell.cdn(), Some(CdnName::C), "{alert}");
        }
        let culprits = monitor.culprits();
        assert_eq!(
            culprits[0].cell.cdn(),
            Some(CdnName::B),
            "top culprit must be the broken CDN: {:?}",
            culprits.iter().map(|c| c.describe()).collect::<Vec<_>>()
        );
        // Detection is fast: the first alert lands within two ticks of onset.
        let first = monitor.alerts()[0].at().0;
        assert!(first <= 12.0 * 60.0, "detected at {first}, onset at 600");
    }

    #[test]
    fn region_scoped_failures_localize_to_the_pair_cell() {
        let mut monitor = HealthMonitor::with_defaults();
        feed_healthy(&mut monitor, 10, 24);
        // Only (B, region 2) breaks; B stays healthy elsewhere, so the pair
        // cell carries the undiluted signal and must outrank Cdn(B).
        let mut i = 50_000u64;
        for t in 10..16 {
            for k in 0..24u64 {
                let (cdn, region) = slot(k);
                let at = t as f64 * 60.0 + (k as f64 % 59.0);
                if cdn == CdnName::B && region == 2 {
                    monitor.observe(&broken_view(cdn, region, at));
                } else {
                    monitor.observe(&healthy_view(cdn, region, at, jitter(i)));
                }
                i += 1;
            }
        }
        monitor.finish();
        let culprits = monitor.culprits();
        assert!(!culprits.is_empty());
        assert_eq!(
            culprits[0].cell,
            Cell::CdnRegion(CdnName::B, 2),
            "{:?}",
            culprits.iter().map(|c| c.describe()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn monitor_is_deterministic_across_runs() {
        let run = || {
            let mut monitor = HealthMonitor::with_defaults();
            feed_healthy(&mut monitor, 8, 18);
            let mut i = 0u64;
            for t in 8..14 {
                for k in 0..18u64 {
                    let at = t as f64 * 60.0 + (k as f64 % 59.0);
                    if k % 3 == 0 {
                        monitor.observe(&broken_view(CdnName::A, 0, at));
                    } else {
                        monitor.observe(&healthy_view(CdnName::B, 1, at, jitter(i)));
                    }
                    i += 1;
                }
            }
            monitor.finish();
            monitor.alerts().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn late_views_accumulate_without_reevaluation() {
        let mut monitor = HealthMonitor::with_defaults();
        feed_healthy(&mut monitor, 6, 12);
        let alerts_before = monitor.alerts().len();
        // A straggler from tick 0 arrives after tick 5 opened.
        monitor.observe(&healthy_view(CdnName::A, 0, 10.0, 0.0));
        monitor.finish();
        assert_eq!(monitor.alerts().len(), alerts_before);
        assert_eq!(monitor.views_ingested(), 6 * 12 + 1);
    }
}
