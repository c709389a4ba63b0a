//! The discrete-event playback loop.
//!
//! Fault awareness: every chunk fetch can now fail with a typed
//! [`FetchError`] (outage, origin error burst, timeout). The player reacts
//! the way a production client library does — bounded retries with
//! exponential backoff and deterministic jitter, graceful degradation to the
//! lowest ladder rung while retrying, escalation to broker failover once the
//! retry budget is exhausted, and a clean fatal exit
//! ([`ExitCause::FatalCdnFailure`]) when no alternative CDN exists. All
//! randomness comes from the session RNG, so identical seeds replay
//! identical incidents, and with the default [`RetryPolicy`] (timeouts
//! disabled) a fault-free session consumes exactly the same RNG stream as
//! before this machinery existed.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use crate::live::{LiveWindow, SurgeLayer};
use vmp_abr::algorithm::{AbrAlgorithm, AbrState};
use vmp_abr::network::NetworkModel;
use vmp_abr::predict::{HarmonicMeanPredictor, ThroughputPredictor};
use vmp_cdn::broker::Broker;
use vmp_cdn::budget::RetryBudget;
use vmp_cdn::edge::{CacheOutcome, EdgeCluster};
use vmp_cdn::error::FetchError;
use vmp_cdn::routing::Router;
use vmp_cdn::strategy::CdnStrategy;
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::ladder::BitrateLadder;
use vmp_core::qoe::QoeSummary;
use vmp_core::units::{Bytes, Kbps, Seconds};
use vmp_faults::{FaultInjector, RetryPolicy};
use vmp_obs::session_trace::{self, TraceEventKind};
use vmp_stats::Rng;

/// Session-trace emit with the workspace's CDN naming; compiles down to a
/// relaxed load + branch when tracing is off.
#[inline]
#[expect(clippy::cast_possible_truncation, reason = "dense CDN indexes are below 36")]
fn trace_emit(kind: TraceEventKind, clock: Seconds, cdn: CdnName, code: u32, value: f64) {
    session_trace::emit(kind, clock.0, cdn.dense_index() as u8, code, value);
}

/// Hard cap on mid-session failovers; prevents two broken CDNs from
/// ping-ponging a session forever. Hitting the cap converts the next
/// exhausted retry budget into a fatal exit.
const MAX_FAILOVERS: u32 = 8;

/// Static configuration of one playback session.
#[derive(Debug, Clone)]
pub struct PlaybackConfig {
    /// The advertised ladder.
    pub ladder: BitrateLadder,
    /// Nominal chunk duration.
    pub chunk_duration: Seconds,
    /// Total media length of the title.
    pub content_duration: Seconds,
    /// How much media the user intends to watch before leaving (abandoning
    /// early is the normal case; §4.2 shows short mobile views).
    pub intended_watch: Seconds,
    /// Media buffered before playback starts.
    pub startup_buffer: Seconds,
    /// Maximum client buffer.
    pub max_buffer: Seconds,
    /// Live or VoD (live views cannot buffer ahead beyond the live edge;
    /// modeled via a tight `max_buffer`).
    pub class: ContentClass,
    /// Where on the shared fault timeline this session starts. Sessions in
    /// a cohort get staggered offsets so an incident hits them mid-stream,
    /// at startup, or not at all.
    pub start_offset: Seconds,
    /// Retry/backoff/timeout policy for failed chunk fetches. The default
    /// disables timeouts, so fault-free simulations behave exactly as they
    /// did before fault injection existed.
    pub retry: RetryPolicy,
    /// When set, this session follows a shared live event: chunk keys
    /// derive from the event's media sequence (so every viewer at the live
    /// edge requests the same bytes) and the player waits out segment
    /// publish times instead of racing ahead of the encoder. `None` (the
    /// default) keeps the original per-session VoD keying.
    pub live_window: Option<LiveWindow>,
}

impl PlaybackConfig {
    /// A standard VoD session watching `watch` of a `content`-long title.
    pub fn vod(ladder: BitrateLadder, content: Seconds, watch: Seconds) -> PlaybackConfig {
        PlaybackConfig {
            ladder,
            chunk_duration: Seconds(6.0),
            content_duration: content,
            intended_watch: watch,
            startup_buffer: Seconds(6.0),
            max_buffer: Seconds(60.0),
            class: ContentClass::Vod,
            start_offset: Seconds::ZERO,
            retry: RetryPolicy::default(),
            live_window: None,
        }
    }

    /// A live session: small buffer, bounded by the event length.
    pub fn live(ladder: BitrateLadder, event: Seconds, watch: Seconds) -> PlaybackConfig {
        PlaybackConfig {
            ladder,
            chunk_duration: Seconds(4.0),
            content_duration: event,
            intended_watch: watch,
            startup_buffer: Seconds(4.0),
            max_buffer: Seconds(12.0),
            class: ContentClass::Live,
            start_offset: Seconds::ZERO,
            retry: RetryPolicy::default(),
            live_window: None,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.chunk_duration.0 <= 0.0 {
            return Err("chunk duration must be positive".into());
        }
        if self.content_duration.0 < 0.0 || self.intended_watch.0 < 0.0 {
            return Err("durations must be non-negative".into());
        }
        if self.max_buffer.0 < self.chunk_duration.0 {
            return Err("max buffer must hold at least one chunk".into());
        }
        if self.start_offset.0 < 0.0 {
            return Err("start offset must be non-negative".into());
        }
        self.retry.validate()
    }
}

/// One chunk (or manifest) fetch as the CDN substrate sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkRequest {
    /// The CDN being asked.
    pub cdn: CdnName,
    /// Opaque chunk key (content + bitrate addressed).
    pub key: u64,
    /// Requested bytes.
    pub size: Bytes,
    /// The session's fault clock at request time (virtual seconds on the
    /// shared incident timeline, never wall time).
    pub clock: Seconds,
    /// Whether the session is still joining (has not started playback).
    /// Admission control sheds joining requests before in-progress ones.
    pub joining: bool,
}

/// Multi-CDN context: broker-driven selection and mid-stream failover.
pub struct MultiCdnContext<'a> {
    /// The broker making per-view and failover decisions.
    pub broker: &'a Broker,
    /// The publisher's CDN strategy.
    pub strategy: &'a CdnStrategy,
    /// Per-chunk probability that the current CDN fails for this client
    /// (legacy client-perceived failure, independent of injected faults).
    pub failure_probability: f64,
    /// Whether the client escalates to [`Broker::failover`] at all. Off
    /// models a naive player that rides a broken CDN down.
    pub failover_enabled: bool,
    /// Whether fetch failures/successes feed the broker's circuit breakers
    /// so selection routes around quarantined CDNs.
    pub health_gate: bool,
    /// The shared fault plan, if this cohort runs under injected faults.
    pub faults: Option<&'a FaultInjector>,
    /// Shared per-CDN retry budget, layered over per-session backoff. When
    /// the budget denies a retry the session escalates straight to
    /// failover instead of hammering the struggling CDN. `None` keeps the
    /// original unbudgeted behaviour.
    pub retry_budget: Option<&'a RetryBudget>,
    /// Per-CDN infrastructure: router and shared edge cluster.
    pub infrastructure: &'a mut dyn FnMut(&ChunkRequest, &mut Rng) -> Result<ChunkServe, FetchError>,
}

impl std::fmt::Debug for MultiCdnContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiCdnContext")
            .field("failure_probability", &self.failure_probability)
            .field("failover_enabled", &self.failover_enabled)
            .field("health_gate", &self.health_gate)
            .finish_non_exhaustive()
    }
}

/// How the CDN served one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkServe {
    /// Edge cache outcome (miss adds origin fetch latency).
    pub cache: CacheOutcome,
    /// Whether this miss coalesced onto an in-flight origin fetch at the
    /// origin shield (cheaper than a dedicated origin round trip).
    pub coalesced: bool,
    /// Whether an anycast route flap reset the connection.
    pub connection_reset: bool,
    /// Multiplier on delivered throughput, `(0, 1]`; below 1 during an
    /// injected degraded-throughput window.
    pub throughput_factor: f64,
}

impl ChunkServe {
    /// A plain edge hit with no reset at full throughput.
    pub fn hit() -> ChunkServe {
        ChunkServe { cache: CacheOutcome::Hit, coalesced: false, connection_reset: false, throughput_factor: 1.0 }
    }
}

/// Why the session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCause {
    /// The viewer watched everything they intended to.
    Completed,
    /// Retries and failover were exhausted with no serving CDN left —
    /// including the single-CDN case where [`Broker::failover`] has no
    /// alternative to offer and returns `None`.
    FatalCdnFailure,
}

/// Builds the one [`MultiCdnContext::infrastructure`] closure: the ordered
/// delivery pipeline every chunk request passes through, over per-CDN
/// routers and edge clusters. Exposed so callers (the cohort runner,
/// examples) don't repeat the plumbing.
///
/// Order per request: scheduled outage → pending edge-cache flushes since
/// the last request → **admission control** (over-capacity requests shed
/// with [`FetchError::Shed`], new joins first) → anycast routing → **origin
/// shield** (a miss that races an in-flight origin fetch coalesces instead
/// of hitting the origin) → edge fetch → origin error burst (only on a
/// cache miss — a hit never touches the origin) → degraded-throughput
/// multiplier. The two stages in bold run iff a [`SurgeLayer`] is passed.
///
/// RNG discipline: fault queries draw only inside active probabilistic
/// windows and the surge layer never draws, so `faults: None` consumes the
/// same stream as the pre-fault implementation, and a surge layer with
/// nothing to shed or coalesce consumes the same stream as `surge: None`.
pub fn infrastructure_fn<'a>(
    routers: &'a BTreeMap<CdnName, Router>,
    edges: &'a mut BTreeMap<CdnName, EdgeCluster>,
    region_index: usize,
    faults: Option<&'a FaultInjector>,
    mut surge: Option<&'a mut SurgeLayer>,
) -> impl FnMut(&ChunkRequest, &mut Rng) -> Result<ChunkServe, FetchError> + 'a {
    let mut last_flush: BTreeMap<CdnName, Seconds> = BTreeMap::new();
    move |req, rng| {
        let cdn = req.cdn;
        let region = Some(region_index);
        if let Some(fi) = faults {
            if fi.outage_in(cdn, region, req.clock) {
                return Err(FetchError::Outage { cdn });
            }
            let since = last_flush.get(&cdn).copied().unwrap_or(Seconds::ZERO);
            if fi.cache_flush_between_in(cdn, region, since, req.clock) {
                if let Some(e) = edges.get_mut(&cdn) {
                    e.flush_all();
                }
            }
            last_flush.insert(cdn, req.clock);
        }
        let (capacity, mut shield) = match surge.as_deref_mut() {
            Some(s) => (s.capacity.get_mut(&cdn), s.shields.get_mut(&cdn)),
            None => (None, None),
        };
        if capacity.is_some_and(|c| !c.admit(region_index, req.clock, req.joining)) {
            trace_emit(TraceEventKind::Shed, req.clock, cdn, u32::from(req.joining), 0.0);
            return Err(FetchError::Shed { cdn });
        }
        let reset = routers
            .get(&cdn)
            .map(|r| r.route_chunk(req.key, rng).connection_reset)
            .unwrap_or(false);
        let edge_key = req.key ^ (cdn.dense_index() as u64) << 56;
        // An origin fetch for this chunk already in flight: wait on it
        // instead of stampeding the origin. The payload is byte-identical
        // to the leader's, and origin-error bursts cannot strike a request
        // that never reaches the origin.
        let coalesced = shield.as_mut().is_some_and(|s| s.coalesce(edge_key, req.clock));
        let cache = if coalesced {
            trace_emit(TraceEventKind::Coalesce, req.clock, cdn, 0, 0.0);
            CacheOutcome::Miss
        } else {
            match edges.get_mut(&cdn) {
                Some(e) => e.fetch(region_index, edge_key, req.size)?,
                None => CacheOutcome::Hit,
            }
        };
        if cache == CacheOutcome::Miss && !coalesced {
            if let Some(s) = shield {
                s.begin_fetch(edge_key, req.clock);
            }
            if let Some(fi) = faults {
                if fi.origin_error_in(cdn, region, req.clock, rng) {
                    return Err(FetchError::OriginUnavailable { cdn });
                }
            }
        }
        let throughput_factor =
            faults.map(|fi| fi.throughput_factor_in(cdn, region, req.clock)).unwrap_or(1.0);
        Ok(ChunkServe { cache, coalesced, connection_reset: reset, throughput_factor })
    }
}

/// Result of a simulated view.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// Per-view QoE summary.
    pub qoe: QoeSummary,
    /// Bitrate chosen for each downloaded chunk.
    pub bitrates_used: Vec<Kbps>,
    /// CDNs used, in order of first use (≥ 1 entry).
    pub cdns: Vec<CdnName>,
    /// Media actually downloaded (= played, since users leave at
    /// `intended_watch`).
    pub downloaded: Seconds,
    /// Why the session ended.
    pub exit: ExitCause,
    /// Failed fetch attempts that were retried (or escalated).
    pub retries: u32,
    /// How many of those failures were chunk timeouts.
    pub timeouts: u32,
    /// Fault-clock time when the session ended (start offset plus every
    /// download, backoff, and pacing wait). Streaming consumers key their
    /// windows off this, never off wall time.
    pub end_clock: Seconds,
}

/// Cached handles into the global metrics registry, resolved once per
/// process so neither building a player nor its per-chunk hot loop takes
/// the registry lock.
struct SessionMetrics {
    play_span: vmp_obs::SpanHandle,
    sessions: vmp_obs::Counter,
    chunks_fetched: vmp_obs::Counter,
    chunk_download_us: vmp_obs::Histogram,
    rebuffer_events: vmp_obs::Counter,
    bitrate_switches: vmp_obs::Counter,
    cdn_switches: vmp_obs::Counter,
    startup_delay_us: vmp_obs::Histogram,
    retries: vmp_obs::Counter,
    timeouts: vmp_obs::Counter,
    manifest_retries: vmp_obs::Counter,
    fatal_exits: vmp_obs::Counter,
}

impl SessionMetrics {
    fn get() -> &'static SessionMetrics {
        static METRICS: OnceLock<SessionMetrics> = OnceLock::new();
        METRICS.get_or_init(|| SessionMetrics {
            play_span: vmp_obs::SpanHandle::new("session.play"),
            sessions: vmp_obs::counter("session.sessions"),
            chunks_fetched: vmp_obs::counter("session.chunks_fetched"),
            chunk_download_us: vmp_obs::histogram("session.chunk_download_us"),
            rebuffer_events: vmp_obs::counter("session.rebuffer_events"),
            bitrate_switches: vmp_obs::counter("session.bitrate_switches"),
            cdn_switches: vmp_obs::counter("session.cdn_switches"),
            startup_delay_us: vmp_obs::histogram("session.startup_delay_us"),
            retries: vmp_obs::counter("session.retries"),
            timeouts: vmp_obs::counter("session.timeouts"),
            manifest_retries: vmp_obs::counter("session.manifest_retries"),
            fatal_exits: vmp_obs::counter("session.fatal_exits"),
        })
    }
}

/// Failover wiring threaded through [`Player::run`].
struct FailoverCtx<'a> {
    broker: &'a Broker,
    strategy: &'a CdnStrategy,
    p_fail: f64,
    enabled: bool,
    health_gate: bool,
    retry_budget: Option<&'a RetryBudget>,
}

/// Consults the shared retry budget (when one is wired) before a backoff
/// retry. Granting spends a token; denial converts the retry into an
/// immediate failover escalation.
fn budget_grants(failover: &Option<FailoverCtx<'_>>, cdn: CdnName, now: Seconds) -> bool {
    match failover {
        Some(FailoverCtx { retry_budget: Some(budget), .. }) => budget.try_spend(cdn, now),
        _ => true,
    }
}

/// The player: owns the per-session mutable state.
pub struct Player<'a> {
    config: PlaybackConfig,
    network: NetworkModel,
    abr: &'a dyn AbrAlgorithm,
    metrics: &'static SessionMetrics,
}

impl std::fmt::Debug for Player<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Player")
            .field("config", &self.config)
            .field("abr", &self.abr.name())
            .finish_non_exhaustive()
    }
}

impl<'a> Player<'a> {
    /// Creates a player.
    pub fn new(
        config: PlaybackConfig,
        network: NetworkModel,
        abr: &'a dyn AbrAlgorithm,
    ) -> Result<Player<'a>, String> {
        config.validate()?;
        Ok(Player { config, network, abr, metrics: SessionMetrics::get() })
    }

    /// Plays a single-CDN session with ideal (always-hit) edges.
    pub fn play(&mut self, cdn: CdnName, rng: &mut Rng) -> SessionOutcome {
        self.play_with(cdn, None, rng)
    }

    /// Plays a single-CDN session with ideal edges under an optional fault
    /// plan. With no failover available, an outage that outlasts the retry
    /// budget ends the session with [`ExitCause::FatalCdnFailure`].
    pub fn play_with(
        &mut self,
        cdn: CdnName,
        faults: Option<&FaultInjector>,
        rng: &mut Rng,
    ) -> SessionOutcome {
        let mut serve = move |req: &ChunkRequest, _r: &mut Rng| {
            if let Some(fi) = faults {
                if fi.outage(req.cdn, req.clock) {
                    return Err(FetchError::Outage { cdn: req.cdn });
                }
                let mut served = ChunkServe::hit();
                served.throughput_factor = fi.throughput_factor(req.cdn, req.clock);
                return Ok(served);
            }
            Ok(ChunkServe::hit())
        };
        self.run(cdn, None, faults, &mut serve, rng)
    }

    /// Plays a session against real CDN infrastructure, with optional
    /// broker-driven failover.
    pub fn play_multi_cdn(&mut self, ctx: &mut MultiCdnContext<'_>, rng: &mut Rng) -> SessionOutcome {
        let initial = if ctx.health_gate {
            ctx.broker.select_at(ctx.strategy, self.config.class, self.config.start_offset, rng)
        } else {
            ctx.broker.select(ctx.strategy, self.config.class, rng)
        }
        .or_else(|| ctx.strategy.cdns().first().copied())
        .unwrap_or(CdnName::A);
        let failover = FailoverCtx {
            broker: ctx.broker,
            strategy: ctx.strategy,
            p_fail: ctx.failure_probability,
            enabled: ctx.failover_enabled,
            health_gate: ctx.health_gate,
            retry_budget: ctx.retry_budget,
        };
        // Split borrows: the closure is separate from the broker references.
        let serve = &mut *ctx.infrastructure;
        self.run(initial, Some(failover), ctx.faults, serve, rng)
    }

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "non-negative durations and rates; `as` saturates"
    )]
    fn run(
        &mut self,
        initial_cdn: CdnName,
        failover: Option<FailoverCtx<'_>>,
        faults: Option<&FaultInjector>,
        serve: &mut dyn FnMut(&ChunkRequest, &mut Rng) -> Result<ChunkServe, FetchError>,
        rng: &mut Rng,
    ) -> SessionOutcome {
        let _play_span = self.metrics.play_span.enter();
        let cfg = &self.config;
        let target = Seconds(cfg.intended_watch.0.min(cfg.content_duration.0));
        let mut predictor = HarmonicMeanPredictor::new(5);
        self.metrics.sessions.inc();

        let mut cdn = initial_cdn;
        let mut cdns = vec![cdn];
        // One entry per chunk of the target; sized once (the float-to-int
        // cast saturates, and a NaN target plays nothing).
        let mut bitrates_used =
            Vec::with_capacity((target.0 / cfg.chunk_duration.0).ceil() as usize);
        let mut buffer = Seconds::ZERO;
        let mut started = false;
        let mut startup_delay = Seconds::ZERO;
        let mut rebuffer = Seconds::ZERO;
        let mut downloaded = Seconds::ZERO;
        let mut weighted_bits = 0.0f64;
        let mut switches = 0u32;
        let mut cdn_switches = 0u32;
        let mut last_bitrate = Kbps::ZERO;
        let mut chunk_index = 0u64;
        let mut live_seq: Option<u64> = None;
        let mut clock = cfg.start_offset;
        let mut retries = 0u32;
        let mut timeouts = 0u32;
        let mut failovers = 0u32;
        let mut exit = ExitCause::Completed;

        // Manifest fetch: under faults the manifest itself can fail; retry
        // with backoff, then fail over, then give up fatally.
        if let Some(fi) = faults {
            let mut attempt = 0u32;
            while fi.manifest_failure(cdn, clock, rng) {
                retries += 1;
                self.metrics.manifest_retries.inc();
                trace_emit(TraceEventKind::ManifestRetry, clock, cdn, attempt, 0.0);
                if let Some(fo) = &failover {
                    if fo.health_gate {
                        fo.broker.record_fetch_failure(cdn, clock);
                    }
                }
                if attempt < cfg.retry.max_retries && budget_grants(&failover, cdn, clock) {
                    let wait = cfg.retry.backoff(attempt, rng);
                    clock += wait;
                    startup_delay += wait;
                    trace_emit(TraceEventKind::Backoff, clock, cdn, attempt, wait.0);
                    attempt += 1;
                    continue;
                }
                let mut switched = false;
                if let Some(fo) = &failover {
                    if fo.enabled && failovers < MAX_FAILOVERS {
                        if let Some(next) =
                            fo.broker.failover_at(fo.strategy, cfg.class, cdn, clock, rng)
                        {
                            failovers += 1;
                            cdn = next;
                            if !cdns.contains(&cdn) {
                                cdns.push(cdn);
                            }
                            cdn_switches += 1;
                            self.metrics.cdn_switches.inc();
                            trace_emit(TraceEventKind::CdnSwitch, clock, next, 0, 0.0);
                            attempt = 0;
                            switched = true;
                        }
                    }
                }
                if !switched {
                    exit = ExitCause::FatalCdnFailure;
                    self.metrics.fatal_exits.inc();
                    trace_emit(TraceEventKind::Fatal, clock, cdn, 4, 0.0);
                    break;
                }
            }
        }

        while exit == ExitCause::Completed && downloaded.0 + 1e-9 < target.0 {
            let this_chunk = Seconds(cfg.chunk_duration.0.min(target.0 - downloaded.0));
            // Legacy client-perceived CDN failure check. The chance() draw
            // happens unconditionally so RNG streams don't depend on the
            // failover_enabled flag.
            if let Some(fo) = &failover {
                if rng.chance(fo.p_fail) && fo.enabled {
                    if let Some(next) = fo.broker.failover_at(fo.strategy, cfg.class, cdn, clock, rng)
                    {
                        cdn = next;
                        if !cdns.contains(&cdn) {
                            cdns.push(cdn);
                        }
                        cdn_switches += 1;
                        self.metrics.cdn_switches.inc();
                        trace_emit(TraceEventKind::CdnSwitch, clock, next, 0, 0.0);
                        predictor.reset();
                    }
                }
            }
            // ABR decision.
            let state = AbrState {
                buffer,
                predicted_throughput: predictor.estimate(),
                last_bitrate,
                chunk_duration: cfg.chunk_duration,
            };
            let chosen = self.abr.choose(&cfg.ladder, &state);

            // Live pacing: the next segment may not be published yet. The
            // player idles at the live edge until the encoder finishes it —
            // a clock-only advance, same idiom as the max-buffer pacing
            // below (media keeps playing during the wait). A viewer who
            // slid out of the manifest window jumps forward to rejoin it.
            if let Some(lw) = &cfg.live_window {
                let next = match live_seq {
                    None => lw.sequence_at(clock),
                    Some(prev) => (prev + 1).max(lw.oldest_at(clock)),
                };
                let publish = lw.publish_time(next);
                if publish.0 > clock.0 {
                    clock = publish;
                }
                live_seq = Some(next);
            }
            // Download, with bounded retries. Retries degrade to the lowest
            // rung: while a CDN is misbehaving the client fights for liveness,
            // not quality.
            let mut attempt = 0u32;
            let mut chunk_wait = Seconds::ZERO;
            let outcome = loop {
                let bitrate = if attempt == 0 { chosen } else { cfg.ladder.min().bitrate };
                let size = bitrate.bytes_for(this_chunk);
                let throughput = self.network.next_throughput(rng);
                let rtt = self.network.rtt(rng);
                let key = match (&cfg.live_window, live_seq) {
                    (Some(lw), Some(seq)) => lw.chunk_key(seq, bitrate),
                    _ => chunk_index ^ (bitrate.0 as u64) << 40,
                };
                let req = ChunkRequest { cdn, key, size, clock, joining: !started };
                let failure = match serve(&req, rng) {
                    Err(e) => e,
                    Ok(served) => {
                        let mut latency = rtt.0;
                        if served.cache == CacheOutcome::Miss {
                            // A coalesced miss waits on an in-flight origin
                            // fetch (roughly half a round trip on average)
                            // instead of paying a full one.
                            latency += if served.coalesced { 1.5 * rtt.0 } else { 3.0 * rtt.0 };
                        }
                        if served.connection_reset {
                            latency += 2.0 * rtt.0; // TCP reconnect after a route flap
                        }
                        let factor = served.throughput_factor.max(0.01);
                        let transfer =
                            size.0 as f64 * 8.0 / (throughput.bits_per_sec() as f64 * factor);
                        let download_time = Seconds(transfer + latency);
                        if cfg.retry.timeouts_enabled() && download_time.0 > cfg.retry.timeout.0 {
                            timeouts += 1;
                            self.metrics.timeouts.inc();
                            // The client waited out the whole timeout.
                            chunk_wait += cfg.retry.timeout;
                            clock += cfg.retry.timeout;
                            trace_emit(
                                TraceEventKind::Timeout,
                                clock,
                                cdn,
                                attempt,
                                cfg.retry.timeout.0,
                            );
                            FetchError::Timeout { cdn }
                        } else {
                            break Ok((bitrate, size, download_time, throughput));
                        }
                    }
                };
                retries += 1;
                self.metrics.retries.inc();
                if !matches!(failure, FetchError::Timeout { .. }) {
                    trace_emit(TraceEventKind::ChunkError, clock, cdn, failure.trace_code(), 0.0);
                }
                trace_emit(TraceEventKind::Retry, clock, cdn, attempt, 0.0);
                if let Some(fo) = &failover {
                    if fo.health_gate {
                        fo.broker.record_fetch_failure(cdn, clock);
                    }
                }
                if attempt < cfg.retry.max_retries && budget_grants(&failover, cdn, clock) {
                    let wait = cfg.retry.backoff(attempt, rng);
                    chunk_wait += wait;
                    clock += wait;
                    trace_emit(TraceEventKind::Backoff, clock, cdn, attempt, wait.0);
                    attempt += 1;
                    continue;
                }
                // Retry budget exhausted: escalate to broker failover.
                let mut switched = false;
                if let Some(fo) = &failover {
                    if fo.enabled && failovers < MAX_FAILOVERS {
                        if let Some(next) =
                            fo.broker.failover_at(fo.strategy, cfg.class, cdn, clock, rng)
                        {
                            failovers += 1;
                            cdn = next;
                            if !cdns.contains(&cdn) {
                                cdns.push(cdn);
                            }
                            cdn_switches += 1;
                            self.metrics.cdn_switches.inc();
                            trace_emit(TraceEventKind::CdnSwitch, clock, next, 0, 0.0);
                            predictor.reset();
                            attempt = 0;
                            switched = true;
                        }
                    }
                }
                if !switched {
                    break Err(failure);
                }
            };

            let (bitrate, size, download_time, throughput) = match outcome {
                Ok(success) => success,
                Err(e) => {
                    // No CDN can serve this chunk: fatal exit. The time spent
                    // failing still counts against QoE.
                    exit = ExitCause::FatalCdnFailure;
                    self.metrics.fatal_exits.inc();
                    trace_emit(TraceEventKind::Fatal, clock, cdn, e.trace_code(), 0.0);
                    if started {
                        rebuffer += chunk_wait;
                    } else {
                        startup_delay += chunk_wait;
                    }
                    break;
                }
            };
            if let Some(fo) = &failover {
                if fo.health_gate {
                    fo.broker.record_fetch_success(cdn);
                }
            }
            if last_bitrate != Kbps::ZERO && bitrate != last_bitrate {
                switches += 1;
                self.metrics.bitrate_switches.inc();
                trace_emit(TraceEventKind::AbrSwitch, clock, cdn, bitrate.0, 0.0);
            }
            self.metrics.chunks_fetched.inc();
            // Simulated (virtual-clock) download time, in microseconds.
            self.metrics.chunk_download_us.record((download_time.0 * 1e6) as u64);
            clock += download_time;
            trace_emit(TraceEventKind::ChunkFetch, clock, cdn, bitrate.0, download_time.0);

            // Buffer dynamics. Retry waits stall playback exactly like slow
            // downloads do.
            let elapsed = Seconds(download_time.0 + chunk_wait.0);
            if !started {
                startup_delay += elapsed;
                buffer += this_chunk;
                if buffer.0 >= cfg.startup_buffer.0.min(target.0) {
                    started = true;
                }
            } else {
                let after_drain = buffer.0 - elapsed.0;
                if after_drain < 0.0 {
                    rebuffer += Seconds(-after_drain);
                    buffer = Seconds::ZERO;
                    self.metrics.rebuffer_events.inc();
                    session_trace::emit(
                        TraceEventKind::Rebuffer,
                        clock.0,
                        session_trace::NO_CDN,
                        0,
                        -after_drain,
                    );
                } else {
                    buffer = Seconds(after_drain);
                }
                buffer += this_chunk;
                if buffer.0 > cfg.max_buffer.0 {
                    // Pace: the player idles while the buffer drains to the
                    // cap. No stall — media plays during the wait, and the
                    // fault clock advances with it.
                    clock += Seconds(buffer.0 - cfg.max_buffer.0);
                    buffer = cfg.max_buffer;
                }
            }

            // Bookkeeping.
            let effective_throughput = if download_time.0 > 0.0 {
                Kbps((size.0 as f64 * 8.0 / download_time.0 / 1000.0) as u32)
            } else {
                throughput
            };
            predictor.observe(effective_throughput);
            weighted_bits += bitrate.0 as f64 * this_chunk.0;
            bitrates_used.push(bitrate);
            last_bitrate = bitrate;
            downloaded += this_chunk;
            chunk_index += 1;
        }

        self.metrics.startup_delay_us.record((startup_delay.0 * 1e6) as u64);
        let played = downloaded;
        let avg_bitrate = if played.0 > 0.0 {
            Kbps((weighted_bits / played.0) as u32)
        } else {
            Kbps::ZERO
        };
        SessionOutcome {
            qoe: QoeSummary {
                avg_bitrate,
                played,
                rebuffer_time: rebuffer,
                startup_delay,
                bitrate_switches: switches,
                cdn_switches,
            },
            bitrates_used,
            cdns,
            downloaded,
            exit,
            retries,
            timeouts,
            end_clock: clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_abr::algorithm::{Bba, ThroughputRule};
    use vmp_abr::network::NetworkProfile;
    use vmp_cdn::broker::BrokerPolicy;
    use vmp_cdn::strategy::{CdnAssignment, CdnScope};
    use vmp_core::geo::ConnectionType;
    use vmp_faults::FaultProfile;

    fn ladder() -> BitrateLadder {
        BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6400]).unwrap()
    }

    fn network(quality: f64) -> NetworkModel {
        NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, quality))
    }

    fn two_cdn_strategy() -> CdnStrategy {
        CdnStrategy::new(vec![
            CdnAssignment { cdn: CdnName::A, weight: 1.0, scope: CdnScope::All },
            CdnAssignment { cdn: CdnName::B, weight: 1.0, scope: CdnScope::All },
        ])
        .unwrap()
    }

    fn play_once(quality: f64, seed: u64) -> SessionOutcome {
        let cfg = PlaybackConfig::vod(ladder(), Seconds(1200.0), Seconds(600.0));
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(quality), &abr).unwrap();
        let mut rng = Rng::seed_from(seed);
        player.play(CdnName::A, &mut rng)
    }

    #[test]
    fn watches_exactly_the_intended_duration() {
        let out = play_once(1.0, 1);
        assert!((out.downloaded.0 - 600.0).abs() < 1e-6);
        assert!((out.qoe.played.0 - 600.0).abs() < 1e-6);
        assert_eq!(out.cdns, vec![CdnName::A]);
        assert_eq!(out.exit, ExitCause::Completed);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn average_bitrate_within_ladder_bounds() {
        for seed in 0..10 {
            let out = play_once(1.0, seed);
            assert!(out.qoe.avg_bitrate >= Kbps(400));
            assert!(out.qoe.avg_bitrate <= Kbps(6400));
        }
    }

    #[test]
    fn better_network_gives_better_qoe() {
        let n = 30;
        let avg = |q: f64| {
            (0..n).map(|s| play_once(q, s).qoe.avg_bitrate.0 as f64).sum::<f64>() / n as f64
        };
        let rebuf = |q: f64| {
            (0..n).map(|s| play_once(q, s).qoe.rebuffer_ratio()).sum::<f64>() / n as f64
        };
        assert!(avg(1.5) > avg(0.3), "bitrate: {} vs {}", avg(1.5), avg(0.3));
        assert!(rebuf(0.2) >= rebuf(1.5), "rebuffer: {} vs {}", rebuf(0.2), rebuf(1.5));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = play_once(1.0, 42);
        let b = play_once(1.0, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn qoe_invariants_hold() {
        for seed in 0..20 {
            let out = play_once(0.4, seed);
            assert!(out.qoe.rebuffer_time.0 >= 0.0);
            assert!(out.qoe.startup_delay.0 >= 0.0);
            let ratio = out.qoe.rebuffer_ratio();
            assert!((0.0..=1.0).contains(&ratio));
            assert_eq!(out.bitrates_used.len() as f64, (600.0f64 / 6.0).ceil());
        }
    }

    #[test]
    fn short_view_shorter_than_content() {
        let cfg = PlaybackConfig::vod(ladder(), Seconds(120.0), Seconds(1_000_000.0));
        let abr = Bba::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(7);
        let out = player.play(CdnName::B, &mut rng);
        // Capped at content length.
        assert!((out.downloaded.0 - 120.0).abs() < 1e-6);
    }

    #[test]
    fn zero_watch_is_safe() {
        let cfg = PlaybackConfig::vod(ladder(), Seconds(120.0), Seconds(0.0));
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(8);
        let out = player.play(CdnName::A, &mut rng);
        assert_eq!(out.bitrates_used.len(), 0);
        assert_eq!(out.qoe.avg_bitrate, Kbps::ZERO);
        assert_eq!(out.qoe.rebuffer_ratio(), 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(100.0), Seconds(50.0));
        cfg.chunk_duration = Seconds(0.0);
        assert!(Player::new(cfg, network(1.0), &ThroughputRule::default()).is_err());
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(100.0), Seconds(50.0));
        cfg.max_buffer = Seconds(1.0);
        assert!(Player::new(cfg, network(1.0), &ThroughputRule::default()).is_err());
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(100.0), Seconds(50.0));
        cfg.retry.jitter = 5.0; // >= backoff_factor - 1 breaks monotonicity
        assert!(Player::new(cfg, network(1.0), &ThroughputRule::default()).is_err());
    }

    #[test]
    fn multi_cdn_failover_switches_cdns() {
        let strategy = two_cdn_strategy();
        let broker = Broker::new(BrokerPolicy::Weighted);
        let cfg = PlaybackConfig::vod(ladder(), Seconds(3600.0), Seconds(1800.0));
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut infra = |_req: &ChunkRequest, _r: &mut Rng| Ok(ChunkServe::hit());
        let mut ctx = MultiCdnContext {
            broker: &broker,
            strategy: &strategy,
            failure_probability: 0.05,
            failover_enabled: true,
            health_gate: false,
            faults: None,
            retry_budget: None,
            infrastructure: &mut infra,
        };
        let mut rng = Rng::seed_from(11);
        let out = player.play_multi_cdn(&mut ctx, &mut rng);
        assert!(out.qoe.cdn_switches > 0, "expected at least one failover");
        assert_eq!(out.cdns.len(), 2);
    }

    /// The delivery closure's RNG claim: the surge stages never draw, so a
    /// layer with nothing to shed or coalesce is indistinguishable from
    /// none — over shared edges, under faults, with failover on.
    #[test]
    fn an_empty_surge_layer_is_the_same_pipeline() {
        let cdns = [CdnName::A, CdnName::B, CdnName::C];
        let assignments = cdns.map(|cdn| CdnAssignment { cdn, weight: 1.0, scope: CdnScope::All });
        let strategy = CdnStrategy::new(assignments.to_vec()).unwrap();
        let injector = FaultInjector::new(FaultProfile::cdn_brownout(CdnName::A));
        let routers = BTreeMap::from(cdns.map(|c| (c, Router::for_cdn(c, 8))));
        let abr = ThroughputRule::default();
        let play_cohort = |mut surge: Option<SurgeLayer>| {
            let broker = Broker::new(BrokerPolicy::Weighted);
            let mut edges = BTreeMap::from(cdns.map(|c| (c, EdgeCluster::new(3, Bytes(50_000_000)))));
            let mut rng = Rng::seed_from(37);
            let outcomes: Vec<SessionOutcome> = (0..40usize)
                .map(|i| {
                    let mut cfg = PlaybackConfig::vod(ladder(), Seconds(240.0), Seconds(60.0));
                    cfg.start_offset = Seconds(45.0 * i as f64);
                    cfg.retry = RetryPolicy::resilient();
                    let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
                    let faults = Some(&injector);
                    let mut infra =
                        infrastructure_fn(&routers, &mut edges, i % 3, faults, surge.as_mut());
                    let mut ctx = MultiCdnContext {
                        broker: &broker,
                        strategy: &strategy,
                        failure_probability: 0.0,
                        failover_enabled: true,
                        health_gate: true,
                        faults,
                        retry_budget: None,
                        infrastructure: &mut infra,
                    };
                    player.play_multi_cdn(&mut ctx, &mut rng)
                })
                .collect();
            (outcomes, rng)
        };
        let bare = play_cohort(None);
        let empty = SurgeLayer { capacity: BTreeMap::new(), shields: BTreeMap::new() };
        assert_eq!(bare, play_cohort(Some(empty)), "outcomes and final RNG state");
        assert!(bare.0.iter().any(|out| out.retries > 0), "the brownout must bite");
    }

    #[test]
    fn cache_misses_hurt_startup() {
        let cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        let abr = ThroughputRule::default();
        // All-miss CDN.
        let mut player = Player::new(cfg.clone(), network(1.0), &abr).unwrap();
        let mut all_miss = |_req: &ChunkRequest, _r: &mut Rng| {
            Ok(ChunkServe { cache: CacheOutcome::Miss, coalesced: false, connection_reset: false, throughput_factor: 1.0 })
        };
        let mut rng = Rng::seed_from(9);
        let miss_out = player.run(CdnName::A, None, None, &mut all_miss, &mut rng);
        // All-hit CDN, same seed.
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut all_hit = |_req: &ChunkRequest, _r: &mut Rng| Ok(ChunkServe::hit());
        let mut rng = Rng::seed_from(9);
        let hit_out = player.run(CdnName::A, None, None, &mut all_hit, &mut rng);
        assert!(miss_out.qoe.startup_delay.0 > hit_out.qoe.startup_delay.0);
    }

    #[test]
    fn empty_fault_plan_matches_plain_play() {
        let profile = FaultProfile::builder().build();
        let injector = FaultInjector::new(profile);
        let cfg = PlaybackConfig::vod(ladder(), Seconds(1200.0), Seconds(600.0));
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg.clone(), network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(21);
        let with_faults = player.play_with(CdnName::A, Some(&injector), &mut rng);
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(21);
        let plain = player.play(CdnName::A, &mut rng);
        assert_eq!(with_faults, plain);
    }

    #[test]
    fn retry_budget_exhaustion_fails_over_to_healthy_cdn() {
        let strategy = two_cdn_strategy();
        let broker = Broker::new(BrokerPolicy::Weighted);
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        cfg.retry = vmp_faults::RetryPolicy::resilient();
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        // CDN A never serves; B always does.
        let mut infra = |req: &ChunkRequest, _r: &mut Rng| {
            if req.cdn == CdnName::A {
                Err(FetchError::Outage { cdn: CdnName::A })
            } else {
                Ok(ChunkServe::hit())
            }
        };
        let failover = FailoverCtx {
            broker: &broker,
            strategy: &strategy,
            p_fail: 0.0,
            enabled: true,
            health_gate: true,
            retry_budget: None,
        };
        let mut rng = Rng::seed_from(13);
        let out = player.run(CdnName::A, Some(failover), None, &mut infra, &mut rng);
        assert_eq!(out.exit, ExitCause::Completed);
        assert_eq!(out.cdns, vec![CdnName::A, CdnName::B]);
        // max_retries + 1 attempts all failed on A before the one failover;
        // any further retries are armed-timeout trips on B (slow top-rung
        // chunks), each recovered by a degraded refetch.
        assert_eq!(out.retries, 4 + out.timeouts);
        assert_eq!(out.qoe.cdn_switches, 1);
        // The consecutive failures tripped A's breaker.
        assert!(broker.quarantined(CdnName::A, Seconds(1.0)));
    }

    #[test]
    fn single_cdn_total_outage_is_fatal() {
        let profile = FaultProfile::builder()
            .outage(CdnName::A, Seconds::ZERO, Seconds(10_000.0))
            .build();
        let injector = FaultInjector::new(profile);
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        cfg.retry = vmp_faults::RetryPolicy::resilient();
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(17);
        let out = player.play_with(CdnName::A, Some(&injector), &mut rng);
        assert_eq!(out.exit, ExitCause::FatalCdnFailure);
        assert_eq!(out.downloaded, Seconds::ZERO);
        assert!(out.retries >= 4);
        assert_eq!(out.qoe.avg_bitrate, Kbps::ZERO);
    }

    #[test]
    fn timeouts_trip_on_throttled_throughput() {
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        cfg.retry = vmp_faults::RetryPolicy::resilient();
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        // Deliver at 0.1% throughput: every fetch exceeds the 10s timeout.
        let mut throttled = |_req: &ChunkRequest, _r: &mut Rng| {
            Ok(ChunkServe { cache: CacheOutcome::Hit, coalesced: false, connection_reset: false, throughput_factor: 0.001 })
        };
        let mut rng = Rng::seed_from(19);
        let out = player.run(CdnName::A, None, None, &mut throttled, &mut rng);
        assert_eq!(out.exit, ExitCause::FatalCdnFailure);
        assert!(out.timeouts >= 4);
        assert_eq!(out.timeouts, out.retries);
    }

    #[test]
    fn degraded_window_slows_the_session() {
        let degraded_profile = FaultProfile::builder()
            .degrade(CdnName::A, Seconds::ZERO, Seconds(10_000.0), 0.05)
            .build();
        let injector = FaultInjector::new(degraded_profile);
        let cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg.clone(), network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(23);
        let slow = player.play_with(CdnName::A, Some(&injector), &mut rng);
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(23);
        let fast = player.play(CdnName::A, &mut rng);
        let slow_score = slow.qoe.avg_bitrate.0 as f64 * (1.0 - slow.qoe.rebuffer_ratio());
        let fast_score = fast.qoe.avg_bitrate.0 as f64 * (1.0 - fast.qoe.rebuffer_ratio());
        assert!(
            slow_score < fast_score,
            "degraded window should hurt QoE: {slow_score} vs {fast_score}"
        );
    }

    #[test]
    fn faulted_sessions_replay_byte_identically() {
        let run_one = || {
            let injector = FaultInjector::new(FaultProfile::cdn_brownout(CdnName::A));
            let mut cfg = PlaybackConfig::vod(ladder(), Seconds(2400.0), Seconds(1800.0));
            cfg.retry = vmp_faults::RetryPolicy::resilient();
            cfg.start_offset = Seconds(250.0);
            let abr = ThroughputRule::default();
            let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
            let mut rng = Rng::seed_from(29);
            player.play_with(CdnName::A, Some(&injector), &mut rng)
        };
        assert_eq!(run_one(), run_one());
    }

    #[test]
    fn manifest_failure_window_delays_startup_or_kills_session() {
        let profile = FaultProfile::builder()
            .manifest_failures(CdnName::A, Seconds::ZERO, Seconds(10_000.0), 1.0)
            .build();
        let injector = FaultInjector::new(profile);
        let mut cfg = PlaybackConfig::vod(ladder(), Seconds(600.0), Seconds(300.0));
        cfg.retry = vmp_faults::RetryPolicy::resilient();
        let abr = ThroughputRule::default();
        let mut player = Player::new(cfg, network(1.0), &abr).unwrap();
        let mut rng = Rng::seed_from(31);
        // Single CDN, manifest always fails: fatal before the first chunk.
        let out = player.play_with(CdnName::A, Some(&injector), &mut rng);
        assert_eq!(out.exit, ExitCause::FatalCdnFailure);
        assert_eq!(out.downloaded, Seconds::ZERO);
        assert!(out.qoe.startup_delay.0 > 0.0, "backoff waits count as startup delay");
    }
}
