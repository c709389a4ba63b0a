//! Per-session wide-event tracing with deterministic tail sampling.
//!
//! The metrics plane answers "how many sessions went bad"; this module
//! answers "*which* sessions, and why". Every played session is traced
//! speculatively into a reused per-thread arena buffer as a sequence of
//! compact causal events on the fault clock (chunk fetches, ABR switches,
//! rebuffers, retries, shed/coalesce outcomes, breaker trips, exit cause).
//! At completion a seeded head-sampler keeps ~1/N of normal sessions while
//! a tail policy keeps *all* anomalous ones (fatal exit, rebuffer ratio
//! over threshold, retry-budget denial, admission shed), bounded by a
//! byte-budgeted reservoir with drop counters.
//!
//! ## Determinism
//!
//! The kept set must be byte-identical across runs at the same seed
//! whatever order sessions complete in (a harness may finish them on
//! several threads). Both sampling decisions are therefore pure functions
//! of the trace itself, never of arrival order:
//!
//! - **head keep**: `mix64(seed, session_id) % head_rate == 0`;
//! - **reservoir**: the kept set is defined as the *budget prefix* of all
//!   candidates sorted by `(normal-after-anomalous, mix64(seed, id), id)`
//!   — walk the sorted candidates accumulating bytes and cut at the first
//!   overflow. The prefix is maintained online: a new candidate sorting at
//!   or after the lowest key ever evicted is rejected outright (prefix
//!   sums only grow, so the overflow it would sit behind still overflows),
//!   otherwise it is inserted in key order and the suffix past the first
//!   overflow is evicted. Once evicted a session can never re-enter, so
//!   any arrival order converges on the same kept set.
//!
//! Anomalous sessions sort before all normal ones, so the tail policy
//! ("anomalous sessions are never dropped while budget remains") falls out
//! of the prefix rule rather than needing a second mechanism.
//!
//! The hot path is cheap when tracing is off: [`emit`] is one thread-local
//! load and a branch, and the speculative buffer is only touched between
//! [`begin`] and [`SessionScope::finish`]. Every completed session is
//! offered to the keep-set of the thread's [`crate::Recorder`] under its
//! one mutex.

use std::cell::RefCell;
use std::collections::BTreeMap;

use serde_json::Value;

use crate::recorder::SESSIONS;

/// Sentinel for "no CDN attached to this event / trace".
pub const NO_CDN: u8 = u8::MAX;
/// Sentinel for "region unknown".
pub const NO_REGION: u8 = u8::MAX;
/// Sentinel for "publisher unknown".
pub const NO_PUBLISHER: u64 = u64::MAX;

/// JSONL schema tag written on the header line.
pub const TRACE_SCHEMA: &str = "vmp-session-trace/1";

/// Causal event kinds recorded into a session trace.
///
/// Kept to a closed `u8` enum so the speculative hot path never formats
/// strings; names only materialize at JSONL export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Manifest fetch retried (`code` = attempt).
    ManifestRetry = 0,
    /// Media chunk fetched (`code` = bitrate kbps, `value` = download secs).
    ChunkFetch = 1,
    /// Chunk fetch failed (`code` = error class).
    ChunkError = 2,
    /// ABR ladder switch (`code` = new bitrate kbps).
    AbrSwitch = 3,
    /// Playback stalled (`value` = stall seconds).
    Rebuffer = 4,
    /// Chunk fetch retried after a fault (`code` = attempt).
    Retry = 5,
    /// Retry backoff wait (`code` = attempt, `value` = wait secs).
    Backoff = 6,
    /// Armed timeout abandoned a fetch (`value` = timeout secs).
    Timeout = 7,
    /// Session failed over to another CDN (`cdn` = rescuer).
    CdnSwitch = 8,
    /// Retry denied by an exhausted per-CDN retry budget.
    RetryDenied = 9,
    /// Request denied by edge admission control.
    Shed = 10,
    /// Origin fetch coalesced onto an in-flight shield leader.
    Coalesce = 11,
    /// Circuit breaker opened on this CDN.
    BreakerOpen = 12,
    /// Fatal exit (`code` = error class of the killing fault).
    Fatal = 13,
}

/// All kinds, indexable by discriminant.
const KIND_NAMES: [&str; 14] = [
    "manifest_retry",
    "chunk_fetch",
    "chunk_error",
    "abr_switch",
    "rebuffer",
    "retry",
    "backoff",
    "timeout",
    "cdn_switch",
    "retry_denied",
    "shed",
    "coalesce",
    "breaker_open",
    "fatal",
];

impl TraceEventKind {
    /// Stable wire name used in the JSONL schema.
    pub fn name(self) -> &'static str {
        KIND_NAMES[self as usize]
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<TraceEventKind> {
        use TraceEventKind::*;
        const ALL: [TraceEventKind; 14] = [
            ManifestRetry,
            ChunkFetch,
            ChunkError,
            AbrSwitch,
            Rebuffer,
            Retry,
            Backoff,
            Timeout,
            CdnSwitch,
            RetryDenied,
            Shed,
            Coalesce,
            BreakerOpen,
            Fatal,
        ];
        ALL.iter().copied().find(|k| k.name() == name)
    }
}

/// One compact causal event on the session's fault clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// Fault-clock seconds at the event.
    pub clock: f64,
    /// Dense CDN index involved, or [`NO_CDN`].
    pub cdn: u8,
    /// Kind-specific small integer (attempt, bitrate kbps, error class).
    pub code: u32,
    /// Kind-specific magnitude (seconds, factors).
    pub value: f64,
}

/// Anomaly flag: fatal exit.
pub const ANOMALY_FATAL: u8 = 1;
/// Anomaly flag: rebuffer ratio over the configured threshold.
pub const ANOMALY_REBUFFER: u8 = 2;
/// Anomaly flag: at least one retry-budget denial.
pub const ANOMALY_RETRY_DENIED: u8 = 4;
/// Anomaly flag: at least one admission-control shed.
pub const ANOMALY_SHED: u8 = 8;

/// Every anomaly flag with its stable wire name, in the order a trace's
/// `anomaly` array lists them in JSONL.
pub const ANOMALY_NAMES: [(u8, &str); 4] = [
    (ANOMALY_FATAL, "fatal"),
    (ANOMALY_REBUFFER, "rebuffer"),
    (ANOMALY_RETRY_DENIED, "retry_denied"),
    (ANOMALY_SHED, "shed"),
];

/// One kept session's wide-event record.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTrace {
    /// Session id (harness-assigned, unique within a run).
    pub session: u64,
    /// Serving publisher id, or [`NO_PUBLISHER`].
    pub publisher: u64,
    /// Primary CDN dense index, or [`NO_CDN`].
    pub cdn: u8,
    /// Edge region index, or [`NO_REGION`].
    pub region: u8,
    /// Fault-clock seconds the session started.
    pub start_clock: f64,
    /// Fault-clock seconds the session ended.
    pub end_clock: f64,
    /// Whether the session exited fatally.
    pub fatal: bool,
    /// Stall seconds over watch seconds, as reported by the harness.
    pub rebuffer_ratio: f64,
    /// Bitmask of `ANOMALY_*` flags (0 = normal session).
    pub anomaly: u8,
    /// Ordered causal events.
    pub events: Vec<SessionEvent>,
}

impl SessionTrace {
    /// Approximate resident bytes, used for reservoir accounting.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<SessionTrace>()
            + self.events.len() * std::mem::size_of::<SessionEvent>()
    }

    /// Whether any event carries the given kind.
    pub fn has_event(&self, kind: TraceEventKind) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// Renders this trace as one compact JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 48);
        self.write_line(&mut out);
        out
    }

    /// Streams the JSONL line into `out` without building an intermediate
    /// `Value` tree — a full capture renders tens of thousands of traces,
    /// and tree building dominated export wall-clock. Byte-for-byte
    /// identical to rendering the equivalent `Value::Object`.
    pub fn write_line(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push_str("{\"session\":");
        let _ = write!(out, "{}", self.session);
        if self.publisher != NO_PUBLISHER {
            let _ = write!(out, ",\"publisher\":{}", self.publisher);
        }
        if self.cdn != NO_CDN {
            let _ = write!(out, ",\"cdn\":{}", self.cdn);
        }
        if self.region != NO_REGION {
            let _ = write!(out, ",\"region\":{}", self.region);
        }
        out.push_str(",\"start\":");
        push_f64(out, self.start_clock);
        out.push_str(",\"end\":");
        push_f64(out, self.end_clock);
        out.push_str(",\"exit\":\"");
        out.push_str(if self.fatal { "fatal" } else { "completed" });
        out.push_str("\",\"rebuffer_ratio\":");
        push_f64(out, self.rebuffer_ratio);
        out.push_str(",\"anomaly\":[");
        let mut first = true;
        for (bit, name) in ANOMALY_NAMES {
            if self.anomaly & bit != 0 {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                out.push_str(name);
                out.push('"');
            }
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            out.push_str(e.kind.name());
            out.push_str("\",");
            push_f64(out, e.clock);
            if e.cdn == NO_CDN {
                out.push_str(",null,");
            } else {
                let _ = write!(out, ",{},", e.cdn);
            }
            let _ = write!(out, "{},", e.code);
            push_f64(out, e.value);
            out.push(']');
        }
        out.push_str("]}");
    }

    /// Parses a trace line produced by [`to_jsonl`](Self::to_jsonl).
    pub fn from_json(v: &Value) -> Result<SessionTrace, String> {
        let session =
            v.get("session").and_then(Value::as_u64).ok_or("missing `session`")?;
        let publisher = v.get("publisher").and_then(Value::as_u64).unwrap_or(NO_PUBLISHER);
        let cdn = v.get("cdn").map_or(Ok(NO_CDN), |c| dense_index(c, "cdn"))?;
        let region = v.get("region").map_or(Ok(NO_REGION), |r| dense_index(r, "region"))?;
        let start_clock = v.get("start").and_then(Value::as_f64).ok_or("missing `start`")?;
        let end_clock = v.get("end").and_then(Value::as_f64).ok_or("missing `end`")?;
        let fatal = match v.get("exit").and_then(Value::as_str) {
            Some("fatal") => true,
            Some("completed") => false,
            other => return Err(format!("bad `exit`: {other:?}")),
        };
        let rebuffer_ratio =
            v.get("rebuffer_ratio").and_then(Value::as_f64).ok_or("missing `rebuffer_ratio`")?;
        let mut anomaly = 0u8;
        for a in v.get("anomaly").and_then(Value::as_array).ok_or("missing `anomaly`")? {
            let name = a.as_str().ok_or("non-string anomaly")?;
            let bit = ANOMALY_NAMES
                .iter()
                .find(|(_, n)| *n == name)
                .map(|(b, _)| *b)
                .ok_or_else(|| format!("unknown anomaly `{name}`"))?;
            anomaly |= bit;
        }
        let mut events = Vec::new();
        for e in v.get("events").and_then(Value::as_array).ok_or("missing `events`")? {
            let parts = e.as_array().ok_or("non-array event")?;
            let [kind_v, clock_v, cdn_v, code_v, value_v] = parts else {
                return Err(format!("event arity {} != 5", parts.len()));
            };
            let kind_name = kind_v.as_str().ok_or("non-string event kind")?;
            let kind = TraceEventKind::from_name(kind_name)
                .ok_or_else(|| format!("unknown event kind `{kind_name}`"))?;
            let clock = clock_v.as_f64().ok_or("non-numeric event clock")?;
            let cdn = match cdn_v {
                Value::Null => NO_CDN,
                other => dense_index(other, "event cdn")?,
            };
            let code = code_v
                .as_u64()
                .and_then(|c| u32::try_from(c).ok())
                .ok_or("bad event code")?;
            let value = value_v.as_f64().ok_or("bad event value")?;
            events.push(SessionEvent { kind, clock, cdn, code, value });
        }
        Ok(SessionTrace {
            session,
            publisher,
            cdn,
            region,
            start_clock,
            end_clock,
            fatal,
            rebuffer_ratio,
            anomaly,
            events,
        })
    }
}

/// A CDN or region index read back from JSON: an integer below the `u8`
/// "none" sentinel ([`NO_CDN`] / [`NO_REGION`]), which the writer renders
/// as an absent field or `null` and never as a number.
fn dense_index(v: &Value, field: &str) -> Result<u8, String> {
    v.as_u64()
        .and_then(|n| u8::try_from(n).ok())
        .filter(|&n| n != u8::MAX)
        .ok_or_else(|| format!("bad `{field}`"))
}

/// Appends a float at microsecond (6-decimal) fixed precision via integer
/// rendering — an order of magnitude faster than shortest-representation
/// `Display`, which dominated capture export wall-clock. Clocks are
/// fault-clock seconds and ratios are dimensionless, so 1e-6 resolution is
/// beyond any physical meaning in either. Whole values render with a
/// trailing `.0` (matching the JSON shim), fractional ones with trailing
/// zeros trimmed; re-parsing and re-rendering a line is byte-stable.
/// Non-finite or huge values (which the fault clock never produces)
/// degrade to `null` / `Display`.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a magnitude in microseconds; `as` saturates"
)]
fn push_f64(out: &mut String, n: f64) {
    use std::fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n.abs() >= 4.0e9 {
        // Out of fixed-point range; exact rendering keeps the line valid.
        if n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(out, "{n:.1}");
        } else {
            let _ = write!(out, "{n}");
        }
        return;
    }
    if n.is_sign_negative() {
        out.push('-');
    }
    let micros = (n.abs() * 1e6).round() as u64;
    let _ = write!(out, "{}", micros / 1_000_000);
    let frac = micros % 1_000_000;
    if frac == 0 {
        out.push_str(".0");
        return;
    }
    let mut digits = [0u8; 6];
    let mut rest = frac;
    let mut last_nonzero = 0;
    for i in (0..6).rev() {
        digits[i] = b'0' + (rest % 10) as u8;
        if digits[i] != b'0' && last_nonzero == 0 {
            last_nonzero = i + 1;
        }
        rest /= 10;
    }
    out.push('.');
    for &d in digits.iter().take(last_nonzero.max(1)) {
        out.push(d as char);
    }
}

fn render(v: &Value) -> String {
    // The shim's renderer only fails on non-finite floats, which the fault
    // clock never produces; fall back to an explicit error object so the
    // JSONL stays parseable even then.
    serde_json::to_string(v).unwrap_or_else(|_| "{\"error\":\"non-finite\"}".to_string())
}

/// Sampling and budget knobs, fixed for the lifetime of one armed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Seed feeding the head-sampler and reservoir ordering.
    pub seed: u64,
    /// Keep ~1 in `head_rate` normal sessions (0 ⇒ keep none by head).
    pub head_rate: u64,
    /// Rebuffer ratio at or above which a session counts as anomalous.
    pub rebuffer_threshold: f64,
    /// Reservoir byte budget across all kept traces.
    pub byte_budget: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            seed: 0,
            head_rate: 16,
            rebuffer_threshold: 0.1,
            // 4 MiB keeps ~10-25k full traces at default scale — plenty of
            // exemplar depth — while bounding resident memory and export
            // cost on the run's critical path.
            byte_budget: 4 << 20,
        }
    }
}

/// splitmix64 finalizer — decorrelates session ids from keep decisions.
fn mix64(seed: u64, session: u64) -> u64 {
    let mut z = seed ^ session.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed salt separating the reservoir shuffle from the head-keep hash.
const KEY_SALT: u64 = 0xA11E_57A7;

/// Reservoir ordering key: anomalous first, then seeded shuffle, then id.
type Key = (u8, u64, u64);

fn reservoir_key(seed: u64, session: u64, anomaly: u8) -> Key {
    (u8::from(anomaly == 0), mix64(seed ^ KEY_SALT, session), session)
}

/// Deterministic tail-sampling reservoir over completed session traces.
///
/// Standalone so property tests can drive it directly; a run's instance
/// lives in its [`crate::Recorder`] ([`crate::Collect::sessions`]).
#[derive(Debug)]
pub struct TraceCollector {
    cfg: TraceConfig,
    /// Kept candidates in reservoir-key order; always a non-overflowing
    /// budget prefix. Each entry remembers the epoch it was offered in.
    /// A `BTreeMap` keeps insertion and suffix eviction `O(log n)`.
    kept: BTreeMap<Key, (u64, SessionTrace)>,
    kept_bytes: usize,
    /// Lowest key ever evicted or rejected; arrivals at or after it can
    /// never belong to the final budget prefix.
    cut: Option<Key>,
    seen: u64,
    dropped: u64,
    /// Current epoch; see [`next_epoch`](Self::next_epoch).
    epoch: u64,
    alerts: Vec<(String, Vec<u64>)>,
}

impl TraceCollector {
    /// An empty collector with the given knobs.
    pub fn new(cfg: TraceConfig) -> TraceCollector {
        TraceCollector {
            cfg,
            kept: BTreeMap::new(),
            kept_bytes: 0,
            cut: None,
            seen: 0,
            dropped: 0,
            epoch: 0,
            alerts: Vec::new(),
        }
    }

    /// Starts a new epoch and returns it. A harness that replays several
    /// populations over the *same* fault-clock range (scenario arms,
    /// replays, controls) bumps the epoch between populations; exemplar
    /// queries then only match traces of the current epoch, so an alert
    /// can never cite a look-alike session from a previous arm. Sampling
    /// and the kept set are epoch-blind — this only scopes exemplars.
    pub fn next_epoch(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    /// Anomaly bitmask for a completed session given this config.
    fn anomaly_of(&self, trace: &SessionTrace) -> u8 {
        let mut a = 0u8;
        if trace.fatal {
            a |= ANOMALY_FATAL;
        }
        if trace.rebuffer_ratio >= self.cfg.rebuffer_threshold {
            a |= ANOMALY_REBUFFER;
        }
        for e in &trace.events {
            match e.kind {
                TraceEventKind::RetryDenied => a |= ANOMALY_RETRY_DENIED,
                TraceEventKind::Shed => a |= ANOMALY_SHED,
                _ => {}
            }
        }
        a
    }

    /// Counts a completed session as seen and decides whether it can still
    /// enter the reservoir: its key and anomaly bitmask if so, `None` (and
    /// counted dropped) if sampled out or past the cut.
    fn admit(&mut self, trace: &SessionTrace) -> Option<(Key, u8)> {
        self.seen += 1;
        let anomaly = self.anomaly_of(trace);
        let head_kept = self.cfg.head_rate != 0
            && mix64(self.cfg.seed, trace.session).is_multiple_of(self.cfg.head_rate);
        let key = reservoir_key(self.cfg.seed, trace.session, anomaly);
        if (anomaly == 0 && !head_kept) || self.cut.is_some_and(|cut| key >= cut) {
            self.dropped += 1;
            return None;
        }
        Some((key, anomaly))
    }

    /// Offers an already-built trace (test/tooling entry point). The
    /// trace's `anomaly` field is recomputed from its contents.
    pub fn offer(&mut self, trace: SessionTrace) {
        if let Some((key, anomaly)) = self.admit(&trace) {
            self.insert(key, SessionTrace { anomaly, ..trace });
        }
    }

    /// Inserts a candidate in key order, then evicts greatest-key entries
    /// while over budget, tightening the cut. Because prefix byte sums
    /// are monotone, popping from the back until the set fits leaves
    /// exactly the maximal budget-fitting key prefix — the same set the
    /// offline walk-and-cut definition produces — in `O(log n)` per pop.
    fn insert(&mut self, key: Key, trace: SessionTrace) {
        self.kept_bytes += trace.approx_bytes();
        if let Some((_, old)) = self.kept.insert(key, (self.epoch, trace)) {
            // Duplicate session id: harnesses assign unique ids, but the
            // public `offer` cannot enforce that. Keep the last offer and
            // count the displaced trace dropped so `seen == kept +
            // dropped` still holds.
            self.kept_bytes -= old.approx_bytes();
            self.dropped += 1;
        }
        while self.kept_bytes > self.cfg.byte_budget {
            let Some((evicted_key, (_, t))) = self.kept.pop_last() else {
                break;
            };
            self.kept_bytes -= t.approx_bytes();
            self.dropped += 1;
            let tighter = match self.cut {
                Some(cut) => evicted_key.min(cut),
                None => evicted_key,
            };
            self.cut = Some(tighter);
        }
    }

    /// Records an alert's rendered form and its exemplar session ids.
    pub fn note_alert(&mut self, alert: String, exemplars: Vec<u64>) {
        self.alerts.push((alert, exemplars));
    }

    /// Kept traces matching a tag/window filter, anomalous first then by
    /// session id, truncated to `limit`. Only the current epoch's traces
    /// match — exemplars must come from the population that raised the
    /// alert, not a replayed look-alike (see [`next_epoch`](Self::next_epoch)).
    pub fn exemplars(&self, q: &ExemplarQuery) -> Vec<u64> {
        let mut hits: Vec<(u8, u64)> = self
            .kept
            .values()
            .filter(|(e, _)| *e == self.epoch)
            .map(|(_, t)| t)
            .filter(|t| q.matches(t))
            .map(|t| (u8::from(t.anomaly == 0), t.session))
            .collect();
        hits.sort_unstable();
        hits.truncate(q.limit);
        hits.into_iter().map(|(_, s)| s).collect()
    }

    /// Finalizes into a report: kept traces sorted by session id plus
    /// sampling statistics.
    pub fn into_report(self) -> TraceReport {
        let mut traces: Vec<SessionTrace> =
            self.kept.into_values().map(|(_, t)| t).collect();
        traces.sort_unstable_by_key(|t| t.session);
        let tail_kept = traces.iter().filter(|t| t.anomaly != 0).count() as u64;
        let bytes = traces.iter().map(SessionTrace::approx_bytes).sum();
        TraceReport {
            cfg: self.cfg,
            seen: self.seen,
            dropped: self.dropped,
            tail_kept,
            bytes,
            traces,
            alerts: self.alerts,
        }
    }
}

/// Tag/window filter for exemplar queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExemplarQuery {
    /// Required publisher id, if any.
    pub publisher: Option<u64>,
    /// Required primary-CDN dense index, if any.
    pub cdn: Option<u8>,
    /// Required region index, if any.
    pub region: Option<u8>,
    /// Inclusive fault-clock window the session must have *ended* in.
    pub window: Option<(f64, f64)>,
    /// Maximum exemplars returned.
    pub limit: usize,
}

impl ExemplarQuery {
    fn matches(&self, t: &SessionTrace) -> bool {
        if self.publisher.is_some_and(|p| p != t.publisher) {
            return false;
        }
        if self.cdn.is_some_and(|c| c != t.cdn) {
            return false;
        }
        if self.region.is_some_and(|r| r != t.region) {
            return false;
        }
        if let Some((lo, hi)) = self.window {
            if t.end_clock < lo || t.end_clock > hi {
                return false;
            }
        }
        true
    }
}

/// Finalized capture: the deterministic kept set plus statistics.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The knobs the run was armed with.
    pub cfg: TraceConfig,
    /// Sessions offered.
    pub seen: u64,
    /// Sessions sampled out or evicted.
    pub dropped: u64,
    /// Kept sessions that are anomalous (tail policy).
    pub tail_kept: u64,
    /// Bytes resident in the kept set.
    pub bytes: usize,
    /// Kept traces sorted by session id.
    pub traces: Vec<SessionTrace>,
    /// Alerts noted during the run with their exemplar ids.
    pub alerts: Vec<(String, Vec<u64>)>,
}

impl TraceReport {
    /// Kept session count.
    pub fn kept(&self) -> u64 {
        self.traces.len() as u64
    }

    /// Renders the whole capture as JSONL: header, traces, alerts.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Value::Object(vec![
            ("schema".to_string(), Value::Str(TRACE_SCHEMA.to_string())),
            ("seed".to_string(), Value::U64(self.cfg.seed)),
            ("head_rate".to_string(), Value::U64(self.cfg.head_rate)),
            ("rebuffer_threshold".to_string(), Value::F64(self.cfg.rebuffer_threshold)),
            ("byte_budget".to_string(), Value::U64(self.cfg.byte_budget as u64)),
            ("seen".to_string(), Value::U64(self.seen)),
            ("kept".to_string(), Value::U64(self.kept())),
            ("tail_kept".to_string(), Value::U64(self.tail_kept)),
            ("dropped".to_string(), Value::U64(self.dropped)),
            ("bytes".to_string(), Value::U64(self.bytes as u64)),
        ]);
        out.reserve(self.bytes + self.bytes / 2);
        out.push_str(&render(&header));
        out.push('\n');
        for t in &self.traces {
            t.write_line(&mut out);
            out.push('\n');
        }
        for (alert, exemplars) in &self.alerts {
            let ids: Vec<Value> = exemplars.iter().map(|&s| Value::U64(s)).collect();
            let line = Value::Object(vec![
                ("alert".to_string(), Value::Str(alert.clone())),
                ("exemplars".to_string(), Value::Array(ids)),
            ]);
            out.push_str(&render(&line));
            out.push('\n');
        }
        out
    }
}

// --- speculative per-thread builder ----------------------------------------

/// All per-thread tracing state behind one thread-local. The event buffer
/// is reused across sessions, so steady-state tracing allocates once per
/// thread, not once per session.
struct TraceTls {
    /// Whether a scope is currently recording on this thread.
    recording: bool,
    trace: SessionTrace,
}

thread_local! {
    static TLS: RefCell<TraceTls> = const {
        RefCell::new(TraceTls {
            recording: false,
            trace: SessionTrace {
                session: 0,
                publisher: NO_PUBLISHER,
                cdn: NO_CDN,
                region: NO_REGION,
                start_clock: 0.0,
                end_clock: 0.0,
                fatal: false,
                rebuffer_ratio: 0.0,
                anomaly: 0,
                events: Vec::new(),
            },
        })
    };
}

/// RAII scope for one traced session on the current thread.
///
/// Dropping without [`finish`](Self::finish) abandons the speculative
/// buffer (the session is not offered to the sampler).
#[derive(Debug)]
pub struct SessionScope {
    armed: bool,
}

/// Starts speculatively tracing a session on this thread. Returns a
/// disarmed no-op scope unless the thread's recorder traces sessions.
pub fn begin(
    session: u64,
    publisher: u64,
    cdn: u8,
    region: u8,
    start_clock: f64,
) -> SessionScope {
    if crate::recorder::armed() & SESSIONS == 0 {
        return SessionScope { armed: false };
    }
    TLS.with(|tl| {
        let tl = &mut *tl.borrow_mut();
        tl.recording = true;
        let t = &mut tl.trace;
        (t.session, t.publisher, t.cdn, t.region) = (session, publisher, cdn, region);
        (t.start_clock, t.end_clock, t.fatal, t.rebuffer_ratio) =
            (start_clock, start_clock, false, 0.0);
        t.events.clear();
    });
    SessionScope { armed: true }
}

impl SessionScope {
    /// Completes the session and offers it to the sampler.
    pub fn finish(self, end_clock: f64, fatal: bool, rebuffer_ratio: f64) {
        self.finish_tagged(None, end_clock, fatal, rebuffer_ratio);
    }

    /// [`finish`](Self::finish) that also retags the primary CDN in the
    /// same thread-local access — completion-time attribution (first CDN
    /// actually used): harnesses that delegate CDN selection to the broker
    /// only learn it from the outcome.
    pub fn finish_tagged(
        mut self,
        cdn: Option<u8>,
        end_clock: f64,
        fatal: bool,
        rebuffer_ratio: f64,
    ) {
        if !self.armed {
            return;
        }
        self.armed = false;
        TLS.with(|tl| {
            let tl = &mut *tl.borrow_mut();
            if !tl.recording {
                return;
            }
            tl.recording = false;
            let t = &mut tl.trace;
            t.cdn = cdn.unwrap_or(t.cdn);
            (t.end_clock, t.fatal, t.rebuffer_ratio) = (end_clock, fatal, rebuffer_ratio);
            // Copied out of the reused buffer only if it can still be kept.
            crate::recorder::with_current(|r| {
                r.with_sessions(|c| {
                    if let Some((key, anomaly)) = c.admit(t) {
                        c.insert(key, SessionTrace { anomaly, ..t.clone() });
                    }
                })
            });
        });
    }
}

impl Drop for SessionScope {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        // The next `begin` clears the abandoned events.
        TLS.with(|tl| tl.borrow_mut().recording = false);
    }
}

/// Records one causal event into the session being traced on this thread.
///
/// No-op (one thread-local load + branch) unless the thread's recorder
/// traces sessions and a scope is active, so instrumented hot paths cost
/// nothing in normal runs.
#[inline]
pub fn emit(kind: TraceEventKind, clock: f64, cdn: u8, code: u32, value: f64) {
    if crate::recorder::armed() & SESSIONS == 0 {
        return;
    }
    TLS.with(|tl| {
        let tl = &mut *tl.borrow_mut();
        if tl.recording {
            tl.trace.events.push(SessionEvent { kind, clock, cdn, code, value });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(session: u64, anomaly_fatal: bool, n_events: usize) -> SessionTrace {
        SessionTrace {
            session,
            publisher: session % 4,
            cdn: (session % 3) as u8,
            region: NO_REGION,
            start_clock: 0.0,
            end_clock: 100.0 + session as f64,
            fatal: anomaly_fatal,
            rebuffer_ratio: 0.0,
            anomaly: 0,
            events: vec![
                SessionEvent {
                    kind: TraceEventKind::ChunkFetch,
                    clock: 1.0,
                    cdn: 0,
                    code: 1200,
                    value: 0.2,
                };
                n_events
            ],
        }
    }

    #[test]
    fn head_sampling_is_a_pure_function_of_seed_and_id() {
        let cfg = TraceConfig { seed: 7, head_rate: 4, ..TraceConfig::default() };
        let mut a = TraceCollector::new(cfg);
        let mut b = TraceCollector::new(cfg);
        for s in 0..100 {
            a.offer(trace(s, false, 2));
        }
        for s in (0..100).rev() {
            b.offer(trace(s, false, 2));
        }
        let (ra, rb) = (a.into_report(), b.into_report());
        assert_eq!(ra.traces, rb.traces);
        assert!(ra.kept() > 0, "head sampler kept nothing at rate 4 over 100 sessions");
        assert_eq!(ra.seen, 100);
        assert_eq!(ra.kept() + ra.dropped, ra.seen);
    }

    #[test]
    fn anomalous_sessions_survive_head_sampling() {
        let cfg = TraceConfig { seed: 7, head_rate: u64::MAX, ..TraceConfig::default() };
        let mut c = TraceCollector::new(cfg);
        for s in 0..50 {
            c.offer(trace(s, s % 10 == 0, 2));
        }
        let r = c.into_report();
        assert_eq!(r.kept(), 5);
        assert_eq!(r.tail_kept, 5);
        assert!(r.traces.iter().all(|t| t.anomaly & ANOMALY_FATAL != 0));
    }

    #[test]
    fn reservoir_respects_budget_and_counts_drops() {
        let per = trace(0, true, 8).approx_bytes();
        let cfg = TraceConfig {
            seed: 3,
            head_rate: 1,
            byte_budget: per * 5 + per / 2,
            ..TraceConfig::default()
        };
        let mut c = TraceCollector::new(cfg);
        for s in 0..40 {
            c.offer(trace(s, true, 8));
        }
        let r = c.into_report();
        assert_eq!(r.kept(), 5);
        assert_eq!(r.dropped, 35);
        assert!(r.bytes <= cfg.byte_budget);
    }

    #[test]
    fn eviction_order_does_not_change_the_kept_set() {
        let per = trace(0, false, 4).approx_bytes();
        let cfg = TraceConfig {
            seed: 11,
            head_rate: 1,
            byte_budget: per * 7,
            ..TraceConfig::default()
        };
        let orders: [Vec<u64>; 3] = [
            (0..30).collect(),
            (0..30).rev().collect(),
            (0..30).map(|i| (i * 17) % 30).collect(),
        ];
        let mut reports = orders.iter().map(|order| {
            let mut c = TraceCollector::new(cfg);
            for &s in order {
                c.offer(trace(s, s % 7 == 0, 4));
            }
            c.into_report()
        });
        let first = reports.next().expect("three orders");
        for r in reports {
            assert_eq!(first.traces, r.traces);
            assert_eq!(first.dropped, r.dropped);
        }
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let mut t = trace(42, true, 3);
        t.anomaly = ANOMALY_FATAL | ANOMALY_SHED;
        t.events.push(SessionEvent {
            kind: TraceEventKind::Rebuffer,
            clock: 33.25,
            cdn: NO_CDN,
            code: 0,
            value: 1.5,
        });
        let line = t.to_jsonl();
        let v: Value = serde_json::from_str(&line).expect("parses");
        let back = SessionTrace::from_json(&v).expect("round-trips");
        assert_eq!(t, back);
        assert_eq!(back.to_jsonl(), line);
    }

    #[test]
    fn exemplar_query_prefers_anomalous_and_respects_tags() {
        let cfg = TraceConfig { seed: 1, head_rate: 1, ..TraceConfig::default() };
        let mut c = TraceCollector::new(cfg);
        for s in 0..20 {
            let mut t = trace(s, s == 7, 1);
            t.cdn = (s % 2) as u8;
            c.offer(t);
        }
        let ids = c.exemplars(&ExemplarQuery {
            cdn: Some(1),
            limit: 3,
            ..ExemplarQuery::default()
        });
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], 7, "anomalous session 7 (cdn 1) should lead");
        let windowed = c.exemplars(&ExemplarQuery {
            window: Some((100.0, 102.0)),
            limit: 10,
            ..ExemplarQuery::default()
        });
        assert!(windowed.iter().all(|&s| s <= 2));
    }
}
