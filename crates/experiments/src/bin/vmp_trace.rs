//! `vmp-trace` — offline triage for `vmp-session-trace/1` captures.
//!
//! Reads the JSONL file written by `repro --session-trace PATH` (e.g.
//! `repro resilience monitor live_event --seed 7 --session-trace PATH`,
//! whose scenarios play the sessions) and answers
//! the questions an on-call engineer asks of a wide-event store:
//!
//! ```text
//! vmp-trace summary FILE                      # capture stats + breakdowns
//! vmp-trace show FILE ID                      # full causal timeline of one session
//! vmp-trace grep FILE [--cdn N] [--publisher N] [--region N]
//!                     [--exit fatal|completed] [--kind NAME] [--anomaly NAME]
//! vmp-trace exemplars FILE SUBSTRING          # alerts matching SUBSTRING + their traces
//! vmp-trace chrome FILE ID [--out PATH]       # one session as Chrome trace_event JSON
//! ```
//!
//! The capture is deterministic, so any id printed here resolves to the
//! same trace on a re-run at the same seed — ids are stable handles, not
//! ephemeral row numbers.

use std::collections::BTreeMap;

use serde_json::Value;
use vmp_core::cdn::CdnName;
use vmp_obs::session_trace::{
    SessionTrace, TraceEventKind, ANOMALY_NAMES, NO_CDN, NO_PUBLISHER, NO_REGION,
};

/// `println!` that exits quietly instead of panicking when stdout's reader
/// goes away (std's `println!` panics on EPIPE, so `vmp-trace ... | head`
/// would otherwise abort mid-pipe).
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// One parsed capture file: header, traces, alert→exemplar lines.
struct Capture {
    header: Value,
    traces: Vec<SessionTrace>,
    alerts: Vec<(String, Vec<u64>)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => usage_exit(),
    };
    if matches!(cmd, "--help" | "-h" | "help") {
        usage_exit();
    }
    let (file, rest) = match rest.split_first() {
        Some((file, rest)) => (file.as_str(), rest),
        None => {
            eprintln!("{cmd}: missing capture FILE argument");
            std::process::exit(2);
        }
    };
    let capture = load_capture(file);
    match cmd {
        "summary" => summary(&capture),
        "show" => show(&capture, parse_id(rest)),
        "grep" => grep(&capture, rest),
        "exemplars" => exemplars(&capture, rest),
        "chrome" => chrome(&capture, rest),
        other => {
            eprintln!("unknown command '{other}'");
            usage_exit();
        }
    }
}

fn usage_exit() -> ! {
    eprintln!(
        "usage: vmp-trace <summary|show|grep|exemplars|chrome> FILE [args]\n\
         \x20 summary FILE                    capture stats and breakdowns\n\
         \x20 show FILE ID                    full timeline of one session\n\
         \x20 grep FILE [--cdn N] [--publisher N] [--region N]\n\
         \x20                [--exit fatal|completed] [--kind NAME] [--anomaly NAME]\n\
         \x20 exemplars FILE SUBSTRING        alerts matching SUBSTRING + exemplar traces\n\
         \x20 chrome FILE ID [--out PATH]     Chrome trace_event JSON for one session"
    );
    std::process::exit(2);
}

fn parse_id(rest: &[String]) -> u64 {
    match rest.first().map(|s| s.parse::<u64>()) {
        Some(Ok(id)) => id,
        _ => {
            eprintln!("expected a numeric session ID");
            std::process::exit(2);
        }
    }
}

/// Parses the JSONL capture, classifying lines by their discriminating key.
fn load_capture(path: &str) -> Capture {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let mut header = None;
    let mut traces = Vec::new();
    let mut alerts = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let v: Value = match serde_json::from_str(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{path}:{}: bad JSON: {e:?}", lineno + 1);
                std::process::exit(2);
            }
        };
        if v.get("schema").is_some() {
            header = Some(v);
        } else if v.get("session").is_some() {
            match SessionTrace::from_json(&v) {
                Ok(t) => traces.push(t),
                Err(e) => {
                    eprintln!("{path}:{}: bad trace line: {e}", lineno + 1);
                    std::process::exit(2);
                }
            }
        } else if let Some(alert) = v.get("alert").and_then(Value::as_str) {
            let ids = v
                .get("exemplars")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(Value::as_u64).collect())
                .unwrap_or_default();
            alerts.push((alert.to_string(), ids));
        } else {
            eprintln!("{path}:{}: unrecognized line shape", lineno + 1);
            std::process::exit(2);
        }
    }
    let header = header.unwrap_or_else(|| {
        eprintln!("{path}: no `vmp-session-trace/1` header line found");
        std::process::exit(2);
    });
    if header.get("schema").and_then(Value::as_str) != Some("vmp-session-trace/1") {
        eprintln!("{path}: unsupported schema {:?}", header.get("schema"));
        std::process::exit(2);
    }
    Capture { header, traces, alerts }
}

fn header_u64(capture: &Capture, key: &str) -> u64 {
    capture.header.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn cdn_label(cdn: u8) -> String {
    if cdn == NO_CDN {
        return "-".to_string();
    }
    CdnName::from_dense_index(cdn as usize)
        .map_or_else(|| format!("cdn#{cdn}"), |c| c.to_string())
}

fn anomaly_label(t: &SessionTrace) -> String {
    let hits: Vec<&str> = ANOMALY_NAMES
        .iter()
        .filter(|(bit, _)| t.anomaly & bit != 0)
        .map(|(_, n)| *n)
        .collect();
    if hits.is_empty() { "normal".to_string() } else { hits.join("+") }
}

/// One-line digest of a trace, the `grep`/`exemplars` output unit.
fn digest(t: &SessionTrace) -> String {
    let publisher = if t.publisher == NO_PUBLISHER {
        "-".to_string()
    } else {
        t.publisher.to_string()
    };
    let region = if t.region == NO_REGION { "-".to_string() } else { t.region.to_string() };
    format!(
        "{:>12}  pub={:<4} cdn={:<6} region={:<2} exit={:<9} rebuf={:>6.3} {:<22} {} events",
        t.session,
        publisher,
        cdn_label(t.cdn),
        region,
        if t.fatal { "fatal" } else { "completed" },
        t.rebuffer_ratio,
        anomaly_label(t),
        t.events.len(),
    )
}

fn summary(capture: &Capture) {
    let seen = header_u64(capture, "seen");
    let kept = header_u64(capture, "kept");
    outln!(
        "capture: seed={} head_rate=1/{} byte_budget={}",
        header_u64(capture, "seed"),
        header_u64(capture, "head_rate"),
        header_u64(capture, "byte_budget"),
    );
    outln!(
        "sessions: {seen} seen, {kept} kept ({} tail-kept anomalous), {} dropped, {} bytes",
        header_u64(capture, "tail_kept"),
        header_u64(capture, "dropped"),
        header_u64(capture, "bytes"),
    );
    let fatal = capture.traces.iter().filter(|t| t.fatal).count();
    outln!("exits: {} completed, {} fatal", capture.traces.len() - fatal, fatal);

    let mut by_anomaly: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_cdn: BTreeMap<String, usize> = BTreeMap::new();
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for t in &capture.traces {
        *by_anomaly.entry(anomaly_label(t)).or_default() += 1;
        *by_cdn.entry(cdn_label(t.cdn)).or_default() += 1;
        for e in &t.events {
            *by_kind.entry(e.kind.name()).or_default() += 1;
        }
    }
    outln!("anomalies:");
    for (label, n) in &by_anomaly {
        outln!("  {label:<22} {n}");
    }
    outln!("kept by primary cdn:");
    for (label, n) in &by_cdn {
        outln!("  {label:<22} {n}");
    }
    outln!("events across kept traces:");
    for (label, n) in &by_kind {
        outln!("  {label:<22} {n}");
    }
    outln!("alerts with exemplars: {}", capture.alerts.len());
}

fn show(capture: &Capture, id: u64) {
    let Some(t) = capture.traces.iter().find(|t| t.session == id) else {
        eprintln!(
            "session {id} is not in the kept set ({} traces); \
             try `grep` to list what survived sampling",
            capture.traces.len()
        );
        std::process::exit(1);
    };
    outln!("{}", digest(t));
    outln!(
        "  window: {:.3}s .. {:.3}s ({:.3}s on the fault clock)",
        t.start_clock,
        t.end_clock,
        t.end_clock - t.start_clock
    );
    for e in &t.events {
        outln!(
            "  {:>10.3}s  {:<14} cdn={:<6} code={:<6} value={:.4}",
            e.clock,
            e.kind.name(),
            cdn_label(e.cdn),
            e.code,
            e.value,
        );
    }
    let referencing: Vec<&str> = capture
        .alerts
        .iter()
        .filter(|(_, ids)| ids.contains(&id))
        .map(|(a, _)| a.as_str())
        .collect();
    if !referencing.is_empty() {
        outln!("  exemplar for:");
        for alert in referencing {
            outln!("    {alert}");
        }
    }
}

/// Filter set accumulated from `grep` flags; all present filters must match.
#[derive(Default)]
struct Filters {
    cdn: Option<u8>,
    publisher: Option<u64>,
    region: Option<u8>,
    fatal: Option<bool>,
    kind: Option<TraceEventKind>,
    anomaly: Option<String>,
}

fn flag_value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> &'a str {
    match it.next() {
        Some(v) => v.as_str(),
        None => {
            eprintln!("{flag} requires a value");
            std::process::exit(2);
        }
    }
}

fn parse_filters(rest: &[String]) -> Filters {
    let mut f = Filters::default();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cdn" => match flag_value("--cdn", &mut it).parse::<u8>() {
                Ok(n) => f.cdn = Some(n),
                Err(_) => {
                    eprintln!("--cdn takes a dense index (0=A .. 4=E)");
                    std::process::exit(2);
                }
            },
            "--publisher" => match flag_value("--publisher", &mut it).parse::<u64>() {
                Ok(n) => f.publisher = Some(n),
                Err(_) => {
                    eprintln!("--publisher takes a numeric id");
                    std::process::exit(2);
                }
            },
            "--region" => match flag_value("--region", &mut it).parse::<u8>() {
                Ok(n) => f.region = Some(n),
                Err(_) => {
                    eprintln!("--region takes a numeric index");
                    std::process::exit(2);
                }
            },
            "--exit" => match flag_value("--exit", &mut it) {
                "fatal" => f.fatal = Some(true),
                "completed" => f.fatal = Some(false),
                other => {
                    eprintln!("--exit takes 'fatal' or 'completed', not '{other}'");
                    std::process::exit(2);
                }
            },
            "--kind" => {
                let name = flag_value("--kind", &mut it);
                match TraceEventKind::from_name(name) {
                    Some(k) => f.kind = Some(k),
                    None => {
                        eprintln!("unknown event kind '{name}'");
                        std::process::exit(2);
                    }
                }
            }
            "--anomaly" => f.anomaly = Some(flag_value("--anomaly", &mut it).to_string()),
            other => {
                eprintln!("unknown grep flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    f
}

fn grep(capture: &Capture, rest: &[String]) {
    let f = parse_filters(rest);
    let mut matched = 0usize;
    for t in &capture.traces {
        if f.cdn.is_some_and(|c| c != t.cdn) {
            continue;
        }
        if f.publisher.is_some_and(|p| p != t.publisher) {
            continue;
        }
        if f.region.is_some_and(|r| r != t.region) {
            continue;
        }
        if f.fatal.is_some_and(|x| x != t.fatal) {
            continue;
        }
        if f.kind.is_some_and(|k| !t.has_event(k)) {
            continue;
        }
        if f.anomaly.as_deref().is_some_and(|a| !anomaly_label(t).contains(a)) {
            continue;
        }
        outln!("{}", digest(t));
        matched += 1;
    }
    eprintln!("{matched} of {} kept traces matched", capture.traces.len());
}

fn exemplars(capture: &Capture, rest: &[String]) {
    let Some(needle) = rest.first() else {
        eprintln!("exemplars requires an alert SUBSTRING to match");
        std::process::exit(2);
    };
    let mut matched = 0usize;
    for (alert, ids) in &capture.alerts {
        if !alert.contains(needle.as_str()) {
            continue;
        }
        matched += 1;
        outln!("{alert}");
        if ids.is_empty() {
            outln!("  (no exemplar traces survived sampling in this window)");
        }
        for id in ids {
            match capture.traces.iter().find(|t| t.session == *id) {
                Some(t) => outln!("  {}", digest(t)),
                None => outln!("  {id:>12}  (id recorded but trace not in kept set)"),
            }
        }
    }
    if matched == 0 {
        eprintln!("no alert contains '{needle}' ({} alerts in capture)", capture.alerts.len());
        std::process::exit(1);
    }
}

/// Exports one session as Chrome `trace_event` JSON (load in
/// `chrome://tracing` or Perfetto). The session itself is a complete `X`
/// event; chunk fetches become nested `X` slices (they carry a duration);
/// everything else is an instant. Timestamps are fault-clock microseconds.
fn chrome(capture: &Capture, rest: &[String]) {
    let id = parse_id(rest);
    let mut out_path = None;
    let mut it = rest.iter().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = Some(flag_value("--out", &mut it).to_string()),
            other => {
                eprintln!("unknown chrome flag '{other}'");
                std::process::exit(2);
            }
        }
    }
    let Some(t) = capture.traces.iter().find(|t| t.session == id) else {
        eprintln!("session {id} is not in the kept set");
        std::process::exit(1);
    };
    let us = |secs: f64| Value::F64(secs * 1e6);
    let mut events = Vec::new();
    let base = vec![
        ("pid".to_string(), Value::U64(t.session)),
        ("tid".to_string(), Value::U64(0)),
    ];
    let mut session_event = vec![
        ("name".to_string(), Value::Str(format!("session {}", t.session))),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), us(t.start_clock)),
        ("dur".to_string(), us(t.end_clock - t.start_clock)),
        ("cat".to_string(), Value::Str("session".to_string())),
    ];
    session_event.extend(base.clone());
    events.push(Value::Object(session_event));
    for e in &t.events {
        let args = Value::Object(vec![
            ("cdn".to_string(), Value::Str(cdn_label(e.cdn))),
            ("code".to_string(), Value::U64(e.code as u64)),
            ("value".to_string(), Value::F64(e.value)),
        ]);
        let mut fields = vec![
            ("name".to_string(), Value::Str(e.kind.name().to_string())),
            ("cat".to_string(), Value::Str("event".to_string())),
        ];
        if e.kind == TraceEventKind::ChunkFetch && e.value > 0.0 {
            fields.push(("ph".to_string(), Value::Str("X".to_string())));
            fields.push(("ts".to_string(), us(e.clock - e.value)));
            fields.push(("dur".to_string(), us(e.value)));
        } else {
            fields.push(("ph".to_string(), Value::Str("i".to_string())));
            fields.push(("s".to_string(), Value::Str("t".to_string())));
            fields.push(("ts".to_string(), us(e.clock)));
        }
        fields.extend(base.clone());
        fields.push(("args".to_string(), args));
        events.push(Value::Object(fields));
    }
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    let json = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string());
    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path} ({} trace events)", t.events.len() + 1);
        }
        None => outln!("{json}"),
    }
}
