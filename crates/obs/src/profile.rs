//! Span-based self-profiler: folded stacks and stage time tables.
//!
//! While a [`crate::Recorder`] that collects a profile is installed, every
//! [`crate::Span`] drop additionally folds its elapsed time into that
//! recorder's [`Profile`], keyed by the span's full nesting path
//! (`outer;inner;leaf`). The aggregation tracks, per path, the call
//! count, *inclusive* time (the span's own wall clock) and the time
//! attributed to direct children, so *exclusive* time (self time) falls
//! out as `inclusive - children`.
//!
//! Two renderings:
//!
//! - [`Profile::folded_stacks`]: inferno/flamegraph-compatible `a;b;c N`
//!   lines where `N` is exclusive nanoseconds — feed the file to
//!   `inferno-flamegraph` (or any Brendan-Gregg-style collapser) to get a
//!   flame graph of the run;
//! - [`Profile::entries`] / [`Profile::stages`]: structured tables for the
//!   run report, the latter restricted to depth-1 spans recorded on the
//!   thread that built the recorder (the "main" pipeline thread), whose
//!   inclusive times partition the run's wall clock.
//!
//! The profiler is aggregation-only — per-event timelines stay in the
//! Chrome trace ([`crate::trace`]); this module answers "where did the
//! time go" with bounded memory no matter how long the run is.

use std::collections::BTreeMap;
use std::thread::ThreadId;

use parking_lot::Mutex;

use serde::Serialize;

/// Separator used in folded paths (the flamegraph convention).
const FOLD_SEP: char = ';';

#[derive(Debug, Default)]
struct PathStat {
    count: u64,
    inclusive_ns: u64,
    child_ns: u64,
    /// Inclusive time accumulated while this path was a depth-1 span on
    /// the profile's root thread (the stage-table signal).
    root_ns: u64,
    root_count: u64,
}

/// One recorder's span profile: per-path aggregates behind one mutex.
#[derive(Debug)]
pub struct Profile {
    paths: Mutex<BTreeMap<String, PathStat>>,
    /// Thread that built the recorder; its depth-1 spans form the stage
    /// table.
    pub(crate) root: ThreadId,
}

impl Profile {
    pub(crate) fn new(root: ThreadId) -> Profile {
        Profile { paths: Mutex::new(BTreeMap::new()), root }
    }

    /// Folds one finished span into the aggregation. `stack` is the full
    /// open path, outermost first, with the finished span last;
    /// `on_root_thread` says whether it closed on the root thread.
    pub(crate) fn record(&self, stack: &[&'static str], elapsed_ns: u64, on_root_thread: bool) {
        let Some((_leaf, parents)) = stack.split_last() else {
            return;
        };
        let key = stack.join(";");
        let mut paths = self.paths.lock();
        let stat = paths.entry(key).or_default();
        stat.count += 1;
        stat.inclusive_ns += elapsed_ns;
        if on_root_thread && parents.is_empty() {
            stat.root_ns += elapsed_ns;
            stat.root_count += 1;
        }
        if !parents.is_empty() {
            let parent_key = parents.join(";");
            paths.entry(parent_key).or_default().child_ns += elapsed_ns;
        }
    }

    /// Every aggregated path, sorted by path.
    pub fn entries(&self) -> Vec<ProfileEntry> {
        self.paths
            .lock()
            .iter()
            .map(|(path, stat)| ProfileEntry {
                path: path.clone(),
                count: stat.count,
                inclusive_ns: stat.inclusive_ns,
                exclusive_ns: stat.inclusive_ns.saturating_sub(stat.child_ns),
            })
            .collect()
    }

    /// The run's top-level stages: depth-1 spans recorded on the root
    /// thread, sorted by inclusive time descending. Worker-thread root
    /// spans (e.g. generator shards' snapshots) are excluded, so the
    /// inclusive times here partition — and sum to approximately — the
    /// root thread's wall clock.
    pub fn stages(&self) -> Vec<ProfileEntry> {
        let mut stages: Vec<ProfileEntry> = self
            .paths
            .lock()
            .iter()
            .filter(|(path, stat)| !path.contains(FOLD_SEP) && stat.root_count > 0)
            .map(|(path, stat)| ProfileEntry {
                path: path.clone(),
                count: stat.root_count,
                inclusive_ns: stat.root_ns,
                // Stage rows report root-thread inclusive time; exclusive
                // time is only meaningful on the full profile (a root
                // span's children may run on other threads).
                exclusive_ns: stat.root_ns.saturating_sub(stat.child_ns.min(stat.root_ns)),
            })
            .collect();
        stages.sort_by(|a, b| b.inclusive_ns.cmp(&a.inclusive_ns).then(a.path.cmp(&b.path)));
        stages
    }

    /// Renders the profile as folded-stack lines — `outer;inner;leaf N`,
    /// one line per path with nonzero exclusive nanoseconds, sorted by
    /// path — the input format of `inferno-flamegraph` and FlameGraph's
    /// `flamegraph.pl`.
    pub fn folded_stacks(&self) -> String {
        let mut out = String::new();
        for entry in self.entries() {
            if entry.exclusive_ns > 0 {
                out.push_str(&entry.path);
                out.push(' ');
                out.push_str(&entry.exclusive_ns.to_string());
                out.push('\n');
            }
        }
        out
    }
}

/// One aggregated span path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileEntry {
    /// `;`-joined nesting path, outermost first.
    pub path: String,
    /// Times a span completed at this exact path.
    pub count: u64,
    /// Total wall time of spans at this path (includes children).
    pub inclusive_ns: u64,
    /// Inclusive time minus time spent in direct child spans.
    pub exclusive_ns: u64,
}

/// Parses folded-stack text back into `(path, value)` pairs. Accepts
/// exactly the [`Profile::folded_stacks`] dialect: one `path N` pair per line,
/// space-separated, `N` a non-negative integer. Used by the round-trip
/// tests and by `vmp-bench` when diffing committed profiles.
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((path, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: expected `path N`, got `{line}`", lineno + 1));
        };
        let value: u64 = value
            .parse()
            .map_err(|e| format!("line {}: bad sample value `{value}`: {e}", lineno + 1))?;
        if path.is_empty() {
            return Err(format!("line {}: empty path", lineno + 1));
        }
        out.push((path.to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> Profile {
        Profile::new(std::thread::current().id())
    }

    #[test]
    fn records_inclusive_exclusive_and_counts() {
        let profile = profile();
        profile.record(&["gen"], 100, true);
        profile.record(&["gen", "sample"], 60, true);
        profile.record(&["gen", "sample"], 20, true);
        profile.record(&["gen"], 0, true); // second call, zero elapsed

        let entries = profile.entries();
        let gen = entries.iter().find(|e| e.path == "gen").expect("gen path");
        assert_eq!(gen.count, 2);
        assert_eq!(gen.inclusive_ns, 100);
        assert_eq!(gen.exclusive_ns, 100 - 80);
        let sample = entries.iter().find(|e| e.path == "gen;sample").expect("child path");
        assert_eq!(sample.count, 2);
        assert_eq!(sample.inclusive_ns, 80);
        assert_eq!(sample.exclusive_ns, 80);
    }

    #[test]
    fn stage_entries_only_see_root_thread_roots() {
        let recorder = crate::Recorder::new(crate::Collect { profile: true, ..Default::default() });
        let reg = crate::MetricsRegistry::new();
        {
            let _installed = recorder.install();
            drop(crate::span_in(&reg, "main_stage"));
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let _installed = recorder.install();
                drop(crate::span_in(&reg, "worker_root"));
            });
        });

        let stages = recorder.profile().stages();
        assert!(stages.iter().any(|e| e.path == "main_stage"));
        assert!(
            !stages.iter().any(|e| e.path == "worker_root"),
            "worker-thread roots must not count as run stages"
        );
        // ...but the full profile still sees the worker's time.
        assert!(recorder.profile().entries().iter().any(|e| e.path == "worker_root"));
    }

    #[test]
    fn folded_round_trips_through_parse() {
        let profile = profile();
        profile.record(&["a"], 1000, true);
        profile.record(&["a", "b"], 400, true);
        profile.record(&["a", "b", "c"], 150, true);
        profile.record(&["z"], 7, true);

        let folded = profile.folded_stacks();
        let parsed = parse_folded(&folded).expect("round-trip parse");
        let rerendered: String =
            parsed.iter().map(|(p, v)| format!("{p} {v}\n")).collect();
        assert_eq!(folded, rerendered, "parse→render must be the identity");
        let total: u64 = parsed.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 1000 + 7, "exclusive times must sum to root inclusive total");
    }

    #[test]
    fn parse_folded_rejects_malformed_lines() {
        assert!(parse_folded("no_value").is_err());
        assert!(parse_folded("path notanumber").is_err());
        assert!(parse_folded(" 42").is_err());
        assert_eq!(parse_folded("  \n\n").expect("blank lines ok"), Vec::new());
    }
}
