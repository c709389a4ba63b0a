//! # vmp-experiments — one driver per table/figure of the paper
//!
//! Each driver regenerates its artifact from the synthetic ecosystem (or a
//! dedicated simulation for §6) and returns an [`ExperimentResult`]: the
//! printable tables/series plus a set of *qualitative checks* encoding the
//! paper's claims (orderings, crossovers, bounds). The `repro` binary runs
//! drivers and prints everything; the workspace integration tests assert
//! every check.
//!
//! The experiment IDs match DESIGN.md §3: `tab1`, `fig02` … `fig18`,
//! `summary`.

// Library policy, enforced by clippy (DESIGN.md §8); test builds are exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), warn(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap))]
#![cfg_attr(not(test), warn(clippy::cast_sign_loss))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(not(test), warn(clippy::disallowed_types))]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod context;
pub mod figures;
pub mod report;
pub mod result;

pub use context::{ReproContext, Scale};
pub use report::{validate_report, Diagnostics, ExperimentSummary, RunReport, REPORT_SCHEMA};
pub use result::{Check, ExperimentResult};

/// All paper-artifact experiment IDs in paper order.
pub const ALL_EXPERIMENTS: [&str; 19] = [
    "tab1", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "summary",
];

/// Ablation experiments beyond the paper (run with `repro --ablations` or
/// by ID).
pub const ABLATIONS: [&str; 4] = ["abl-abr", "abl-dedup", "abl-broker", "abl-live"];

/// Scenario experiments: dedicated simulations (fault injection,
/// resilience, health monitoring) that need only a seed, not the generated
/// ecosystem.
pub const SCENARIOS: [&str; 3] = ["resilience", "monitor", "live_event"];

/// Whether an experiment can run without the generated ecosystem (`repro`
/// skips the expensive dataset build when every requested ID is
/// standalone).
pub fn is_standalone(id: &str) -> bool {
    ABLATIONS.contains(&id) || SCENARIOS.contains(&id)
}

/// Runs one experiment by ID, stamping wall time and the per-stage latency
/// breakdown (from global-registry histogram deltas) onto the result.
pub fn run(id: &str, ctx: &ReproContext) -> Option<ExperimentResult> {
    timed(id, || dispatch(id, ctx))
}

/// Runs a standalone (ecosystem-free) experiment by ID with the given
/// master seed. Returns `None` for unknown or ecosystem-bound IDs.
pub fn run_standalone(id: &str, seed: u64) -> Option<ExperimentResult> {
    timed(id, || dispatch_standalone(id, seed))
}

/// The interned `'static` form of a known experiment ID, so per-experiment
/// trace slices can reuse the span API (span names are `&'static str`).
fn static_id(id: &str) -> Option<&'static str> {
    ALL_EXPERIMENTS
        .iter()
        .chain(ABLATIONS.iter())
        .chain(SCENARIOS.iter())
        .find(|&&known| known == id)
        .copied()
}

fn timed(id: &str, f: impl FnOnce() -> Option<ExperimentResult>) -> Option<ExperimentResult> {
    let before = vmp_obs::snapshot();
    let started = vmp_obs::Stopwatch::start();
    let _slice = static_id(id).map(vmp_obs::span);
    let mut result = f()?;
    result.wall_time_secs = started.elapsed_secs();
    result.stages = stage_breakdown(&before, &vmp_obs::snapshot());
    Some(result)
}

/// Per-stage seconds spent between two registry snapshots: the sum deltas
/// of every span histogram (spans record nanoseconds; `*_us` histograms
/// hold simulated virtual-clock values and are excluded).
fn stage_breakdown(
    before: &vmp_obs::RegistrySnapshot,
    after: &vmp_obs::RegistrySnapshot,
) -> Vec<(String, f64)> {
    after
        .histograms
        .iter()
        .filter(|(name, _)| !name.ends_with("_us"))
        .filter_map(|(name, h)| {
            let prior = before.histograms.get(name).map(|p| p.sum).unwrap_or(0);
            let delta_ns = h.sum.saturating_sub(prior);
            (delta_ns > 0).then(|| (name.clone(), delta_ns as f64 / 1e9))
        })
        .collect()
}

fn dispatch_standalone(id: &str, seed: u64) -> Option<ExperimentResult> {
    match id {
        "abl-abr" => Some(figures::ablations::run_abr()),
        "abl-dedup" => Some(figures::ablations::run_dedup()),
        "abl-broker" => Some(figures::ablations::run_broker()),
        "abl-live" => Some(figures::ablations::run_live_latency()),
        "resilience" => Some(figures::resilience::run(seed)),
        "monitor" => Some(figures::monitor::run(seed)),
        "live_event" => Some(figures::live_event::run(seed)),
        _ => None,
    }
}

fn dispatch(id: &str, ctx: &ReproContext) -> Option<ExperimentResult> {
    if is_standalone(id) {
        return dispatch_standalone(id, ctx.dataset.config.seed);
    }
    match id {
        "tab1" => Some(figures::tab1::run()),
        "fig02" => Some(figures::fig02::run(ctx)),
        "fig03" => Some(figures::fig03::run(ctx)),
        "fig04" => Some(figures::fig04::run(ctx)),
        "fig05" => Some(figures::fig05::run()),
        "fig06" => Some(figures::fig06::run(ctx)),
        "fig07" => Some(figures::fig07::run(ctx)),
        "fig08" => Some(figures::fig08::run(ctx)),
        "fig09" => Some(figures::fig09::run(ctx)),
        "fig10" => Some(figures::fig10::run(ctx)),
        "fig11" => Some(figures::fig11::run(ctx)),
        "fig12" => Some(figures::fig12::run(ctx)),
        "fig13" => Some(figures::fig13::run(ctx)),
        "fig14" => Some(figures::fig14::run(ctx)),
        "fig15" => Some(figures::fig15::run(ctx)),
        "fig16" => Some(figures::fig16::run(ctx)),
        "fig17" => Some(figures::fig17::run()),
        "fig18" => Some(figures::fig18::run(ctx)),
        "summary" => Some(figures::summary::run(ctx)),
        _ => None,
    }
}
