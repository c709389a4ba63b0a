//! The four workloads: what each sets up, what one timed iteration does,
//! and which of its outputs are checked.
//!
//! A run repeats one workload's iteration on identical inputs for the run
//! length and reports medians, so an iteration is sized to 1–4 seconds on
//! a 2-core host; the shape of each workload (session length, store
//! mode, working set against the hot cache) is what later changes are
//! judged on, not its absolute size.

use std::path::{Path, PathBuf};

use vmp_analytics::store::ViewStore;
use vmp_core::view::SampledView;
use vmp_obs::Stopwatch;
use vmp_synth::ecosystem::{Dataset, EcosystemConfig};

use crate::alloc::{AllocHooks, AllocTotals};
use crate::product::{self, StoreProbe, StoreSpec};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper reader's run: long sessions, resident store with rows
    /// retained, all 19 experiments.
    PaperFull,
    /// Out-of-core streaming: short sessions, rows dropped, segments
    /// spilled under a hot cache 3.6× smaller than the columns.
    ScaleStream,
    /// Ingest and scan of a pre-generated corpus; generation is set-up.
    IngestSpill,
    /// The fault, monitor and live-event scenarios over a seed range.
    ScenarioSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] =
        [Workload::PaperFull, Workload::ScaleStream, Workload::IngestSpill, Workload::ScenarioSweep];

    /// The name later issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::ScaleStream => "scale_stream",
            Workload::IngestSpill => "ingest_spill",
            Workload::ScenarioSweep => "scenario_sweep",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of a run.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    /// Every n-th of the 54 snapshots (plus the last).
    stride: u32,
    /// Samples per (publisher, snapshot) cell of the paper-shaped
    /// ecosystem: the mean of `ViewGenConfig::default()`'s 40..700 clamp
    /// at the default seed.
    paper_samples: usize,
    /// Samples per cell of the short-session ecosystem (before the volume
    /// multiplier): the mean of `EcosystemConfig::small()`'s 25..400.
    small_samples: usize,
    /// Hot-cache budget of the spilling workloads, decoded bytes.
    hot_budget: usize,
    /// Seeds per `scenario_sweep` iteration.
    sweep_seeds: u64,
}

/// View-volume multiplier of the two spilling workloads.
const VOLUME_SCALE: u64 = 2;

impl Sizes {
    fn of(smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                stride: 27,
                paper_samples: 45,
                small_samples: 34,
                hot_budget: 64 << 10,
                sweep_seeds: 1,
            }
        } else {
            // 10 snapshots × 120 publishers: 432,000 views for `paper_full`,
            // 648,000 (29.2 MB of columns in ten 2.9 MB segments, of which
            // 8 MiB holds two) for the spilling workloads.
            Sizes {
                stride: 6,
                paper_samples: 360,
                small_samples: 270,
                hot_budget: 8 << 20,
                sweep_seeds: 8,
            }
        }
    }
}

/// What a run was started with.
#[derive(Debug, Clone, Copy)]
pub struct Env<'a> {
    /// Master seed of every generated input.
    pub seed: u64,
    /// Tiny inputs, same code paths.
    pub smoke: bool,
    /// Directory the run may write under (spill files, traces).
    pub out_dir: &'a Path,
    /// The allocation counter.
    pub allocs: &'a AllocHooks,
}

/// Inputs built by set-up and reused by every iteration.
#[derive(Debug)]
pub struct Prepared {
    workload: Workload,
    sizes: Sizes,
    seed: u64,
    spill_dir: PathBuf,
    /// `ingest_spill` only: the corpus and the resident oracle's output.
    corpus: Option<PreparedCorpus>,
}

#[derive(Debug)]
struct PreparedCorpus {
    /// Profiles and graph; lent to each pass's context (a `ReproContext`
    /// owns its dataset) and handed back.
    dataset: Option<Dataset>,
    batches: Vec<Vec<SampledView>>,
    views: u64,
    oracle: String,
}

/// Extra work an iteration does outside its timers.
#[derive(Debug, Clone, Copy, Default)]
pub struct IterMode {
    /// Count allocations over the iteration (slows it: timing is void).
    pub count_allocs: bool,
    /// Probe the store's read path before the store is dropped.
    pub probe_store: bool,
}

/// What one iteration measured and checked.
#[derive(Debug, Default)]
pub struct IterOutcome {
    /// The timed region: inputs → results exported and store dropped.
    pub wall_s: f64,
    /// The part of it that produced the store: generate + ingest, ingest
    /// alone on `ingest_spill`, all of it on `scenario_sweep`.
    pub produce_s: f64,
    /// Views generated/ingested (sessions played on `scenario_sweep`).
    pub views: u64,
    /// FNV-1a of the normalised results document.
    pub output_hash: u64,
    /// Bytes of the exported document.
    pub export_bytes: u64,
    /// Qualitative paper checks that held.
    pub checks_passed: u64,
    /// Qualitative paper checks evaluated.
    pub checks_total: u64,
    /// Output checks made by the harness: `(what, held)`.
    pub verdicts: Vec<(&'static str, bool)>,
    /// Program-made counts (obs registry deltas).
    pub hot_hits: u64,
    /// See `hot_hits`.
    pub hot_misses: u64,
    /// Spill directory bytes ÷ rows (0 without spill).
    pub spill_bytes_per_row: f64,
    /// Allocations over the iteration when counted.
    pub allocs: AllocTotals,
    /// Read-path probe when asked for.
    pub store_probe: Option<StoreProbe>,
}

/// The conservation check reads every segment, so it runs once per run.
const VERIFY_FIRST_ONLY: &str = "view-hours conserved from publisher targets to store";

impl Prepared {
    /// Builds a workload's inputs. For `ingest_spill` this generates the
    /// corpus and runs the untimed oracle: the same corpus ingested
    /// resident, scanned by the same figures.
    pub fn new(workload: Workload, env: &Env<'_>, smoke: bool) -> Result<Prepared, String> {
        let sizes = Sizes::of(smoke);
        let spill_dir =
            env.out_dir.join(format!("spill-{}-{}", workload.name(), std::process::id()));
        let mut prepared = Prepared { workload, sizes, seed: env.seed, spill_dir, corpus: None };
        if workload == Workload::IngestSpill {
            let corpus = product::generate_corpus(prepared.small_config());
            let mut silent = Tracer::new(false);
            let (store, _) = product::ingest_batches(
                &corpus.batches,
                &StoreSpec { drop_rows: true, spill: None },
                &mut silent,
                env.allocs,
            );
            let ctx = product::context(corpus.dataset, store);
            let results = product::run_figures(&product::SCAN_FIGURES, &ctx, &mut silent)?;
            let oracle = product::normalized_json(results)?;
            let (dataset, _store) = product::into_parts(ctx);
            prepared.corpus = Some(PreparedCorpus {
                dataset: Some(dataset),
                batches: corpus.batches,
                views: corpus.views,
                oracle,
            });
        }
        Ok(prepared)
    }

    /// The ecosystem this workload generates (`None` for the sweep).
    pub fn ecosystem(&self) -> Option<EcosystemConfig> {
        match self.workload {
            Workload::PaperFull => Some(self.paper_config()),
            Workload::ScaleStream | Workload::IngestSpill => Some(self.small_config()),
            Workload::ScenarioSweep => None,
        }
    }

    fn paper_config(&self) -> EcosystemConfig {
        let mut config = product::paper_config(self.seed, self.sizes.stride);
        product::pin_samples(&mut config, self.sizes.paper_samples);
        config
    }

    fn small_config(&self) -> EcosystemConfig {
        let mut config = product::small_config(self.seed, self.sizes.stride, VOLUME_SCALE);
        product::pin_samples(&mut config, self.sizes.small_samples);
        config
    }

    fn spilling(&self) -> StoreSpec {
        StoreSpec { drop_rows: true, spill: Some((self.spill_dir.clone(), self.sizes.hot_budget)) }
    }

    /// One timed iteration. `first` adds the checks that run once per run.
    pub fn iterate(
        &mut self,
        first: bool,
        mode: IterMode,
        tracer: &mut Tracer,
        allocs: &AllocHooks,
    ) -> Result<IterOutcome, String> {
        let alloc_start = (allocs.totals)();
        let reads = StoreReads::start();
        let sessions = product::obs_count("session.sessions");
        (allocs.set_counting)(mode.count_allocs);
        let done = match self.workload {
            Workload::PaperFull => {
                let store = StoreSpec::resident();
                self.ecosystem_pass(self.paper_config(), store, first, mode, tracer, allocs)
            }
            Workload::ScaleStream => {
                self.ecosystem_pass(self.small_config(), self.spilling(), first, mode, tracer, allocs)
            }
            Workload::IngestSpill => self.ingest_pass(mode, tracer, allocs),
            Workload::ScenarioSweep => self.sweep(tracer),
        };
        (allocs.set_counting)(false);
        let mut outcome = done?;
        let alloc_end = (allocs.totals)();
        outcome.allocs = AllocTotals {
            allocs: alloc_end.allocs.saturating_sub(alloc_start.allocs),
            bytes: alloc_end.bytes.saturating_sub(alloc_start.bytes),
        };
        reads.finish(&mut outcome);
        if self.workload == Workload::ScenarioSweep {
            outcome.views = product::obs_count("session.sessions").saturating_sub(sessions);
            outcome.verdicts.push(("scenarios played sessions", outcome.views > 0));
        }
        Ok(outcome)
    }

    /// Generate → ingest → 19 experiments → export → drop.
    fn ecosystem_pass(
        &self,
        config: EcosystemConfig,
        store: StoreSpec,
        first: bool,
        mode: IterMode,
        tracer: &mut Tracer,
        allocs: &AllocHooks,
    ) -> Result<IterOutcome, String> {
        let mut pass = IterOutcome::default();
        let root = tracer.begin("bench.iteration");
        let clock = Stopwatch::start();
        let built = product::build_context(config, &store, tracer, allocs);
        pass.produce_s = clock.elapsed_secs();
        pass.views = built.views;
        let figures = tracer.begin("experiments.figures");
        let results = product::run_figures(&product::PAPER_FIGURES, &built.ctx, tracer)?;
        tracer.end(figures);
        let export = product::export_json(&results, tracer)?;
        let mut timed_s = clock.elapsed_secs();

        let untimed = tracer.begin("bench.verify");
        pass.verdicts.push((
            "store holds every streamed view",
            product::store_rows(&built.ctx.store) == built.views,
        ));
        if first {
            pass.verdicts.push((VERIFY_FIRST_ONLY, product::hours_conserved(&built.ctx)));
        }
        self.inspect_store(&built.ctx.store, &store, mode, &mut pass, allocs);
        tracer.end(untimed);

        let (_dataset, view_store) = product::into_parts(built.ctx);
        let clock = Stopwatch::start();
        product::drop_store(view_store, tracer);
        timed_s += clock.elapsed_secs();
        tracer.end_with(root, &[("views", pass.views)]);
        pass.wall_s = timed_s;

        if store.spill.is_some() {
            pass.verdicts.push(("store drop removed its spill files", !self.spill_dir.exists()));
        }
        finish_output(&mut pass, &export, results)?;
        Ok(pass)
    }

    /// What is read off a built store before it drops, outside the timers.
    fn inspect_store(
        &self,
        built: &ViewStore,
        spec: &StoreSpec,
        mode: IterMode,
        pass: &mut IterOutcome,
        allocs: &AllocHooks,
    ) {
        if spec.spill.is_some() {
            pass.spill_bytes_per_row = per_row(dir_bytes(&self.spill_dir), pass.views);
        }
        if mode.probe_store {
            let counting = (allocs.set_counting)(false);
            pass.store_probe = Some(product::probe_store(built));
            (allocs.set_counting)(counting);
        }
    }

    /// Lends the corpus's dataset to one [`Prepared::ingest_corpus`] pass.
    fn ingest_pass(
        &mut self,
        mode: IterMode,
        tracer: &mut Tracer,
        allocs: &AllocHooks,
    ) -> Result<IterOutcome, String> {
        let mut corpus = self.corpus.take().ok_or("ingest_spill was not set up")?;
        let dataset = corpus.dataset.take().ok_or("the corpus's dataset is on loan")?;
        let (outcome, dataset) = self.ingest_corpus(&corpus, dataset, mode, tracer, allocs);
        corpus.dataset = Some(dataset);
        self.corpus = Some(corpus);
        outcome
    }

    /// Ingest the corpus with spill → 13 scanning figures → export → drop.
    /// The dataset comes back even when a figure failed.
    fn ingest_corpus(
        &self,
        corpus: &PreparedCorpus,
        dataset: Dataset,
        mode: IterMode,
        tracer: &mut Tracer,
        allocs: &AllocHooks,
    ) -> (Result<IterOutcome, String>, Dataset) {
        let spec = self.spilling();
        let mut pass = IterOutcome { views: corpus.views, ..IterOutcome::default() };
        let root = tracer.begin("bench.iteration");
        let (store, ingest_s) = product::ingest_batches(&corpus.batches, &spec, tracer, allocs);
        pass.produce_s = ingest_s;
        let clock = Stopwatch::start();
        let ctx = product::context(dataset, store);
        let figures = tracer.begin("experiments.figures");
        let scanned = product::run_figures(&product::SCAN_FIGURES, &ctx, tracer);
        tracer.end(figures);
        let exported = scanned.and_then(|results| {
            product::export_json(&results, tracer).map(|export| (results, export))
        });
        let mut timed_s = ingest_s + clock.elapsed_secs();

        let untimed = tracer.begin("bench.verify");
        pass.verdicts
            .push(("store holds every corpus view", product::store_rows(&ctx.store) == corpus.views));
        self.inspect_store(&ctx.store, &spec, mode, &mut pass, allocs);
        tracer.end(untimed);

        let (dataset, view_store) = product::into_parts(ctx);
        let clock = Stopwatch::start();
        product::drop_store(view_store, tracer);
        timed_s += clock.elapsed_secs();
        tracer.end_with(root, &[("views", pass.views)]);
        pass.wall_s = timed_s;

        pass.verdicts.push(("store drop removed its spill files", !self.spill_dir.exists()));
        let checked = exported.and_then(|(results, export)| {
            let oracle_matches = product::normalized_json(results.clone())? == corpus.oracle;
            pass.verdicts.push(("spilled scan equals the resident oracle", oracle_matches));
            finish_output(&mut pass, &export, results)
        });
        (checked.map(|()| pass), dataset)
    }

    /// Three scenarios at each seed of `seed .. seed + n` → export.
    fn sweep(&self, tracer: &mut Tracer) -> Result<IterOutcome, String> {
        let seeds = self.seed..self.seed.saturating_add(self.sizes.sweep_seeds);
        let mut pass = IterOutcome::default();
        let root = tracer.begin("bench.iteration");
        let clock = Stopwatch::start();
        let scenarios = tracer.begin("experiments.figures");
        let swept = product::run_scenarios(seeds, tracer);
        tracer.end(scenarios);
        let exported = swept.and_then(|results| {
            product::export_json(&results, tracer).map(|export| (results, export))
        });
        pass.wall_s = clock.elapsed_secs();
        pass.produce_s = pass.wall_s;
        tracer.end(root);
        let (results, export) = exported?;
        finish_output(&mut pass, &export, results)?;
        Ok(pass)
    }
}

/// Hot-cache hits and misses the store counted over an iteration.
struct StoreReads {
    hits: u64,
    misses: u64,
}

impl StoreReads {
    fn start() -> StoreReads {
        StoreReads {
            hits: product::obs_count("store.hot_hits"),
            misses: product::obs_count("store.hot_misses"),
        }
    }

    /// Deltas since `start`.
    fn finish(self, outcome: &mut IterOutcome) {
        outcome.hot_hits = product::obs_count("store.hot_hits").saturating_sub(self.hits);
        outcome.hot_misses = product::obs_count("store.hot_misses").saturating_sub(self.misses);
    }
}

fn finish_output(
    outcome: &mut IterOutcome,
    export: &str,
    results: Vec<vmp_experiments::ExperimentResult>,
) -> Result<(), String> {
    outcome.export_bytes = export.len() as u64;
    (outcome.checks_passed, outcome.checks_total) = product::check_counts(&results);
    outcome.output_hash = fnv1a(product::normalized_json(results)?.as_bytes());
    Ok(())
}

fn per_row(bytes: u64, rows: u64) -> f64 {
    if rows == 0 {
        0.0
    } else {
        bytes as f64 / rows as f64
    }
}

/// Bytes of the files directly under `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len())
        .fold(0u64, u64::saturating_add)
}

/// FNV-1a, 64 bit: enough to tell two results documents apart.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
