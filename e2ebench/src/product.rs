//! The one file that calls the product.
//!
//! Every call into a `vmp-*` crate the benchmark makes lives here, wrapped
//! in the span that times it, so an API-renaming refactor of the product
//! needs to touch exactly this file of the benchmark. Layers are measured
//! from outside — by timing their public functions — and named after the
//! crate that owns them (`synth.*`, `analytics.*`, `experiments.*` …).

use std::ops::Range;
use std::path::PathBuf;

use vmp_abr::algorithm::{AbrAlgorithm, Bba, Bola, ThroughputRule};
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_analytics::columns::{rollup_segment, DimColumn, Metric};
use vmp_analytics::segstore::SpillConfig;
use vmp_analytics::store::{IngestOptions, IngestPipeline, ViewStore};
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{SessionId, VideoId};
use vmp_core::ladder::BitrateLadder;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::sdk::SdkVersion;
use vmp_core::time::SnapshotId;
use vmp_core::units::Seconds;
use vmp_core::view::{OwnershipFlag, SampledView};
use vmp_experiments::{ExperimentResult, ReproContext};
use vmp_obs::Stopwatch;
use vmp_session::player::{PlaybackConfig, Player, SessionOutcome};
use vmp_session::telemetry::{ClientContext, TelemetryBuilder};
use vmp_stats::Rng;
use vmp_synth::ecosystem::{Dataset, EcosystemConfig};
use vmp_synth::stream::ViewStream;
use vmp_synth::views::{generate_views, ViewGenConfig};
use vmp_syndication::catalogue::CatalogueStudy;
use vmp_syndication::storage::storage_study;

use crate::alloc::AllocHooks;
use crate::trace::Tracer;

/// Figures that scan the store (`scan_figures` in the README).
pub const SCAN_FIGURES: [&str; 13] = [
    "fig02", "fig03", "fig04", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "summary",
];

/// Figures that run their own study and ignore the store.
pub const STUDY_FIGURES: [&str; 6] = ["tab1", "fig05", "fig15", "fig16", "fig17", "fig18"];

/// Scenario experiments (faults, monitor, live event).
pub const SCENARIOS: [&str; 3] = vmp_experiments::SCENARIOS;

/// All 19 paper experiments, in paper order.
pub const PAPER_FIGURES: [&str; 19] = vmp_experiments::ALL_EXPERIMENTS;

/// Span name of one experiment driver (span names are `&'static str`).
pub fn experiment_span(id: &str) -> &'static str {
    const SPANS: [(&str, &str); 22] = [
        ("tab1", "experiments.tab1"),
        ("fig02", "experiments.fig02"),
        ("fig03", "experiments.fig03"),
        ("fig04", "experiments.fig04"),
        ("fig05", "experiments.fig05"),
        ("fig06", "experiments.fig06"),
        ("fig07", "experiments.fig07"),
        ("fig08", "experiments.fig08"),
        ("fig09", "experiments.fig09"),
        ("fig10", "experiments.fig10"),
        ("fig11", "experiments.fig11"),
        ("fig12", "experiments.fig12"),
        ("fig13", "experiments.fig13"),
        ("fig14", "experiments.fig14"),
        ("fig15", "experiments.fig15"),
        ("fig16", "experiments.fig16"),
        ("fig17", "experiments.fig17"),
        ("fig18", "experiments.fig18"),
        ("summary", "experiments.summary"),
        ("resilience", "experiments.resilience"),
        ("monitor", "experiments.monitor"),
        ("live_event", "experiments.live_event"),
    ];
    SPANS.iter().find(|(known, _)| *known == id).map_or("experiments.unknown", |(_, span)| span)
}

/// Generator shards the benchmark asks for: the cores it may use, capped
/// at 4 (output bytes do not depend on the shard count).
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// The paper-shaped ecosystem (`EcosystemConfig::default()`: 120
/// publishers, 36 s simulated media per session) at the given stride.
pub fn paper_config(seed: u64, snapshot_stride: u32) -> EcosystemConfig {
    EcosystemConfig {
        seed,
        snapshot_stride,
        threads: generator_threads(),
        ..EcosystemConfig::default()
    }
}

/// The short-session ecosystem (`EcosystemConfig::small()`: 12 s simulated
/// media per session) with a view-volume multiplier.
pub fn small_config(seed: u64, snapshot_stride: u32, volume_scale: u64) -> EcosystemConfig {
    let mut config = EcosystemConfig::small();
    config.seed = seed;
    config.snapshot_stride = snapshot_stride;
    config.threads = generator_threads();
    config.view_gen.volume_scale = volume_scale;
    config
}

/// Gives every (publisher, snapshot) cell the same sample count. The
/// product sizes a cell by the publisher's view-hours, so its view total
/// moves ±12 % with the seed; pinned, every seed generates the same number
/// of views and a run's time measures the program, not the draw.
pub fn pin_samples(config: &mut EcosystemConfig, samples: usize) {
    let gen: &mut ViewGenConfig = &mut config.view_gen;
    gen.min_samples = samples.max(1);
    gen.max_samples = samples.max(1);
}

/// How a workload's store keeps what it ingests.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    /// Drop raw rows after the columnar build.
    pub drop_rows: bool,
    /// Spill sealed segments under this directory with this hot-cache
    /// budget (decoded bytes).
    pub spill: Option<(PathBuf, usize)>,
}

impl StoreSpec {
    /// Rows retained, every segment resident.
    pub fn resident() -> StoreSpec {
        StoreSpec { drop_rows: false, spill: None }
    }

    fn options(&self) -> IngestOptions {
        IngestOptions {
            drop_rows: self.drop_rows,
            spill: self
                .spill
                .clone()
                .map(|(dir, hot_budget_bytes)| SpillConfig { dir, hot_budget_bytes }),
        }
    }
}

/// A generated-and-ingested ecosystem plus what crossed the shard channel.
#[derive(Debug)]
pub struct Built {
    /// Dataset (views handed out) and store, as the figure drivers take it.
    pub ctx: ReproContext,
    /// Views the stream delivered.
    pub views: u64,
}

/// Generation streamed straight into ingest — the same assembly as
/// `ReproContext::with_options`, with a span around every product call.
pub fn build_context(
    config: EcosystemConfig,
    store: &StoreSpec,
    tracer: &mut Tracer,
    allocs: &AllocHooks,
) -> Built {
    let scale_factor = config.view_gen.volume_scale.max(1);
    let mut stream = tracer.leaf("synth.stream_new", || ViewStream::new(config));
    let mut pipeline = tracer.leaf("analytics.pipeline_new", || IngestPipeline::new(store.options()));
    let mut views = 0u64;
    loop {
        let wait = tracer.begin("synth.next_batch");
        let Some(batch) = stream.next_batch() else {
            tracer.end(wait);
            break;
        };
        let n = batch.views.len() as u64;
        tracer.end_with(wait, &[("views", n)]);
        views = views.saturating_add(n);
        push_batch(&mut pipeline, batch.views, tracer, allocs);
    }
    let store = tracer.leaf("analytics.finish", || pipeline.finish());
    let dataset = tracer.leaf("synth.into_dataset", || stream.into_dataset());
    Built { ctx: ReproContext { dataset, store, scale_factor }, views }
}

fn push_batch(
    pipeline: &mut IngestPipeline,
    views: Vec<SampledView>,
    tracer: &mut Tracer,
    allocs: &AllocHooks,
) {
    let n = views.len() as u64;
    tracer.leaf_with("analytics.push_batch", || {
        let before = (allocs.thread_allocs)();
        pipeline.push_batch(views);
        let made = (allocs.thread_allocs)().saturating_sub(before);
        ((), [("views", n), ("allocs", made)])
    });
}

/// A pre-generated view corpus, batched as the stream delivered it.
#[derive(Debug)]
pub struct Corpus {
    /// Profiles, graph and snapshot list (views handed out).
    pub dataset: Dataset,
    /// The delivered batches, snapshot-ascending.
    pub batches: Vec<Vec<SampledView>>,
    /// Total views.
    pub views: u64,
}

/// Generates a corpus and keeps it in memory (set-up of `ingest_spill`).
pub fn generate_corpus(config: EcosystemConfig) -> Corpus {
    let mut stream = ViewStream::new(config);
    let mut batches = Vec::new();
    let mut views = 0u64;
    while let Some(batch) = stream.next_batch() {
        views = views.saturating_add(batch.views.len() as u64);
        batches.push(batch.views);
    }
    Corpus { dataset: stream.into_dataset(), batches, views }
}

/// Ingests a copy of `batches` and returns the store with the seconds the
/// product's ingest calls took. The copies are the harness's work: made
/// between the timers, inside `bench.clone_batch` spans, and uncounted.
pub fn ingest_batches(
    batches: &[Vec<SampledView>],
    store: &StoreSpec,
    tracer: &mut Tracer,
    allocs: &AllocHooks,
) -> (ViewStore, f64) {
    let clock = Stopwatch::start();
    let mut pipeline = tracer.leaf("analytics.pipeline_new", || IngestPipeline::new(store.options()));
    let mut ingest_ns = clock.elapsed_nanos();
    for batch in batches {
        let counting = (allocs.set_counting)(false);
        let copy = tracer.leaf("bench.clone_batch", || batch.clone());
        (allocs.set_counting)(counting);
        let clock = Stopwatch::start();
        push_batch(&mut pipeline, copy, tracer, allocs);
        ingest_ns = ingest_ns.saturating_add(clock.elapsed_nanos());
    }
    let clock = Stopwatch::start();
    let store = tracer.leaf("analytics.finish", || pipeline.finish());
    ingest_ns = ingest_ns.saturating_add(clock.elapsed_nanos());
    (store, ingest_ns as f64 / 1e9)
}

/// The figure drivers' view of a dataset and a store.
pub fn context(dataset: Dataset, store: ViewStore) -> ReproContext {
    let scale_factor = dataset.config.view_gen.volume_scale.max(1);
    ReproContext { dataset, store, scale_factor }
}

/// Splits a context so the store can be dropped under its own span.
pub fn into_parts(ctx: ReproContext) -> (Dataset, ViewStore) {
    (ctx.dataset, ctx.store)
}

/// Drops the store (removing its spill directory) under a span.
pub fn drop_store(store: ViewStore, tracer: &mut Tracer) {
    tracer.leaf("analytics.store_drop", || drop(store));
}

/// Runs experiment drivers against a context, one span each.
pub fn run_figures(
    ids: &[&str],
    ctx: &ReproContext,
    tracer: &mut Tracer,
) -> Result<Vec<ExperimentResult>, String> {
    ids.iter()
        .map(|id| {
            tracer
                .leaf(experiment_span(id), || vmp_experiments::run(id, ctx))
                .ok_or_else(|| format!("unknown experiment {id}"))
        })
        .collect()
}

/// Runs every scenario at every seed of `seeds`, one span each.
pub fn run_scenarios(
    seeds: Range<u64>,
    tracer: &mut Tracer,
) -> Result<Vec<ExperimentResult>, String> {
    let mut results = Vec::new();
    for seed in seeds {
        for id in SCENARIOS {
            let result = tracer
                .leaf(experiment_span(id), || vmp_experiments::run_standalone(id, seed))
                .ok_or_else(|| format!("unknown scenario {id}"))?;
            results.push(result);
        }
    }
    Ok(results)
}

/// The results document a reader gets (`repro --json` renders the same
/// experiment list).
pub fn export_json(results: &[ExperimentResult], tracer: &mut Tracer) -> Result<String, String> {
    tracer
        .leaf("experiments.export_json", || serde_json::to_string_pretty(results))
        .map_err(|e| format!("results do not serialize: {e}"))
}

/// The results with run-dependent fields (`wall_time_secs`, `stages`)
/// blanked — what output checks compare.
pub fn normalized_json(mut results: Vec<ExperimentResult>) -> Result<String, String> {
    for result in &mut results {
        result.wall_time_secs = 0.0;
        result.stages.clear();
    }
    serde_json::to_string_pretty(&results).map_err(|e| format!("results do not serialize: {e}"))
}

/// `(passed, total)` qualitative checks over a result list.
pub fn check_counts(results: &[ExperimentResult]) -> (u64, u64) {
    let total: usize = results.iter().map(|r| r.checks.len()).sum();
    let failed: usize = results.iter().map(|r| r.failures().len()).sum();
    (total.saturating_sub(failed) as u64, total as u64)
}

/// Horvitz–Thompson conservation: at every snapshot the store's weighted
/// view-hours equal the sum of the publishers' two-day targets. Holds only
/// if generation, the shard channel, ingest and the column build (and the
/// spill round-trip, when on) all kept every row, weight and duration.
pub fn hours_conserved(ctx: &ReproContext) -> bool {
    ctx.dataset.snapshots.iter().all(|snapshot| {
        let target: f64 =
            ctx.dataset.profiles.iter().map(|p| p.plane(*snapshot).vh_day * 2.0).sum();
        let stored = ctx.store.total_hours_at(*snapshot);
        target > 0.0 && (stored / target - 1.0).abs() < 1e-6
    })
}

/// Rows in the store.
pub fn store_rows(store: &ViewStore) -> u64 {
    store.len() as u64
}

/// A program-made count from the obs registry (deltas of these are
/// labelled as such wherever they are reported).
pub fn obs_count(name: &str) -> u64 {
    vmp_obs::counter(name).get()
}

// ---------------------------------------------------------------------------
// Probes: single-threaded timings of one layer on the workload's inputs.
// ---------------------------------------------------------------------------

/// Cost of the generation kernel, per view.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellProbe {
    /// `generate_views` nanoseconds per generated view.
    pub ns_per_view: f64,
    /// Allocations per generated view.
    pub allocs_per_view: f64,
    /// Allocated bytes per generated view.
    pub alloc_bytes_per_view: f64,
}

/// Times single-threaded `generate_views` on every 7th publisher at the
/// first, middle and last generated snapshot — the cells `ViewStream`
/// shards generate, with the same per-cell RNG forks. The profiles and
/// graph come from a stream abandoned before its first batch.
pub fn probe_cells(config: EcosystemConfig, allocs: &AllocHooks) -> CellProbe {
    let dataset = ViewStream::new(config).into_dataset();
    let snapshots = &dataset.snapshots;
    let picks: Vec<SnapshotId> = [0, snapshots.len() / 2, snapshots.len().saturating_sub(1)]
        .iter()
        .filter_map(|&i| snapshots.get(i).copied())
        .collect();
    let master = Rng::seed_from(dataset.config.seed);
    let mut spent_ns = 0u64;
    let mut views = 0u64;
    (allocs.set_counting)(true);
    let before = (allocs.totals)();
    for snapshot in picks {
        for (pi, profile) in dataset.profiles.iter().enumerate().step_by(7) {
            let mut rng = master.fork(1000 + u64::from(snapshot.index())).fork(pi as u64);
            let plane = profile.plane(snapshot);
            let clock = Stopwatch::start();
            let cell = generate_views(
                profile,
                &plane,
                &dataset.graph,
                &dataset.config.view_gen,
                snapshot,
                0,
                &mut rng,
            );
            spent_ns = spent_ns.saturating_add(clock.elapsed_nanos());
            views = views.saturating_add(cell.len() as u64);
        }
    }
    let after = (allocs.totals)();
    (allocs.set_counting)(false);
    let per_view = |n: u64| if views == 0 { 0.0 } else { n as f64 / views as f64 };
    CellProbe {
        ns_per_view: per_view(spent_ns),
        allocs_per_view: per_view(after.allocs.saturating_sub(before.allocs)),
        alloc_bytes_per_view: per_view(after.bytes.saturating_sub(before.bytes)),
    }
}

/// Cost of the session layer's three per-view calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionProbe {
    /// `Player::new` + `play_with` nanoseconds per session.
    pub play_ns_per_session: f64,
    /// `TelemetryBuilder::build` nanoseconds per record.
    pub telemetry_build_ns: f64,
    /// `manifest_url` + `classify` nanoseconds per URL.
    pub url_classify_ns: f64,
}

/// Plays 2,000 fixed sessions of `sim_cap` simulated media, cycling the
/// three ABR algorithms and the connection types, then times the telemetry
/// build and the manifest-URL round trip on the same sessions.
pub fn probe_sessions(sim_cap: Seconds) -> Result<SessionProbe, String> {
    const SESSIONS: u64 = 2_000;
    const CALLS: u64 = 20_000;
    let ladder = BitrateLadder::from_bitrates(&[145, 290, 580, 1100, 2200, 3600, 5400, 7000, 8600])
        .map_err(|e| format!("probe ladder: {e}"))?;
    let throughput = ThroughputRule::default();
    let bba = Bba::default();
    let bola = Bola::default();
    let abrs: [&dyn AbrAlgorithm; 3] = [&throughput, &bba, &bola];

    let mut outcomes: Vec<SessionOutcome> = Vec::new();
    let mut play_ns = 0u64;
    for i in 0..SESSIONS {
        let abr = abrs.iter().cycle().nth(i as usize).copied().ok_or("no ABR")?;
        let connection =
            ConnectionType::ALL.iter().cycle().nth((i / 3) as usize).copied().ok_or("no connection")?;
        let network = NetworkModel::new(NetworkProfile::for_connection(connection, 1.0));
        let content = Seconds(sim_cap.0 * 2.0);
        let config = if i % 4 == 3 {
            PlaybackConfig::live(ladder.clone(), content, sim_cap)
        } else {
            PlaybackConfig::vod(ladder.clone(), content, sim_cap)
        };
        let mut rng = Rng::seed_from(i);
        let clock = Stopwatch::start();
        let mut player = Player::new(config, network, abr)?;
        let outcome = player.play_with(CdnName::A, None, &mut rng);
        play_ns = play_ns.saturating_add(clock.elapsed_nanos());
        if outcomes.len() < 256 {
            outcomes.push(outcome);
        }
    }

    let client = ClientContext {
        device: DeviceModel::Roku,
        sdk_version: SdkVersion::new(3, 1),
        region: *Region::ALL.first().ok_or("no region")?,
        isp: Isp::X,
        connection: ConnectionType::Wifi,
    };
    let host = CdnName::A.host();
    let builder = TelemetryBuilder {
        session: SessionId::new(1),
        snapshot: SnapshotId::LAST,
        publisher: vmp_core::ids::PublisherId::new(42),
        video: VideoId::new(9),
        manifest_url: vmp_manifest::manifest_url(StreamingProtocol::Hls, &host, "p0042", "v000009"),
        available_bitrates: ladder.bitrates(),
        class: ContentClass::Vod,
        ownership: OwnershipFlag::Owned,
    };
    let clock = Stopwatch::start();
    for outcome in outcomes.iter().cycle().take(CALLS as usize) {
        std::hint::black_box(builder.build(&client, std::hint::black_box(outcome)));
    }
    let build_ns = clock.elapsed_nanos();

    let clock = Stopwatch::start();
    for protocol in StreamingProtocol::ALL.iter().cycle().take(CALLS as usize) {
        let url = vmp_manifest::manifest_url(*protocol, &host, "p0042", std::hint::black_box("v000009"));
        std::hint::black_box(vmp_manifest::classify(&url));
    }
    let url_ns = clock.elapsed_nanos();

    Ok(SessionProbe {
        play_ns_per_session: play_ns as f64 / SESSIONS as f64,
        telemetry_build_ns: build_ns as f64 / CALLS as f64,
        url_classify_ns: url_ns as f64 / CALLS as f64,
    })
}

/// Cost of the store's read path, per row.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreProbe {
    /// Cold `ViewStore::segment` (block decode) nanoseconds per row; 0 for
    /// a resident store, which has nothing to decode.
    pub decode_ns_per_row: f64,
    /// `rollup_segment` nanoseconds per row per column.
    pub rollup_ns_per_row: f64,
}

/// Times segment loads and rollup kernels over the workload's own store.
/// Two ascending passes over a spilled store whose hot cache holds fewer
/// segments than the store has keep every load after the first few cold;
/// only loads the store itself counted as a miss are timed as decodes.
pub fn probe_store(store: &ViewStore) -> StoreProbe {
    const COLUMNS: [DimColumn; 9] = [
        DimColumn::Protocol,
        DimColumn::Platform,
        DimColumn::Device,
        DimColumn::BrowserTech,
        DimColumn::Cdn,
        DimColumn::Region,
        DimColumn::Isp,
        DimColumn::Connection,
        DimColumn::Class,
    ];
    let snapshots = store.snapshots();
    let (mut decode_ns, mut decoded_rows) = (0u64, 0u64);
    let (mut rollup_ns, mut rolled_rows) = (0u64, 0u64);
    for pass in 0..2 {
        for snapshot in &snapshots {
            let misses = obs_count("store.hot_misses");
            let clock = Stopwatch::start();
            let Some(segment) = store.segment(*snapshot) else { continue };
            let load_ns = clock.elapsed_nanos();
            if obs_count("store.hot_misses") > misses {
                decode_ns = decode_ns.saturating_add(load_ns);
                decoded_rows = decoded_rows.saturating_add(segment.len() as u64);
            }
            if pass == 0 {
                let clock = Stopwatch::start();
                for column in COLUMNS {
                    std::hint::black_box(rollup_segment(&segment, None, column, Metric::Hours));
                }
                rollup_ns = rollup_ns.saturating_add(clock.elapsed_nanos());
                rolled_rows =
                    rolled_rows.saturating_add((segment.len() * COLUMNS.len()) as u64);
            }
        }
    }
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    StoreProbe {
        decode_ns_per_row: per(decode_ns, decoded_rows),
        rollup_ns_per_row: per(rollup_ns, rolled_rows),
    }
}

/// Seconds of one `storage_study` over the paper's catalogue (the body of
/// fig18, the largest study figure).
pub fn probe_storage_study() -> f64 {
    let study = CatalogueStudy::paper_setting();
    let clock = Stopwatch::start();
    std::hint::black_box(storage_study(&study));
    clock.elapsed_secs()
}
