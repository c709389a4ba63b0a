//! Weighted view-sample generation for one (publisher, snapshot) cell.
//!
//! Each cell generates `n` sampled views stratified to the publisher's
//! management plane at that snapshot, then weights them so the weighted sum
//! of view-hours equals the publisher's target for the two-day window
//! (Horvitz–Thompson; see `vmp_core::view::SampledView`).
//!
//! A view is *sampled*, not played: its record carries what the figures
//! read — device, player identity, the broker-selected CDN, the manifest
//! URL, the sampled viewing time — and no playback session runs. No figure
//! reads a generated view's delivery performance; the QoE comparisons of
//! Figs 15–16 and the fault, monitor and live-event scenarios run their own
//! sessions through `vmp-session`. Every RNG draw therefore feeds a field of
//! the record.
//!
//! # The cell plan
//!
//! A cell has 25–700 × `volume_scale` views, and every sampling table they
//! draw from is the same for all of them. [`generate_views`] therefore
//! compiles a private [`CellPlan`] once at the top of the call, and the
//! per-view loop only *samples* from it. The plan owns what is a pure
//! function of `(plane, profile, snapshot)`:
//!
//! * built eagerly — the platform, region and title tables, one
//!   [`DeviceTable`] and one duration `LogNormal` per supported platform,
//!   the broker's eligible list and weighted table per content class, the
//!   `p{id:04}` URL prefix and the ladder's bare bitrates;
//! * filled on first use, in small linear-scan vectors (a cell meets at
//!   most 16 devices and 5 CDNs) — the protocol table per device, the host
//!   string per CDN and the user-agent per browser `(device, SDK version)`.
//!
//! A record owns no heap block of its own. The ladder and the user-agents
//! are *shared* with the records, not copied into them: every record of the
//! cell holds a pointer to the one `Arc` the plan built. The CDN set is a
//! bitmask. Each view's manifest URL is written into the cell's URL text,
//! and once the last view is drawn that text is frozen into one exact-size
//! `Arc<str>` of which every record holds its range. The syndicator's
//! licensed owners are looked up once per cell, as a slice of the graph.
//! The text is written into a buffer the generating thread keeps from cell
//! to cell, so a cell allocates its URL bytes once, in the shared text.
//!
//! **Invariant.** The plan may cache anything; it may never reorder, add or
//! drop an RNG draw. A lazily built entry is built from the cell's
//! constants only, never from the RNG, so *when* it is built cannot matter.
//! `crates/synth/tests/kernel_identity.rs` pins the delivered bytes, and
//! the unit tests below compare every table against a per-view reference
//! that builds it from scratch for each draw (the `#[cfg(test)]` oracles).

use std::cell::RefCell;
use std::sync::Arc;

use vmp_cdn::broker::{Broker, BrokerPolicy};
use vmp_cdn::strategy::{CdnAssignment, CdnStrategy};
use vmp_core::cdn::{CdnName, CdnSet};
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{PublisherId, SessionId, VideoId};
use vmp_core::platform::{BrowserTech, Platform};
use vmp_core::protocol::StreamingProtocol;
use vmp_core::publisher::SyndicationRole;
use vmp_core::sdk::SdkVersion;
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{ManifestUrl, OwnershipFlag, PlayerIdentity, SampledView, ViewRecord};
use vmp_session::telemetry::ClientContext;
use vmp_stats::curves::Trend;
use vmp_stats::{Discrete, Distribution, LogNormal, Rng, Zipf};

use crate::publisher_gen::{PublisherProfile, SnapshotPlane};
use crate::syndigraph::SyndicationGraph;
use crate::trends;

/// View-sampling configuration.
#[derive(Debug, Clone)]
pub struct ViewGenConfig {
    /// Minimum samples per (publisher, snapshot).
    pub min_samples: usize,
    /// Maximum samples per (publisher, snapshot).
    pub max_samples: usize,
    /// Inert: generation plays no session, so there is no simulated media
    /// to cap. Kept, with its per-config values, because the benchmark
    /// harness reads it to size its standalone player probe.
    pub sim_media_cap: Seconds,
    /// View-volume multiplier (`repro --scale N`). Applied to the per-cell
    /// sample count *after* the min/max clamp, so `1` reproduces the
    /// default generation byte for byte; the Horvitz–Thompson weights
    /// shrink in proportion, keeping weighted aggregates on target.
    pub volume_scale: u64,
}

impl Default for ViewGenConfig {
    fn default() -> Self {
        ViewGenConfig {
            min_samples: 40,
            max_samples: 700,
            sim_media_cap: Seconds(36.0),
            volume_scale: 1,
        }
    }
}

thread_local! {
    /// The URL text of the cell being generated and where each view's URL
    /// ends in it, kept between the cells a thread generates.
    static URL_SCRATCH: RefCell<(String, Vec<usize>)> =
        const { RefCell::new((String::new(), Vec::new())) };
}

/// Generates the weighted samples for one publisher at one snapshot.
#[allow(clippy::too_many_arguments)]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "view counts and title ranks are far below u32::MAX"
)]
pub fn generate_views(
    profile: &PublisherProfile,
    plane: &SnapshotPlane,
    graph: &SyndicationGraph,
    cfg: &ViewGenConfig,
    snapshot: SnapshotId,
    session_base: u32,
    rng: &mut Rng,
) -> Vec<SampledView> {
    // Two-day window target view-hours.
    let target_vh = plane.vh_day * 2.0;
    let n = ((plane.vh_day / trends::X_VIEW_HOURS).powf(0.45) * 30.0) as usize;
    // Both bounds are public and independent: a floor above the ceiling
    // wins rather than tripping `clamp`'s assertion.
    let n = n.clamp(cfg.min_samples, cfg.max_samples.max(cfg.min_samples))
        * cfg.volume_scale.max(1) as usize;

    let mut plan = CellPlan::new(profile, plane, snapshot.progress());
    let broker = Broker::new(BrokerPolicy::Weighted);
    let owners = graph.licensed_owners(profile.publisher.id);
    let mut token = String::new();
    let (mut urls, mut ends) = URL_SCRATCH.take();
    urls.clear();
    ends.clear();
    // Every record points at `pending` until the cell's text is complete.
    let pending = ManifestUrl::from("");

    let mut views: Vec<SampledView> = Vec::with_capacity(n);
    let mut total_hours = 0.0f64;

    for i in 0..n {
        let platform_index = plan.platform.sample(rng);
        let platform = plane.platforms[platform_index];
        let device = plan.platforms[platform_index].devices.sample(rng);
        let class = sample_class(profile, device, rng);
        let protocol = plan.sample_protocol(device, rng);
        let cdn = plan.select_cdn(&broker, class, rng);

        // Duration (hours) from the per-platform model, floored at 30 s.
        let hours = plan.platforms[platform_index].duration.sample(rng).clamp(30.0 / 3600.0, 6.0);
        let watch = Seconds::from_hours(hours);

        let region = Region::ALL[plan.region.sample(rng)];
        let isp = *rng.choose(&Isp::ALL);
        let connection = sample_connection(platform, rng);

        // Ownership: syndicators serve licensed content most of the time.
        let ownership = sample_ownership(profile, owners, rng);
        let video_rank = plan.titles.sample(rng) as u32;
        write_video_token(&mut token, video_rank);
        plan.write_manifest_url(&mut urls, protocol, cdn, &token);
        ends.push(urls.len());

        let client = ClientContext {
            device,
            sdk_version: sample_sdk_version(plane, rng),
            region,
            isp,
            connection,
        };
        let record = ViewRecord {
            session: SessionId::new(session_base.wrapping_add(i as u32)),
            snapshot,
            publisher: profile.publisher.id,
            video: VideoId::new(video_rank),
            manifest_url: pending.clone(),
            device,
            os: device.os(),
            player: plan.player_identity(&client),
            cdns: CdnSet::from(cdn),
            available_bitrates: Arc::clone(&plan.bitrates),
            viewing_time: watch,
            class,
            ownership,
            region,
            isp,
            connection,
        };

        total_hours += hours;
        views.push(SampledView { record, weight: 0.0 });
    }

    // Weight so the weighted view-hours hit the target exactly, and point
    // every record at its range of the cell's text.
    let weight = if total_hours > 0.0 { target_vh / total_hours } else { 0.0 };
    let text: Arc<str> = Arc::from(urls.as_str());
    let mut start = 0;
    for (view, &end) in views.iter_mut().zip(&ends) {
        view.weight = weight;
        // Each range ends where a whole URL was appended; only a text
        // beyond 4 GiB could miss, and then the record keeps the empty URL.
        if let Some(url) = ManifestUrl::new(Arc::clone(&text), start..end) {
            view.record.manifest_url = url;
        }
        start = end;
    }
    URL_SCRATCH.set((urls, ends));
    views
}

/// Everything about a cell that does not depend on the view: see the
/// module docs for what is in it and the invariant it keeps.
struct CellPlan<'a> {
    profile: &'a PublisherProfile,
    plane: &'a SnapshotPlane,
    /// Study progress of the cell's snapshot, `[0, 1]`.
    t: f64,
    /// Over `plane.platforms`.
    platform: Discrete,
    /// Aligned with `plane.platforms`.
    platforms: Vec<PlatformPlan>,
    /// Over `Region::ALL`.
    region: Discrete,
    /// Over the publisher's catalogue, most popular first.
    titles: Zipf,
    /// Per device met so far: its weighted table over `plane.protocols`,
    /// or `None` when the device plays nothing the publisher packages.
    protocols: Vec<(DeviceModel, Option<Discrete>)>,
    /// Broker selection per class; `None` when no CDN admits the class.
    vod: Option<ClassSelection>,
    live: Option<ClassSelection>,
    /// Host string per CDN met so far.
    hosts: Vec<(CdnName, String)>,
    /// User-agent per browser (device, SDK version) met so far.
    user_agents: Vec<((DeviceModel, SdkVersion), PlayerIdentity)>,
    /// `p{publisher id:04}`, the publisher's URL path prefix.
    prefix: String,
    /// The ladder as advertised in every record.
    bitrates: Arc<[Kbps]>,
}

/// Per supported platform: which device, and how long the view lasts.
struct PlatformPlan {
    devices: DeviceTable,
    /// View duration in hours.
    duration: LogNormal,
}

/// The CDNs a class may use and the weighted table over them, as
/// [`Broker::select_prepared`] takes them.
struct ClassSelection {
    eligible: Vec<CdnAssignment>,
    table: Discrete,
}

impl ClassSelection {
    fn prepare(strategy: &CdnStrategy, class: ContentClass) -> Option<ClassSelection> {
        let eligible = strategy.eligible(class);
        let weights: Vec<f64> = eligible.iter().map(|a| a.weight).collect();
        let table = Discrete::new(&weights).ok()?;
        Some(ClassSelection { eligible, table })
    }
}

impl<'a> CellPlan<'a> {
    fn new(profile: &'a PublisherProfile, plane: &'a SnapshotPlane, t: f64) -> CellPlan<'a> {
        let platforms = plane
            .platforms
            .iter()
            .map(|platform| {
                let (median, spread) = trends::duration_model(*platform);
                PlatformPlan {
                    devices: DeviceTable::for_platform(*platform, t),
                    duration: LogNormal::clamped_median_spread(median, spread),
                }
            })
            .collect();
        CellPlan {
            profile,
            plane,
            t,
            platform: Discrete::new_or_unit(&plane.platform_weights),
            platforms,
            region: region_table(),
            titles: Zipf::new(plane.titles.clamp(1, 5_000) as usize, 0.8)
                .unwrap_or_else(|_| Zipf::unit()),
            protocols: Vec::new(),
            vod: ClassSelection::prepare(&plane.strategy, ContentClass::Vod),
            live: ClassSelection::prepare(&plane.strategy, ContentClass::Live),
            hosts: Vec::new(),
            user_agents: Vec::new(),
            prefix: format!("p{:04}", profile.publisher.id.raw()),
            bitrates: plane.ladder.bitrates(),
        }
    }

    /// One draw when the device can play something the publisher
    /// packages, none otherwise.
    fn sample_protocol(&mut self, device: DeviceModel, rng: &mut Rng) -> StreamingProtocol {
        let (plane, profile, t) = (self.plane, self.profile, self.t);
        let table = memo(&mut self.protocols, device, || protocol_table(plane, profile, device, t));
        match table {
            Some(table) => plane.protocols[table.sample(rng)],
            // Device can't play anything the publisher packages (e.g. a
            // Silverlight view at a DASH/HLS-only publisher): fall back to
            // the publisher's primary protocol — never to a protocol
            // outside its management plane, which would corrupt the
            // support analyses.
            None => plane.protocols.first().copied().unwrap_or(StreamingProtocol::Hls),
        }
    }

    /// The broker's pick for a new view of `class` content; the strategy's
    /// first CDN when no CDN admits the class.
    fn select_cdn(&self, broker: &Broker, class: ContentClass, rng: &mut Rng) -> CdnName {
        let selection = match class {
            ContentClass::Vod => &self.vod,
            ContentClass::Live => &self.live,
        };
        selection
            .as_ref()
            .and_then(|s| broker.select_prepared(&s.eligible, &s.table, Seconds::ZERO, rng))
            .or_else(|| self.plane.strategy.assignments().first().map(|a| a.cdn))
            .unwrap_or(CdnName::A)
    }

    fn write_manifest_url(
        &mut self,
        out: &mut String,
        protocol: StreamingProtocol,
        cdn: CdnName,
        token: &str,
    ) {
        let host = memo(&mut self.hosts, cdn, || cdn.host());
        vmp_manifest::write_manifest_url(out, protocol, host, &self.prefix, token);
    }

    /// `client.player_identity()`, with one user-agent string per browser
    /// (device, SDK version) shared by every record that reports it. App
    /// identities hold no heap data, so they are built in place.
    fn player_identity(&mut self, client: &ClientContext) -> PlayerIdentity {
        if client.device.platform() != Platform::Browser {
            return client.player_identity();
        }
        memo(&mut self.user_agents, (client.device, client.sdk_version), || {
            client.player_identity()
        })
        .clone()
    }
}

/// The value cached under `key`, made on first use. A linear scan: the
/// caches of a cell hold a handful of keys.
fn memo<K: PartialEq, V>(cache: &mut Vec<(K, V)>, key: K, make: impl FnOnce() -> V) -> &V {
    let index = match cache.iter().position(|(cached, _)| *cached == key) {
        Some(index) => index,
        None => {
            cache.push((key, make()));
            cache.len() - 1
        }
    };
    &cache[index].1
}

/// Renders `v{rank:06x}` into `token` without the formatting machinery.
fn write_video_token(token: &mut String, rank: u32) {
    const HEX: [char; 16] =
        ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f'];
    token.clear();
    token.push('v');
    let digits = (u32::BITS - rank.leading_zeros()).div_ceil(4).max(6);
    for digit in (0..digits).rev() {
        token.push(HEX[(rank >> (4 * digit) & 0xf) as usize]);
    }
}

/// Standalone set-top boxes, in the order of their share table.
static SETTOP_DEVICES: [DeviceModel; 4] =
    [DeviceModel::Roku, DeviceModel::AppleTv, DeviceModel::FireTv, DeviceModel::Chromecast];

/// Smart TVs, in the order of their share table.
static SMARTTV_DEVICES: [DeviceModel; 3] =
    [DeviceModel::SamsungTv, DeviceModel::LgTv, DeviceModel::VizioTv];

/// The within-platform device mix at one point of the study.
enum DeviceTable {
    /// 12% of browser views come from mobile browsers (§4.2 counts them
    /// under the Browser platform); the rest follow the desktop
    /// player-technology mix, over `BrowserTech::ALL`.
    Browser(Discrete),
    /// Android's share of app views; 30% of either OS are tablets.
    MobileApp { android: f64 },
    /// One weighted draw over a fixed device list.
    Listed(&'static [DeviceModel], Discrete),
    /// 60% Xbox.
    GameConsole,
}

impl DeviceTable {
    fn for_platform(platform: Platform, t: f64) -> DeviceTable {
        let listed = |devices: &'static [DeviceModel], share: fn(DeviceModel) -> Trend| {
            let weights: Vec<f64> = devices.iter().map(|d| share(*d).at(t).max(0.0)).collect();
            DeviceTable::Listed(devices, Discrete::new_or_unit(&weights))
        };
        match platform {
            Platform::Browser => {
                let weights: Vec<f64> = BrowserTech::ALL
                    .iter()
                    .map(|tech| trends::browser_tech_share(*tech).at(t).max(0.0))
                    .collect();
                DeviceTable::Browser(Discrete::new_or_unit(&weights))
            }
            Platform::MobileApp => {
                DeviceTable::MobileApp { android: trends::mobile_device_share(true).prob_at(t) }
            }
            Platform::SetTopBox => listed(&SETTOP_DEVICES, trends::settop_device_share),
            Platform::SmartTv => listed(&SMARTTV_DEVICES, trends::smarttv_device_share),
            Platform::GameConsole => DeviceTable::GameConsole,
        }
    }

    fn sample(&self, rng: &mut Rng) -> DeviceModel {
        match self {
            DeviceTable::Browser(tech) => {
                if rng.chance(0.12) {
                    return DeviceModel::MobileBrowser;
                }
                DeviceModel::DesktopBrowser(BrowserTech::ALL[tech.sample(rng)])
            }
            DeviceTable::MobileApp { android } => {
                let android = rng.chance(*android);
                let tablet = rng.chance(0.30);
                match (android, tablet) {
                    (true, true) => DeviceModel::AndroidTablet,
                    (true, false) => DeviceModel::AndroidPhone,
                    (false, true) => DeviceModel::IPad,
                    (false, false) => DeviceModel::IPhone,
                }
            }
            DeviceTable::Listed(devices, table) => devices[table.sample(rng)],
            DeviceTable::GameConsole => {
                if rng.chance(0.6) {
                    DeviceModel::Xbox
                } else {
                    DeviceModel::PlayStation
                }
            }
        }
    }
}

fn sample_class(profile: &PublisherProfile, device: DeviceModel, rng: &mut Rng) -> ContentClass {
    // Live skews toward large screens slightly.
    let base = profile.publisher.kind.live_share();
    let adjusted = if device.platform().is_large_screen() { base * 1.2 } else { base * 0.9 };
    if rng.chance(adjusted.min(0.95)) {
        ContentClass::Live
    } else {
        ContentClass::Vod
    }
}

/// The device's weighted table over `plane.protocols`; `None` when every
/// weight is zero.
fn protocol_table(
    plane: &SnapshotPlane,
    profile: &PublisherProfile,
    device: DeviceModel,
    t: f64,
) -> Option<Discrete> {
    let weights: Vec<f64> = plane
        .protocols
        .iter()
        .map(|proto| {
            trends::device_protocol_weight(device, *proto)
                * trends::protocol_preference(*proto, profile.dash_first, t)
        })
        .collect();
    Discrete::new(&weights).ok()
}

/// `owners` are the publisher's licensed owners, as
/// [`SyndicationGraph::licensed_owners`] returns them.
fn sample_ownership(
    profile: &PublisherProfile,
    owners: &[PublisherId],
    rng: &mut Rng,
) -> OwnershipFlag {
    let p_syndicated = match profile.publisher.role {
        SyndicationRole::FullSyndicator => 0.75,
        SyndicationRole::Mixed => 0.35,
        SyndicationRole::OwnerOnly => 0.0,
    };
    if p_syndicated > 0.0 && rng.chance(p_syndicated) && !owners.is_empty() {
        return OwnershipFlag::Syndicated { owner: *rng.choose(owners) };
    }
    OwnershipFlag::Owned
}

/// Client regions, over `Region::ALL`.
fn region_table() -> Discrete {
    Discrete::new_or_unit(&[0.10, 0.38, 0.22, 0.15, 0.10, 0.05])
}

fn sample_connection(platform: Platform, rng: &mut Rng) -> ConnectionType {
    match platform {
        Platform::MobileApp => {
            if rng.chance(0.5) {
                ConnectionType::Cellular4g
            } else {
                ConnectionType::Wifi
            }
        }
        Platform::Browser => {
            if rng.chance(0.3) {
                ConnectionType::Wired
            } else {
                ConnectionType::Wifi
            }
        }
        _ => {
            if rng.chance(0.6) {
                ConnectionType::Wired
            } else {
                ConnectionType::Wifi
            }
        }
    }
}

#[expect(clippy::cast_possible_truncation, reason = "snapshot indexes and SDK windows are small")]
fn sample_sdk_version(plane: &SnapshotPlane, rng: &mut Rng) -> SdkVersion {
    // Users lag: pick a version within the publisher's support window. Each
    // major release ships one maintained minor line, so the number of
    // distinct builds per SDK equals the support-window size (the §5
    // unique-SDKs unit).
    let major = 4 + (plane.snapshot.index() / 8) as u16;
    let lag = rng.below(plane.sdk_window as u64) as u16;
    let effective = major.saturating_sub(lag).max(1);
    SdkVersion::new(effective, effective % 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syndigraph::tests::sample_owner;

    fn setup(seed: u64) -> (PublisherProfile, SnapshotPlane, SyndicationGraph) {
        let mut rng = Rng::seed_from(seed);
        let pop: Vec<PublisherProfile> = (0..30)
            .map(|i| PublisherProfile::generate(PublisherId::new(i), &mut rng))
            .collect();
        let graph = SyndicationGraph::generate(&pop, &mut rng);
        let profile = pop.into_iter().max_by(|a, b| a.vh_day_final.total_cmp(&b.vh_day_final)).unwrap();
        let plane = profile.plane(SnapshotId::LAST);
        (profile, plane, graph)
    }

    fn small_cfg() -> ViewGenConfig {
        ViewGenConfig {
            min_samples: 30,
            max_samples: 60,
            sim_media_cap: Seconds(12.0),
            volume_scale: 1,
        }
    }

    // The per-view constructors the plan replaced, kept verbatim as the
    // oracles the plan's tables are compared against.

    fn sample_device(platform: Platform, t: f64, rng: &mut Rng) -> DeviceModel {
        match platform {
            Platform::Browser => {
                // 12% of browser views come from mobile browsers (§4.2 counts
                // them under the Browser platform).
                if rng.chance(0.12) {
                    return DeviceModel::MobileBrowser;
                }
                let weights: Vec<f64> = BrowserTech::ALL
                    .iter()
                    .map(|tech| trends::browser_tech_share(*tech).at(t).max(0.0))
                    .collect();
                let dist = Discrete::new_or_unit(&weights);
                DeviceModel::DesktopBrowser(BrowserTech::ALL[dist.sample(rng)])
            }
            Platform::MobileApp => {
                let android = rng.chance(trends::mobile_device_share(true).prob_at(t));
                let tablet = rng.chance(0.30);
                match (android, tablet) {
                    (true, true) => DeviceModel::AndroidTablet,
                    (true, false) => DeviceModel::AndroidPhone,
                    (false, true) => DeviceModel::IPad,
                    (false, false) => DeviceModel::IPhone,
                }
            }
            Platform::SetTopBox => {
                let devices =
                    [DeviceModel::Roku, DeviceModel::AppleTv, DeviceModel::FireTv, DeviceModel::Chromecast];
                let weights: Vec<f64> =
                    devices.iter().map(|d| trends::settop_device_share(*d).at(t).max(0.0)).collect();
                let dist = Discrete::new_or_unit(&weights);
                devices[dist.sample(rng)]
            }
            Platform::SmartTv => {
                let devices = [DeviceModel::SamsungTv, DeviceModel::LgTv, DeviceModel::VizioTv];
                let weights: Vec<f64> =
                    devices.iter().map(|d| trends::smarttv_device_share(*d).at(t).max(0.0)).collect();
                let dist = Discrete::new_or_unit(&weights);
                devices[dist.sample(rng)]
            }
            Platform::GameConsole => {
                if rng.chance(0.6) {
                    DeviceModel::Xbox
                } else {
                    DeviceModel::PlayStation
                }
            }
        }
    }

    fn sample_protocol(
        plane: &SnapshotPlane,
        profile: &PublisherProfile,
        device: DeviceModel,
        t: f64,
        rng: &mut Rng,
    ) -> StreamingProtocol {
        let mut weights = Vec::with_capacity(plane.protocols.len());
        for proto in &plane.protocols {
            let device_w = trends::device_protocol_weight(device, *proto);
            let pref = trends::protocol_preference(*proto, profile.dash_first, t);
            weights.push(device_w * pref);
        }
        match Discrete::new(&weights) {
            Ok(dist) => plane.protocols[dist.sample(rng)],
            // Device can't play anything the publisher packages (e.g. a
            // Silverlight view at a DASH/HLS-only publisher): fall back to the
            // publisher's primary protocol — never to a protocol outside its
            // management plane, which would corrupt the support analyses.
            Err(_) => plane.protocols.first().copied().unwrap_or(StreamingProtocol::Hls),
        }
    }

    fn sample_region(rng: &mut Rng) -> Region {
        let dist = Discrete::new_or_unit(&[0.10, 0.38, 0.22, 0.15, 0.10, 0.05]);
        Region::ALL[dist.sample(rng)]
    }

    fn sample_ownership_per_view(
        profile: &PublisherProfile,
        graph: &SyndicationGraph,
        rng: &mut Rng,
    ) -> OwnershipFlag {
        let p_syndicated = match profile.publisher.role {
            SyndicationRole::FullSyndicator => 0.75,
            SyndicationRole::Mixed => 0.35,
            SyndicationRole::OwnerOnly => 0.0,
        };
        if p_syndicated > 0.0 && rng.chance(p_syndicated) {
            if let Some(owner) = sample_owner(graph, profile.publisher.id, rng) {
                return OwnershipFlag::Syndicated { owner };
            }
        }
        OwnershipFlag::Owned
    }

    /// Study-progress grid, end points included.
    const T_GRID: [f64; 6] = [0.0, 0.13, 0.35, 0.5, 0.77, 1.0];

    #[test]
    fn device_tables_match_the_per_view_reference() {
        for platform in Platform::ALL {
            for t in T_GRID {
                let table = DeviceTable::for_platform(platform, t);
                let mut planned = Rng::seed_from(41);
                let mut reference = planned.clone();
                for _ in 0..300 {
                    assert_eq!(
                        table.sample(&mut planned),
                        sample_device(platform, t, &mut reference),
                        "{platform:?} at t={t}"
                    );
                }
                assert_eq!(planned, reference, "{platform:?} at t={t}: draw counts differ");
            }
        }
    }

    #[test]
    fn protocol_tables_match_the_per_view_reference() {
        let mut pop_rng = Rng::seed_from(43);
        let mut fallbacks = 0;
        for id in 0..12 {
            let mut profile = PublisherProfile::generate(PublisherId::new(id), &mut pop_rng);
            if id % 4 == 0 {
                profile.set_dash_first();
            }
            for snapshot in [SnapshotId::new(0).unwrap(), SnapshotId::new(20).unwrap(), SnapshotId::LAST] {
                let plane = profile.plane(snapshot);
                let t = snapshot.progress();
                let mut plan = CellPlan::new(&profile, &plane, t);
                let mut planned = Rng::seed_from(47);
                let mut reference = planned.clone();
                // Twice over the catalogue: the second pass hits the memo.
                for device in DeviceModel::ALL.iter().chain(&DeviceModel::ALL) {
                    let before = planned.clone();
                    assert_eq!(
                        plan.sample_protocol(*device, &mut planned),
                        sample_protocol(&plane, &profile, *device, t, &mut reference),
                        "{device:?} at publisher {id}, {snapshot:?}"
                    );
                    assert_eq!(planned, reference, "{device:?}: draw counts differ");
                    if planned == before {
                        fallbacks += 1;
                    }
                }
                assert_eq!(plan.protocols.len(), DeviceModel::ALL.len());
            }
        }
        assert!(fallbacks > 0, "no device hit the nothing-playable fallback");
    }

    #[test]
    fn region_table_matches_the_per_view_reference() {
        let table = region_table();
        let mut planned = Rng::seed_from(53);
        let mut reference = planned.clone();
        for _ in 0..500 {
            assert_eq!(Region::ALL[table.sample(&mut planned)], sample_region(&mut reference));
        }
        assert_eq!(planned, reference);
    }

    #[test]
    fn cdn_selection_matches_the_per_view_reference() {
        use vmp_cdn::strategy::CdnScope;
        let (profile, mut plane, _) = setup(13);
        // The generated strategy, then one whose only CDN carries no live.
        let vod_only = CdnStrategy::new(vec![CdnAssignment {
            cdn: CdnName::B,
            weight: 1.0,
            scope: CdnScope::VodOnly,
        }])
        .unwrap();
        for strategy in [plane.strategy.clone(), vod_only] {
            plane.strategy = strategy;
            let plan = CellPlan::new(&profile, &plane, 1.0);
            let broker = Broker::new(BrokerPolicy::Weighted);
            let mut planned = Rng::seed_from(59);
            let mut reference = planned.clone();
            for class in ContentClass::ALL.iter().cycle().take(200) {
                let expected = broker
                    .select(&plane.strategy, *class, &mut reference)
                    .or_else(|| plane.strategy.cdns().first().copied())
                    .unwrap_or(CdnName::A);
                assert_eq!(plan.select_cdn(&broker, *class, &mut planned), expected);
                assert_eq!(planned, reference, "{class:?}: draw counts differ");
            }
        }
        // No CDN admits live: the first CDN, and no draw.
        let plan = CellPlan::new(&profile, &plane, 1.0);
        assert!(plan.live.is_none());
        let mut rng = Rng::seed_from(61);
        let untouched = rng.clone();
        let broker = Broker::new(BrokerPolicy::Weighted);
        assert_eq!(plan.select_cdn(&broker, ContentClass::Live, &mut rng), CdnName::B);
        assert_eq!(rng, untouched);
    }

    #[test]
    fn memoised_identities_match_the_per_view_reference() {
        let (profile, plane, _) = setup(17);
        let mut plan = CellPlan::new(&profile, &plane, 1.0);
        let versions = [SdkVersion::new(1, 1), SdkVersion::new(4, 1), SdkVersion::new(9, 0)];
        // Twice over the catalogue: the second pass hits the memo.
        for _ in 0..2 {
            for device in DeviceModel::ALL {
                for sdk_version in versions {
                    let client = ClientContext {
                        device,
                        sdk_version,
                        region: Region::UsOther,
                        isp: Isp::X,
                        connection: ConnectionType::Wifi,
                    };
                    assert_eq!(plan.player_identity(&client), client.player_identity(), "{client:?}");
                }
            }
        }
        let browsers = DeviceModel::ALL.iter().filter(|d| d.platform() == Platform::Browser).count();
        assert_eq!(plan.user_agents.len(), browsers * versions.len());
    }

    #[test]
    fn records_share_the_plans_ladder() {
        let (profile, plane, graph) = setup(19);
        let mut rng = Rng::seed_from(20);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        let ladder = &views[0].record.available_bitrates;
        assert_eq!(*ladder, plane.ladder.bitrates());
        for v in &views {
            assert!(Arc::ptr_eq(&v.record.available_bitrates, ladder));
        }
        // The plan is gone; the records hold the only references to its
        // one ladder.
        assert_eq!(Arc::strong_count(ladder), views.len());
    }

    #[test]
    fn records_with_equal_user_agents_share_one_allocation() {
        let mut shared = 0;
        for seed in [21, 23, 25] {
            let (profile, plane, graph) = setup(seed);
            let mut rng = Rng::seed_from(seed + 1);
            let views = generate_views(
                &profile,
                &plane,
                &graph,
                &ViewGenConfig { min_samples: 200, max_samples: 200, ..small_cfg() },
                SnapshotId::LAST,
                0,
                &mut rng,
            );
            let agents: Vec<&Arc<str>> = views
                .iter()
                .filter_map(|v| match &v.record.player {
                    PlayerIdentity::UserAgent(ua) => Some(ua),
                    PlayerIdentity::Sdk(_) => None,
                })
                .collect();
            for (i, a) in agents.iter().enumerate() {
                for b in &agents[..i] {
                    assert_eq!(a == b, Arc::ptr_eq(a, b), "{a} vs {b}");
                    shared += usize::from(a == b);
                }
            }
        }
        assert!(shared > 0, "no two browser views reported the same user-agent");
    }

    #[test]
    fn video_token_matches_the_formatted_rendering() {
        let mut token = String::from("stale");
        for rank in [0, 1, 0x2a, 4_999, 0xff_ffff, 0x100_0000, 0xdead_beef, u32::MAX] {
            write_video_token(&mut token, rank);
            assert_eq!(token, format!("v{rank:06x}"));
        }
    }

    #[test]
    fn a_floor_above_the_ceiling_generates_the_floor() {
        let (profile, plane, graph) = setup(15);
        let cfg = ViewGenConfig { min_samples: 50, max_samples: 20, ..small_cfg() };
        let mut rng = Rng::seed_from(16);
        let views = generate_views(&profile, &plane, &graph, &cfg, SnapshotId::LAST, 0, &mut rng);
        assert_eq!(views.len(), 50);
    }

    #[test]
    fn weighted_hours_hit_the_target() {
        let (profile, plane, graph) = setup(1);
        let mut rng = Rng::seed_from(2);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        let total: f64 = views.iter().map(|v| v.weighted_hours()).sum();
        let target = plane.vh_day * 2.0;
        assert!((total / target - 1.0).abs() < 1e-9, "total {total}, target {target}");
    }

    #[test]
    fn views_respect_the_management_plane() {
        let (profile, plane, graph) = setup(3);
        let mut rng = Rng::seed_from(4);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        for v in &views {
            // Platform supported.
            assert!(plane.platforms.contains(&v.record.device.platform()));
            // One CDN, in the strategy.
            assert!(plane.strategy.cdns().iter().any(|c| v.record.cdns == CdnSet::from(*c)));
            // Protocol classifiable from the URL and (modulo the HLS
            // fallback) supported by the plane.
            let proto = vmp_manifest::classify(&v.record.manifest_url).expect("classifiable");
            assert!(
                plane.protocols.contains(&proto) || proto == StreamingProtocol::Hls,
                "unexpected protocol {proto}"
            );
            // Ladder advertised.
            assert_eq!(v.record.available_bitrates, plane.ladder.bitrates());
            assert!(v.record.viewing_time.0 >= 29.0);
        }
    }

    #[test]
    fn apple_views_are_hls() {
        let (profile, plane, graph) = setup(5);
        let mut rng = Rng::seed_from(6);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        for v in views.iter().filter(|v| v.record.device.hls_only()) {
            assert_eq!(
                vmp_manifest::classify(&v.record.manifest_url),
                Some(StreamingProtocol::Hls)
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (profile, plane, graph) = setup(7);
        let mut rng1 = Rng::seed_from(8);
        let mut rng2 = Rng::seed_from(8);
        let a = generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng1);
        let b = generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.record, y.record);
        }
    }

    #[test]
    fn records_carry_the_selected_cdn_and_the_sampled_watch_time() {
        let (profile, plane, graph) = setup(9);
        let mut rng = Rng::seed_from(10);
        let views =
            generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
        // Replay every view's draws with the per-view oracles: the record
        // holds exactly the broker's pick and the sampled duration, and the
        // loop draws nothing beyond what its fields need.
        let t = SnapshotId::LAST.progress();
        let broker = Broker::new(BrokerPolicy::Weighted);
        let platforms = Discrete::new_or_unit(&plane.platform_weights);
        let titles = Zipf::new(plane.titles.clamp(1, 5_000) as usize, 0.8).unwrap();
        let prefix = format!("p{:04}", profile.publisher.id.raw());
        let mut reference = Rng::seed_from(10);
        let mut syndicated = 0;
        for v in &views {
            let platform = plane.platforms[platforms.sample(&mut reference)];
            let device = sample_device(platform, t, &mut reference);
            let class = sample_class(&profile, device, &mut reference);
            let protocol = sample_protocol(&plane, &profile, device, t, &mut reference);
            let cdn = broker
                .select(&plane.strategy, class, &mut reference)
                .or_else(|| plane.strategy.cdns().first().copied())
                .unwrap_or(CdnName::A);
            let (median, spread) = trends::duration_model(platform);
            let hours = LogNormal::clamped_median_spread(median, spread)
                .sample(&mut reference)
                .clamp(30.0 / 3600.0, 6.0);
            sample_region(&mut reference);
            reference.choose(&Isp::ALL);
            sample_connection(platform, &mut reference);
            let ownership = sample_ownership_per_view(&profile, &graph, &mut reference);
            let rank = titles.sample(&mut reference);
            sample_sdk_version(&plane, &mut reference);

            assert_eq!(v.record.cdns, CdnSet::from(cdn));
            assert_eq!(v.record.viewing_time, Seconds::from_hours(hours));
            assert_eq!(v.record.ownership, ownership);
            let token = format!("v{rank:06x}");
            let url = vmp_manifest::manifest_url(protocol, &cdn.host(), &prefix, &token);
            assert_eq!(v.record.manifest_url.as_str(), url);
            syndicated += usize::from(ownership.is_syndicated());
        }
        assert_eq!(rng, reference, "draw counts differ");
        assert!(syndicated > 0, "no syndicated view to replay");
    }

    #[test]
    fn records_share_one_exact_url_text() {
        for seed in [27, 29] {
            let (profile, plane, graph) = setup(seed);
            let mut rng = Rng::seed_from(seed + 1);
            let views =
                generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
            let text = views[0].record.manifest_url.text();
            for v in &views {
                assert!(Arc::ptr_eq(v.record.manifest_url.text(), text));
            }
            // The URLs lie back to back in the text and fill it: no slack
            // byte is kept, and no one else holds the text.
            let joined: String = views.iter().map(|v| v.record.manifest_url.as_str()).collect();
            assert_eq!(**text, joined);
            assert_eq!(Arc::strong_count(text), views.len());
            // A second cell on the same thread gets a text of its own.
            let again =
                generate_views(&profile, &plane, &graph, &small_cfg(), SnapshotId::LAST, 0, &mut rng);
            assert!(!Arc::ptr_eq(again[0].record.manifest_url.text(), text));
            assert_eq!(**text, joined);
        }
    }
}
