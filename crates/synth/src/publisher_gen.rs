//! Per-publisher static profiles and per-snapshot management planes.
//!
//! A profile holds everything that persists across the study — size, kind,
//! syndication role, and the latent uniform draws that make adoption
//! *monotone* (a publisher whose draw is below DASH's rising adoption curve
//! at time `t` stays below it for all later `t`, so support never flaps).
//! [`PublisherProfile::plane`] materializes the management-plane
//! configuration at one snapshot.

use vmp_cdn::strategy::{CdnAssignment, CdnScope, CdnStrategy};
use vmp_core::cdn::CdnName;
use vmp_core::ids::PublisherId;
use vmp_core::ladder::BitrateLadder;
use vmp_core::platform::Platform;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::publisher::{Publisher, PublisherKind, SyndicationRole};
use vmp_core::time::SnapshotId;
use vmp_core::units::Kbps;
use vmp_packaging::ladder::LadderSpec;
use vmp_stats::{Discrete, Distribution, Rng};

use crate::trends;

/// Static profile of one publisher.
#[derive(Debug, Clone)]
pub struct PublisherProfile {
    /// Identity (ID, editorial kind, syndication role).
    pub publisher: Publisher,
    /// Daily view-hours at the end of the study.
    pub vh_day_final: f64,
    /// Normalized size in [0, 1] across the population's decades.
    pub size01: f64,
    /// log10(view-hours / X): decades above the anchor.
    pub size_decades: f64,
    /// Whether this is one of the few large DASH-first publishers.
    pub dash_first: bool,
    /// Latent adoption draws, one per protocol (indexed by position in
    /// `StreamingProtocol::ALL`).
    protocol_u: [f64; 6],
    /// Latent adoption draws per platform.
    platform_u: [f64; 5],
    /// Fixed CDN rotation (ordered); the first `n(t)` are active.
    cdn_rotation: Vec<CdnName>,
    /// Jitter for the CDN count.
    cdn_jitter: f64,
    /// Index into the rotation of a VoD-only CDN, if segregating.
    vod_only_slot: Option<usize>,
    /// Index into the rotation of a live-only CDN, if segregating.
    live_only_slot: Option<usize>,
    /// Jitter for SDK version windows.
    sdk_jitter: f64,
    /// Per-platform usage jitter (multiplies the global view-share trend).
    platform_mix_jitter: [f64; 5],
    /// The publisher's ladder spec (top bitrate scales with size).
    ladder_spec: LadderSpec,
}

/// Management-plane configuration of one publisher at one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotPlane {
    /// The snapshot this plane describes.
    pub snapshot: SnapshotId,
    /// Protocols the publisher packages for (never empty).
    pub protocols: Vec<StreamingProtocol>,
    /// Platforms with a maintained player (never empty).
    pub platforms: Vec<Platform>,
    /// Multi-CDN strategy with per-CDN weights and scopes.
    pub strategy: CdnStrategy,
    /// The publisher's default bitrate ladder.
    pub ladder: BitrateLadder,
    /// Catalogue size (distinct video IDs).
    pub titles: u64,
    /// Daily view-hours at this point of the study.
    pub vh_day: f64,
    /// SDK versions supported per SDK kind (legacy-device window).
    pub sdk_window: usize,
    /// Relative per-view platform mix (aligned with `platforms`).
    pub platform_weights: Vec<f64>,
}

impl SnapshotPlane {
    /// The §5 *unique SDKs* measure: one code base per (SDK kind, version)
    /// across the app devices of supported platforms, plus one per browser
    /// player technology.
    pub fn unique_sdk_count(&self) -> usize {
        use std::collections::BTreeSet;
        let mut kinds = BTreeSet::new();
        let mut browser_players = 0usize;
        for device in vmp_core::device::DeviceModel::ALL {
            if !self.platforms.contains(&device.platform()) {
                continue;
            }
            match device {
                vmp_core::device::DeviceModel::DesktopBrowser(_) => browser_players += 1,
                d => {
                    kinds.insert(vmp_core::sdk::SdkKind::for_device(d));
                }
            }
        }
        kinds.len() * self.sdk_window + browser_players
    }

    /// The §5 *protocol-titles* measure.
    pub fn protocol_titles(&self) -> u64 {
        self.titles * self.protocols.len() as u64
    }
}

impl PublisherProfile {
    /// Generates a profile from the population RNG.
    #[expect(
        clippy::expect_used,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the static weights are valid; the top rung is at least 800 kbps"
    )]
    pub fn generate(id: PublisherId, rng: &mut Rng) -> PublisherProfile {
        // Size: pick a decade bucket, then log-uniform within it.
        let bucket_dist = Discrete::new(&trends::SIZE_BUCKET_WEIGHTS).expect("static weights");
        let bucket = bucket_dist.sample(rng);
        // Bucket 0 is [X/10, X); bucket k ≥ 1 is [10^(k-1) X, 10^k X).
        let decade_lo = bucket as f64 - 1.0;
        let size_decades = decade_lo + rng.f64();
        let vh_day_final = trends::X_VIEW_HOURS * 10f64.powf(size_decades);
        let size01 = ((size_decades + 1.0) / trends::SIZE_DECADES as f64).clamp(0.0, 1.0);

        let kind = *rng.choose(&[
            PublisherKind::SubscriptionVod,
            PublisherKind::Sports,
            PublisherKind::News,
            PublisherKind::OnDemand,
            PublisherKind::Broadcaster,
        ]);
        // Roles: ~55% owner-only, 25% full syndicators, 20% mixed.
        let role = match rng.f64() {
            x if x < 0.55 => SyndicationRole::OwnerOnly,
            x if x < 0.80 => SyndicationRole::FullSyndicator,
            _ => SyndicationRole::Mixed,
        };

        let mut protocol_u = [0.0; 6];
        for u in &mut protocol_u {
            *u = rng.f64();
        }
        let mut platform_u = [0.0; 5];
        for u in &mut platform_u {
            *u = rng.f64();
        }

        // CDN rotation: weighted sampling without replacement over all 36.
        let cdn_rotation = sample_cdn_rotation(rng);
        let multi = cdn_rotation.len() > 1;
        let serves_live = kind.live_share() > 0.0;
        // Segregated CDNs sit on the earliest secondary slots so that the
        // policy is actually active for 2-3-CDN publishers (slots beyond
        // the active count are dormant configuration).
        let vod_only_slot = if multi && serves_live && rng.chance(trends::VOD_ONLY_CDN_PROB) {
            Some(1)
        } else {
            None
        };
        // Live-only CDNs are a multi-CDN practice (§4.3 conditions on
        // multi-CDN publishers); small single-CDN publishers cannot express
        // it, so the draw is gated on being large enough to run several
        // CDNs.
        let live_only_slot = if multi
            && serves_live
            && size01 >= 0.35
            && rng.chance(trends::LIVE_ONLY_CDN_PROB)
        {
            Some(if vod_only_slot.is_some() { 2 } else { 1 })
        } else {
            None
        };

        // Ladder: top bitrate grows with size (big publishers push 4K-ready
        // encodes; small ones stop around 2 Mbps).
        let top = 1_800.0 + 7_000.0 * size01 + rng.range_f64(-400.0, 400.0);
        let ladder_spec = LadderSpec::guideline(Kbps(top.max(800.0) as u32));

        let mut platform_mix_jitter = [0.0; 5];
        for j in &mut platform_mix_jitter {
            *j = (rng.range_f64(-0.35, 0.35)).exp();
        }

        PublisherProfile {
            publisher: Publisher::new(id, kind, role),
            vh_day_final,
            size01,
            size_decades,
            dash_first: false, // assigned by the ecosystem after sorting by size
            protocol_u,
            platform_u,
            cdn_rotation,
            cdn_jitter: rng.range_f64(0.0, 0.45),
            vod_only_slot,
            live_only_slot,
            sdk_jitter: rng.range_f64(0.0, 1.0),
            platform_mix_jitter,
            ladder_spec,
        }
    }

    /// Marks this publisher as one of the large DASH-first publishers.
    pub fn set_dash_first(&mut self) {
        self.dash_first = true;
    }

    /// Puts the publisher on the big-publisher platform-adoption path:
    /// browser/mobile from day one, set-tops early, smart TVs and consoles
    /// by mid-study — so the paper's all-5 cohort (≈30% of publishers, over
    /// 60% of view-hours) contains the giants by the last snapshot while
    /// the weighted platform average still grows ≈37% over the window.
    pub fn force_all_platforms(&mut self) {
        self.platform_u = [0.05, 0.05, 0.08, 0.32, 0.44];
    }

    /// Pins the CDN rotation to the five majors (largest publishers) and
    /// the §4.3 observation that the biggest publishers run 4-5 CDNs.
    pub fn force_major_rotation(&mut self) {
        self.cdn_rotation = CdnName::MAJORS.to_vec();
        self.size01 = self.size01.max(0.93);
        self.cdn_jitter = self.cdn_jitter.max(0.35);
    }

    /// Daily view-hours at study progress `t` (the ecosystem grows over the
    /// window; §3's aggregate is quoted for the last snapshot).
    pub fn vh_day_at(&self, t: f64) -> f64 {
        self.vh_day_final * (0.45 + 0.55 * t)
    }

    /// The management plane at `snapshot`.
    #[expect(
        clippy::expect_used,
        reason = "the rotation and guideline spec are valid by construction"
    )]
    pub fn plane(&self, snapshot: SnapshotId) -> SnapshotPlane {
        let t = snapshot.progress();

        // Protocols: latent draw vs adoption curve × size boost.
        let mut protocols = Vec::new();
        for (i, proto) in StreamingProtocol::ALL.iter().enumerate() {
            let base = trends::protocol_support(*proto).prob_at(t);
            let boost = if *proto == StreamingProtocol::Hls {
                1.0
            } else {
                trends::protocol_size_boost(self.size01)
            };
            if self.protocol_u[i] < (base * boost).clamp(0.0, 1.0) {
                protocols.push(*proto);
            }
        }
        if self.dash_first {
            // The few large DASH drivers: HLS always; DASH adopted early in
            // the second year; MSS/HDS dropped once DASH lands (they end the
            // study on exactly two protocols, Fig 3(b) right-most bar).
            let dash_adopted = t >= 0.35;
            protocols = if dash_adopted {
                vec![StreamingProtocol::Hls, StreamingProtocol::Dash]
            } else {
                vec![StreamingProtocol::Hls, StreamingProtocol::SmoothStreaming]
            };
        }
        if protocols.is_empty() {
            protocols.push(StreamingProtocol::Hls);
        }

        // Platforms.
        let mut platforms = Vec::new();
        let mut platform_weights = Vec::new();
        for (i, platform) in Platform::ALL.iter().enumerate() {
            let adoption_t = trends::platform_adoption_time(*platform, self.size01, t);
            let base = trends::platform_support(*platform).prob_at(adoption_t);
            let boost = trends::platform_size_boost(*platform, self.size01);
            if self.platform_u[i] < (base * boost).clamp(0.0, 1.0) {
                platforms.push(*platform);
                let share = trends::platform_view_share(*platform).prob_at(t).max(1e-4);
                platform_weights.push(share * self.platform_mix_jitter[i]);
            }
        }
        if platforms.is_empty() {
            platforms.push(Platform::Browser);
            platform_weights.push(1.0);
        }

        // CDNs: first n(t) of the fixed rotation, weighted by the global
        // traffic trend.
        let n = trends::cdn_count(self.size01, t, self.cdn_jitter).min(self.cdn_rotation.len());
        let mut assignments = Vec::with_capacity(n);
        for (slot, cdn) in self.cdn_rotation.iter().take(n).enumerate() {
            let weight = trends::cdn_traffic_weight(*cdn).at(t).max(0.01);
            let scope = if Some(slot) == self.vod_only_slot {
                CdnScope::VodOnly
            } else if Some(slot) == self.live_only_slot {
                CdnScope::LiveOnly
            } else {
                CdnScope::All
            };
            assignments.push(CdnAssignment { cdn: *cdn, weight, scope });
        }
        // Guarantee both classes are servable: slot 0 always carries all.
        if let Some(first) = assignments.first_mut() {
            first.scope = CdnScope::All;
        }
        let strategy = CdnStrategy::new(assignments).expect("rotation is valid");

        let ladder = self.ladder_spec.build().expect("guideline spec is valid");
        let vh_day = self.vh_day_at(t);

        SnapshotPlane {
            snapshot,
            protocols,
            platforms,
            strategy,
            ladder,
            titles: trends::title_count(vh_day),
            vh_day,
            sdk_window: trends::sdk_versions_per_kind(self.size_decades, self.sdk_jitter),
            platform_weights,
        }
    }
}

/// Weighted sampling without replacement of a 5-slot CDN rotation.
///
/// The first slot is what a single-CDN publisher uses, and Fig 11(a) shows
/// ≈80% of *all* publishers (most of whom are small) on CDN A — so the
/// primary slot is biased to A; the long tail fills the remaining slots.
fn sample_cdn_rotation(rng: &mut Rng) -> Vec<CdnName> {
    let all: Vec<CdnName> = CdnName::all_observed().collect();
    let mut weights: Vec<f64> = all.iter().map(|c| trends::cdn_membership_weight(*c)).collect();
    let mut rotation = Vec::with_capacity(5);
    if rng.chance(0.78) {
        rotation.push(CdnName::A);
        weights[CdnName::A.dense_index()] = 0.0;
    }
    while rotation.len() < 5 {
        let dist = match Discrete::new(&weights) {
            Ok(d) => d,
            Err(_) => break,
        };
        let idx = dist.sample(rng);
        rotation.push(all[idx]);
        weights[idx] = 0.0;
    }
    debug_assert!(!rotation.is_empty());
    rotation
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: usize, seed: u64) -> Vec<PublisherProfile> {
        let mut rng = Rng::seed_from(seed);
        (0..n)
            .map(|i| PublisherProfile::generate(PublisherId::new(i as u32), &mut rng))
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = population(20, 7);
        let b = population(20, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vh_day_final, y.vh_day_final);
            assert_eq!(x.cdn_rotation, y.cdn_rotation);
        }
    }

    #[test]
    fn sizes_span_five_plus_decades() {
        let pop = population(300, 1);
        let min = pop.iter().map(|p| p.vh_day_final).fold(f64::MAX, f64::min);
        let max = pop.iter().map(|p| p.vh_day_final).fold(0.0, f64::max);
        assert!(max / min > 1e4, "span {}", max / min);
    }

    #[test]
    fn adoption_is_monotone_over_time() {
        // Once a publisher supports DASH it never drops it (latent-draw
        // construction), and set-top support likewise only grows.
        for p in population(50, 3) {
            let mut had_dash = false;
            let mut had_settop = false;
            for s in SnapshotId::all() {
                let plane = p.plane(s);
                let dash = plane.protocols.contains(&StreamingProtocol::Dash);
                let settop = plane.platforms.contains(&Platform::SetTopBox);
                if !p.dash_first {
                    assert!(!had_dash || dash, "DASH flapped for {}", p.publisher.id);
                }
                assert!(!had_settop || settop, "set-top flapped for {}", p.publisher.id);
                had_dash = dash;
                had_settop = settop;
            }
        }
    }

    #[test]
    fn dash_first_publishers_end_on_two_protocols() {
        let mut p = population(1, 9).remove(0);
        p.set_dash_first();
        let early = p.plane(SnapshotId::FIRST);
        assert!(early.protocols.contains(&StreamingProtocol::Hls));
        assert!(!early.protocols.contains(&StreamingProtocol::Dash));
        let late = p.plane(SnapshotId::LAST);
        assert_eq!(
            late.protocols,
            vec![StreamingProtocol::Hls, StreamingProtocol::Dash]
        );
    }

    #[test]
    fn bigger_publishers_have_more_of_everything() {
        let pop = population(400, 11);
        let small: Vec<_> = pop.iter().filter(|p| p.size01 < 0.3).collect();
        let large: Vec<_> = pop.iter().filter(|p| p.size01 > 0.75).collect();
        assert!(!small.is_empty() && !large.is_empty());
        let avg = |set: &[&PublisherProfile], f: &dyn Fn(&SnapshotPlane) -> f64| {
            set.iter().map(|p| f(&p.plane(SnapshotId::LAST))).sum::<f64>() / set.len() as f64
        };
        assert!(
            avg(&large, &|pl| pl.protocols.len() as f64) > avg(&small, &|pl| pl.protocols.len() as f64)
        );
        assert!(
            avg(&large, &|pl| pl.strategy.cdn_count() as f64)
                > avg(&small, &|pl| pl.strategy.cdn_count() as f64)
        );
        assert!(
            avg(&large, &|pl| pl.platforms.len() as f64) > avg(&small, &|pl| pl.platforms.len() as f64)
        );
        assert!(
            avg(&large, &|pl| pl.unique_sdk_count() as f64)
                > avg(&small, &|pl| pl.unique_sdk_count() as f64)
        );
    }

    #[test]
    fn planes_are_always_well_formed() {
        for p in population(100, 13) {
            for s in [SnapshotId::FIRST, SnapshotId::new(27).unwrap(), SnapshotId::LAST] {
                let plane = p.plane(s);
                assert!(!plane.protocols.is_empty());
                assert!(!plane.platforms.is_empty());
                assert!(plane.strategy.cdn_count() >= 1);
                assert!(plane.titles >= 1);
                assert!(plane.sdk_window >= 1);
                assert_eq!(plane.platforms.len(), plane.platform_weights.len());
                // Both content classes must be servable (slot 0 is All).
                assert!(!plane.strategy.eligible(vmp_core::content::ContentClass::Vod).is_empty());
                assert!(!plane.strategy.eligible(vmp_core::content::ContentClass::Live).is_empty());
            }
        }
    }

    #[test]
    fn cdn_a_dominates_membership() {
        let pop = population(500, 17);
        let with_a = pop
            .iter()
            .filter(|p| p.plane(SnapshotId::LAST).strategy.cdns().contains(&CdnName::A))
            .count();
        let share = with_a as f64 / pop.len() as f64;
        assert!((0.6..0.95).contains(&share), "CDN A share {share}");
    }

    #[test]
    fn unique_sdks_reach_dozens_for_largest() {
        let pop = population(500, 19);
        let max = pop
            .iter()
            .map(|p| p.plane(SnapshotId::LAST).unique_sdk_count())
            .max()
            .unwrap();
        assert!((40..=120).contains(&max), "max unique SDKs {max}");
    }
}
