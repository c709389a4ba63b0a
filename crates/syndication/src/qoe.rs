//! Figs 15/16: delivery performance of the same content through the owner's
//! vs a syndicator's management plane.
//!
//! §6's method: fix the device (iPad), geography (California), connection
//! type, and an ISP×CDN pair, then compare the distribution of per-view
//! average bitrate (Fig 15) and rebuffering ratio (Fig 16) between the
//! owner's clients and the syndicator's clients. The only management-plane
//! difference is the ladder — which is the point.

use vmp_abr::algorithm::ThroughputRule;
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_core::cdn::CdnName;
use vmp_core::geo::{ConnectionType, Isp};
use vmp_core::ladder::BitrateLadder;
use vmp_core::units::Seconds;
use vmp_session::player::{PlaybackConfig, Player};
use vmp_stats::{Cdf, Rng};
use vmp_synth::trends::cdn_quality;

/// One ISP×CDN measurement panel (the paper shows ISP X·CDN A and
/// ISP Y·CDN B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeScenario {
    /// The access ISP.
    pub isp: Isp,
    /// The delivering CDN.
    pub cdn: CdnName,
    /// Number of simulated views per side.
    pub sessions: usize,
    /// ABR safety factor of the owner's player. The paper observes owners'
    /// clients get *both* higher bitrates and lower rebuffering; a ladder
    /// cannot cause both alone, so we model the operational gap the paper
    /// hypothesizes (syndicators under-invest): owners ship a conservative,
    /// well-tuned player, syndicators a stock aggressive one. Documented in
    /// DESIGN.md's substitution table.
    pub owner_safety: f64,
    /// ABR safety factor of the syndicator's player.
    pub syndicator_safety: f64,
    /// Relative delivery quality of the syndicator's configuration of the
    /// *same* CDN (origin placement, cache priming, connection setup). The
    /// paper measures that syndicators' clients see worse bitrates *and*
    /// worse rebuffering on the same ISP×CDN pair; the ladder alone cannot
    /// produce the rebuffering half, so the operational gap is modeled
    /// explicitly here (see DESIGN.md substitutions).
    pub syndicator_delivery_factor: f64,
}

impl QoeScenario {
    /// The paper's panel with default player/delivery tunings.
    pub fn new(isp: Isp, cdn: CdnName, sessions: usize) -> QoeScenario {
        QoeScenario {
            isp,
            cdn,
            sessions,
            owner_safety: 0.72,
            syndicator_safety: 1.0,
            syndicator_delivery_factor: 0.35,
        }
    }
}

/// Distributions for one side (owner or syndicator) of one panel.
#[derive(Debug, Clone)]
pub struct QoeSide {
    /// Per-view average bitrates (kbps).
    pub avg_bitrates: Vec<f64>,
    /// Per-view rebuffering ratios.
    pub rebuffer_ratios: Vec<f64>,
}

impl QoeSide {
    /// Empirical CDF of average bitrate.
    pub fn bitrate_cdf(&self) -> Option<Cdf> {
        Cdf::new(&self.avg_bitrates)
    }

    /// Empirical CDF of rebuffering ratio.
    pub fn rebuffer_cdf(&self) -> Option<Cdf> {
        Cdf::new(&self.rebuffer_ratios)
    }

    /// Median average bitrate.
    pub fn median_bitrate(&self) -> f64 {
        let mut v = self.avg_bitrates.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        vmp_stats::desc::quantile_sorted(&v, 0.5)
    }

    /// 90th-percentile rebuffering ratio.
    pub fn p90_rebuffer(&self) -> f64 {
        let mut v = self.rebuffer_ratios.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        vmp_stats::desc::quantile_sorted(&v, 0.9)
    }
}

/// The comparison result for one panel.
#[derive(Debug, Clone)]
pub struct QoeComparison {
    /// The panel.
    pub scenario: QoeScenario,
    /// Owner-side distributions.
    pub owner: QoeSide,
    /// Syndicator-side distributions.
    pub syndicator: QoeSide,
}

impl QoeComparison {
    /// Owner-to-syndicator median bitrate ratio (the paper reports ≈2.5×).
    pub fn median_bitrate_ratio(&self) -> f64 {
        let s = self.syndicator.median_bitrate();
        if s <= 0.0 {
            f64::INFINITY
        } else {
            self.owner.median_bitrate() / s
        }
    }

    /// Relative reduction of the owner's p90 rebuffering vs the
    /// syndicator's (the paper reports ≈40% lower).
    pub fn p90_rebuffer_reduction(&self) -> f64 {
        let s = self.syndicator.p90_rebuffer();
        if s <= 0.0 {
            0.0
        } else {
            1.0 - self.owner.p90_rebuffer() / s
        }
    }
}

/// Runs one panel: same clients, same network process (seeded identically),
/// different ladders.
pub fn qoe_comparison(
    owner_ladder: &BitrateLadder,
    syndicator_ladder: &BitrateLadder,
    scenario: QoeScenario,
    seed: u64,
) -> QoeComparison {
    let owner = run_side(owner_ladder, scenario.owner_safety, 1.0, scenario, seed);
    let syndicator = run_side(
        syndicator_ladder,
        scenario.syndicator_safety,
        scenario.syndicator_delivery_factor,
        scenario,
        seed,
    );
    QoeComparison { scenario, owner, syndicator }
}

#[expect(clippy::expect_used, reason = "the player is built from a valid config and ladder")]
fn run_side(
    ladder: &BitrateLadder,
    safety: f64,
    delivery_factor: f64,
    scenario: QoeScenario,
    seed: u64,
) -> QoeSide {
    let abr = ThroughputRule { safety };
    let mut avg_bitrates = Vec::with_capacity(scenario.sessions);
    let mut rebuffer_ratios = Vec::with_capacity(scenario.sessions);
    // iPads in California on WiFi (the §6 filter), on the panel's ISP×CDN.
    let quality = cdn_quality(scenario.cdn, scenario.isp, 1.0) * delivery_factor;
    for i in 0..scenario.sessions {
        let mut rng = Rng::seed_from(seed).fork(i as u64);
        let network = NetworkModel::new(
            NetworkProfile::for_connection(ConnectionType::Wifi, 1.0).scaled(quality),
        );
        // A 40-minute episode watched for 25 minutes.
        let config = PlaybackConfig::vod(
            ladder.clone(),
            Seconds::from_minutes(40.0),
            Seconds::from_minutes(25.0),
        );
        let outcome = Player::new(config, network, &abr)
            .expect("valid config")
            .play(scenario.cdn, &mut rng);
        avg_bitrates.push(outcome.qoe.avg_bitrate.0 as f64);
        rebuffer_ratios.push(outcome.qoe.rebuffer_ratio());
    }
    QoeSide { avg_bitrates, rebuffer_ratios }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::ladder_of;

    fn panel(sessions: usize) -> QoeComparison {
        qoe_comparison(
            &ladder_of("O").unwrap(),
            &ladder_of("S7").unwrap(),
            QoeScenario::new(Isp::X, CdnName::A, sessions),
            42,
        )
    }

    #[test]
    fn owner_clients_get_higher_bitrates() {
        let cmp = panel(60);
        let ratio = cmp.median_bitrate_ratio();
        // Paper: ≈2.5× at the median. Accept the neighbourhood.
        assert!((1.8..4.0).contains(&ratio), "median ratio {ratio}");
        // Not just the median: the whole CDF should dominate at p25/p75.
        let o = cmp.owner.bitrate_cdf().unwrap();
        let s = cmp.syndicator.bitrate_cdf().unwrap();
        assert!(o.quantile(0.25) >= s.quantile(0.25));
        assert!(o.quantile(0.75) > s.quantile(0.75));
    }

    #[test]
    fn syndicator_bitrates_capped_by_its_ladder() {
        let cmp = panel(40);
        let s7_top = ladder_of("S7").unwrap().max().bitrate.0 as f64;
        for b in &cmp.syndicator.avg_bitrates {
            assert!(*b <= s7_top + 1e-9);
        }
        // The owner's clients exceed the syndicator's ceiling routinely.
        let above = cmp.owner.avg_bitrates.iter().filter(|b| **b > s7_top).count();
        assert!(above > cmp.owner.avg_bitrates.len() / 2);
    }

    #[test]
    fn rebuffer_ratios_are_valid_and_comparable() {
        let cmp = panel(60);
        for r in cmp.owner.rebuffer_ratios.iter().chain(&cmp.syndicator.rebuffer_ratios) {
            assert!((0.0..=1.0).contains(r));
        }
        // Paper: owner's p90 rebuffering ≈40% lower than the syndicator's.
        let red = cmp.p90_rebuffer_reduction();
        assert!(red > 0.15, "owner should rebuffer less at p90, got reduction {red}");
        assert!(red <= 1.0);
    }

    #[test]
    fn panels_are_deterministic() {
        let a = panel(20);
        let b = panel(20);
        assert_eq!(a.owner.avg_bitrates, b.owner.avg_bitrates);
        assert_eq!(a.syndicator.rebuffer_ratios, b.syndicator.rebuffer_ratios);
    }

    #[test]
    fn second_panel_uses_different_conditions() {
        let x_a = panel(30);
        let y_b = qoe_comparison(
            &ladder_of("O").unwrap(),
            &ladder_of("S7").unwrap(),
            QoeScenario::new(Isp::Y, CdnName::B, 30),
            42,
        );
        // Different ISP×CDN → different distributions.
        assert_ne!(x_a.owner.avg_bitrates, y_b.owner.avg_bitrates);
        // But the owner still wins in both panels.
        assert!(y_b.median_bitrate_ratio() > 1.5);
    }
}
