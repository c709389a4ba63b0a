//! The §6 study catalogue: one popular video catalogue, one owner, ten
//! syndicators, eleven independently chosen bitrate ladders (Fig 17).
//!
//! Ladder values are calibrated to the figure's qualitative content: the
//! owner offers 9 rungs topping 8,600 kbps (above 8,192); S1's top rung is
//! ≈7× lower (just above 1,024); S2 has only 3 rungs; S9 has 14. The exact
//! interior values are chosen so the Fig 18 storage study lands near the
//! paper's dedup percentages (see `storage.rs` for the arithmetic).

use vmp_core::cdn::CdnName;
use vmp_core::ids::{CatalogueId, PublisherId};
use vmp_core::ladder::BitrateLadder;
use vmp_core::units::Seconds;

/// Fig 17: (label, bitrates in kbps) for the owner `O` and syndicators
/// `S1..S10`, for the same video ID on iPads over WiFi.
pub const FIG17_LADDERS: [(&str, &[u32]); 11] = [
    ("O", &[145, 290, 580, 1100, 2200, 3600, 5400, 7000, 8600]),
    ("S1", &[180, 420, 750, 1100]),
    ("S2", &[400, 1200, 2500]),
    ("S3", &[300, 700, 1500, 3000, 4500]),
    ("S4", &[250, 500, 1000, 2000, 3500, 5500]),
    ("S5", &[200, 400, 800, 1600, 2400, 3200, 4800, 6400]),
    ("S6", &[155, 310, 620, 1180, 2200, 3850, 5800]),
    ("S7", &[250, 520, 950, 1500, 2300]),
    ("S8", &[150, 300, 600, 1000, 1600, 2400, 3400, 4600, 6000, 7500]),
    (
        "S9",
        &[220, 285, 390, 545, 740, 925, 1325, 1735, 2370, 2920, 4315, 5535, 7685, 9375],
    ),
    ("S10", &[300, 800, 1800, 3600]),
];

/// Builds the ladder for one Fig 17 participant by label.
#[expect(clippy::expect_used, reason = "the catalogue's static ladders are valid")]
pub fn ladder_of(label: &str) -> Option<BitrateLadder> {
    FIG17_LADDERS
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, bitrates)| BitrateLadder::from_bitrates(bitrates).expect("static ladders valid"))
}

/// One participant in the storage study: who they are, their ladder, and
/// the CDNs they push the catalogue to.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Publisher identity (owner uses ID 0 by convention here).
    pub publisher: PublisherId,
    /// Fig 17 label.
    pub label: &'static str,
    /// The ladder used for every title in the catalogue.
    pub ladder: BitrateLadder,
    /// CDNs the participant stores the catalogue on.
    pub cdns: Vec<CdnName>,
}

/// The §6 catalogue study configuration.
#[derive(Debug, Clone)]
pub struct CatalogueStudy {
    /// Catalogue identity.
    pub catalogue: CatalogueId,
    /// Number of titles in the catalogue.
    pub titles: u32,
    /// Duration of each title.
    pub title_duration: Seconds,
    /// The content owner (always first).
    pub owner: Participant,
    /// The syndicators that also store the catalogue.
    pub syndicators: Vec<Participant>,
}

impl CatalogueStudy {
    /// The paper's storage setting: the owner stores on CDNs A and B with 9
    /// rungs; one syndicator (S6's 7-rung ladder) stores on A, B and C; the
    /// other (S9's 14-rung ladder) on A, B and D. The catalogue size is
    /// picked so per-CDN storage lands near the paper's 1,916 TB.
    #[expect(clippy::expect_used, reason = "the labels name ladders of the static catalogue")]
    pub fn paper_setting() -> CatalogueStudy {
        // Total ladder rate ≈ 81.4 Mbps across the three participants; the
        // catalogue duration that yields ≈1,916 TB on each common CDN is
        // ≈1.88e8 seconds of content. 24,000 titles × 2.18 h ≈ 1.88e8 s.
        CatalogueStudy {
            catalogue: CatalogueId::new(1),
            titles: 24_000,
            title_duration: Seconds::from_hours(2.18),
            owner: Participant {
                publisher: PublisherId::new(0),
                label: "O",
                ladder: ladder_of("O").expect("static"),
                cdns: vec![CdnName::A, CdnName::B],
            },
            syndicators: vec![
                Participant {
                    publisher: PublisherId::new(1),
                    label: "S6",
                    ladder: ladder_of("S6").expect("static"),
                    cdns: vec![CdnName::A, CdnName::B, CdnName::C],
                },
                Participant {
                    publisher: PublisherId::new(2),
                    label: "S9",
                    ladder: ladder_of("S9").expect("static"),
                    cdns: vec![CdnName::A, CdnName::B, CdnName::D],
                },
            ],
        }
    }

    /// A reduced version (few titles) for fast tests.
    pub fn test_setting() -> CatalogueStudy {
        let mut s = CatalogueStudy::paper_setting();
        s.titles = 20;
        s.title_duration = Seconds::from_minutes(40.0);
        s
    }

    /// All participants, owner first.
    pub fn participants(&self) -> Vec<&Participant> {
        std::iter::once(&self.owner).chain(self.syndicators.iter()).collect()
    }

    /// CDNs common to the owner and every syndicator (the paper quantifies
    /// redundancy on those).
    pub fn common_cdns(&self) -> Vec<CdnName> {
        self.owner
            .cdns
            .iter()
            .copied()
            .filter(|c| self.syndicators.iter().all(|s| s.cdns.contains(c)))
            .collect()
    }

    /// Total catalogue media duration.
    pub fn total_duration(&self) -> Seconds {
        Seconds(self.title_duration.0 * self.titles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::units::Kbps;

    #[test]
    fn fig17_shape_matches_the_paper() {
        let owner = ladder_of("O").unwrap();
        assert_eq!(owner.len(), 9);
        assert!(owner.max().bitrate > Kbps(8192), "owner tops 8192");
        let s1 = ladder_of("S1").unwrap();
        assert!(s1.max().bitrate.0 as f64 >= 1024.0 && (s1.max().bitrate.0 as f64) < 1300.0);
        // "7x lower": owner top / S1 top ≈ 7.8.
        let ratio = owner.max().bitrate.0 as f64 / s1.max().bitrate.0 as f64;
        assert!((6.0..9.0).contains(&ratio), "ratio {ratio}");
        assert_eq!(ladder_of("S2").unwrap().len(), 3);
        assert_eq!(ladder_of("S9").unwrap().len(), 14);
        // S9 has the most rungs; S2 the fewest.
        for (label, bitrates) in FIG17_LADDERS {
            assert!(bitrates.len() >= 3 && bitrates.len() <= 14, "{label}");
        }
    }

    #[test]
    fn ladder_lookup() {
        assert!(ladder_of("S5").is_some());
        assert!(ladder_of("S11").is_none());
        assert!(ladder_of("").is_none());
    }

    #[test]
    fn paper_setting_matches_section_6() {
        let s = CatalogueStudy::paper_setting();
        assert_eq!(s.owner.ladder.len(), 9);
        assert_eq!(s.syndicators.len(), 2);
        assert_eq!(s.syndicators[0].ladder.len(), 7);
        assert_eq!(s.syndicators[1].ladder.len(), 14);
        assert_eq!(s.common_cdns(), vec![CdnName::A, CdnName::B]);
        assert_eq!(s.participants().len(), 3);
    }

    #[test]
    fn total_duration_scales_with_titles() {
        let s = CatalogueStudy::test_setting();
        let expected = s.title_duration.0 * s.titles as f64;
        assert!((s.total_duration().0 - expected).abs() < 1e-6);
    }
}
