//! Fig 18: CDN-origin storage redundancy under three syndication models.
//!
//! Method (§6): storage per video ID = Σ (encoded bitrates × duration);
//! summed over the catalogue. Each participant pushes every title at every
//! rung of its ladder to each of its CDNs. On the CDNs common to all
//! participants we compute:
//! 1. total independent-syndication storage,
//! 2. savings from dropping copies with the same/similar bitrates
//!    (5% and 10% tolerance),
//! 3. savings under integrated syndication (only the owner's copies stay).

use std::collections::BTreeSet;
use vmp_cdn::origin::{ContentKey, OriginEntry, OriginStore};
use vmp_core::cdn::CdnName;
use vmp_core::ids::{PublisherId, VideoId};
use vmp_core::units::{Bytes, Kbps};

use crate::catalogue::CatalogueStudy;

/// Results of the storage study on one CDN.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnStorageResult {
    /// Which CDN.
    pub cdn: CdnName,
    /// Total stored bytes under independent syndication.
    pub total: Bytes,
    /// Bytes saved by dedup at 5% bitrate tolerance.
    pub saved_5pct: Bytes,
    /// Bytes saved by dedup at 10% tolerance.
    pub saved_10pct: Bytes,
    /// Bytes saved under integrated syndication.
    pub saved_integrated: Bytes,
}

impl CdnStorageResult {
    /// Percentage helpers (0–100).
    pub fn pct(&self, saved: Bytes) -> f64 {
        if self.total.0 == 0 {
            0.0
        } else {
            100.0 * saved.0 as f64 / self.total.0 as f64
        }
    }
}

/// The full Fig 18 output: one result per common CDN.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageStudyResult {
    /// Per-CDN results (common CDNs only, as in the figure).
    pub per_cdn: Vec<CdnStorageResult>,
}

impl StorageStudyResult {
    /// The first CDN's result (the figure's bars are identical for A and B
    /// by construction).
    pub fn representative(&self) -> Option<&CdnStorageResult> {
        self.per_cdn.first()
    }
}

/// Runs the study on each common CDN, one title at a time.
///
/// Dedup clusters and the integrated model never relate copies of
/// different titles, so each title's pushes (participants × rungs, a few
/// dozen entries) are measured on their own through one reused ledger and
/// the four byte totals are summed — integer sums, so the result equals
/// the whole-catalogue ledger's exactly while memory stays at one title.
pub fn storage_study(study: &CatalogueStudy) -> StorageStudyResult {
    let duration = study.title_duration;
    let participants = study.participants();
    // Ascending, each once: the order the figure lists its CDNs in.
    let cdns: BTreeSet<CdnName> = study.common_cdns().into_iter().collect();
    let per_cdn = cdns
        .into_iter()
        .map(|cdn| {
            // What every title pushes to this CDN (publisher, bitrate,
            // bytes); only the content key differs from title to title.
            let pushes: Vec<(PublisherId, Kbps, Bytes)> = participants
                .iter()
                .filter(|p| p.cdns.contains(&cdn))
                .flat_map(|p| {
                    p.ladder
                        .rungs()
                        .iter()
                        .map(|rung| (p.publisher, rung.bitrate, rung.bitrate.bytes_for(duration)))
                })
                .collect();
            let mut result = CdnStorageResult {
                cdn,
                total: Bytes::ZERO,
                saved_5pct: Bytes::ZERO,
                saved_10pct: Bytes::ZERO,
                saved_integrated: Bytes::ZERO,
            };
            let mut store = OriginStore::new(cdn);
            for title in 0..study.titles {
                store.clear();
                let content =
                    ContentKey { owner: study.owner.publisher, video: VideoId::new(title) };
                store.push_all(pushes.iter().map(|&(publisher, bitrate, bytes)| OriginEntry {
                    publisher,
                    content,
                    bitrate,
                    bytes,
                }));
                let [saved_5pct, saved_10pct] = store.dedup_savings_at([0.05, 0.10]);
                result.total = result.total.saturating_add(store.total_bytes());
                result.saved_5pct = result.saved_5pct.saturating_add(saved_5pct);
                result.saved_10pct = result.saved_10pct.saturating_add(saved_10pct);
                result.saved_integrated =
                    result.saved_integrated.saturating_add(store.integrated_savings());
            }
            result
        })
        .collect();
    StorageStudyResult { per_cdn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{ladder_of, Participant};
    use std::collections::BTreeMap;
    use vmp_core::ids::CatalogueId;
    use vmp_core::units::Seconds;

    /// The whole-ledger reference: one [`OriginStore`] per common CDN
    /// holding every participant's copy of every title, measured once —
    /// the algorithm [`storage_study`] streams title by title.
    fn whole_ledger_study(study: &CatalogueStudy) -> StorageStudyResult {
        let mut stores: BTreeMap<CdnName, OriginStore> =
            study.common_cdns().into_iter().map(|c| (c, OriginStore::new(c))).collect();
        for participant in study.participants() {
            for (cdn, store) in stores.iter_mut() {
                if !participant.cdns.contains(cdn) {
                    continue;
                }
                for title in 0..study.titles {
                    let content =
                        ContentKey { owner: study.owner.publisher, video: VideoId::new(title) };
                    for rung in participant.ladder.rungs() {
                        store.push(OriginEntry {
                            publisher: participant.publisher,
                            content,
                            bitrate: rung.bitrate,
                            bytes: rung.bitrate.bytes_for(study.title_duration),
                        });
                    }
                }
            }
        }
        let per_cdn = stores
            .into_iter()
            .map(|(cdn, store)| CdnStorageResult {
                cdn,
                total: store.total_bytes(),
                saved_5pct: store.dedup_savings(0.05),
                saved_10pct: store.dedup_savings(0.10),
                saved_integrated: store.integrated_savings(),
            })
            .collect();
        StorageStudyResult { per_cdn }
    }

    /// Four participants with four different ladders; the owner lists its
    /// CDNs out of order and one of them (E) is not common to everyone.
    fn uneven_study() -> CatalogueStudy {
        let participant = |id: u32, label: &'static str, cdns: &[CdnName]| Participant {
            publisher: PublisherId::new(id),
            label,
            ladder: ladder_of(label).expect("static"),
            cdns: cdns.to_vec(),
        };
        CatalogueStudy {
            catalogue: CatalogueId::new(2),
            titles: 37,
            title_duration: Seconds::from_minutes(51.5),
            owner: participant(0, "O", &[CdnName::B, CdnName::E, CdnName::A]),
            syndicators: vec![
                participant(1, "S2", &[CdnName::A, CdnName::B]),
                participant(2, "S6", &[CdnName::C, CdnName::B, CdnName::A, CdnName::E]),
                participant(3, "S8", &[CdnName::A, CdnName::D, CdnName::B]),
            ],
        }
    }

    #[test]
    fn streamed_study_equals_the_whole_ledger() {
        for study in
            [CatalogueStudy::test_setting(), CatalogueStudy::paper_setting(), uneven_study()]
        {
            let streamed = storage_study(&study);
            assert_eq!(streamed, whole_ledger_study(&study));
            assert!(streamed.per_cdn.iter().all(|r| r.saved_5pct > Bytes::ZERO));
        }
        let cdns: Vec<CdnName> =
            storage_study(&uneven_study()).per_cdn.iter().map(|r| r.cdn).collect();
        assert_eq!(cdns, [CdnName::A, CdnName::B]);
    }

    #[test]
    fn savings_order_matches_fig18() {
        let result = storage_study(&CatalogueStudy::test_setting());
        let r = result.representative().unwrap();
        // Monotone: 5% ≤ 10% ≤ integrated (integrated drops every
        // syndicator copy; dedup only near-duplicates).
        assert!(r.saved_5pct <= r.saved_10pct);
        assert!(r.saved_10pct <= r.saved_integrated);
        assert!(r.saved_integrated < r.total);
    }

    #[test]
    fn percentages_land_near_the_paper() {
        // Paper: 16.5% @5%, 45.2% @10%, 65.6% integrated. The calibrated
        // ladders land within a few points (shape, not exact values).
        let result = storage_study(&CatalogueStudy::test_setting());
        let r = result.representative().unwrap();
        let p5 = r.pct(r.saved_5pct);
        let p10 = r.pct(r.saved_10pct);
        let pint = r.pct(r.saved_integrated);
        assert!((10.0..25.0).contains(&p5), "5% tolerance saves {p5}%");
        assert!((38.0..55.0).contains(&p10), "10% tolerance saves {p10}%");
        assert!((58.0..72.0).contains(&pint), "integrated saves {pint}%");
        // The 5→10% jump is the paper's headline: nearby-but-not-equal
        // rungs dominate.
        assert!(p10 > p5 + 15.0);
    }

    #[test]
    fn common_cdns_get_identical_ledgers() {
        let result = storage_study(&CatalogueStudy::test_setting());
        assert_eq!(result.per_cdn.len(), 2); // A and B
        let a = &result.per_cdn[0];
        let b = &result.per_cdn[1];
        assert_eq!(a.total, b.total);
        assert_eq!(a.saved_10pct, b.saved_10pct);
    }

    #[test]
    fn paper_setting_total_near_1916_tb() {
        let result = storage_study(&CatalogueStudy::paper_setting());
        let tb = result.representative().unwrap().total.terabytes();
        assert!((1700.0..2150.0).contains(&tb), "total {tb} TB");
    }

    #[test]
    fn storage_scales_linearly_with_titles() {
        let small = storage_study(&CatalogueStudy::test_setting());
        let mut bigger_cfg = CatalogueStudy::test_setting();
        bigger_cfg.titles *= 2;
        let big = storage_study(&bigger_cfg);
        let ratio = big.representative().unwrap().total.0 as f64
            / small.representative().unwrap().total.0 as f64;
        assert!((ratio - 2.0).abs() < 1e-9);
    }
}
