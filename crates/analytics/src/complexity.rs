//! §5: management-complexity measures and their correlation with publisher
//! view-hours.
//!
//! Three measures, each fit in log10–log10 space against view-hours:
//!
//! * **Management-plane combinations** — distinct (CDN, protocol, device)
//!   triples observed for the publisher (failure-triaging search space);
//!   paper slope: 1.72× per 10× view-hours.
//! * **Protocol-titles** — titles × protocols (packaging workload);
//!   paper slope: 3.8×.
//! * **Unique SDKs** — distinct player code bases: (SDK, version) pairs
//!   plus browsers (software maintenance); paper slope: 1.8×, max ≈85.

use std::collections::{BTreeMap, BTreeSet};
use vmp_core::ids::PublisherId;
use vmp_stats::regress::{ols_log_log, OlsFit};

use crate::columns::Segment;

/// Which complexity measure to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComplexityMeasure {
    /// Distinct (CDN, protocol, device-model) combinations.
    Combinations,
    /// Distinct video titles × distinct protocols.
    ProtocolTitles,
    /// Distinct player code bases (SDK+version, or browser user-agent
    /// family).
    UniqueSdks,
}

impl ComplexityMeasure {
    /// Paper-reported growth factor per 10× view-hours, for EXPERIMENTS.md
    /// comparisons.
    pub const fn paper_growth_per_decade(self) -> f64 {
        match self {
            ComplexityMeasure::Combinations => 1.72,
            ComplexityMeasure::ProtocolTitles => 3.8,
            ComplexityMeasure::UniqueSdks => 1.8,
        }
    }
}

/// One scatter point of Fig 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityPoint {
    /// The publisher.
    pub publisher: PublisherId,
    /// Its view-hours in the snapshot (x-axis).
    pub view_hours: f64,
    /// The complexity measure (y-axis).
    pub complexity: f64,
}

/// One publisher's distinct-set sizes at one snapshot: the accumulator all
/// three measures read, so a scatter of every measure costs one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublisherComplexity {
    /// The publisher.
    pub publisher: PublisherId,
    /// Its view-hours in the snapshot.
    pub view_hours: f64,
    /// Distinct (CDN, protocol, device-model) triples.
    pub combinations: usize,
    /// Distinct protocols (the unclassified sentinel counts as one).
    pub protocols: usize,
    /// Distinct player code bases.
    pub players: usize,
}

impl PublisherComplexity {
    /// Every publisher's accumulator over one segment, in publisher order.
    ///
    /// Pure column scan, runs outside and rows inside: the protocol column
    /// already carries the unclassified sentinel (`NO_CODE`, the old
    /// `u8::MAX` tag), device codes are bijective with model strings, CDN
    /// bit indexes with raw CDN ids, and store-wide player codes with the
    /// SDK-build / UA-family keys — so every distinct-set cardinality
    /// matches the string-keyed reference exactly.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a trailing-zero count of a u64 is at most 64"
    )]
    pub fn of_segment(seg: &Segment) -> Vec<PublisherComplexity> {
        #[derive(Default)]
        struct Acc {
            vh: f64,
            combos: BTreeSet<(u8, u8, u8)>,
            protocols: BTreeSet<u8>,
            players: BTreeSet<u32>,
        }
        let (hours, protocols, devices) = (seg.hours(), seg.protocols(), seg.devices());
        let (masks, players) = (seg.cdn_column(), seg.player_column());
        let mut acc: BTreeMap<u32, Acc> = BTreeMap::new();
        for run in seg.cells() {
            let entry = acc.entry(run.publisher).or_default();
            for i in run.rows.clone() {
                entry.vh += run.weight * hours[i];
                let proto = protocols[i];
                entry.protocols.insert(proto);
                let device = devices[i];
                let mut bits = masks.value(i);
                while bits != 0 {
                    entry.combos.insert((bits.trailing_zeros() as u8, proto, device));
                    bits &= bits - 1;
                }
                entry.players.insert(players.value(i));
            }
        }
        acc.into_iter()
            .map(|(publisher, a)| PublisherComplexity {
                publisher: PublisherId::new(publisher),
                view_hours: a.vh,
                combinations: a.combos.len(),
                protocols: a.protocols.len(),
                players: a.players.len(),
            })
            .collect()
    }

    /// The publisher's scatter point for one measure. `titles_of` gives its
    /// catalogue size (protocol-titles only): the paper uses the count of
    /// distinct video IDs, an *under-estimate* where coverage is partial, so
    /// callers supply either the observed count or the management-plane
    /// figure.
    pub fn point(
        &self,
        measure: ComplexityMeasure,
        titles_of: &dyn Fn(PublisherId) -> u64,
    ) -> ComplexityPoint {
        let complexity = match measure {
            ComplexityMeasure::Combinations => self.combinations as f64,
            ComplexityMeasure::ProtocolTitles => {
                (titles_of(self.publisher) * self.protocols as u64) as f64
            }
            ComplexityMeasure::UniqueSdks => self.players as f64,
        };
        ComplexityPoint { publisher: self.publisher, view_hours: self.view_hours, complexity }
    }
}

/// The Fig 13 log-log fit over a scatter.
pub fn complexity_fit(points: &[ComplexityPoint]) -> Result<OlsFit, String> {
    let xs: Vec<f64> = points.iter().map(|p| p.view_hours).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.complexity).collect();
    let (fit, _) = ols_log_log(&xs, &ys)?;
    Ok(fit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::test_view;
    use crate::store::ViewStore;
    use vmp_core::cdn::CdnName;
    use vmp_core::time::SnapshotId;
    use vmp_core::view::{PlayerIdentity, SampledView};

    /// One measure's scatter over the first snapshot of `views`.
    fn points(
        views: Vec<SampledView>,
        measure: ComplexityMeasure,
        titles_of: &dyn Fn(PublisherId) -> u64,
    ) -> Vec<ComplexityPoint> {
        let store = ViewStore::ingest(views);
        let seg = store.segment(SnapshotId::FIRST).expect("first snapshot has data");
        PublisherComplexity::of_segment(&seg).iter().map(|p| p.point(measure, titles_of)).collect()
    }

    fn synthetic_scatter(slope: f64, n: usize) -> Vec<ComplexityPoint> {
        (1..=n)
            .map(|i| {
                let vh = 10f64.powf(i as f64 / 10.0) * 100.0;
                ComplexityPoint {
                    publisher: PublisherId::new(i as u32),
                    view_hours: vh,
                    complexity: 2.0 * (vh / 100.0).powf(slope),
                }
            })
            .collect()
    }

    #[test]
    fn fit_recovers_planted_slope() {
        // 10^0.236 ≈ 1.72 — the paper's combinations slope.
        let points = synthetic_scatter(0.236, 50);
        let fit = complexity_fit(&points).unwrap();
        assert!((fit.growth_per_decade() - 1.72).abs() < 0.02);
        assert!(fit.p_value < 1e-9);
    }

    #[test]
    fn combinations_count_distinct_triples() {
        let mut v1 = test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0);
        v1.record.cdns = [CdnName::A, CdnName::B].into_iter().collect();
        let v2 = test_view(0, 0, "https://h/p/a.mpd", 1.0, 1.0);
        let pts = points(vec![v1, v2], ComplexityMeasure::Combinations, &|_| 1);
        assert_eq!(pts.len(), 1);
        // (cdn0, HLS, Roku), (cdn1, HLS, Roku), (cdn0, DASH, Roku).
        assert_eq!(pts[0].complexity, 3.0);
    }

    #[test]
    fn protocol_titles_multiplies() {
        let views = vec![
            test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0),
            test_view(0, 0, "https://h/p/a.mpd", 1.0, 1.0),
        ];
        let pts = points(views, ComplexityMeasure::ProtocolTitles, &|_| 500);
        assert_eq!(pts[0].complexity, 1000.0);
    }

    #[test]
    fn unique_sdks_counts_distinct_players() {
        use vmp_core::sdk::{PlayerBuild, SdkKind, SdkVersion};
        let mut v1 = test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0);
        v1.record.player = PlayerIdentity::Sdk(PlayerBuild::new(
            SdkKind::RokuSceneGraph,
            SdkVersion::new(7, 0),
        ));
        let mut v2 = test_view(0, 0, "https://h/p/a.m3u8", 1.0, 1.0);
        v2.record.player = PlayerIdentity::Sdk(PlayerBuild::new(
            SdkKind::RokuSceneGraph,
            SdkVersion::new(7, 1),
        ));
        let mut v3 = v2.clone();
        v3.record.player = PlayerIdentity::Sdk(PlayerBuild::new(
            SdkKind::RokuSceneGraph,
            SdkVersion::new(7, 1),
        ));
        let pts = points(vec![v1, v2, v3], ComplexityMeasure::UniqueSdks, &|_| 1);
        assert_eq!(pts[0].complexity, 2.0);
    }

    #[test]
    fn fit_requires_enough_points() {
        assert!(complexity_fit(&synthetic_scatter(0.3, 2)).is_err());
        assert!(complexity_fit(&[]).is_err());
    }
}
