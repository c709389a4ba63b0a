//! The row-at-a-time reference: generic weighted aggregations over view
//! samples, one `BTreeMap` entry per value.
//!
//! Every §4 figure is one of three shapes:
//! 1. *share of view-hours* by a dimension ([`vh_share_by`], Fig 2(b),
//!    6(a), 10, 11(b));
//! 2. *share of views* by a dimension ([`views_share_by`], Fig 6(c));
//! 3. *share of publishers supporting* a dimension value
//!    ([`publisher_share_by`], Fig 2(a), 7, 11(a)).
//!
//! A view may carry several values of one dimension (chunks of one view can
//! come from multiple CDNs, §3 footnote 4); its weight is split equally
//! among them for the share computations, while publisher support counts
//! every value.
//!
//! Production figures run on the per-segment kernels in
//! `vmp_analytics::columns`; the equivalence property tests assert the two
//! agree bit for bit on every dimension, masked or not. Keep both sides in
//! sync when semantics change. The store keeps no rows, so the reference
//! iterates views its caller owns, each wrapped in a [`ViewRef`] that
//! classifies the manifest URL with the classifier ingest uses.

use std::collections::{BTreeMap, BTreeSet};
use vmp_core::cdn::CdnName;
use vmp_core::device::DeviceModel;
use vmp_core::ids::PublisherId;
use vmp_core::platform::{BrowserTech, Platform};
use vmp_core::protocol::StreamingProtocol;
use vmp_core::view::SampledView;

/// A view with its ingest-time derived dimensions.
#[derive(Debug, Clone, Copy)]
pub struct ViewRef<'a> {
    /// The underlying weighted sample.
    pub view: &'a SampledView,
    /// Protocol inferred from the manifest URL (Table 1); `None` when the
    /// URL is unclassifiable.
    pub protocol: Option<StreamingProtocol>,
}

impl<'a> ViewRef<'a> {
    /// Derives the view's dimensions exactly as ingest does: the protocol
    /// comes from [`vmp_manifest::classify`] on the manifest URL.
    pub fn new(view: &'a SampledView) -> ViewRef<'a> {
        ViewRef { view, protocol: vmp_manifest::classify(&view.record.manifest_url) }
    }

    /// Weighted view-hours of this sample.
    pub fn hours(&self) -> f64 {
        self.view.weighted_hours()
    }

    /// Weighted view count of this sample.
    pub fn count(&self) -> f64 {
        self.view.weight
    }
}

/// Percentage (0–100) of total view-hours per dimension value.
pub fn vh_share_by<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
) -> BTreeMap<V, f64> {
    share_by(views, extract, |v| v.hours())
}

/// Percentage (0–100) of total views per dimension value.
pub fn views_share_by<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
) -> BTreeMap<V, f64> {
    share_by(views, extract, |v| v.count())
}

fn share_by<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
    measure: impl Fn(&ViewRef<'a>) -> f64,
) -> BTreeMap<V, f64> {
    let mut totals: BTreeMap<V, f64> = BTreeMap::new();
    let mut grand_total = 0.0f64;
    for v in views {
        let m = measure(&v);
        grand_total += m;
        let values = extract(&v);
        if values.is_empty() {
            continue;
        }
        let split = m / values.len() as f64;
        for value in values {
            *totals.entry(value).or_insert(0.0) += split;
        }
    }
    if grand_total > 0.0 {
        for t in totals.values_mut() {
            *t = 100.0 * *t / grand_total;
        }
    }
    totals
}

/// Percentage (0–100) of publishers "supporting" each dimension value: a
/// publisher supports a value when at least `min_traffic_share` of its
/// view-hours carry it (a small floor filters out one-off fallbacks).
pub fn publisher_share_by<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>> + Clone,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
    min_traffic_share: f64,
) -> BTreeMap<V, f64> {
    let per_pub = per_publisher_values(views, extract, min_traffic_share);
    let n = per_pub.len();
    let mut counts: BTreeMap<V, usize> = BTreeMap::new();
    for (_, (values, _)) in per_pub {
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .map(|(v, c)| (v, if n > 0 { 100.0 * c as f64 / n as f64 } else { 0.0 }))
        .collect()
}

/// Per-publisher supported value sets and total view-hours.
///
/// Returns `publisher → (values with ≥ min_traffic_share of the publisher's
/// view-hours, total view-hours)`.
pub fn per_publisher_values<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
    min_traffic_share: f64,
) -> BTreeMap<PublisherId, (BTreeSet<V>, f64)> {
    let mut per_pub: BTreeMap<PublisherId, (BTreeMap<V, f64>, f64)> = BTreeMap::new();
    for v in views {
        let hours = v.hours();
        let entry = per_pub.entry(v.view.record.publisher).or_default();
        entry.1 += hours;
        let values = extract(&v);
        if values.is_empty() {
            continue;
        }
        let split = hours / values.len() as f64;
        for value in values {
            *entry.0.entry(value).or_insert(0.0) += split;
        }
    }
    per_pub
        .into_iter()
        .map(|(publisher, (values, total))| {
            let kept: BTreeSet<V> = values
                .into_iter()
                .filter(|(_, h)| total > 0.0 && *h / total >= min_traffic_share)
                .map(|(v, _)| v)
                .collect();
            (publisher, (kept, total))
        })
        .collect()
}

/// Per-publisher share (0–100) of view-hours carried by one dimension value
/// — the Fig 4 CDF input (only publishers supporting the value appear).
pub fn per_publisher_value_share<'a, V: Ord + Clone>(
    views: impl Iterator<Item = ViewRef<'a>>,
    extract: impl Fn(&ViewRef<'a>) -> Vec<V>,
    value: &V,
) -> Vec<f64> {
    let mut per_pub: BTreeMap<PublisherId, (f64, f64)> = BTreeMap::new();
    for v in views {
        let hours = v.hours();
        let entry = per_pub.entry(v.view.record.publisher).or_default();
        entry.1 += hours;
        let values = extract(&v);
        if values.is_empty() {
            continue;
        }
        let split = hours / values.len() as f64;
        if values.contains(value) {
            entry.0 += split;
        }
    }
    per_pub
        .values()
        .filter(|(with, total)| *total > 0.0 && *with > 0.0)
        .map(|(with, total)| 100.0 * with / total)
        .collect()
}

// ---------------------------------------------------------------------------
// Standard dimension extractors.
// ---------------------------------------------------------------------------

/// Streaming protocol (inferred from the URL at ingest).
pub fn protocol_dim(v: &ViewRef<'_>) -> Vec<StreamingProtocol> {
    v.protocol.into_iter().collect()
}

/// Playback platform (from the device model).
pub fn platform_dim(v: &ViewRef<'_>) -> Vec<Platform> {
    vec![v.view.record.device.platform()]
}

/// CDNs that served the view (possibly several).
pub fn cdn_dim(v: &ViewRef<'_>) -> Vec<CdnName> {
    v.view
        .record
        .cdns
        .iter()
        .filter_map(|id| CdnName::from_dense_index(id.index()))
        .collect()
}

/// Device model.
pub fn device_dim(v: &ViewRef<'_>) -> Vec<DeviceModel> {
    vec![v.view.record.device]
}

/// Browser player technology, for Browser-platform views only (Fig 10(a)).
pub fn browser_tech_dim(v: &ViewRef<'_>) -> Vec<BrowserTech> {
    v.view.record.device.browser_tech().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::content::ContentClass;
    use vmp_core::geo::{ConnectionType, Isp, Region};
    use vmp_core::ids::{CdnId, SessionId, VideoId};
    use vmp_core::time::SnapshotId;
    use vmp_core::units::{Kbps, Seconds};
    use vmp_core::view::{OwnershipFlag, PlayerIdentity, ViewRecord};

    fn test_view(publisher: u32, url: &str, hours: f64, weight: f64) -> SampledView {
        SampledView {
            record: ViewRecord {
                session: SessionId::new(0),
                snapshot: SnapshotId::FIRST,
                publisher: PublisherId::new(publisher),
                video: VideoId::new(1),
                manifest_url: url.to_string(),
                device: DeviceModel::Roku,
                os: DeviceModel::Roku.os(),
                player: PlayerIdentity::UserAgent("test".into()),
                cdns: vec![CdnId::new(0)],
                available_bitrates: [Kbps(800)].into(),
                viewing_time: Seconds::from_hours(hours),
                class: ContentClass::Vod,
                ownership: OwnershipFlag::Owned,
                region: Region::UsOther,
                isp: Isp::Z,
                connection: ConnectionType::Wired,
            },
            weight,
        }
    }

    fn refs(views: &[SampledView]) -> impl Iterator<Item = ViewRef<'_>> + Clone {
        views.iter().map(ViewRef::new)
    }

    fn views() -> Vec<SampledView> {
        vec![
            // Publisher 0: HLS-heavy, one DASH view.
            test_view(0, "https://h/p/a.m3u8", 2.0, 1.0),
            test_view(0, "https://h/p/b.m3u8", 2.0, 1.0),
            test_view(0, "https://h/p/c.mpd", 1.0, 1.0),
            // Publisher 1: DASH only, high weight.
            test_view(1, "https://h/p/d.mpd", 1.0, 5.0),
        ]
    }

    #[test]
    fn vh_share_sums_to_100() {
        let s = views();
        let shares = vh_share_by(refs(&s), protocol_dim);
        let total: f64 = shares.values().sum();
        assert!((total - 100.0).abs() < 1e-9);
        // HLS hours: 4; DASH hours: 1 + 5 = 6.
        assert!((shares[&StreamingProtocol::Hls] - 40.0).abs() < 1e-9);
        assert!((shares[&StreamingProtocol::Dash] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn views_share_uses_weights_not_hours() {
        let s = views();
        let shares = views_share_by(refs(&s), protocol_dim);
        // Views: HLS 2, DASH 1 + 5 = 6; total 8.
        assert!((shares[&StreamingProtocol::Hls] - 25.0).abs() < 1e-9);
        assert!((shares[&StreamingProtocol::Dash] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn publisher_share_counts_publishers_not_traffic() {
        let s = views();
        let shares = publisher_share_by(refs(&s), protocol_dim, 0.01);
        // Both publishers serve DASH; only publisher 0 serves HLS.
        assert!((shares[&StreamingProtocol::Dash] - 100.0).abs() < 1e-9);
        assert!((shares[&StreamingProtocol::Hls] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn min_traffic_share_filters_noise() {
        let s = views();
        // Publisher 0's DASH share is 1/5 = 20%; a 30% floor drops it.
        let shares = publisher_share_by(refs(&s), protocol_dim, 0.30);
        assert!((shares[&StreamingProtocol::Dash] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn multi_value_views_split_weight() {
        let mut v = test_view(0, "https://h/p/a.m3u8", 1.0, 1.0);
        v.record.cdns = vec![CdnId::new(0), CdnId::new(1)]; // A and B
        let s = vec![v];
        let shares = vh_share_by(refs(&s), cdn_dim);
        assert!((shares[&CdnName::A] - 50.0).abs() < 1e-9);
        assert!((shares[&CdnName::B] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn per_publisher_value_share_excludes_nonsupporters() {
        let s = views();
        let hls = per_publisher_value_share(refs(&s), protocol_dim, &StreamingProtocol::Hls);
        // Only publisher 0 appears; its HLS share is 80%.
        assert_eq!(hls.len(), 1);
        assert!((hls[0] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_is_safe() {
        let s = Vec::new();
        assert!(vh_share_by(refs(&s), protocol_dim).is_empty());
        assert!(publisher_share_by(refs(&s), protocol_dim, 0.01).is_empty());
    }
}
