//! Counts-per-publisher analyses (Figs 3, 9, 12).
//!
//! For a dimension (protocols, platforms, CDNs) the paper asks three
//! questions about the *number of instances* per publisher:
//! (a) the histogram of counts weighted two ways — % of publishers and
//! % of view-hours attributable to them;
//! (b) the count distribution bucketed by publisher view-hours (the
//! `X..10^5X` buckets); and
//! (c) the average and view-hour-weighted average count over time.
//!
//! All three reduce one segment's per-publisher rollup
//! ([`crate::columns::per_publisher_segment`]): [`publisher_counts`] and
//! [`average_counts`] take the map, so a caller that already holds one (the
//! figures' one-pass sweep) reuses it, and per-snapshot arithmetic stays
//! single-threaded row order.

use std::collections::BTreeMap;
use vmp_core::ids::PublisherId;

use crate::columns::PublisherAgg;

/// One publisher's count of dimension instances and its view-hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublisherCount {
    /// The publisher.
    pub publisher: PublisherId,
    /// Number of distinct dimension values it supports.
    pub count: usize,
    /// Its total view-hours in the analyzed snapshot.
    pub view_hours: f64,
}

/// Counts per publisher from one segment's per-publisher rollup, in
/// publisher order (every publisher counts at least one value).
pub fn publisher_counts(
    per_pub: &BTreeMap<u32, PublisherAgg>,
    min_traffic_share: f64,
) -> Vec<PublisherCount> {
    per_pub
        .iter()
        .map(|(&raw, agg)| PublisherCount {
            publisher: PublisherId::new(raw),
            count: agg.supported_count(min_traffic_share).max(1),
            view_hours: agg.hours,
        })
        .collect()
}

/// Histogram over counts: `count → (% of publishers, % of view-hours)`
/// (Fig 3(a), 9(a), 12(a)).
pub fn count_histogram(counts: &[PublisherCount]) -> BTreeMap<usize, (f64, f64)> {
    let n = counts.len() as f64;
    let total_vh: f64 = counts.iter().map(|c| c.view_hours).sum();
    let mut hist: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for c in counts {
        let entry = hist.entry(c.count).or_insert((0.0, 0.0));
        entry.0 += 1.0;
        entry.1 += c.view_hours;
    }
    for (_, (pubs, vh)) in hist.iter_mut() {
        *pubs = if n > 0.0 { 100.0 * *pubs / n } else { 0.0 };
        *vh = if total_vh > 0.0 { 100.0 * *vh / total_vh } else { 0.0 };
    }
    hist
}

/// Size-bucketed count distributions (Fig 3(b), 9(b), 12(b)): for each
/// view-hour decade bucket (relative to `x_anchor` *daily* view-hours,
/// i.e. `2×x_anchor` per two-day snapshot), the percentage of that bucket's
/// publishers using each count.
///
/// Returns `bucket index → (bucket % of all publishers, count → % within
/// bucket)`; bucket 0 is `< X`, bucket k is `[10^(k-1) X, 10^k X)`.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "`ratio >= 1` here, so its floored log10 is a small non-negative bucket"
)]
pub fn counts_by_size_bucket(
    counts: &[PublisherCount],
    x_anchor: f64,
) -> BTreeMap<usize, (f64, BTreeMap<usize, f64>)> {
    assert!(x_anchor > 0.0, "bucket anchor must be positive");
    let n = counts.len() as f64;
    let window_anchor = 2.0 * x_anchor; // two-day snapshot vs daily X
    let mut buckets: BTreeMap<usize, Vec<&PublisherCount>> = BTreeMap::new();
    for c in counts {
        let ratio = (c.view_hours / window_anchor).max(1e-12);
        let bucket = if ratio < 1.0 { 0 } else { ratio.log10().floor() as usize + 1 };
        buckets.entry(bucket).or_default().push(c);
    }
    buckets
        .into_iter()
        .map(|(bucket, members)| {
            let share = if n > 0.0 { 100.0 * members.len() as f64 / n } else { 0.0 };
            let mut dist: BTreeMap<usize, f64> = BTreeMap::new();
            for m in &members {
                *dist.entry(m.count).or_insert(0.0) += 1.0;
            }
            let bucket_n = members.len() as f64;
            for v in dist.values_mut() {
                *v = 100.0 * *v / bucket_n;
            }
            (bucket, (share, dist))
        })
        .collect()
}

/// Plain and view-hour-weighted average count over one segment's
/// publishers — one snapshot's point of Fig 3(c), 9(c), 12(c); `None` when
/// the rollup holds no publisher.
pub fn average_counts(
    per_pub: &BTreeMap<u32, PublisherAgg>,
    min_traffic_share: f64,
) -> Option<(f64, f64)> {
    if per_pub.is_empty() {
        return None;
    }
    let n = per_pub.len() as f64;
    let mut count_sum = 0.0f64;
    let mut vh_sum = 0.0f64;
    let mut weighted_sum = 0.0f64;
    for agg in per_pub.values() {
        let count = agg.supported_count(min_traffic_share).max(1) as f64;
        count_sum += count;
        vh_sum += agg.hours;
        weighted_sum += count * agg.hours;
    }
    let avg = count_sum / n;
    let weighted = if vh_sum > 0.0 { weighted_sum / vh_sum } else { avg };
    Some((avg, weighted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::{per_publisher_segment, PublisherMask, PROTOCOL};
    use crate::store::tests::test_view;
    use crate::store::ViewStore;
    use vmp_core::time::SnapshotId;

    fn store() -> ViewStore {
        ViewStore::ingest(vec![
            // Publisher 0: 2 protocols, 10 weighted hours.
            test_view(0, 0, "https://h/p/a.m3u8", 5.0, 1.0),
            test_view(0, 0, "https://h/p/b.mpd", 5.0, 1.0),
            // Publisher 1: 1 protocol, 90 weighted hours.
            test_view(0, 1, "https://h/p/c.m3u8", 9.0, 10.0),
            // Later snapshot: publisher 0 adds a third protocol.
            test_view(2, 0, "https://h/p/a.m3u8", 4.0, 1.0),
            test_view(2, 0, "https://h/p/b.mpd", 4.0, 1.0),
            test_view(2, 0, "https://h/p/d.ism/manifest", 4.0, 1.0),
            test_view(2, 1, "https://h/p/c.m3u8", 9.0, 10.0),
        ])
    }

    /// Protocol counts at the first snapshot, with publishers `mask` drops
    /// left out.
    fn first_counts(s: &ViewStore, mask: Option<&PublisherMask>) -> Vec<PublisherCount> {
        let seg = s.segment(SnapshotId::FIRST).expect("first snapshot has data");
        publisher_counts(&per_publisher_segment(&seg, mask, PROTOCOL.column), 0.01)
    }

    #[test]
    fn counts_and_histogram() {
        let s = store();
        let counts = first_counts(&s, None);
        assert_eq!(counts.len(), 2);
        let hist = count_histogram(&counts);
        // One publisher with 1 protocol (90 vh), one with 2 (10 vh).
        assert!((hist[&1].0 - 50.0).abs() < 1e-9);
        assert!((hist[&1].1 - 90.0).abs() < 1e-9);
        assert!((hist[&2].0 - 50.0).abs() < 1e-9);
        assert!((hist[&2].1 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn averages_per_snapshot() {
        let s = store();
        let averages: Vec<(f64, f64)> = s
            .iter_segments()
            .filter_map(|seg| {
                average_counts(&per_publisher_segment(&seg, None, PROTOCOL.column), 0.01)
            })
            .collect();
        assert_eq!(averages.len(), 2);
        let (avg0, w0) = averages[0];
        assert!((avg0 - 1.5).abs() < 1e-9);
        // Weighted: (2×10 + 1×90)/100 = 1.1.
        assert!((w0 - 1.1).abs() < 1e-9);
        let (avg1, _) = averages[1];
        assert!((avg1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn size_buckets_split_by_decade() {
        let counts = vec![
            PublisherCount { publisher: PublisherId::new(0), count: 1, view_hours: 50.0 },
            PublisherCount { publisher: PublisherId::new(1), count: 2, view_hours: 900.0 },
            PublisherCount { publisher: PublisherId::new(2), count: 3, view_hours: 950.0 },
            PublisherCount { publisher: PublisherId::new(3), count: 5, view_hours: 150_000.0 },
        ];
        // x_anchor = 100 daily → window anchor 200.
        let buckets = counts_by_size_bucket(&counts, 100.0);
        // 50 < 200 → bucket 0; 900/950 → bucket 1 ([200, 2000)); 150k → bucket 3.
        assert!((buckets[&0].0 - 25.0).abs() < 1e-9);
        assert!((buckets[&1].0 - 50.0).abs() < 1e-9);
        assert!((buckets[&3].0 - 25.0).abs() < 1e-9);
        // Within bucket 1: counts 2 and 3, 50% each.
        assert!((buckets[&1].1[&2] - 50.0).abs() < 1e-9);
        assert!((buckets[&1].1[&3] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_are_safe() {
        let counts = publisher_counts(&BTreeMap::new(), 0.01);
        assert!(counts.is_empty());
        assert!(count_histogram(&counts).is_empty());
        assert!(counts_by_size_bucket(&counts, 100.0).is_empty());
        assert_eq!(average_counts(&BTreeMap::new(), 0.01), None);
    }

    #[test]
    fn masked_counts_skip_excluded_publishers() {
        let s = store();
        let counts = first_counts(&s, Some(&PublisherMask::new(&[PublisherId::new(1)])));
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].publisher, PublisherId::new(0));
        assert_eq!(counts[0].count, 2);
    }

    #[test]
    #[should_panic(expected = "anchor")]
    fn zero_anchor_panics() {
        counts_by_size_bucket(&[], 0.0);
    }
}
