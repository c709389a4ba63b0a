//! CDN origin storage and the §6 redundancy analysis.
//!
//! Publishers proactively push packaged chunks to a CDN origin server which
//! serves cache misses from edges (§6, citing the Facebook photo-caching
//! architecture). When several publishers (an owner and its syndicators)
//! push *the same underlying content* at the same or similar bitrates, the
//! origin stores redundant bytes. [`OriginStore::dedup_savings`] quantifies
//! what a tolerance-based dedup would save, and
//! [`OriginStore::integrated_savings`] what full management-plane
//! integration (syndicators reusing the owner's copies) would save —
//! reproducing Fig 18.

use std::sync::OnceLock;
use vmp_core::cdn::CdnName;
use vmp_core::ids::{PublisherId, VideoId};
use vmp_core::units::{Bytes, Kbps};

/// Identity of the *underlying* content, independent of who distributes it:
/// the owner and the owner's video ID. Syndicated copies share the
/// [`ContentKey`] of the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentKey {
    /// The content owner.
    pub owner: PublisherId,
    /// The owner's video ID for the title.
    pub video: VideoId,
}

/// One stored encoding of one title by one publisher.
#[derive(Debug, Clone, PartialEq)]
pub struct OriginEntry {
    /// Who pushed it (owner or a syndicator).
    pub publisher: PublisherId,
    /// What content it is a copy of.
    pub content: ContentKey,
    /// Encoded video bitrate of this copy.
    pub bitrate: Kbps,
    /// Stored bytes (chunks + container overhead).
    pub bytes: Bytes,
}

/// Push counters, resolved once per process ([`OriginStore`] is a plain
/// comparable value, so the handles live beside it, not in it).
struct OriginMetrics {
    pushes: vmp_obs::Counter,
    bytes_pushed: vmp_obs::Counter,
}

impl OriginMetrics {
    fn get() -> &'static OriginMetrics {
        static METRICS: OnceLock<OriginMetrics> = OnceLock::new();
        METRICS.get_or_init(|| OriginMetrics {
            pushes: vmp_obs::counter("cdn.origin_pushes"),
            bytes_pushed: vmp_obs::counter("cdn.origin_bytes_pushed"),
        })
    }
}

/// The origin storage ledger of a single CDN.
///
/// ```
/// use vmp_cdn::origin::{ContentKey, OriginEntry, OriginStore};
/// use vmp_core::cdn::CdnName;
/// use vmp_core::ids::{PublisherId, VideoId};
/// use vmp_core::units::{Bytes, Kbps};
///
/// let mut store = OriginStore::new(CdnName::A);
/// let content = ContentKey { owner: PublisherId::new(0), video: VideoId::new(1) };
/// // The owner and a syndicator both push a ~1 Mbps copy of the same title.
/// store.push(OriginEntry { publisher: PublisherId::new(0), content, bitrate: Kbps(1000), bytes: Bytes(100) });
/// store.push(OriginEntry { publisher: PublisherId::new(7), content, bitrate: Kbps(1040), bytes: Bytes(104) });
/// assert_eq!(store.dedup_savings(0.0), Bytes(0));    // not byte-identical
/// assert_eq!(store.dedup_savings(0.05), Bytes(100)); // within 5%: keep the larger
/// assert_eq!(store.integrated_savings(), Bytes(104)); // drop the syndicator copy
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OriginStore {
    cdn: Option<CdnName>,
    entries: Vec<OriginEntry>,
}

impl OriginStore {
    /// Creates an empty store for a CDN.
    pub fn new(cdn: CdnName) -> OriginStore {
        OriginStore { cdn: Some(cdn), entries: Vec::new() }
    }

    /// The CDN this store belongs to.
    pub fn cdn(&self) -> Option<CdnName> {
        self.cdn
    }

    /// Registers a pushed encoding.
    pub fn push(&mut self, entry: OriginEntry) {
        self.push_all([entry]);
    }

    /// Registers a batch of pushed encodings; the push counters move once
    /// per batch, by the same totals.
    pub fn push_all(&mut self, entries: impl IntoIterator<Item = OriginEntry>) {
        self.push_all_times(entries, 1);
    }

    /// Registers a batch that `times` titles each push identically: the
    /// ledger holds the batch once, and the push counters count all
    /// `times` copies. A study whose titles push the same (publisher,
    /// bitrate, bytes) set measures one title this way and scales, since
    /// no measurement relates copies of different [`ContentKey`]s.
    pub fn push_all_times(&mut self, entries: impl IntoIterator<Item = OriginEntry>, times: u64) {
        let before = self.entries.len();
        self.entries.extend(entries);
        let added = &self.entries[before..];
        let bytes: u64 = added.iter().map(|e| e.bytes.0).sum();
        let metrics = OriginMetrics::get();
        metrics.pushes.add((added.len() as u64).saturating_mul(times));
        metrics.bytes_pushed.add(bytes.saturating_mul(times));
    }

    /// All entries.
    pub fn entries(&self) -> &[OriginEntry] {
        &self.entries
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> Bytes {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Savings if the CDN deduplicates copies of the same content whose
    /// bitrates are within `tolerance` (relative, e.g. 0.05 = 5%).
    ///
    /// Clustering per content key is single-linkage over the sorted
    /// bitrates: entries whose *adjacent* gap is within tolerance join one
    /// cluster; within a cluster only one copy — the largest, to preserve
    /// the best quality — is kept. Single linkage makes savings provably
    /// monotone in the tolerance (raising it can only merge clusters, and a
    /// merge never reduces the saved bytes), which anchored greedy
    /// clustering does not guarantee. `tolerance = 0` merges only
    /// exactly-equal bitrates.
    pub fn dedup_savings(&self, tolerance: f64) -> Bytes {
        let [saved] = self.dedup_savings_at([tolerance]);
        saved
    }

    /// [`dedup_savings`](Self::dedup_savings) at several tolerances over
    /// one shared regrouping of the ledger (the grouping and the bitrate
    /// sort do not depend on the tolerance).
    pub fn dedup_savings_at<const N: usize>(&self, tolerances: [f64; N]) -> [Bytes; N] {
        for tolerance in tolerances {
            assert!((0.0..=1.0).contains(&tolerance), "tolerance must be in [0,1]");
        }
        // Stable, so copies of one content at one bitrate keep push order.
        let mut sorted: Vec<&OriginEntry> = self.entries.iter().collect();
        sorted.sort_by_key(|e| (e.content, e.bitrate));
        let mut saved = [Bytes::ZERO; N];
        for group in sorted.chunk_by(|a, b| a.content == b.content) {
            for (saved, tolerance) in saved.iter_mut().zip(tolerances) {
                let mut i = 0;
                while i < group.len() {
                    // Cluster [i, j): chain while adjacent gaps stay in tolerance.
                    let mut j = i + 1;
                    while j < group.len()
                        && group[j - 1].bitrate.relative_gap(group[j].bitrate) <= tolerance
                    {
                        j += 1;
                    }
                    let (total, keep) = group[i..j]
                        .iter()
                        .fold((Bytes::ZERO, Bytes::ZERO), |(total, keep), e| {
                            (total + e.bytes, keep.max(e.bytes))
                        });
                    *saved += total.saturating_sub(keep);
                    i = j;
                }
            }
        }
        saved
    }

    /// Savings under *integrated syndication*: every copy pushed by a
    /// publisher other than the content's owner is dropped (syndicators use
    /// the owner's manifest/CDN copies via API or app integration, §6).
    pub fn integrated_savings(&self) -> Bytes {
        self.entries
            .iter()
            .filter(|e| e.publisher != e.content.owner)
            .map(|e| e.bytes)
            .sum()
    }

    /// Savings as a percentage of total storage (0–100).
    pub fn savings_percent(&self, saved: Bytes) -> f64 {
        let total = self.total_bytes();
        if total.0 == 0 {
            0.0
        } else {
            100.0 * saved.0 as f64 / total.0 as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ContentKey {
        ContentKey { owner: PublisherId::new(0), video: VideoId::new(1) }
    }

    fn entry(publisher: u32, bitrate: u32, bytes: u64) -> OriginEntry {
        OriginEntry {
            publisher: PublisherId::new(publisher),
            content: key(),
            bitrate: Kbps(bitrate),
            bytes: Bytes(bytes),
        }
    }

    #[test]
    fn exact_duplicates_dedup_at_zero_tolerance() {
        let mut store = OriginStore::new(CdnName::A);
        store.push(entry(0, 1000, 100));
        store.push(entry(1, 1000, 100));
        store.push(entry(2, 1000, 100));
        assert_eq!(store.dedup_savings(0.0), Bytes(200));
        assert_eq!(store.total_bytes(), Bytes(300));
        assert!((store.savings_percent(Bytes(200)) - 66.666).abs() < 0.01);
    }

    #[test]
    fn nearby_bitrates_dedup_only_with_tolerance() {
        let mut store = OriginStore::new(CdnName::A);
        store.push(entry(0, 1000, 100));
        store.push(entry(1, 1040, 104)); // 4% above
        assert_eq!(store.dedup_savings(0.0), Bytes::ZERO);
        assert_eq!(store.dedup_savings(0.05), Bytes(100)); // keeps the larger copy
    }

    #[test]
    fn different_content_never_dedups() {
        let mut store = OriginStore::new(CdnName::A);
        store.push(entry(0, 1000, 100));
        store.push(OriginEntry {
            publisher: PublisherId::new(1),
            content: ContentKey { owner: PublisherId::new(9), video: VideoId::new(2) },
            bitrate: Kbps(1000),
            bytes: Bytes(100),
        });
        assert_eq!(store.dedup_savings(0.10), Bytes::ZERO);
    }

    #[test]
    fn savings_monotone_in_tolerance() {
        let mut store = OriginStore::new(CdnName::B);
        for (p, b) in [(0u32, 400u32), (1, 420), (2, 460), (0, 800), (1, 880), (2, 1200)] {
            store.push(entry(p, b, b as u64));
        }
        let s0 = store.dedup_savings(0.0);
        let s5 = store.dedup_savings(0.05);
        let s10 = store.dedup_savings(0.10);
        let s50 = store.dedup_savings(0.50);
        assert!(s0 <= s5 && s5 <= s10 && s10 <= s50);
        assert!(s50 < store.total_bytes());
    }

    #[test]
    fn integrated_drops_all_syndicator_copies() {
        let mut store = OriginStore::new(CdnName::A);
        store.push(entry(0, 1000, 100)); // owner copy (owner id 0)
        store.push(entry(0, 2000, 200));
        store.push(entry(1, 950, 95)); // syndicator copies
        store.push(entry(2, 3000, 300));
        assert_eq!(store.integrated_savings(), Bytes(395));
        // Integrated beats any dedup tolerance here.
        assert!(store.integrated_savings() >= store.dedup_savings(0.10));
    }

    #[test]
    fn empty_store_is_safe() {
        let store = OriginStore::new(CdnName::E);
        assert_eq!(store.total_bytes(), Bytes::ZERO);
        assert_eq!(store.dedup_savings(0.1), Bytes::ZERO);
        assert_eq!(store.integrated_savings(), Bytes::ZERO);
        assert_eq!(store.savings_percent(Bytes::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn invalid_tolerance_panics() {
        OriginStore::new(CdnName::A).dedup_savings(1.5);
    }
}
