//! The ecosystem's configuration and metadata: what parameterizes a
//! generation run ([`EcosystemConfig`]) and what is left of it besides the
//! views ([`Dataset`]: publisher profiles, syndication graph, snapshot
//! list). The views themselves only ever exist as the batches of a
//! [`ViewStream`](crate::stream::ViewStream).

use vmp_core::ids::PublisherId;
use vmp_core::time::SnapshotId;

use crate::publisher_gen::PublisherProfile;
use crate::syndigraph::SyndicationGraph;
use crate::views::ViewGenConfig;

/// Full configuration of one ecosystem generation run.
#[derive(Debug, Clone)]
pub struct EcosystemConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Number of publishers (the paper has "more than one hundred").
    pub publishers: usize,
    /// Per-cell sampling parameters.
    pub view_gen: ViewGenConfig,
    /// Generate every `snapshot_stride`-th snapshot (1 = all 54).
    pub snapshot_stride: u32,
    /// Generator shards (worker threads) for the snapshot fan-out.
    pub threads: usize,
}

impl Default for EcosystemConfig {
    fn default() -> Self {
        EcosystemConfig {
            seed: 0x5EED_CAFE,
            publishers: 120,
            view_gen: ViewGenConfig::default(),
            snapshot_stride: 1,
            threads: 8,
        }
    }
}

impl EcosystemConfig {
    /// A small, fast configuration for unit/integration tests.
    pub fn small() -> EcosystemConfig {
        EcosystemConfig {
            seed: 0x5EED_CAFE,
            publishers: 120,
            view_gen: ViewGenConfig {
                min_samples: 25,
                max_samples: 400,
                sim_media_cap: vmp_core::units::Seconds(12.0),
                faults: None,
                volume_scale: 1,
            },
            snapshot_stride: 6,
            threads: 4,
        }
    }
}

/// The generated ecosystem's metadata: the synthetic stand-in for what the
/// measurement platform knows about its publishers. The sampled views are
/// not part of it — [`ViewStream`](crate::stream::ViewStream) is the one
/// way to get views, and
/// [`ViewStream::into_dataset`](crate::stream::ViewStream::into_dataset)
/// the one way to get a `Dataset`.
#[derive(Debug)]
pub struct Dataset {
    /// The configuration that produced it.
    pub config: EcosystemConfig,
    /// Publisher profiles (sorted by ID).
    pub profiles: Vec<PublisherProfile>,
    /// The syndication graph.
    pub graph: SyndicationGraph,
    /// Which snapshots were generated.
    pub snapshots: Vec<SnapshotId>,
}

impl Dataset {
    /// The three largest publishers by final view-hours (the Fig 2(c)/6(b)
    /// exclusion set).
    pub fn largest_publishers(&self, n: usize) -> Vec<PublisherId> {
        let mut order: Vec<&PublisherProfile> = self.profiles.iter().collect();
        order.sort_by(|a, b| b.vh_day_final.total_cmp(&a.vh_day_final));
        order.iter().take(n).map(|p| p.publisher.id).collect()
    }

    /// Profile lookup.
    pub fn profile(&self, id: PublisherId) -> Option<&PublisherProfile> {
        self.profiles.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::tests::drain;
    use crate::stream::ViewStream;

    #[test]
    fn small_dataset_generates_and_is_deterministic() {
        let (a, _) = drain(EcosystemConfig::small());
        let (b, _) = drain(EcosystemConfig::small());
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().take(500).zip(b.iter().take(500)) {
            assert_eq!(x.record, y.record);
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn determinism_is_independent_of_thread_count() {
        let mut c1 = EcosystemConfig::small();
        c1.threads = 1;
        let mut c8 = EcosystemConfig::small();
        c8.threads = 8;
        let (a, da) = drain(c1);
        let (b, db) = drain(c8);
        assert_eq!(da.snapshots, db.snapshots);
        assert_eq!(da.largest_publishers(3), db.largest_publishers(3));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.record, y.record);
        }
    }

    #[test]
    fn last_snapshot_is_always_present() {
        let (views, d) = drain(EcosystemConfig::small());
        assert!(d.snapshots.contains(&SnapshotId::LAST));
        assert!(views.iter().any(|v| v.record.snapshot == SnapshotId::LAST));
    }

    #[test]
    fn every_publisher_contributes_views() {
        let (views, d) = drain(EcosystemConfig::small());
        let mut seen = vec![false; d.profiles.len()];
        for v in &views {
            seen[v.record.publisher.index()] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn largest_publishers_are_dash_first() {
        let d = ViewStream::new(EcosystemConfig::small()).into_dataset();
        for id in d.largest_publishers(crate::trends::DASH_FIRST_PUBLISHERS) {
            assert!(d.profile(id).unwrap().dash_first);
        }
    }
}
