//! Fig 14: the prevalence of content syndication.
//!
//! From the telemetry's per-(publisher, video) ownership flags we can see,
//! for each content owner, which full syndicators served its content. The
//! figure plots the CDF across owners of the percentage of all full
//! syndicators each owner reaches.
//!
//! Reach is built from sets, so it splits into a per-segment accumulate
//! ([`ReachSets::add_segment`]), a merge and a [`finish`](ReachSets::finish):
//! segments can be gathered in any grouping and the result is equal.

use std::collections::{BTreeMap, BTreeSet};
use vmp_core::ids::PublisherId;
use vmp_stats::Cdf;

use vmp_analytics::columns::{Segment, NO_OWNER};

/// Per-owner syndicator reach measured from telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SyndicationReach {
    /// Number of distinct full syndicators observed in the data.
    pub total_syndicators: usize,
    /// owner → fraction of the syndicator pool carrying its content.
    pub per_owner: BTreeMap<PublisherId, f64>,
}

impl SyndicationReach {
    /// CDF across owners of the reach percentage (0–100), Fig 14's curve.
    pub fn cdf(&self) -> Option<Cdf> {
        let values: Vec<f64> = self.per_owner.values().map(|f| 100.0 * f).collect();
        Cdf::new(&values)
    }

    /// Share of owners using at least one syndicator (paper: >80%).
    pub fn owners_with_any(&self) -> f64 {
        if self.per_owner.is_empty() {
            return 0.0;
        }
        self.per_owner.values().filter(|f| **f > 0.0).count() as f64 / self.per_owner.len() as f64
    }
}

/// The owner and syndicator sets behind [`SyndicationReach`], gathered
/// from segments.
///
/// An owner is any publisher appearing as the `owner` of a syndicated view
/// or serving owned views that others syndicate; a syndicator is any
/// publisher observed serving syndicated content.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReachSets {
    syndicators: BTreeSet<PublisherId>,
    owners: BTreeSet<PublisherId>,
    owner_to_syndicators: BTreeMap<PublisherId, BTreeSet<PublisherId>>,
}

impl ReachSets {
    /// Adds one segment's views. The segment's run table groups rows by
    /// serving publisher, so the sets are updated once per run with the
    /// run's distinct owners, not once per row. A publisher that reappears
    /// in a later run simply adds to the same sets.
    pub fn add_segment(&mut self, seg: &Segment) {
        let owner_col = seg.owner_column();
        let mut run_owners: Vec<u32> = Vec::new();
        for run in seg.cells() {
            let mut owned = false;
            run_owners.clear();
            for owner in run.rows.clone().map(|i| owner_col.value(i)) {
                if owner == NO_OWNER {
                    owned = true;
                } else if run_owners.last() != Some(&owner) {
                    run_owners.push(owner);
                }
            }
            let serving = PublisherId::new(run.publisher);
            if owned {
                self.owners.insert(serving);
            }
            if !run_owners.is_empty() {
                run_owners.sort_unstable();
                run_owners.dedup();
                self.syndicators.insert(serving);
                for &owner in &run_owners {
                    let owner = PublisherId::new(owner);
                    self.owners.insert(owner);
                    self.owner_to_syndicators.entry(owner).or_default().insert(serving);
                }
            }
        }
    }

    /// Folds another gathering in (set unions: order does not matter).
    pub fn merge(&mut self, other: ReachSets) {
        self.syndicators.extend(other.syndicators);
        self.owners.extend(other.owners);
        for (owner, syndicators) in other.owner_to_syndicators {
            self.owner_to_syndicators.entry(owner).or_default().extend(syndicators);
        }
    }

    /// Each owner's reach over the syndicator pool.
    pub fn finish(self) -> SyndicationReach {
        let ReachSets { syndicators, owners, owner_to_syndicators } = self;
        // Publishers that only syndicate are not owners.
        let pure_syndicators: BTreeSet<PublisherId> = syndicators
            .iter()
            .copied()
            .filter(|s| !owner_to_syndicators.contains_key(s))
            .collect();
        let pool = syndicators.len().max(1) as f64;
        let per_owner: BTreeMap<PublisherId, f64> = owners
            .difference(&pure_syndicators)
            .map(|o| {
                let reach = owner_to_syndicators.get(o).map_or(0, BTreeSet::len) as f64;
                (*o, reach / pool)
            })
            .collect();
        SyndicationReach { total_syndicators: syndicators.len(), per_owner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_analytics::store::ViewStore;
    use vmp_core::view::{OwnershipFlag, SampledView};

    fn syndication_reach(store: &ViewStore) -> SyndicationReach {
        let mut sets = ReachSets::default();
        for seg in store.iter_segments() {
            sets.add_segment(&seg);
        }
        sets.finish()
    }

    fn view(publisher: u32, ownership: OwnershipFlag) -> SampledView {
        use vmp_core::cdn::CdnName;
        use vmp_core::content::ContentClass;
        use vmp_core::device::DeviceModel;
        use vmp_core::geo::{ConnectionType, Isp, Region};
        use vmp_core::ids::{SessionId, VideoId};
        use vmp_core::time::SnapshotId;
        use vmp_core::units::{Kbps, Seconds};
        use vmp_core::view::{PlayerIdentity, ViewRecord};
        SampledView {
            record: ViewRecord {
                session: SessionId::new(0),
                snapshot: SnapshotId::LAST,
                publisher: PublisherId::new(publisher),
                video: VideoId::new(0),
                manifest_url: "https://h/p/x.m3u8".into(),
                device: DeviceModel::Roku,
                os: DeviceModel::Roku.os(),
                player: PlayerIdentity::UserAgent("t".into()),
                cdns: CdnName::A.into(),
                available_bitrates: [Kbps(800)].into(),
                viewing_time: Seconds::from_hours(1.0),
                class: ContentClass::Vod,
                ownership,
                region: Region::UsOther,
                isp: Isp::Z,
                connection: ConnectionType::Wired,
            },
            weight: 1.0,
        }
    }

    #[test]
    fn reach_counts_distinct_syndicators() {
        let owner = PublisherId::new(0);
        let store = ViewStore::ingest(vec![
            view(0, OwnershipFlag::Owned),
            view(1, OwnershipFlag::Syndicated { owner }),
            view(1, OwnershipFlag::Syndicated { owner }), // duplicate pair
            view(2, OwnershipFlag::Syndicated { owner }),
            view(3, OwnershipFlag::Owned), // owner with no syndication
        ]);
        let reach = syndication_reach(&store);
        assert_eq!(reach.total_syndicators, 2);
        assert!((reach.per_owner[&owner] - 1.0).abs() < 1e-9);
        assert_eq!(reach.per_owner[&PublisherId::new(3)], 0.0);
        assert!((reach.owners_with_any() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn pure_syndicators_are_not_owners() {
        let store = ViewStore::ingest(vec![
            view(0, OwnershipFlag::Owned),
            view(1, OwnershipFlag::Syndicated { owner: PublisherId::new(0) }),
        ]);
        let reach = syndication_reach(&store);
        assert!(!reach.per_owner.contains_key(&PublisherId::new(1)));
    }

    #[test]
    fn cdf_is_well_formed() {
        let owner_a = PublisherId::new(0);
        let owner_b = PublisherId::new(5);
        let store = ViewStore::ingest(vec![
            view(0, OwnershipFlag::Owned),
            view(5, OwnershipFlag::Owned),
            view(1, OwnershipFlag::Syndicated { owner: owner_a }),
            view(2, OwnershipFlag::Syndicated { owner: owner_a }),
            view(2, OwnershipFlag::Syndicated { owner: owner_b }),
        ]);
        let reach = syndication_reach(&store);
        let cdf = reach.cdf().unwrap();
        assert_eq!(cdf.quantile(1.0), 100.0); // owner_a reaches both
    }

    #[test]
    fn empty_store_is_safe() {
        let reach = syndication_reach(&ViewStore::ingest(vec![]));
        assert_eq!(reach.total_syndicators, 0);
        assert!(reach.per_owner.is_empty());
        assert_eq!(reach.owners_with_any(), 0.0);
        assert!(reach.cdf().is_none());
    }
}
