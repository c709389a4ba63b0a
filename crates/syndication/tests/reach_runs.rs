//! Fig 14's syndication reach against a row-at-a-time reference on the
//! publisher sequences a run-length scan could get wrong: a publisher whose
//! rows come back after another's (`A, B, A`), runs of a single row, and
//! runs that mix owned and syndicated views of several owners. Reach is
//! built from sets, so the measured result must be *equal*, not close.

use std::collections::{BTreeMap, BTreeSet};

use vmp_analytics::columns::NO_OWNER;
use vmp_analytics::store::ViewStore;
use vmp_core::cdn::CdnName;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{PublisherId, SessionId, VideoId};
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{OwnershipFlag, PlayerIdentity, SampledView, ViewRecord};
use vmp_syndication::prevalence::{ReachSets, SyndicationReach};

/// The reach as Fig 14 measures it: per-segment sets, merged one segment
/// at a time, then finished.
fn measured(store: &ViewStore) -> SyndicationReach {
    let mut sets = ReachSets::default();
    for seg in store.iter_segments() {
        let mut part = ReachSets::default();
        part.add_segment(&seg);
        sets.merge(part);
    }
    sets.finish()
}

/// The reference: every row updates the sets on its own.
fn per_row(store: &ViewStore) -> SyndicationReach {
    let mut syndicators: BTreeSet<PublisherId> = BTreeSet::new();
    let mut owner_to_syndicators: BTreeMap<PublisherId, BTreeSet<PublisherId>> = BTreeMap::new();
    let mut owners: BTreeSet<PublisherId> = BTreeSet::new();
    for seg in store.iter_segments() {
        for (serving, owner) in seg.publishers().into_iter().zip(seg.owners()) {
            let serving = PublisherId::new(serving);
            if owner == NO_OWNER {
                owners.insert(serving);
            } else {
                let owner = PublisherId::new(owner);
                syndicators.insert(serving);
                owners.insert(owner);
                owner_to_syndicators.entry(owner).or_default().insert(serving);
            }
        }
    }
    let pure: BTreeSet<PublisherId> =
        syndicators.iter().copied().filter(|s| !owner_to_syndicators.contains_key(s)).collect();
    let pool = syndicators.len().max(1) as f64;
    let per_owner = owners
        .difference(&pure)
        .map(|&o| {
            let reach = owner_to_syndicators.get(&o).map_or(0, BTreeSet::len) as f64;
            (o, reach / pool)
        })
        .collect();
    SyndicationReach { total_syndicators: syndicators.len(), per_owner }
}

/// One view; `owner` is `None` for owned content.
fn view(snapshot: u32, publisher: u32, owner: Option<u32>) -> SampledView {
    SampledView {
        record: ViewRecord {
            session: SessionId::new(0),
            snapshot: SnapshotId::new(snapshot).expect("snapshot in range"),
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
            ownership: match owner {
                None => OwnershipFlag::Owned,
                Some(o) => OwnershipFlag::Syndicated { owner: PublisherId::new(o) },
            },
            region: Region::UsOther,
            isp: Isp::Z,
            connection: ConnectionType::Wired,
        },
        weight: 1.0,
    }
}

fn assert_matches_reference(rows: &[(u32, u32, Option<u32>)]) {
    let store = ViewStore::ingest(rows.iter().map(|&(s, p, o)| view(s, p, o)).collect());
    assert_eq!(measured(&store), per_row(&store), "rows {rows:?}");
}

#[test]
fn interleaved_publishers_match_the_per_row_reference() {
    // A = 3, B = 5: A's run returns after B's, with owned and syndicated
    // rows of two owners mixed inside each run.
    assert_matches_reference(&[
        (0, 3, None),
        (0, 3, Some(0)),
        (0, 3, Some(1)),
        (0, 5, Some(0)),
        (0, 5, None),
        (0, 3, Some(2)),
        (0, 3, Some(0)),
        (0, 0, None),
        (0, 1, None),
        (1, 5, Some(3)),
        (1, 3, None),
        (1, 5, Some(1)),
    ]);
}

#[test]
fn single_row_runs_match_the_per_row_reference() {
    assert_matches_reference(&[
        (0, 0, None),
        (0, 1, Some(0)),
        (0, 2, Some(0)),
        (0, 1, Some(4)),
        (0, 4, None),
        (0, 2, Some(1)),
        (0, 1, None),
        (2, 6, Some(4)),
        (2, 4, Some(6)),
        (2, 6, None),
    ]);
}

#[test]
fn a_syndicator_that_only_syndicates_matches_the_per_row_reference() {
    // Publisher 7 never owns anything and is nobody's owner: not an owner.
    assert_matches_reference(&[(0, 0, None), (0, 7, Some(0)), (0, 7, Some(0)), (1, 7, Some(2))]);
}
