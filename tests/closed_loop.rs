//! Cross-crate closed-loop tests: the packager's outputs must be exactly
//! what the player fetches and what analytics re-derives — no crate may
//! "know" another's intent out of band.

use vmp::core::prelude::*;
use vmp::manifest::classify;
use vmp::packaging::ladder::LadderSpec;
use vmp::packaging::package::Packager;

#[test]
fn urls_classify_for_every_protocol_cdn_pair() {
    let ladder = LadderSpec::guideline(Kbps(3000)).build().unwrap();
    let asset = VideoAsset::vod(VideoId::new(5), Seconds::from_minutes(10.0));
    let packager = Packager::default();
    for protocol in StreamingProtocol::HTTP_ADAPTIVE {
        for cdn in CdnName::MAJORS {
            let pkg = packager
                .package(&asset, &ladder, protocol, cdn, PublisherId::new(9))
                .unwrap();
            assert_eq!(classify(&pkg.manifest_url), Some(protocol), "{}", pkg.manifest_url);
        }
    }
}

#[test]
fn telemetry_protocol_inference_matches_generation_intent() {
    // Generate a small ecosystem and verify that analytics' URL-derived
    // protocol is always one the publisher's management plane packaged
    // (the generator's intent never leaks any other way).
    use vmp::analytics::store::{IngestOptions, IngestPipeline};
    use vmp::synth::ecosystem::EcosystemConfig;
    use vmp::synth::stream::ViewStream;

    let mut config = EcosystemConfig::small();
    config.publishers = 40;
    config.snapshot_stride = 18;
    let mut stream = ViewStream::new(config);
    let mut pipeline = IngestPipeline::new(IngestOptions::default());
    while let Some(batch) = stream.next_batch() {
        pipeline.push_batch(batch.views);
    }
    let store = pipeline.finish();
    let dataset = stream.into_dataset();
    let mut checked = 0;
    for seg in store.iter_segments() {
        for (&code, publisher) in seg.protocols().iter().zip(seg.publishers()) {
            let protocol =
                StreamingProtocol::from_code(code).expect("generated URLs always classify");
            let profile = dataset.profile(PublisherId::new(publisher)).expect("known publisher");
            let plane = profile.plane(seg.snapshot());
            assert!(
                plane.protocols.contains(&protocol) || protocol == plane.protocols[0],
                "{protocol} not in {:?}",
                plane.protocols
            );
            checked += 1;
        }
    }
    assert!(checked > 1000, "too few views checked: {checked}");
}

#[test]
fn weighted_view_hours_equal_management_plane_targets() {
    use std::collections::BTreeMap;
    use vmp::synth::ecosystem::EcosystemConfig;
    use vmp::synth::stream::ViewStream;

    let mut config = EcosystemConfig::small();
    config.publishers = 20;
    config.snapshot_stride = 30;
    let mut stream = ViewStream::new(config);
    let mut totals: BTreeMap<(SnapshotId, PublisherId), f64> = BTreeMap::new();
    while let Some(batch) = stream.next_batch() {
        for v in &batch.views {
            *totals.entry((v.record.snapshot, v.record.publisher)).or_insert(0.0) +=
                v.weighted_hours();
        }
    }
    let dataset = stream.into_dataset();
    for snapshot in &dataset.snapshots {
        for profile in &dataset.profiles {
            let target = profile.plane(*snapshot).vh_day * 2.0;
            let total = totals.get(&(*snapshot, profile.publisher.id)).copied().unwrap_or(0.0);
            assert!(
                (total / target - 1.0).abs() < 1e-6,
                "{}: {total} vs target {target}",
                profile.publisher.id
            );
        }
    }
}
