//! Micro-benchmarks for the substrates: manifest writers, URL
//! classification, packaging, chunking, dedup, the Fig 18 storage study,
//! edge caching and single playback sessions.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vmp_abr::algorithm::ThroughputRule;
use vmp_abr::network::{NetworkModel, NetworkProfile};
use vmp_cdn::edge::EdgeCache;
use vmp_cdn::origin::{ContentKey, OriginEntry, OriginStore};
use vmp_core::cdn::CdnName;
use vmp_core::content::VideoAsset;
use vmp_core::geo::ConnectionType;
use vmp_core::ids::{PublisherId, VideoId};
use vmp_core::ladder::BitrateLadder;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::units::{Bytes, Kbps, Seconds};
use vmp_manifest::types::PresentationBuilder;
use vmp_manifest::{classify, dash, hls};
use vmp_packaging::package::Packager;
use vmp_session::player::{PlaybackConfig, Player};
use vmp_stats::Rng;
use vmp_syndication::catalogue::CatalogueStudy;
use vmp_syndication::storage::storage_study;

fn ladder() -> BitrateLadder {
    BitrateLadder::from_bitrates(&[145, 290, 580, 1100, 2200, 3600, 5400, 7000, 8600]).unwrap()
}

fn bench_manifest(c: &mut Criterion) {
    let presentation = PresentationBuilder::new("v9f3c", ladder())
        .chunk_duration(Seconds(6.0))
        .vod(Seconds(2520.0))
        .build()
        .unwrap();

    let mut group = c.benchmark_group("manifest");
    group.bench_function("hls_write_master", |b| {
        b.iter(|| hls::write_master(black_box(&presentation)))
    });
    group.bench_function("dash_write_mpd", |b| {
        b.iter(|| dash::write_mpd(black_box(&presentation)))
    });
    group.bench_function("classify_url", |b| {
        b.iter(|| classify(black_box("https://edge.cdn-a.example.net/p0042/v9f3c/master.m3u8")))
    });
    group.finish();
}

fn bench_packaging(c: &mut Criterion) {
    let packager = Packager::default();
    let asset = VideoAsset::vod(VideoId::new(7), Seconds::from_hours(2.0));
    let ladder = ladder();
    c.bench_function("package_title_hls", |b| {
        b.iter(|| {
            packager
                .package(
                    black_box(&asset),
                    black_box(&ladder),
                    StreamingProtocol::Hls,
                    CdnName::A,
                    PublisherId::new(1),
                )
                .unwrap()
        })
    });
}

fn bench_dedup(c: &mut Criterion) {
    let mut store = OriginStore::new(CdnName::A);
    let mut rng = Rng::seed_from(1);
    for title in 0..500u32 {
        for publisher in 0..3u32 {
            for _ in 0..9 {
                let bitrate = 100 + rng.below(9000) as u32;
                store.push(OriginEntry {
                    publisher: PublisherId::new(publisher),
                    content: ContentKey { owner: PublisherId::new(0), video: VideoId::new(title) },
                    bitrate: Kbps(bitrate),
                    bytes: Bytes(bitrate as u64 * 1000),
                });
            }
        }
    }
    c.bench_function("dedup_13500_entries", |b| {
        b.iter(|| store.dedup_savings(black_box(0.05)))
    });
}

/// Fig 18 at the paper's size: 24,000 titles × 30 rungs on each of the two
/// common CDNs, streamed a title at a time.
fn bench_storage_study(c: &mut Criterion) {
    let study = CatalogueStudy::paper_setting();
    c.bench_function("storage_study/paper_setting", |b| {
        b.iter(|| storage_study(black_box(&study)))
    });
}

fn bench_edge_cache(c: &mut Criterion) {
    c.bench_function("edge_cache_fetch", |b| {
        let mut cache = EdgeCache::new(Bytes(1_000_000));
        let mut key = 0u64;
        b.iter(|| {
            key = key.wrapping_add(0x9E37_79B9);
            cache.fetch(black_box(key % 512), Bytes(4_000))
        })
    });
}

fn bench_session(c: &mut Criterion) {
    c.bench_function("playback_session_10min", |b| {
        let abr = ThroughputRule::default();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let network =
                NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, 1.0));
            let config = PlaybackConfig::vod(
                ladder(),
                Seconds::from_minutes(30.0),
                Seconds::from_minutes(10.0),
            );
            let mut rng = Rng::seed_from(seed);
            Player::new(config, network, &abr).unwrap().play(CdnName::A, &mut rng)
        })
    });
}

criterion_group!(
    name = substrates;
    config = Criterion::default().sample_size(30);
    targets = bench_manifest, bench_packaging, bench_dedup, bench_storage_study,
        bench_edge_cache, bench_session
);
criterion_main!(substrates);
