//! Cross-crate property tests: invariants that must hold for *arbitrary*
//! configurations, not just the calibrated ones.

use proptest::prelude::*;
use vmp::abr::algorithm::{AbrAlgorithm, Bba, Bola, ThroughputRule};
use vmp::abr::network::{NetworkModel, NetworkProfile};
use vmp::cdn::origin::{ContentKey, OriginEntry, OriginStore};
use vmp::core::prelude::*;
use vmp::core::units::Bytes;
use vmp::packaging::package::{container_overhead, Packager};
use vmp::session::player::{PlaybackConfig, Player};
use vmp::stats::Rng;

fn ladder_strategy() -> impl Strategy<Value = BitrateLadder> {
    proptest::collection::btree_set(100u32..=15_000, 1..=12)
        .prop_map(|set| BitrateLadder::from_bitrates(&set.into_iter().collect::<Vec<_>>()).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Origin storage is exactly Σ bitrate × duration × overhead for every
    /// ladder/duration/protocol — the §6 storage arithmetic.
    #[test]
    fn packaged_storage_matches_closed_form(
        ladder in ladder_strategy(),
        minutes in 1u32..=180,
        proto_idx in 0usize..4,
    ) {
        let protocol = StreamingProtocol::HTTP_ADAPTIVE[proto_idx];
        let packager = Packager { audio_bitrates: vec![], ..Packager::default() };
        let asset = VideoAsset::vod(VideoId::new(1), Seconds::from_minutes(minutes as f64));
        let pkg = packager
            .package(&asset, &ladder, protocol, CdnName::A, PublisherId::new(1))
            .unwrap();
        let seconds = minutes as f64 * 60.0;
        let expected: f64 = ladder
            .bitrates()
            .iter()
            .map(|b| b.0 as f64 * 1000.0 / 8.0 * seconds * container_overhead(protocol))
            .sum();
        let got = pkg.origin_bytes().0 as f64;
        prop_assert!((got - expected).abs() / expected < 1e-3, "got {got}, expected {expected}");
    }

    /// Playback sessions preserve their invariants under arbitrary ladders,
    /// network quality and watch durations, with every ABR algorithm.
    #[test]
    fn session_invariants_hold_universally(
        ladder in ladder_strategy(),
        quality in 0.1f64..2.5,
        watch_min in 1u32..=40,
        algo_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let abr: Box<dyn AbrAlgorithm> = match algo_idx {
            0 => Box::new(ThroughputRule::default()),
            1 => Box::new(Bba::default()),
            _ => Box::new(Bola::default()),
        };
        let network =
            NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Wifi, quality));
        let watch = Seconds::from_minutes(watch_min as f64);
        let config = PlaybackConfig::vod(ladder.clone(), Seconds::from_hours(2.0), watch);
        let mut rng = Rng::seed_from(seed);
        let outcome = Player::new(config, network, abr.as_ref()).unwrap().play(CdnName::A, &mut rng);

        // Watched exactly the intent (content is longer).
        prop_assert!((outcome.downloaded.0 - watch.0).abs() < 1e-6);
        // QoE is physically sane.
        prop_assert!(outcome.qoe.rebuffer_time.0 >= 0.0);
        prop_assert!(outcome.qoe.startup_delay.0 > 0.0);
        let ratio = outcome.qoe.rebuffer_ratio();
        prop_assert!((0.0..=1.0).contains(&ratio));
        // Every chunk's bitrate is on the ladder; the average is within its
        // bounds.
        let bitrates = ladder.bitrates();
        for b in &outcome.bitrates_used {
            prop_assert!(bitrates.contains(b));
        }
        prop_assert!(outcome.qoe.avg_bitrate >= ladder.min().bitrate);
        prop_assert!(outcome.qoe.avg_bitrate <= ladder.max().bitrate);
    }

    /// Dedup savings are monotone in tolerance and bounded by the total,
    /// for arbitrary origin contents.
    #[test]
    fn dedup_savings_monotone_and_bounded(
        entries in proptest::collection::vec(
            (0u32..6, 0u32..8, 100u32..10_000, 1u64..1_000_000),
            1..60,
        ),
        tol_a in 0.0f64..0.5,
        tol_b in 0.0f64..0.5,
    ) {
        let mut store = OriginStore::new(CdnName::A);
        for (publisher, video, bitrate, bytes) in entries {
            store.push(OriginEntry {
                publisher: PublisherId::new(publisher),
                content: ContentKey { owner: PublisherId::new(0), video: VideoId::new(video) },
                bitrate: Kbps(bitrate),
                bytes: Bytes(bytes),
            });
        }
        let (lo, hi) = if tol_a <= tol_b { (tol_a, tol_b) } else { (tol_b, tol_a) };
        let saved_lo = store.dedup_savings(lo);
        let saved_hi = store.dedup_savings(hi);
        prop_assert!(saved_lo <= saved_hi, "savings not monotone: {saved_lo:?} > {saved_hi:?}");
        prop_assert!(saved_hi <= store.total_bytes());
        prop_assert!(store.integrated_savings() <= store.total_bytes());
    }

    /// The URL classifier is total and stable: classify(classify-input)
    /// never panics and generated URLs always classify to their protocol.
    #[test]
    fn classifier_total_on_arbitrary_strings(
        s in "\\PC{0,120}",
        proto_idx in 0usize..6,
        cdn in 0usize..CdnName::OBSERVED_TOTAL,
        prefix in "p[0-9]{1,4}",
        token in "[a-z0-9]{1,12}",
    ) {
        let _ = vmp::manifest::classify(&s);
        let protocol = StreamingProtocol::ALL[proto_idx];
        let host = CdnName::from_dense_index(cdn).expect("in range").host();
        let url = vmp::manifest::manifest_url(protocol, &host, &prefix, &token);
        prop_assert_eq!(vmp::manifest::classify(&url), Some(protocol), "url {}", url);
    }
}

/// Deterministic replay: the same seed reproduces the same session through
/// every layer (network, ABR, CDN routing).
#[test]
fn cross_crate_determinism() {
    let ladder = BitrateLadder::from_bitrates(&[400, 1200, 3600]).unwrap();
    let run = || {
        let abr = ThroughputRule::default();
        let network = NetworkModel::new(NetworkProfile::for_connection(ConnectionType::Cellular4g, 0.8));
        let config =
            PlaybackConfig::vod(ladder.clone(), Seconds::from_minutes(60.0), Seconds::from_minutes(20.0));
        let mut rng = Rng::seed_from(4242);
        Player::new(config, network, &abr).unwrap().play(CdnName::C, &mut rng)
    };
    assert_eq!(run(), run());
}
