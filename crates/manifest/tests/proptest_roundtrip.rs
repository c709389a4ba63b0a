//! Property tests: every manifest writer/parser pair must round-trip for
//! arbitrary valid presentations, and the URL classifier must agree with the
//! generating protocol for arbitrary tokens.

use proptest::prelude::*;
use vmp_core::ladder::BitrateLadder;
use vmp_core::protocol::StreamingProtocol;
use vmp_core::units::{Kbps, Seconds};
use vmp_manifest::types::PresentationBuilder;
use vmp_manifest::{classify, dash, hds, hls, manifest_url, mss, MediaPresentation};

/// Strategy: a valid ascending ladder of 1..=14 distinct bitrates in
/// 100..=20_000 kbps (Fig 17's observed range is 3..=14 rungs).
fn ladder_strategy() -> impl Strategy<Value = BitrateLadder> {
    proptest::collection::btree_set(100u32..=20_000, 1..=14)
        .prop_map(|set| BitrateLadder::from_bitrates(&set.into_iter().collect::<Vec<_>>()).unwrap())
}

fn presentation_strategy() -> impl Strategy<Value = MediaPresentation> {
    (
        ladder_strategy(),
        proptest::collection::btree_set(32u32..=320, 1..=3),
        2u32..=10,        // chunk duration seconds
        60u32..=14_400,   // total duration seconds
        "[a-z0-9]{4,12}", // content token
        proptest::bool::ANY,
    )
        .prop_map(|(ladder, audio, chunk, total, token, live)| {
            let mut b = PresentationBuilder::new(token, ladder)
                .audio(audio.into_iter().map(Kbps).collect())
                .chunk_duration(Seconds(chunk as f64))
                .base_url("https://edge.cdn-a.example.net/p1");
            if !live {
                b = b.vod(Seconds(total as f64));
            }
            b.build().unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hls_master_round_trip(p in presentation_strategy()) {
        let top_audio = p.audio_bitrates.iter().copied().max().unwrap();
        let master = hls::parse_master(&hls::write_master(&p)).unwrap();
        let bitrates: Vec<Kbps> =
            master.variants.iter().map(|v| v.video_bitrate(top_audio)).collect();
        prop_assert_eq!(bitrates, *p.ladder.bitrates());
        let audio: Vec<Kbps> = master.audio.iter().filter_map(|a| a.bitrate()).collect();
        let mut expected = p.audio_bitrates.clone();
        expected.sort();
        prop_assert_eq!(audio, expected);
    }

    #[test]
    fn hls_media_round_trip(p in presentation_strategy()) {
        let rung = p.ladder.rungs()[0];
        let media = hls::parse_media(&hls::write_media(&p, &rung)).unwrap();
        match p.total_duration {
            Some(total) => {
                prop_assert!(media.ended);
                prop_assert!((media.total_duration().0 - total.0).abs() < 1e-3);
                // Every segment respects the target duration.
                for seg in &media.segments {
                    prop_assert!(seg.duration.0 <= media.target_duration as f64 + 1e-9);
                }
            }
            None => prop_assert!(!media.ended),
        }
    }

    #[test]
    fn dash_round_trip(p in presentation_strategy()) {
        let back = dash::parse_mpd(&dash::write_mpd(&p)).unwrap();
        prop_assert_eq!(back.ladder.bitrates(), p.ladder.bitrates());
        let mut expected_audio = p.audio_bitrates.clone();
        expected_audio.sort();
        let mut got_audio = back.audio_bitrates.clone();
        got_audio.sort();
        prop_assert_eq!(got_audio, expected_audio);
        prop_assert!((back.chunk_duration.0 - p.chunk_duration.0).abs() < 1e-6);
        prop_assert_eq!(back.is_live(), p.is_live());
        if let (Some(a), Some(b)) = (back.total_duration, p.total_duration) {
            prop_assert!((a.0 - b.0).abs() < 1e-2);
        }
    }

    #[test]
    fn mss_round_trip(p in presentation_strategy()) {
        let back = mss::parse_manifest(&mss::write_manifest(&p), &p.base_url).unwrap();
        prop_assert_eq!(back.ladder.bitrates(), p.ladder.bitrates());
        prop_assert!((back.chunk_duration.0 - p.chunk_duration.0).abs() < 1e-6);
        prop_assert_eq!(back.is_live(), p.is_live());
    }

    #[test]
    fn hds_round_trip(p in presentation_strategy()) {
        let back = hds::parse_f4m(&hds::write_f4m(&p)).unwrap();
        prop_assert_eq!(back.ladder.bitrates(), p.ladder.bitrates());
        prop_assert!((back.chunk_duration.0 - p.chunk_duration.0).abs() < 1e-6);
        prop_assert_eq!(back.is_live(), p.is_live());
    }

    #[test]
    fn classifier_agrees_with_generator(
        proto_idx in 0usize..6,
        host in "[a-z]{3,10}\\.example\\.net",
        prefix in "p[0-9]{1,4}",
        token in "[a-z0-9]{4,12}",
    ) {
        let proto = StreamingProtocol::ALL[proto_idx];
        let url = manifest_url(proto, &host, &prefix, &token);
        prop_assert_eq!(classify(&url), Some(proto));
    }

    #[test]
    fn classifier_never_panics(url in "\\PC*") {
        let _ = classify(&url);
    }

    /// Classification ignores ASCII case, for generated URLs (which always
    /// classify) and for arbitrary strings (which mostly do not).
    #[test]
    fn classifier_ignores_ascii_case(
        proto_idx in 0usize..6,
        token in "[a-zA-Z0-9]{4,12}",
        arbitrary in "\\PC*",
    ) {
        let generated =
            manifest_url(StreamingProtocol::ALL[proto_idx], "Edge.Example.NET", "p7", &token);
        for u in [generated, arbitrary] {
            prop_assert_eq!(classify(&u), classify(&u.to_ascii_uppercase()));
            prop_assert_eq!(classify(&u), classify(&u.to_ascii_lowercase()));
        }
    }
}
