//! Malformed-input battery: every parser must return a typed
//! [`ManifestError`] (or `XmlError`) on hostile input — never panic, never
//! exhaust stack or memory. Failure triaging (§5 of the paper) counts
//! manifest errors as a first-class failure mode, so the parse paths are
//! exactly where untrusted bytes enter the pipeline.

use vmp_manifest::types::ManifestError;
use vmp_manifest::{dash, hls, mss, xml};

/// Inputs that must produce an error from every line-oriented HLS entry
/// point without panicking.
const HLS_GARBAGE: &[&str] = &[
    "",
    "#EXTM3U",
    "not a playlist",
    "#EXTM3U\n#EXT-X-VERSION:banana",
    "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=notanumber\nchunk.m3u8",
    "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=\u{0000}\nchunk.m3u8",
    "#EXTM3U\nvariant.m3u8",
    "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=800000",
    "#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=640x360\nchunk.m3u8",
];

#[test]
fn hls_master_rejects_garbage_without_panicking() {
    for input in HLS_GARBAGE {
        assert!(
            hls::parse_master(input).is_err(),
            "parse_master accepted malformed input: {input:?}"
        );
    }
}

#[test]
fn hls_media_rejects_garbage_without_panicking() {
    for input in [
        "",
        "random text",
        "#EXTM3U\n#EXT-X-TARGETDURATION:NaNopes",
        "#EXTM3U\n#EXTINF:-4.0,\nseg0.ts\n#EXT-X-TARGETDURATION:4",
        "#EXTM3U\nseg0.ts",
        "#EXTM3U\n#EXTINF:4.0,\nseg0.ts", // missing TARGETDURATION
    ] {
        assert!(
            hls::parse_media(input).is_err(),
            "parse_media accepted malformed input: {input:?}"
        );
    }
}

#[test]
fn hls_master_caps_variant_count() {
    let mut doc = String::from("#EXTM3U\n");
    for i in 0..1_000 {
        doc.push_str(&format!("#EXT-X-STREAM-INF:BANDWIDTH={}\nv{i}.m3u8\n", 100_000 + i));
    }
    match hls::parse_master(&doc) {
        Err(ManifestError::Limit { format: "HLS", what: "variants", .. }) => {}
        other => panic!("expected variant limit error, got {other:?}"),
    }
}

#[test]
fn hls_media_caps_segment_count() {
    let mut doc = String::from("#EXTM3U\n#EXT-X-TARGETDURATION:4\n");
    for i in 0..150_000 {
        doc.push_str(&format!("#EXTINF:4.0,\ns{i}.ts\n"));
    }
    match hls::parse_media(&doc) {
        Err(ManifestError::Limit { format: "HLS", what: "segments", .. }) => {}
        other => panic!("expected segment limit error, got {other:?}"),
    }
}

#[test]
fn xml_rejects_deep_nesting_instead_of_overflowing() {
    // 10k nested elements would overflow the recursive-descent parser's
    // stack without the depth cap.
    let mut doc = String::new();
    for _ in 0..10_000 {
        doc.push_str("<a>");
    }
    for _ in 0..10_000 {
        doc.push_str("</a>");
    }
    let err = xml::parse(&doc).expect_err("deep nesting must be rejected");
    assert!(err.message.contains("nesting"), "unexpected error: {err}");
}

#[test]
fn xml_accepts_reasonable_nesting() {
    let mut doc = String::new();
    for _ in 0..30 {
        doc.push_str("<a>");
    }
    for _ in 0..30 {
        doc.push_str("</a>");
    }
    assert!(xml::parse(&doc).is_ok());
}

#[test]
fn xml_rejects_structural_garbage() {
    for input in [
        "",
        "<",
        "<a",
        "<a><b></a></b>",
        "<a attr=unquoted></a>",
        "<a>&bogus;</a>",
        "<a></a><b></b>",
        "<a>\u{0000}</a><",
    ] {
        assert!(xml::parse(input).is_err(), "xml accepted malformed input: {input:?}");
    }
}

#[test]
fn dash_rejects_garbage_without_panicking() {
    for input in [
        "",
        "<NotMPD></NotMPD>",
        "<MPD></MPD>", // no Period
        "<MPD mediaPresentationDuration=\"broken\"><Period/></MPD>",
        "<MPD mediaPresentationDuration=\"PT1H2X\"><Period/></MPD>",
        "<MPD><Period><AdaptationSet mimeType=\"video/mp4\">\
         <SegmentTemplate timescale=\"0\" duration=\"4\"/>\
         </AdaptationSet></Period></MPD>",
        "<MPD><Period><AdaptationSet mimeType=\"video/mp4\">\
         <SegmentTemplate timescale=\"1\" duration=\"4\"/>\
         <Representation width=\"640\"/>\
         </AdaptationSet></Period></MPD>", // Representation without bandwidth
    ] {
        assert!(dash::parse_mpd(input).is_err(), "dash accepted malformed input: {input:?}");
    }
}

#[test]
fn dash_caps_representation_count() {
    let mut doc = String::from(
        "<MPD><Period><AdaptationSet mimeType=\"video/mp4\">\
         <SegmentTemplate timescale=\"1\" duration=\"4\" media=\"v/chunk-$Number$.m4s\"/>",
    );
    for i in 0..1_000 {
        doc.push_str(&format!("<Representation bandwidth=\"{}\"/>", 100_000 + i));
    }
    doc.push_str("</AdaptationSet></Period></MPD>");
    match dash::parse_mpd(&doc) {
        Err(ManifestError::Limit { format: "MPD", what: "representations", .. }) => {}
        other => panic!("expected representation limit error, got {other:?}"),
    }
}

#[test]
fn mss_rejects_garbage_without_panicking() {
    for input in [
        "",
        "<Wrong/>",
        "<SmoothStreamingMedia><StreamIndex Type=\"video\">\
         <QualityLevel MaxWidth=\"640\"/>\
         </StreamIndex></SmoothStreamingMedia>", // QualityLevel without Bitrate
    ] {
        assert!(
            mss::parse_manifest(input, "https://cdn.example.net/x.ism").is_err(),
            "mss accepted malformed input: {input:?}"
        );
    }
}

#[test]
fn mss_caps_quality_level_count() {
    let mut doc = String::from(
        "<SmoothStreamingMedia Duration=\"40000000\">\
         <StreamIndex Type=\"video\" Name=\"v\" ChunkDuration=\"40000000\">",
    );
    for i in 0..1_000 {
        doc.push_str(&format!("<QualityLevel Bitrate=\"{}\"/>", 100_000 + i));
    }
    doc.push_str("</StreamIndex></SmoothStreamingMedia>");
    match mss::parse_manifest(&doc, "https://cdn.example.net/x.ism") {
        Err(ManifestError::Limit { format: "MSS", what: "quality levels", .. }) => {}
        other => panic!("expected quality-level limit error, got {other:?}"),
    }
}

/// `4_294_967_297_000` bps is `u32::MAX + 2` kbps: a truncating cast reads
/// it as a 1 kbps rung.
const HUGE_BPS: u64 = 4_294_967_297_000;

#[test]
fn hls_rejects_a_bandwidth_beyond_u32_kbps() {
    let doc = format!("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH={HUGE_BPS}\nv.m3u8\n");
    match hls::parse_master(&doc) {
        Err(ManifestError::OutOfRange { format: "HLS", attribute: "BANDWIDTH", value }) => {
            assert_eq!(value, HUGE_BPS);
        }
        other => panic!("expected an out-of-range BANDWIDTH, got {other:?}"),
    }
}

#[test]
fn dash_rejects_a_bandwidth_beyond_u32_kbps() {
    let mpd = |video: u64, audio: u64| {
        format!(
            "<MPD><Period><BaseURL>https://cdn.example.net/v/</BaseURL>\
             <AdaptationSet mimeType=\"video/mp4\">\
             <SegmentTemplate timescale=\"1\" duration=\"4\" media=\"v/chunk-$Number$.m4s\"/>\
             <Representation bandwidth=\"{video}\"/></AdaptationSet>\
             <AdaptationSet mimeType=\"audio/mp4\"><Representation bandwidth=\"{audio}\"/>\
             </AdaptationSet></Period></MPD>"
        )
    };
    assert!(dash::parse_mpd(&mpd(1_000_000, 128_000)).is_ok());
    for doc in [mpd(HUGE_BPS, 128_000), mpd(1_000_000, HUGE_BPS)] {
        match dash::parse_mpd(&doc) {
            Err(ManifestError::OutOfRange { format: "MPD", attribute: "bandwidth", value }) => {
                assert_eq!(value, HUGE_BPS);
            }
            other => panic!("expected an out-of-range bandwidth, got {other:?}"),
        }
    }
}

#[test]
fn mss_rejects_a_bitrate_beyond_u32_kbps() {
    let ism = |video: u64, audio: u64| {
        format!(
            "<SmoothStreamingMedia Duration=\"40000000\">\
             <StreamIndex Type=\"video\" Name=\"v\" ChunkDuration=\"40000000\">\
             <QualityLevel Bitrate=\"{video}\"/></StreamIndex>\
             <StreamIndex Type=\"audio\"><QualityLevel Bitrate=\"{audio}\"/></StreamIndex>\
             </SmoothStreamingMedia>"
        )
    };
    let base = "https://cdn.example.net/x.ism";
    assert!(mss::parse_manifest(&ism(1_000_000, 128_000), base).is_ok());
    for doc in [ism(HUGE_BPS, 128_000), ism(1_000_000, HUGE_BPS)] {
        match mss::parse_manifest(&doc, base) {
            Err(ManifestError::OutOfRange { format: "MSS", attribute: "Bitrate", value }) => {
                assert_eq!(value, HUGE_BPS);
            }
            other => panic!("expected an out-of-range Bitrate, got {other:?}"),
        }
    }
}

#[test]
fn limit_error_display_is_informative() {
    let e = ManifestError::Limit { format: "HLS", what: "variants", limit: 512 };
    assert_eq!(e.to_string(), "HLS input exceeds variants limit of 512");
}
