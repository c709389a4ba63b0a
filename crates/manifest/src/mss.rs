//! Microsoft SmoothStreaming client manifests.
//!
//! A SmoothStreaming presentation is addressed as `.../name.ism/manifest`
//! (see Table 1) and described by a `<SmoothStreamingMedia>` document with
//! one `<StreamIndex>` per media type and one `<QualityLevel>` per encoding.
//! Durations are expressed in 100-nanosecond ticks (`TimeScale` defaults to
//! 10,000,000).

use crate::types::MediaPresentation;
use crate::xml::Element;
use vmp_core::protocol::Codec;

/// Default SmoothStreaming timescale: 100-ns ticks.
const TICKS_PER_SECOND: f64 = 10_000_000.0;

/// Renders the client manifest for a presentation.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "non-negative tick counts; `as` saturates"
)]
pub fn write_manifest(p: &MediaPresentation) -> String {
    let mut root = Element::new("SmoothStreamingMedia")
        .attr("MajorVersion", "2")
        .attr("MinorVersion", "2")
        .attr("TimeScale", "10000000");
    match p.total_duration {
        Some(total) => {
            root = root.attr("Duration", ((total.0 * TICKS_PER_SECOND) as u64).to_string());
        }
        None => {
            root = root.attr("Duration", "0").attr("IsLive", "TRUE");
        }
    }

    let chunk_ticks = (p.chunk_duration.0 * TICKS_PER_SECOND) as u64;
    let mut video = Element::new("StreamIndex")
        .attr("Type", "video")
        .attr("Name", p.content_token.clone())
        .attr("Chunks", p.chunk_count().unwrap_or(0).to_string())
        .attr("TimeScale", "10000000")
        .attr(
            "Url",
            format!("QualityLevels({{bitrate}})/Fragments({},time={{start time}})", p.content_token),
        )
        .attr("ChunkDuration", chunk_ticks.to_string());
    for (i, rung) in p.ladder.rungs().iter().enumerate() {
        video = video.child(
            Element::new("QualityLevel")
                .attr("Index", i.to_string())
                .attr("Bitrate", (rung.bitrate.0 as u64 * 1000).to_string())
                .attr("MaxWidth", rung.resolution.width.to_string())
                .attr("MaxHeight", rung.resolution.height.to_string())
                .attr("FourCC", fourcc(rung.codec)),
        );
    }

    let mut audio = Element::new("StreamIndex")
        .attr("Type", "audio")
        .attr("Name", "audio")
        .attr("TimeScale", "10000000");
    for (i, a) in p.audio_bitrates.iter().enumerate() {
        audio = audio.child(
            Element::new("QualityLevel")
                .attr("Index", i.to_string())
                .attr("Bitrate", (a.0 as u64 * 1000).to_string())
                .attr("FourCC", "AACL"),
        );
    }

    root.child(video).child(audio).to_document()
}

/// SmoothStreaming FourCC for a codec.
fn fourcc(codec: Codec) -> &'static str {
    match codec {
        Codec::H264 => "H264",
        Codec::H265 => "HVC1",
        // MSS predates VP9; our packager never emits it (enforced by
        // `StreamingProtocol::supported_codecs`), map defensively.
        Codec::Vp9 => "H264",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{tab1_presentation, PresentationBuilder};
    use vmp_core::ladder::BitrateLadder;
    use vmp_core::units::{Kbps, Seconds};

    fn presentation() -> MediaPresentation {
        PresentationBuilder::new(
            "v56",
            BitrateLadder::from_bitrates(&[300, 600, 1200, 2400]).unwrap(),
        )
        .audio(vec![Kbps(128)])
        .chunk_duration(Seconds(2.0))
        .vod(Seconds(600.0))
        .base_url("https://cache.cdn-c.example.net/p7")
        .build()
        .unwrap()
    }

    #[test]
    fn chunk_count_is_advertised() {
        let p = presentation();
        let text = write_manifest(&p);
        // 600s / 2s = 300 chunks.
        assert!(text.contains("Chunks=\"300\""));
    }

    /// The documents Table 1's packager publishes, byte for byte.
    #[test]
    fn write_manifest_output_is_pinned() {
        let vod = r##"<?xml version="1.0" encoding="UTF-8"?>
<SmoothStreamingMedia MajorVersion="2" MinorVersion="2" TimeScale="10000000" Duration="24000000000">
  <StreamIndex Type="video" Name="v009f3c" Chunks="400" TimeScale="10000000" Url="QualityLevels({bitrate})/Fragments(v009f3c,time={start time})" ChunkDuration="60000000">
    <QualityLevel Index="0" Bitrate="400000" MaxWidth="416" MaxHeight="234" FourCC="H264"/>
    <QualityLevel Index="1" Bitrate="1600000" MaxWidth="768" MaxHeight="432" FourCC="H264"/>
    <QualityLevel Index="2" Bitrate="3200000" MaxWidth="1280" MaxHeight="720" FourCC="H264"/>
  </StreamIndex>
  <StreamIndex Type="audio" Name="audio" TimeScale="10000000">
    <QualityLevel Index="0" Bitrate="128000" FourCC="AACL"/>
  </StreamIndex>
</SmoothStreamingMedia>
"##;
        let live = r##"<?xml version="1.0" encoding="UTF-8"?>
<SmoothStreamingMedia MajorVersion="2" MinorVersion="2" TimeScale="10000000" Duration="0" IsLive="TRUE">
  <StreamIndex Type="video" Name="v009f3c" Chunks="0" TimeScale="10000000" Url="QualityLevels({bitrate})/Fragments(v009f3c,time={start time})" ChunkDuration="60000000">
    <QualityLevel Index="0" Bitrate="400000" MaxWidth="416" MaxHeight="234" FourCC="H264"/>
    <QualityLevel Index="1" Bitrate="1600000" MaxWidth="768" MaxHeight="432" FourCC="H264"/>
    <QualityLevel Index="2" Bitrate="3200000" MaxWidth="1280" MaxHeight="720" FourCC="H264"/>
  </StreamIndex>
  <StreamIndex Type="audio" Name="audio" TimeScale="10000000">
    <QualityLevel Index="0" Bitrate="128000" FourCC="AACL"/>
  </StreamIndex>
</SmoothStreamingMedia>
"##;
        assert_eq!(write_manifest(&tab1_presentation(false)), vod);
        assert_eq!(write_manifest(&tab1_presentation(true)), live);
    }
}
