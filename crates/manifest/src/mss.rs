//! Microsoft SmoothStreaming client manifests.
//!
//! A SmoothStreaming presentation is addressed as `.../name.ism/manifest`
//! (see Table 1) and described by a `<SmoothStreamingMedia>` document with
//! one `<StreamIndex>` per media type and one `<QualityLevel>` per encoding.
//! Durations are expressed in 100-nanosecond ticks (`TimeScale` defaults to
//! 10,000,000).

use crate::types::{ManifestError, MediaPresentation, PresentationBuilder};
use crate::xml::{parse as parse_xml, Element};
use vmp_core::ladder::{BitrateLadder, LadderRung, Resolution};
use vmp_core::protocol::Codec;
use vmp_core::units::Seconds;

/// Default SmoothStreaming timescale: 100-ns ticks.
const TICKS_PER_SECOND: f64 = 10_000_000.0;

/// Cap on `<QualityLevel>` entries per video stream; beyond this the input
/// is malformed and the parser errors instead of allocating per element.
const MAX_QUALITY_LEVELS: usize = 512;

/// Renders the client manifest for a presentation.
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

/// Parses a client manifest back into a [`MediaPresentation`].
///
/// The base URL is not part of a SmoothStreaming manifest (clients derive it
/// from the manifest URL), so the caller supplies it.
pub fn parse_manifest(input: &str, base_url: &str) -> Result<MediaPresentation, ManifestError> {
    let root =
        parse_xml(input).map_err(|e| ManifestError::parse("MSS", 0, e.to_string()))?;
    if root.name != "SmoothStreamingMedia" {
        return Err(ManifestError::parse("MSS", 0, format!("root is <{}>", root.name)));
    }
    let is_live = root
        .get_attr("IsLive")
        .map(|v| v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let duration_ticks: f64 = root.parse_attr("Duration").unwrap_or(0.0);

    let mut rungs = Vec::new();
    let mut audio_bitrates = Vec::new();
    let mut chunk_duration = None;
    let mut content_token = String::new();

    for stream in root.find_all("StreamIndex") {
        match stream.get_attr("Type") {
            Some("video") => {
                content_token = stream.get_attr("Name").unwrap_or_default().to_string();
                if let Some(ticks) = stream.parse_attr::<f64>("ChunkDuration") {
                    chunk_duration = Some(Seconds(ticks / TICKS_PER_SECOND));
                }
                for level in stream.find_all("QualityLevel") {
                    let bitrate: u64 = level.parse_attr("Bitrate").ok_or_else(|| {
                        ManifestError::parse("MSS", 0, "QualityLevel without Bitrate")
                    })?;
                    let width: u32 = level.parse_attr("MaxWidth").unwrap_or(0);
                    let height: u32 = level.parse_attr("MaxHeight").unwrap_or(0);
                    let codec = match level.get_attr("FourCC") {
                        Some("HVC1") => Codec::H265,
                        _ => Codec::H264,
                    };
                    if rungs.len() >= MAX_QUALITY_LEVELS {
                        return Err(ManifestError::limit(
                            "MSS",
                            "quality levels",
                            MAX_QUALITY_LEVELS,
                        ));
                    }
                    rungs.push(LadderRung {
                        bitrate: ManifestError::kbps("MSS", "Bitrate", bitrate)?,
                        resolution: Resolution { width, height },
                        codec,
                    });
                }
            }
            Some("audio") => {
                for level in stream.find_all("QualityLevel") {
                    if let Some(bitrate) = level.parse_attr::<u64>("Bitrate") {
                        audio_bitrates.push(ManifestError::kbps("MSS", "Bitrate", bitrate)?);
                    }
                }
            }
            _ => {}
        }
    }

    let ladder =
        BitrateLadder::new(rungs).map_err(|e| ManifestError::parse("MSS", 0, e.to_string()))?;
    let chunk_duration = chunk_duration
        .ok_or_else(|| ManifestError::parse("MSS", 0, "video StreamIndex without ChunkDuration"))?;

    let mut builder = PresentationBuilder::new(content_token, ladder)
        .audio(audio_bitrates)
        .chunk_duration(chunk_duration)
        .base_url(base_url);
    if !is_live {
        builder = builder.vod(Seconds(duration_ticks / TICKS_PER_SECOND));
    }
    builder.build()
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
    use vmp_core::units::Kbps;

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
    fn manifest_round_trip() {
        let p = presentation();
        let text = write_manifest(&p);
        let back = parse_manifest(&text, &p.base_url).unwrap();
        assert_eq!(back.content_token, p.content_token);
        assert_eq!(back.ladder.bitrates(), p.ladder.bitrates());
        assert_eq!(back.audio_bitrates, p.audio_bitrates);
        assert!((back.chunk_duration.0 - 2.0).abs() < 1e-9);
        assert!((back.total_duration.unwrap().0 - 600.0).abs() < 1e-6);
    }

    #[test]
    fn live_manifest_round_trip() {
        let p = PresentationBuilder::new("ev1", BitrateLadder::from_bitrates(&[900]).unwrap())
            .chunk_duration(Seconds(2.0))
            .build()
            .unwrap();
        let text = write_manifest(&p);
        assert!(text.contains("IsLive=\"TRUE\""));
        let back = parse_manifest(&text, "https://h/p").unwrap();
        assert!(back.is_live());
    }

    #[test]
    fn chunk_count_is_advertised() {
        let p = presentation();
        let text = write_manifest(&p);
        // 600s / 2s = 300 chunks.
        assert!(text.contains("Chunks=\"300\""));
    }

    #[test]
    fn rejects_malformed_manifests() {
        assert!(parse_manifest("<Wrong/>", "b").is_err());
        assert!(parse_manifest("garbage", "b").is_err());
        let no_chunk_duration = "<SmoothStreamingMedia Duration=\"100\">\
             <StreamIndex Type=\"video\" Name=\"x\">\
             <QualityLevel Bitrate=\"1000000\"/></StreamIndex></SmoothStreamingMedia>";
        assert!(parse_manifest(no_chunk_duration, "b").is_err());
        let no_bitrate = "<SmoothStreamingMedia Duration=\"100\">\
             <StreamIndex Type=\"video\" Name=\"x\" ChunkDuration=\"20000000\">\
             <QualityLevel Index=\"0\"/></StreamIndex></SmoothStreamingMedia>";
        assert!(parse_manifest(no_bitrate, "b").is_err());
    }
}
