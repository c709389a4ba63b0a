//! MPEG-DASH Media Presentation Descriptions (ISO/IEC 23009-1 subset).
//!
//! The writer emits a static (VoD) or dynamic (live) MPD with one video
//! `AdaptationSet` (one `Representation` per ladder rung, `SegmentTemplate`
//! addressing) and one audio `AdaptationSet`. The parser recovers a
//! [`MediaPresentation`], making DASH the only format with a full
//! presentation-level round trip (DASH manifests carry chunk duration *and*
//! total duration, unlike HLS masters).

use crate::types::{ManifestError, MediaPresentation, PresentationBuilder};
use crate::xml::{parse as parse_xml, Element};
use vmp_core::ladder::{BitrateLadder, LadderRung, Resolution};
use vmp_core::protocol::Codec;
use vmp_core::units::Seconds;

/// Cap on video `Representation` entries; a ladder past this is malformed
/// input, not a plausible encoding decision.
const MAX_REPRESENTATIONS: usize = 512;

/// Renders the MPD document for a presentation.
pub fn write_mpd(p: &MediaPresentation) -> String {
    let mut mpd = Element::new("MPD")
        .attr("xmlns", "urn:mpeg:dash:schema:mpd:2011")
        .attr("profiles", "urn:mpeg:dash:profile:isoff-live:2011")
        .attr(
            "type",
            if p.is_live() { "dynamic" } else { "static" },
        )
        .attr("minBufferTime", "PT2S");
    if let Some(total) = p.total_duration {
        mpd = mpd.attr("mediaPresentationDuration", iso8601_duration(total));
    }

    let timescale = 1000u64;
    let seg_duration_ticks = (p.chunk_duration.0 * timescale as f64).round() as u64;

    let mut video_set = Element::new("AdaptationSet")
        .attr("mimeType", "video/mp4")
        .attr("segmentAlignment", "true");
    video_set = video_set.child(
        Element::new("SegmentTemplate")
            .attr("timescale", timescale.to_string())
            .attr("duration", seg_duration_ticks.to_string())
            .attr("media", format!("{}/v$Bandwidth$/seg-$Number$.m4s", p.content_token))
            .attr("initialization", format!("{}/v$Bandwidth$/init.mp4", p.content_token))
            .attr("startNumber", "0"),
    );
    for rung in p.ladder.rungs() {
        video_set = video_set.child(
            Element::new("Representation")
                .attr("id", format!("v{}", rung.bitrate.0))
                .attr("bandwidth", (rung.bitrate.0 as u64 * 1000).to_string())
                .attr("width", rung.resolution.width.to_string())
                .attr("height", rung.resolution.height.to_string())
                .attr("codecs", rung.codec.rfc6381()),
        );
    }

    let mut audio_set = Element::new("AdaptationSet")
        .attr("mimeType", "audio/mp4")
        .attr("segmentAlignment", "true");
    for a in &p.audio_bitrates {
        audio_set = audio_set.child(
            Element::new("Representation")
                .attr("id", format!("a{}", a.0))
                .attr("bandwidth", (a.0 as u64 * 1000).to_string())
                .attr("codecs", "mp4a.40.2"),
        );
    }

    let period = Element::new("Period")
        .attr("id", "0")
        .child(
            Element::new("BaseURL").with_text(format!("{}/", p.base_url)),
        )
        .child(video_set)
        .child(audio_set);

    mpd.child(period).to_document()
}

/// Parses an MPD document back into a [`MediaPresentation`].
pub fn parse_mpd(input: &str) -> Result<MediaPresentation, ManifestError> {
    let root = parse_xml(input)
        .map_err(|e| ManifestError::parse("MPD", 0, e.to_string()))?;
    if root.name != "MPD" {
        return Err(ManifestError::parse("MPD", 0, format!("root is <{}>", root.name)));
    }
    let total_duration = match root.get_attr("mediaPresentationDuration") {
        Some(text) => Some(parse_iso8601_duration(text)?),
        None => None,
    };
    let period = root
        .find("Period")
        .ok_or_else(|| ManifestError::parse("MPD", 0, "missing <Period>"))?;
    let base_url = period
        .find("BaseURL")
        .map(|e| e.text.trim_end_matches('/').to_string())
        .unwrap_or_default();

    let mut rungs = Vec::new();
    let mut audio_bitrates = Vec::new();
    let mut chunk_duration = None;
    let mut content_token = String::new();

    for set in period.find_all("AdaptationSet") {
        let mime = set.get_attr("mimeType").unwrap_or_default();
        if mime.starts_with("video") {
            if let Some(template) = set.find("SegmentTemplate") {
                let timescale: f64 = template.parse_attr("timescale").unwrap_or(1.0);
                let duration: f64 = template
                    .parse_attr("duration")
                    .ok_or_else(|| ManifestError::parse("MPD", 0, "SegmentTemplate without duration"))?;
                if timescale <= 0.0 {
                    return Err(ManifestError::parse("MPD", 0, "non-positive timescale"));
                }
                chunk_duration = Some(Seconds(duration / timescale));
                if let Some(media) = template.get_attr("media") {
                    if let Some(slash) = media.find('/') {
                        content_token = media[..slash].to_string();
                    }
                }
            }
            for rep in set.find_all("Representation") {
                let bandwidth: u64 = rep.parse_attr("bandwidth").ok_or_else(|| {
                    ManifestError::parse("MPD", 0, "Representation without bandwidth")
                })?;
                let width: u32 = rep.parse_attr("width").unwrap_or(0);
                let height: u32 = rep.parse_attr("height").unwrap_or(0);
                let codec = match rep.get_attr("codecs") {
                    Some(c) if c.starts_with("avc1") => Codec::H264,
                    Some(c) if c.starts_with("hvc1") || c.starts_with("hev1") => Codec::H265,
                    Some(c) if c.starts_with("vp09") => Codec::Vp9,
                    _ => Codec::H264,
                };
                if rungs.len() >= MAX_REPRESENTATIONS {
                    return Err(ManifestError::limit("MPD", "representations", MAX_REPRESENTATIONS));
                }
                rungs.push(LadderRung {
                    bitrate: ManifestError::kbps("MPD", "bandwidth", bandwidth)?,
                    resolution: Resolution { width, height },
                    codec,
                });
            }
        } else if mime.starts_with("audio") {
            for rep in set.find_all("Representation") {
                if let Some(bandwidth) = rep.parse_attr::<u64>("bandwidth") {
                    audio_bitrates.push(ManifestError::kbps("MPD", "bandwidth", bandwidth)?);
                }
            }
        }
    }

    let ladder = BitrateLadder::new(rungs)
        .map_err(|e| ManifestError::parse("MPD", 0, e.to_string()))?;
    let chunk_duration =
        chunk_duration.ok_or_else(|| ManifestError::parse("MPD", 0, "no video SegmentTemplate"))?;

    let mut builder = PresentationBuilder::new(content_token, ladder)
        .audio(audio_bitrates)
        .chunk_duration(chunk_duration)
        .base_url(base_url);
    if let Some(total) = total_duration {
        builder = builder.vod(total);
    }
    builder.build()
}

/// Formats a duration as ISO-8601 (`PT1H2M3.500S`).
fn iso8601_duration(d: Seconds) -> String {
    let total = d.0.max(0.0);
    let hours = (total / 3600.0).floor() as u64;
    let minutes = ((total - hours as f64 * 3600.0) / 60.0).floor() as u64;
    let seconds = total - hours as f64 * 3600.0 - minutes as f64 * 60.0;
    let mut out = String::from("PT");
    if hours > 0 {
        out.push_str(&format!("{hours}H"));
    }
    if minutes > 0 {
        out.push_str(&format!("{minutes}M"));
    }
    out.push_str(&format!("{seconds:.3}S"));
    out
}

/// Parses an ISO-8601 duration of the `PT..H..M..S` form.
fn parse_iso8601_duration(text: &str) -> Result<Seconds, ManifestError> {
    let body = text
        .strip_prefix("PT")
        .ok_or_else(|| ManifestError::parse("MPD", 0, format!("bad duration {text}")))?;
    let mut total = 0.0f64;
    let mut number = String::new();
    for c in body.chars() {
        match c {
            '0'..='9' | '.' => number.push(c),
            'H' | 'M' | 'S' => {
                let value: f64 = number
                    .parse()
                    .map_err(|_| ManifestError::parse("MPD", 0, format!("bad duration {text}")))?;
                total += match c {
                    'H' => value * 3600.0,
                    'M' => value * 60.0,
                    _ => value,
                };
                number.clear();
            }
            other => {
                return Err(ManifestError::parse(
                    "MPD",
                    0,
                    format!("unexpected '{other}' in duration {text}"),
                ))
            }
        }
    }
    if !number.is_empty() {
        return Err(ManifestError::parse("MPD", 0, format!("bad duration {text}")));
    }
    Ok(Seconds(total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::units::Kbps;

    fn presentation() -> MediaPresentation {
        PresentationBuilder::new(
            "v9f3c",
            BitrateLadder::from_bitrates(&[400, 800, 1600, 3200, 6500]).unwrap(),
        )
        .audio(vec![Kbps(96)])
        .chunk_duration(Seconds(4.0))
        .vod(Seconds(3723.5))
        .base_url("https://media.cdn-b.example.net/p0042")
        .build()
        .unwrap()
    }

    #[test]
    fn mpd_round_trip_is_lossless() {
        let p = presentation();
        let text = write_mpd(&p);
        let back = parse_mpd(&text).unwrap();
        assert_eq!(back.content_token, p.content_token);
        assert_eq!(back.ladder, p.ladder);
        assert_eq!(back.audio_bitrates, p.audio_bitrates);
        assert!((back.chunk_duration.0 - p.chunk_duration.0).abs() < 1e-9);
        assert!(
            (back.total_duration.unwrap().0 - p.total_duration.unwrap().0).abs() < 1e-3
        );
        assert_eq!(back.base_url, p.base_url);
    }

    #[test]
    fn live_mpd_is_dynamic() {
        let p = PresentationBuilder::new("live1", BitrateLadder::from_bitrates(&[1200]).unwrap())
            .chunk_duration(Seconds(2.0))
            .build()
            .unwrap();
        let text = write_mpd(&p);
        assert!(text.contains("type=\"dynamic\""));
        let back = parse_mpd(&text).unwrap();
        assert!(back.is_live());
    }

    #[test]
    fn iso_durations() {
        assert_eq!(iso8601_duration(Seconds(3723.5)), "PT1H2M3.500S");
        assert_eq!(iso8601_duration(Seconds(59.0)), "PT59.000S");
        assert!((parse_iso8601_duration("PT1H2M3.500S").unwrap().0 - 3723.5).abs() < 1e-9);
        assert!((parse_iso8601_duration("PT90S").unwrap().0 - 90.0).abs() < 1e-9);
        assert!((parse_iso8601_duration("PT2M").unwrap().0 - 120.0).abs() < 1e-9);
        assert!(parse_iso8601_duration("1H").is_err());
        assert!(parse_iso8601_duration("PT5X").is_err());
        assert!(parse_iso8601_duration("PT5").is_err());
    }

    #[test]
    fn codecs_round_trip() {
        let ladder = BitrateLadder::new(vec![
            LadderRung { bitrate: Kbps(1000), resolution: Resolution::for_bitrate(Kbps(1000)), codec: Codec::H264 },
            LadderRung { bitrate: Kbps(2000), resolution: Resolution::for_bitrate(Kbps(2000)), codec: Codec::Vp9 },
            LadderRung { bitrate: Kbps(4000), resolution: Resolution::for_bitrate(Kbps(4000)), codec: Codec::H265 },
        ])
        .unwrap();
        let p = PresentationBuilder::new("v1", ladder.clone())
            .vod(Seconds(60.0))
            .build()
            .unwrap();
        let back = parse_mpd(&write_mpd(&p)).unwrap();
        assert_eq!(back.ladder, ladder);
    }

    #[test]
    fn rejects_malformed_mpds() {
        assert!(parse_mpd("<NotMpd/>").is_err());
        assert!(parse_mpd("<MPD type=\"static\"/>").is_err()); // no Period
        assert!(parse_mpd("not xml").is_err());
        // Representation without bandwidth.
        let bad = "<MPD><Period><AdaptationSet mimeType=\"video/mp4\">\
                   <SegmentTemplate timescale=\"1000\" duration=\"4000\"/>\
                   <Representation id=\"x\"/></AdaptationSet></Period></MPD>";
        assert!(parse_mpd(bad).is_err());
    }
}
