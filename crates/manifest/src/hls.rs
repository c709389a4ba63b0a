//! Apple HTTP Live Streaming playlists (RFC 8216 subset).
//!
//! The packager publishes a *master playlist* advertising one variant stream
//! per ladder rung plus audio renditions, and one *media playlist* per rung
//! listing the segments. Both directions (write and parse) are implemented
//! and round-trip tested; the parser is also exercised with malformed inputs
//! because failure triaging (§5) explicitly includes manifest errors.

use crate::types::{ManifestError, MediaPresentation};
use vmp_core::ladder::{LadderRung, Resolution};
use vmp_core::protocol::Codec;
use vmp_core::units::{Kbps, Seconds};

/// Cap on variant streams in a master playlist. Real ladders top out at a
/// couple dozen rungs; past this, the input is malformed or hostile and the
/// parser returns [`ManifestError::Limit`] instead of allocating per line.
const MAX_VARIANTS: usize = 512;

/// Cap on segments in a media playlist (a 4-second cadence for over four
/// days of continuous media).
const MAX_SEGMENTS: usize = 100_000;

/// A variant stream entry in a master playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Peak bandwidth in bits/s (`BANDWIDTH`).
    pub bandwidth: u64,
    /// Frame size (`RESOLUTION`), if declared.
    pub resolution: Option<Resolution>,
    /// Codec string (`CODECS`), if declared.
    pub codecs: Option<String>,
    /// Media playlist URI.
    pub uri: String,
}

impl Variant {
    /// Video bitrate implied by the `BANDWIDTH` attribute (which in our
    /// packager is video bitrate plus the top audio rendition).
    /// [`parse_master`] rejects a bandwidth above `u32::MAX` kbps; a
    /// variant built by hand with one saturates instead of wrapping.
    pub fn video_bitrate(&self, audio: Kbps) -> Kbps {
        let total = u32::try_from(self.bandwidth / 1000).unwrap_or(u32::MAX);
        Kbps(total.saturating_sub(audio.0))
    }

    /// Codec enum parsed from the `CODECS` string.
    pub fn codec(&self) -> Option<Codec> {
        let c = self.codecs.as_deref()?;
        if c.starts_with("avc1") {
            Some(Codec::H264)
        } else if c.starts_with("hvc1") || c.starts_with("hev1") {
            Some(Codec::H265)
        } else if c.starts_with("vp09") {
            Some(Codec::Vp9)
        } else {
            None
        }
    }
}

/// An audio rendition (`EXT-X-MEDIA:TYPE=AUDIO`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AudioRendition {
    /// Rendition group id.
    pub group_id: String,
    /// Human name; our packager encodes the bitrate here (`audio-128`).
    pub name: String,
    /// Media playlist URI.
    pub uri: String,
}

impl AudioRendition {
    /// Bitrate recovered from the `audio-<kbps>` naming convention.
    pub fn bitrate(&self) -> Option<Kbps> {
        self.name.strip_prefix("audio-")?.parse().ok().map(Kbps)
    }
}

/// A parsed master playlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterPlaylist {
    /// `EXT-X-VERSION` value.
    pub version: u32,
    /// Variant streams in document order.
    pub variants: Vec<Variant>,
    /// Audio renditions.
    pub audio: Vec<AudioRendition>,
}

/// One media segment in a media playlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Segment duration.
    pub duration: Seconds,
    /// Segment URI.
    pub uri: String,
}

/// A parsed media playlist.
#[derive(Debug, Clone, PartialEq)]
pub struct MediaPlaylist {
    /// `EXT-X-VERSION` value.
    pub version: u32,
    /// `EXT-X-TARGETDURATION` value (whole seconds).
    pub target_duration: u32,
    /// `EXT-X-PLAYLIST-TYPE` (VOD/EVENT), if present.
    pub playlist_type: Option<String>,
    /// `EXT-X-MEDIA-SEQUENCE` value: the media sequence number of the first
    /// segment listed. A live playlist advances this as old segments slide
    /// out of the window (RFC 8216 §4.3.3.2); VoD playlists keep it at 0.
    pub media_sequence: u64,
    /// Segments in order.
    pub segments: Vec<Segment>,
    /// Whether `EXT-X-ENDLIST` was present (VoD complete).
    pub ended: bool,
}

impl MediaPlaylist {
    /// Total media duration of all segments.
    pub fn total_duration(&self) -> Seconds {
        self.segments.iter().map(|s| s.duration).sum()
    }
}

/// Renders the master playlist for a presentation.
pub fn write_master(p: &MediaPresentation) -> String {
    let top_audio = p.audio_bitrates.iter().copied().max().unwrap_or(Kbps(0));
    let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:6\n");
    out.push_str("#EXT-X-INDEPENDENT-SEGMENTS\n");
    for a in &p.audio_bitrates {
        out.push_str(&format!(
            "#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID=\"aud\",NAME=\"audio-{}\",DEFAULT=YES,URI=\"{}/audio-{}/playlist.m3u8\"\n",
            a.0, p.content_token, a.0
        ));
    }
    for rung in p.ladder.rungs() {
        let bandwidth = (rung.bitrate.0 as u64 + top_audio.0 as u64) * 1000;
        out.push_str(&format!(
            "#EXT-X-STREAM-INF:BANDWIDTH={},RESOLUTION={}x{},CODECS=\"{},mp4a.40.2\",AUDIO=\"aud\"\n",
            bandwidth, rung.resolution.width, rung.resolution.height, rung.codec.rfc6381()
        ));
        out.push_str(&format!("{}/v{}/playlist.m3u8\n", p.content_token, rung.bitrate.0));
    }
    out
}

/// Renders the media playlist for one rung of a presentation.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "non-negative chunk counts and target durations; `as` saturates"
)]
pub fn write_media(p: &MediaPresentation, rung: &LadderRung) -> String {
    let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:6\n");
    let target = p.chunk_duration.0.ceil().max(1.0) as u32;
    out.push_str(&format!("#EXT-X-TARGETDURATION:{target}\n"));
    out.push_str("#EXT-X-MEDIA-SEQUENCE:0\n");
    match p.total_duration {
        Some(total) => {
            out.push_str("#EXT-X-PLAYLIST-TYPE:VOD\n");
            let full_chunks = (total.0 / p.chunk_duration.0).floor() as u64;
            let tail = total.0 - full_chunks as f64 * p.chunk_duration.0;
            for i in 0..full_chunks {
                out.push_str(&format!("#EXTINF:{:.3},\n", p.chunk_duration.0));
                out.push_str(&format!(
                    "{}/v{}/seg-{:05}.ts\n",
                    p.content_token, rung.bitrate.0, i
                ));
            }
            if tail > 1e-9 {
                out.push_str(&format!("#EXTINF:{tail:.3},\n"));
                out.push_str(&format!(
                    "{}/v{}/seg-{:05}.ts\n",
                    p.content_token, rung.bitrate.0, full_chunks
                ));
            }
            out.push_str("#EXT-X-ENDLIST\n");
        }
        None => {
            // Live window: advertise the last three chunks.
            for i in 0..3 {
                out.push_str(&format!("#EXTINF:{:.3},\n", p.chunk_duration.0));
                out.push_str(&format!(
                    "{}/v{}/live-{:05}.ts\n",
                    p.content_token, rung.bitrate.0, i
                ));
            }
        }
    }
    out
}

/// Renders a *sliding-window* live media playlist for one rung: the
/// `window` most recent segments, with `#EXT-X-MEDIA-SEQUENCE` advanced to
/// the sequence number of the oldest segment still advertised and no
/// `#EXT-X-ENDLIST` (the event is ongoing). Re-rendering one chunk
/// duration later yields the same playlist shifted by one segment with the
/// media sequence incremented — the refresh cadence a live player polls at.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a target duration of at least 1 s; `as` saturates"
)]
pub fn write_live_media(
    p: &MediaPresentation,
    rung: &LadderRung,
    media_sequence: u64,
    window: usize,
) -> String {
    let mut out = String::from("#EXTM3U\n#EXT-X-VERSION:6\n");
    let target = p.chunk_duration.0.ceil().max(1.0) as u32;
    out.push_str(&format!("#EXT-X-TARGETDURATION:{target}\n"));
    out.push_str(&format!("#EXT-X-MEDIA-SEQUENCE:{media_sequence}\n"));
    for i in 0..window.max(1) as u64 {
        out.push_str(&format!("#EXTINF:{:.3},\n", p.chunk_duration.0));
        out.push_str(&format!(
            "{}/v{}/live-{:05}.ts\n",
            p.content_token,
            rung.bitrate.0,
            media_sequence + i
        ));
    }
    out
}

/// Parses a master playlist.
pub fn parse_master(input: &str) -> Result<MasterPlaylist, ManifestError> {
    let mut lines = input.lines().enumerate();
    match lines.next() {
        Some((_, "#EXTM3U")) => {}
        _ => return Err(ManifestError::parse("HLS", 1, "missing #EXTM3U header")),
    }
    let mut version = 1;
    let mut variants = Vec::new();
    let mut audio = Vec::new();
    let mut pending: Option<(u64, Option<Resolution>, Option<String>)> = None;
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(v) = line.strip_prefix("#EXT-X-VERSION:") {
            version = v
                .parse()
                .map_err(|_| ManifestError::parse("HLS", lineno, "bad version"))?;
        } else if let Some(attrs) = line.strip_prefix("#EXT-X-STREAM-INF:") {
            let attrs = parse_attributes(attrs, lineno)?;
            let bandwidth = attrs
                .iter()
                .find(|(k, _)| k == "BANDWIDTH")
                .and_then(|(_, v)| v.parse().ok())
                .ok_or_else(|| {
                    ManifestError::parse("HLS", lineno, "STREAM-INF missing BANDWIDTH")
                })?;
            ManifestError::kbps("HLS", "BANDWIDTH", bandwidth)?;
            let resolution = attrs.iter().find(|(k, _)| k == "RESOLUTION").and_then(|(_, v)| {
                let (w, h) = v.split_once('x')?;
                Some(Resolution { width: w.parse().ok()?, height: h.parse().ok()? })
            });
            let codecs = attrs
                .iter()
                .find(|(k, _)| k == "CODECS")
                .map(|(_, v)| v.clone());
            pending = Some((bandwidth, resolution, codecs));
        } else if let Some(attrs) = line.strip_prefix("#EXT-X-MEDIA:") {
            let attrs = parse_attributes(attrs, lineno)?;
            let is_audio = attrs.iter().any(|(k, v)| k == "TYPE" && v == "AUDIO");
            if is_audio {
                let get = |key: &str| {
                    attrs
                        .iter()
                        .find(|(k, _)| k == key)
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default()
                };
                audio.push(AudioRendition {
                    group_id: get("GROUP-ID"),
                    name: get("NAME"),
                    uri: get("URI"),
                });
            }
        } else if line.starts_with('#') {
            // Unknown tag: ignore (HLS parsers must skip unrecognized tags).
        } else {
            // A URI line closes a pending STREAM-INF.
            let (bandwidth, resolution, codecs) = pending.take().ok_or_else(|| {
                ManifestError::parse("HLS", lineno, "URI without preceding STREAM-INF")
            })?;
            if variants.len() >= MAX_VARIANTS {
                return Err(ManifestError::limit("HLS", "variants", MAX_VARIANTS));
            }
            variants.push(Variant { bandwidth, resolution, codecs, uri: line.to_string() });
        }
    }
    if pending.is_some() {
        return Err(ManifestError::parse("HLS", 0, "STREAM-INF without URI"));
    }
    if variants.is_empty() {
        return Err(ManifestError::parse("HLS", 0, "no variant streams"));
    }
    Ok(MasterPlaylist { version, variants, audio })
}

/// Parses a media playlist.
pub fn parse_media(input: &str) -> Result<MediaPlaylist, ManifestError> {
    let mut lines = input.lines().enumerate();
    match lines.next() {
        Some((_, "#EXTM3U")) => {}
        _ => return Err(ManifestError::parse("HLS", 1, "missing #EXTM3U header")),
    }
    let mut version = 1;
    let mut target_duration = None;
    let mut playlist_type = None;
    let mut media_sequence = 0u64;
    let mut segments = Vec::new();
    let mut ended = false;
    let mut pending: Option<Seconds> = None;
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(v) = line.strip_prefix("#EXT-X-VERSION:") {
            version = v
                .parse()
                .map_err(|_| ManifestError::parse("HLS", lineno, "bad version"))?;
        } else if let Some(v) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
            target_duration = Some(
                v.parse()
                    .map_err(|_| ManifestError::parse("HLS", lineno, "bad target duration"))?,
            );
        } else if let Some(v) = line.strip_prefix("#EXT-X-PLAYLIST-TYPE:") {
            playlist_type = Some(v.to_string());
        } else if let Some(v) = line.strip_prefix("#EXT-X-MEDIA-SEQUENCE:") {
            media_sequence = v
                .parse()
                .map_err(|_| ManifestError::parse("HLS", lineno, "bad media sequence"))?;
        } else if let Some(v) = line.strip_prefix("#EXTINF:") {
            let duration_text = v.split(',').next().unwrap_or_default();
            let duration: f64 = duration_text
                .parse()
                .map_err(|_| ManifestError::parse("HLS", lineno, "bad EXTINF duration"))?;
            if duration < 0.0 {
                return Err(ManifestError::parse("HLS", lineno, "negative EXTINF duration"));
            }
            pending = Some(Seconds(duration));
        } else if line == "#EXT-X-ENDLIST" {
            ended = true;
        } else if line.starts_with('#') {
            // Ignore unknown tags.
        } else {
            let duration = pending.take().ok_or_else(|| {
                ManifestError::parse("HLS", lineno, "segment URI without EXTINF")
            })?;
            if segments.len() >= MAX_SEGMENTS {
                return Err(ManifestError::limit("HLS", "segments", MAX_SEGMENTS));
            }
            segments.push(Segment { duration, uri: line.to_string() });
        }
    }
    let target_duration = target_duration
        .ok_or_else(|| ManifestError::parse("HLS", 0, "missing EXT-X-TARGETDURATION"))?;
    Ok(MediaPlaylist { version, target_duration, playlist_type, media_sequence, segments, ended })
}

/// Parses an HLS attribute list: comma-separated KEY=VALUE pairs where
/// values may be quoted strings containing commas.
fn parse_attributes(
    input: &str,
    lineno: usize,
) -> Result<Vec<(String, String)>, ManifestError> {
    let mut out = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| ManifestError::parse("HLS", lineno, "attribute without '='"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        let value;
        if let Some(stripped) = rest.strip_prefix('"') {
            let close = stripped
                .find('"')
                .ok_or_else(|| ManifestError::parse("HLS", lineno, "unterminated quote"))?;
            value = stripped[..close].to_string();
            rest = &stripped[close + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest);
        } else {
            match rest.find(',') {
                Some(comma) => {
                    value = rest[..comma].to_string();
                    rest = &rest[comma + 1..];
                }
                None => {
                    value = rest.to_string();
                    rest = "";
                }
            }
        }
        if key.is_empty() {
            return Err(ManifestError::parse("HLS", lineno, "empty attribute key"));
        }
        out.push((key, value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PresentationBuilder;
    use vmp_core::ladder::BitrateLadder;

    fn presentation() -> MediaPresentation {
        PresentationBuilder::new(
            "v9f3c",
            BitrateLadder::from_bitrates(&[400, 800, 1600, 3200]).unwrap(),
        )
        .audio(vec![Kbps(64), Kbps(128)])
        .chunk_duration(Seconds(6.0))
        .vod(Seconds(120.0))
        .build()
        .unwrap()
    }

    #[test]
    fn master_round_trip_recovers_ladder() {
        let p = presentation();
        let text = write_master(&p);
        let master = parse_master(&text).unwrap();
        assert_eq!(master.variants.len(), 4);
        let recovered: Vec<Kbps> = master
            .variants
            .iter()
            .map(|v| v.video_bitrate(Kbps(128)))
            .collect();
        assert_eq!(recovered, *p.ladder.bitrates());
        // Resolutions and codecs survive.
        for (v, rung) in master.variants.iter().zip(p.ladder.rungs()) {
            assert_eq!(v.resolution, Some(rung.resolution));
            assert_eq!(v.codec(), Some(rung.codec));
        }
        // Audio renditions recover their bitrates.
        let audio: Vec<Kbps> = master.audio.iter().filter_map(|a| a.bitrate()).collect();
        assert_eq!(audio, vec![Kbps(64), Kbps(128)]);
    }

    #[test]
    fn media_round_trip_preserves_duration() {
        let p = presentation();
        let rung = p.ladder.rungs()[1];
        let text = write_media(&p, &rung);
        let media = parse_media(&text).unwrap();
        assert_eq!(media.target_duration, 6);
        assert_eq!(media.playlist_type.as_deref(), Some("VOD"));
        assert!(media.ended);
        assert_eq!(media.segments.len(), 20);
        assert!((media.total_duration().0 - 120.0).abs() < 1e-6);
    }

    #[test]
    fn media_with_partial_tail_chunk() {
        let p = PresentationBuilder::new("v1", BitrateLadder::from_bitrates(&[800]).unwrap())
            .chunk_duration(Seconds(6.0))
            .vod(Seconds(62.0))
            .build()
            .unwrap();
        let text = write_media(&p, &p.ladder.rungs()[0]);
        let media = parse_media(&text).unwrap();
        assert_eq!(media.segments.len(), 11);
        assert!((media.segments.last().unwrap().duration.0 - 2.0).abs() < 1e-6);
        assert!((media.total_duration().0 - 62.0).abs() < 1e-6);
    }

    #[test]
    fn live_playlist_has_no_endlist() {
        let p = PresentationBuilder::new("v1", BitrateLadder::from_bitrates(&[800]).unwrap())
            .chunk_duration(Seconds(4.0))
            .build()
            .unwrap();
        let text = write_media(&p, &p.ladder.rungs()[0]);
        let media = parse_media(&text).unwrap();
        assert!(!media.ended);
        assert_eq!(media.segments.len(), 3);
    }

    #[test]
    fn live_window_slides_with_media_sequence_advance() {
        let p = PresentationBuilder::new("ev1", BitrateLadder::from_bitrates(&[800]).unwrap())
            .chunk_duration(Seconds(4.0))
            .build()
            .unwrap();
        let rung = p.ladder.rungs()[0];
        let now = parse_media(&write_live_media(&p, &rung, 120, 5)).unwrap();
        let next = parse_media(&write_live_media(&p, &rung, 121, 5)).unwrap();
        assert_eq!(now.media_sequence, 120);
        assert_eq!(next.media_sequence, 121);
        assert!(!now.ended && !next.ended, "live playlists never end");
        assert_eq!(now.segments.len(), 5);
        // The window slid by one: four URIs shared, oldest dropped, one new.
        assert_eq!(now.segments[1..], next.segments[..4]);
        assert_eq!(next.segments.last().unwrap().uri, "ev1/v800/live-00125.ts");
        // VoD playlists keep sequence 0.
        let vod = parse_media(&write_media(&presentation(), &presentation().ladder.rungs()[0])).unwrap();
        assert_eq!(vod.media_sequence, 0);
    }

    #[test]
    fn attribute_parser_handles_quoted_commas() {
        let attrs = parse_attributes(
            "BANDWIDTH=928000,CODECS=\"avc1.640028,mp4a.40.2\",RESOLUTION=640x360",
            1,
        )
        .unwrap();
        assert_eq!(attrs.len(), 3);
        assert_eq!(attrs[1].1, "avc1.640028,mp4a.40.2");
    }

    #[test]
    fn malformed_masters_are_rejected() {
        assert!(parse_master("").is_err());
        assert!(parse_master("#EXTM3U\nvariant.m3u8\n").is_err()); // URI w/o STREAM-INF
        assert!(parse_master("#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1x1\nu.m3u8\n").is_err()); // no BANDWIDTH
        assert!(parse_master("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1000\n").is_err()); // dangling
        assert!(parse_master("#EXTM3U\n").is_err()); // no variants
        assert!(parse_master("not a playlist").is_err());
    }

    #[test]
    fn malformed_media_playlists_are_rejected() {
        assert!(parse_media("#EXTM3U\n#EXTINF:abc,\nseg.ts\n").is_err());
        assert!(parse_media("#EXTM3U\n#EXT-X-TARGETDURATION:6\nseg.ts\n").is_err()); // URI w/o EXTINF
        assert!(parse_media("#EXTM3U\n#EXTINF:6.0,\nseg.ts\n").is_err()); // no target duration
        assert!(parse_media("#EXTM3U\n#EXT-X-TARGETDURATION:6\n#EXTINF:-1,\ns.ts\n").is_err());
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let text = "#EXTM3U\n#EXT-X-FUTURE-TAG:stuff\n#EXT-X-TARGETDURATION:6\n#EXTINF:6.0,\ns.ts\n#EXT-X-ENDLIST\n";
        let media = parse_media(text).unwrap();
        assert_eq!(media.segments.len(), 1);
    }
}
