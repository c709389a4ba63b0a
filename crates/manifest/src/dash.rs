//! MPEG-DASH Media Presentation Descriptions (ISO/IEC 23009-1 subset).
//!
//! The writer emits a static (VoD) or dynamic (live) MPD with one video
//! `AdaptationSet` (one `Representation` per ladder rung, `SegmentTemplate`
//! addressing) and one audio `AdaptationSet`.

use crate::types::MediaPresentation;
use crate::xml::Element;
use vmp_core::units::Seconds;

/// Renders the MPD document for a presentation.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "non-negative tick counts; `as` saturates"
)]
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

/// Formats a duration as ISO-8601 (`PT1H2M3.500S`).
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the duration is clamped at 0; `as` saturates"
)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{tab1_presentation, PresentationBuilder};
    use vmp_core::ladder::BitrateLadder;

    #[test]
    fn live_mpd_is_dynamic() {
        let p = PresentationBuilder::new("live1", BitrateLadder::from_bitrates(&[1200]).unwrap())
            .chunk_duration(Seconds(2.0))
            .build()
            .unwrap();
        let text = write_mpd(&p);
        assert!(text.contains("type=\"dynamic\""));
        assert!(!text.contains("mediaPresentationDuration"));
    }

    #[test]
    fn iso_durations() {
        assert_eq!(iso8601_duration(Seconds(3723.5)), "PT1H2M3.500S");
        assert_eq!(iso8601_duration(Seconds(59.0)), "PT59.000S");
    }

    /// The documents Table 1's packager publishes, byte for byte.
    #[test]
    fn write_mpd_output_is_pinned() {
        let vod = r##"<?xml version="1.0" encoding="UTF-8"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" profiles="urn:mpeg:dash:profile:isoff-live:2011" type="static" minBufferTime="PT2S" mediaPresentationDuration="PT40M0.000S">
  <Period id="0">
    <BaseURL>https://edge.cdn-a.example.net/p0042/</BaseURL>
    <AdaptationSet mimeType="video/mp4" segmentAlignment="true">
      <SegmentTemplate timescale="1000" duration="6000" media="v009f3c/v$Bandwidth$/seg-$Number$.m4s" initialization="v009f3c/v$Bandwidth$/init.mp4" startNumber="0"/>
      <Representation id="v400" bandwidth="400000" width="416" height="234" codecs="avc1.640028"/>
      <Representation id="v1600" bandwidth="1600000" width="768" height="432" codecs="avc1.640028"/>
      <Representation id="v3200" bandwidth="3200000" width="1280" height="720" codecs="avc1.640028"/>
    </AdaptationSet>
    <AdaptationSet mimeType="audio/mp4" segmentAlignment="true">
      <Representation id="a128" bandwidth="128000" codecs="mp4a.40.2"/>
    </AdaptationSet>
  </Period>
</MPD>
"##;
        let live = r##"<?xml version="1.0" encoding="UTF-8"?>
<MPD xmlns="urn:mpeg:dash:schema:mpd:2011" profiles="urn:mpeg:dash:profile:isoff-live:2011" type="dynamic" minBufferTime="PT2S">
  <Period id="0">
    <BaseURL>https://edge.cdn-a.example.net/p0042/</BaseURL>
    <AdaptationSet mimeType="video/mp4" segmentAlignment="true">
      <SegmentTemplate timescale="1000" duration="6000" media="v009f3c/v$Bandwidth$/seg-$Number$.m4s" initialization="v009f3c/v$Bandwidth$/init.mp4" startNumber="0"/>
      <Representation id="v400" bandwidth="400000" width="416" height="234" codecs="avc1.640028"/>
      <Representation id="v1600" bandwidth="1600000" width="768" height="432" codecs="avc1.640028"/>
      <Representation id="v3200" bandwidth="3200000" width="1280" height="720" codecs="avc1.640028"/>
    </AdaptationSet>
    <AdaptationSet mimeType="audio/mp4" segmentAlignment="true">
      <Representation id="a128" bandwidth="128000" codecs="mp4a.40.2"/>
    </AdaptationSet>
  </Period>
</MPD>
"##;
        assert_eq!(write_mpd(&tab1_presentation(false)), vod);
        assert_eq!(write_mpd(&tab1_presentation(true)), live);
    }
}
