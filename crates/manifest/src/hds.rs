//! Adobe HTTP Dynamic Streaming `.f4m` manifests.
//!
//! An F4M document lists one `<media>` element per encoding with a `bitrate`
//! attribute (in kbps, unlike the other formats) and a `url` attribute.
//! HDS was already in decline during the study (19% of publishers by the
//! last snapshot) but the packager still needs to emit it, and analytics
//! still needs to classify its URLs.

use crate::types::MediaPresentation;
use crate::xml::Element;

/// Renders the F4M manifest for a presentation.
pub fn write_f4m(p: &MediaPresentation) -> String {
    let mut root = Element::new("manifest")
        .attr("xmlns", "http://ns.adobe.com/f4m/1.0")
        .child(Element::new("id").with_text(p.content_token.clone()))
        .child(
            Element::new("streamType")
                .with_text(if p.is_live() { "live" } else { "recorded" }),
        )
        .child(Element::new("baseURL").with_text(p.base_url.clone()));
    if let Some(total) = p.total_duration {
        root = root.child(Element::new("duration").with_text(format!("{:.3}", total.0)));
    }
    // HDS fragments: advertise the chunk duration via a bootstrap stand-in.
    root = root.child(
        Element::new("bootstrapInfo")
            .attr("profile", "named")
            .attr("id", "bootstrap0")
            .attr("fragmentDuration", format!("{:.3}", p.chunk_duration.0)),
    );
    for rung in p.ladder.rungs() {
        root = root.child(
            Element::new("media")
                .attr("bitrate", rung.bitrate.0.to_string())
                .attr("width", rung.resolution.width.to_string())
                .attr("height", rung.resolution.height.to_string())
                .attr("url", format!("{}/v{}/", p.content_token, rung.bitrate.0))
                .attr("bootstrapInfoId", "bootstrap0"),
        );
    }
    root.to_document()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{tab1_presentation, PresentationBuilder};
    use vmp_core::ladder::BitrateLadder;
    use vmp_core::units::Seconds;

    fn presentation() -> MediaPresentation {
        PresentationBuilder::new(
            "hds7",
            BitrateLadder::from_bitrates(&[500, 1000, 2000]).unwrap(),
        )
        .chunk_duration(Seconds(6.0))
        .vod(Seconds(300.0))
        .base_url("https://x.aws.example.com/cache")
        .build()
        .unwrap()
    }

    #[test]
    fn live_f4m() {
        let p = PresentationBuilder::new("ev", BitrateLadder::from_bitrates(&[700]).unwrap())
            .chunk_duration(Seconds(4.0))
            .build()
            .unwrap();
        let text = write_f4m(&p);
        assert!(text.contains("<streamType>live</streamType>"));
        assert!(!text.contains("<duration>"));
    }

    #[test]
    fn bitrates_are_kbps_not_bps() {
        let text = write_f4m(&presentation());
        assert!(text.contains("bitrate=\"500\""));
        assert!(!text.contains("bitrate=\"500000\""));
    }

    /// The documents Table 1's packager publishes, byte for byte.
    #[test]
    fn write_f4m_output_is_pinned() {
        let vod = r##"<?xml version="1.0" encoding="UTF-8"?>
<manifest xmlns="http://ns.adobe.com/f4m/1.0">
  <id>v009f3c</id>
  <streamType>recorded</streamType>
  <baseURL>https://edge.cdn-a.example.net/p0042</baseURL>
  <duration>2400.000</duration>
  <bootstrapInfo profile="named" id="bootstrap0" fragmentDuration="6.000"/>
  <media bitrate="400" width="416" height="234" url="v009f3c/v400/" bootstrapInfoId="bootstrap0"/>
  <media bitrate="1600" width="768" height="432" url="v009f3c/v1600/" bootstrapInfoId="bootstrap0"/>
  <media bitrate="3200" width="1280" height="720" url="v009f3c/v3200/" bootstrapInfoId="bootstrap0"/>
</manifest>
"##;
        let live = r##"<?xml version="1.0" encoding="UTF-8"?>
<manifest xmlns="http://ns.adobe.com/f4m/1.0">
  <id>v009f3c</id>
  <streamType>live</streamType>
  <baseURL>https://edge.cdn-a.example.net/p0042</baseURL>
  <bootstrapInfo profile="named" id="bootstrap0" fragmentDuration="6.000"/>
  <media bitrate="400" width="416" height="234" url="v009f3c/v400/" bootstrapInfoId="bootstrap0"/>
  <media bitrate="1600" width="768" height="432" url="v009f3c/v1600/" bootstrapInfoId="bootstrap0"/>
  <media bitrate="3200" width="1280" height="720" url="v009f3c/v3200/" bootstrapInfoId="bootstrap0"/>
</manifest>
"##;
        assert_eq!(write_f4m(&tab1_presentation(false)), vod);
        assert_eq!(write_f4m(&tab1_presentation(true)), live);
    }
}
