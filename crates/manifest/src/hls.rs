//! Apple HTTP Live Streaming master playlists (RFC 8216 subset).
//!
//! The packager publishes a *master playlist* advertising one variant stream
//! per ladder rung plus audio renditions. Table 1 reads only its URL; the
//! body is pinned byte for byte by this module's golden test.

use crate::types::MediaPresentation;
use vmp_core::units::Kbps;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::tab1_presentation;

    /// The master playlist Table 1's packager publishes, byte for byte. A
    /// master lists rungs and renditions only, so VoD and live agree.
    #[test]
    fn write_master_output_is_pinned() {
        let expected = r##"#EXTM3U
#EXT-X-VERSION:6
#EXT-X-INDEPENDENT-SEGMENTS
#EXT-X-MEDIA:TYPE=AUDIO,GROUP-ID="aud",NAME="audio-128",DEFAULT=YES,URI="v009f3c/audio-128/playlist.m3u8"
#EXT-X-STREAM-INF:BANDWIDTH=528000,RESOLUTION=416x234,CODECS="avc1.640028,mp4a.40.2",AUDIO="aud"
v009f3c/v400/playlist.m3u8
#EXT-X-STREAM-INF:BANDWIDTH=1728000,RESOLUTION=768x432,CODECS="avc1.640028,mp4a.40.2",AUDIO="aud"
v009f3c/v1600/playlist.m3u8
#EXT-X-STREAM-INF:BANDWIDTH=3328000,RESOLUTION=1280x720,CODECS="avc1.640028,mp4a.40.2",AUDIO="aud"
v009f3c/v3200/playlist.m3u8
"##;
        assert_eq!(write_master(&tab1_presentation(false)), expected);
        assert_eq!(write_master(&tab1_presentation(true)), expected);
    }
}
