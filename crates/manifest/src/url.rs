//! Table 1: protocol inference from manifest URLs.
//!
//! §3: "Different streaming protocols use pre-defined file extension types
//! for their manifest files" — `.m3u8`/`.m3u` for HLS, `.mpd` for DASH,
//! `.ism`/`.isml` for SmoothStreaming, `.f4m` for HDS. Footnote 5 adds the
//! two exceptions: RTMP is detected from the URL scheme, and progressive
//! downloading uses media-container extensions (`.mp4`, `.flv`, ...).
//!
//! One subtlety straight from Table 1's sample URLs: SmoothStreaming
//! manifests look like `http://host/56.ism/manifest` — the protocol
//! extension is on an *interior* path segment, so classification scans every
//! segment, not just the last.

use vmp_core::protocol::StreamingProtocol;

/// Classifies a manifest/stream URL into a streaming protocol, or `None`
/// when nothing matches (e.g. an API endpoint).
///
/// ```
/// use vmp_core::protocol::StreamingProtocol;
/// use vmp_manifest::classify;
///
/// assert_eq!(classify("https://cdn/x/master.m3u8"), Some(StreamingProtocol::Hls));
/// assert_eq!(classify("http://cdn/56.ism/manifest"), Some(StreamingProtocol::SmoothStreaming));
/// assert_eq!(classify("rtmp://cdn/live/stream"), Some(StreamingProtocol::Rtmp));
/// assert_eq!(classify("https://api.example.net/v1/views"), None);
/// ```
pub fn classify(url: &str) -> Option<StreamingProtocol> {
    let trimmed = url.trim();
    if trimmed.is_empty() {
        return None;
    }
    // Rule 1 (footnote 5): the RTMP family is identified by scheme. All
    // matching is ASCII-case-insensitive on the borrowed string: ingest
    // calls this once per view, so it must not allocate.
    for scheme in ["rtmp://", "rtmps://", "rtmpe://", "rtmpt://"] {
        let prefix = trimmed.as_bytes().get(..scheme.len());
        if prefix.is_some_and(|p| p.eq_ignore_ascii_case(scheme.as_bytes())) {
            return Some(StreamingProtocol::Rtmp);
        }
    }
    // Strip scheme, query and fragment; keep only the path.
    let without_scheme = match trimmed.find("://") {
        Some(i) => &trimmed[i + 3..],
        None => trimmed,
    };
    let path_end = without_scheme
        .find(['?', '#'])
        .unwrap_or(without_scheme.len());
    let path = &without_scheme[..path_end];

    // Rule 2: scan path segments (skipping the host) for a manifest
    // extension. Interior segments matter for MSS (`/x.ism/manifest`).
    let mut segments = path.split('/');
    let _host = segments.next();
    let mut progressive_hit = false;
    for segment in segments {
        if let Some(ext) = extension_of(segment) {
            for proto in StreamingProtocol::ALL {
                if proto.manifest_extensions().iter().any(|e| e.eq_ignore_ascii_case(ext)) {
                    if proto == StreamingProtocol::Progressive {
                        // Keep scanning: a later segment may carry a real
                        // manifest extension (rare, but be precise).
                        progressive_hit = true;
                    } else {
                        return Some(proto);
                    }
                }
            }
        }
    }
    if progressive_hit {
        return Some(StreamingProtocol::Progressive);
    }
    None
}

/// The extension of one path segment, if any (`"master.m3u8"` → `"m3u8"`).
fn extension_of(segment: &str) -> Option<&str> {
    let dot = segment.rfind('.')?;
    let ext = &segment[dot + 1..];
    if ext.is_empty() || dot == 0 {
        None
    } else {
        Some(ext)
    }
}

/// Builds the manifest URL that the packager publishes for a presentation
/// on a given CDN host. Mirrors the URL shapes of Table 1.
pub fn manifest_url(
    protocol: StreamingProtocol,
    cdn_host: &str,
    publisher_prefix: &str,
    content_token: &str,
) -> String {
    match protocol {
        StreamingProtocol::Hls => {
            format!("https://{cdn_host}/{publisher_prefix}/{content_token}/master.m3u8")
        }
        StreamingProtocol::Dash => {
            format!("https://{cdn_host}/{publisher_prefix}/{content_token}.mpd")
        }
        StreamingProtocol::SmoothStreaming => {
            format!("https://{cdn_host}/{publisher_prefix}/{content_token}.ism/manifest")
        }
        StreamingProtocol::Hds => {
            format!("https://{cdn_host}/{publisher_prefix}/cache/{content_token}.f4m")
        }
        StreamingProtocol::Rtmp => {
            format!("rtmp://{cdn_host}/live/{publisher_prefix}/{content_token}")
        }
        StreamingProtocol::Progressive => {
            format!("https://{cdn_host}/{publisher_prefix}/{content_token}.mp4")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_sample_urls() {
        // The paper's own sample URLs (hosts altered).
        assert_eq!(
            classify("http://x.akamaihd.example.net/master.m3u8"),
            Some(StreamingProtocol::Hls)
        );
        assert_eq!(
            classify("http://x.llwnd.example.net//Z53TiGRzq.mpd"),
            Some(StreamingProtocol::Dash)
        );
        assert_eq!(
            classify("http://x.level3.example.net/56.ism/manifest"),
            Some(StreamingProtocol::SmoothStreaming)
        );
        assert_eq!(
            classify("http://x.aws.example.com/cache/hds.f4m"),
            Some(StreamingProtocol::Hds)
        );
    }

    #[test]
    fn footnote_5_exceptions() {
        assert_eq!(
            classify("rtmp://live.example.net/app/stream"),
            Some(StreamingProtocol::Rtmp)
        );
        assert_eq!(
            classify("rtmps://live.example.net/app/stream"),
            Some(StreamingProtocol::Rtmp)
        );
        assert_eq!(
            classify("https://cdn.example.net/videos/movie.mp4"),
            Some(StreamingProtocol::Progressive)
        );
        assert_eq!(
            classify("http://cdn.example.net/old/clip.flv"),
            Some(StreamingProtocol::Progressive)
        );
    }

    #[test]
    fn all_other_extension_variants() {
        assert_eq!(classify("https://h/a/playlist.m3u"), Some(StreamingProtocol::Hls));
        assert_eq!(
            classify("https://h/a/live.isml/manifest"),
            Some(StreamingProtocol::SmoothStreaming)
        );
    }

    #[test]
    fn query_strings_and_fragments_are_ignored() {
        assert_eq!(
            classify("https://h/p/master.m3u8?token=abc.mpd"),
            Some(StreamingProtocol::Hls)
        );
        assert_eq!(
            classify("https://h/p/video.mpd#t=30"),
            Some(StreamingProtocol::Dash)
        );
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(classify("HTTPS://H/P/MASTER.M3U8"), Some(StreamingProtocol::Hls));
        assert_eq!(classify("RTMP://h/a/s"), Some(StreamingProtocol::Rtmp));
    }

    #[test]
    fn manifest_extension_beats_progressive_segment() {
        // A path that embeds an .mp4 directory name but ends at a real
        // manifest must classify as the manifest protocol.
        assert_eq!(
            classify("https://h/p/movie.mp4/master.m3u8"),
            Some(StreamingProtocol::Hls)
        );
    }

    #[test]
    fn unclassifiable_urls() {
        assert_eq!(classify(""), None);
        assert_eq!(classify("https://api.example.net/v1/views"), None);
        assert_eq!(classify("https://h/p/file.unknownext"), None);
        assert_eq!(classify("https://h/p/.hidden"), None);
        assert_eq!(classify("not a url at all"), None);
    }

    #[test]
    fn host_extension_does_not_confuse_classifier() {
        // Hosts contain dots; ".net" etc. must not classify.
        assert_eq!(classify("https://cdn.example.net/"), None);
        assert_eq!(classify("https://cdn.m3u8.example.net/api"), None);
    }

    #[test]
    fn generated_urls_round_trip_through_classifier() {
        for proto in StreamingProtocol::ALL {
            let url = manifest_url(proto, "edge.cdn-a.example.net", "p0042", "v9f3c");
            assert_eq!(classify(&url), Some(proto), "url {url}");
        }
    }
}
