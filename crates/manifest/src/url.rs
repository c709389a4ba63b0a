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
///
/// The result is allocated once at its exact length (`capacity == len`):
/// generation builds one per view and ingest pipelines hold them by the
/// hundred thousand, so slack capacity is resident memory.
pub fn manifest_url(
    protocol: StreamingProtocol,
    cdn_host: &str,
    publisher_prefix: &str,
    content_token: &str,
) -> String {
    // scheme, host, `to_prefix`, prefix, `to_token`, token, suffix.
    let (scheme, to_prefix, to_token, suffix) = match protocol {
        StreamingProtocol::Hls => ("https://", "/", "/", "/master.m3u8"),
        StreamingProtocol::Dash => ("https://", "/", "/", ".mpd"),
        StreamingProtocol::SmoothStreaming => ("https://", "/", "/", ".ism/manifest"),
        StreamingProtocol::Hds => ("https://", "/", "/cache/", ".f4m"),
        StreamingProtocol::Rtmp => ("rtmp://", "/live/", "/", ""),
        StreamingProtocol::Progressive => ("https://", "/", "/", ".mp4"),
    };
    let parts = [scheme, cdn_host, to_prefix, publisher_prefix, to_token, content_token, suffix];
    let mut url = String::with_capacity(parts.iter().map(|part| part.len()).sum());
    for part in parts {
        url.push_str(part);
    }
    url
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

    /// Reference rendering: Table 1's URL shapes as `format!` strings.
    fn formatted(protocol: StreamingProtocol, host: &str, prefix: &str, token: &str) -> String {
        match protocol {
            StreamingProtocol::Hls => format!("https://{host}/{prefix}/{token}/master.m3u8"),
            StreamingProtocol::Dash => format!("https://{host}/{prefix}/{token}.mpd"),
            StreamingProtocol::SmoothStreaming => {
                format!("https://{host}/{prefix}/{token}.ism/manifest")
            }
            StreamingProtocol::Hds => format!("https://{host}/{prefix}/cache/{token}.f4m"),
            StreamingProtocol::Rtmp => format!("rtmp://{host}/live/{prefix}/{token}"),
            StreamingProtocol::Progressive => format!("https://{host}/{prefix}/{token}.mp4"),
        }
    }

    #[test]
    fn urls_equal_the_formatted_rendering_and_are_sized_exactly() {
        use vmp_core::cdn::CdnName;
        // A minor CDN's host is the one built at run time; the last token
        // is a title rank above 0xff_ffff, wider than the 6-digit padding.
        for host in [CdnName::A.host(), CdnName::Minor(17).host()] {
            for token in ["v00002a", format!("v{:06x}", 0x0100_0000_u32).as_str()] {
                for protocol in StreamingProtocol::ALL {
                    let url = manifest_url(protocol, &host, "p0042", token);
                    assert_eq!(url, formatted(protocol, &host, "p0042", token));
                    assert_eq!(url.capacity(), url.len(), "slack in {url}");
                }
            }
        }
    }

    #[test]
    fn generated_urls_round_trip_through_classifier() {
        for proto in StreamingProtocol::ALL {
            let url = manifest_url(proto, "edge.cdn-a.example.net", "p0042", "v9f3c");
            assert_eq!(classify(&url), Some(proto), "url {url}");
        }
    }
}
