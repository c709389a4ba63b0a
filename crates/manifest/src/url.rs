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

/// The RTMP family's schemes (footnote 5), matched ASCII-case-insensitively.
const RTMP_SCHEMES: [&[u8]; 4] = [b"rtmp://", b"rtmps://", b"rtmpe://", b"rtmpt://"];

/// Classifies a manifest/stream URL into a streaming protocol, or `None`
/// when nothing matches (e.g. an API endpoint).
///
/// The rules, in order: surrounding whitespace (`str::trim`) is ignored;
/// an RTMP scheme wins outright; everything up to the first `://` is the
/// scheme and is skipped; the path ends at the first `?` or `#`; its first
/// `/`-separated segment is the host and is skipped; the leftmost segment
/// whose extension (after its last `.`, which may not lead the segment)
/// names a manifest format decides; a media-container extension counts
/// only if no segment names a manifest format.
///
/// Ingest calls this once per view, so after finding the `://` it reads
/// the path once, front to back, on bytes, and allocates nothing: `.`,
/// `/`, `?` and `#` are ASCII and never occur inside a multi-byte UTF-8
/// character.
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
    let url = url.trim().as_bytes();
    if RTMP_SCHEMES
        .iter()
        .any(|scheme| url.get(..scheme.len()).is_some_and(|p| p.eq_ignore_ascii_case(scheme)))
    {
        return Some(StreamingProtocol::Rtmp);
    }
    let path = match url.windows(3).position(|w| w == b"://") {
        Some(i) => &url[i + 3..],
        None => url,
    };
    // `start` is the first byte of the current segment (`None` while in
    // the host); `dot` is the last `.` seen, inside the segment only when
    // it lies past `start`.
    let mut start = None;
    let mut dot = 0;
    let mut progressive = false;
    let mut i = 0;
    loop {
        // The end of the path acts as a query separator.
        let b = path.get(i).copied().unwrap_or(b'?');
        match b {
            b'.' => dot = i,
            b'/' | b'?' | b'#' => {
                if start.is_some_and(|s| dot > s && i > dot + 1) {
                    match extension_protocol(&path[dot + 1..i]) {
                        Some(StreamingProtocol::Progressive) => progressive = true,
                        Some(protocol) => return Some(protocol),
                        None => {}
                    }
                }
                if b != b'/' {
                    break;
                }
                start = Some(i + 1);
            }
            _ => {}
        }
        i += 1;
    }
    progressive.then_some(StreamingProtocol::Progressive)
}

/// The protocol whose [`manifest_extensions`] include `ext`, compared
/// ASCII-case-insensitively; every extension is at most 4 bytes.
///
/// [`manifest_extensions`]: StreamingProtocol::manifest_extensions
fn extension_protocol(ext: &[u8]) -> Option<StreamingProtocol> {
    let mut lower = [0u8; 4];
    let lower = lower.get_mut(..ext.len())?;
    for (l, b) in lower.iter_mut().zip(ext) {
        *l = b.to_ascii_lowercase();
    }
    match &*lower {
        b"m3u8" | b"m3u" => Some(StreamingProtocol::Hls),
        b"mpd" => Some(StreamingProtocol::Dash),
        b"ism" | b"isml" => Some(StreamingProtocol::SmoothStreaming),
        b"f4m" => Some(StreamingProtocol::Hds),
        b"mp4" | b"flv" | b"webm" | b"mov" => Some(StreamingProtocol::Progressive),
        _ => None,
    }
}

/// Builds the manifest URL that the packager publishes for a presentation
/// on a given CDN host: [`write_manifest_url`] into a new `String`.
///
/// The result is allocated once at its exact length (`capacity == len`):
/// slack capacity in a URL that is kept is resident memory.
pub fn manifest_url(
    protocol: StreamingProtocol,
    cdn_host: &str,
    publisher_prefix: &str,
    content_token: &str,
) -> String {
    let parts = url_parts(protocol, cdn_host, publisher_prefix, content_token);
    let mut url = String::with_capacity(parts.iter().map(|part| part.len()).sum());
    for part in parts {
        url.push_str(part);
    }
    url
}

/// Appends the manifest URL of [`manifest_url`] to `out`, so a caller can
/// write many URLs back to back into one buffer. Mirrors the URL shapes of
/// Table 1.
pub fn write_manifest_url(
    out: &mut String,
    protocol: StreamingProtocol,
    cdn_host: &str,
    publisher_prefix: &str,
    content_token: &str,
) {
    for part in url_parts(protocol, cdn_host, publisher_prefix, content_token) {
        out.push_str(part);
    }
}

/// Scheme, host, `to_prefix`, prefix, `to_token`, token, suffix.
fn url_parts<'a>(
    protocol: StreamingProtocol,
    cdn_host: &'a str,
    publisher_prefix: &'a str,
    content_token: &'a str,
) -> [&'a str; 7] {
    let (scheme, to_prefix, to_token, suffix) = match protocol {
        StreamingProtocol::Hls => ("https://", "/", "/", "/master.m3u8"),
        StreamingProtocol::Dash => ("https://", "/", "/", ".mpd"),
        StreamingProtocol::SmoothStreaming => ("https://", "/", "/", ".ism/manifest"),
        StreamingProtocol::Hds => ("https://", "/", "/cache/", ".f4m"),
        StreamingProtocol::Rtmp => ("rtmp://", "/live/", "/", ""),
        StreamingProtocol::Progressive => ("https://", "/", "/", ".mp4"),
    };
    [scheme, cdn_host, to_prefix, publisher_prefix, to_token, content_token, suffix]
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
    fn extension_match_is_the_protocol_table() {
        for proto in StreamingProtocol::ALL {
            for ext in proto.manifest_extensions() {
                assert_eq!(extension_protocol(ext.as_bytes()), Some(proto), "{ext}");
                let upper = ext.to_ascii_uppercase();
                assert_eq!(extension_protocol(upper.as_bytes()), Some(proto), "{upper}");
            }
        }
        for miss in ["", "m", "m3", "m3u9", "mpdx", "webmm", "txt", "net"] {
            assert_eq!(extension_protocol(miss.as_bytes()), None, "{miss}");
        }
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
    fn written_urls_append_back_to_back() {
        let mut out = String::from("kept|");
        let mut expected = out.clone();
        for protocol in StreamingProtocol::ALL {
            write_manifest_url(&mut out, protocol, "media.cdn-b.example.net", "p0007", "v0013a7");
            let url = manifest_url(protocol, "media.cdn-b.example.net", "p0007", "v0013a7");
            expected.push_str(&url);
            assert_eq!(out, expected);
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
