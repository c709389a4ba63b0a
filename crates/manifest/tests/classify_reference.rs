//! The single-pass URL classifier against its reference.
//!
//! `classify_reference` below is the multi-scan classifier the library
//! shipped before the single-pass rewrite, kept verbatim as the oracle:
//! trim, RTMP-by-scheme, strip everything up to the first `://`, cut at the
//! first `?`/`#`, split on `/`, skip the host, and match each segment's
//! extension against `StreamingProtocol::manifest_extensions`. Every
//! property here asserts that `vmp_manifest::classify` returns exactly what
//! the reference returns, so a rule the rewrite drops or reorders fails.

use proptest::prelude::*;
use vmp_core::cdn::CdnName;
use vmp_core::protocol::StreamingProtocol;
use vmp_manifest::{classify, manifest_url};

/// The reference classifier (the library's pre-rewrite implementation).
fn classify_reference(url: &str) -> Option<StreamingProtocol> {
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

/// Asserts that the classifier and the reference agree on `url`.
fn assert_agrees(url: &str) {
    assert_eq!(classify(url), classify_reference(url), "url {url:?}");
}

/// Concatenates the tokens picked by `picks` (indices into `tokens`).
fn join(tokens: &[&str], picks: &[usize]) -> String {
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect()
}

/// Pieces that make URL-like strings likely: separators, every manifest
/// and media extension in both cases, near misses, scheme fragments and
/// the whitespace `str::trim` strips (tab, U+00A0) next to non-ASCII text.
const TOKENS: &[&str] = &[
    "/", "/", ".", ".", "?", "#", ":", "://", "//", "m3u8", "M3U8", "m3u", "mpd", "MPD", "ism",
    "IsMl", "isml", "f4m", "F4M", "mp4", "flv", "webm", "mov", "MOV", "m3u9", "mpdx", "webmm",
    "rtmp", "RTMP", "rtmps", "rtmpx", "s", "e", "t", "http", "a", "b", "é", "\u{a0}", "\t", " ",
];

const SCHEMES: &[&str] = &[
    "",
    "https://",
    "HTTP://",
    "rtmp://",
    "RTMPS://",
    "rtmpe://",
    "rtmpt://",
    "rtmpx://",
    "rtmp:/",
    "a:b://",
    "://",
    "\u{a0}rtmp://",
    "\t",
];

const HOSTS: &[&str] =
    &["", "h", "cdn.example.net", "cdn.m3u8.example.net", "a.mpd", "x.MP4", "é.ism", "h:8080"];

const SEGMENTS: &[&str] = &[
    "",
    "p0042",
    "master.m3u8",
    "MASTER.M3U8",
    ".m3u8",
    ".mpd",
    "a.b",
    "a.",
    "56.ism",
    "live.isml",
    "manifest",
    "v.mpd",
    "x.f4m",
    "movie.mp4",
    "clip.FLV",
    "c.webm",
    "d.mov",
    "e.m3u",
    "a.mpd.txt",
    "a.txt.mpd",
    "é.mpd",
    "\u{a0}.m3u8",
    "x.m3u8\t",
];

const TAILS: &[&str] = &[
    "",
    "?",
    "#",
    "?token=abc.mpd",
    "#t=30.m3u8",
    "?a/b.ism",
    "#frag/x.mp4",
    "?q=http://y/z.m3u8",
    "#https://h/x.mpd",
    "?x.mpd#y.m3u8",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary printable strings, ASCII and non-ASCII.
    #[test]
    fn agrees_on_arbitrary_strings(s in "\\PC{0,80}") {
        assert_agrees(&s);
    }

    /// Strings over a small alphabet that is dense in the classifier's
    /// separators, upper case letters, `é`, U+00A0 and tab.
    #[test]
    fn agrees_on_a_separator_dense_alphabet(s in "[:/?#.a-fmptsMPDT4é\u{a0}\t ]{0,40}") {
        assert_agrees(&s);
    }

    /// Strings built from URL tokens, so that extensions, schemes and
    /// separators meet in every order.
    #[test]
    fn agrees_on_token_strings(picks in prop::collection::vec(0usize..TOKENS.len(), 0..16)) {
        assert_agrees(&join(TOKENS, &picks));
    }

    /// Structured URLs: scheme, dotted host, 0–4 path segments, and a
    /// query or fragment tail that itself carries extensions.
    #[test]
    fn agrees_on_structured_urls(
        scheme in 0usize..SCHEMES.len(),
        host in 0usize..HOSTS.len(),
        segments in prop::collection::vec(0usize..SEGMENTS.len(), 0..=4),
        tail in 0usize..TAILS.len(),
    ) {
        let mut url = format!("{}{}", SCHEMES[scheme], HOSTS[host]);
        for &s in &segments {
            url.push('/');
            url.push_str(SEGMENTS[s]);
        }
        url.push_str(TAILS[tail]);
        assert_agrees(&url);
        assert_agrees(&url.to_ascii_uppercase());
    }
}

/// Every URL the packager generates, for every protocol on the hosts of
/// CDNs A–E and a minor CDN, classifies to its protocol.
#[test]
fn generated_urls_classify_to_their_protocol() {
    let cdns = [CdnName::A, CdnName::B, CdnName::C, CdnName::D, CdnName::E, CdnName::Minor(17)];
    for cdn in cdns {
        for protocol in StreamingProtocol::ALL {
            for token in ["v00002a", "v9f3c", "x.y"] {
                let url = manifest_url(protocol, &cdn.host(), "p0042", token);
                assert_eq!(classify(&url), Some(protocol), "url {url}");
                assert_agrees(&url);
            }
        }
    }
}

#[test]
fn named_cases() {
    use StreamingProtocol::{Dash, Hls, Progressive, Rtmp};
    let cases: [(&str, Option<StreamingProtocol>); 8] = [
        // The leftmost manifest extension wins ...
        ("h/a.mpd/b.m3u8", Some(Dash)),
        // ... but a progressive one only if nothing else matches.
        ("h/a.mp4/b.m3u8", Some(Hls)),
        // RTMP needs one of its four schemes exactly.
        ("rtmpx://a/b.mpd", Some(Dash)),
        // The scheme ends at the first `://`, even after a `?`.
        ("a?b://c/x.m3u8", Some(Hls)),
        // A leading dot is a hidden file, not an extension.
        ("https://h/.m3u8", None),
        ("https://h/a.b/.mpd", None),
        // `str::trim` strips Unicode whitespace before the scheme test.
        ("\u{a0}rtmp://x", Some(Rtmp)),
        // The fragment is never classified.
        ("https://h/x.mov#a.mpd", Some(Progressive)),
    ];
    for (url, expected) in cases {
        assert_eq!(classify(url), expected, "url {url:?}");
        assert_eq!(classify_reference(url), expected, "reference on {url:?}");
    }
}
