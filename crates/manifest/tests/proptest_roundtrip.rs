//! Property tests: the URL classifier must agree with the generating
//! protocol for arbitrary tokens, and read any string without panicking.

use proptest::prelude::*;
use vmp_core::protocol::StreamingProtocol;
use vmp_manifest::{classify, manifest_url};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn classifier_agrees_with_generator(
        proto_idx in 0usize..6,
        host in "[a-z]{3,10}\\.example\\.net",
        prefix in "p[0-9]{1,4}",
        token in "[a-z0-9]{4,12}",
    ) {
        let proto = StreamingProtocol::ALL[proto_idx];
        let url = manifest_url(proto, &host, &prefix, &token);
        prop_assert_eq!(classify(&url), Some(proto));
    }

    #[test]
    fn classifier_never_panics(url in "\\PC*") {
        let _ = classify(&url);
    }

    /// Classification ignores ASCII case, for generated URLs (which always
    /// classify) and for arbitrary strings (which mostly do not).
    #[test]
    fn classifier_ignores_ascii_case(
        proto_idx in 0usize..6,
        token in "[a-zA-Z0-9]{4,12}",
        arbitrary in "\\PC*",
    ) {
        let generated =
            manifest_url(StreamingProtocol::ALL[proto_idx], "Edge.Example.NET", "p7", &token);
        for u in [generated, arbitrary] {
            prop_assert_eq!(classify(&u), classify(&u.to_ascii_uppercase()));
            prop_assert_eq!(classify(&u), classify(&u.to_ascii_lowercase()));
        }
    }
}
