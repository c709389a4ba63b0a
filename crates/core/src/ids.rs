//! Typed identifiers.
//!
//! Every entity in the simulated ecosystem is addressed by a newtype around a
//! small integer. The paper anonymizes publisher and video identifiers; we
//! keep the same shape (opaque IDs) so analytics code cannot accidentally
//! depend on anything but the identifier itself.

use serde::Serialize;
use std::fmt;

macro_rules! typed_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize,
        )]
        pub struct $name(u32);

        impl $name {
            /// Wraps a raw index as a typed identifier.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index. Prefer keeping the typed form; this is
            /// for array indexing and display only.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the raw index widened for direct slice indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{:04}"), self.0)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }
    };
}

typed_id!(
    /// Anonymized content publisher (the paper's "publisher ID").
    PublisherId,
    "P"
);
typed_id!(
    /// Anonymized video title (the paper's "video ID").
    VideoId,
    "V"
);
typed_id!(
    /// A content delivery network.
    CdnId,
    "CDN"
);
typed_id!(
    /// A single playback session (one "view" in the paper's terminology).
    SessionId,
    "S"
);
typed_id!(
    /// A catalogue (series) grouping several video IDs, used in §6.
    CatalogueId,
    "CAT"
);
typed_id!(
    /// An edge server within a CDN.
    EdgeId,
    "E"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types() {
        // This is a compile-time property; here we just exercise the API.
        let p = PublisherId::new(7);
        let v = VideoId::new(7);
        assert_eq!(p.raw(), v.raw());
        assert_eq!(p.index(), 7);
    }

    #[test]
    fn display_uses_prefix_and_padding() {
        assert_eq!(PublisherId::new(3).to_string(), "P0003");
        assert_eq!(VideoId::new(123).to_string(), "V0123");
        assert_eq!(CdnId::new(0).to_string(), "CDN0000");
        assert_eq!(CatalogueId::new(12345).to_string(), "CAT12345");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(PublisherId::new(1) < PublisherId::new(2));
        let mut v = vec![VideoId::new(5), VideoId::new(1), VideoId::new(3)];
        v.sort();
        assert_eq!(v, vec![VideoId::new(1), VideoId::new(3), VideoId::new(5)]);
    }

    #[test]
    fn serde_round_trip() {
        // An id is its raw index on the wire, with no wrapper object.
        assert_eq!(serde_json::to_string(&PublisherId::new(42)).unwrap(), "42");
    }
}
