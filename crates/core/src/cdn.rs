//! CDN identity and routing traits (the *content distribution* dimension,
//! §4.3).
//!
//! The paper anonymizes CDNs as A–E (the top five by view-hours, together
//! serving >93% of traffic) out of 36 observed; one of the top three uses
//! anycast. We keep the anonymized naming.

use crate::ids::CdnId;
use serde::Serialize;
use std::fmt;

/// Anonymized CDN name. The top five carry letter names as in Fig 11; the
/// long tail of regional/internal CDNs is `Minor(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum CdnName {
    /// CDN "A" — used by ~80% of publishers.
    A,
    /// CDN "B".
    B,
    /// CDN "C" — used by ~30% of publishers.
    C,
    /// CDN "D".
    D,
    /// CDN "E".
    E,
    /// One of the remaining 31 regional/private CDNs.
    Minor(u8),
}

impl CdnName {
    /// The five major CDNs of Fig 11.
    pub const MAJORS: [CdnName; 5] =
        [CdnName::A, CdnName::B, CdnName::C, CdnName::D, CdnName::E];

    /// Total number of distinct CDNs observed in the study.
    pub const OBSERVED_TOTAL: usize = 36;

    /// Enumerates all 36 observed CDNs (5 majors + 31 minors).
    pub fn all_observed() -> impl Iterator<Item = CdnName> {
        Self::MAJORS
            .into_iter()
            .chain((0..31).map(CdnName::Minor))
    }

    /// Dense index usable for array-backed maps: majors get 0..5, minors
    /// 5..36.
    pub const fn dense_index(self) -> usize {
        match self {
            CdnName::A => 0,
            CdnName::B => 1,
            CdnName::C => 2,
            CdnName::D => 3,
            CdnName::E => 4,
            CdnName::Minor(n) => 5 + n as usize,
        }
    }

    /// Inverse of [`dense_index`](Self::dense_index).
    #[expect(clippy::cast_possible_truncation, reason = "the arm only matches n < 36")]
    pub const fn from_dense_index(i: usize) -> Option<CdnName> {
        match i {
            0 => Some(CdnName::A),
            1 => Some(CdnName::B),
            2 => Some(CdnName::C),
            3 => Some(CdnName::D),
            4 => Some(CdnName::E),
            n if n < 36 => Some(CdnName::Minor((n - 5) as u8)),
            _ => None,
        }
    }

    /// Whether this is one of the five majors.
    pub const fn is_major(self) -> bool {
        !matches!(self, CdnName::Minor(_))
    }

    /// Typed ID corresponding to the dense index.
    #[expect(clippy::cast_possible_truncation, reason = "dense CDN indexes are below 36")]
    pub const fn id(self) -> CdnId {
        CdnId::new(self.dense_index() as u32)
    }

    /// Hostname fragment used when the packager generates chunk/manifest
    /// URLs on this CDN (mirrors the `akamaihd.net` / `llwnd.net` /
    /// `level3.net` shapes of Table 1 without naming real operators).
    pub fn host(self) -> String {
        match self {
            CdnName::A => "edge.cdn-a.example.net".to_string(),
            CdnName::B => "media.cdn-b.example.net".to_string(),
            CdnName::C => "cache.cdn-c.example.net".to_string(),
            CdnName::D => "video.cdn-d.example.net".to_string(),
            CdnName::E => "stream.cdn-e.example.net".to_string(),
            CdnName::Minor(n) => format!("edge{n}.minor-cdn.example.net"),
        }
    }
}

impl fmt::Display for CdnName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdnName::A => write!(f, "CDN-A"),
            CdnName::B => write!(f, "CDN-B"),
            CdnName::C => write!(f, "CDN-C"),
            CdnName::D => write!(f, "CDN-D"),
            CdnName::E => write!(f, "CDN-E"),
            CdnName::Minor(n) => write!(f, "CDN-m{n}"),
        }
    }
}

/// The CDNs that served one view (§3: "the CDN(s) used during the view"):
/// one bit per [`CdnName::dense_index`], so the set is `Copy` and owns no
/// heap block. It is built only from names, and a name outside the 36
/// observed CDNs (a `Minor(n)` with `n ≥ 31`) is never a member, so the set
/// cannot hold an id the store's CDN column has no bit for.
///
/// `Debug` and the JSON form list the members' [`CdnId`]s in ascending
/// order, the form a one-CDN `Vec<CdnId>` had.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CdnSet(u64);

impl CdnSet {
    /// The bit of `cdn`, zero outside the observed CDNs.
    const fn bit(cdn: CdnName) -> u64 {
        let index = cdn.dense_index();
        if index < CdnName::OBSERVED_TOTAL {
            1 << index
        } else {
            0
        }
    }

    /// Adds `cdn` (a no-op outside the observed CDNs).
    pub fn insert(&mut self, cdn: CdnName) {
        self.0 |= Self::bit(cdn);
    }

    /// Whether `cdn` served the view.
    pub const fn contains(self, cdn: CdnName) -> bool {
        self.0 & Self::bit(cdn) != 0
    }

    /// The mask: bit `i` is set when the CDN of dense index `i` is a
    /// member, and bits 36..64 are always clear.
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The members, in ascending dense index.
    pub fn iter(self) -> impl Iterator<Item = CdnName> {
        CdnName::all_observed().filter(move |cdn| self.contains(*cdn))
    }
}

impl From<CdnName> for CdnSet {
    fn from(cdn: CdnName) -> CdnSet {
        CdnSet(Self::bit(cdn))
    }
}

impl FromIterator<CdnName> for CdnSet {
    fn from_iter<I: IntoIterator<Item = CdnName>>(cdns: I) -> CdnSet {
        let mut set = CdnSet::default();
        for cdn in cdns {
            set.insert(cdn);
        }
        set
    }
}

impl fmt::Debug for CdnSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter().map(CdnName::id)).finish()
    }
}

impl Serialize for CdnSet {
    fn to_json(&self) -> serde::Json {
        serde::Json::Array(self.iter().map(|cdn| cdn.id().to_json()).collect())
    }
}

/// How a CDN steers clients to edge servers (§4.3 notes one of the top three
/// CDNs uses anycast, which is susceptible to BGP route changes that sever
/// TCP connections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum RoutingScheme {
    /// DNS-based mapping to a nearby edge.
    DnsUnicast,
    /// BGP anycast: one IP, routing picks the edge; route flaps can reset
    /// in-flight transfers.
    Anycast,
}

impl RoutingScheme {
    /// Routing used by each major CDN in our model (B is the anycast one).
    pub const fn for_cdn(name: CdnName) -> RoutingScheme {
        match name {
            CdnName::B => RoutingScheme::Anycast,
            _ => RoutingScheme::DnsUnicast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_index_round_trip() {
        for cdn in CdnName::all_observed() {
            assert_eq!(CdnName::from_dense_index(cdn.dense_index()), Some(cdn));
        }
        assert_eq!(CdnName::from_dense_index(36), None);
    }

    #[test]
    fn observed_total_is_36() {
        assert_eq!(CdnName::all_observed().count(), CdnName::OBSERVED_TOTAL);
    }

    #[test]
    fn exactly_one_major_uses_anycast() {
        let anycast: Vec<_> = CdnName::MAJORS
            .iter()
            .filter(|c| RoutingScheme::for_cdn(**c) == RoutingScheme::Anycast)
            .collect();
        assert_eq!(anycast.len(), 1);
    }

    #[test]
    fn cdn_set_holds_observed_names_only() {
        let set: CdnSet =
            [CdnName::C, CdnName::A, CdnName::Minor(30), CdnName::A].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [CdnName::A, CdnName::C, CdnName::Minor(30)]);
        assert!(set.contains(CdnName::Minor(30)) && !set.contains(CdnName::B));
        assert_eq!(set.bits(), 1 | 1 << 2 | 1 << 35);
        // Beyond the 36 observed CDNs there is no bit to set.
        let mut outside = CdnSet::from(CdnName::Minor(31));
        outside.insert(CdnName::Minor(u8::MAX));
        assert_eq!(outside, CdnSet::default());
        assert!(!outside.contains(CdnName::Minor(31)));
    }

    #[test]
    fn cdn_set_prints_and_serializes_as_its_ids() {
        let set: CdnSet = [CdnName::E, CdnName::B].into_iter().collect();
        assert_eq!(format!("{set:?}"), format!("{:?}", vec![CdnName::B.id(), CdnName::E.id()]));
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(json, "[1,4]");
    }

    #[test]
    fn hosts_are_distinct() {
        let mut hosts: Vec<_> = CdnName::all_observed().map(|c| c.host()).collect();
        hosts.sort();
        hosts.dedup();
        assert_eq!(hosts.len(), CdnName::OBSERVED_TOTAL);
    }
}
