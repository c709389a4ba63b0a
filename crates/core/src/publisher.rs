//! Publisher descriptors.
//!
//! A publisher is the entity operating a video management plane. The
//! descriptor here is the *static* identity; the per-snapshot management
//! plane configuration (protocols, CDNs, platforms, ladders) is built by
//! `vmp-synth` and materialized by `vmp-packaging`/`vmp-cdn`.

use crate::ids::PublisherId;
use serde::Serialize;
use std::fmt;

/// Editorial category of a publisher. The dataset includes subscription
/// services, sports and news broadcasters, and on-demand publishers (§1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PublisherKind {
    /// Subscription VoD service (7 of the top 10 are in the dataset).
    SubscriptionVod,
    /// Sports broadcaster (live-heavy).
    Sports,
    /// News broadcaster (live + clips).
    News,
    /// Ad-supported on-demand publisher.
    OnDemand,
    /// Broadcast-TV publisher moving online (§1's "traditional" cohort).
    Broadcaster,
}

impl PublisherKind {
    /// All kinds.
    pub const ALL: [PublisherKind; 5] = [
        PublisherKind::SubscriptionVod,
        PublisherKind::Sports,
        PublisherKind::News,
        PublisherKind::OnDemand,
        PublisherKind::Broadcaster,
    ];

    /// Typical share of view-hours that are live for this kind of
    /// publisher (the rest is VoD).
    pub const fn live_share(self) -> f64 {
        match self {
            PublisherKind::SubscriptionVod => 0.02,
            PublisherKind::Sports => 0.80,
            PublisherKind::News => 0.55,
            PublisherKind::OnDemand => 0.0,
            PublisherKind::Broadcaster => 0.30,
        }
    }
}

impl fmt::Display for PublisherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PublisherKind::SubscriptionVod => "subscription-VoD",
            PublisherKind::Sports => "sports",
            PublisherKind::News => "news",
            PublisherKind::OnDemand => "on-demand",
            PublisherKind::Broadcaster => "broadcaster",
        };
        f.write_str(s)
    }
}

/// Syndication role of a publisher (§6). Owners originate content;
/// full syndicators license and redistribute whole catalogues; some
/// publishers do both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum SyndicationRole {
    /// Only serves content it owns.
    OwnerOnly,
    /// Only redistributes licensed content (a "full syndicator").
    FullSyndicator,
    /// Owns some content and syndicates some.
    Mixed,
}

/// Static publisher identity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Publisher {
    /// Anonymized publisher ID.
    pub id: PublisherId,
    /// Editorial category.
    pub kind: PublisherKind,
    /// Syndication role.
    pub role: SyndicationRole,
}

impl Publisher {
    /// Creates a publisher descriptor.
    pub const fn new(id: PublisherId, kind: PublisherKind, role: SyndicationRole) -> Self {
        Self { id, kind, role }
    }

    /// Whether this publisher serves any live content under our model.
    pub fn serves_live(&self) -> bool {
        self.kind.live_share() > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_shares_are_probabilities() {
        for k in PublisherKind::ALL {
            let s = k.live_share();
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn sports_is_live_heavy() {
        assert!(PublisherKind::Sports.live_share() > PublisherKind::SubscriptionVod.live_share());
        assert!(!Publisher::new(
            PublisherId::new(0),
            PublisherKind::OnDemand,
            SyndicationRole::OwnerOnly
        )
        .serves_live());
    }
}
