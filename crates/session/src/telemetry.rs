//! The monitoring library: turning a view into a §3 view record.
//!
//! Conviva's library reports per-view metadata from inside the player; here
//! the equivalent step stamps the CDNs that served the view and its viewing
//! time with client context and the *manifest URL* (whose extension is the
//! only protocol signal that survives into analytics, per Table 1).

use crate::player::SessionOutcome;
use std::sync::Arc;
use vmp_core::content::ContentClass;
use vmp_core::device::DeviceModel;
use vmp_core::geo::{ConnectionType, Isp, Region};
use vmp_core::ids::{CdnId, PublisherId, SessionId, VideoId};
use vmp_core::sdk::{PlayerBuild, SdkKind, SdkVersion};
use vmp_core::time::SnapshotId;
use vmp_core::units::{Kbps, Seconds};
use vmp_core::view::{OwnershipFlag, PlayerIdentity, ViewRecord};

/// Client-side context for one view.
#[derive(Debug, Clone)]
pub struct ClientContext {
    /// Playback device.
    pub device: DeviceModel,
    /// SDK version for app platforms (browser views get a user-agent).
    pub sdk_version: SdkVersion,
    /// Client region.
    pub region: Region,
    /// Client ISP.
    pub isp: Isp,
    /// Access network type.
    pub connection: ConnectionType,
}

impl ClientContext {
    /// The player identity string/struct reported in telemetry. A function
    /// of `(device, sdk_version)` only, so a caller making many records may
    /// build it once per pair and clone it into each.
    pub fn player_identity(&self) -> PlayerIdentity {
        match self.device {
            DeviceModel::DesktopBrowser(tech) => PlayerIdentity::UserAgent(
                format!(
                    "Mozilla/5.0 (compatible; {}-player/{})",
                    tech.label().to_ascii_lowercase(),
                    self.sdk_version
                )
                .into(),
            ),
            DeviceModel::MobileBrowser => PlayerIdentity::UserAgent(
                format!("Mozilla/5.0 (Mobile; html5-player/{})", self.sdk_version).into(),
            ),
            other => PlayerIdentity::Sdk(PlayerBuild::new(SdkKind::for_device(other), self.sdk_version)),
        }
    }
}

/// Builder assembling the full [`ViewRecord`].
#[derive(Debug, Clone)]
pub struct TelemetryBuilder {
    /// Session identifier.
    pub session: SessionId,
    /// Snapshot window the view falls in.
    pub snapshot: SnapshotId,
    /// Publisher serving the view.
    pub publisher: PublisherId,
    /// Video ID (the *serving* publisher's ID for the title).
    pub video: VideoId,
    /// Manifest URL fetched by the player.
    pub manifest_url: String,
    /// Ladder advertised in the manifest, shared with every record built
    /// from it.
    pub available_bitrates: Arc<[Kbps]>,
    /// Live or VoD.
    pub class: ContentClass,
    /// Owned or syndicated.
    pub ownership: OwnershipFlag,
}

impl TelemetryBuilder {
    /// Stamps a played session's CDNs and media played with context into a
    /// complete record.
    pub fn build(&self, client: &ClientContext, outcome: &SessionOutcome) -> ViewRecord {
        let cdns = outcome.cdns.iter().map(|c| c.id()).collect();
        self.clone().into_record(client, client.player_identity(), cdns, outcome.qoe.played)
    }

    /// The record of a view that `cdns` served for `viewing_time`, from a
    /// builder made for that one view: the manifest URL moves into the
    /// record instead of being copied, and `player` — which must equal
    /// `client.player_identity()` — is taken as given, so a caller can
    /// share one identity across many records.
    pub fn into_record(
        self,
        client: &ClientContext,
        player: PlayerIdentity,
        cdns: Vec<CdnId>,
        viewing_time: Seconds,
    ) -> ViewRecord {
        debug_assert_eq!(player, client.player_identity());
        ViewRecord {
            session: self.session,
            snapshot: self.snapshot,
            publisher: self.publisher,
            video: self.video,
            manifest_url: self.manifest_url,
            device: client.device,
            os: client.device.os(),
            player,
            cdns,
            available_bitrates: self.available_bitrates,
            viewing_time,
            class: self.class,
            ownership: self.ownership,
            region: client.region,
            isp: client.isp,
            connection: client.connection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmp_core::cdn::CdnName;
    use vmp_core::platform::BrowserTech;
    use vmp_core::qoe::QoeSummary;

    fn outcome() -> SessionOutcome {
        SessionOutcome {
            qoe: QoeSummary {
                avg_bitrate: Kbps(2400),
                played: Seconds(1800.0),
                rebuffer_time: Seconds(12.0),
                startup_delay: Seconds(1.1),
                bitrate_switches: 4,
                cdn_switches: 1,
            },
            bitrates_used: vec![Kbps(1600), Kbps(3200)],
            cdns: vec![CdnName::A, CdnName::C],
            downloaded: Seconds(1800.0),
            exit: crate::player::ExitCause::Completed,
            retries: 0,
            timeouts: 0,
            end_clock: Seconds(1900.0),
        }
    }

    fn builder() -> TelemetryBuilder {
        TelemetryBuilder {
            session: SessionId::new(5),
            snapshot: SnapshotId::LAST,
            publisher: PublisherId::new(3),
            video: VideoId::new(10),
            manifest_url: "https://edge.cdn-a.example.net/p0003/v00000a/master.m3u8".into(),
            available_bitrates: [Kbps(400), Kbps(1600), Kbps(3200)].into(),
            class: ContentClass::Vod,
            ownership: OwnershipFlag::Owned,
        }
    }

    #[test]
    fn record_carries_the_sessions_cdns_and_media_played() {
        let client = ClientContext {
            device: DeviceModel::Roku,
            sdk_version: SdkVersion::new(9, 1),
            region: Region::UsOther,
            isp: Isp::Z,
            connection: ConnectionType::Wired,
        };
        let record = builder().build(&client, &outcome());
        assert_eq!(record.viewing_time, Seconds(1800.0));
        assert_eq!(record.cdns, [CdnName::A.id(), CdnName::C.id()]);
        match record.player {
            PlayerIdentity::Sdk(build) => {
                assert_eq!(build.sdk, SdkKind::RokuSceneGraph);
                assert_eq!(build.version, SdkVersion::new(9, 1));
            }
            _ => panic!("app platform must report an SDK"),
        }
    }

    #[test]
    fn consuming_path_equals_build() {
        let browsers = BrowserTech::ALL.map(DeviceModel::DesktopBrowser);
        for device in browsers.into_iter().chain([DeviceModel::MobileBrowser, DeviceModel::Roku]) {
            let client = ClientContext {
                device,
                sdk_version: SdkVersion::new(9, 1),
                region: Region::UsOther,
                isp: Isp::Z,
                connection: ConnectionType::Wired,
            };
            let built = builder().build(&client, &outcome());
            let consumed = builder().into_record(
                &client,
                client.player_identity(),
                vec![CdnName::A.id(), CdnName::C.id()],
                Seconds(1800.0),
            );
            assert_eq!(consumed, built, "{device:?}");
        }
    }

    #[test]
    fn browser_views_report_user_agent() {
        let client = ClientContext {
            device: DeviceModel::DesktopBrowser(BrowserTech::Flash),
            sdk_version: SdkVersion::new(21, 0),
            region: Region::Europe,
            isp: Isp::Y,
            connection: ConnectionType::Wifi,
        };
        let record = builder().build(&client, &outcome());
        match &record.player {
            PlayerIdentity::UserAgent(ua) => assert!(ua.contains("flash-player/21.0"), "{ua}"),
            _ => panic!("browser must report a user agent"),
        }
        assert_eq!(record.os, DeviceModel::DesktopBrowser(BrowserTech::Flash).os());
    }

    #[test]
    fn protocol_recoverable_from_url_only() {
        let client = ClientContext {
            device: DeviceModel::IPad,
            sdk_version: SdkVersion::new(11, 2),
            region: Region::California,
            isp: Isp::X,
            connection: ConnectionType::Wifi,
        };
        let record = builder().build(&client, &outcome());
        assert_eq!(
            vmp_manifest::classify(&record.manifest_url),
            Some(vmp_core::protocol::StreamingProtocol::Hls)
        );
    }
}
