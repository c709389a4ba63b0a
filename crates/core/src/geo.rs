//! Client geography, ISPs and access-network connection types.
//!
//! §6's QoE comparison restricts clients to California iPads on specific
//! ISP/CDN combinations and compares like-for-like connection types
//! (WiFi / 4G / wired), so these are first-class telemetry dimensions.

use serde::Serialize;
use std::fmt;

/// Coarse client region (the study spans 180 countries; for experiments we
/// keep a small closed set with one named US state used by §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Region {
    /// California, USA (the §6 filter).
    California,
    /// Rest of the United States.
    UsOther,
    /// Europe.
    Europe,
    /// Asia-Pacific.
    AsiaPacific,
    /// Latin America.
    LatinAmerica,
    /// Everywhere else.
    RestOfWorld,
}

impl Region {
    /// All regions.
    pub const ALL: [Region; 6] = [
        Region::California,
        Region::UsOther,
        Region::Europe,
        Region::AsiaPacific,
        Region::LatinAmerica,
        Region::RestOfWorld,
    ];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<Region> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::California => "California",
            Region::UsOther => "US-other",
            Region::Europe => "Europe",
            Region::AsiaPacific => "Asia-Pacific",
            Region::LatinAmerica => "Latin-America",
            Region::RestOfWorld => "Rest-of-world",
        };
        f.write_str(s)
    }
}

/// Anonymized last-mile ISP (§6 uses "ISP X" and "ISP Y").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Isp {
    /// ISP "X".
    X,
    /// ISP "Y".
    Y,
    /// ISP "Z" (everything else, long tail).
    Z,
}

impl Isp {
    /// All ISPs.
    pub const ALL: [Isp; 3] = [Isp::X, Isp::Y, Isp::Z];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<Isp> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }
}

impl fmt::Display for Isp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Isp::X => "ISP-X",
            Isp::Y => "ISP-Y",
            Isp::Z => "ISP-Z",
        };
        f.write_str(s)
    }
}

/// Access network type; bitrate ladders and network models differ per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum ConnectionType {
    /// Home/office WiFi.
    Wifi,
    /// Cellular 4G/LTE.
    Cellular4g,
    /// Wired ethernet (set-tops, consoles, desktops).
    Wired,
}

impl ConnectionType {
    /// All connection types.
    pub const ALL: [ConnectionType; 3] =
        [ConnectionType::Wifi, ConnectionType::Cellular4g, ConnectionType::Wired];

    /// Number of distinct dimension codes.
    pub const CODE_COUNT: usize = Self::ALL.len();

    /// Dense dictionary code for columnar storage (declaration order).
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`code`](Self::code).
    pub const fn from_code(code: u8) -> Option<ConnectionType> {
        if (code as usize) < Self::CODE_COUNT {
            Some(Self::ALL[code as usize])
        } else {
            None
        }
    }
}

impl fmt::Display for ConnectionType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConnectionType::Wifi => "WiFi",
            ConnectionType::Cellular4g => "4G",
            ConnectionType::Wired => "Wired",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_stable() {
        assert_eq!(Region::California.to_string(), "California");
        assert_eq!(Isp::X.to_string(), "ISP-X");
        assert_eq!(ConnectionType::Cellular4g.to_string(), "4G");
    }

    #[test]
    fn closed_sets() {
        assert_eq!(Region::ALL.len(), 6);
        assert_eq!(Isp::ALL.len(), 3);
        assert_eq!(ConnectionType::ALL.len(), 3);
    }

    #[test]
    fn dimension_codes_round_trip() {
        for r in Region::ALL {
            assert_eq!(Region::from_code(r.code()), Some(r));
        }
        for i in Isp::ALL {
            assert_eq!(Isp::from_code(i.code()), Some(i));
        }
        for c in ConnectionType::ALL {
            assert_eq!(ConnectionType::from_code(c.code()), Some(c));
        }
        assert_eq!(Region::from_code(Region::CODE_COUNT as u8), None);
        assert_eq!(Isp::from_code(Isp::CODE_COUNT as u8), None);
        assert_eq!(ConnectionType::from_code(ConnectionType::CODE_COUNT as u8), None);
    }
}
