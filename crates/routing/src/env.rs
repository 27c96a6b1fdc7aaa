//! The simulation environment: inputs beyond the configurations.
//!
//! The paper (§2, Stage 2): *"the environment … included link states
//! (up/down) and routing messages from external neighbors."* Both survive
//! into the evolved engine: an [`Environment`] can fail links and inject
//! eBGP announcements from peers outside the snapshot (transit providers,
//! route servers), which is how the generated WAN/enterprise networks get
//! their default and Internet routes.

use batnet_net::{AsPath, Asn, Community, Ip, Prefix};

/// A BGP announcement arriving from a peer that is not part of the
/// snapshot (e.g. a transit provider).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExternalAnnouncement {
    /// Device in the snapshot that receives the announcement.
    pub device: String,
    /// The configured neighbor the announcement arrives on. The device
    /// must have a `BgpNeighbor` with this peer address; the announcement
    /// is processed through that neighbor's import policy.
    pub peer_ip: Ip,
    /// Announced prefix.
    pub prefix: Prefix,
    /// AS path as sent by the peer (its own AS first).
    pub as_path: AsPath,
    /// MED.
    pub med: u32,
    /// Communities attached by the peer.
    pub communities: Vec<Community>,
}

impl ExternalAnnouncement {
    /// A plain announcement of `prefix` from `peer_as` at `peer_ip`.
    pub fn simple(device: impl Into<String>, peer_ip: Ip, peer_as: Asn, prefix: Prefix) -> Self {
        ExternalAnnouncement {
            device: device.into(),
            peer_ip,
            prefix,
            as_path: AsPath(vec![peer_as]),
            med: 0,
            communities: Vec::new(),
        }
    }
}

/// Everything the simulation takes besides the configurations.
#[derive(Clone, Debug, Default)]
pub struct Environment {
    /// Links forced down, as `(device, interface)` pairs. Both ends of a
    /// link die when either side is listed (the physical layer is shared).
    pub failed_interfaces: Vec<(String, String)>,
    /// Announcements from outside the snapshot.
    pub announcements: Vec<ExternalAnnouncement>,
}

impl Environment {
    /// The empty environment: all links up, no external routes.
    pub fn none() -> Environment {
        Environment::default()
    }

    /// Is this interface forced down?
    pub fn interface_failed(&self, device: &str, interface: &str) -> bool {
        self.failed_interfaces
            .iter()
            .any(|(d, i)| d == device && i == interface)
    }

    /// A generated network's environment, for tests that simulate one.
    /// `batnet-topogen` links the library build of this crate, so its
    /// environment is another type than a test build's: copy it field by
    /// field.
    #[cfg(test)]
    pub(crate) fn of(net: &batnet_topogen::GeneratedNetwork) -> Environment {
        let announcements = net.env.announcements.iter().map(|a| ExternalAnnouncement {
            device: a.device.clone(),
            peer_ip: a.peer_ip,
            prefix: a.prefix,
            as_path: a.as_path.clone(),
            med: a.med,
            communities: a.communities.clone(),
        });
        Environment {
            failed_interfaces: net.env.failed_interfaces.clone(),
            announcements: announcements.collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_interface_lookup() {
        let mut env = Environment::none();
        env.failed_interfaces.push(("r1".into(), "e1".into()));
        assert!(env.interface_failed("r1", "e1"));
        assert!(!env.interface_failed("r1", "e2"));
        assert!(!env.interface_failed("r2", "e1"));
    }

    #[test]
    fn simple_announcement() {
        let a = ExternalAnnouncement::simple(
            "border1",
            "203.0.113.1".parse().unwrap(),
            Asn(174),
            "0.0.0.0/0".parse().unwrap(),
        );
        assert_eq!(a.as_path.length(), 1);
        assert_eq!(a.device, "border1");
    }
}
