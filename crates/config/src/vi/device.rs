//! The device-level VI model: interfaces, routing processes, firewall zones.

use super::acl::Acl;
use super::nat::NatRule;
use super::policy::{CommunityList, PrefixList, RouteMap};
use batnet_net::{Asn, Ip, Prefix};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Where a VI structure came from in the original configuration text.
///
/// Dialect parsers record the 1-based line number of the defining
/// statement at construction time and grow `end_line` as the block's
/// body lines arrive, so a span covers the whole structure (an ACL with
/// its lines, a route-map clause with its match/set statements, a BGP
/// neighbor stanza across its statements). The `file` component is
/// stamped once per device by [`Device::stamp_source_file`] (the
/// detect-layer entry point does this with the device name). A default
/// span (`line == 0`) means "location unknown" — hand-built models and
/// documented-default structures carry it. Single-line structures keep
/// `end_line == line`, and the reporting layers (lint JSON/SARIF) print
/// only `line`, so their output is unchanged by the range extension.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SourceSpan {
    /// Source artifact the structure was parsed from (device/file stem).
    pub file: String,
    /// 1-based line number of the defining statement; 0 = unknown.
    pub line: u32,
    /// 1-based last line of the structure's block; equals `line` for
    /// single-line structures, 0 = unknown.
    pub end_line: u32,
}

impl SourceSpan {
    /// A single-line span at `line` with the file left for later stamping.
    pub fn at(line: usize) -> SourceSpan {
        SourceSpan {
            file: String::new(),
            line: line as u32,
            end_line: line as u32,
        }
    }

    /// A span covering `start..=end` (inclusive line range).
    pub fn range(start: usize, end: usize) -> SourceSpan {
        SourceSpan {
            file: String::new(),
            line: start as u32,
            end_line: end.max(start) as u32,
        }
    }

    /// Grows the span to include `line` (no-op for unknown spans, so a
    /// documented-default structure never acquires a phantom location).
    pub fn extend_to(&mut self, line: usize) {
        if self.is_known() {
            self.end_line = self.end_line.max(line as u32);
        }
    }

    /// Is this a real location (as opposed to the unknown default)?
    pub fn is_known(&self) -> bool {
        self.line != 0
    }

    /// The last line of the span (for robustness, never before `line`).
    pub fn end(&self) -> u32 {
        self.end_line.max(self.line)
    }
}

/// A layer-3 interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interface {
    /// Interface name as configured (`Ethernet1`, `ge-0/0/0`, …).
    pub name: String,
    /// Primary IPv4 address and prefix length, if addressed.
    pub address: Option<(Ip, u8)>,
    /// Additional addresses (secondaries, VIPs).
    pub secondary_addresses: Vec<(Ip, u8)>,
    /// Administratively up? (`shutdown` clears this.)
    pub enabled: bool,
    /// Name of the inbound ACL, if any.
    pub acl_in: Option<String>,
    /// Name of the outbound ACL, if any.
    pub acl_out: Option<String>,
    /// OSPF interface cost override.
    pub ospf_cost: Option<u32>,
    /// OSPF area, if the interface runs OSPF.
    pub ospf_area: Option<u32>,
    /// OSPF passive: advertise the subnet but form no adjacency.
    pub ospf_passive: bool,
    /// Firewall zone membership.
    pub zone: Option<String>,
    /// Interface MTU (default 1500).
    pub mtu: u32,
    /// Free-text description.
    pub description: Option<String>,
}

impl Interface {
    /// A fresh, enabled, unaddressed interface.
    pub fn new(name: impl Into<String>) -> Interface {
        Interface {
            name: name.into(),
            address: None,
            secondary_addresses: Vec::new(),
            enabled: true,
            acl_in: None,
            acl_out: None,
            ospf_cost: None,
            ospf_area: None,
            ospf_passive: false,
            zone: None,
            mtu: 1500,
            description: None,
        }
    }

    /// The connected prefix of the primary address alone. Only the
    /// benchmark's input generators (`benchmark/src/inputs.rs` and
    /// `batch.rs`) call it; in the workspace clippy's `disallowed-methods`
    /// sends every caller to [`Interface::connected_prefixes`], and
    /// [`Interface::shares_primary_subnet`] is the one decision that means
    /// the primary subnet.
    pub fn connected_prefix(&self) -> Option<Prefix> {
        self.address.map(|(ip, len)| Prefix::new(ip, len))
    }

    /// The interface's own IP, if addressed.
    pub fn ip(&self) -> Option<Ip> {
        self.address.map(|(ip, _)| ip)
    }

    /// Every `(address, length)`: the primary, then the secondaries.
    fn all_addresses(&self) -> impl Iterator<Item = (Ip, u8)> + '_ {
        self.address.into_iter().chain(self.secondary_addresses.iter().copied())
    }

    /// Every address of the interface: the primary, then the secondaries.
    pub fn addresses(&self) -> impl Iterator<Item = Ip> + '_ {
        self.all_addresses().map(|(ip, _)| ip)
    }

    /// Every connected prefix: the primary's, then the secondaries', in
    /// the order of [`Interface::addresses`]. The one answer to "which
    /// subnets does this interface connect" in every layer.
    pub fn connected_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.all_addresses().map(|(ip, len)| Prefix::new(ip, len))
    }

    /// Do this interface and `other`, topology neighbours, share their
    /// primary subnets? IOS forms an OSPF adjacency only over the primary
    /// subnet, so both OSPF engines (routing's and the Datalog
    /// baseline's) drop a neighbour that shares only a secondary one: its
    /// primary address, OSPF's next hop, is not on the link.
    #[allow(clippy::disallowed_methods)] // OSPF adjacency means the primary subnet alone
    pub fn shares_primary_subnet(&self, other: &Interface) -> bool {
        self.connected_prefix().is_some_and(|p| other.connected_prefix() == Some(p))
    }

    /// Is the interface up and addressed (i.e. participates in routing)?
    pub fn is_active(&self) -> bool {
        self.enabled && self.address.is_some()
    }
}

/// Next hop of a static route.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NextHop {
    /// Forward towards this gateway address (recursively resolved).
    Ip(Ip),
    /// Discard (null interface) — used for aggregates and blackholes.
    Discard,
}

/// A configured static route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StaticRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Where matching packets go.
    pub next_hop: NextHop,
    /// Administrative distance (default 1).
    pub admin_distance: u8,
}

/// The OSPF process of a device (single process, VRF "default" — the model
/// the generated networks exercise; multi-VRF is future work recorded in
/// DESIGN.md).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct OspfProcess {
    /// Router id; defaults to the highest interface address when absent.
    pub router_id: Option<Ip>,
    /// Reference bandwidth for auto-cost, in Mbps (default 100_000).
    pub reference_bandwidth_mbps: u32,
    /// Redistribute connected routes into OSPF.
    pub redistribute_connected: bool,
    /// Redistribute static routes into OSPF.
    pub redistribute_static: bool,
    /// Default cost for interfaces without an explicit cost.
    pub default_cost: u32,
}

/// One configured BGP neighbor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpNeighbor {
    /// Peer address the session is configured towards.
    pub peer_ip: Ip,
    /// Peer AS number.
    pub remote_as: Asn,
    /// Import routing policy (route-map applied `in`). `None` means the
    /// vendor default: accept everything.
    pub import_policy: Option<String>,
    /// Export routing policy (route-map applied `out`). `None` means the
    /// vendor default: advertise everything in the BGP RIB.
    pub export_policy: Option<String>,
    /// Rewrite next-hop to self on iBGP export (reflectors/borders).
    pub next_hop_self: bool,
    /// Propagate communities to this peer.
    pub send_community: bool,
    /// Free-text description.
    pub description: Option<String>,
    /// Where the neighbor block was defined.
    pub src: SourceSpan,
}

impl BgpNeighbor {
    /// A neighbor with vendor-default policies.
    pub fn new(peer_ip: Ip, remote_as: Asn) -> BgpNeighbor {
        BgpNeighbor {
            peer_ip,
            remote_as,
            import_policy: None,
            export_policy: None,
            next_hop_self: false,
            send_community: true,
            description: None,
            src: SourceSpan::default(),
        }
    }
}

/// The BGP process of a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BgpProcess {
    /// Local AS number.
    pub asn: Asn,
    /// Router id; defaults like OSPF's.
    pub router_id: Option<Ip>,
    /// Configured neighbors.
    pub neighbors: Vec<BgpNeighbor>,
    /// `network` statements: prefixes originated if present in the main RIB.
    pub networks: Vec<Prefix>,
    /// Redistribute connected routes into BGP.
    pub redistribute_connected: bool,
    /// Redistribute static routes into BGP.
    pub redistribute_static: bool,
    /// Redistribute OSPF routes into BGP.
    pub redistribute_ospf: bool,
}

impl BgpProcess {
    /// A BGP process with no neighbors yet.
    pub fn new(asn: Asn) -> BgpProcess {
        BgpProcess {
            asn,
            router_id: None,
            neighbors: Vec::new(),
            networks: Vec::new(),
            redistribute_connected: false,
            redistribute_static: false,
            redistribute_ospf: false,
        }
    }
}

/// A firewall zone: a named set of interfaces (§4.2.3, zone-based
/// firewalls).
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Zone {
    /// Zone name.
    pub name: String,
    /// Member interface names.
    pub interfaces: Vec<String>,
}

/// An inter-zone policy: traffic entering via `from_zone` and leaving via
/// `to_zone` is filtered by the ACL named `acl`, which
/// [`Device::zone_acl`] resolves. Absent policies fall back to the
/// device-wide default ([`Device::zone_default_permit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ZonePolicy {
    /// Ingress zone name.
    pub from_zone: String,
    /// Egress zone name.
    pub to_zone: String,
    /// Name of the filter applied to matching traffic.
    pub acl: String,
    /// Where the policy statement was written.
    pub src: SourceSpan,
}

/// The vendor-independent model of one device.
///
/// `BTreeMap`s keep iteration deterministic, which the convergence and
/// reporting layers rely on (§4.1.2: stable results across runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Device {
    /// Device (host)name; unique within a snapshot.
    pub name: String,
    /// Interfaces by name.
    pub interfaces: BTreeMap<String, Interface>,
    /// Static routes.
    pub static_routes: Vec<StaticRoute>,
    /// OSPF process, if configured.
    pub ospf: Option<OspfProcess>,
    /// BGP process, if configured.
    pub bgp: Option<BgpProcess>,
    /// Route maps by name.
    pub route_maps: BTreeMap<String, RouteMap>,
    /// Prefix lists by name.
    pub prefix_lists: BTreeMap<String, PrefixList>,
    /// Community lists by name.
    pub community_lists: BTreeMap<String, CommunityList>,
    /// ACLs by name.
    pub acls: BTreeMap<String, Acl>,
    /// NAT rules in evaluation order.
    pub nat_rules: Vec<NatRule>,
    /// Firewall zones by name.
    pub zones: BTreeMap<String, Zone>,
    /// Inter-zone policies.
    pub zone_policies: Vec<ZonePolicy>,
    /// When no zone policy matches a (from, to) zone pair: permit?
    /// Vendor-default deny, as on real zone firewalls.
    pub zone_default_permit: bool,
    /// Is this device a stateful zone firewall? Set for zone firewalls;
    /// both engines apply its zone policy to every transiting flow.
    pub stateful: bool,
    /// Configured NTP servers (management-plane consistency checks).
    pub ntp_servers: Vec<Ip>,
    /// Configured DNS servers.
    pub dns_servers: Vec<Ip>,
    /// Lint checks disabled in this config via the inline
    /// `batnet-lint-disable <check>` comment directive (sorted, deduped).
    pub lint_suppressions: Vec<String>,
}

impl Device {
    /// An empty device model.
    pub fn new(name: impl Into<String>) -> Device {
        Device {
            name: name.into(),
            interfaces: BTreeMap::new(),
            static_routes: Vec::new(),
            ospf: None,
            bgp: None,
            route_maps: BTreeMap::new(),
            prefix_lists: BTreeMap::new(),
            community_lists: BTreeMap::new(),
            acls: BTreeMap::new(),
            nat_rules: Vec::new(),
            zones: BTreeMap::new(),
            zone_policies: Vec::new(),
            zone_default_permit: false,
            stateful: false,
            ntp_servers: Vec::new(),
            dns_servers: Vec::new(),
            lint_suppressions: Vec::new(),
        }
    }

    /// Stamps `file` onto every structure source span whose line is
    /// known. Called once after dialect parsing, when the caller knows
    /// which artifact the text came from.
    pub fn stamp_source_file(&mut self, file: &str) {
        let stamp = |src: &mut SourceSpan| {
            if src.is_known() && src.file.is_empty() {
                src.file = file.to_string();
            }
        };
        for acl in self.acls.values_mut() {
            stamp(&mut acl.src);
        }
        for rm in self.route_maps.values_mut() {
            stamp(&mut rm.src);
        }
        if let Some(bgp) = &mut self.bgp {
            for nb in &mut bgp.neighbors {
                stamp(&mut nb.src);
            }
        }
        for zp in &mut self.zone_policies {
            stamp(&mut zp.src);
        }
    }

    /// The effective router id: configured, else highest interface address,
    /// else 0.0.0.0. Shared by OSPF and BGP per vendor convention.
    pub fn router_id(&self) -> Ip {
        if let Some(bgp) = &self.bgp {
            if let Some(id) = bgp.router_id {
                return id;
            }
        }
        if let Some(ospf) = &self.ospf {
            if let Some(id) = ospf.router_id {
                return id;
            }
        }
        self.interfaces
            .values()
            .filter_map(Interface::ip)
            .max()
            .unwrap_or(Ip::ZERO)
    }

    /// The filter for traffic from zone `from` to zone `to`: `None` when no
    /// policy names the pair, so [`Device::zone_default_permit`] applies.
    /// A policy whose ACL is undefined resolves to the empty ACL, which
    /// denies everything: the documented fail-closed default.
    pub fn zone_acl(&self, from: &str, to: &str) -> Option<Cow<'_, Acl>> {
        let zp = self.zone_policies.iter().find(|zp| zp.from_zone == from && zp.to_zone == to)?;
        Some(match self.acls.get(&zp.acl) {
            Some(acl) => Cow::Borrowed(acl),
            None => Cow::Owned(Acl::new(zp.acl.as_str())),
        })
    }

    /// All active (up + addressed) interfaces, deterministically ordered.
    pub fn active_interfaces(&self) -> impl Iterator<Item = &Interface> {
        self.interfaces.values().filter(|i| i.is_active())
    }

    /// Looks up the zone an interface belongs to, via either the
    /// interface's own `zone` attribute or zone membership lists.
    pub fn zone_of_interface(&self, ifname: &str) -> Option<&str> {
        if let Some(iface) = self.interfaces.get(ifname) {
            if let Some(z) = &iface.zone {
                return Some(z.as_str());
            }
        }
        self.zones
            .values()
            .find(|z| z.interfaces.iter().any(|i| i == ifname))
            .map(|z| z.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    #[test]
    fn source_span_ranges() {
        let single = SourceSpan::at(7);
        assert_eq!((single.line, single.end()), (7, 7));
        assert!(single.is_known());
        let mut block = SourceSpan::range(10, 14);
        assert_eq!((block.line, block.end()), (10, 14));
        block.extend_to(12); // no shrink
        assert_eq!(block.end(), 14);
        block.extend_to(20);
        assert_eq!(block.end(), 20);
        // Unknown spans never acquire a phantom end.
        let mut unknown = SourceSpan::default();
        unknown.extend_to(5);
        assert!(!unknown.is_known());
        assert_eq!(unknown.end(), 0);
        // Degenerate range clamps end to start.
        assert_eq!(SourceSpan::range(9, 3).end(), 9);
    }

    #[test]
    fn router_id_precedence() {
        let mut d = Device::new("r1");
        let mut i1 = Interface::new("e1");
        i1.address = Some((ip("10.0.0.5"), 24));
        let mut i2 = Interface::new("e2");
        i2.address = Some((ip("192.168.0.1"), 30));
        d.interfaces.insert("e1".into(), i1);
        d.interfaces.insert("e2".into(), i2);
        // No processes: highest interface IP.
        assert_eq!(d.router_id(), ip("192.168.0.1"));
        // OSPF-configured id wins over interfaces.
        d.ospf = Some(OspfProcess {
            router_id: Some(ip("1.1.1.1")),
            ..OspfProcess::default()
        });
        assert_eq!(d.router_id(), ip("1.1.1.1"));
        // BGP-configured id wins over OSPF's.
        let mut bgp = BgpProcess::new(Asn(65001));
        bgp.router_id = Some(ip("2.2.2.2"));
        d.bgp = Some(bgp);
        assert_eq!(d.router_id(), ip("2.2.2.2"));
    }

    #[test]
    fn shutdown_interface_not_active() {
        let mut i = Interface::new("e1");
        i.address = Some((ip("10.0.0.1"), 24));
        assert!(i.is_active());
        i.enabled = false;
        assert!(!i.is_active());
        let unaddressed = Interface::new("e2");
        assert!(!unaddressed.is_active());
    }

    #[test]
    fn connected_prefixes_mask_host_bits() {
        let mut i = Interface::new("e1");
        i.address = Some((ip("10.1.2.3"), 24));
        i.secondary_addresses.push((ip("10.9.9.1"), 24));
        let got: Vec<String> = i.connected_prefixes().map(|p| p.to_string()).collect();
        assert_eq!(got, ["10.1.2.0/24", "10.9.9.0/24"]);
    }

    #[test]
    fn zone_lookup_both_paths() {
        let mut d = Device::new("fw");
        let mut i1 = Interface::new("e1");
        i1.zone = Some("trust".into());
        d.interfaces.insert("e1".into(), i1);
        d.interfaces.insert("e2".into(), Interface::new("e2"));
        d.zones.insert(
            "untrust".into(),
            Zone {
                name: "untrust".into(),
                interfaces: vec!["e2".into()],
            },
        );
        assert_eq!(d.zone_of_interface("e1"), Some("trust"));
        assert_eq!(d.zone_of_interface("e2"), Some("untrust"));
        assert_eq!(d.zone_of_interface("e3"), None);
    }

    #[test]
    fn zone_acl_resolves_by_name_and_fails_closed() {
        let mut d = Device::new("fw");
        d.acls.insert("WEB".into(), Acl::permit_any("WEB"));
        for (from, to, acl) in [("trust", "untrust", "WEB"), ("untrust", "trust", "NOPE")] {
            d.zone_policies.push(ZonePolicy {
                from_zone: from.into(),
                to_zone: to.into(),
                acl: acl.into(),
                src: SourceSpan::at(1),
            });
        }
        assert!(matches!(d.zone_acl("trust", "untrust"), Some(Cow::Borrowed(a)) if a.lines.len() == 1));
        let undefined = d.zone_acl("untrust", "trust").expect("a policy names the pair");
        assert_eq!((undefined.name.as_str(), undefined.lines.len()), ("NOPE", 0));
        assert!(d.zone_acl("trust", "dmz").is_none());
    }
}
