//! Layer-3 topology inference from interface addressing.
//!
//! Batfish infers which interfaces are adjacent from the configurations
//! alone: two active interfaces whose addresses fall in the same subnet are
//! assumed to share a link. (Real Batfish also accepts explicit layer-1
//! topology files; address-based inference is its default and is what the
//! generated networks rely on.) The inferred [`Topology`] drives OSPF and
//! BGP adjacency, the dataflow graph's inter-device edges, and the
//! host-facing-interface heuristics of §4.4.2.
//! The same walk indexes who owns each address; routing, the graph, lint
//! and coverage all read that index and [`Topology::bgp_pairing`].

use crate::vi::{BgpNeighbor, Device};
use batnet_net::{Ip, Prefix};
use std::collections::BTreeMap;
use std::fmt;

/// A (device, interface) pair.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InterfaceRef {
    /// Device name.
    pub device: String,
    /// Interface name.
    pub interface: String,
}

impl InterfaceRef {
    /// Convenience constructor.
    pub fn new(device: impl Into<String>, interface: impl Into<String>) -> InterfaceRef {
        InterfaceRef {
            device: device.into(),
            interface: interface.into(),
        }
    }
}

impl fmt::Display for InterfaceRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.device, self.interface)
    }
}

/// An active interface that owns addresses, with the index of its device
/// in the slice the topology was inferred from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AddressOwner {
    /// Index into the inferred-from device slice.
    pub device: usize,
    /// The owning interface.
    pub interface: InterfaceRef,
}

/// How one configured BGP neighbor statement pairs inside the snapshot
/// (see [`Topology::bgp_pairing`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BgpPairing {
    /// The device owning the peer address — the last owner in device
    /// order — or `None` when no active interface owns it.
    pub peer: Option<usize>,
    /// Does the peer run BGP?
    pub peer_runs_bgp: bool,
    /// Is the neighbor's remote AS the peer's AS?
    pub as_match: bool,
    /// The peer's first neighbor entry that points back: our AS, at an
    /// address we own. Never set when the peer is the device itself.
    pub reverse: Option<usize>,
}

impl BgpPairing {
    /// Does the session pair: a BGP peer in the AS dialed that points
    /// back at us?
    pub fn pairs(&self) -> bool {
        self.peer_runs_bgp && self.as_match && self.reverse.is_some()
    }
}

/// The inferred layer-3 topology.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    /// Point-to-point-or-LAN edges: every unordered pair of interfaces on a
    /// shared subnet, stored in both directions for O(1) neighbor lookup.
    neighbors: BTreeMap<InterfaceRef, Vec<InterfaceRef>>,
    /// Number of undirected edges.
    edge_count: usize,
    /// Every active interface, in device order, then interface order.
    interfaces: Vec<AddressOwner>,
    /// Every address of an active interface, primary and secondary, with
    /// that interface's slot in `interfaces`: sorted by address, and the
    /// owners of one address in device order.
    owners: Vec<(Ip, usize)>,
}

impl Topology {
    /// Infers the topology from interface addressing: active interfaces
    /// sharing the same connected prefix are adjacent.
    ///
    /// `/32`s never form links, and an interface is never its own
    /// neighbor. Interfaces whose subnets contain no other interface are
    /// *edge interfaces* — candidates for the host-facing heuristic. The
    /// same walk fills the address-owner index.
    pub fn infer(devices: &[Device]) -> Topology {
        let mut topo = Topology::default();
        // Group active interfaces (by slot) by connected prefix.
        let mut by_prefix: BTreeMap<Prefix, Vec<usize>> = BTreeMap::new();
        for (di, d) in devices.iter().enumerate() {
            for i in d.active_interfaces() {
                let slot = topo.interfaces.len();
                topo.interfaces.push(AddressOwner {
                    device: di,
                    interface: InterfaceRef::new(&d.name, &i.name),
                });
                topo.owners.extend(i.addresses().map(|ip| (ip, slot)));
                if let Some(p) = i.connected_prefix() {
                    if p.len() < 32 {
                        by_prefix.entry(p).or_default().push(slot);
                    }
                }
            }
        }
        // Stable, so each address's owners stay in device order.
        topo.owners.sort_by_key(|&(ip, _)| ip);
        for slots in by_prefix.values() {
            for &a in slots {
                let a = &topo.interfaces[a].interface;
                for &b in slots {
                    let b = &topo.interfaces[b].interface;
                    if a != b {
                        topo.neighbors.entry(a.clone()).or_default().push(b.clone());
                    }
                }
            }
            let n = slots.len();
            topo.edge_count += n * n.saturating_sub(1) / 2;
        }
        topo
    }

    /// Interfaces adjacent to `iface` (same subnet, other device or same
    /// device — same-device adjacency would indicate a duplicate-subnet
    /// misconfiguration that the lint layer flags).
    pub fn neighbors_of(&self, iface: &InterfaceRef) -> &[InterfaceRef] {
        self.neighbors.get(iface).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Does this interface have any L3 neighbor? Interfaces without one
    /// face hosts or the outside world (§4.4.2's scoping heuristic).
    pub fn has_neighbor(&self, iface: &InterfaceRef) -> bool {
        !self.neighbors_of(iface).is_empty()
    }

    /// Number of undirected inferred edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All interfaces that appear in at least one edge.
    pub fn connected_interfaces(&self) -> impl Iterator<Item = &InterfaceRef> {
        self.neighbors.keys()
    }

    /// The `owners` entries for the addresses in `first..=last`.
    fn owned_in(&self, first: Ip, last: Ip) -> &[(Ip, usize)] {
        let start = self.owners.partition_point(|&(ip, _)| ip < first);
        let end = self.owners.partition_point(|&(ip, _)| ip <= last);
        &self.owners[start..end]
    }

    /// The active interfaces owning `ip`, in device order; empty when no
    /// interface does.
    pub fn owners(
        &self,
        ip: Ip,
    ) -> impl DoubleEndedIterator<Item = &AddressOwner> + ExactSizeIterator + '_ {
        self.owned_in(ip, ip).iter().map(|&(_, slot)| &self.interfaces[slot])
    }

    /// Every owned address, ascending.
    pub fn addresses(&self) -> impl Iterator<Item = Ip> + '_ {
        self.owners.chunk_by(|a, b| a.0 == b.0).map(|run| run[0].0)
    }

    /// The device owning `ip`: the last owner in device order.
    fn owner(&self, ip: Ip) -> Option<usize> {
        self.owners(ip).next_back().map(|o| o.device)
    }

    /// The neighbor of `iface` that owns `ip` — the last such owner in
    /// device order — i.e. where `iface` hands a packet for `ip`.
    pub fn neighbor_owning(&self, iface: &InterfaceRef, ip: Ip) -> Option<&InterfaceRef> {
        let neighbors = self.neighbors_of(iface);
        self.owners(ip)
            .rev()
            .map(|o| &o.interface)
            .find(|o| neighbors.contains(o))
    }

    /// Every address in `prefix` a neighbor of `iface` owns, ascending,
    /// with that neighbor (as [`Topology::neighbor_owning`] picks it).
    pub fn neighbor_addresses_in<'a>(
        &'a self,
        iface: &'a InterfaceRef,
        prefix: Prefix,
    ) -> impl Iterator<Item = (Ip, &'a InterfaceRef)> + 'a {
        self.owned_in(prefix.network(), prefix.last_ip())
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(move |run| Some((run[0].0, self.neighbor_owning(iface, run[0].0)?)))
    }

    /// Does neighbor statement `nb` of `devices[device]` pair in the
    /// snapshot? The peer is the last owner of the peer address in
    /// device order; the session pairs when the peer runs BGP in the AS
    /// `nb` dials and configures a neighbor back at an address the device
    /// owns, with the device's AS. A device never pairs with itself.
    /// `devices` must be the slice the topology was inferred from.
    pub fn bgp_pairing(&self, devices: &[Device], device: usize, nb: &BgpNeighbor) -> BgpPairing {
        let Some(pi) = self.owner(nb.peer_ip) else {
            return BgpPairing::default();
        };
        let Some(peer_bgp) = &devices[pi].bgp else {
            return BgpPairing { peer: Some(pi), ..BgpPairing::default() };
        };
        let local_as = devices[device].bgp.as_ref().map(|b| b.asn);
        let reverse = (pi != device)
            .then(|| {
                peer_bgp.neighbors.iter().position(|pn| {
                    Some(pn.remote_as) == local_as && self.owner(pn.peer_ip) == Some(device)
                })
            })
            .flatten();
        BgpPairing {
            peer: Some(pi),
            peer_runs_bgp: true,
            as_match: nb.remote_as == peer_bgp.asn,
            reverse,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vi::Interface;
    use batnet_net::Ip;

    fn device(name: &str, ifaces: &[(&str, &str, u8)]) -> Device {
        let mut d = Device::new(name);
        for (iname, ip, len) in ifaces {
            let mut i = Interface::new(*iname);
            i.address = Some((ip.parse::<Ip>().unwrap(), *len));
            d.interfaces.insert(iname.to_string(), i);
        }
        d
    }

    #[test]
    fn point_to_point_link() {
        let r1 = device("r1", &[("e1", "10.0.0.1", 31)]);
        let r2 = device("r2", &[("e1", "10.0.0.0", 31)]);
        let topo = Topology::infer(&[r1, r2]);
        assert_eq!(topo.edge_count(), 1);
        let n = topo.neighbors_of(&InterfaceRef::new("r1", "e1"));
        assert_eq!(n, &[InterfaceRef::new("r2", "e1")]);
    }

    #[test]
    fn lan_segment_full_mesh() {
        let r1 = device("r1", &[("e1", "10.0.0.1", 24)]);
        let r2 = device("r2", &[("e1", "10.0.0.2", 24)]);
        let r3 = device("r3", &[("e1", "10.0.0.3", 24)]);
        let topo = Topology::infer(&[r1, r2, r3]);
        assert_eq!(topo.edge_count(), 3);
        assert_eq!(topo.neighbors_of(&InterfaceRef::new("r1", "e1")).len(), 2);
    }

    #[test]
    fn different_subnets_no_link() {
        let r1 = device("r1", &[("e1", "10.0.0.1", 24)]);
        let r2 = device("r2", &[("e1", "10.0.1.1", 24)]);
        let topo = Topology::infer(&[r1, r2]);
        assert_eq!(topo.edge_count(), 0);
        assert!(!topo.has_neighbor(&InterfaceRef::new("r1", "e1")));
    }

    #[test]
    fn loopbacks_never_link() {
        let r1 = device("r1", &[("lo0", "1.1.1.1", 32)]);
        let r2 = device("r2", &[("lo0", "1.1.1.1", 32)]);
        let topo = Topology::infer(&[r1, r2]);
        assert_eq!(topo.edge_count(), 0);
    }

    #[test]
    fn shutdown_interface_excluded() {
        let r1 = device("r1", &[("e1", "10.0.0.1", 24)]);
        let mut r2 = device("r2", &[("e1", "10.0.0.2", 24)]);
        r2.interfaces.get_mut("e1").unwrap().enabled = false;
        let topo = Topology::infer(&[r1, r2]);
        assert_eq!(topo.edge_count(), 0);
    }

    #[test]
    fn owner_index_keeps_every_owner_in_device_order() {
        let r1 = device("r1", &[("e1", "10.0.0.1", 24)]);
        let mut r2 = device("r2", &[("e1", "10.0.0.2", 24)]);
        let e1 = r2.interfaces.get_mut("e1").unwrap();
        e1.secondary_addresses.push(("10.9.0.1".parse().unwrap(), 24));
        let r3 = device("r3", &[("e1", "10.0.0.2", 24)]);
        let topo = Topology::infer(&[r1, r2, r3]);
        let ip = |s: &str| s.parse::<Ip>().unwrap();
        let owners = |s: &str| topo.owners(ip(s)).map(|o| o.device).collect::<Vec<_>>();
        assert_eq!(owners("10.0.0.2"), [1, 2], "a duplicate keeps both owners");
        assert_eq!(owners("10.9.0.1"), [1], "secondary addresses are owned");
        assert!(owners("10.0.0.3").is_empty());
        let addresses: Vec<Ip> = topo.addresses().collect();
        assert_eq!(addresses, ["10.0.0.1", "10.0.0.2", "10.9.0.1"].map(ip));
        // The hand-off goes to the last owner among the neighbors.
        let me = InterfaceRef::new("r1", "e1");
        assert_eq!(topo.neighbor_owning(&me, ip("10.0.0.2")), Some(&InterfaceRef::new("r3", "e1")));
        assert_eq!(topo.neighbor_owning(&me, ip("10.9.0.1")), Some(&InterfaceRef::new("r2", "e1")));
        let on_link: Vec<Ip> = topo
            .neighbor_addresses_in(&me, "10.0.0.0/24".parse().unwrap())
            .map(|(a, _)| a)
            .collect();
        assert_eq!(on_link, [ip("10.0.0.2")], "r1's own address is not a neighbor's");
    }
}
