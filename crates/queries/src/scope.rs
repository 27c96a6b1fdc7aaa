//! Default search-space scoping (§4.4.2).
//!
//! *"We limit the search space of starting and end locations (interfaces)
//! to those that face hosts or the external world because inter-router
//! interfaces are commonly not of interest … We identify host-facing
//! interfaces using heuristics based on interface IP address and
//! prefix-length, configured protocols, and whether we have the remote
//! end of the link. We also limit the set of source and destination IPs
//! to those that can likely originate or sink at those interfaces."*

use batnet_config::vi::Device;
use batnet_config::{InterfaceRef, Topology};
use batnet_net::Prefix;

/// A host-facing (or external-facing) interface.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HostIface {
    /// Device name.
    pub device: String,
    /// Interface name.
    pub interface: String,
    /// The connected subnet hosts live on.
    pub subnet: Prefix,
    /// True when the interface faces the outside world rather than hosts
    /// (uplink shape: tiny subnet, no remote end in the snapshot).
    pub external: bool,
}

/// The scoping heuristics. An active interface faces hosts on one of its
/// connected subnets (primary or secondary; one [`HostIface`] each) when:
///
/// * its remote end is not in the snapshot (no inferred L3 neighbor on
///   any of its subnets), and
/// * that subnet is big enough to hold hosts (`/29` or shorter — /30,
///   /31 and /32 are link or loopback shapes), and
/// * it does not run a routing protocol actively (a passive OSPF subnet
///   is fine — that's the classic host VLAN shape).
///
/// Subnets failing only the size test are *external*-facing (uplinks to
/// providers).
pub fn host_facing_interfaces(devices: &[Device], topo: &Topology) -> Vec<HostIface> {
    let mut out = Vec::new();
    for d in devices {
        for iface in d.active_interfaces() {
            let has_remote = topo.has_neighbor(&InterfaceRef::new(&d.name, &iface.name));
            if has_remote {
                continue; // inter-router link
            }
            let runs_igp_actively = iface.ospf_area.is_some() && !iface.ospf_passive;
            if runs_igp_actively {
                continue; // expects a router on the other side
            }
            // /32s are loopbacks.
            for subnet in iface.connected_prefixes().filter(|p| p.len() < 32) {
                out.push(HostIface {
                    device: d.name.clone(),
                    interface: iface.name.clone(),
                    subnet,
                    external: subnet.len() > 29,
                });
            }
        }
    }
    out
}

/// The default source-IP scope for packets entering at a host-facing
/// interface: the hosts on its subnet, minus the router's own address.
/// This silences the spoofed-source class of uninteresting violations
/// (§3 Lesson 4, case (a)).
pub fn scoped_sources(iface: &HostIface) -> Prefix {
    iface.subnet
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    #[test]
    fn classification() {
        let devices: Vec<Device> = [
            (
                "r1",
                "hostname r1\n\
                 interface hosts\n ip address 10.1.0.1/24\n ip ospf area 0\n ip ospf passive\n\
                 interface core\n ip address 172.16.0.0/31\n ip ospf area 0\n\
                 interface uplink\n ip address 203.0.113.2/31\n\
                 interface lo0\n ip address 192.168.0.1/32\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 172.16.0.1/31\n ip ospf area 0\nrouter ospf 1\n",
            ),
        ]
        .iter()
        .map(|(n, t)| parse_device(n, t).0)
        .collect();
        let topo = Topology::infer(&devices);
        let found = host_facing_interfaces(&devices, &topo);
        // hosts → host-facing; uplink → external; core (has remote) and
        // lo0 (a /32) excluded; r2's core link excluded.
        assert_eq!(found.len(), 2, "{found:?}");
        let hosts = found.iter().find(|h| h.interface == "hosts").unwrap();
        assert!(!hosts.external);
        assert_eq!(hosts.subnet.to_string(), "10.1.0.0/24");
        let uplink = found.iter().find(|h| h.interface == "uplink").unwrap();
        assert!(uplink.external);
    }

    #[test]
    fn each_subnet_of_an_interface_is_a_start() {
        let devices: Vec<Device> = [(
            "r1",
            "hostname r1\ninterface hosts\n ip address 10.1.0.1 255.255.255.0\n \
             ip address 203.0.113.1 255.255.255.252 secondary\n",
        )]
        .iter()
        .map(|(n, t)| parse_device(n, t).0)
        .collect();
        let topo = Topology::infer(&devices);
        let found: Vec<(String, bool)> = host_facing_interfaces(&devices, &topo)
            .into_iter()
            .map(|h| (h.subnet.to_string(), h.external))
            .collect();
        assert_eq!(found, [("10.1.0.0/24".into(), false), ("203.0.113.0/30".into(), true)]);
    }

    #[test]
    fn active_ospf_excluded_even_without_neighbor() {
        let devices: Vec<Device> = [(
            "r1",
            "hostname r1\ninterface stub\n ip address 10.1.0.1/24\n ip ospf area 0\n",
        )]
        .iter()
        .map(|(n, t)| parse_device(n, t).0)
        .collect();
        let topo = Topology::infer(&devices);
        assert!(host_facing_interfaces(&devices, &topo).is_empty());
    }
}
