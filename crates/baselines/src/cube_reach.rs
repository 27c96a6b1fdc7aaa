//! A header-space forwarding analysis over cube sets — the NoD-era
//! verification backend stand-in for Figure 3.
//!
//! Feature scope is the *original* Batfish's: FIB forwarding and
//! interface ACLs. (No NAT, zones, or sessions — adding packet
//! transformations to custom header-space structures is exactly the
//! extension pain the paper cites from the Atomic Predicates line of
//! work.) The device walk mirrors `batnet-dataplane`'s graph semantics so
//! the two engines' answers are comparable on NAT-free networks.

use crate::cubes::CubeSet;
use batnet_config::vi::{AclAction, Device, Interface};
use batnet_config::{InterfaceRef, Topology};
use batnet_net::Ip;
use batnet_routing::{DataPlane, FibAction};
use std::collections::BTreeMap;

/// Where a propagated set ended up.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CubeDisposition {
    /// Accepted at a device address.
    Accepted(String),
    /// Delivered onto a connected subnet.
    DeliveredToSubnet(String, String),
    /// Left the network.
    ExitsNetwork(String, String),
    /// Dropped (any reason).
    Dropped(String),
}

/// One edge of the cube-set dataflow graph.
struct CubeEdge {
    to: usize,
    set: CubeSet,
}

/// Node kinds are flattened: per device we keep an ingress node per
/// interface and terminal buckets.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Node {
    In(String, String),
    Terminal(CubeDisposition),
}

/// The cube-set engine.
pub struct CubeNetwork {
    nodes: Vec<Node>,
    edges: Vec<Vec<CubeEdge>>,
    index: BTreeMap<Node, usize>,
}

impl CubeNetwork {
    fn node(&mut self, n: Node) -> usize {
        if let Some(&i) = self.index.get(&n) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(n.clone());
        self.edges.push(Vec::new());
        self.index.insert(n, i);
        i
    }

    /// Builds the engine's network model.
    pub fn build(devices: &[Device], dp: &DataPlane, topo: &Topology) -> CubeNetwork {
        let mut net = CubeNetwork {
            nodes: Vec::new(),
            edges: Vec::new(),
            index: BTreeMap::new(),
        };
        for (di, device) in devices.iter().enumerate() {
            let ddp = &dp.devices[di];
            // Owned addresses.
            let mut owned = CubeSet::empty();
            for iface in device.active_interfaces() {
                if let Some(ip) = iface.ip() {
                    owned = owned.union(&CubeSet::dst_prefix(batnet_net::Prefix::host(ip)));
                }
            }
            // FIB buckets with LPM semantics.
            let mut order: Vec<usize> = (0..ddp.fib.entries().len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(ddp.fib.entries()[i].prefix.len()));
            let mut claimed = CubeSet::empty();
            // (egress iface, gateway) → set
            let mut buckets: Vec<(String, Option<Ip>, CubeSet)> = Vec::new();
            let mut dropped = CubeSet::empty();
            for &ei in &order {
                let entry = &ddp.fib.entries()[ei];
                let p = CubeSet::dst_prefix(entry.prefix);
                let mine = p.subtract(&claimed);
                claimed = claimed.union(&p);
                if mine.is_empty() {
                    continue;
                }
                match &entry.action {
                    FibAction::Forward(hops) => {
                        for h in hops {
                            buckets.push((h.iface.clone(), h.gateway, mine.clone()));
                        }
                    }
                    _ => dropped = dropped.union(&mine),
                }
            }
            let no_route = CubeSet::any().subtract(&claimed);
            dropped = dropped.union(&no_route);

            for iface in device.active_interfaces() {
                let ingress = net.node(Node::In(device.name.clone(), iface.name.clone()));
                // Ingress ACL splits into drop + pass.
                let (pass, denied) = acl_split(device, iface.acl_in.as_deref());
                if !denied.is_empty() {
                    let t = net.node(Node::Terminal(CubeDisposition::Dropped(
                        device.name.clone(),
                    )));
                    net.edges[ingress].push(CubeEdge { to: t, set: denied });
                }
                // Accepted locally.
                let local = pass.intersect(&owned);
                if !local.is_empty() {
                    let t = net.node(Node::Terminal(CubeDisposition::Accepted(
                        device.name.clone(),
                    )));
                    net.edges[ingress].push(CubeEdge { to: t, set: local });
                }
                let transit = pass.subtract(&owned);
                // Per FIB bucket: egress ACL, then hand-off.
                for (oiface, gateway, set) in &buckets {
                    let mut out_set = transit.intersect(set);
                    if out_set.is_empty() {
                        continue;
                    }
                    let (opass, _odeny) = acl_split(
                        device,
                        device
                            .interfaces
                            .get(oiface)
                            .and_then(|i| i.acl_out.as_deref()),
                    );
                    let denied_out = out_set.subtract(&opass);
                    if !denied_out.is_empty() {
                        let t = net.node(Node::Terminal(CubeDisposition::Dropped(
                            device.name.clone(),
                        )));
                        net.edges[ingress].push(CubeEdge { to: t, set: denied_out });
                    }
                    out_set = out_set.intersect(&opass);
                    if out_set.is_empty() {
                        continue;
                    }
                    // Hand-off resolution mirrors the BDD graph.
                    let me = InterfaceRef::new(&device.name, oiface);
                    let neighbors = topo.neighbors_of(&me);
                    let mut receiver: Option<InterfaceRef> = None;
                    if let Some(gw) = gateway {
                        for nb in neighbors {
                            let owner = devices
                                .iter()
                                .find(|d| d.name == nb.device)
                                .and_then(|d| d.interfaces.get(&nb.interface))
                                .and_then(|i| i.ip());
                            if owner == Some(*gw) {
                                receiver = Some(nb.clone());
                                break;
                            }
                        }
                        let target = match receiver {
                            Some(nb) => net.node(Node::In(nb.device, nb.interface)),
                            None => net.node(Node::Terminal(if neighbors.is_empty() {
                                CubeDisposition::ExitsNetwork(device.name.clone(), oiface.clone())
                            } else {
                                CubeDisposition::Dropped(device.name.clone())
                            })),
                        };
                        net.edges[ingress].push(CubeEdge { to: target, set: out_set });
                    } else {
                        // Connected delivery: split per neighbor address,
                        // remainder to subnet hosts.
                        let mut remainder = out_set;
                        for nb in neighbors {
                            let Some(nb_ip) = devices
                                .iter()
                                .find(|d| d.name == nb.device)
                                .and_then(|d| d.interfaces.get(&nb.interface))
                                .and_then(|i| i.ip())
                            else {
                                continue;
                            };
                            let host = CubeSet::dst_prefix(batnet_net::Prefix::host(nb_ip));
                            let to_nb = remainder.intersect(&host);
                            if !to_nb.is_empty() {
                                let t = net.node(Node::In(nb.device.clone(), nb.interface.clone()));
                                net.edges[ingress].push(CubeEdge { to: t, set: to_nb });
                                remainder = remainder.subtract(&host);
                            }
                        }
                        if !remainder.is_empty() {
                            // Any of the interface's subnets, as the
                            // graph and the tracer deliver.
                            let subnets = device
                                .interfaces
                                .get(oiface)
                                .into_iter()
                                .flat_map(Interface::connected_prefixes)
                                .fold(CubeSet::empty(), |acc, p| {
                                    acc.union(&CubeSet::dst_prefix(p))
                                });
                            let on = remainder.intersect(&subnets);
                            let off = remainder.subtract(&subnets);
                            if !on.is_empty() {
                                let t = net.node(Node::Terminal(
                                    CubeDisposition::DeliveredToSubnet(
                                        device.name.clone(),
                                        oiface.clone(),
                                    ),
                                ));
                                net.edges[ingress].push(CubeEdge { to: t, set: on });
                            }
                            if !off.is_empty() {
                                let t = net.node(Node::Terminal(CubeDisposition::ExitsNetwork(
                                    device.name.clone(),
                                    oiface.clone(),
                                )));
                                net.edges[ingress].push(CubeEdge { to: t, set: off });
                            }
                        }
                    }
                }
                // Transit traffic with no matching forward bucket drops.
                let no_fwd = transit.intersect(&dropped);
                if !no_fwd.is_empty() {
                    let t = net.node(Node::Terminal(CubeDisposition::Dropped(
                        device.name.clone(),
                    )));
                    net.edges[ingress].push(CubeEdge { to: t, set: no_fwd });
                }
            }
        }
        net
    }

    /// Forward propagation from `(device, iface)` with `set`. Returns the
    /// reach set per terminal disposition plus the peak cube count (the
    /// blow-up metric).
    pub fn reach(
        &self,
        device: &str,
        iface: &str,
        set: CubeSet,
    ) -> (BTreeMap<CubeDisposition, CubeSet>, usize) {
        let Some(&start) = self
            .index
            .get(&Node::In(device.to_string(), iface.to_string()))
        else {
            return (BTreeMap::new(), 0);
        };
        let mut reach: Vec<CubeSet> = vec![CubeSet::empty(); self.nodes.len()];
        reach[start] = set;
        let mut worklist = std::collections::BTreeSet::from([start]);
        let mut peak = 0usize;
        while let Some(n) = worklist.pop_first() {
            let current = reach[n].clone();
            peak = peak.max(current.cube_count());
            for edge in &self.edges[n] {
                let pushed = current.intersect(&edge.set);
                if pushed.is_empty() {
                    continue;
                }
                let new = reach[edge.to].union(&pushed);
                if new != reach[edge.to] {
                    // Progress check: strictly more coverage. Cube sets
                    // are not canonical, so compare via subtraction.
                    let gained = !pushed.subtract(&reach[edge.to]).is_empty();
                    reach[edge.to] = new;
                    if gained && !matches!(self.nodes[edge.to], Node::Terminal(_)) {
                        worklist.insert(edge.to);
                    }
                }
            }
        }
        let mut out: BTreeMap<CubeDisposition, CubeSet> = BTreeMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Terminal(d) = node {
                if !reach[i].is_empty() {
                    out.entry(d.clone())
                        .and_modify(|s| *s = s.union(&reach[i]))
                        .or_insert_with(|| reach[i].clone());
                }
            }
        }
        (out, peak)
    }

    /// Multipath consistency from one ingress: packets both delivered and
    /// dropped.
    pub fn multipath_inconsistency(&self, device: &str, iface: &str) -> CubeSet {
        let (dispositions, _) = self.reach(device, iface, CubeSet::any());
        let mut ok = CubeSet::empty();
        let mut bad = CubeSet::empty();
        for (d, s) in &dispositions {
            match d {
                CubeDisposition::Dropped(_) => bad = bad.union(s),
                _ => ok = ok.union(s),
            }
        }
        ok.intersect(&bad)
    }

    /// All ingress locations known to the engine.
    pub fn ingresses(&self) -> Vec<(String, String)> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::In(d, i) => Some((d.clone(), i.clone())),
                _ => None,
            })
            .collect()
    }
}

fn acl_split(device: &Device, acl_name: Option<&str>) -> (CubeSet, CubeSet) {
    let Some(acl) = acl_name.and_then(|n| device.acls.get(n)) else {
        return (CubeSet::any(), CubeSet::empty());
    };
    let mut remaining = CubeSet::any();
    let mut permit = CubeSet::empty();
    for line in &acl.lines {
        let space = CubeSet::from_headerspace(&line.space);
        let hit = remaining.intersect(&space);
        if line.action == AclAction::Permit {
            permit = permit.union(&hit);
        }
        remaining = remaining.subtract(&space);
    }
    let deny = CubeSet::any().subtract(&permit);
    (permit, deny)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;
    use batnet_net::Flow;
    use batnet_routing::{simulate, Environment, SimOptions};

    fn world(configs: &[(&str, &str)]) -> (Vec<Device>, DataPlane, Topology) {
        let devices: Vec<Device> = configs.iter().map(|(n, t)| parse_device(n, t).0).collect();
        let topo = Topology::infer(&devices);
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        (devices, dp, topo)
    }

    #[test]
    fn cube_engine_agrees_with_concrete_semantics() {
        let (devices, dp, topo) = world(&[
            (
                "r1",
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\ninterface core\n ip address 10.0.0.1/31\nip route 10.2.0.0/24 10.0.0.0\nip access-list extended EDGE\n 10 permit tcp any any eq 80\n 20 deny ip any any\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 10.0.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 10.0.0.1\n",
            ),
        ]);
        let net = CubeNetwork::build(&devices, &dp, &topo);
        let (dispositions, peak) = net.reach("r1", "hosts", CubeSet::any());
        assert!(peak > 0);
        let delivered = dispositions
            .get(&CubeDisposition::DeliveredToSubnet("r2".into(), "servers".into()))
            .expect("web traffic delivered");
        let web = Flow::tcp(
            "10.1.0.5".parse().unwrap(),
            999,
            "10.2.0.9".parse().unwrap(),
            80,
        );
        let ssh = Flow::tcp(
            "10.1.0.5".parse().unwrap(),
            999,
            "10.2.0.9".parse().unwrap(),
            22,
        );
        assert!(delivered.matches(&web));
        assert!(!delivered.matches(&ssh));
        let dropped = dispositions
            .get(&CubeDisposition::Dropped("r1".into()))
            .expect("non-web dropped");
        assert!(dropped.matches(&ssh));

        // Hosts on a secondary subnet are delivered, as the graph and the
        // tracer deliver them, not sent out of the network.
        let (devices, dp, topo) = world(&[(
            "r1",
            "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface lan\n ip address 10.2.0.1/24\n ip address 10.3.0.1 255.255.255.0 secondary\n",
        )]);
        let net = CubeNetwork::build(&devices, &dp, &topo);
        let to_secondary = CubeSet::dst_prefix("10.3.0.0/24".parse().unwrap());
        let (dispositions, _) = net.reach("r1", "hosts", to_secondary.clone());
        let lan = CubeDisposition::DeliveredToSubnet("r1".into(), "lan".into());
        assert_eq!(dispositions.keys().collect::<Vec<_>>(), [&lan]);
        assert!(to_secondary.subtract(&dispositions[&lan]).is_empty());
    }

    #[test]
    fn consistent_network_has_no_inconsistency() {
        let (devices, dp, topo) = world(&[(
            "r1",
            "hostname r1\ninterface lan\n ip address 10.0.0.1/24\nip route 0.0.0.0/0 null0\n",
        )]);
        let net = CubeNetwork::build(&devices, &dp, &topo);
        let bad = net.multipath_inconsistency("r1", "lan");
        assert!(bad.is_empty());
    }
}
