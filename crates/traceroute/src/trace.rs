//! The tracer: a concrete packet through the general device pipeline.

use batnet_config::vi::{Acl, AclAction, Device, NatKind, NatRule};
use batnet_config::{InterfaceRef, Topology};
use batnet_net::Flow;
use batnet_routing::{DataPlane, FibAction};
use std::collections::BTreeSet;
use std::fmt;

/// Backstop hop budget; real loops are caught by the visited set first.
const MAX_HOPS: usize = 64;

/// Where a trace starts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StartLocation {
    /// Device the packet starts at.
    pub device: String,
    /// Interface the packet arrives on, or `None` when the packet
    /// originates at the device itself (skips ingress processing).
    pub ingress: Option<String>,
}

impl StartLocation {
    /// A packet arriving on `iface` of `device` (the common case: traffic
    /// entering from an attached host or external link).
    pub fn ingress(device: impl Into<String>, iface: impl Into<String>) -> StartLocation {
        StartLocation {
            device: device.into(),
            ingress: Some(iface.into()),
        }
    }

    /// A packet originating at `device`.
    pub fn origin(device: impl Into<String>) -> StartLocation {
        StartLocation {
            device: device.into(),
            ingress: None,
        }
    }
}

/// The final fate of a traced packet — mirrors the BDD engine's typed
/// drop/exit nodes so differential testing can compare them directly.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Disposition {
    /// Delivered to an address owned by this device.
    Accepted {
        /// Terminating device.
        device: String,
    },
    /// Forwarded onto a connected subnet where the destination is assumed
    /// to live (no snapshot device owns it).
    DeliveredToSubnet {
        /// Last device.
        device: String,
        /// Egress interface.
        iface: String,
    },
    /// Left the network via an interface with no inferred L3 neighbors
    /// (e.g. towards the Internet).
    ExitsNetwork {
        /// Last device.
        device: String,
        /// Egress interface.
        iface: String,
    },
    /// Dropped by an ingress ACL.
    DeniedIn {
        /// Dropping device.
        device: String,
        /// ACL name.
        acl: String,
    },
    /// Dropped by an egress ACL.
    DeniedOut {
        /// Dropping device.
        device: String,
        /// ACL name.
        acl: String,
    },
    /// Dropped by an inter-zone policy on a stateful device.
    DeniedZone {
        /// Dropping device.
        device: String,
        /// `from→to` zone pair.
        zones: String,
    },
    /// No FIB entry matched.
    NoRoute {
        /// Device without a route.
        device: String,
    },
    /// Matched a discard route.
    NullRouted {
        /// Device with the discard route.
        device: String,
    },
    /// The gateway address had no owner on the egress subnet.
    NeighborUnreachable {
        /// Last device.
        device: String,
        /// Egress interface.
        iface: String,
    },
    /// A forwarding loop was detected.
    Loop,
}

impl Disposition {
    /// Did the packet reach *somewhere* successfully (accepted, delivered
    /// to its subnet, or exited the network)?
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            Disposition::Accepted { .. }
                | Disposition::DeliveredToSubnet { .. }
                | Disposition::ExitsNetwork { .. }
        )
    }
}

impl fmt::Display for Disposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disposition::Accepted { device } => write!(f, "accepted at {device}"),
            Disposition::DeliveredToSubnet { device, iface } => {
                write!(f, "delivered to subnet via {device}[{iface}]")
            }
            Disposition::ExitsNetwork { device, iface } => {
                write!(f, "exits network via {device}[{iface}]")
            }
            Disposition::DeniedIn { device, acl } => write!(f, "denied in at {device} by {acl}"),
            Disposition::DeniedOut { device, acl } => write!(f, "denied out at {device} by {acl}"),
            Disposition::DeniedZone { device, zones } => {
                write!(f, "denied by zone policy {zones} at {device}")
            }
            Disposition::NoRoute { device } => write!(f, "no route at {device}"),
            Disposition::NullRouted { device } => write!(f, "null routed at {device}"),
            Disposition::NeighborUnreachable { device, iface } => {
                write!(f, "neighbor unreachable at {device}[{iface}]")
            }
            Disposition::Loop => write!(f, "forwarding loop"),
        }
    }
}

/// One device transit within a path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hop {
    /// Device name.
    pub device: String,
    /// Arriving interface (`None` at the origin).
    pub in_iface: Option<String>,
    /// Departing interface (`None` when the packet stopped here).
    pub out_iface: Option<String>,
    /// The flow as it arrived at this device.
    pub flow_in: Flow,
    /// The flow as it left (NAT may have rewritten it).
    pub flow_out: Flow,
    /// Human-readable step annotations: routes matched, ACL lines hit,
    /// NAT rewrites (§4.4.3 context).
    pub steps: Vec<String>,
}

/// One complete path of a (possibly multipath) trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TracePath {
    /// Transited devices in order.
    pub hops: Vec<Hop>,
    /// Final fate.
    pub disposition: Disposition,
    /// The flow at the end of the path (post all NATs).
    pub final_flow: Flow,
}

/// A full trace: one path per ECMP branch combination, deterministic
/// order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    /// All paths.
    pub paths: Vec<TracePath>,
}

impl Trace {
    /// Do *all* paths succeed (the multipath-consistency sense)?
    pub fn all_succeed(&self) -> bool {
        self.paths.iter().all(|p| p.disposition.is_success())
    }

    /// Does *any* path succeed?
    pub fn any_succeeds(&self) -> bool {
        self.paths.iter().any(|p| p.disposition.is_success())
    }

    /// The set of distinct dispositions across paths.
    pub fn dispositions(&self) -> BTreeSet<&Disposition> {
        self.paths.iter().map(|p| &p.disposition).collect()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.paths.iter().enumerate() {
            writeln!(f, "path {}:", i + 1)?;
            for hop in &p.hops {
                writeln!(
                    f,
                    "  {} [{} -> {}]",
                    hop.device,
                    hop.in_iface.as_deref().unwrap_or("origin"),
                    hop.out_iface.as_deref().unwrap_or("-"),
                )?;
                for s in &hop.steps {
                    writeln!(f, "    {s}")?;
                }
            }
            writeln!(f, "  => {}", p.disposition)?;
        }
        Ok(())
    }
}

/// The concrete engine. Borrows the VI devices, the simulated data plane,
/// and the inferred topology.
pub struct Tracer<'a> {
    devices: &'a [Device],
    dp: &'a DataPlane,
    topo: &'a Topology,
}

impl<'a> Tracer<'a> {
    /// Creates a tracer over a simulated snapshot.
    pub fn new(devices: &'a [Device], dp: &'a DataPlane, topo: &'a Topology) -> Tracer<'a> {
        Tracer { devices, dp, topo }
    }

    fn device(&self, name: &str) -> Option<&'a Device> {
        self.dp.index.get(name).map(|&i| &self.devices[i])
    }

    /// Traces `flow` from `start`.
    pub fn trace(&self, start: &StartLocation, flow: &Flow) -> Trace {
        let mut paths = Vec::new();
        let mut visited = BTreeSet::new();
        self.walk(
            start.device.clone(),
            start.ingress.clone(),
            *flow,
            Vec::new(),
            &mut visited,
            &mut paths,
        );
        Trace { paths }
    }

    fn walk(
        &self,
        device_name: String,
        in_iface: Option<String>,
        mut flow: Flow,
        hops: Vec<Hop>,
        visited: &mut BTreeSet<(String, Flow)>,
        paths: &mut Vec<TracePath>,
    ) {
        let flow_in = flow;
        if hops.len() >= MAX_HOPS || !visited.insert((device_name.clone(), flow)) {
            paths.push(TracePath {
                hops,
                disposition: Disposition::Loop,
                final_flow: flow,
            });
            return;
        }
        let Some(device) = self.device(&device_name) else {
            // Unknown device: treat as exiting the modeled network.
            let disposition = Disposition::ExitsNetwork {
                device: device_name,
                iface: String::new(),
            };
            paths.push(TracePath {
                hops,
                disposition,
                final_flow: flow,
            });
            return;
        };
        let ddp = self.dp.device(&device_name).expect("device in data plane");
        let here = || device_name.clone();
        // This device's hop, leaving by `out` (`None`: stopped here).
        let hop = |out: Option<&str>, flow_out: Flow, steps: Vec<String>| Hop {
            device: here(),
            in_iface: in_iface.clone(),
            out_iface: out.map(str::to_string),
            flow_in,
            flow_out,
            steps,
        };
        // Ends a path at this device.
        let stop = |mut hops: Vec<Hop>,
                    out: Option<&str>,
                    flow: Flow,
                    steps: Vec<String>,
                    disposition: Disposition,
                    paths: &mut Vec<TracePath>| {
            hops.push(hop(out, flow, steps));
            paths.push(TracePath {
                hops,
                disposition,
                final_flow: flow,
            });
        };
        let mut steps: Vec<String> = Vec::new();

        // Step 1: ingress ACL.
        let iface_in = in_iface.as_deref().and_then(|i| device.interfaces.get(i));
        let acl_in = iface_in.and_then(|i| i.acl_in.as_ref());
        if let Some(acl) = filter(device, "ingress", acl_in, &flow, &mut steps) {
            let disposition = Disposition::DeniedIn {
                device: here(),
                acl,
            };
            return stop(hops, None, flow, steps, disposition, paths);
        }

        // Step 2: destination NAT.
        if let Some(i) = &in_iface {
            if let Some(rule) = first_nat(device, NatKind::Destination, i, &flow) {
                let new = rule.translate(&flow);
                steps.push(format!("dest nat [{}]: {flow} -> {new}", rule.text));
                flow = new;
            }
        }

        // Step 3: local delivery.
        if self
            .topo
            .owners(flow.dst_ip)
            .any(|o| o.interface.device == device_name)
        {
            steps.push("destination owned by device".into());
            let disposition = Disposition::Accepted { device: here() };
            return stop(hops, None, flow, steps, disposition, paths);
        }

        // Step 4: FIB lookup.
        let Some(entry) = ddp.fib.lookup(flow.dst_ip) else {
            steps.push("no matching FIB entry".into());
            let disposition = Disposition::NoRoute { device: here() };
            return stop(hops, None, flow, steps, disposition, paths);
        };
        let via = match &entry.action {
            FibAction::Forward(h) => format!("{} hop(s)", h.len()),
            FibAction::Discard => "discard".into(),
            FibAction::Unresolved => "unresolved".into(),
        };
        steps.push(format!(
            "fib: {} ({:?} via {via})",
            entry.prefix, entry.protocol
        ));
        let next_hops = match &entry.action {
            FibAction::Forward(h) => h,
            action => {
                let disposition = match action {
                    FibAction::Discard => Disposition::NullRouted { device: here() },
                    _ => Disposition::NoRoute { device: here() },
                };
                return stop(hops, None, flow, steps, disposition, paths);
            }
        };

        // ECMP fork: each resolved next hop continues as its own path.
        for nh in next_hops {
            let (mut hops, mut steps, mut flow) = (hops.clone(), steps.clone(), flow);
            let out = nh.iface.as_str();

            // Step 5: zone policy (stateful devices, transiting traffic).
            let from = in_iface
                .as_deref()
                .filter(|_| device.stateful)
                .and_then(|i| device.zone_of_interface(i));
            let zones = from.and_then(|from| Some((from, device.zone_of_interface(out)?)));
            if let Some((from, to)) = zones.filter(|(from, to)| from != to) {
                let (action, text) = match device.zone_acl(from, to) {
                    Some(acl) => verdict(&acl, &flow),
                    None if device.zone_default_permit => {
                        (AclAction::Permit, "no policy, default permit".into())
                    }
                    None => (AclAction::Deny, "no policy, default deny".into()),
                };
                steps.push(format!("zone {from}->{to}: {text}"));
                if action == AclAction::Deny {
                    let zones = format!("{from}->{to}");
                    let disposition = Disposition::DeniedZone {
                        device: here(),
                        zones,
                    };
                    stop(hops, Some(out), flow, steps, disposition, paths);
                    continue;
                }
            }

            // Step 6: source NAT on the egress interface.
            if let Some(rule) = first_nat(device, NatKind::Source, out, &flow) {
                let new = rule.translate(&flow);
                steps.push(format!("source nat [{}]: {flow} -> {new}", rule.text));
                flow = new;
            }

            // Step 7: egress ACL.
            let iface_out = device.interfaces.get(out);
            let acl_out = iface_out.and_then(|i| i.acl_out.as_ref());
            if let Some(acl) = filter(device, "egress", acl_out, &flow, &mut steps) {
                let disposition = Disposition::DeniedOut {
                    device: here(),
                    acl,
                };
                stop(hops, Some(out), flow, steps, disposition, paths);
                continue;
            }

            // Step 8: hand-off, to the same neighbor the forwarding graph
            // hands off to.
            let me = InterfaceRef::new(&device_name, out);
            let target_ip = nh.gateway.unwrap_or(flow.dst_ip);
            if let Some(nb) = self.topo.neighbor_owning(&me, target_ip) {
                hops.push(hop(Some(out), flow, steps));
                let mut visited = visited.clone();
                let (device, iface) = (nb.device.clone(), Some(nb.interface.clone()));
                self.walk(device, iface, flow, hops, &mut visited, paths);
                continue;
            }
            // An edge interface delivers to an attached host when the
            // destination is on a connected subnet, and otherwise the
            // packet leaves the modeled network. On a shared router subnet,
            // a destination owned by no device is an attached host.
            let edge = self.topo.neighbors_of(&me).is_empty();
            let delivered = if edge {
                iface_out.is_some_and(|i| i.connected_prefixes().any(|p| p.contains(flow.dst_ip)))
            } else {
                nh.gateway.is_none()
            };
            let (device, iface) = (here(), out.to_string());
            let disposition = match (delivered, edge) {
                (true, _) => Disposition::DeliveredToSubnet { device, iface },
                (false, true) => Disposition::ExitsNetwork { device, iface },
                (false, false) => Disposition::NeighborUnreachable { device, iface },
            };
            stop(hops, Some(out), flow, steps, disposition, paths);
        }
    }
}

/// An ACL's verdict on `flow` and its note: the action, then the line
/// that matched or `implicit deny`.
fn verdict(acl: &Acl, flow: &Flow) -> (AclAction, String) {
    let (action, line) = acl.check(flow);
    let text = line.map_or("implicit deny", |l| acl.lines[l].text.as_str());
    (action, format!("{action} ({text})"))
}

/// Steps 1 and 7: the `dir`ection's interface ACL `acl` on `flow`, noted in
/// `steps`. Returns the ACL's name when it denies. An undefined ACL
/// permits (the parser flagged the reference).
fn filter(
    device: &Device,
    dir: &str,
    acl: Option<&String>,
    flow: &Flow,
    steps: &mut Vec<String>,
) -> Option<String> {
    let name = acl?;
    let Some(acl) = device.acls.get(name) else {
        steps.push(format!("{dir} acl {name} undefined: permit"));
        return None;
    };
    let (action, text) = verdict(acl, flow);
    steps.push(format!("{dir} acl {name}: {text}"));
    (action == AclAction::Deny).then(|| name.clone())
}

/// Steps 2 and 6: the first `kind` NAT rule that applies on `iface` (it
/// is scoped there or unscoped) and matches `flow`.
fn first_nat<'d>(
    device: &'d Device,
    kind: NatKind,
    iface: &str,
    flow: &Flow,
) -> Option<&'d NatRule> {
    device.nat_rules.iter().find(|r| {
        r.kind == kind && r.interface.as_deref().is_none_or(|s| s == iface) && r.matches(flow)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;
    use batnet_routing::{simulate, Environment, SimOptions};

    struct Net {
        devices: Vec<Device>,
        dp: DataPlane,
        topo: Topology,
    }

    fn build(configs: &[(&str, &str)]) -> Net {
        let devices: Vec<Device> = configs.iter().map(|(n, t)| parse_device(n, t).0).collect();
        let topo = Topology::infer(&devices);
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        Net { devices, dp, topo }
    }

    /// host—r1—r2—server topology: r1 has an inbound ACL permitting only
    /// web traffic to the server subnet.
    fn web_net() -> Net {
        build(&[
            (
                "r1",
                "hostname r1\n\
                 interface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\n\
                 interface core\n ip address 10.0.0.1/31\n\
                 ip route 10.2.0.0/24 10.0.0.0\n\
                 ip access-list extended EDGE\n \
                 10 permit tcp 10.1.0.0 0.0.0.255 10.2.0.0 0.0.0.255 eq 80\n \
                 20 permit icmp any any\n \
                 30 deny ip any any\n",
            ),
            (
                "r2",
                "hostname r2\n\
                 interface core\n ip address 10.0.0.0/31\n\
                 interface servers\n ip address 10.2.0.1/24\n\
                 ip route 10.1.0.0/24 10.0.0.1\n",
            ),
        ])
    }

    fn f(src: &str, sport: u16, dst: &str, dport: u16) -> Flow {
        Flow::tcp(src.parse().unwrap(), sport, dst.parse().unwrap(), dport)
    }

    #[test]
    fn permitted_flow_delivered_to_subnet() {
        let net = web_net();
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.1.0.50", 40000, "10.2.0.80", 80);
        let trace = tracer.trace(&StartLocation::ingress("r1", "hosts"), &flow);
        assert_eq!(trace.paths.len(), 1);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::DeliveredToSubnet {
                device: "r2".into(),
                iface: "servers".into()
            },
            "{trace}"
        );
        // The path must transit both devices with annotations.
        assert_eq!(trace.paths[0].hops.len(), 2);
        assert!(trace.paths[0].hops[0]
            .steps
            .iter()
            .any(|s| s.contains("ingress acl EDGE: permit")));
    }

    #[test]
    fn denied_flow_stopped_at_ingress() {
        let net = web_net();
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.1.0.50", 40000, "10.2.0.80", 22); // ssh: denied
        let trace = tracer.trace(&StartLocation::ingress("r1", "hosts"), &flow);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::DeniedIn {
                device: "r1".into(),
                acl: "EDGE".into()
            }
        );
    }

    #[test]
    fn packet_to_router_address_accepted() {
        let net = web_net();
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = Flow::icmp_echo("10.1.0.50".parse().unwrap(), "10.0.0.0".parse().unwrap());
        let trace = tracer.trace(&StartLocation::ingress("r1", "hosts"), &flow);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::Accepted { device: "r2".into() },
            "{trace}"
        );
    }

    #[test]
    fn no_route_disposition() {
        let net = web_net();
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = Flow::icmp_echo("10.1.0.50".parse().unwrap(), "192.168.99.1".parse().unwrap());
        let trace = tracer.trace(&StartLocation::ingress("r1", "hosts"), &flow);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::NoRoute { device: "r1".into() }
        );
    }

    #[test]
    fn null_route_disposition() {
        let net = build(&[(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip route 192.168.0.0/16 null0\n",
        )]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = Flow::icmp_echo("10.0.0.5".parse().unwrap(), "192.168.1.1".parse().unwrap());
        let trace = tracer.trace(&StartLocation::ingress("r1", "e0"), &flow);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::NullRouted { device: "r1".into() }
        );
    }

    #[test]
    fn static_route_loop_detected() {
        // r1 routes 10.9/16 to r2; r2 routes it back to r1.
        let net = build(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\nip route 10.9.0.0/16 10.0.0.0\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\nip route 10.9.0.0/16 10.0.0.1\n",
            ),
        ]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = Flow::icmp_echo("10.0.0.1".parse().unwrap(), "10.9.1.1".parse().unwrap());
        let trace = tracer.trace(&StartLocation::origin("r1"), &flow);
        assert_eq!(trace.paths[0].disposition, Disposition::Loop, "{trace}");
    }

    #[test]
    fn ecmp_forks_paths() {
        // r1 has two equal static routes to the destination via two
        // neighbors, both of which deliver locally.
        let net = build(&[
            (
                "r1",
                "hostname r1\ninterface a\n ip address 10.0.1.0/31\ninterface b\n ip address 10.0.2.0/31\nip route 10.9.0.0/24 10.0.1.1\nip route 10.9.0.0/24 10.0.2.1\n",
            ),
            (
                "r2",
                "hostname r2\ninterface a\n ip address 10.0.1.1/31\ninterface lan\n ip address 10.9.0.1/24\n",
            ),
            (
                "r3",
                "hostname r3\ninterface b\n ip address 10.0.2.1/31\ninterface lan\n ip address 10.9.0.1/24\n",
            ),
        ]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.0.1.0", 1000, "10.9.0.42", 80);
        let trace = tracer.trace(&StartLocation::origin("r1"), &flow);
        assert_eq!(trace.paths.len(), 2, "{trace}");
        assert!(trace.all_succeed(), "{trace}");
    }

    #[test]
    fn source_nat_rewrites_on_egress() {
        let net = build(&[(
            "r1",
            "hostname r1\n\
             interface inside\n ip address 10.0.0.1/24\n\
             interface outside\n ip address 203.0.113.1/24\n\
             ip nat pool P 198.51.100.1 198.51.100.1\n\
             ip access-list extended NATMATCH\n 10 permit ip 10.0.0.0 0.0.0.255 any\n\
             ip nat source list NATMATCH pool P interface outside\n",
        )]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.0.0.5", 40000, "203.0.113.77", 80);
        let trace = tracer.trace(&StartLocation::ingress("r1", "inside"), &flow);
        let p = &trace.paths[0];
        assert!(p.disposition.is_success(), "{trace}");
        assert_eq!(p.final_flow.src_ip, "198.51.100.1".parse().unwrap());
        assert_eq!(p.final_flow.dst_ip, flow.dst_ip);
    }

    #[test]
    fn zone_policy_permits_outbound_and_denies_return() {
        // Stateful firewall: trust → untrust permitted for tcp/443; no
        // untrust → trust policy (default deny).
        let net = build(&[(
            "fw",
            "hostname fw\n\
             interface trust0\n ip address 10.0.0.1/24\n zone-member security trust\n\
             interface untrust0\n ip address 203.0.113.1/24\n zone-member security untrust\n\
             zone security trust\nzone security untrust\n\
             ip access-list extended OUTBOUND\n 10 permit tcp any any eq 443\n\
             zone-pair security trust untrust acl OUTBOUND\n",
        )]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.0.0.9", 50000, "203.0.113.99", 443);
        let fwd = tracer.trace(&StartLocation::ingress("fw", "trust0"), &flow);
        assert!(fwd.paths[0].disposition.is_success(), "{fwd}");
        // The return flow is dropped by the (absent) untrust→trust policy.
        let ret = tracer.trace(
            &StartLocation::ingress("fw", "untrust0"),
            &f("203.0.113.99", 443, "10.0.0.9", 50000),
        );
        assert_eq!(
            ret.paths[0].disposition,
            Disposition::DeniedZone {
                device: "fw".into(),
                zones: "untrust->trust".into()
            },
            "{ret}"
        );
        // And a disallowed forward flow (port 80) is zone-denied.
        let bad = tracer.trace(
            &StartLocation::ingress("fw", "trust0"),
            &f("10.0.0.9", 50000, "203.0.113.99", 80),
        );
        assert_eq!(
            bad.paths[0].disposition,
            Disposition::DeniedZone {
                device: "fw".into(),
                zones: "trust->untrust".into()
            }
        );
    }

    #[test]
    fn exits_network_via_edge_interface() {
        let net = build(&[(
            "r1",
            "hostname r1\ninterface lan\n ip address 10.0.0.1/24\ninterface up\n ip address 203.0.113.2/31\nip route 0.0.0.0/0 203.0.113.3\n",
        )]);
        let tracer = Tracer::new(&net.devices, &net.dp, &net.topo);
        let flow = f("10.0.0.5", 1, "8.8.8.8", 53);
        let trace = tracer.trace(&StartLocation::ingress("r1", "lan"), &flow);
        assert_eq!(
            trace.paths[0].disposition,
            Disposition::ExitsNetwork {
                device: "r1".into(),
                iface: "up".into()
            },
            "{trace}"
        );
    }
}
