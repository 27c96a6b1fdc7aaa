//! Specialized reachability queries (§4.4.1) with scoped defaults and
//! annotated examples.
//!
//! `service_reachable` and `service_blocked` answer from one backward
//! fixed point per question (§4.2.3), seeded at the union of the
//! service's sinks: a start's answer is its seed intersected with the
//! walk's set at its source node, so no walk depends on the start.
//! `waypoint_enforced` walks forward per start, since the waypoint bit is
//! set on the way.

use crate::examples::{pick_flow, Preferences};
use crate::scope::{host_facing_interfaces, HostIface};
use batnet_bdd::{Bdd, NodeId};
use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_dataplane::vars::Field;
use batnet_dataplane::{ForwardingGraph, NodeKind, PacketVars, ReachAnalysis};
use batnet_net::{Flow, IpProtocol, Prefix};
use batnet_routing::DataPlane;
use batnet_traceroute::{StartLocation, Tracer};
use std::collections::BTreeMap;
use std::fmt;

/// The service being checked.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Where the service lives.
    pub prefix: Prefix,
    /// Service port.
    pub port: u16,
    /// Protocol (TCP unless stated).
    pub protocol: IpProtocol,
}

impl ServiceSpec {
    /// A TCP service.
    pub fn tcp(prefix: Prefix, port: u16) -> ServiceSpec {
        ServiceSpec {
            prefix,
            port,
            protocol: IpProtocol::Tcp,
        }
    }
}

/// One violation of a query, with the §4.4.3 trimmings.
pub struct Violation {
    /// Where the offending traffic starts.
    pub start: HostIface,
    /// A packet exhibiting the violation.
    pub example: Flow,
    /// A contrasting packet that behaves correctly from the same start,
    /// when one exists.
    pub positive_example: Option<Flow>,
    /// The concrete trace of the violating packet, annotated with routes
    /// and ACL lines (rendered text).
    pub trace: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "from {}[{}]: {}",
            self.start.device, self.start.interface, self.example
        )?;
        if let Some(p) = &self.positive_example {
            writeln!(f, "  contrast (works): {p}")?;
        }
        write!(f, "{}", self.trace)
    }
}

/// The outcome of a query.
pub struct QueryReport {
    /// Query name.
    pub query: &'static str,
    /// Violations found (empty = property holds).
    pub violations: Vec<Violation>,
    /// Number of start locations examined.
    pub starts_checked: usize,
}

impl QueryReport {
    /// Did the property hold everywhere?
    pub fn holds(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything a query needs, borrowed together.
pub struct QueryContext<'a> {
    /// The VI devices.
    pub devices: &'a [Device],
    /// The simulated data plane.
    pub dp: &'a DataPlane,
    /// The inferred topology.
    pub topo: &'a Topology,
    /// The BDD manager shared with the graph.
    pub bdd: &'a mut Bdd,
    /// The packet variable layout.
    pub vars: &'a PacketVars,
    /// The dataflow graph.
    pub graph: &'a ForwardingGraph,
}

impl QueryContext<'_> {
    /// The symbolic service traffic: dst in the service prefix, service
    /// port/protocol.
    pub fn service_traffic(&mut self, service: &ServiceSpec) -> NodeId {
        let dst = self.vars.ip_prefix(self.bdd, Field::DstIp, service.prefix);
        let port = self
            .vars
            .field_value(self.bdd, Field::DstPort, service.port as u64);
        let proto = self
            .vars
            .field_value(self.bdd, Field::Protocol, service.protocol.number() as u64);
        let a = self.bdd.and(dst, port);
        self.bdd.and(a, proto)
    }

    /// The scoped seed set for traffic entering at one host interface:
    /// service traffic with legitimate (on-subnet) sources, bookkeeping
    /// bits initialized.
    pub fn seed(&mut self, iface: &HostIface, traffic: NodeId) -> NodeId {
        let src = self
            .vars
            .ip_prefix(self.bdd, Field::SrcIp, crate::scope::scoped_sources(iface));
        let init = self.vars.initial_bits(self.bdd);
        // The interface's half first: it does not depend on the question,
        // so on a long-lived manager it is built once and every later
        // question adds only the seed itself.
        let scoped = self.bdd.and(src, init);
        self.bdd.and(traffic, scoped)
    }

    fn annotate(&self, start: &HostIface, flow: &Flow) -> String {
        let tracer = Tracer::new(self.devices, self.dp, self.topo);
        let trace = tracer.trace(
            &StartLocation::ingress(start.device.clone(), start.interface.clone()),
            flow,
        );
        trace.to_string()
    }
}

/// The success sinks of `graph` that deliver into the service prefix:
/// subnet delivery on an interface one of whose subnets overlaps it, and
/// acceptance by a device that owns an address in it (primary or
/// secondary, as the graph counts them both). Needs no BDD work,
/// so a caller that shares the manager can compute it before locking.
pub fn service_sinks(
    graph: &ForwardingGraph,
    devices: &[Device],
    service: &ServiceSpec,
) -> Vec<usize> {
    let mut by_name: BTreeMap<&str, &Device> = BTreeMap::new();
    for d in devices {
        by_name.entry(d.name.as_str()).or_insert(d);
    }
    graph.nodes_where(|k| match k {
        NodeKind::DeliveredToSubnet(d, i) => by_name
            .get(d.as_str())
            .and_then(|dev| dev.interfaces.get(i))
            .is_some_and(|iface| iface.connected_prefixes().any(|p| p.overlaps(&service.prefix))),
        NodeKind::Accept(d) => by_name.get(d.as_str()).is_some_and(|dev| {
            dev.active_interfaces()
                .flat_map(|i| i.addresses())
                .any(|ip| service.prefix.contains(ip))
        }),
        _ => false,
    })
}

/// "Clients should reach the service": from every (non-external)
/// host-facing interface, *all* scoped service traffic must arrive.
/// Violations report the packets that do not. One backward walk from the
/// service's sinks answers every start.
pub fn service_reachable(ctx: &mut QueryContext<'_>, service: &ServiceSpec) -> QueryReport {
    let traffic = ctx.service_traffic(service);
    let sinks = service_sinks(ctx.graph, ctx.devices, service);
    let starts: Vec<HostIface> = host_facing_interfaces(ctx.devices, ctx.topo)
        .into_iter()
        .filter(|h| !h.external && !h.subnet.overlaps(&service.prefix))
        .collect();
    let prefs = Preferences::likely(ctx.bdd, ctx.vars);
    let ok = ReachAnalysis::new(ctx.graph).backward_from(ctx.bdd, ctx.vars, &sinks).reach;
    let mut violations = Vec::new();
    for start in &starts {
        let Some(src_node) = ctx.graph.node(&NodeKind::IfaceSrc(
            start.device.clone(),
            start.interface.clone(),
        )) else {
            continue;
        };
        let seed = ctx.seed(start, traffic);
        if seed == NodeId::FALSE {
            continue;
        }
        // Compare at the source: which seeded packets never arrive?
        // (Delivered sets are post-transform; here the service traffic's
        // 5-tuple is what matters and NAT towards an internal service is
        // out of the query's default scope.)
        let arrived_src = ctx.bdd.and(seed, ok[src_node]);
        let failed = ctx.bdd.diff(seed, arrived_src);
        if failed != NodeId::FALSE {
            let example = pick_flow(ctx.bdd, ctx.vars, failed, &prefs).expect("non-empty");
            let positive = if arrived_src != NodeId::FALSE {
                pick_flow(ctx.bdd, ctx.vars, arrived_src, &prefs)
            } else {
                None
            };
            let trace = ctx.annotate(start, &example);
            violations.push(Violation {
                start: start.clone(),
                example,
                positive_example: positive,
                trace,
            });
        }
    }
    QueryReport {
        query: "service-reachable",
        violations,
        starts_checked: starts.len(),
    }
}

/// "The service must NOT be reachable" (e.g. from external interfaces):
/// violations are packets that do arrive. One backward walk from the
/// service's sinks answers every start.
pub fn service_blocked(
    ctx: &mut QueryContext<'_>,
    service: &ServiceSpec,
    from_external_only: bool,
) -> QueryReport {
    let traffic = ctx.service_traffic(service);
    let sinks = service_sinks(ctx.graph, ctx.devices, service);
    let starts: Vec<HostIface> = host_facing_interfaces(ctx.devices, ctx.topo)
        .into_iter()
        .filter(|h| (!from_external_only || h.external) && !h.subnet.overlaps(&service.prefix))
        .collect();
    let prefs = Preferences::likely(ctx.bdd, ctx.vars);
    let ok = ReachAnalysis::new(ctx.graph).backward_from(ctx.bdd, ctx.vars, &sinks).reach;
    let mut violations = Vec::new();
    for start in &starts {
        let Some(src_node) = ctx.graph.node(&NodeKind::IfaceSrc(
            start.device.clone(),
            start.interface.clone(),
        )) else {
            continue;
        };
        // A blocked-query's default scope is wider: external attackers
        // spoof, so sources are unconstrained (§4.4.2: defaults differ
        // between reachability- and security-oriented queries).
        let init = ctx.vars.initial_bits(ctx.bdd);
        let seed = ctx.bdd.and(traffic, init);
        let reached_src = ctx.bdd.and(seed, ok[src_node]);
        if reached_src != NodeId::FALSE {
            let example = pick_flow(ctx.bdd, ctx.vars, reached_src, &prefs).expect("non-empty");
            let trace = ctx.annotate(start, &example);
            // The contrasting positive example for a blocked query is a
            // packet that is correctly dropped.
            let blocked = ctx.bdd.diff(seed, reached_src);
            let positive = if blocked != NodeId::FALSE {
                pick_flow(ctx.bdd, ctx.vars, blocked, &prefs)
            } else {
                None
            };
            violations.push(Violation {
                start: start.clone(),
                example,
                positive_example: positive,
                trace,
            });
        }
    }
    QueryReport {
        query: "service-blocked",
        violations,
        starts_checked: starts.len(),
    }
}

/// Waypoint enforcement: all `service` traffic from host-facing
/// interfaces that reaches the service must traverse `waypoint_device`.
/// The graph must have been built with ≥1 waypoint variable and
/// instrumented by the caller via
/// [`ForwardingGraph::instrument_waypoint`] on waypoint bit 0.
pub fn waypoint_enforced(
    ctx: &mut QueryContext<'_>,
    service: &ServiceSpec,
) -> QueryReport {
    let traffic = ctx.service_traffic(service);
    let sinks = service_sinks(ctx.graph, ctx.devices, service);
    let starts: Vec<HostIface> = host_facing_interfaces(ctx.devices, ctx.topo)
        .into_iter()
        .filter(|h| !h.subnet.overlaps(&service.prefix))
        .collect();
    let prefs = Preferences::likely(ctx.bdd, ctx.vars);
    let analysis = ReachAnalysis::new(ctx.graph);
    let wp = ctx.bdd.var(ctx.vars.waypoint_var(0));
    let no_wp = ctx.bdd.not(wp);
    let mut violations = Vec::new();
    for start in &starts {
        let Some(src_node) = ctx.graph.node(&NodeKind::IfaceSrc(
            start.device.clone(),
            start.interface.clone(),
        )) else {
            continue;
        };
        let seed = ctx.seed(start, traffic);
        if seed == NodeId::FALSE {
            continue;
        }
        let r = analysis.forward(ctx.bdd, &[(src_node, seed)]);
        let mut arrived_bypassing = NodeId::FALSE;
        for &s in &sinks {
            let at = r.at(s);
            let bypass = ctx.bdd.and(at, no_wp);
            arrived_bypassing = ctx.bdd.or(arrived_bypassing, bypass);
        }
        if arrived_bypassing != NodeId::FALSE {
            let example =
                pick_flow(ctx.bdd, ctx.vars, arrived_bypassing, &prefs).expect("non-empty");
            let trace = ctx.annotate(start, &example);
            violations.push(Violation {
                start: start.clone(),
                example,
                positive_example: None,
                trace,
            });
        }
    }
    QueryReport {
        query: "waypoint-enforced",
        violations,
        starts_checked: starts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;
    use batnet_routing::{simulate, Environment, SimOptions};

    struct World {
        devices: Vec<Device>,
        dp: DataPlane,
        topo: Topology,
        bdd: Bdd,
        vars: PacketVars,
        graph: ForwardingGraph,
    }

    fn build(configs: &[(&str, &str)]) -> World {
        let devices: Vec<Device> = configs.iter().map(|(n, t)| parse_device(n, t).0).collect();
        world(devices, &Environment::none())
    }

    fn world(devices: Vec<Device>, env: &Environment) -> World {
        let topo = Topology::infer(&devices);
        let dp = simulate(&devices, env, &SimOptions::default());
        assert!(dp.convergence.converged);
        let (mut bdd, vars) = PacketVars::new(1);
        let graph = ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo);
        World { devices, dp, topo, bdd, vars, graph }
    }

    impl World {
        fn ctx(&mut self) -> QueryContext<'_> {
            QueryContext {
                devices: &self.devices,
                dp: &self.dp,
                topo: &self.topo,
                bdd: &mut self.bdd,
                vars: &self.vars,
                graph: &self.graph,
            }
        }
    }

    /// The subset of `seed` (injected at `src_node`) that reaches any of
    /// `sinks`, from one backward walk per sink: how both service queries
    /// answered each start before one walk per question did.
    fn backproject(
        ctx: &mut QueryContext<'_>,
        src_node: usize,
        sinks: &[usize],
        seed: NodeId,
    ) -> NodeId {
        let analysis = ReachAnalysis::new(ctx.graph);
        let mut acc = NodeId::FALSE;
        for &s in sinks {
            let b = analysis.backward(ctx.bdd, ctx.vars, s, NodeId::TRUE);
            let hit = ctx.bdd.and(seed, b.reach[src_node]);
            acc = ctx.bdd.or(acc, hit);
        }
        acc
    }

    /// `service_reachable` (`blocked: None`) or `service_blocked` (`Some(
    /// from_external_only)`) rendered by the per-start, per-sink
    /// [`backproject`]: its violations carry the example, contrast and
    /// trace the one-walk queries must report.
    fn reference(ctx: &mut QueryContext<'_>, service: &ServiceSpec, blocked: Option<bool>) -> String {
        let traffic = ctx.service_traffic(service);
        let sinks = service_sinks(ctx.graph, ctx.devices, service);
        let starts: Vec<HostIface> = host_facing_interfaces(ctx.devices, ctx.topo)
            .into_iter()
            .filter(|h| match blocked {
                None => !h.external,
                Some(external_only) => !external_only || h.external,
            })
            .filter(|h| !h.subnet.overlaps(&service.prefix))
            .collect();
        let prefs = Preferences::likely(ctx.bdd, ctx.vars);
        let mut violations = Vec::new();
        for start in &starts {
            let Some(src_node) = ctx.graph.node(&NodeKind::IfaceSrc(
                start.device.clone(),
                start.interface.clone(),
            )) else {
                continue;
            };
            let seed = match blocked {
                None => ctx.seed(start, traffic),
                Some(_) => {
                    let init = ctx.vars.initial_bits(ctx.bdd);
                    ctx.bdd.and(traffic, init)
                }
            };
            if seed == NodeId::FALSE {
                continue;
            }
            let arrived = backproject(ctx, src_node, &sinks, seed);
            let missed = ctx.bdd.diff(seed, arrived);
            let (bad, good) = if blocked.is_some() { (arrived, missed) } else { (missed, arrived) };
            if bad == NodeId::FALSE {
                continue;
            }
            let example = pick_flow(ctx.bdd, ctx.vars, bad, &prefs).expect("non-empty");
            let trace = ctx.annotate(start, &example);
            let positive_example = pick_flow(ctx.bdd, ctx.vars, good, &prefs);
            violations.push(Violation { start: start.clone(), example, positive_example, trace });
        }
        let query = if blocked.is_some() { "service-blocked" } else { "service-reachable" };
        render(&QueryReport { query, violations, starts_checked: starts.len() })
    }

    /// Every field of a report, examples in full.
    fn render(r: &QueryReport) -> String {
        let mut out = format!("{} {}\n", r.query, r.starts_checked);
        for v in &r.violations {
            out += &format!("{v}\n{:?} {:?}\n", v.example, v.positive_example);
        }
        out
    }

    #[test]
    fn one_walk_per_question_matches_per_sink_walks_on_suite_networks() {
        use batnet_net::rng::Rng;
        for net in [batnet_topogen::suite::n2(), batnet_topogen::suite::net1()] {
            let mut w = world(net.parse(), &net.env);
            let mut universe: Vec<Prefix> = w
                .devices
                .iter()
                .flat_map(|d| d.active_interfaces().filter_map(|i| i.connected_prefix()))
                .collect();
            universe.sort();
            universe.dedup();
            let mut rng = Rng::new(7);
            let mut violations = 0;
            for _ in 0..6 {
                let service = ServiceSpec::tcp(*rng.pick(&universe), *rng.pick(&[22, 80, 443, 53]));
                let got = service_reachable(&mut w.ctx(), &service);
                violations += got.violations.len();
                assert_eq!(render(&got), reference(&mut w.ctx(), &service, None), "{service:?}");
                for external in [true, false] {
                    let got = service_blocked(&mut w.ctx(), &service, external);
                    violations += got.violations.len();
                    let want = reference(&mut w.ctx(), &service, Some(external));
                    assert_eq!(render(&got), want, "{service:?} external={external}");
                }
            }
            assert!(violations > 0, "{}: no question found a violation", net.name);
        }
    }

    /// Clients on r1, servers behind r2; r1's EDGE ACL permits only web
    /// traffic towards the servers.
    fn web_world() -> World {
        build(&[
            (
                "r1",
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\ninterface core\n ip address 172.16.0.1/31\nip route 10.2.0.0/24 172.16.0.0\nip access-list extended EDGE\n 10 permit tcp 10.1.0.0 0.0.0.255 10.2.0.0 0.0.0.255 eq 443\n 20 deny ip any any\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 172.16.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.1\n",
            ),
        ])
    }

    #[test]
    fn reachable_service_passes() {
        let mut w = web_world();
        let mut ctx = w.ctx();
        let service = ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 443);
        let report = service_reachable(&mut ctx, &service);
        assert!(report.holds(), "{}", report.violations[0]);
        assert_eq!(report.starts_checked, 1);
    }

    #[test]
    fn blocked_port_violates_reachability_with_examples() {
        let mut w = web_world();
        let mut ctx = w.ctx();
        // Port 80 is not in the ACL: reachability must fail with a
        // violation example on port 80 and no positive example (no 80
        // traffic gets through at all).
        let service = ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 80);
        let report = service_reachable(&mut ctx, &service);
        assert!(!report.holds());
        let v = &report.violations[0];
        assert_eq!(v.example.dst_port, 80);
        assert!(v.example.src_ip.to_string().starts_with("10.1.0."), "scoped source");
        assert!(v.trace.contains("EDGE"), "trace annotated with the ACL:\n{}", v.trace);
    }

    #[test]
    fn service_blocked_query() {
        let mut w = web_world();
        let mut ctx = w.ctx();
        // SSH to the servers must be blocked — and it is (ACL).
        let ssh = ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 22);
        let report = service_blocked(&mut ctx, &ssh, false);
        assert!(report.holds());
        // HTTPS is open: the blocked query must flag it.
        let https = ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 443);
        let report = service_blocked(&mut ctx, &https, false);
        assert!(!report.holds());
        assert_eq!(report.violations[0].example.dst_port, 443);
    }

    #[test]
    fn a_secondary_address_and_subnet_are_service_sinks() {
        // r2 owns 10.9.9.1 and its /24 as a secondary address only: the
        // graph accepts traffic to 10.9.9.1 at r2 and delivers the rest of
        // the /24 to hosts on r2[core], as the concrete tracer does, so
        // both questions must find those sinks.
        let mut w = build(&[
            (
                "r1",
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface core\n ip address 172.16.0.1/31\nip route 10.9.9.0/24 172.16.0.0\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 172.16.0.0/31\n ip address 10.9.9.1 255.255.255.0 secondary\nip route 10.1.0.0/24 172.16.0.1\n",
            ),
        ]);
        assert_eq!(w.devices[1].interfaces["core"].secondary_addresses.len(), 1);
        let flow = Flow::tcp("10.1.0.5".parse().unwrap(), 40000, "10.9.9.9".parse().unwrap(), 443);
        let trace = Tracer::new(&w.devices, &w.dp, &w.topo)
            .trace(&StartLocation::ingress("r1", "hosts"), &flow);
        assert!(trace.to_string().contains("delivered to subnet via r2[core]"), "{trace}");
        let mut ctx = w.ctx();
        for prefix in ["10.9.9.1/32", "10.9.9.0/24"] {
            let service = ServiceSpec::tcp(prefix.parse().unwrap(), 443);
            let report = service_reachable(&mut ctx, &service);
            assert_eq!(report.starts_checked, 1);
            assert!(report.holds(), "{prefix}: {}", report.violations[0]);
        }
    }

    #[test]
    fn waypoint_query_detects_bypass() {
        // Two paths from clients to servers: via fw (r3) and via a direct
        // backdoor link r1–r2. The waypoint query must catch the bypass.
        let mut w = build(&[
            (
                "r1",
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface viafw\n ip address 172.16.0.1/31\ninterface direct\n ip address 172.16.1.1/31\nip route 10.2.0.0/24 172.16.0.0\nip route 10.2.0.0/24 172.16.1.0\n",
            ),
            (
                "fw",
                "hostname fw\ninterface a\n ip address 172.16.0.0/31\ninterface b\n ip address 172.16.2.1/31\nip route 10.2.0.0/24 172.16.2.0\nip route 10.1.0.0/24 172.16.0.1\n",
            ),
            (
                "r2",
                "hostname r2\ninterface direct\n ip address 172.16.1.0/31\ninterface fromfw\n ip address 172.16.2.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.1.1\n",
            ),
        ]);
        w.graph.instrument_waypoint(&mut w.bdd, &w.vars, "fw", 0);
        let mut ctx = w.ctx();
        let service = ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 443);
        let report = waypoint_enforced(&mut ctx, &service);
        assert!(!report.holds(), "direct path bypasses the firewall");
    }
}
