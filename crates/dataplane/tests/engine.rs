//! Integration tests for the BDD dataflow engine, including the §4.3.2
//! differential tests against the independent concrete engine.

use batnet_bdd::{Bdd, NodeId};
use batnet_config::vi::Device;
use batnet_config::{parse_device, Topology};
use batnet_dataplane::compress::compress;
use batnet_dataplane::{ForwardingGraph, NodeKind, PacketVars, ReachAnalysis};
use batnet_net::governor::ResourceGovernor;
use batnet_net::{Flow, Ip};
use batnet_routing::{simulate, DataPlane, Environment, SimOptions};
use batnet_traceroute::{Disposition, StartLocation, Tracer};

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
    assert!(dp.convergence.converged, "fixture must converge");
    let (mut bdd, vars) = PacketVars::new(1);
    let graph = ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo);
    World {
        devices,
        dp,
        topo,
        bdd,
        vars,
        graph,
    }
}

/// The paper's Figure 2 network: R1 with three interfaces, R2 and R3
/// behind it; prefixes P1/P2/P3; an outbound ACL on R1.i3 allowing only
/// ssh.
fn figure2() -> World {
    build(&[
        (
            "r1",
            "hostname r1\n\
             interface i0\n ip address 10.0.9.1/24\n\
             interface i1\n ip address 10.0.12.1/31\n\
             interface i2\n ip address 10.0.13.1/31\n\
             interface i3\n ip address 10.0.3.1/24\n ip access-group SSHONLY out\n\
             ip route 10.0.1.0/24 10.0.12.0\n\
             ip route 10.0.2.0/24 10.0.13.0\n\
             ip access-list extended SSHONLY\n \
             10 permit tcp any any eq 22\n",
        ),
        (
            "r2",
            "hostname r2\n\
             interface i1\n ip address 10.0.12.0/31\n\
             interface lan\n ip address 10.0.1.1/24\n\
             ip route 10.0.9.0/24 10.0.12.1\n",
        ),
        (
            "r3",
            "hostname r3\n\
             interface i2\n ip address 10.0.13.0/31\n\
             interface lan\n ip address 10.0.2.1/24\n\
             ip route 10.0.9.0/24 10.0.13.1\n",
        ),
    ])
}

fn src_node(w: &World, dev: &str, iface: &str) -> usize {
    w.graph
        .node(&NodeKind::IfaceSrc(dev.into(), iface.into()))
        .unwrap_or_else(|| panic!("missing src node {dev}[{iface}]"))
}

fn flow_in(w: &mut World, set: NodeId, f: &Flow) -> bool {
    let fb = w.vars.flow(&mut w.bdd, f);
    w.bdd.and(set, fb) != NodeId::FALSE
}

#[test]
fn figure2_reachability_example() {
    let mut w = figure2();
    // The paper's walk-through: TCP packets entering at R1.i0; which can
    // leave via R3's LAN (prefix P2 = 10.0.2.0/24)?
    let tcp = w
        .vars
        .headerspace(&mut w.bdd, &batnet_net::HeaderSpace::any().protocol(batnet_net::IpProtocol::Tcp));
    let src = src_node(&w, "r1", "i0");
    let analysis = ReachAnalysis::new(&w.graph);
    let r = analysis.forward(&mut w.bdd, &[(src, tcp)]);
    let r3_out = w
        .graph
        .node(&NodeKind::DeliveredToSubnet("r3".into(), "lan".into()))
        .expect("r3 lan delivery sink");
    let reached = r.at(r3_out);
    assert_ne!(reached, NodeId::FALSE);
    // Packets to P2 get there; packets to P1 do not appear at this sink.
    let to_p2 = Flow::tcp(Ip::new(10, 0, 9, 5), 1000, Ip::new(10, 0, 2, 9), 80);
    let to_p1 = Flow::tcp(Ip::new(10, 0, 9, 5), 1000, Ip::new(10, 0, 1, 9), 80);
    assert!(flow_in(&mut w, reached, &to_p2));
    assert!(!flow_in(&mut w, reached, &to_p1));
    // The ACL on R1.i3: only ssh reaches hosts behind i3.
    let r1_i3 = w
        .graph
        .node(&NodeKind::DeliveredToSubnet("r1".into(), "i3".into()))
        .expect("r1 i3 delivery sink");
    let via_i3 = r.at(r1_i3);
    let ssh = Flow::tcp(Ip::new(10, 0, 9, 5), 1000, Ip::new(10, 0, 3, 9), 22);
    let http = Flow::tcp(Ip::new(10, 0, 9, 5), 1000, Ip::new(10, 0, 3, 9), 80);
    assert!(flow_in(&mut w, via_i3, &ssh));
    assert!(!flow_in(&mut w, via_i3, &http));
}

#[test]
fn compression_preserves_reachability() {
    let mut w = figure2();
    let src = src_node(&w, "r1", "i0");
    let analysis = ReachAnalysis::new(&w.graph);
    let r_full = analysis.forward(&mut w.bdd, &[(src, NodeId::TRUE)]);
    let full_succ = analysis.success_set(&mut w.bdd, &r_full);
    let full_drop = analysis.drop_set(&mut w.bdd, &r_full, None);

    let (cg, stats) = compress(&mut w.bdd, &w.graph);
    assert!(stats.nodes_after < stats.nodes_before, "{stats:?}");
    let csrc = cg
        .node(&NodeKind::IfaceSrc("r1".into(), "i0".into()))
        .expect("source survives compression");
    let canalysis = ReachAnalysis::new(&cg);
    let r_c = canalysis.forward(&mut w.bdd, &[(csrc, NodeId::TRUE)]);
    let c_succ = canalysis.success_set(&mut w.bdd, &r_c);
    let c_drop = canalysis.drop_set(&mut w.bdd, &r_c, None);
    assert_eq!(full_succ, c_succ, "success sets must be identical");
    assert_eq!(full_drop, c_drop, "drop sets must be identical");
}

#[test]
fn backward_agrees_with_forward() {
    let mut w = figure2();
    let src = src_node(&w, "r1", "i0");
    let sink = w
        .graph
        .node(&NodeKind::DeliveredToSubnet("r3".into(), "lan".into()))
        .unwrap();
    // Forward: what reaches the sink from this source.
    let analysis = ReachAnalysis::new(&w.graph);
    let f = analysis.forward(&mut w.bdd, &[(src, NodeId::TRUE)]);
    let fwd_at_sink = f.at(sink);
    // Backward: what at the source can reach the sink.
    let b = analysis.backward(&mut w.bdd, &w.vars, sink, NodeId::TRUE);
    let back_at_src = b.at(src);
    // The two agree on the source's injectable packets: a packet is in
    // the forward sink set iff it is in the backward source set (modulo
    // the init-bits constraint applied on the injection edge).
    let init = w.vars.initial_bits(&mut w.bdd);
    let back_injectable = w.bdd.and(back_at_src, init);
    let fwd_from_back = analysis.forward(&mut w.bdd, &[(src, back_injectable)]);
    assert_eq!(fwd_from_back.at(sink), fwd_at_sink);
    // And packets NOT in the backward set never arrive.
    let not_back = w.bdd.not(back_at_src);
    let blocked = analysis.forward(&mut w.bdd, &[(src, not_back)]);
    assert_eq!(blocked.at(sink), NodeId::FALSE);
}

/// Checks on `w` that one walk from a set of sinks is, node by node, the
/// same `NodeId` as the union of one [`ReachAnalysis::backward`] per sink,
/// and that from a single sink it is that sink's walk: pulling only what
/// a node gained since it was last popped loses nothing.
fn check_backward_from(w: &mut World, sinks: &[usize]) {
    let analysis = ReachAnalysis::new(&w.graph);
    let unlimited = ResourceGovernor::unlimited();
    let mut union = vec![NodeId::FALSE; w.graph.nodes.len()];
    for &sink in sinks {
        let one = analysis.backward(&mut w.bdd, &w.vars, sink, NodeId::TRUE);
        let from = analysis.backward_from(&mut w.bdd, &w.vars, &[sink], &unlimited).into_value();
        assert!(one.reach == from.reach, "sink {:?}", w.graph.nodes[sink]);
        for (acc, set) in union.iter_mut().zip(one.reach) {
            *acc = w.bdd.or(*acc, set);
        }
    }
    let all = analysis.backward_from(&mut w.bdd, &w.vars, sinks, &unlimited).into_value();
    for (node, (&got, &want)) in all.reach.iter().zip(&union).enumerate() {
        assert_eq!(got, want, "node {:?}", w.graph.nodes[node]);
    }
}

#[test]
fn backward_from_sinks_is_the_union_of_single_sink_walks() {
    for net in [batnet_topogen::suite::n2(), batnet_topogen::suite::net1()] {
        let mut w = world(net.parse(), &net.env);
        let sinks = w.graph.nodes_where(NodeKind::is_success_sink);
        assert!(!sinks.is_empty(), "{}", net.name);
        check_backward_from(&mut w, &sinks);
    }
    // A destination NAT on ingress and stateful zones: transform edges
    // on every host port's chain.
    let mut w = build(&[
        (
            "fw",
            "hostname fw\nzone security inside\nzone security outside\n\
             zone-pair security inside outside acl OUTBOUND\n\
             zone-pair security outside inside acl INBOUND\n\
             interface h1\n ip address 10.1.1.1/24\n ip access-group HOSTS in\n zone-member security inside\n\
             interface up\n ip address 172.16.0.1/31\n zone-member security outside\n\
             ip access-list extended HOSTS\n 10 deny tcp any any eq 23\n 20 permit ip any any\n\
             ip access-list extended OUTBOUND\n 10 permit ip any any\n\
             ip access-list extended INBOUND\n 10 permit tcp any any eq 443\n\
             ip nat destination static 203.0.113.10 10.2.0.10\n\
             ip route 10.2.0.0/24 172.16.0.0\n",
        ),
        (
            "r2",
            "hostname r2\ninterface down\n ip address 172.16.0.0/31\n\
             interface servers\n ip address 10.2.0.1/24\n\
             ip route 10.1.0.0/16 172.16.0.1\n",
        ),
    ]);
    assert!(w.graph.edges.iter().any(|e| matches!(e.label, batnet_dataplane::EdgeLabel::Transform(..))));
    let sinks = w.graph.nodes_where(NodeKind::is_success_sink);
    check_backward_from(&mut w, &sinks);
}

/// §4.3.2, direction 1: for each success sink, pick a representative
/// packet from the symbolic headerspace and confirm the concrete engine
/// delivers it to the same location with the same disposition type.
#[test]
fn differential_reachability_to_traceroute() {
    let mut w = figure2();
    let tracer = Tracer::new(&w.devices, &w.dp, &w.topo);
    for (dev, iface) in [("r1", "i0"), ("r2", "lan"), ("r3", "lan")] {
        let src = src_node(&w, dev, iface);
        let analysis = ReachAnalysis::new(&w.graph);
        let r = analysis.forward(&mut w.bdd, &[(src, NodeId::TRUE)]);
        for (ni, kind) in w.graph.nodes.iter().enumerate() {
            let set = r.at(ni);
            if set == NodeId::FALSE {
                continue;
            }
            let expect: Option<Disposition> = match kind {
                NodeKind::Accept(d) => Some(Disposition::Accepted { device: d.clone() }),
                NodeKind::DeliveredToSubnet(d, i) => Some(Disposition::DeliveredToSubnet {
                    device: d.clone(),
                    iface: i.clone(),
                }),
                NodeKind::ExitsNetwork(d, i) => Some(Disposition::ExitsNetwork {
                    device: d.clone(),
                    iface: i.clone(),
                }),
                _ => None,
            };
            let Some(expect) = expect else { continue };
            let cube = w.bdd.pick_cube(set).expect("non-empty");
            let flow = w.vars.cube_to_flow(&cube);
            let trace = tracer.trace(&StartLocation::ingress(dev, iface), &flow);
            assert!(
                trace
                    .paths
                    .iter()
                    .any(|p| p.disposition == expect),
                "flow {flow} from {dev}[{iface}] expected {expect:?}, got {trace}"
            );
        }
    }
}

/// §4.3.2, direction 2: for each FIB entry, build a covered packet, run
/// the concrete engine, and confirm the symbolic engine reports the same
/// terminal disposition from the same start.
#[test]
fn differential_traceroute_to_reachability() {
    let mut w = figure2();
    let tracer = Tracer::new(&w.devices, &w.dp, &w.topo);
    let starts = [("r1", "i0"), ("r2", "lan"), ("r3", "lan")];
    for (dev, iface) in starts {
        let ddp = w.dp.device(dev).unwrap();
        let dsts: Vec<Ip> = ddp
            .fib
            .entries()
            .iter()
            .map(|e| e.prefix.network())
            .collect();
        for dst in dsts {
            let flow = Flow::tcp(Ip::new(10, 0, 9, 5), 40000, dst, 22);
            let trace = tracer.trace(&StartLocation::ingress(dev, iface), &flow);
            let src = src_node(&w, dev, iface);
            let fb = w.vars.flow(&mut w.bdd, &flow);
            let analysis = ReachAnalysis::new(&w.graph);
            let r = analysis.forward(&mut w.bdd, &[(src, fb)]);
            for p in &trace.paths {
                let node = match &p.disposition {
                    Disposition::Accepted { device } => {
                        w.graph.node(&NodeKind::Accept(device.clone()))
                    }
                    Disposition::DeliveredToSubnet { device, iface } => w
                        .graph
                        .node(&NodeKind::DeliveredToSubnet(device.clone(), iface.clone())),
                    Disposition::ExitsNetwork { device, iface } => w
                        .graph
                        .node(&NodeKind::ExitsNetwork(device.clone(), iface.clone())),
                    Disposition::NoRoute { device } => w.graph.node(&NodeKind::Drop(
                        device.clone(),
                        batnet_dataplane::DropKind::NoRoute,
                    )),
                    Disposition::NullRouted { device } => w.graph.node(&NodeKind::Drop(
                        device.clone(),
                        batnet_dataplane::DropKind::NullRouted,
                    )),
                    Disposition::DeniedOut { device, acl: _ } => {
                        // Any AclOut drop node of the device qualifies.
                        w.graph
                            .nodes_where(|k| {
                                matches!(k, NodeKind::Drop(d, batnet_dataplane::DropKind::AclOut(_)) if d == device)
                            })
                            .first()
                            .copied()
                    }
                    other => panic!("unexpected concrete disposition {other:?}"),
                };
                let node = node.unwrap_or_else(|| {
                    panic!("no symbolic node for {:?} ({flow})", p.disposition)
                });
                assert_ne!(
                    r.at(node),
                    NodeId::FALSE,
                    "symbolic engine missed {:?} for {flow} from {dev}[{iface}]",
                    p.disposition
                );
            }
        }
    }
}

#[test]
fn zone_policy_drops_return_traffic() {
    // Stateful firewall between a trust LAN and an untrust uplink:
    // trust → untrust permitted for tcp/443, no untrust → trust policy.
    let mut w = build(&[(
        "fw",
        "hostname fw\n\
         interface trust0\n ip address 10.0.0.1/24\n zone-member security trust\n\
         interface untrust0\n ip address 203.0.113.1/24\n zone-member security untrust\n\
         zone security trust\nzone security untrust\n\
         ip access-list extended OUTBOUND\n 10 permit tcp any any eq 443\n\
         zone-pair security trust untrust acl OUTBOUND\n",
    )]);
    let init = w.vars.initial_bits(&mut w.bdd);
    let seeded = |w: &mut World, flow: &Flow| {
        let set = w.vars.flow(&mut w.bdd, flow);
        w.bdd.and(set, init)
    };
    let fwd = seeded(
        &mut w,
        &Flow::tcp(Ip::new(10, 0, 0, 9), 50000, Ip::new(203, 0, 113, 99), 443),
    );
    let ret = seeded(
        &mut w,
        &Flow::tcp(Ip::new(203, 0, 113, 99), 443, Ip::new(10, 0, 0, 9), 50000),
    );
    let src = src_node(&w, "fw", "trust0");
    let ret_src = src_node(&w, "fw", "untrust0");
    let delivered = |w: &World, iface: &str| {
        w.graph
            .node(&NodeKind::DeliveredToSubnet("fw".into(), iface.into()))
            .unwrap()
    };
    let analysis = ReachAnalysis::new(&w.graph);
    // Forward traffic leaves via untrust0.
    let r = analysis.forward(&mut w.bdd, &[(src, fwd)]);
    assert_ne!(r.at(delivered(&w, "untrust0")), NodeId::FALSE);
    // With no session fast path, the return flow is zone-dropped.
    let r = analysis.forward(&mut w.bdd, &[(ret_src, ret)]);
    assert_eq!(r.at(delivered(&w, "trust0")), NodeId::FALSE);
    let zone_drop = analysis.drop_set(&mut w.bdd, &r, Some(&batnet_dataplane::DropKind::Zone));
    assert_ne!(zone_drop, NodeId::FALSE);
}

#[test]
fn both_engines_deliver_to_a_secondary_subnet() {
    // r1's edge interface `lan` carries 10.3.0.0/24 only as a secondary
    // subnet: hosts there are delivered, not sent out of the network.
    let mut w = build(&[(
        "r1",
        "hostname r1\n\
         interface hosts\n ip address 10.1.0.1/24\n\
         interface lan\n ip address 10.2.0.1/24\n ip address 10.3.0.1 255.255.255.0 secondary\n",
    )]);
    let flow = Flow::tcp(Ip::new(10, 1, 0, 5), 40000, Ip::new(10, 3, 0, 9), 22);
    let tracer = Tracer::new(&w.devices, &w.dp, &w.topo);
    let trace = tracer.trace(&StartLocation::ingress("r1", "hosts"), &flow);
    let delivered = Disposition::DeliveredToSubnet { device: "r1".into(), iface: "lan".into() };
    assert_eq!(trace.paths[0].disposition, delivered, "{trace}");
    let src = src_node(&w, "r1", "hosts");
    let init = w.vars.initial_bits(&mut w.bdd);
    let set = w.vars.flow(&mut w.bdd, &flow);
    let seed = w.bdd.and(set, init);
    let r = ReachAnalysis::new(&w.graph).forward(&mut w.bdd, &[(src, seed)]);
    let sink = w
        .graph
        .node(&NodeKind::DeliveredToSubnet("r1".into(), "lan".into()))
        .unwrap();
    assert_ne!(r.at(sink), NodeId::FALSE, "the symbolic engine delivers it too");
    if let Some(exits) = w.graph.node(&NodeKind::ExitsNetwork("r1".into(), "lan".into())) {
        assert_eq!(r.at(exits), NodeId::FALSE);
    }
}

#[test]
fn multipath_consistency_clean_network() {
    let mut w = figure2();
    for (dev, iface) in [("r1", "i0"), ("r2", "lan"), ("r3", "lan")] {
        let src = src_node(&w, dev, iface);
        let analysis = ReachAnalysis::new(&w.graph);
        let bad = analysis.multipath_inconsistency(&mut w.bdd, src);
        // Fig-2 is single-path everywhere: a packet either succeeds or
        // drops, never both.
        assert_eq!(bad, NodeId::FALSE, "from {dev}[{iface}]");
    }
}

#[test]
fn loop_detection_on_looping_statics() {
    let mut w = build(&[
        (
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/31\nip route 10.9.0.0/16 10.0.0.0\n",
        ),
        (
            "r2",
            "hostname r2\ninterface e0\n ip address 10.0.0.0/31\nip route 10.9.0.0/16 10.0.0.1\n",
        ),
    ]);
    let analysis = ReachAnalysis::new(&w.graph);
    let r = analysis.forward_from_all_sources(&mut w.bdd, NodeId::TRUE);
    let loops = analysis.detect_loops(&mut w.bdd, &r);
    assert!(!loops.is_empty(), "static route loop must be found");
    // The looping set is exactly traffic to 10.9/16.
    let (_, set) = loops[0];
    let inside = Flow::icmp_echo(Ip::new(1, 1, 1, 1), Ip::new(10, 9, 1, 1));
    let outside = Flow::icmp_echo(Ip::new(1, 1, 1, 1), Ip::new(10, 8, 1, 1));
    assert!(flow_in(&mut w, set, &inside));
    assert!(!flow_in(&mut w, set, &outside));

    // And the clean fixture has no loops.
    let mut clean = figure2();
    let analysis = ReachAnalysis::new(&clean.graph);
    let r = analysis.forward_from_all_sources(&mut clean.bdd, NodeId::TRUE);
    assert!(analysis.detect_loops(&mut clean.bdd, &r).is_empty());
}
