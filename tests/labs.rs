//! Fidelity labs (§4.3.1): small networks exercising features of
//! interest, with recorded ground-truth expectations.
//!
//! In the paper, labs are built in an emulator (GNS3) with real device
//! images, and runtime state (routes, traceroutes) is collected as ground
//! truth; the model is validated against it daily. Our stand-in ground
//! truth is hand-derived from the configurations (what a lab engineer
//! would read off `show` output), recorded as [`Expectation`]s, and
//! replayed on every test run — including deviations from recommended
//! configuration, the paper's main fidelity lesson.

use batnet::net::{Flow, TcpFlags};
use batnet::traceroute::Disposition;
use batnet::{validate_lab, Expectation, Snapshot};

fn tcp(src: &str, sport: u16, dst: &str, dport: u16) -> Flow {
    Flow::tcp(src.parse().unwrap(), sport, dst.parse().unwrap(), dport)
}

fn expect(
    device: &str,
    iface: &str,
    flow: Flow,
    disposition: Disposition,
) -> Expectation {
    Expectation {
        device: device.into(),
        iface: iface.into(),
        flow,
        disposition,
    }
}

/// Lab 1: basic static routing + ACL, recommended configuration.
#[test]
fn lab_static_routing_and_acl() {
    let snapshot = Snapshot::from_configs(vec![
        (
            "r1".into(),
            "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\ninterface core\n ip address 172.16.0.1/31\nip route 10.2.0.0/24 172.16.0.0\nip access-list extended EDGE\n 10 permit tcp any any eq 80\n 20 permit icmp any any\n 30 deny ip any any\n".into(),
        ),
        (
            "r2".into(),
            "hostname r2\ninterface core\n ip address 172.16.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.1\n".into(),
        ),
    ]);
    let analysis = snapshot.analyze();
    let truth = vec![
        expect(
            "r1",
            "hosts",
            tcp("10.1.0.5", 40000, "10.2.0.9", 80),
            Disposition::DeliveredToSubnet {
                device: "r2".into(),
                iface: "servers".into(),
            },
        ),
        expect(
            "r1",
            "hosts",
            tcp("10.1.0.5", 40000, "10.2.0.9", 22),
            Disposition::DeniedIn {
                device: "r1".into(),
                acl: "EDGE".into(),
            },
        ),
        expect(
            "r1",
            "hosts",
            Flow::icmp_echo("10.1.0.5".parse().unwrap(), "172.16.0.0".parse().unwrap()),
            Disposition::Accepted { device: "r2".into() },
        ),
        expect(
            "r1",
            "hosts",
            Flow::icmp_echo("10.1.0.5".parse().unwrap(), "192.168.9.9".parse().unwrap()),
            Disposition::NoRoute { device: "r1".into() },
        ),
    ];
    let report = validate_lab(&analysis, &truth);
    assert!(report.ok(), "{:#?}", report.mismatches);
}

/// Lab 2: the undefined-route-map deviation — the paper's motivating
/// fidelity question. Ground truth (our documented default): an
/// undefined import policy rejects everything.
#[test]
fn lab_undefined_route_map_deviation() {
    let snapshot = Snapshot::from_configs(vec![
        (
            "r1".into(),
            "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\n neighbor 10.0.0.0 route-map GHOST in\n".into(),
        ),
        (
            "r2".into(),
            "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface lan\n ip address 10.2.0.1/24\nrouter bgp 65002\n redistribute connected\n neighbor 10.0.0.1 remote-as 65001\n".into(),
        ),
    ]);
    // The reference is undefined, yet parsing succeeds (Lesson 3: total
    // parsing) and the documented default applies (fail closed).
    let analysis = snapshot.analyze();
    let r1 = analysis.dp.device("r1").unwrap();
    assert!(
        r1.main_rib.lookup("10.2.0.9".parse().unwrap()).is_none(),
        "undefined import policy must reject the peer's routes"
    );
    // The session itself is up, and r2 (no policy) still learns r1's LAN.
    let r2 = analysis.dp.device("r2").unwrap();
    assert!(r2.main_rib.lookup("10.1.0.9".parse().unwrap()).is_some());
}

/// Lab 3: established-flag handling through an ACL — the Lesson-4
/// "uninteresting violation" case (c): SYN/ACK towards a host that never
/// sent a SYN is dropped by the classic established ACL.
#[test]
fn lab_established_acl() {
    let snapshot = Snapshot::from_configs(vec![(
        "r1".into(),
        "hostname r1\ninterface inside\n ip address 10.1.0.1/24\ninterface outside\n ip address 203.0.113.1/24\n ip access-group RETURN in\nip access-list extended RETURN\n 10 permit tcp any any established\n 20 deny ip any any\n".into(),
    )]);
    let analysis = snapshot.analyze();
    // A bare SYN from outside is dropped…
    let syn = tcp("203.0.113.9", 40000, "10.1.0.5", 80);
    let truth = vec![
        expect(
            "r1",
            "outside",
            syn,
            Disposition::DeniedIn {
                device: "r1".into(),
                acl: "RETURN".into(),
            },
        ),
        // …but an ACK (return traffic) passes.
        expect(
            "r1",
            "outside",
            Flow {
                tcp_flags: TcpFlags::ACK,
                ..syn
            },
            Disposition::DeliveredToSubnet {
                device: "r1".into(),
                iface: "inside".into(),
            },
        ),
    ];
    let report = validate_lab(&analysis, &truth);
    assert!(report.ok(), "{:#?}", report.mismatches);
}

/// Lab 4: ECMP — both paths of a diamond must carry traffic.
#[test]
fn lab_ecmp_diamond() {
    let snapshot = Snapshot::from_configs(vec![
        (
            "src".into(),
            "hostname src\ninterface lan\n ip address 10.1.0.1/24\ninterface a\n ip address 172.16.0.0/31\ninterface b\n ip address 172.16.0.2/31\nip route 10.2.0.0/24 172.16.0.1\nip route 10.2.0.0/24 172.16.0.3\n".into(),
        ),
        (
            "via1".into(),
            "hostname via1\ninterface a\n ip address 172.16.0.1/31\ninterface c\n ip address 172.16.0.4/31\nip route 10.2.0.0/24 172.16.0.5\nip route 10.1.0.0/24 172.16.0.0\n".into(),
        ),
        (
            "via2".into(),
            "hostname via2\ninterface b\n ip address 172.16.0.3/31\ninterface d\n ip address 172.16.0.6/31\nip route 10.2.0.0/24 172.16.0.7\nip route 10.1.0.0/24 172.16.0.2\n".into(),
        ),
        (
            "dst".into(),
            "hostname dst\ninterface c\n ip address 172.16.0.5/31\ninterface d\n ip address 172.16.0.7/31\ninterface lan\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.4\n".into(),
        ),
    ]);
    let analysis = snapshot.analyze();
    let flow = tcp("10.1.0.5", 40000, "10.2.0.9", 80);
    let trace = analysis.trace("src", "lan", &flow);
    assert_eq!(trace.paths.len(), 2, "both ECMP branches explored:\n{trace}");
    assert!(trace.all_succeed(), "{trace}");
    // One path through via1, the other through via2.
    let through: Vec<bool> = ["via1", "via2"]
        .iter()
        .map(|v| {
            trace
                .paths
                .iter()
                .any(|p| p.hops.iter().any(|h| h.device == *v))
        })
        .collect();
    assert_eq!(through, vec![true, true]);
}

/// Lab 5: source NAT round trip at the border.
#[test]
fn lab_source_nat() {
    let snapshot = Snapshot::from_configs(vec![(
        "border".into(),
        "hostname border\ninterface inside\n ip address 10.0.0.1/24\ninterface outside\n ip address 203.0.113.1/24\nip nat pool P 198.51.100.4 198.51.100.7\nip access-list extended INSIDE\n 10 permit ip 10.0.0.0 0.0.0.255 any\nip nat source list INSIDE pool P interface outside\n".into(),
    )]);
    let analysis = snapshot.analyze();
    let flow = tcp("10.0.0.5", 40000, "203.0.113.9", 443);
    let trace = analysis.trace("border", "inside", &flow);
    assert!(trace.paths[0].disposition.is_success(), "{trace}");
    let out = trace.paths[0].final_flow;
    assert!(
        (0x0464..=0x0467).contains(&(out.src_ip.0 & 0xffff)) || out.src_ip.to_string().starts_with("198.51.100."),
        "source must be rewritten into the pool: {out}"
    );
    assert_eq!(out.dst_ip, flow.dst_ip);
}

/// Lab 6 builder: r1's hosts reach r2 over a primary /31, and r3 only
/// over a subnet that r1 and r3 share as a secondary. r2's host
/// interface carries a secondary subnet, 10.9.9.0/24. `igp` names how
/// r1 and r2 exchange routes: `"ospf"` (r2's host interface passive) or
/// `"bgp"` (r2 redistributes connected).
fn secondary_lab(igp: &str) -> Snapshot {
    let (ospf, passive, r1_proc, r2_proc) = match igp {
        "ospf" => (
            " ip ospf area 0\n",
            " ip ospf area 0\n ip ospf passive\n",
            "router ospf 1\n".to_string(),
            "router ospf 1\n".to_string(),
        ),
        _ => (
            "",
            "",
            "router bgp 65001\n neighbor 172.16.0.0 remote-as 65002\n".to_string(),
            "router bgp 65002\n redistribute connected\n neighbor 172.16.0.1 remote-as 65001\n".to_string(),
        ),
    };
    Snapshot::from_configs(vec![
        (
            "r1".into(),
            format!(
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\n{passive}\
                 interface core\n ip address 172.16.0.1/31\n{ospf}\
                 interface side\n ip address 172.16.1.1/31\n ip address 10.13.0.1 255.255.255.0 secondary\n\
                 ip route 10.33.0.0/24 10.13.0.3\n{r1_proc}"
            ),
        ),
        (
            "r2".into(),
            format!(
                "hostname r2\ninterface core\n ip address 172.16.0.0/31\n{ospf}\
                 interface hosts\n ip address 10.2.0.1/24\n ip address 10.9.9.1 255.255.255.0 secondary\n{passive}\
                 {r2_proc}"
            ),
        ),
        (
            "r3".into(),
            "hostname r3\ninterface side\n ip address 172.16.3.1/31\n ip address 10.13.0.3 255.255.255.0 secondary\n\
             interface lan\n ip address 10.33.0.1/24\n"
                .into(),
        ),
    ])
}

/// Lab 6: a secondary subnet means what a primary one does. Other
/// routers learn it (OSPF, or BGP's redistribute connected), a shared
/// secondary subnet is a link, and every engine agrees.
#[test]
fn lab_secondary_subnets() {
    use batnet::baselines::{CubeDisposition, CubeNetwork, CubeSet};
    use batnet::datalog::{datalog_routes, RoutingInputs};
    use batnet::routing::MainNextHop;

    let delivered = |device: &str, iface: &str| Disposition::DeliveredToSubnet {
        device: device.into(),
        iface: iface.into(),
    };
    for igp in ["ospf", "bgp"] {
        let mut analysis = secondary_lab(igp).analyze();
        let truth = vec![
            // r2's secondary subnet is advertised to r1.
            expect("r1", "hosts", tcp("10.1.0.5", 40000, "10.9.9.5", 80), delivered("r2", "hosts")),
            // The static next hop lies on the r1–r3 secondary subnet.
            expect("r1", "hosts", tcp("10.1.0.5", 40000, "10.33.0.9", 80), delivered("r3", "lan")),
        ];
        let report = validate_lab(&analysis, &truth);
        assert!(report.ok(), "{igp}: {:#?}", report.mismatches);

        let report = batnet::differential_test(&mut analysis, usize::MAX);
        assert!(report.ok(), "{igp}: {:#?}", report.mismatches);

        let cubes = CubeNetwork::build(&analysis.devices, &analysis.dp, &analysis.topo);
        for (dst, address, device, iface) in [
            ("10.9.9.0/24", "10.9.9.1/32", "r2", "hosts"),
            ("10.33.0.0/24", "10.33.0.1/32", "r3", "lan"),
        ] {
            // The router's own address is accepted, every other address
            // delivered onto the subnet.
            let to = CubeSet::dst_prefix(dst.parse().unwrap());
            let own = CubeSet::dst_prefix(address.parse().unwrap());
            let (dispositions, _) = cubes.reach("r1", "hosts", to.clone());
            let accepted = CubeDisposition::Accepted(device.into());
            let sink = CubeDisposition::DeliveredToSubnet(device.into(), iface.into());
            assert_eq!(dispositions.keys().collect::<Vec<_>>(), [&accepted, &sink], "{igp} {dst}");
            assert!(own.subtract(&dispositions[&accepted]).is_empty(), "{igp} {dst}");
            assert!(to.subtract(&own).subtract(&dispositions[&sink]).is_empty(), "{igp} {dst}");
        }

        // The Datalog baseline derives r2's secondary subnet at r1 with
        // the imperative engine's next hop.
        let r1 = analysis.dp.device("r1").unwrap();
        let (_, routes) = r1.main_rib.lookup("10.9.9.5".parse().unwrap()).expect("route");
        let want: Vec<MainNextHop> = routes.iter().map(|r| r.next_hop.clone()).collect();
        let datalog = datalog_routes(
            &analysis.devices,
            &analysis.topo,
            &RoutingInputs::for_network(&analysis.devices, &analysis.topo),
        );
        let got: Vec<MainNextHop> = datalog.routes["r1"]
            .iter()
            .filter(|r| r.prefix.to_string() == "10.9.9.0/24")
            .map(|r| MainNextHop::Via(r.next_hop))
            .collect();
        assert_eq!(got, want, "{igp}");
    }
}

/// Lab 7 builder: one stateful firewall `fw` between a host LAN and `r2`,
/// laid out so that every step of the tracer's pipeline and every
/// disposition shows in some trace.
fn pipeline_lab() -> Snapshot {
    Snapshot::from_configs(vec![
        (
            "fw".into(),
            "hostname fw\n\
             interface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\n zone-member security trust\n\
             interface ghost\n ip address 10.3.0.1/24\n ip access-group NOPE in\n zone-member security trust\n\
             interface out2\n ip address 10.6.0.1/24\n ip access-group NOPE2 out\n zone-member security trust\n\
             interface dmz\n ip address 10.5.0.1/24\n zone-member security dmz\n\
             interface core\n ip address 172.16.0.1/31\n ip access-group OUTF out\n zone-member security untrust\n\
             interface link\n ip address 10.8.0.1/24\n\
             zone security trust\nzone security untrust\nzone security dmz\n\
             zone-pair security trust untrust acl OUTBOUND\n\
             ip access-list extended EDGE\n 10 permit tcp any any eq 80\n 20 permit tcp any any eq 443\n 30 permit icmp any any\n 40 deny tcp any any eq 22\n\
             ip access-list extended OUTBOUND\n 10 permit tcp any any eq 80\n 20 permit icmp any any\n\
             ip access-list extended OUTF\n 10 deny tcp any host 10.2.0.66 eq 80\n 20 permit ip any any\n\
             ip access-list extended NATSRC\n 10 permit ip 10.1.0.0 0.0.0.255 any\n\
             ip nat pool P 198.51.100.1 198.51.100.1\n\
             ip nat source list NATSRC pool P interface core\n\
             ip nat destination static 10.1.0.200 10.2.0.9\n\
             ip route 0.0.0.0/0 172.16.0.0\n\
             ip route 192.168.0.0/16 null0\n\
             ip route 10.9.0.0/16 10.9.0.1\n\
             ip route 10.70.0.0/16 10.8.0.9\n\
             ip route 10.50.0.0/16 172.16.0.0\n"
                .into(),
        ),
        (
            "r2".into(),
            "hostname r2\n\
             interface core\n ip address 172.16.0.0/31\n\
             interface servers\n ip address 10.2.0.1/24\n\
             interface link\n ip address 10.8.0.2/24\n\
             interface up\n ip address 203.0.113.2/31\n\
             ip route 8.8.0.0/16 203.0.113.3\n\
             ip route 10.50.0.0/16 172.16.0.1\n"
                .into(),
        ),
    ])
}

/// Lab 7: the tracer's annotated text (§4.4.3), pinned in full for every
/// pipeline step and every disposition.
#[test]
fn lab_trace_text_for_every_step() {
    use batnet::traceroute::StartLocation;
    let analysis = pipeline_lab().analyze();
    let tracer = analysis.tracer();
    let icmp = |src: &str, dst: &str| Flow::icmp_echo(src.parse().unwrap(), dst.parse().unwrap());
    let udp = Flow::udp("10.1.0.5".parse().unwrap(), 5000, "10.2.0.9".parse().unwrap(), 53);
    let cases: Vec<(StartLocation, Flow)> = vec![
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.2.0.9", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.2.0.9", 22)),
        (StartLocation::ingress("fw", "hosts"), udp),
        (StartLocation::ingress("fw", "ghost"), tcp("10.3.0.5", 40000, "10.2.0.9", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.1.0.200", 80)),
        (StartLocation::ingress("fw", "hosts"), icmp("10.1.0.5", "10.1.0.1")),
        (StartLocation::ingress("fw", "hosts"), icmp("10.1.0.5", "172.16.0.0")),
        (StartLocation::ingress("fw", "hosts"), icmp("10.1.0.5", "9.9.9.9")),
        (StartLocation::ingress("fw", "hosts"), icmp("10.1.0.5", "192.168.1.1")),
        (StartLocation::ingress("fw", "hosts"), icmp("10.1.0.5", "10.9.1.1")),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.2.0.9", 443)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.5.0.9", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.2.0.66", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.6.0.9", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "8.8.8.8", 80)),
        (StartLocation::ingress("fw", "hosts"), tcp("10.1.0.5", 40000, "10.70.1.1", 80)),
        (StartLocation::origin("fw"), icmp("172.16.0.1", "10.50.1.1")),
        (StartLocation::origin("fw"), icmp("172.16.0.1", "10.2.0.9")),
    ];
    let mut text = String::new();
    for (start, flow) in &cases {
        let at = start.ingress.as_deref().unwrap_or("origin");
        let trace = tracer.trace(start, flow);
        text += &format!("{}[{at}] {flow}\n{trace}", start.device);
        for p in &trace.paths {
            for h in &p.hops {
                text += &format!("  {}: {} => {}\n", h.device, h.flow_in, h.flow_out);
            }
            text += &format!("  final {}\n", p.final_flow);
        }
    }
    assert_eq!(text, PIPELINE_LAB_TRACES, "{text}");
}

/// What lab 7's traces read: a `device[ingress] flow` header, the trace,
/// then every hop's flow in and out and the path's final flow. An
/// undefined ACL is noted the same way in both directions (`ingress acl
/// NOPE undefined: permit`, `egress acl NOPE2 undefined: permit`).
const PIPELINE_LAB_TRACES: &str = "\
fw[hosts] tcp 10.1.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (10 permit tcp any any eq 80)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: tcp 10.1.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN) -> tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> servers]
    fib: 10.2.0.0/24 (Connected via 1 hop(s))
  => delivered to subnet via r2[servers]
  fw: tcp 10.1.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  r2: tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  final tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.2.0.9:22 TcpFlags(SYN)
path 1:
  fw [hosts -> -]
    ingress acl EDGE: deny (40 deny tcp any any eq 22)
  => denied in at fw by EDGE
  fw: tcp 10.1.0.5:40000 -> 10.2.0.9:22 TcpFlags(SYN) => tcp 10.1.0.5:40000 -> 10.2.0.9:22 TcpFlags(SYN)
  final tcp 10.1.0.5:40000 -> 10.2.0.9:22 TcpFlags(SYN)
fw[hosts] udp 10.1.0.5:5000 -> 10.2.0.9:53
path 1:
  fw [hosts -> -]
    ingress acl EDGE: deny (implicit deny)
  => denied in at fw by EDGE
  fw: udp 10.1.0.5:5000 -> 10.2.0.9:53 => udp 10.1.0.5:5000 -> 10.2.0.9:53
  final udp 10.1.0.5:5000 -> 10.2.0.9:53
fw[ghost] tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
path 1:
  fw [ghost -> core]
    ingress acl NOPE undefined: permit
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (10 permit tcp any any eq 80)
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> servers]
    fib: 10.2.0.0/24 (Connected via 1 hop(s))
  => delivered to subnet via r2[servers]
  fw: tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN) => tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  r2: tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN) => tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  final tcp 10.3.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.1.0.200:80 TcpFlags(SYN)
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    dest nat [ip nat destination static 10.1.0.200 10.2.0.9]: tcp 10.1.0.5:40000 -> 10.1.0.200:80 TcpFlags(SYN) -> tcp 10.1.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (10 permit tcp any any eq 80)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: tcp 10.1.0.5:40000 -> 10.2.0.9:80 TcpFlags(SYN) -> tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> servers]
    fib: 10.2.0.0/24 (Connected via 1 hop(s))
  => delivered to subnet via r2[servers]
  fw: tcp 10.1.0.5:40000 -> 10.1.0.200:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  r2: tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
  final tcp 198.51.100.1:40000 -> 10.2.0.9:80 TcpFlags(SYN)
fw[hosts] icmp 10.1.0.5 -> 10.1.0.1 type 8 code 0
path 1:
  fw [hosts -> -]
    ingress acl EDGE: permit (30 permit icmp any any)
    destination owned by device
  => accepted at fw
  fw: icmp 10.1.0.5 -> 10.1.0.1 type 8 code 0 => icmp 10.1.0.5 -> 10.1.0.1 type 8 code 0
  final icmp 10.1.0.5 -> 10.1.0.1 type 8 code 0
fw[hosts] icmp 10.1.0.5 -> 172.16.0.0 type 8 code 0
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (30 permit icmp any any)
    fib: 172.16.0.0/31 (Connected via 1 hop(s))
    zone trust->untrust: permit (20 permit icmp any any)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: icmp 10.1.0.5 -> 172.16.0.0 type 8 code 0 -> icmp 198.51.100.1 -> 172.16.0.0 type 8 code 0
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> -]
    destination owned by device
  => accepted at r2
  fw: icmp 10.1.0.5 -> 172.16.0.0 type 8 code 0 => icmp 198.51.100.1 -> 172.16.0.0 type 8 code 0
  r2: icmp 198.51.100.1 -> 172.16.0.0 type 8 code 0 => icmp 198.51.100.1 -> 172.16.0.0 type 8 code 0
  final icmp 198.51.100.1 -> 172.16.0.0 type 8 code 0
fw[hosts] icmp 10.1.0.5 -> 9.9.9.9 type 8 code 0
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (30 permit icmp any any)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (20 permit icmp any any)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: icmp 10.1.0.5 -> 9.9.9.9 type 8 code 0 -> icmp 198.51.100.1 -> 9.9.9.9 type 8 code 0
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> -]
    no matching FIB entry
  => no route at r2
  fw: icmp 10.1.0.5 -> 9.9.9.9 type 8 code 0 => icmp 198.51.100.1 -> 9.9.9.9 type 8 code 0
  r2: icmp 198.51.100.1 -> 9.9.9.9 type 8 code 0 => icmp 198.51.100.1 -> 9.9.9.9 type 8 code 0
  final icmp 198.51.100.1 -> 9.9.9.9 type 8 code 0
fw[hosts] icmp 10.1.0.5 -> 192.168.1.1 type 8 code 0
path 1:
  fw [hosts -> -]
    ingress acl EDGE: permit (30 permit icmp any any)
    fib: 192.168.0.0/16 (Static via discard)
  => null routed at fw
  fw: icmp 10.1.0.5 -> 192.168.1.1 type 8 code 0 => icmp 10.1.0.5 -> 192.168.1.1 type 8 code 0
  final icmp 10.1.0.5 -> 192.168.1.1 type 8 code 0
fw[hosts] icmp 10.1.0.5 -> 10.9.1.1 type 8 code 0
path 1:
  fw [hosts -> -]
    ingress acl EDGE: permit (30 permit icmp any any)
    fib: 10.9.0.0/16 (Static via unresolved)
  => no route at fw
  fw: icmp 10.1.0.5 -> 10.9.1.1 type 8 code 0 => icmp 10.1.0.5 -> 10.9.1.1 type 8 code 0
  final icmp 10.1.0.5 -> 10.9.1.1 type 8 code 0
fw[hosts] tcp 10.1.0.5:40000 -> 10.2.0.9:443 TcpFlags(SYN)
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (20 permit tcp any any eq 443)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: deny (implicit deny)
  => denied by zone policy trust->untrust at fw
  fw: tcp 10.1.0.5:40000 -> 10.2.0.9:443 TcpFlags(SYN) => tcp 10.1.0.5:40000 -> 10.2.0.9:443 TcpFlags(SYN)
  final tcp 10.1.0.5:40000 -> 10.2.0.9:443 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.5.0.9:80 TcpFlags(SYN)
path 1:
  fw [hosts -> dmz]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 10.5.0.0/24 (Connected via 1 hop(s))
    zone trust->dmz: no policy, default deny
  => denied by zone policy trust->dmz at fw
  fw: tcp 10.1.0.5:40000 -> 10.5.0.9:80 TcpFlags(SYN) => tcp 10.1.0.5:40000 -> 10.5.0.9:80 TcpFlags(SYN)
  final tcp 10.1.0.5:40000 -> 10.5.0.9:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.2.0.66:80 TcpFlags(SYN)
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (10 permit tcp any any eq 80)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: tcp 10.1.0.5:40000 -> 10.2.0.66:80 TcpFlags(SYN) -> tcp 198.51.100.1:40000 -> 10.2.0.66:80 TcpFlags(SYN)
    egress acl OUTF: deny (10 deny tcp any host 10.2.0.66 eq 80)
  => denied out at fw by OUTF
  fw: tcp 10.1.0.5:40000 -> 10.2.0.66:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 10.2.0.66:80 TcpFlags(SYN)
  final tcp 198.51.100.1:40000 -> 10.2.0.66:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.6.0.9:80 TcpFlags(SYN)
path 1:
  fw [hosts -> out2]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 10.6.0.0/24 (Connected via 1 hop(s))
    egress acl NOPE2 undefined: permit
  => delivered to subnet via fw[out2]
  fw: tcp 10.1.0.5:40000 -> 10.6.0.9:80 TcpFlags(SYN) => tcp 10.1.0.5:40000 -> 10.6.0.9:80 TcpFlags(SYN)
  final tcp 10.1.0.5:40000 -> 10.6.0.9:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 8.8.8.8:80 TcpFlags(SYN)
path 1:
  fw [hosts -> core]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    zone trust->untrust: permit (10 permit tcp any any eq 80)
    source nat [ip nat source list NATSRC pool P interface core [10 permit ip 10.1.0.0 0.0.0.255 any]]: tcp 10.1.0.5:40000 -> 8.8.8.8:80 TcpFlags(SYN) -> tcp 198.51.100.1:40000 -> 8.8.8.8:80 TcpFlags(SYN)
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> up]
    fib: 8.8.0.0/16 (Static via 1 hop(s))
  => exits network via r2[up]
  fw: tcp 10.1.0.5:40000 -> 8.8.8.8:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 8.8.8.8:80 TcpFlags(SYN)
  r2: tcp 198.51.100.1:40000 -> 8.8.8.8:80 TcpFlags(SYN) => tcp 198.51.100.1:40000 -> 8.8.8.8:80 TcpFlags(SYN)
  final tcp 198.51.100.1:40000 -> 8.8.8.8:80 TcpFlags(SYN)
fw[hosts] tcp 10.1.0.5:40000 -> 10.70.1.1:80 TcpFlags(SYN)
path 1:
  fw [hosts -> link]
    ingress acl EDGE: permit (10 permit tcp any any eq 80)
    fib: 10.70.0.0/16 (Static via 1 hop(s))
  => neighbor unreachable at fw[link]
  fw: tcp 10.1.0.5:40000 -> 10.70.1.1:80 TcpFlags(SYN) => tcp 10.1.0.5:40000 -> 10.70.1.1:80 TcpFlags(SYN)
  final tcp 10.1.0.5:40000 -> 10.70.1.1:80 TcpFlags(SYN)
fw[origin] icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0
path 1:
  fw [origin -> core]
    fib: 10.50.0.0/16 (Static via 1 hop(s))
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> core]
    fib: 10.50.0.0/16 (Static via 1 hop(s))
  => forwarding loop
  fw: icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0 => icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0
  r2: icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0 => icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0
  final icmp 172.16.0.1 -> 10.50.1.1 type 8 code 0
fw[origin] icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0
path 1:
  fw [origin -> core]
    fib: 0.0.0.0/0 (Static via 1 hop(s))
    egress acl OUTF: permit (20 permit ip any any)
  r2 [core -> servers]
    fib: 10.2.0.0/24 (Connected via 1 hop(s))
  => delivered to subnet via r2[servers]
  fw: icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0 => icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0
  r2: icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0 => icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0
  final icmp 172.16.0.1 -> 10.2.0.9 type 8 code 0
";
