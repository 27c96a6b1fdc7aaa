//! Cross-layer agreement on BGP sessions: routing's session discovery,
//! lint's `bgp-compat` and `unexercised-config` checks, and coverage's
//! neighbor verdicts all read one address-owner index and one pairing
//! rule ([`Topology::bgp_pairing`]), so they cannot disagree.
//!
//! The lab gives r1 one neighbor of each kind: a peer reached at a
//! secondary address, a half-open session, an AS mismatch, a peer that
//! does not run BGP, an unowned private-space address, and an external
//! peer the environment speaks on.

use batnet::config::vi::Device;
use batnet::config::{parse_device, Topology};
use batnet::net::{Asn, Ip};
use batnet::routing::bgp::discover_sessions;
use std::collections::{BTreeMap, BTreeSet};

const LAB: &[(&str, &str)] = &[
    (
        "r1",
        "hostname r1
interface e0
 ip address 172.16.0.0 255.255.255.254
interface e1
 ip address 172.16.1.0 255.255.255.254
interface e2
 ip address 172.16.2.0 255.255.255.254
interface e3
 ip address 172.16.3.0 255.255.255.254
router bgp 65001
 neighbor 10.20.0.2 remote-as 65002
 neighbor 172.16.1.1 remote-as 65003
 neighbor 172.16.2.1 remote-as 65099
 neighbor 172.16.3.1 remote-as 65005
 neighbor 10.99.0.1 remote-as 65010
 neighbor 203.0.113.1 remote-as 174
",
    ),
    (
        "r2",
        "hostname r2
interface e0
 ip address 172.16.0.1 255.255.255.254
 ip address 10.20.0.2 255.255.255.0 secondary
router bgp 65002
 neighbor 172.16.0.0 remote-as 65001
",
    ),
    (
        "r3",
        "hostname r3
interface e0
 ip address 172.16.1.1 255.255.255.254
router bgp 65003
",
    ),
    (
        "r4",
        "hostname r4
interface e0
 ip address 172.16.2.1 255.255.255.254
router bgp 65004
 neighbor 172.16.2.0 remote-as 65001
",
    ),
    (
        "r5",
        "hostname r5
interface e0
 ip address 172.16.3.1 255.255.255.254
",
    ),
];

fn ip(s: &str) -> Ip {
    s.parse().expect("lab address")
}

fn lab() -> Vec<Device> {
    LAB.iter()
        .map(|(name, text)| {
            let (mut d, _) = parse_device(name, text);
            d.stamp_source_file(name);
            d
        })
        .collect()
}

#[test]
fn routing_lint_and_coverage_agree_on_every_neighbor() {
    let devices = lab();
    let topo = Topology::infer(&devices);
    let external = BTreeMap::from([((0, ip("203.0.113.1")), Asn(174))]);

    let sessions = discover_sessions(&devices, &topo, &external);
    let paired: BTreeSet<(String, Ip)> = sessions
        .iter()
        .enumerate()
        .flat_map(|(di, s)| s.iter().map(move |s| (di, s)))
        .filter(|(_, s)| s.peer_device.is_some())
        .map(|(di, s)| (devices[di].name.clone(), s.peer_ip))
        .collect();
    let want: BTreeSet<(String, Ip)> = [("r1", "10.20.0.2"), ("r2", "172.16.0.0")]
        .map(|(d, a)| (d.to_string(), ip(a)))
        .into();
    assert_eq!(paired, want, "the secondary-address session pairs both ways");
    assert!(
        sessions[0].iter().any(|s| s.peer_ip == ip("203.0.113.1") && s.peer_device.is_none()),
        "the external peer is an environment session"
    );

    // First: coverage's exercised neighbors are exactly routing's pairs.
    let report = batnet_coverage::analyze(&devices, &topo);
    let exercised: BTreeSet<(String, Ip)> = report
        .items
        .iter()
        .filter(|i| i.status == batnet_coverage::Status::Exercised)
        .filter_map(|i| Some((i.device.clone(), i.path.strip_prefix("neighbor ")?.parse().ok()?)))
        .collect();
    assert_eq!(exercised, paired);

    // Second: every other neighbor draws a bgp-compat or an
    // unexercised-config finding, and the paired ones draw neither.
    let findings = batnet::lint::run_all(&devices, &topo);
    // A neighbor's findings: path `neighbor <peer>` or `neighbor <peer>/<kind>`.
    let about = |device: &str, peer: Ip| -> Vec<String> {
        let path = format!("neighbor {peer}");
        findings
            .iter()
            .filter(|f| f.device == device && matches!(f.check, "bgp-compat" | "unexercised-config"))
            .filter(|f| f.path == path || f.path.starts_with(&format!("{path}/")))
            .map(|f| format!("{} {}", f.check, f.path))
            .collect()
    };
    let mut unpaired = 0;
    for d in &devices {
        for nb in d.bgp.iter().flat_map(|b| &b.neighbors) {
            let found = about(&d.name, nb.peer_ip);
            if paired.contains(&(d.name.clone(), nb.peer_ip)) {
                assert!(found.is_empty(), "{} {}: {found:?}", d.name, nb.peer_ip);
            } else {
                unpaired += 1;
                assert!(!found.is_empty(), "{} {} is unpaired but unreported", d.name, nb.peer_ip);
            }
        }
    }
    assert_eq!(unpaired, 6);

    // Each kind of neighbor is reported as what it is.
    for (device, peer, what) in [
        ("r1", "172.16.1.1", "bgp-compat neighbor 172.16.1.1/half-open"),
        ("r1", "172.16.2.1", "bgp-compat neighbor 172.16.2.1/as-mismatch"),
        ("r1", "172.16.3.1", "bgp-compat neighbor 172.16.3.1/no-bgp"),
        ("r1", "10.99.0.1", "bgp-compat neighbor 10.99.0.1/missing-peer"),
        ("r1", "10.99.0.1", "unexercised-config neighbor 10.99.0.1"),
        ("r1", "203.0.113.1", "unexercised-config neighbor 203.0.113.1"),
        ("r4", "172.16.2.0", "bgp-compat neighbor 172.16.2.0/half-open"),
    ] {
        let found = about(device, ip(peer));
        assert!(found.iter().any(|f| f == what), "{device} {peer}: want {what}, got {found:?}");
    }
}
