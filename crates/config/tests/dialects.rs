//! Cross-dialect equivalence: the same device intent written in all three
//! dialects must lower to behaviourally equivalent VI models. This is the
//! Stage-1 normalization promise — analyses must not be able to tell
//! which vendor a config came from.

use batnet_config::vi::{Device, SourceSpan};
use batnet_config::{parse_device, Dialect};
use batnet_net::{Flow, Ip};

const IOS: &str = "\
hostname rX
ntp server 192.168.255.1
interface lan
 ip address 10.1.0.1/24
 ip access-group EDGE in
 ip ospf area 0
 ip ospf cost 7
 ip ospf passive
interface up
 ip address 172.16.0.1/31
 ip ospf area 0
 ip ospf cost 3
ip route 10.9.0.0/16 172.16.0.0
ip route 10.8.0.0/16 null0
router ospf 1
router bgp 65001
 neighbor 172.16.0.0 remote-as 65002
 neighbor 172.16.0.0 route-map IMP in
route-map IMP permit 10
 match ip address prefix-list PL
 set local-preference 150
ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24
ip access-list extended EDGE
 10 permit tcp any any eq 80
 20 permit icmp any any
 30 deny ip any any
";

const JUNOS: &str = "\
set system host-name rX
set system ntp server 192.168.255.1
set interfaces lan unit 0 family inet address 10.1.0.1/24
set interfaces lan unit 0 family inet filter input EDGE
set protocols ospf area 0 interface lan metric 7
set protocols ospf area 0 interface lan passive
set interfaces up unit 0 family inet address 172.16.0.1/31
set protocols ospf area 0 interface up metric 3
set routing-options static route 10.9.0.0/16 next-hop 172.16.0.0
set routing-options static route 10.8.0.0/16 discard
set routing-options autonomous-system 65001
set protocols bgp group ext type external
set protocols bgp group ext neighbor 172.16.0.0 peer-as 65002
set protocols bgp group ext neighbor 172.16.0.0 import IMP
set policy-options prefix-list PL 10.0.0.0/8 orlonger
set policy-options policy-statement IMP term 1 from prefix-list PL
set policy-options policy-statement IMP term 1 then local-preference 150
set policy-options policy-statement IMP term 1 then accept
set policy-options policy-statement IMP term 99 then reject
set firewall filter EDGE term web from protocol tcp
set firewall filter EDGE term web from destination-port 80
set firewall filter EDGE term web then accept
set firewall filter EDGE term ping from protocol icmp
set firewall filter EDGE term ping then accept
set firewall filter EDGE term rest then discard
";

const FLAT: &str = "\
device rX
ntp-server 192.168.255.1
interface lan ip=10.1.0.1/24 acl-in=EDGE ospf-area=0 ospf-cost=7 passive
interface up ip=172.16.0.1/31 ospf-area=0 ospf-cost=3
static 10.9.0.0/16 via 172.16.0.0
static 10.8.0.0/16 discard
ospf
bgp asn=65001
bgp-neighbor 172.16.0.0 remote-as=65002 in=IMP
prefix-list PL permit 10.0.0.0/8 le=32
route-map IMP 10 permit match-prefix-list=PL set-localpref=150
route-map IMP 99 deny
acl EDGE 10 permit proto=tcp dport=80
acl EDGE 20 permit proto=icmp
acl EDGE 30 deny
";

fn all_three() -> Vec<(Dialect, Device)> {
    let specs = [
        (Dialect::Ios, IOS),
        (Dialect::Junos, JUNOS),
        (Dialect::Flat, FLAT),
    ];
    specs
        .iter()
        .map(|(d, text)| {
            assert_eq!(Dialect::detect(text), *d, "detection for {d}");
            let (device, diags) = parse_device("rX", text);
            assert!(diags.items().is_empty(), "{d}: {:?}", diags.items());
            (*d, device)
        })
        .collect()
}

#[test]
fn structure_matches_across_dialects() {
    for (d, dev) in all_three() {
        assert_eq!(dev.name, "rX", "{d}");
        assert_eq!(dev.interfaces.len(), 2, "{d}");
        let lan = &dev.interfaces["lan"];
        assert_eq!(lan.address, Some(("10.1.0.1".parse().unwrap(), 24)), "{d}");
        assert_eq!(lan.ospf_cost, Some(7), "{d}");
        assert!(lan.ospf_passive, "{d}");
        assert_eq!(lan.acl_in.as_deref(), Some("EDGE"), "{d}");
        assert_eq!(dev.static_routes.len(), 2, "{d}");
        let bgp = dev.bgp.as_ref().unwrap_or_else(|| panic!("{d}: bgp"));
        assert_eq!(bgp.asn.0, 65001, "{d}");
        assert_eq!(bgp.neighbors.len(), 1, "{d}");
        assert_eq!(bgp.neighbors[0].import_policy.as_deref(), Some("IMP"), "{d}");
        assert_eq!(dev.ntp_servers, vec!["192.168.255.1".parse::<Ip>().unwrap()], "{d}");
    }
}

#[test]
fn acl_behaviour_matches_across_dialects() {
    let devices = all_three();
    let probes = [
        Flow::tcp(Ip::new(1, 1, 1, 1), 999, Ip::new(2, 2, 2, 2), 80),
        Flow::tcp(Ip::new(1, 1, 1, 1), 999, Ip::new(2, 2, 2, 2), 22),
        Flow::icmp_echo(Ip::new(1, 1, 1, 1), Ip::new(2, 2, 2, 2)),
        Flow::udp(Ip::new(1, 1, 1, 1), 999, Ip::new(2, 2, 2, 2), 53),
    ];
    for flow in &probes {
        let verdicts: Vec<bool> = devices
            .iter()
            .map(|(_, dev)| dev.acls["EDGE"].permits(flow))
            .collect();
        assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "dialects disagree on {flow}: {verdicts:?}"
        );
    }
}

#[test]
fn route_map_behaviour_matches_across_dialects() {
    use batnet_config::vi::{PolicyResult, RouteAttrs, RouteProtocol};
    let devices = all_three();
    for (d, dev) in &devices {
        let rm = &dev.route_maps["IMP"];
        // A /16 inside 10/8: permitted with local-pref 150.
        let mut attrs = RouteAttrs::new("10.5.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        let r = rm.evaluate(&mut attrs, &dev.prefix_lists, &dev.community_lists);
        assert_eq!(r, PolicyResult::Permit, "{d}");
        assert_eq!(attrs.local_pref, 150, "{d}");
        // Outside 10/8: rejected.
        let mut attrs = RouteAttrs::new("192.168.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        let r = rm.evaluate(&mut attrs, &dev.prefix_lists, &dev.community_lists);
        assert_eq!(r, PolicyResult::Deny, "{d}");
    }
}

/// One of each construct the three dialects share: an interface with
/// secondary addresses, an ACL line, a zone policy, a NAT rule, a static
/// route and a BGP neighbour.
const SHARED: [(Dialect, &str); 3] = [
    (
        Dialect::Ios,
        "\
hostname fw
interface e0
 ip address 10.0.0.1/24
 ip address 10.9.0.1/24 secondary
 ip address 10.8.0.1/25 secondary
 zone-member security trust
interface e1
 ip address 172.16.0.1/31
 zone-member security untrust
zone security trust
zone security untrust
zone-pair security trust untrust acl WEB
ip access-list extended WEB
 10 permit tcp any any eq 443
ip nat source static 10.0.0.5 203.0.113.5 interface e1
ip route 10.8.0.0/16 172.16.0.0 5
router bgp 65001
 neighbor 172.16.0.0 remote-as 65002
",
    ),
    (
        Dialect::Junos,
        "\
set system host-name fw
set interfaces e0 unit 0 family inet address 10.0.0.1/24
set interfaces e0 unit 0 family inet address 10.9.0.1/24
set interfaces e0 unit 0 family inet address 10.8.0.1/25
set interfaces e1 unit 0 family inet address 172.16.0.1/31
set security zones security-zone trust interfaces e0
set security zones security-zone untrust interfaces e1
set security policies from-zone trust to-zone untrust filter WEB
set firewall filter WEB term 10 from protocol tcp
set firewall filter WEB term 10 from destination-port 443
set firewall filter WEB term 10 then accept
set security nat source rule s1 match source-address 10.0.0.5/32
set security nat source rule s1 match interface e1
set security nat source rule s1 then translate 203.0.113.5
set routing-options static route 10.8.0.0/16 next-hop 172.16.0.0
set routing-options autonomous-system 65001
set protocols bgp group ext type external
set protocols bgp group ext neighbor 172.16.0.0 peer-as 65002
",
    ),
    (
        Dialect::Flat,
        "\
device fw
interface e0 ip=10.0.0.1/24 ip2=10.9.0.1/24 ip2=10.8.0.1/25
interface e1 ip=172.16.0.1/31
zone trust iface=e0
zone untrust iface=e1
zone-policy trust untrust acl=WEB
acl WEB 10 permit proto=tcp dport=443
nat src iface=e1 match-src=10.0.0.5/32 pool=203.0.113.5
static 10.8.0.0/16 via 172.16.0.0 ad=5
bgp asn=65001
bgp-neighbor 172.16.0.0 remote-as=65002
",
    ),
];

/// Each interface's zone, read through `Device::zone_of_interface` (IOS
/// records membership on the interface, junos on the zone), beside the
/// device with that membership, its source text and its spans cleared.
fn without_text_and_spans(mut d: Device) -> (Device, Vec<(String, Option<String>)>) {
    let zones = d
        .interfaces
        .keys()
        .map(|i| (i.clone(), d.zone_of_interface(i).map(str::to_string)))
        .collect();
    for iface in d.interfaces.values_mut() {
        iface.zone = None;
    }
    for zone in d.zones.values_mut() {
        zone.interfaces.clear();
    }
    for acl in d.acls.values_mut() {
        acl.src = SourceSpan::default();
        for line in &mut acl.lines {
            line.text.clear();
        }
    }
    for rule in &mut d.nat_rules {
        rule.text.clear();
    }
    for zp in &mut d.zone_policies {
        zp.src = SourceSpan::default();
    }
    for nb in d.bgp.iter_mut().flat_map(|bgp| &mut bgp.neighbors) {
        nb.src = SourceSpan::default();
    }
    (d, zones)
}

#[test]
fn shared_constructs_parse_to_equal_vi() {
    let parsed = SHARED.map(|(dialect, text)| {
        assert_eq!(Dialect::detect(text), dialect);
        let (device, diags) = parse_device("fw", text);
        assert!(diags.items().is_empty(), "{dialect}: {:?}", diags.items());
        (dialect, without_text_and_spans(device))
    });
    let (_, (ios, zones)) = &parsed[0];
    assert_eq!(ios.interfaces["e0"].secondary_addresses.len(), 2);
    assert_eq!(ios.zone_acl("trust", "untrust").map(|a| a.lines.len()), Some(1));
    assert_eq!((ios.nat_rules.len(), ios.static_routes.len()), (1, 1));
    assert_eq!(ios.bgp.as_ref().map(|b| b.neighbors.len()), Some(1));
    let want = [("e0", "trust"), ("e1", "untrust")].map(|(i, z)| (i.to_string(), Some(z.to_string())));
    assert_eq!(zones, &want);
    for (dialect, got) in &parsed[1..] {
        assert_eq!(got, &parsed[0].1, "{dialect}");
    }
}
