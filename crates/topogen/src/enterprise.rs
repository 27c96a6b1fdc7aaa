//! Enterprise / campus generator: OSPF core with iBGP overlay, access
//! subnets, borders with external transit feeds, edge NAT, and optional
//! zone firewalls — the NET1-class topology.
//!
//! Structure:
//!
//! * `core` routers in a ring plus chords, OSPF area 0, iBGP full mesh
//!   over loopbacks;
//! * `dist` distribution routers, each dual-homed to two cores (OSPF
//!   area 0), iBGP clients of every core;
//! * `access` routers, each homed to one distribution pair, owning a host
//!   /24 (OSPF passive) with an inbound ACL;
//! * `borders` with eBGP to an external transit peer announcing a
//!   default route plus Internet prefixes, `next-hop-self` towards the
//!   mesh, and source NAT on the uplink;
//! * optionally `firewalls` (junos dialect) inserted in front of the
//!   borders with trust/untrust zones.
//!
//! Addressing: hosts `10.<a/256>.<a%256>.0/24`, links /31s from
//! `172.16/12`, loopbacks `192.168.x.y/32`.

use crate::dc::LinkAlloc;
use crate::GeneratedNetwork;
use batnet_net::Asn;
use batnet_routing::{Environment, ExternalAnnouncement};
use std::fmt::Write;

/// Generator parameters.
pub struct EnterpriseSpec {
    /// Core routers (≥2).
    pub cores: usize,
    /// Distribution routers.
    pub dists: usize,
    /// Access routers.
    pub accesses: usize,
    /// Border routers (≥1).
    pub borders: usize,
    /// Zone firewalls between borders and the transit feeds (junos
    /// dialect); 0 disables.
    pub firewalls: usize,
    /// Emit this fraction (percent) of access devices in the `flat`
    /// dialect instead of `ios` (mixed-vendor networks).
    pub flat_access_percent: usize,
    /// Source NAT on the border uplinks (on by default; the APT
    /// comparison network disables it because Atomic Predicates does not
    /// model transformations).
    pub nat: bool,
}

impl Default for EnterpriseSpec {
    fn default() -> Self {
        EnterpriseSpec {
            cores: 2,
            dists: 2,
            accesses: 4,
            borders: 1,
            firewalls: 0,
            flat_access_percent: 0,
            nat: true,
        }
    }
}

/// The enterprise AS number.
pub const ENTERPRISE_AS: u32 = 65500;
/// The transit provider's AS.
pub const TRANSIT_AS: u32 = 174;

fn loopback(i: usize) -> String {
    format!("192.168.{}.{}", i / 250, 1 + i % 250)
}

/// Generates the network.
pub fn enterprise(name: &str, spec: &EnterpriseSpec) -> GeneratedNetwork {
    assert!(spec.cores >= 2 && spec.borders >= 1);
    let mut links = LinkAlloc::new();
    let mut configs: Vec<(String, String)> = Vec::new();
    let mut env = Environment::none();

    let core_name = |i: usize| format!("core{i}");
    let n_core = spec.cores;
    let n_dist = spec.dists;
    // Device id space for loopbacks: cores, dists, borders, accesses.
    let core_lo = |i: usize| loopback(i);
    let dist_lo = |i: usize| loopback(n_core + i);
    let border_lo = |i: usize| loopback(n_core + n_dist + i);

    // Per-device config accumulators (interfaces, then sections).
    let mut iface_lines: Vec<Vec<String>> = Vec::new();
    let mut tail_lines: Vec<Vec<String>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut add_device = |name: String| -> usize {
        names.push(name);
        iface_lines.push(Vec::new());
        tail_lines.push(Vec::new());
        names.len() - 1
    };

    let cores: Vec<usize> = (0..n_core).map(|i| add_device(core_name(i))).collect();
    let dists: Vec<usize> = (0..n_dist).map(|i| add_device(format!("dist{i}"))).collect();
    let borders: Vec<usize> = (0..spec.borders)
        .map(|i| add_device(format!("border{i}")))
        .collect();
    let accesses: Vec<usize> = (0..spec.accesses)
        .map(|i| add_device(format!("access{i}")))
        .collect();

    let ospf_link = |ia: usize, ib: usize,
                         iface_lines: &mut Vec<Vec<String>>,
                         links: &mut LinkAlloc,
                         cost: u32| {
        let (lo, hi) = links.next_pair();
        let name_a = format!("to-{}", ia ^ ib ^ usize::MAX & 0xffff); // unique-ish but deterministic
        let _ = name_a;
        let ia_if = format!("p{}", iface_lines[ia].len());
        let ib_if = format!("p{}", iface_lines[ib].len());
        iface_lines[ia].push(format!(
            "interface {ia_if}\n ip address {lo}/31\n ip ospf area 0\n ip ospf cost {cost}"
        ));
        iface_lines[ib].push(format!(
            "interface {ib_if}\n ip address {hi}/31\n ip ospf area 0\n ip ospf cost {cost}"
        ));
    };

    // Core ring + chord.
    for i in 0..n_core {
        let j = (i + 1) % n_core;
        if n_core > 1 && (i < j || n_core == 2) {
            ospf_link(cores[i], cores[j], &mut iface_lines, &mut links, 10);
        }
    }
    if n_core >= 4 {
        ospf_link(cores[0], cores[n_core / 2], &mut iface_lines, &mut links, 10);
    }
    // Dists dual-home to consecutive cores.
    for (i, &d) in dists.iter().enumerate() {
        ospf_link(d, cores[i % n_core], &mut iface_lines, &mut links, 20);
        ospf_link(d, cores[(i + 1) % n_core], &mut iface_lines, &mut links, 20);
    }
    // Borders home to two cores.
    for (i, &b) in borders.iter().enumerate() {
        ospf_link(b, cores[i % n_core], &mut iface_lines, &mut links, 10);
        ospf_link(b, cores[(i + 1) % n_core], &mut iface_lines, &mut links, 10);
    }
    // Accesses home to one dist (two uplinks when possible).
    for (i, &a) in accesses.iter().enumerate() {
        if n_dist > 0 {
            ospf_link(a, dists[i % n_dist], &mut iface_lines, &mut links, 50);
            if n_dist > 1 {
                ospf_link(a, dists[(i + 1) % n_dist], &mut iface_lines, &mut links, 50);
            }
        } else {
            ospf_link(a, cores[i % n_core], &mut iface_lines, &mut links, 50);
        }
    }

    // Loopbacks + host subnets + ACLs.
    for (i, &c) in cores.iter().enumerate() {
        iface_lines[c].push(format!(
            "interface lo0\n ip address {}/32\n ip ospf area 0\n ip ospf passive",
            core_lo(i)
        ));
    }
    for (i, &d) in dists.iter().enumerate() {
        iface_lines[d].push(format!(
            "interface lo0\n ip address {}/32\n ip ospf area 0\n ip ospf passive",
            dist_lo(i)
        ));
    }
    for (i, &b) in borders.iter().enumerate() {
        iface_lines[b].push(format!(
            "interface lo0\n ip address {}/32\n ip ospf area 0\n ip ospf passive",
            border_lo(i)
        ));
    }
    for (i, &a) in accesses.iter().enumerate() {
        iface_lines[a].push(format!(
            "interface hosts\n ip access-group HOSTS in\n ip address 10.{}.{}.1/24\n ip ospf area 0\n ip ospf passive",
            i / 256,
            i % 256
        ));
        tail_lines[a].push(
            "ip access-list extended HOSTS\n 10 deny ip 10.99.0.0 0.0.255.255 any\n 20 permit tcp any any\n 30 permit udp any any\n 40 permit icmp any any\n 50 deny ip any any\n".to_string(),
        );
    }

    // iBGP: cores mesh among themselves; dists and borders peer with all
    // cores.
    let mesh_sessions = |tail: &mut Vec<Vec<String>>,
                         me: usize,
                         my_lo: String,
                         peers: Vec<(usize, String)>,
                         next_hop_self: bool| {
        let mut s = format!("router bgp {ENTERPRISE_AS}\n bgp router-id {my_lo}\n");
        for (_, lo) in &peers {
            writeln!(s, " neighbor {lo} remote-as {ENTERPRISE_AS}").unwrap();
            if next_hop_self {
                writeln!(s, " neighbor {lo} next-hop-self").unwrap();
            }
        }
        tail[me].push(s);
    };
    for (i, &c) in cores.iter().enumerate() {
        let peers: Vec<(usize, String)> = (0..n_core)
            .filter(|&j| j != i)
            .map(|j| (cores[j], core_lo(j)))
            .chain((0..n_dist).map(|j| (dists[j], dist_lo(j))))
            .chain((0..spec.borders).map(|j| (borders[j], border_lo(j))))
            .collect();
        mesh_sessions(&mut tail_lines, c, core_lo(i), peers, false);
    }
    for (i, &d) in dists.iter().enumerate() {
        let peers: Vec<(usize, String)> = (0..n_core).map(|j| (cores[j], core_lo(j))).collect();
        mesh_sessions(&mut tail_lines, d, dist_lo(i), peers, false);
    }
    for (i, &b) in borders.iter().enumerate() {
        let peers: Vec<(usize, String)> = (0..n_core).map(|j| (cores[j], core_lo(j))).collect();
        mesh_sessions(&mut tail_lines, b, border_lo(i), peers, true);
        // Uplink with transit peer + NAT + import policy.
        let (lo, hi) = links.next_pair();
        iface_lines[b].push(format!("interface uplink\n ip address {lo}/31"));
        tail_lines[b].push(format!(
            "router bgp {ENTERPRISE_AS}\n neighbor {hi} remote-as {TRANSIT_AS}\n neighbor {hi} route-map FROM-TRANSIT in\n neighbor {hi} route-map TO-TRANSIT out\n"
        ));
        tail_lines[b].push(format!(
            "ip prefix-list OURS seq 5 permit 10.0.0.0/8 le 24\nip community-list standard TRANSIT permit {TRANSIT_AS}:100\nroute-map FROM-TRANSIT permit 10\n set local-preference 150\n set community {ENTERPRISE_AS}:20 additive\nroute-map TO-TRANSIT permit 10\n match ip address prefix-list OURS\n set as-path prepend {ENTERPRISE_AS}\nroute-map TO-TRANSIT deny 99\n"
        ));
        if spec.nat {
            tail_lines[b].push(format!(
                "ip nat pool EDGE 203.0.113.{} 203.0.113.{}\nip access-list extended INSIDE\n 10 permit ip 10.0.0.0 0.255.255.255 any\nip nat source list INSIDE pool EDGE interface uplink\n",
                16 * i,
                16 * i + 15
            ));
        }
        // Default route towards transit, redistributed into OSPF so
        // non-BGP access devices get it (classic default-information
        // originate pattern).
        tail_lines[b].push(format!(
            "ip route 0.0.0.0/0 {hi}\nrouter ospf 1\n redistribute static\n"
        ));
        // External feed: default route + a couple of Internet prefixes.
        env.announcements.push(ExternalAnnouncement::simple(
            names[b].clone(),
            hi.parse().unwrap(),
            Asn(TRANSIT_AS),
            "0.0.0.0/0".parse().unwrap(),
        ));
        env.announcements.push(ExternalAnnouncement {
            device: names[b].clone(),
            peer_ip: hi.parse().unwrap(),
            prefix: "198.51.100.0/24".parse().unwrap(),
            as_path: batnet_net::AsPath(vec![Asn(TRANSIT_AS), Asn(3356)]),
            med: 10,
            communities: vec![batnet_net::Community::new(TRANSIT_AS as u16, 100)],
        });
    }

    // Render ios configs.
    for i in 0..names.len() {
        let is_flat_access = names[i].starts_with("access")
            && spec.flat_access_percent > 0
            && (i % 100) < spec.flat_access_percent;
        let text = if is_flat_access {
            render_flat(&names[i], &iface_lines[i], &tail_lines[i])
        } else {
            let mut s = String::new();
            writeln!(s, "hostname {}", names[i]).unwrap();
            writeln!(s, "ntp server 192.168.255.1").unwrap();
            writeln!(s, "ip name-server 192.168.255.53").unwrap();
            for block in &iface_lines[i] {
                s.push_str(block);
                s.push('\n');
            }
            writeln!(s, "router ospf 1\n router-id {}", loopback(i)).unwrap();
            for block in &tail_lines[i] {
                s.push_str(block);
                if !block.ends_with('\n') {
                    s.push('\n');
                }
            }
            s
        };
        configs.push((names[i].clone(), text));
    }

    // Optional junos firewalls in front of each border's access side are
    // modeled as standalone zone firewalls hanging off cores (exercising
    // the junos frontend + zones); traffic to their protected subnets
    // flows through them.
    for f in 0..spec.firewalls {
        let (lo, hi) = links.next_pair();
        let fw_name = format!("fw{f}");
        let core_idx = f % n_core;
        // Attach to a core via OSPF-passive static routing: the core gets
        // a static route to the protected subnet via the firewall.
        let protected = format!("10.200.{f}.0/24");
        let mut fw = String::new();
        writeln!(fw, "set system host-name {fw_name}").unwrap();
        writeln!(fw, "set interfaces up unit 0 family inet address {hi}/31").unwrap();
        writeln!(
            fw,
            "set interfaces protected unit 0 family inet address 10.200.{f}.1/24"
        )
        .unwrap();
        writeln!(fw, "set routing-options static route 0.0.0.0/0 next-hop {lo}").unwrap();
        writeln!(fw, "set security zones security-zone untrust interfaces up").unwrap();
        writeln!(fw, "set security zones security-zone trust interfaces protected").unwrap();
        writeln!(fw, "set firewall filter INBOUND term web from protocol tcp").unwrap();
        writeln!(fw, "set firewall filter INBOUND term web from destination-port 443").unwrap();
        writeln!(fw, "set firewall filter INBOUND term web then accept").unwrap();
        writeln!(fw, "set firewall filter INBOUND term drop then discard").unwrap();
        writeln!(
            fw,
            "set security policies from-zone untrust to-zone trust filter INBOUND"
        )
        .unwrap();
        writeln!(
            fw,
            "set firewall filter OUTBOUND term any then accept"
        )
        .unwrap();
        writeln!(
            fw,
            "set security policies from-zone trust to-zone untrust filter OUTBOUND"
        )
        .unwrap();
        configs.push((fw_name, fw));
        // Core side: interface + static + redistribute into OSPF & BGP.
        let c = &mut configs[cores[core_idx]];
        c.1.push_str(&format!(
            "interface fwlink{f}\n ip address {lo}/31\nip route {protected} {hi}\nrouter ospf 1\n redistribute static\n"
        ));
    }

    GeneratedNetwork {
        name: name.to_string(),
        kind: if spec.firewalls > 0 {
            "enterprise + firewalls".into()
        } else {
            "enterprise".into()
        },
        configs,
        env,
    }
}

fn render_flat(name: &str, ifaces: &[String], tails: &[String]) -> String {
    // Translate the generator's internal ios-ish blocks into the flat
    // dialect (only the constructs access devices use).
    let mut s = format!("device {name}\nntp-server 192.168.255.1\n");
    for block in ifaces {
        let mut lines = block.lines();
        let header = lines.next().unwrap_or("");
        let ifname = header.trim_start_matches("interface ").to_string();
        let mut ip = String::new();
        let mut cost = String::new();
        let mut area = String::new();
        let mut passive = false;
        let mut acl_in = String::new();
        for l in lines {
            let l = l.trim();
            if let Some(rest) = l.strip_prefix("ip address ") {
                ip = rest.to_string();
            } else if let Some(rest) = l.strip_prefix("ip ospf cost ") {
                cost = rest.to_string();
            } else if let Some(rest) = l.strip_prefix("ip ospf area ") {
                area = rest.to_string();
            } else if l == "ip ospf passive" {
                passive = true;
            } else if let Some(rest) = l.strip_prefix("ip access-group ") {
                acl_in = rest.trim_end_matches(" in").to_string();
            }
        }
        let mut line = format!("interface {ifname} ip={ip}");
        if !area.is_empty() {
            line.push_str(&format!(" ospf-area={area}"));
        }
        if !cost.is_empty() {
            line.push_str(&format!(" ospf-cost={cost}"));
        }
        if passive {
            line.push_str(" passive");
        }
        if !acl_in.is_empty() {
            line.push_str(&format!(" acl-in={acl_in}"));
        }
        s.push_str(&line);
        s.push('\n');
    }
    s.push_str("ospf\n");
    for block in tails {
        if block.starts_with("ip access-list extended HOSTS") {
            s.push_str("acl HOSTS 10 deny src=10.99.0.0/16\n");
            s.push_str("acl HOSTS 20 permit proto=tcp\n");
            s.push_str("acl HOSTS 30 permit proto=udp\n");
            s.push_str("acl HOSTS 40 permit proto=icmp\n");
            s.push_str("acl HOSTS 50 deny\n");
        } else if block.starts_with("router bgp") {
            s.push_str(&format!("bgp asn={ENTERPRISE_AS}\n"));
            for l in block.lines() {
                let l = l.trim();
                if let Some(rest) = l.strip_prefix("neighbor ") {
                    if let Some((peer, as_part)) = rest.split_once(" remote-as ") {
                        s.push_str(&format!("bgp-neighbor {peer} remote-as={as_part}\n"));
                    }
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_routing::{simulate, SimOptions};

    fn small_spec() -> EnterpriseSpec {
        EnterpriseSpec {
            cores: 2,
            dists: 2,
            accesses: 4,
            borders: 1,
            firewalls: 0,
            flat_access_percent: 0,
            nat: true,
        }
    }

    #[test]
    fn enterprise_parses_and_converges() {
        let net = enterprise("t", &small_spec());
        assert_eq!(net.node_count(), 9);
        let devices = net.parse();
        let dp = simulate(&devices, &net.env, &SimOptions::default());
        assert!(dp.convergence.converged, "{:?}", dp.convergence);
        // An access router must have the default route via OSPF (the
        // border redistributes its transit default).
        let access = dp.device("access0").unwrap();
        let (p, routes) = access.main_rib.lookup("8.8.8.8".parse().unwrap()).expect("default route");
        assert_eq!(p.len(), 0);
        assert_eq!(routes[0].protocol, batnet_config::vi::RouteProtocol::Ospf);
        // And OSPF routes to other access subnets.
        let (p2, r2) = access.main_rib.lookup("10.0.1.9".parse().unwrap()).unwrap();
        assert_eq!(p2.to_string(), "10.0.1.0/24");
        assert_eq!(r2[0].protocol, batnet_config::vi::RouteProtocol::Ospf);
    }

    #[test]
    fn borders_apply_import_policy() {
        let net = enterprise("t", &small_spec());
        let devices = net.parse();
        let dp = simulate(&devices, &net.env, &SimOptions::default());
        let border = dp.device("border0").unwrap();
        let best = border
            .bgp
            .best
            .get(&"198.51.100.0/24".parse().unwrap())
            .expect("transit prefix");
        assert_eq!(best.attrs.local_pref, 150, "FROM-TRANSIT sets 150");
        assert!(best
            .attrs
            .communities
            .contains(&batnet_net::Community::new(ENTERPRISE_AS as u16, 20)));
    }

    #[test]
    fn firewalls_emit_junos_and_parse() {
        let mut spec = small_spec();
        spec.firewalls = 1;
        let net = enterprise("t", &spec);
        assert_eq!(net.node_count(), 10);
        let devices = net.parse();
        let fw = devices.iter().find(|d| d.name == "fw0").unwrap();
        assert!(fw.stateful);
        assert_eq!(fw.zones.len(), 2);
        assert_eq!(fw.zone_policies.len(), 2);
        let dp = simulate(&devices, &net.env, &SimOptions::default());
        assert!(dp.convergence.converged);
        // Core has the static to the protected subnet redistributed.
        let access = dp.device("access0").unwrap();
        assert!(
            access.main_rib.lookup("10.200.0.9".parse().unwrap()).is_some(),
            "protected subnet reachable via OSPF redistribution"
        );
    }

    #[test]
    fn flat_access_devices_parse() {
        let mut spec = small_spec();
        spec.flat_access_percent = 100;
        let net = enterprise("t", &spec);
        let flat_count = net
            .configs
            .iter()
            .filter(|(_, t)| t.starts_with("device "))
            .count();
        assert_eq!(flat_count, 4, "all access devices flat");
        let devices = net.parse();
        let dp = simulate(&devices, &net.env, &SimOptions::default());
        assert!(dp.convergence.converged);
        let access = dp.device("access0").unwrap();
        assert!(access.main_rib.lookup("10.0.1.9".parse().unwrap()).is_some());
    }
}
