//! The `flat` dialect: a structured key=value configuration format.
//!
//! This stands in for config sources that are already machine-structured
//! (SONiC JSON, cloud VPC exports). One statement per line; the first word
//! selects the statement type, positional words follow, and `key=value`
//! pairs carry options. `#` starts a comment.
//!
//! ## Grammar
//!
//! ```text
//! device NAME
//! ntp-server IP                     dns-server IP
//! interface NAME ip=IP/LEN [ip2=IP/LEN]... [acl-in=ACL] [acl-out=ACL]
//!     [ospf-cost=N] [ospf-area=N] [passive] [shutdown] [mtu=N] [zone=Z]
//!     [desc=TEXT]
//! static PREFIX via IP [ad=N] | static PREFIX discard [ad=N]
//! ospf [router-id=IP] [redistribute=connected,static]
//! bgp asn=N [router-id=IP] [redistribute=connected,static,ospf]
//! bgp-neighbor IP remote-as=N [in=MAP] [out=MAP] [next-hop-self]
//! bgp-network PREFIX
//! prefix-list NAME permit|deny PREFIX [ge=N] [le=N]
//! community-list NAME permit|deny A:B
//! route-map NAME SEQ permit|deny [match-prefix-list=NAME[,NAME]]
//!     [match-community=NAME] [match-aspath=RE] [match-tag=N]
//!     [set-localpref=N] [set-metric=N] [set-tag=N]
//!     [set-community=A:B[,A:B]] [set-community-additive=A:B]
//!     [prepend=ASNxCOUNT] [set-nexthop=IP]
//! acl NAME SEQ permit|deny [proto=tcp] [src=PFX] [dst=PFX]
//!     [sport=N[-M]] [dport=N[-M]] [established] [icmp-type=N]
//! nat src|dst [iface=IF] [match-src=PFX] [match-dst=PFX]
//!     pool=IP[-IP] [port=N]
//! zone NAME iface=IF[,IF]
//! zone-policy FROM TO acl=ACL
//! zone-default-permit
//! ```
//!
//! `ip2=` adds a secondary address and may repeat. References are by
//! name, so an ACL may be defined after the interface or zone policy that
//! uses it.

use crate::diag::{Diagnostics, Severity};
use crate::vi::*;
use batnet_net::{Community, HeaderSpace, Ip, IpProtocol, IpRange, PortRange, Prefix};

/// Splits a word into `(key, Some(value))` for `key=value` or `(word,
/// None)` for a bare flag.
fn kv(word: &str) -> (&str, Option<&str>) {
    match word.split_once('=') {
        Some((k, v)) => (k, Some(v)),
        None => (word, None),
    }
}

fn parse_port_opt(s: &str) -> Option<PortRange> {
    if let Some((a, b)) = s.split_once('-') {
        let a = a.parse().ok()?;
        let b = b.parse().ok()?;
        (a <= b).then(|| PortRange::new(a, b))
    } else {
        s.parse().ok().map(PortRange::single)
    }
}

fn parse_ip_range(s: &str) -> Option<IpRange> {
    if let Some((a, b)) = s.split_once('-') {
        let start: Ip = a.parse().ok()?;
        let end: Ip = b.parse().ok()?;
        (start <= end).then_some(IpRange { start, end })
    } else {
        s.parse::<Ip>().ok().map(IpRange::single)
    }
}

/// Parses a `flat`-dialect config into the VI model plus diagnostics.
pub fn parse(name: &str, text: &str) -> (Device, Diagnostics) {
    let mut d = Device::new(name);
    let mut diags = Diagnostics::new();
    for (idx, raw) in text.lines().enumerate() {
        let no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[0] {
            "device" => {
                if let Some(n) = words.get(1) {
                    d.name = n.to_string();
                }
            }
            "ntp-server" => match words.get(1).unwrap_or(&"").parse() {
                Ok(ip) => d.ntp_servers.push(ip),
                Err(_) => diags.push(Severity::ParseError, no, "bad ntp-server"),
            },
            "dns-server" => match words.get(1).unwrap_or(&"").parse() {
                Ok(ip) => d.dns_servers.push(ip),
                Err(_) => diags.push(Severity::ParseError, no, "bad dns-server"),
            },
            "interface" => parse_interface(&words, no, &mut d, &mut diags),
            "static" => parse_static(&words, no, &mut d, &mut diags),
            "ospf" => {
                let proc = d.ospf.get_or_insert_with(|| OspfProcess {
                    router_id: None,
                    reference_bandwidth_mbps: 100_000,
                    redistribute_connected: false,
                    redistribute_static: false,
                    default_cost: 1,
                });
                for w in &words[1..] {
                    match kv(w) {
                        ("router-id", Some(v)) => proc.router_id = v.parse().ok(),
                        ("redistribute", Some(v)) => {
                            for r in v.split(',') {
                                match r {
                                    "connected" => proc.redistribute_connected = true,
                                    "static" => proc.redistribute_static = true,
                                    _ => diags.push(Severity::UnrecognizedLine, no, format!("ospf redistribute {r}")),
                                }
                            }
                        }
                        _ => diags.push(Severity::UnrecognizedLine, no, format!("ospf option {w}")),
                    }
                }
            }
            "bgp" => {
                let mut asn = None;
                let mut router_id = None;
                let mut redis = Vec::new();
                for w in &words[1..] {
                    match kv(w) {
                        ("asn", Some(v)) => asn = v.parse().ok(),
                        ("router-id", Some(v)) => router_id = v.parse().ok(),
                        ("redistribute", Some(v)) => redis = v.split(',').map(str::to_string).collect(),
                        _ => diags.push(Severity::UnrecognizedLine, no, format!("bgp option {w}")),
                    }
                }
                let Some(asn) = asn else {
                    diags.push(Severity::ParseError, no, "bgp needs asn=N");
                    continue;
                };
                let proc = d.bgp.get_or_insert_with(|| BgpProcess::new(asn));
                proc.asn = asn;
                if router_id.is_some() {
                    proc.router_id = router_id;
                }
                for r in redis {
                    match r.as_str() {
                        "connected" => proc.redistribute_connected = true,
                        "static" => proc.redistribute_static = true,
                        "ospf" => proc.redistribute_ospf = true,
                        other => diags.push(Severity::UnrecognizedLine, no, format!("bgp redistribute {other}")),
                    }
                }
            }
            "bgp-neighbor" => parse_bgp_neighbor(&words, no, &mut d, &mut diags),
            "bgp-network" => {
                let Some(bgp) = &mut d.bgp else {
                    diags.push(Severity::ParseError, no, "bgp-network before bgp");
                    continue;
                };
                match words.get(1).unwrap_or(&"").parse() {
                    Ok(p) => bgp.networks.push(p),
                    Err(_) => diags.push(Severity::ParseError, no, "bad bgp-network"),
                }
            }
            "prefix-list" => parse_prefix_list(&words, no, &mut d, &mut diags),
            "community-list" => parse_community_list(&words, no, &mut d, &mut diags),
            "route-map" => parse_route_map(&words, no, &mut d, &mut diags),
            "acl" => parse_acl(&words, no, line, &mut d, &mut diags),
            "nat" => parse_nat(&words, no, line, &mut d, &mut diags),
            "zone" => {
                let Some(zname) = words.get(1) else {
                    diags.push(Severity::ParseError, no, "zone needs a name");
                    continue;
                };
                d.stateful = true;
                let zone = d.zones.entry(zname.to_string()).or_insert_with(|| Zone {
                    name: zname.to_string(),
                    interfaces: Vec::new(),
                });
                for w in &words[2..] {
                    if let ("iface", Some(v)) = kv(w) {
                        zone.interfaces.extend(v.split(',').map(str::to_string));
                    } else {
                        diags.push(Severity::UnrecognizedLine, no, format!("zone option {w}"));
                    }
                }
            }
            "zone-policy" => {
                let (Some(from), Some(to)) = (words.get(1), words.get(2)) else {
                    diags.push(Severity::ParseError, no, "zone-policy FROM TO acl=ACL");
                    continue;
                };
                let mut acl = None;
                for w in &words[3..] {
                    if let ("acl", Some(v)) = kv(w) {
                        acl = Some(v.to_string());
                    }
                }
                match acl {
                    Some(acl) => d.zone_policies.push(ZonePolicy {
                        from_zone: from.to_string(),
                        to_zone: to.to_string(),
                        acl,
                        src: SourceSpan::at(no),
                    }),
                    None => diags.push(Severity::ParseError, no, "zone-policy needs acl="),
                }
            }
            "zone-default-permit" => d.zone_default_permit = true,
            _ => diags.push(Severity::UnrecognizedLine, no, line.to_string()),
        }
    }
    d.lint_suppressions = crate::suppress::scan_suppressions(text);
    (d, diags)
}

fn parse_interface(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    let Some(name) = words.get(1) else {
        diags.push(Severity::ParseError, no, "interface needs a name");
        return;
    };
    let iface = d
        .interfaces
        .entry(name.to_string())
        .or_insert_with(|| Interface::new(name.to_string()));
    for w in &words[2..] {
        match kv(w) {
            (key @ ("ip" | "ip2"), Some(v)) => {
                let Some((ip_s, len_s)) = v.split_once('/') else {
                    diags.push(Severity::ParseError, no, format!("bad ip {v}"));
                    continue;
                };
                match (ip_s.parse(), len_s.parse()) {
                    (Ok(ip), Ok(len)) if key == "ip" => iface.address = Some((ip, len)),
                    (Ok(ip), Ok(len)) => iface.secondary_addresses.push((ip, len)),
                    _ => diags.push(Severity::ParseError, no, format!("bad ip {v}")),
                }
            }
            ("acl-in", Some(v)) => iface.acl_in = Some(v.to_string()),
            ("acl-out", Some(v)) => iface.acl_out = Some(v.to_string()),
            ("ospf-cost", Some(v)) => iface.ospf_cost = v.parse().ok(),
            ("ospf-area", Some(v)) => iface.ospf_area = v.parse().ok(),
            ("mtu", Some(v)) => iface.mtu = v.parse().unwrap_or(1500),
            ("zone", Some(v)) => iface.zone = Some(v.to_string()),
            ("desc", Some(v)) => iface.description = Some(v.to_string()),
            ("passive", None) => iface.ospf_passive = true,
            ("shutdown", None) => iface.enabled = false,
            _ => diags.push(Severity::UnrecognizedLine, no, format!("interface option {w}")),
        }
    }
}

fn parse_static(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    let Ok(prefix) = words.get(1).unwrap_or(&"").parse::<Prefix>() else {
        diags.push(Severity::ParseError, no, "bad static prefix");
        return;
    };
    let mut admin_distance = 1;
    let next_hop = match words.get(2) {
        Some(&"discard") => NextHop::Discard,
        Some(&"via") => match words.get(3).unwrap_or(&"").parse() {
            Ok(ip) => NextHop::Ip(ip),
            Err(_) => {
                diags.push(Severity::ParseError, no, "bad static next hop");
                return;
            }
        },
        _ => {
            diags.push(Severity::ParseError, no, "static PREFIX via IP | discard");
            return;
        }
    };
    for w in &words[3..] {
        if let ("ad", Some(v)) = kv(w) {
            admin_distance = v.parse().unwrap_or(1);
        }
    }
    d.static_routes.push(StaticRoute {
        prefix,
        next_hop,
        admin_distance,
    });
}

fn parse_bgp_neighbor(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    let Some(bgp) = &mut d.bgp else {
        diags.push(Severity::ParseError, no, "bgp-neighbor before bgp");
        return;
    };
    let Ok(peer) = words.get(1).unwrap_or(&"").parse::<Ip>() else {
        diags.push(Severity::ParseError, no, "bad neighbor address");
        return;
    };
    let mut nb = BgpNeighbor::new(peer, batnet_net::Asn(0));
    nb.src = SourceSpan::at(no);
    for w in &words[2..] {
        match kv(w) {
            ("remote-as", Some(v)) => match v.parse() {
                Ok(a) => nb.remote_as = a,
                Err(_) => diags.push(Severity::ParseError, no, "bad remote-as"),
            },
            ("in", Some(v)) => nb.import_policy = Some(v.to_string()),
            ("out", Some(v)) => nb.export_policy = Some(v.to_string()),
            ("next-hop-self", None) => nb.next_hop_self = true,
            ("desc", Some(v)) => nb.description = Some(v.to_string()),
            _ => diags.push(Severity::UnrecognizedLine, no, format!("neighbor option {w}")),
        }
    }
    if nb.remote_as.0 == 0 {
        diags.push(Severity::ParseError, no, "bgp-neighbor needs remote-as=N");
        return;
    }
    bgp.neighbors.push(nb);
}

fn parse_prefix_list(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    // prefix-list NAME permit|deny PREFIX [ge=N] [le=N]
    let (Some(name), Some(act), Some(pfx)) = (words.get(1), words.get(2), words.get(3)) else {
        diags.push(Severity::ParseError, no, "prefix-list NAME permit|deny PREFIX");
        return;
    };
    let action = match *act {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, no, "prefix-list needs permit|deny");
            return;
        }
    };
    let Ok(prefix) = pfx.parse() else {
        diags.push(Severity::ParseError, no, "bad prefix");
        return;
    };
    let mut ge = None;
    let mut le = None;
    for w in &words[4..] {
        match kv(w) {
            ("ge", Some(v)) => ge = v.parse().ok(),
            ("le", Some(v)) => le = v.parse().ok(),
            _ => diags.push(Severity::UnrecognizedLine, no, format!("prefix-list option {w}")),
        }
    }
    let pl = d
        .prefix_lists
        .entry(name.to_string())
        .or_insert_with(|| PrefixList {
            name: name.to_string(),
            entries: Vec::new(),
        });
    pl.entries.push(PrefixListEntry {
        seq: (pl.entries.len() as u32 + 1) * 5,
        action,
        prefix,
        ge,
        le,
    });
}

fn parse_community_list(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    let (Some(name), Some(act), Some(c)) = (words.get(1), words.get(2), words.get(3)) else {
        diags.push(Severity::ParseError, no, "community-list NAME permit|deny A:B");
        return;
    };
    let action = match *act {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, no, "community-list needs permit|deny");
            return;
        }
    };
    let Ok(community) = c.parse::<Community>() else {
        diags.push(Severity::ParseError, no, "bad community");
        return;
    };
    d.community_lists
        .entry(name.to_string())
        .or_insert_with(|| CommunityList {
            name: name.to_string(),
            entries: Vec::new(),
        })
        .entries
        .push(CommunityListEntry { action, community });
}

fn parse_route_map(words: &[&str], no: usize, d: &mut Device, diags: &mut Diagnostics) {
    // route-map NAME SEQ permit|deny [options]
    let (Some(name), Some(seq_s), Some(act)) = (words.get(1), words.get(2), words.get(3)) else {
        diags.push(Severity::ParseError, no, "route-map NAME SEQ permit|deny");
        return;
    };
    let Ok(seq) = seq_s.parse::<u32>() else {
        diags.push(Severity::ParseError, no, "bad route-map seq");
        return;
    };
    let action = match *act {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, no, "route-map needs permit|deny");
            return;
        }
    };
    let mut clause = RouteMapClause {
        seq,
        action,
        matches: Vec::new(),
        sets: Vec::new(),
        src: SourceSpan::at(no),
    };
    for w in &words[4..] {
        match kv(w) {
            ("match-prefix-list", Some(v)) => clause
                .matches
                .push(RouteMapMatch::PrefixLists(v.split(',').map(str::to_string).collect())),
            ("match-community", Some(v)) => clause
                .matches
                .push(RouteMapMatch::CommunityLists(v.split(',').map(str::to_string).collect())),
            ("match-aspath", Some(v)) => clause.matches.push(RouteMapMatch::AsPathRegex(v.to_string())),
            ("match-tag", Some(v)) => match v.parse() {
                Ok(t) => clause.matches.push(RouteMapMatch::Tag(t)),
                Err(_) => diags.push(Severity::ParseError, no, "bad match-tag"),
            },
            ("set-localpref", Some(v)) => match v.parse() {
                Ok(lp) => clause.sets.push(RouteMapSet::LocalPref(lp)),
                Err(_) => diags.push(Severity::ParseError, no, "bad set-localpref"),
            },
            ("set-metric", Some(v)) => match v.parse() {
                Ok(m) => clause.sets.push(RouteMapSet::Metric(m)),
                Err(_) => diags.push(Severity::ParseError, no, "bad set-metric"),
            },
            ("set-tag", Some(v)) => match v.parse() {
                Ok(t) => clause.sets.push(RouteMapSet::Tag(t)),
                Err(_) => diags.push(Severity::ParseError, no, "bad set-tag"),
            },
            ("set-nexthop", Some(v)) => match v.parse() {
                Ok(ip) => clause.sets.push(RouteMapSet::NextHop(ip)),
                Err(_) => diags.push(Severity::ParseError, no, "bad set-nexthop"),
            },
            ("set-community", Some(v)) | ("set-community-additive", Some(v)) => {
                let additive = w.starts_with("set-community-additive");
                let communities: Vec<Community> =
                    v.split(',').filter_map(|c| c.parse().ok()).collect();
                clause.sets.push(RouteMapSet::Community { communities, additive });
            }
            ("prepend", Some(v)) => {
                // ASNxCOUNT, e.g. 65001x3
                let (asn_s, count_s) = v.split_once('x').unwrap_or((v, "1"));
                match (asn_s.parse(), count_s.parse()) {
                    (Ok(asn), Ok(count)) => clause.sets.push(RouteMapSet::AsPathPrepend { asn, count }),
                    _ => diags.push(Severity::ParseError, no, "bad prepend"),
                }
            }
            _ => diags.push(Severity::UnrecognizedLine, no, format!("route-map option {w}")),
        }
    }
    let rm = d
        .route_maps
        .entry(name.to_string())
        .or_insert_with(|| RouteMap {
            name: name.to_string(),
            clauses: Vec::new(),
            src: SourceSpan::at(no),
        });
    rm.src.extend_to(no);
    rm.clauses.push(clause);
    rm.clauses.sort_by_key(|c| c.seq);
}

fn parse_acl(words: &[&str], no: usize, line: &str, d: &mut Device, diags: &mut Diagnostics) {
    // acl NAME SEQ permit|deny [options]
    let (Some(name), Some(seq_s), Some(act)) = (words.get(1), words.get(2), words.get(3)) else {
        diags.push(Severity::ParseError, no, "acl NAME SEQ permit|deny");
        return;
    };
    let Ok(seq) = seq_s.parse::<u32>() else {
        diags.push(Severity::ParseError, no, "bad acl seq");
        return;
    };
    let action = match *act {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, no, "acl needs permit|deny");
            return;
        }
    };
    let mut space = HeaderSpace::any();
    for w in &words[4..] {
        match kv(w) {
            ("proto", Some(v)) => match IpProtocol::parse_keyword(v) {
                Some(Some(p)) => space.protocols.push(p),
                Some(None) => {}
                None => diags.push(Severity::ParseError, no, format!("bad proto {v}")),
            },
            ("src", Some(v)) => match v.parse::<Prefix>() {
                Ok(p) => space.src_ips.push(IpRange::from_prefix(p)),
                Err(_) => diags.push(Severity::ParseError, no, format!("bad src {v}")),
            },
            ("dst", Some(v)) => match v.parse::<Prefix>() {
                Ok(p) => space.dst_ips.push(IpRange::from_prefix(p)),
                Err(_) => diags.push(Severity::ParseError, no, format!("bad dst {v}")),
            },
            ("sport", Some(v)) => match parse_port_opt(v) {
                Some(r) => space.src_ports.push(r),
                None => diags.push(Severity::ParseError, no, format!("bad sport {v}")),
            },
            ("dport", Some(v)) => match parse_port_opt(v) {
                Some(r) => space.dst_ports.push(r),
                None => diags.push(Severity::ParseError, no, format!("bad dport {v}")),
            },
            ("icmp-type", Some(v)) => match v.parse() {
                Ok(t) => space.icmp_types.push(t),
                Err(_) => diags.push(Severity::ParseError, no, "bad icmp-type"),
            },
            ("established", None) => space.established = true,
            _ => diags.push(Severity::UnrecognizedLine, no, format!("acl option {w}")),
        }
    }
    let acl = d.acls.entry(name.to_string()).or_insert_with(|| {
        let mut a = Acl::new(name.to_string());
        a.src = SourceSpan::at(no);
        a
    });
    acl.src.extend_to(no);
    acl.lines.push(AclLine {
        seq,
        action,
        space,
        text: line.to_string(),
    });
    acl.lines.sort_by_key(|l| l.seq);
}

fn parse_nat(words: &[&str], no: usize, line: &str, d: &mut Device, diags: &mut Diagnostics) {
    // nat src|dst [iface=IF] [match-src=PFX] [match-dst=PFX] pool=IP[-IP] [port=N]
    let kind = match words.get(1) {
        Some(&"src") => NatKind::Source,
        Some(&"dst") => NatKind::Destination,
        _ => {
            diags.push(Severity::ParseError, no, "nat src|dst ...");
            return;
        }
    };
    let mut space = HeaderSpace::any();
    let mut interface = None;
    let mut pool = None;
    let mut port = None;
    for w in &words[2..] {
        match kv(w) {
            ("iface", Some(v)) => interface = Some(v.to_string()),
            ("match-src", Some(v)) => match v.parse::<Prefix>() {
                Ok(p) => space.src_ips.push(IpRange::from_prefix(p)),
                Err(_) => diags.push(Severity::ParseError, no, "bad match-src"),
            },
            ("match-dst", Some(v)) => match v.parse::<Prefix>() {
                Ok(p) => space.dst_ips.push(IpRange::from_prefix(p)),
                Err(_) => diags.push(Severity::ParseError, no, "bad match-dst"),
            },
            ("pool", Some(v)) => pool = parse_ip_range(v),
            ("port", Some(v)) => port = v.parse().ok(),
            _ => diags.push(Severity::UnrecognizedLine, no, format!("nat option {w}")),
        }
    }
    let Some(pool) = pool else {
        diags.push(Severity::ParseError, no, "nat needs pool=IP[-IP]");
        return;
    };
    d.nat_rules.push(NatRule {
        kind,
        interface,
        match_space: space,
        pool,
        port,
        text: line.to_string(),
        acl: None,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# flat sample
device f1
ntp-server 10.255.0.1
interface eth0 ip=10.0.0.1/24 acl-in=EDGE ospf-cost=5 ospf-area=0
interface eth1 ip=10.0.1.1/24 shutdown zone=dmz
static 10.99.0.0/16 via 10.0.0.2 ad=10
static 10.98.0.0/16 discard
ospf router-id=3.3.3.3 redistribute=connected,static
bgp asn=65030 router-id=3.3.3.3 redistribute=ospf
bgp-neighbor 10.0.0.2 remote-as=65001 in=IMP out=EXP next-hop-self
bgp-network 10.50.0.0/16
prefix-list PL permit 10.0.0.0/8 le=24
community-list CL permit 65030:100
route-map IMP 10 permit match-prefix-list=PL set-localpref=150 set-community-additive=65030:1
route-map IMP 20 deny
route-map EXP 10 permit prepend=65030x2
acl EDGE 10 permit proto=tcp dst=10.0.5.0/24 dport=80
acl EDGE 20 permit proto=tcp established
acl EDGE 30 deny
nat src iface=eth1 match-src=10.0.0.0/8 pool=203.0.113.1-203.0.113.4
zone dmz iface=eth1
zone-policy dmz internal acl=EDGE
";

    fn parsed() -> (Device, Diagnostics) {
        parse("f1", SAMPLE)
    }

    #[test]
    fn sample_parses_cleanly() {
        let (_, diags) = parsed();
        if let Some(item) = diags.items().first() {
            panic!("unexpected diagnostic: {item}");
        }
    }

    #[test]
    fn structure_is_complete() {
        let (d, _) = parsed();
        assert_eq!(d.name, "f1");
        assert_eq!(d.interfaces.len(), 2);
        assert_eq!(d.interfaces["eth0"].ospf_cost, Some(5));
        assert!(!d.interfaces["eth1"].enabled);
        assert_eq!(d.interfaces["eth1"].zone.as_deref(), Some("dmz"));
        assert_eq!(d.static_routes.len(), 2);
        assert_eq!(d.static_routes[0].admin_distance, 10);
        let bgp = d.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn.0, 65030);
        assert!(bgp.redistribute_ospf);
        assert!(bgp.neighbors[0].next_hop_self);
        assert_eq!(d.route_maps["IMP"].clauses.len(), 2);
        assert_eq!(d.acls["EDGE"].lines.len(), 3);
        assert_eq!(d.nat_rules.len(), 1);
        assert_eq!(d.nat_rules[0].pool.size(), 4);
        assert_eq!(d.zone_policies.len(), 1);
        assert_eq!(d.zone_acl("dmz", "internal").map(|a| a.lines.len()), Some(3));
    }

    #[test]
    fn prepend_syntax() {
        let (d, _) = parsed();
        let exp = &d.route_maps["EXP"];
        assert_eq!(
            exp.clauses[0].sets,
            vec![RouteMapSet::AsPathPrepend {
                asn: batnet_net::Asn(65030),
                count: 2
            }]
        );
    }

    #[test]
    fn bad_lines_reported() {
        let (_, diags) = parse("f1", "interface eth0 ip=oops\nmystery\nstatic banana via x\n");
        assert!(diags.count(Severity::ParseError) >= 2);
        assert_eq!(diags.count(Severity::UnrecognizedLine), 1);
    }

    #[test]
    fn acl_lines_sorted_by_seq() {
        let text = "acl A 20 deny\nacl A 10 permit proto=tcp\n";
        let (d, _) = parse("f1", text);
        assert_eq!(d.acls["A"].lines[0].seq, 10);
        assert_eq!(d.acls["A"].lines[1].seq, 20);
    }
}
