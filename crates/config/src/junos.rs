//! The `junos` dialect: a Juniper-flavoured `set`-path configuration
//! language.
//!
//! Every statement is one `set` line whose words form a path into a
//! configuration tree. Unlike the [`crate::ios`] dialect there is no
//! indentation structure; the "AST" is the set of paths, and conversion
//! walks them in file order (with a pre-pass for named communities, which
//! policy statements copy by value). Zone policies and interfaces hold
//! their filters by name, so a filter may be defined after its use.
//!
//! ## Grammar (the subset we model)
//!
//! ```text
//! set system host-name NAME
//! set system ntp server IP
//! set system name-server IP
//! set interfaces IF unit 0 family inet address IP/LEN
//! set interfaces IF unit 0 family inet filter input|output FILTER
//! set interfaces IF disable
//! set interfaces IF mtu N
//! set interfaces IF description TEXT...
//! set routing-options router-id IP
//! set routing-options autonomous-system ASN
//! set routing-options static route PREFIX next-hop IP
//! set routing-options static route PREFIX discard
//! set protocols ospf reference-bandwidth MBPS
//! set protocols ospf area N interface IF [metric N | passive]
//! set protocols ospf redistribute connected|static
//! set protocols bgp group G type external|internal
//! set protocols bgp group G neighbor IP peer-as ASN
//! set protocols bgp group G neighbor IP import|export POLICY
//! set protocols bgp group G neighbor IP next-hop-self
//! set protocols bgp group G import|export POLICY          (group default)
//! set protocols bgp redistribute connected|static|ospf
//! set protocols bgp network PREFIX
//! set policy-options prefix-list NAME PREFIX [orlonger]
//! set policy-options community CNAME members A:B
//! set policy-options policy-statement P term T from prefix-list NAME
//! set policy-options policy-statement P term T from community CNAME
//! set policy-options policy-statement P term T from as-path-regex RE
//! set policy-options policy-statement P term T from protocol static|ospf|connected
//! set policy-options policy-statement P term T then local-preference N
//! set policy-options policy-statement P term T then metric N
//! set policy-options policy-statement P term T then community add CNAME
//! set policy-options policy-statement P term T then as-path-prepend ASN [N]
//! set policy-options policy-statement P term T then next-hop IP
//! set policy-options policy-statement P term T then accept|reject
//! set firewall filter F term T from source-address PREFIX
//! set firewall filter F term T from destination-address PREFIX
//! set firewall filter F term T from protocol NAME
//! set firewall filter F term T from source-port N[-M]
//! set firewall filter F term T from destination-port N[-M]
//! set firewall filter F term T from tcp-established
//! set firewall filter F term T then accept|discard
//! set security zones security-zone Z interfaces IF
//! set security policies from-zone A to-zone B filter F
//! set security default-permit
//! set security nat source rule R match source-address PREFIX
//! set security nat source rule R match interface IF
//! set security nat source rule R then translate IP [to IP]
//! set security nat destination rule R match destination-address PREFIX
//! set security nat destination rule R then translate IP [port N]
//! ```

use crate::diag::{Diagnostics, Severity};
use crate::vi::*;
use batnet_net::{Asn, Community, HeaderSpace, Ip, IpProtocol, IpRange, PortRange, Prefix};
use std::collections::BTreeMap;

struct Path<'a> {
    no: usize,
    words: Vec<&'a str>,
}

impl<'a> Path<'a> {
    fn word(&self, i: usize) -> &'a str {
        self.words.get(i).copied().unwrap_or("")
    }
    fn text(&self) -> String {
        self.words.join(" ")
    }
}

/// Parses a `junos`-dialect config into the VI model plus diagnostics.
pub fn parse(name: &str, text: &str) -> (Device, Diagnostics) {
    let mut d = Device::new(name);
    let mut diags = Diagnostics::new();
    let mut paths: Vec<Path> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        if words.first() != Some(&"set") {
            diags.push(Severity::UnrecognizedLine, no, line.to_string());
            continue;
        }
        paths.push(Path {
            no,
            words: words[1..].to_vec(),
        });
    }

    // Pre-pass 1: named communities (referenced by policy statements).
    let mut communities: BTreeMap<String, Vec<Community>> = BTreeMap::new();
    for p in &paths {
        if p.word(0) == "policy-options" && p.word(1) == "community" && p.word(3) == "members" {
            if let Ok(c) = p.word(4).parse::<Community>() {
                communities.entry(p.word(2).to_string()).or_default().push(c);
            } else {
                diags.push(Severity::ParseError, p.no, format!("bad community: {}", p.text()));
            }
        }
    }
    for (cname, members) in &communities {
        d.community_lists.insert(
            cname.clone(),
            CommunityList {
                name: cname.clone(),
                entries: members
                    .iter()
                    .map(|&community| CommunityListEntry {
                        action: AclAction::Permit,
                        community,
                    })
                    .collect(),
            },
        );
    }

    // Track term/rule ordering and BGP group state across lines.
    let mut state = ConvertState::default();
    for p in &paths {
        convert_path(p, &mut d, &mut diags, &communities, &mut state);
    }
    // Post-passes: NAT rule assembly and the router id for processes
    // configured after `routing-options`.
    finish(&mut d, &mut diags, state);
    d.lint_suppressions = crate::suppress::scan_suppressions(text);
    (d, diags)
}

#[derive(Default)]
struct ConvertState {
    /// BGP group → (type external?, group import, group export).
    groups: BTreeMap<String, GroupState>,
    /// policy-statement → ordered term names (for seq assignment).
    policy_terms: BTreeMap<String, Vec<String>>,
    /// firewall filter → ordered term names.
    filter_terms: BTreeMap<String, Vec<String>>,
    /// NAT rules under construction: (kind, rule name) → builder.
    nat: BTreeMap<(u8, String), NatBuilder>,
    /// NAT rule order of first appearance.
    nat_order: Vec<(u8, String)>,
    /// Local AS from routing-options (used by internal groups).
    local_as: Option<Asn>,
    /// Router id from routing-options, applied to processes in the
    /// post-pass (the processes may be configured on later lines).
    router_id: Option<Ip>,
}

#[derive(Default, Clone)]
struct GroupState {
    external: Option<bool>,
    import: Option<String>,
    export: Option<String>,
}

#[derive(Default, Clone)]
struct NatBuilder {
    space: HeaderSpace,
    interface: Option<String>,
    pool: Option<IpRange>,
    port: Option<u16>,
    text: String,
}

fn convert_path(
    p: &Path,
    d: &mut Device,
    diags: &mut Diagnostics,
    communities: &BTreeMap<String, Vec<Community>>,
    st: &mut ConvertState,
) {
    match p.word(0) {
        "system" => match (p.word(1), p.word(2)) {
            ("host-name", _) => d.name = p.word(2).to_string(),
            ("ntp", "server") => match p.word(3).parse() {
                Ok(ip) => d.ntp_servers.push(ip),
                Err(_) => diags.push(Severity::ParseError, p.no, "bad ntp server"),
            },
            ("name-server", _) => match p.word(2).parse() {
                Ok(ip) => d.dns_servers.push(ip),
                Err(_) => diags.push(Severity::ParseError, p.no, "bad name-server"),
            },
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        "interfaces" => convert_interface(p, d, diags),
        "routing-options" => match p.word(1) {
            "router-id" => match p.word(2).parse() {
                Ok(id) => st.router_id = Some(id),
                Err(_) => diags.push(Severity::ParseError, p.no, "bad router-id"),
            },
            "autonomous-system" => {
                st.local_as = p.word(2).parse().ok();
            }
            "static" if p.word(2) == "route" => {
                let Ok(prefix) = p.word(3).parse::<Prefix>() else {
                    diags.push(Severity::ParseError, p.no, format!("bad static route: {}", p.text()));
                    return;
                };
                let next_hop = match p.word(4) {
                    "discard" => NextHop::Discard,
                    "next-hop" => match p.word(5).parse() {
                        Ok(ip) => NextHop::Ip(ip),
                        Err(_) => {
                            diags.push(Severity::ParseError, p.no, "bad next-hop");
                            return;
                        }
                    },
                    _ => {
                        diags.push(Severity::UnrecognizedLine, p.no, p.text());
                        return;
                    }
                };
                d.static_routes.push(StaticRoute {
                    prefix,
                    next_hop,
                    admin_distance: 5, // Junos static preference
                });
            }
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        "protocols" => match p.word(1) {
            "ospf" => convert_ospf(p, d, diags, st),
            "bgp" => convert_bgp(p, d, diags, st),
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        "policy-options" => convert_policy_options(p, d, diags, communities, st),
        "firewall" => convert_firewall(p, d, diags, st),
        "security" => convert_security(p, d, diags, st),
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn convert_interface(p: &Path, d: &mut Device, diags: &mut Diagnostics) {
    let name = p.word(1).to_string();
    if name.is_empty() {
        diags.push(Severity::ParseError, p.no, "interface without a name");
        return;
    }
    let iface = d
        .interfaces
        .entry(name.clone())
        .or_insert_with(|| Interface::new(name));
    match p.word(2) {
        "disable" => iface.enabled = false,
        "mtu" => iface.mtu = p.word(3).parse().unwrap_or(1500),
        "description" => iface.description = Some(p.words[3..].join(" ")),
        "unit" if p.word(4) == "family" && p.word(5) == "inet" => match p.word(6) {
            "address" => match p.word(7).parse::<Prefix>() {
                Ok(_) => {
                    let (ip_s, len_s) = p.word(7).split_once('/').unwrap_or((p.word(7), "32"));
                    let ip: Ip = ip_s.parse().unwrap_or(Ip::ZERO);
                    let len: u8 = len_s.parse().unwrap_or(32);
                    if iface.address.is_none() {
                        iface.address = Some((ip, len));
                    } else {
                        iface.secondary_addresses.push((ip, len));
                    }
                }
                Err(_) => diags.push(Severity::ParseError, p.no, format!("bad address: {}", p.text())),
            },
            "filter" => match p.word(7) {
                "input" => iface.acl_in = Some(p.word(8).to_string()),
                "output" => iface.acl_out = Some(p.word(8).to_string()),
                _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
            },
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn convert_ospf(p: &Path, d: &mut Device, diags: &mut Diagnostics, _st: &mut ConvertState) {
    let proc = d.ospf.get_or_insert_with(|| OspfProcess {
        router_id: None,
        reference_bandwidth_mbps: 100_000,
        redistribute_connected: false,
        redistribute_static: false,
        default_cost: 1,
    });
    match p.word(2) {
        "reference-bandwidth" => {
            proc.reference_bandwidth_mbps = p.word(3).parse().unwrap_or(100_000)
        }
        "redistribute" => match p.word(3) {
            "connected" => proc.redistribute_connected = true,
            "static" => proc.redistribute_static = true,
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        "area" => {
            // set protocols ospf area N interface IF [metric N | passive]
            let Ok(area) = p.word(3).parse::<u32>() else {
                diags.push(Severity::ParseError, p.no, "bad area");
                return;
            };
            if p.word(4) != "interface" {
                diags.push(Severity::UnrecognizedLine, p.no, p.text());
                return;
            }
            let ifname = p.word(5).to_string();
            let iface = d
                .interfaces
                .entry(ifname.clone())
                .or_insert_with(|| Interface::new(ifname));
            iface.ospf_area = Some(area);
            match p.word(6) {
                "" => {}
                "metric" => iface.ospf_cost = p.word(7).parse().ok(),
                "passive" => iface.ospf_passive = true,
                _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
            }
        }
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn convert_bgp(p: &Path, d: &mut Device, diags: &mut Diagnostics, st: &mut ConvertState) {
    let local_as = st.local_as.unwrap_or(Asn(0));
    let proc = d.bgp.get_or_insert_with(|| BgpProcess::new(local_as));
    if proc.asn.0 == 0 {
        proc.asn = local_as;
    }
    match p.word(2) {
        "redistribute" => match p.word(3) {
            "connected" => proc.redistribute_connected = true,
            "static" => proc.redistribute_static = true,
            "ospf" => proc.redistribute_ospf = true,
            _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
        },
        "network" => match p.word(3).parse() {
            Ok(pref) => proc.networks.push(pref),
            Err(_) => diags.push(Severity::ParseError, p.no, "bad network"),
        },
        "group" => {
            let group = p.word(3).to_string();
            match p.word(4) {
                "type" => {
                    st.groups.entry(group).or_default().external =
                        Some(p.word(5) == "external");
                }
                "import" => st.groups.entry(group).or_default().import = Some(p.word(5).to_string()),
                "export" => st.groups.entry(group).or_default().export = Some(p.word(5).to_string()),
                "neighbor" => {
                    let Ok(peer) = p.word(5).parse::<Ip>() else {
                        diags.push(Severity::ParseError, p.no, "bad neighbor address");
                        return;
                    };
                    let gs = st.groups.entry(group).or_default().clone();
                    let n = if let Some(n) = proc.neighbors.iter_mut().find(|n| n.peer_ip == peer) {
                        n.src.extend_to(p.no);
                        n
                    } else {
                        let default_as = if gs.external == Some(false) {
                            proc.asn
                        } else {
                            Asn(0)
                        };
                        let mut nb = BgpNeighbor::new(peer, default_as);
                        nb.import_policy = gs.import.clone();
                        nb.export_policy = gs.export.clone();
                        nb.src = SourceSpan::at(p.no);
                        proc.neighbors.push(nb);
                        proc.neighbors.last_mut().expect("just pushed")
                    };
                    match p.word(6) {
                        "" => {}
                        "peer-as" => match p.word(7).parse() {
                            Ok(asn) => n.remote_as = asn,
                            Err(_) => diags.push(Severity::ParseError, p.no, "bad peer-as"),
                        },
                        "import" => n.import_policy = Some(p.word(7).to_string()),
                        "export" => n.export_policy = Some(p.word(7).to_string()),
                        "next-hop-self" => n.next_hop_self = true,
                        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
                    }
                }
                _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
            }
        }
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn term_seq(terms: &mut Vec<String>, term: &str) -> u32 {
    if let Some(pos) = terms.iter().position(|t| t == term) {
        (pos as u32 + 1) * 10
    } else {
        terms.push(term.to_string());
        terms.len() as u32 * 10
    }
}

fn convert_policy_options(
    p: &Path,
    d: &mut Device,
    diags: &mut Diagnostics,
    communities: &BTreeMap<String, Vec<Community>>,
    st: &mut ConvertState,
) {
    match p.word(1) {
        "prefix-list" => {
            let name = p.word(2).to_string();
            let Ok(prefix) = p.word(3).parse::<Prefix>() else {
                diags.push(Severity::ParseError, p.no, format!("bad prefix: {}", p.text()));
                return;
            };
            let orlonger = p.word(4) == "orlonger";
            let pl = d
                .prefix_lists
                .entry(name.clone())
                .or_insert_with(|| PrefixList {
                    name,
                    entries: Vec::new(),
                });
            pl.entries.push(PrefixListEntry {
                seq: (pl.entries.len() as u32 + 1) * 5,
                action: AclAction::Permit,
                prefix,
                ge: None,
                le: if orlonger { Some(32) } else { None },
            });
        }
        "community" => {} // handled in the pre-pass
        "policy-statement" => {
            let policy = p.word(2).to_string();
            if p.word(3) != "term" {
                diags.push(Severity::UnrecognizedLine, p.no, p.text());
                return;
            }
            let term = p.word(4);
            let seq = term_seq(st.policy_terms.entry(policy.clone()).or_default(), term);
            let rm = d
                .route_maps
                .entry(policy.clone())
                .or_insert_with(|| RouteMap {
                    name: policy,
                    clauses: Vec::new(),
                    src: SourceSpan::at(p.no),
                });
            rm.src.extend_to(p.no);
            let clause = if let Some(c) = rm.clauses.iter_mut().find(|c| c.seq == seq) {
                c.src.extend_to(p.no);
                c
            } else {
                rm.clauses.push(RouteMapClause {
                    seq,
                    action: AclAction::Permit,
                    matches: Vec::new(),
                    sets: Vec::new(),
                    src: SourceSpan::at(p.no),
                });
                rm.clauses.sort_by_key(|c| c.seq);
                rm.clauses
                    .iter_mut()
                    .find(|c| c.seq == seq)
                    .expect("just inserted")
            };
            match (p.word(5), p.word(6)) {
                ("from", "prefix-list") => clause
                    .matches
                    .push(RouteMapMatch::PrefixLists(vec![p.word(7).to_string()])),
                ("from", "community") => clause
                    .matches
                    .push(RouteMapMatch::CommunityLists(vec![p.word(7).to_string()])),
                ("from", "as-path-regex") => clause
                    .matches
                    .push(RouteMapMatch::AsPathRegex(p.word(7).trim_matches('"').to_string())),
                ("from", "protocol") => {
                    let proto = match p.word(7) {
                        "static" => Some(RouteProtocol::Static),
                        "ospf" => Some(RouteProtocol::Ospf),
                        "connected" | "direct" => Some(RouteProtocol::Connected),
                        _ => None,
                    };
                    match proto {
                        Some(pr) => clause.matches.push(RouteMapMatch::Protocol(pr)),
                        None => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
                    }
                }
                ("then", "local-preference") => match p.word(7).parse() {
                    Ok(lp) => clause.sets.push(RouteMapSet::LocalPref(lp)),
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad local-preference"),
                },
                ("then", "metric") => match p.word(7).parse() {
                    Ok(m) => clause.sets.push(RouteMapSet::Metric(m)),
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad metric"),
                },
                ("then", "next-hop") => match p.word(7).parse() {
                    Ok(ip) => clause.sets.push(RouteMapSet::NextHop(ip)),
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad next-hop"),
                },
                ("then", "community") if p.word(7) == "add" => {
                    let cname = p.word(8);
                    match communities.get(cname) {
                        Some(members) => clause.sets.push(RouteMapSet::Community {
                            communities: members.clone(),
                            additive: true,
                        }),
                        None => diags.push(
                            Severity::UndefinedReference,
                            p.no,
                            format!("undefined community {cname}"),
                        ),
                    }
                }
                ("then", "as-path-prepend") => match p.word(7).parse::<Asn>() {
                    Ok(asn) => {
                        let count = p.word(8).parse().unwrap_or(1);
                        clause.sets.push(RouteMapSet::AsPathPrepend { asn, count });
                    }
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad prepend"),
                },
                ("then", "accept") => clause.action = AclAction::Permit,
                ("then", "reject") => clause.action = AclAction::Deny,
                _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
            }
        }
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn parse_port_term(s: &str) -> Option<PortRange> {
    if let Some((a, b)) = s.split_once('-') {
        let a = a.parse().ok()?;
        let b = b.parse().ok()?;
        (a <= b).then(|| PortRange::new(a, b))
    } else {
        s.parse().ok().map(PortRange::single)
    }
}

fn convert_firewall(p: &Path, d: &mut Device, diags: &mut Diagnostics, st: &mut ConvertState) {
    // set firewall filter F term T from|then ...
    if p.word(1) != "filter" || p.word(3) != "term" {
        diags.push(Severity::UnrecognizedLine, p.no, p.text());
        return;
    }
    let fname = p.word(2).to_string();
    let term = p.word(4);
    let seq = term_seq(st.filter_terms.entry(fname.clone()).or_default(), term);
    let acl = d.acls.entry(fname.clone()).or_insert_with(|| {
        let mut a = Acl::new(fname);
        a.src = SourceSpan::at(p.no);
        a
    });
    acl.src.extend_to(p.no);
    let line = if let Some(l) = acl.lines.iter_mut().find(|l| l.seq == seq) {
        l
    } else {
        acl.lines.push(AclLine {
            seq,
            action: AclAction::Permit,
            space: HeaderSpace::any(),
            text: format!("term {term}"),
        });
        acl.lines.sort_by_key(|l| l.seq);
        acl.lines.iter_mut().find(|l| l.seq == seq).expect("just inserted")
    };
    match (p.word(5), p.word(6)) {
        ("from", "source-address") => match p.word(7).parse::<Prefix>() {
            Ok(pr) => line.space.src_ips.push(IpRange::from_prefix(pr)),
            Err(_) => diags.push(Severity::ParseError, p.no, "bad source-address"),
        },
        ("from", "destination-address") => match p.word(7).parse::<Prefix>() {
            Ok(pr) => line.space.dst_ips.push(IpRange::from_prefix(pr)),
            Err(_) => diags.push(Severity::ParseError, p.no, "bad destination-address"),
        },
        ("from", "protocol") => match IpProtocol::parse_keyword(p.word(7)) {
            Some(Some(proto)) => line.space.protocols.push(proto),
            Some(None) => {}
            None => diags.push(Severity::ParseError, p.no, "bad protocol"),
        },
        ("from", "source-port") => match parse_port_term(p.word(7)) {
            Some(r) => line.space.src_ports.push(r),
            None => diags.push(Severity::ParseError, p.no, "bad source-port"),
        },
        ("from", "destination-port") => match parse_port_term(p.word(7)) {
            Some(r) => line.space.dst_ports.push(r),
            None => diags.push(Severity::ParseError, p.no, "bad destination-port"),
        },
        ("from", "tcp-established") => line.space.established = true,
        ("then", "accept") => line.action = AclAction::Permit,
        ("then", "discard") | ("then", "reject") => line.action = AclAction::Deny,
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
    line.text = format!("term {term}: {}", line.space);
}

fn convert_security(p: &Path, d: &mut Device, diags: &mut Diagnostics, st: &mut ConvertState) {
    d.stateful = true;
    match p.word(1) {
        "default-permit" => d.zone_default_permit = true,
        "zones" if p.word(2) == "security-zone" => {
            let zname = p.word(3).to_string();
            let zone = d.zones.entry(zname.clone()).or_insert_with(|| Zone {
                name: zname,
                interfaces: Vec::new(),
            });
            if p.word(4) == "interfaces" {
                zone.interfaces.push(p.word(5).to_string());
            }
        }
        "policies" if p.word(2) == "from-zone" && p.word(4) == "to-zone" && p.word(6) == "filter" => {
            d.zone_policies.push(ZonePolicy {
                from_zone: p.word(3).to_string(),
                to_zone: p.word(5).to_string(),
                acl: p.word(7).to_string(),
                src: SourceSpan::at(p.no),
            });
        }
        "nat" => {
            let kind = match p.word(2) {
                "source" => 0u8,
                "destination" => 1u8,
                _ => {
                    diags.push(Severity::UnrecognizedLine, p.no, p.text());
                    return;
                }
            };
            if p.word(3) != "rule" {
                diags.push(Severity::UnrecognizedLine, p.no, p.text());
                return;
            }
            let rname = p.word(4).to_string();
            let key = (kind, rname);
            if !st.nat.contains_key(&key) {
                st.nat_order.push(key.clone());
            }
            let b = st.nat.entry(key).or_default();
            b.text = format!("nat {} rule {}", p.word(2), p.word(4));
            match (p.word(5), p.word(6)) {
                ("match", "source-address") => match p.word(7).parse::<Prefix>() {
                    Ok(pr) => b.space.src_ips.push(IpRange::from_prefix(pr)),
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad source-address"),
                },
                ("match", "destination-address") => match p.word(7).parse::<Prefix>() {
                    Ok(pr) => b.space.dst_ips.push(IpRange::from_prefix(pr)),
                    Err(_) => diags.push(Severity::ParseError, p.no, "bad destination-address"),
                },
                ("match", "interface") => b.interface = Some(p.word(7).to_string()),
                ("then", "translate") => {
                    let Ok(start) = p.word(7).parse::<Ip>() else {
                        diags.push(Severity::ParseError, p.no, "bad translate address");
                        return;
                    };
                    let mut end = start;
                    let mut i = 8;
                    while i < p.words.len() {
                        match p.word(i) {
                            "to" => {
                                end = p.word(i + 1).parse().unwrap_or(start);
                                i += 2;
                            }
                            "port" => {
                                b.port = p.word(i + 1).parse().ok();
                                i += 2;
                            }
                            _ => {
                                diags.push(Severity::UnrecognizedLine, p.no, p.text());
                                break;
                            }
                        }
                    }
                    b.pool = Some(IpRange { start, end: end.max(start) });
                }
                _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
            }
        }
        _ => diags.push(Severity::UnrecognizedLine, p.no, p.text()),
    }
}

fn finish(d: &mut Device, diags: &mut Diagnostics, st: ConvertState) {
    if let Some(id) = st.router_id {
        if let Some(bgp) = &mut d.bgp {
            bgp.router_id = Some(id);
        }
        if let Some(ospf) = &mut d.ospf {
            ospf.router_id = Some(id);
        }
    }
    if let (Some(asn), Some(bgp)) = (st.local_as, &mut d.bgp) {
        if bgp.asn.0 == 0 {
            bgp.asn = asn;
        }
    }
    for key in st.nat_order {
        let b = &st.nat[&key];
        let Some(pool) = b.pool else {
            diags.push(
                Severity::ParseError,
                0,
                format!("nat rule {} has no translate action", key.1),
            );
            continue;
        };
        d.nat_rules.push(NatRule {
            kind: if key.0 == 0 { NatKind::Source } else { NatKind::Destination },
            interface: b.interface.clone(),
            match_space: b.space.clone(),
            pool,
            port: b.port,
            text: b.text.clone(),
            acl: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
set system host-name j1
set system ntp server 10.255.0.1
set interfaces ge-0/0/0 unit 0 family inet address 10.0.0.1/24
set interfaces ge-0/0/0 unit 0 family inet filter input FW-IN
set interfaces ge-0/0/1 unit 0 family inet address 10.0.1.1/24
set interfaces ge-0/0/1 disable
set interfaces lo0 unit 0 family inet address 2.2.2.2/32
set routing-options router-id 2.2.2.2
set routing-options autonomous-system 65010
set routing-options static route 10.99.0.0/16 next-hop 10.0.0.2
set routing-options static route 10.98.0.0/16 discard
set protocols ospf area 0 interface ge-0/0/0 metric 15
set protocols ospf area 0 interface lo0 passive
set protocols ospf redistribute static
set protocols bgp group ext type external
set protocols bgp group ext export EXP
set protocols bgp group ext neighbor 10.0.0.2 peer-as 65020
set protocols bgp group ext neighbor 10.0.0.2 import IMP
set protocols bgp group int type internal
set protocols bgp group int neighbor 2.2.2.9
set protocols bgp network 10.50.0.0/16
set policy-options prefix-list PL 10.0.0.0/8 orlonger
set policy-options community CUST members 65010:100
set policy-options policy-statement IMP term 1 from prefix-list PL
set policy-options policy-statement IMP term 1 then local-preference 150
set policy-options policy-statement IMP term 1 then community add CUST
set policy-options policy-statement IMP term 1 then accept
set policy-options policy-statement IMP term 99 then reject
set policy-options policy-statement EXP term 1 from protocol static
set policy-options policy-statement EXP term 1 then accept
set firewall filter FW-IN term web from protocol tcp
set firewall filter FW-IN term web from destination-port 80
set firewall filter FW-IN term web then accept
set firewall filter FW-IN term deny-rest then discard
set security zones security-zone trust interfaces ge-0/0/0
set security zones security-zone untrust interfaces ge-0/0/1
set security policies from-zone untrust to-zone trust filter FW-IN
set security nat source rule snat match source-address 10.0.0.0/8
set security nat source rule snat match interface ge-0/0/1
set security nat source rule snat then translate 203.0.113.1 to 203.0.113.4
";

    fn parsed() -> (Device, Diagnostics) {
        parse("j1", SAMPLE)
    }

    #[test]
    fn sample_parses_cleanly() {
        let (_, diags) = parsed();
        if let Some(item) = diags.items().first() {
            panic!("unexpected diagnostic: {item}");
        }
    }

    #[test]
    fn basic_structure() {
        let (d, _) = parsed();
        assert_eq!(d.name, "j1");
        assert_eq!(d.interfaces.len(), 3);
        let ge0 = &d.interfaces["ge-0/0/0"];
        assert_eq!(ge0.address, Some(("10.0.0.1".parse().unwrap(), 24)));
        assert_eq!(ge0.acl_in.as_deref(), Some("FW-IN"));
        assert_eq!(ge0.ospf_cost, Some(15));
        assert_eq!(ge0.ospf_area, Some(0));
        assert!(!d.interfaces["ge-0/0/1"].enabled);
        assert!(d.interfaces["lo0"].ospf_passive);
    }

    #[test]
    fn static_routes_with_junos_preference() {
        let (d, _) = parsed();
        assert_eq!(d.static_routes.len(), 2);
        assert_eq!(d.static_routes[0].admin_distance, 5);
        assert_eq!(d.static_routes[1].next_hop, NextHop::Discard);
    }

    #[test]
    fn bgp_groups_resolve() {
        let (d, _) = parsed();
        let bgp = d.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn.0, 65010);
        assert_eq!(bgp.neighbors.len(), 2);
        let ext = bgp.neighbors.iter().find(|n| n.remote_as.0 == 65020).unwrap();
        assert_eq!(ext.import_policy.as_deref(), Some("IMP"));
        assert_eq!(ext.export_policy.as_deref(), Some("EXP"), "group default applies");
        let int = bgp
            .neighbors
            .iter()
            .find(|n| n.peer_ip == "2.2.2.9".parse().unwrap())
            .unwrap();
        assert_eq!(int.remote_as.0, 65010, "internal group peers at local AS");
        assert_eq!(bgp.networks, vec!["10.50.0.0/16".parse().unwrap()]);
    }

    #[test]
    fn policy_statement_terms_in_order() {
        let (d, _) = parsed();
        let imp = &d.route_maps["IMP"];
        assert_eq!(imp.clauses.len(), 2);
        assert_eq!(imp.clauses[0].action, AclAction::Permit);
        assert_eq!(imp.clauses[0].matches.len(), 1);
        assert_eq!(imp.clauses[0].sets.len(), 2);
        assert_eq!(imp.clauses[1].action, AclAction::Deny);
        // prefix-list orlonger → le 32
        let pl = &d.prefix_lists["PL"];
        assert_eq!(pl.entries[0].le, Some(32));
    }

    #[test]
    fn firewall_filter_to_acl() {
        let (d, _) = parsed();
        let acl = &d.acls["FW-IN"];
        assert_eq!(acl.lines.len(), 2);
        assert_eq!(acl.lines[0].action, AclAction::Permit);
        assert_eq!(acl.lines[0].space.dst_ports, vec![PortRange::single(80)]);
        assert_eq!(acl.lines[1].action, AclAction::Deny);
        assert!(acl.lines[1].space.is_unconstrained());
    }

    #[test]
    fn zones_and_policies() {
        let (d, _) = parsed();
        assert!(d.stateful);
        assert_eq!(d.zones.len(), 2);
        assert_eq!(d.zones["trust"].interfaces, vec!["ge-0/0/0".to_string()]);
        assert_eq!(d.zone_policies.len(), 1);
        assert_eq!(d.zone_policies[0].from_zone, "untrust");
        assert_eq!(d.zone_acl("untrust", "trust").map(|a| a.lines.len()), Some(2));
    }

    #[test]
    fn nat_rule_assembled_across_lines() {
        let (d, _) = parsed();
        assert_eq!(d.nat_rules.len(), 1);
        let r = &d.nat_rules[0];
        assert_eq!(r.kind, NatKind::Source);
        assert_eq!(r.interface.as_deref(), Some("ge-0/0/1"));
        assert_eq!(r.pool.size(), 4);
    }

    #[test]
    fn undefined_community_reference() {
        let text = "set policy-options policy-statement P term 1 then community add NOPE\n";
        let (_, diags) = parse("j1", text);
        assert_eq!(diags.count(Severity::UndefinedReference), 1);
    }

    #[test]
    fn non_set_lines_flagged() {
        let (_, diags) = parse("j1", "delete interfaces ge-0/0/0\n# comment ok\n");
        assert_eq!(diags.count(Severity::UnrecognizedLine), 1);
    }
}
