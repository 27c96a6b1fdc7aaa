//! The `ios` dialect: a Cisco-IOS-flavoured block configuration language.
//!
//! This frontend follows the paper's Stage-1 architecture: the text is
//! first parsed into a dialect AST (sections of lines, mirroring IOS's
//! indentation structure), and the AST is then converted into the
//! vendor-independent model. Unrecognized statements become diagnostics —
//! never errors — so parse coverage is measurable (Lesson 3).
//!
//! ## Grammar (the subset we model)
//!
//! ```text
//! hostname NAME
//! ntp server A.B.C.D
//! ip name-server A.B.C.D
//! interface NAME
//!   description TEXT...
//!   ip address A.B.C.D MASK | A.B.C.D/LEN [secondary]
//!   ip access-group ACL in|out
//!   ip ospf cost N | ip ospf area N | ip ospf passive
//!   zone-member security ZONE
//!   mtu N
//!   shutdown
//! ip route PREFIX (MASK NH | NH) [DISTANCE] | ip route PREFIX null0
//! router ospf N
//!   router-id A.B.C.D
//!   auto-cost reference-bandwidth MBPS
//!   redistribute connected|static
//! router bgp ASN
//!   bgp router-id A.B.C.D
//!   network PREFIX [mask MASK]
//!   redistribute connected|static|ospf
//!   neighbor IP remote-as ASN
//!   neighbor IP route-map NAME in|out
//!   neighbor IP next-hop-self | send-community | description TEXT
//! ip prefix-list NAME seq N permit|deny PREFIX [ge N] [le N]
//! ip community-list standard NAME permit|deny A:B
//! route-map NAME permit|deny SEQ
//!   match ip address prefix-list NAME...
//!   match community NAME...
//!   match as-path regex REGEX
//!   match tag N | match metric N
//!   set local-preference N | set metric N | set tag N
//!   set community A:B... [additive]
//!   set as-path prepend ASN...
//!   set ip next-hop A.B.C.D
//! ip access-list extended NAME
//!   [SEQ] permit|deny PROTO SRC [PORTSPEC] DST [PORTSPEC] [established] [icmp-type N]
//! ip nat pool NAME FIRST LAST
//! ip nat source list ACL pool POOL [interface IFACE] [port N]
//! ip nat source static LOCAL GLOBAL [interface IFACE]
//! ip nat destination static GLOBAL LOCAL [port N]
//! zone security NAME
//! zone-pair security FROM TO acl ACL
//! zone default-permit
//! ```
//!
//! Address forms in ACLs: `any`, `host IP`, `IP WILDCARD` (contiguous
//! wildcard masks only), `PREFIX/LEN`. Port specs: `eq N`, `range A B`,
//! `gt N`, `lt N`.
//!
//! The model holds references by name: an access-group, a zone-pair and a
//! NAT list may name an ACL defined later in the file, and an ACL written
//! in several blocks is one ACL. `Device::zone_acl` resolves a zone-pair's
//! ACL; lint reports one that is undefined.

use crate::diag::{Diagnostics, Severity};
use crate::vi::*;
use batnet_net::{Community, HeaderSpace, Ip, IpProtocol, IpRange, PortRange, Prefix, TcpFlags};

/// One source line, tokenized.
#[derive(Clone, Debug)]
pub struct Line {
    /// 1-based line number.
    pub no: usize,
    /// Whitespace-split words.
    pub words: Vec<String>,
}

impl Line {
    fn word(&self, i: usize) -> &str {
        self.words.get(i).map(String::as_str).unwrap_or("")
    }
    fn text(&self) -> String {
        self.words.join(" ")
    }
}

/// A top-level statement plus its indented children — the dialect AST.
#[derive(Clone, Debug)]
pub struct Section {
    /// The header line (`interface Ethernet1`, `router bgp 65001`, …).
    pub header: Line,
    /// Indented body lines.
    pub body: Vec<Line>,
}

/// Parses raw text into sections.
pub fn parse_ast(text: &str) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let no = idx + 1;
        let trimmed = raw.trim_end();
        if trimmed.trim().is_empty() || trimmed.trim_start().starts_with('!') {
            continue;
        }
        let indented = trimmed.starts_with(' ') || trimmed.starts_with('\t');
        let words: Vec<String> = trimmed.split_whitespace().map(str::to_string).collect();
        let line = Line { no, words };
        if indented {
            if let Some(last) = sections.last_mut() {
                last.body.push(line);
            } else {
                // Indented line with no open section: treat as top-level.
                sections.push(Section { header: line, body: Vec::new() });
            }
        } else {
            sections.push(Section { header: line, body: Vec::new() });
        }
    }
    sections
}

/// Parses an `ios`-dialect config into the VI model plus diagnostics.
pub fn parse(name: &str, text: &str) -> (Device, Diagnostics) {
    let mut device = Device::new(name);
    let mut diags = Diagnostics::new();
    let sections = parse_ast(text);
    // NAT pools are referenced by later statements; collect them first.
    let mut pools: std::collections::BTreeMap<String, IpRange> = std::collections::BTreeMap::new();
    for s in &sections {
        let w = &s.header.words;
        if w.len() >= 5 && w[0] == "ip" && w[1] == "nat" && w[2] == "pool" {
            match (w[4].parse::<Ip>(), s.header.word(5).parse::<Ip>()) {
                (Ok(start), Ok(end)) if start <= end => {
                    pools.insert(w[3].clone(), IpRange { start, end });
                }
                _ => diags.push(
                    Severity::ParseError,
                    s.header.no,
                    format!("bad nat pool: {}", s.header.text()),
                ),
            }
        }
    }
    // The statement line of each NAT rule, for what `expand_nat_lists`
    // reports: every rule a section adds is that section's statement.
    let mut nat_lines = Vec::new();
    for s in &sections {
        convert_section(s, &mut device, &mut diags, &pools);
        nat_lines.resize(device.nat_rules.len(), s.header.no);
    }
    expand_nat_lists(&mut device, &nat_lines, &mut diags);
    device.lint_suppressions = crate::suppress::scan_suppressions(text);
    (device, diags)
}

fn convert_section(
    s: &Section,
    d: &mut Device,
    diags: &mut Diagnostics,
    pools: &std::collections::BTreeMap<String, IpRange>,
) {
    let h = &s.header;
    match h.word(0) {
        "hostname" => d.name = h.word(1).to_string(),
        "ntp" if h.word(1) == "server" => match h.word(2).parse() {
            Ok(ip) => d.ntp_servers.push(ip),
            Err(_) => diags.push(Severity::ParseError, h.no, "bad ntp server"),
        },
        "ip" => convert_ip_statement(s, d, diags, pools),
        "interface" => convert_interface(s, d, diags),
        "router" => match h.word(1) {
            "ospf" => convert_ospf(s, d, diags),
            "bgp" => convert_bgp(s, d, diags),
            other => diags.push(
                Severity::UnrecognizedLine,
                h.no,
                format!("unsupported routing process: {other}"),
            ),
        },
        "route-map" => convert_route_map(s, d, diags),
        "zone" if h.word(1) == "security" => {
            let name = h.word(2).to_string();
            d.stateful = true;
            d.zones.entry(name.clone()).or_insert_with(|| Zone {
                name,
                interfaces: Vec::new(),
            });
        }
        "zone" if h.word(1) == "default-permit" => d.zone_default_permit = true,
        "zone-pair" if h.word(1) == "security" && h.word(4) == "acl" => {
            // zone-pair security FROM TO acl ACL
            d.zone_policies.push(ZonePolicy {
                from_zone: h.word(2).to_string(),
                to_zone: h.word(3).to_string(),
                acl: h.word(5).to_string(),
                src: SourceSpan::at(h.no),
            });
        }
        _ => diags.push(Severity::UnrecognizedLine, h.no, h.text()),
    }
}

fn convert_ip_statement(
    s: &Section,
    d: &mut Device,
    diags: &mut Diagnostics,
    pools: &std::collections::BTreeMap<String, IpRange>,
) {
    let h = &s.header;
    match h.word(1) {
        "name-server" => match h.word(2).parse() {
            Ok(ip) => d.dns_servers.push(ip),
            Err(_) => diags.push(Severity::ParseError, h.no, "bad name-server"),
        },
        "route" => convert_static_route(h, d, diags),
        "prefix-list" => convert_prefix_list(h, d, diags),
        "community-list" => convert_community_list(h, d, diags),
        "access-list" => convert_acl(s, d, diags),
        "nat" => convert_nat(h, d, diags, pools),
        _ => diags.push(Severity::UnrecognizedLine, h.no, h.text()),
    }
}

/// Parses `PREFIX/LEN` or `ADDR MASK` starting at word `i`; returns the
/// prefix and the index of the next unconsumed word.
fn parse_prefix_at(line: &Line, i: usize) -> Option<(Prefix, usize)> {
    let w = line.word(i);
    if let Ok(p) = w.parse::<Prefix>() {
        return Some((p, i + 1));
    }
    let ip: Ip = w.parse().ok()?;
    let mask: Ip = line.word(i + 1).parse().ok()?;
    let len = mask_to_len(mask)?;
    Some((Prefix::new(ip, len), i + 2))
}

/// Converts a contiguous netmask (255.255.255.0) to a prefix length.
fn mask_to_len(mask: Ip) -> Option<u8> {
    let m = mask.0;
    if m == 0 {
        return Some(0);
    }
    let len = m.leading_ones();
    // Contiguous check: all ones must be leading.
    if len < 32 && m << len != 0 {
        return None;
    }
    Some(len as u8)
}

/// Converts a contiguous *wildcard* mask (0.0.0.255) to a prefix length.
fn wildcard_to_len(wild: Ip) -> Option<u8> {
    mask_to_len(Ip(!wild.0))
}

fn convert_static_route(h: &Line, d: &mut Device, diags: &mut Diagnostics) {
    // ip route PREFIX[/LEN | MASK] (NEXTHOP | null0) [DISTANCE]
    let Some((prefix, mut i)) = parse_prefix_at(h, 2) else {
        diags.push(Severity::ParseError, h.no, format!("bad static route: {}", h.text()));
        return;
    };
    let nh_word = h.word(i);
    let next_hop = if nh_word.eq_ignore_ascii_case("null0") {
        i += 1;
        NextHop::Discard
    } else {
        match nh_word.parse::<Ip>() {
            Ok(ip) => {
                i += 1;
                NextHop::Ip(ip)
            }
            Err(_) => {
                diags.push(Severity::ParseError, h.no, format!("bad next hop: {}", h.text()));
                return;
            }
        }
    };
    let admin_distance = h.word(i).parse().unwrap_or(1);
    d.static_routes.push(StaticRoute {
        prefix,
        next_hop,
        admin_distance,
    });
}

fn convert_interface(s: &Section, d: &mut Device, diags: &mut Diagnostics) {
    let name = s.header.word(1).to_string();
    if name.is_empty() {
        diags.push(Severity::ParseError, s.header.no, "interface without a name");
        return;
    }
    let mut iface = d
        .interfaces
        .remove(&name)
        .unwrap_or_else(|| Interface::new(name.clone()));
    for l in &s.body {
        match (l.word(0), l.word(1)) {
            ("description", _) => iface.description = Some(l.words[1..].join(" ")),
            ("shutdown", _) => iface.enabled = false,
            ("mtu", m) => match m.parse() {
                Ok(v) => iface.mtu = v,
                Err(_) => diags.push(Severity::ParseError, l.no, "bad mtu"),
            },
            ("ip", "address") => match parse_prefix_at(l, 2) {
                Some((_, next)) => {
                    // parse_prefix_at canonicalizes; we need the raw IP too.
                    let ip: Ip = l
                        .word(2)
                        .split('/')
                        .next()
                        .unwrap_or("")
                        .parse()
                        .unwrap_or(Ip::ZERO);
                    let len = {
                        let w = l.word(2);
                        if let Some((_, len)) = w.split_once('/') {
                            len.parse().unwrap_or(32)
                        } else {
                            l.word(3).parse::<Ip>().ok().and_then(mask_to_len).unwrap_or(32)
                        }
                    };
                    if l.word(next) == "secondary" {
                        iface.secondary_addresses.push((ip, len));
                    } else {
                        iface.address = Some((ip, len));
                    }
                }
                None => diags.push(Severity::ParseError, l.no, format!("bad ip address: {}", l.text())),
            },
            ("ip", "access-group") => {
                let acl = l.word(2).to_string();
                match l.word(3) {
                    "in" => iface.acl_in = Some(acl),
                    "out" => iface.acl_out = Some(acl),
                    _ => diags.push(Severity::ParseError, l.no, "access-group needs in|out"),
                }
            }
            ("ip", "ospf") => match l.word(2) {
                "cost" => iface.ospf_cost = l.word(3).parse().ok(),
                "area" => iface.ospf_area = l.word(3).parse().ok(),
                "passive" => iface.ospf_passive = true,
                _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
            },
            ("zone-member", "security") => iface.zone = Some(l.word(2).to_string()),
            _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
        }
    }
    d.interfaces.insert(name, iface);
}

fn convert_ospf(s: &Section, d: &mut Device, diags: &mut Diagnostics) {
    let mut proc = d.ospf.take().unwrap_or(OspfProcess {
        router_id: None,
        reference_bandwidth_mbps: 100_000,
        redistribute_connected: false,
        redistribute_static: false,
        default_cost: 1,
    });
    for l in &s.body {
        match (l.word(0), l.word(1)) {
            ("router-id", _) => proc.router_id = l.word(1).parse().ok(),
            ("auto-cost", "reference-bandwidth") => {
                proc.reference_bandwidth_mbps = l.word(2).parse().unwrap_or(100_000)
            }
            ("redistribute", "connected") => proc.redistribute_connected = true,
            ("redistribute", "static") => proc.redistribute_static = true,
            _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
        }
    }
    d.ospf = Some(proc);
}

fn convert_bgp(s: &Section, d: &mut Device, diags: &mut Diagnostics) {
    let asn = match s.header.word(2).parse() {
        Ok(a) => a,
        Err(_) => {
            diags.push(Severity::ParseError, s.header.no, "router bgp needs an ASN");
            return;
        }
    };
    let mut proc = d.bgp.take().unwrap_or_else(|| BgpProcess::new(asn));
    proc.asn = asn;
    for l in &s.body {
        match (l.word(0), l.word(1)) {
            ("bgp", "router-id") => proc.router_id = l.word(2).parse().ok(),
            ("network", _) => {
                let p = if l.word(2) == "mask" {
                    l.word(1)
                        .parse::<Ip>()
                        .ok()
                        .zip(l.word(3).parse::<Ip>().ok().and_then(mask_to_len))
                        .map(|(ip, len)| Prefix::new(ip, len))
                } else {
                    l.word(1).parse().ok()
                };
                match p {
                    Some(p) => proc.networks.push(p),
                    None => diags.push(Severity::ParseError, l.no, format!("bad network: {}", l.text())),
                }
            }
            ("redistribute", "connected") => proc.redistribute_connected = true,
            ("redistribute", "static") => proc.redistribute_static = true,
            ("redistribute", "ospf") => proc.redistribute_ospf = true,
            ("neighbor", _) => convert_bgp_neighbor(l, &mut proc, diags),
            _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
        }
    }
    d.bgp = Some(proc);
}

fn convert_bgp_neighbor(l: &Line, proc: &mut BgpProcess, diags: &mut Diagnostics) {
    let Ok(peer) = l.word(1).parse::<Ip>() else {
        diags.push(Severity::ParseError, l.no, format!("bad neighbor address: {}", l.text()));
        return;
    };
    // `remote-as` creates the neighbor; other statements modify it.
    if l.word(2) == "remote-as" {
        match l.word(3).parse() {
            Ok(asn) => {
                if let Some(n) = proc.neighbors.iter_mut().find(|n| n.peer_ip == peer) {
                    n.remote_as = asn;
                    n.src.extend_to(l.no);
                } else {
                    let mut nb = BgpNeighbor::new(peer, asn);
                    nb.src = SourceSpan::at(l.no);
                    proc.neighbors.push(nb);
                }
            }
            Err(_) => diags.push(Severity::ParseError, l.no, "bad remote-as"),
        }
        return;
    }
    let Some(n) = proc.neighbors.iter_mut().find(|n| n.peer_ip == peer) else {
        diags.push(
            Severity::ParseError,
            l.no,
            format!("neighbor {peer} configured before remote-as"),
        );
        return;
    };
    // The stanza span grows to cover every statement about this peer.
    n.src.extend_to(l.no);
    match l.word(2) {
        "route-map" => {
            let name = l.word(3).to_string();
            match l.word(4) {
                "in" => n.import_policy = Some(name),
                "out" => n.export_policy = Some(name),
                _ => diags.push(Severity::ParseError, l.no, "route-map needs in|out"),
            }
        }
        "next-hop-self" => n.next_hop_self = true,
        "send-community" => n.send_community = true,
        "description" => n.description = Some(l.words[3..].join(" ")),
        _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
    }
}

fn convert_prefix_list(h: &Line, d: &mut Device, diags: &mut Diagnostics) {
    // ip prefix-list NAME seq N permit|deny PREFIX [ge N] [le N]
    let name = h.word(2).to_string();
    let mut i = 3;
    let seq = if h.word(i) == "seq" {
        let s = h.word(i + 1).parse().unwrap_or(0);
        i += 2;
        s
    } else {
        (d.prefix_lists.get(&name).map(|p| p.entries.len() as u32).unwrap_or(0) + 1) * 5
    };
    let action = match h.word(i) {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, h.no, format!("bad prefix-list: {}", h.text()));
            return;
        }
    };
    i += 1;
    let Ok(prefix) = h.word(i).parse::<Prefix>() else {
        diags.push(Severity::ParseError, h.no, format!("bad prefix: {}", h.text()));
        return;
    };
    i += 1;
    let mut ge = None;
    let mut le = None;
    while i < h.words.len() {
        match h.word(i) {
            "ge" => {
                ge = h.word(i + 1).parse().ok();
                i += 2;
            }
            "le" => {
                le = h.word(i + 1).parse().ok();
                i += 2;
            }
            _ => {
                diags.push(Severity::UnrecognizedLine, h.no, h.text());
                break;
            }
        }
    }
    d.prefix_lists
        .entry(name.clone())
        .or_insert_with(|| PrefixList {
            name,
            entries: Vec::new(),
        })
        .entries
        .push(PrefixListEntry {
            seq,
            action,
            prefix,
            ge,
            le,
        });
}

fn convert_community_list(h: &Line, d: &mut Device, diags: &mut Diagnostics) {
    // ip community-list standard NAME permit|deny A:B
    if h.word(2) != "standard" {
        diags.push(Severity::UnrecognizedLine, h.no, h.text());
        return;
    }
    let name = h.word(3).to_string();
    let action = match h.word(4) {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, h.no, h.text());
            return;
        }
    };
    let Ok(community) = h.word(5).parse::<Community>() else {
        diags.push(Severity::ParseError, h.no, format!("bad community: {}", h.text()));
        return;
    };
    d.community_lists
        .entry(name.clone())
        .or_insert_with(|| CommunityList {
            name,
            entries: Vec::new(),
        })
        .entries
        .push(CommunityListEntry { action, community });
}

fn convert_route_map(s: &Section, d: &mut Device, diags: &mut Diagnostics) {
    // route-map NAME permit|deny SEQ
    let name = s.header.word(1).to_string();
    let action = match s.header.word(2) {
        "permit" => AclAction::Permit,
        "deny" => AclAction::Deny,
        _ => {
            diags.push(Severity::ParseError, s.header.no, "route-map needs permit|deny");
            return;
        }
    };
    let seq = s.header.word(3).parse().unwrap_or(10);
    let mut clause = RouteMapClause {
        seq,
        action,
        matches: Vec::new(),
        sets: Vec::new(),
        src: SourceSpan::range(s.header.no, s.body.last().map_or(s.header.no, |l| l.no)),
    };
    for l in &s.body {
        match (l.word(0), l.word(1)) {
            ("match", "ip") if l.word(2) == "address" && l.word(3) == "prefix-list" => {
                clause
                    .matches
                    .push(RouteMapMatch::PrefixLists(l.words[4..].to_vec()));
            }
            ("match", "community") => {
                clause
                    .matches
                    .push(RouteMapMatch::CommunityLists(l.words[2..].to_vec()));
            }
            ("match", "as-path") if l.word(2) == "regex" => {
                clause
                    .matches
                    .push(RouteMapMatch::AsPathRegex(l.word(3).to_string()));
            }
            ("match", "tag") => match l.word(2).parse() {
                Ok(t) => clause.matches.push(RouteMapMatch::Tag(t)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad tag"),
            },
            ("match", "metric") => match l.word(2).parse() {
                Ok(m) => clause.matches.push(RouteMapMatch::Metric(m)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad metric"),
            },
            ("set", "local-preference") => match l.word(2).parse() {
                Ok(lp) => clause.sets.push(RouteMapSet::LocalPref(lp)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad local-preference"),
            },
            ("set", "metric") => match l.word(2).parse() {
                Ok(m) => clause.sets.push(RouteMapSet::Metric(m)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad metric"),
            },
            ("set", "tag") => match l.word(2).parse() {
                Ok(t) => clause.sets.push(RouteMapSet::Tag(t)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad tag"),
            },
            ("set", "community") => {
                let mut communities = Vec::new();
                let mut additive = false;
                for w in &l.words[2..] {
                    if w == "additive" {
                        additive = true;
                    } else if let Ok(c) = w.parse() {
                        communities.push(c);
                    } else {
                        diags.push(Severity::ParseError, l.no, format!("bad community {w}"));
                    }
                }
                clause.sets.push(RouteMapSet::Community { communities, additive });
            }
            ("set", "as-path") if l.word(2) == "prepend" => {
                // `set as-path prepend 65001 65001` — count repetitions.
                let asns: Vec<batnet_net::Asn> =
                    l.words[3..].iter().filter_map(|w| w.parse().ok()).collect();
                if let Some(&first) = asns.first() {
                    clause.sets.push(RouteMapSet::AsPathPrepend {
                        asn: first,
                        count: asns.len() as u32,
                    });
                } else {
                    diags.push(Severity::ParseError, l.no, "prepend needs an ASN");
                }
            }
            ("set", "ip") if l.word(2) == "next-hop" => match l.word(3).parse() {
                Ok(ip) => clause.sets.push(RouteMapSet::NextHop(ip)),
                Err(_) => diags.push(Severity::ParseError, l.no, "bad next-hop"),
            },
            _ => diags.push(Severity::UnrecognizedLine, l.no, l.text()),
        }
    }
    let rm = d
        .route_maps
        .entry(name.clone())
        .or_insert_with(|| RouteMap {
            name,
            clauses: Vec::new(),
            src: SourceSpan::at(s.header.no),
        });
    rm.src.extend_to(s.body.last().map_or(s.header.no, |l| l.no));
    rm.clauses.push(clause);
    // Keep clauses ordered by sequence number regardless of file order.
    rm.clauses.sort_by_key(|c| c.seq);
}

/// Parses one ACL address term starting at `i`; returns ranges (empty =
/// any) and next index.
fn parse_acl_addr(l: &Line, i: usize) -> Option<(Vec<IpRange>, usize)> {
    match l.word(i) {
        "any" => Some((Vec::new(), i + 1)),
        "host" => {
            let ip: Ip = l.word(i + 1).parse().ok()?;
            Some((vec![IpRange::single(ip)], i + 2))
        }
        w => {
            if let Ok(p) = w.parse::<Prefix>() {
                return Some((vec![IpRange::from_prefix(p)], i + 1));
            }
            let ip: Ip = w.parse().ok()?;
            // Next word may be a wildcard mask; if absent/invalid treat as host.
            if let Some(len) = l.word(i + 1).parse::<Ip>().ok().and_then(wildcard_to_len) {
                Some((vec![IpRange::from_prefix(Prefix::new(ip, len))], i + 2))
            } else {
                Some((vec![IpRange::single(ip)], i + 1))
            }
        }
    }
}

/// Parses an optional port spec at `i`; returns ranges (empty = any) and
/// next index.
fn parse_port_spec(l: &Line, i: usize) -> (Vec<PortRange>, usize) {
    match l.word(i) {
        "eq" => {
            if let Ok(p) = l.word(i + 1).parse() {
                (vec![PortRange::single(p)], i + 2)
            } else {
                (Vec::new(), i)
            }
        }
        "range" => match (l.word(i + 1).parse::<u16>(), l.word(i + 2).parse::<u16>()) {
            (Ok(a), Ok(b)) if a <= b => (vec![PortRange::new(a, b)], i + 3),
            _ => (Vec::new(), i),
        },
        "gt" => {
            if let Ok(p) = l.word(i + 1).parse::<u16>() {
                (vec![PortRange::new(p.saturating_add(1), u16::MAX)], i + 2)
            } else {
                (Vec::new(), i)
            }
        }
        "lt" => {
            if let Ok(p) = l.word(i + 1).parse::<u16>() {
                (vec![PortRange::new(0, p.saturating_sub(1))], i + 2)
            } else {
                (Vec::new(), i)
            }
        }
        _ => (Vec::new(), i),
    }
}

fn convert_acl(s: &Section, d: &mut Device, diags: &mut Diagnostics) {
    // ip access-list extended NAME
    if s.header.word(2) != "extended" {
        diags.push(Severity::UnrecognizedLine, s.header.no, s.header.text());
        return;
    }
    let name = s.header.word(3).to_string();
    let mut acl = d.acls.remove(&name).unwrap_or_else(|| Acl::new(name.clone()));
    if !acl.src.is_known() {
        acl.src = SourceSpan::at(s.header.no);
    }
    // The block span covers the header plus every body line (re-opened
    // ACLs keep their original start and grow the end).
    acl.src.extend_to(s.body.last().map_or(s.header.no, |l| l.no));
    for l in &s.body {
        let mut i = 0;
        let seq = if let Ok(n) = l.word(0).parse::<u32>() {
            i = 1;
            n
        } else {
            (acl.lines.len() as u32 + 1) * 10
        };
        let action = match l.word(i) {
            "permit" => AclAction::Permit,
            "deny" => AclAction::Deny,
            _ => {
                diags.push(Severity::ParseError, l.no, format!("bad acl line: {}", l.text()));
                continue;
            }
        };
        i += 1;
        let Some(proto) = IpProtocol::parse_keyword(l.word(i)) else {
            diags.push(Severity::ParseError, l.no, format!("bad protocol: {}", l.text()));
            continue;
        };
        i += 1;
        let Some((src_ips, next)) = parse_acl_addr(l, i) else {
            diags.push(Severity::ParseError, l.no, format!("bad source: {}", l.text()));
            continue;
        };
        i = next;
        let (src_ports, next) = parse_port_spec(l, i);
        i = next;
        let Some((dst_ips, next)) = parse_acl_addr(l, i) else {
            diags.push(Severity::ParseError, l.no, format!("bad destination: {}", l.text()));
            continue;
        };
        i = next;
        let (dst_ports, next) = parse_port_spec(l, i);
        i = next;
        let mut space = HeaderSpace {
            src_ips,
            dst_ips,
            src_ports,
            dst_ports,
            protocols: proto.into_iter().collect(),
            ..HeaderSpace::default()
        };
        while i < l.words.len() {
            match l.word(i) {
                "established" => {
                    space.established = true;
                    i += 1;
                }
                "icmp-type" => {
                    if let Ok(t) = l.word(i + 1).parse() {
                        space.icmp_types.push(t);
                    }
                    i += 2;
                }
                "syn" => {
                    space.tcp_flags_set = Some(TcpFlags::SYN);
                    i += 1;
                }
                other => {
                    diags.push(Severity::UnrecognizedLine, l.no, format!("acl keyword {other}"));
                    i += 1;
                }
            }
        }
        acl.lines.push(AclLine {
            seq,
            action,
            space,
            text: l.text(),
        });
    }
    d.acls.insert(name, acl);
}

fn convert_nat(
    h: &Line,
    d: &mut Device,
    diags: &mut Diagnostics,
    pools: &std::collections::BTreeMap<String, IpRange>,
) {
    match (h.word(2), h.word(3)) {
        ("pool", _) => {} // collected in the pre-pass
        ("source", "static") => {
            // ip nat source static LOCAL GLOBAL [interface IFACE]
            let (Ok(local), Ok(global)) = (h.word(4).parse::<Ip>(), h.word(5).parse::<Ip>()) else {
                diags.push(Severity::ParseError, h.no, format!("bad nat: {}", h.text()));
                return;
            };
            let interface = (h.word(6) == "interface").then(|| h.word(7).to_string());
            d.nat_rules.push(NatRule {
                kind: NatKind::Source,
                interface,
                match_space: HeaderSpace::any().src_prefix(Prefix::host(local)),
                pool: IpRange::single(global),
                port: None,
                text: h.text(),
                acl: None,
            });
        }
        ("destination", "static") => {
            // ip nat destination static GLOBAL LOCAL [port N]
            let (Ok(global), Ok(local)) = (h.word(4).parse::<Ip>(), h.word(5).parse::<Ip>()) else {
                diags.push(Severity::ParseError, h.no, format!("bad nat: {}", h.text()));
                return;
            };
            let port = (h.word(6) == "port").then(|| h.word(7).parse().ok()).flatten();
            d.nat_rules.push(NatRule {
                kind: NatKind::Destination,
                interface: None,
                match_space: HeaderSpace::any().dst_prefix(Prefix::host(global)),
                pool: IpRange::single(local),
                port,
                text: h.text(),
                acl: None,
            });
        }
        ("source", "list") => {
            // ip nat source list ACL pool POOL [interface IFACE] [port N]
            let acl_name = h.word(4).to_string();
            if h.word(5) != "pool" {
                diags.push(Severity::ParseError, h.no, format!("bad nat: {}", h.text()));
                return;
            }
            let Some(&pool) = pools.get(h.word(6)) else {
                diags.push(
                    Severity::UndefinedReference,
                    h.no,
                    format!("nat references undefined pool {}", h.word(6)),
                );
                return;
            };
            let mut i = 7;
            let mut interface = None;
            let mut port = None;
            while i < h.words.len() {
                match h.word(i) {
                    "interface" => {
                        interface = Some(h.word(i + 1).to_string());
                        i += 2;
                    }
                    "port" => {
                        port = h.word(i + 1).parse().ok();
                        i += 2;
                    }
                    _ => {
                        diags.push(Severity::UnrecognizedLine, h.no, h.text());
                        break;
                    }
                }
            }
            // `expand_nat_lists` resolves the ACL into per-line rules after
            // all ACLs are parsed.
            d.nat_rules.push(NatRule {
                kind: NatKind::Source,
                interface,
                match_space: HeaderSpace::any(),
                pool,
                port,
                text: h.text(),
                acl: Some(acl_name),
            });
        }
        _ => diags.push(Severity::UnrecognizedLine, h.no, h.text()),
    }
}

/// Resolves `ip nat source list ACL …` rules into one rule per permit line
/// of the referenced ACL (so NAT match spaces stay single header spaces).
/// `lines[i]` is the statement line of rule `i`, where an undefined ACL
/// is reported.
fn expand_nat_lists(d: &mut Device, lines: &[usize], diags: &mut Diagnostics) {
    let mut out = Vec::with_capacity(d.nat_rules.len());
    for (rule, &line) in std::mem::take(&mut d.nat_rules).into_iter().zip(lines) {
        let Some(acl_name) = &rule.acl else {
            out.push(rule);
            continue;
        };
        match d.acls.get(acl_name) {
            Some(acl) => {
                for line in acl.lines.iter().filter(|l| l.action == AclAction::Permit) {
                    out.push(NatRule {
                        match_space: line.space.clone(),
                        text: format!("{} [{}]", rule.text, line.text),
                        ..rule.clone()
                    });
                }
            }
            None => diags.push(
                Severity::UndefinedReference,
                line,
                format!("nat references undefined acl {acl_name}"),
            ),
        }
    }
    d.nat_rules = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
hostname r1
ntp server 10.255.0.1
ip name-server 10.255.0.53
!
interface Ethernet1
 description to r2
 ip address 10.0.0.1 255.255.255.0
 ip access-group ACLIN in
 ip ospf cost 10
 ip ospf area 0
interface Ethernet2
 ip address 10.0.1.1/24
 shutdown
interface Loopback0
 ip address 1.1.1.1/32
!
ip route 10.99.0.0 255.255.0.0 10.0.0.2
ip route 0.0.0.0/0 null0 250
!
router ospf 1
 router-id 1.1.1.1
 redistribute connected
router bgp 65001
 bgp router-id 1.1.1.1
 network 10.5.0.0 mask 255.255.0.0
 neighbor 10.0.0.2 remote-as 65002
 neighbor 10.0.0.2 route-map RM-IN in
 neighbor 10.0.0.2 route-map RM-OUT out
 neighbor 10.0.0.2 next-hop-self
!
ip prefix-list PL seq 5 permit 10.0.0.0/8 le 24
ip community-list standard CL permit 65001:100
!
route-map RM-IN permit 10
 match ip address prefix-list PL
 set local-preference 200
route-map RM-IN deny 20
route-map RM-OUT permit 10
 set community 65001:100 additive
!
ip access-list extended ACLIN
 10 permit tcp 10.0.0.0 0.0.0.255 any eq 80
 20 permit tcp any host 10.0.5.5 range 8000 8100
 30 permit tcp any any established
 40 deny ip any any
!
ip nat pool P1 203.0.113.0 203.0.113.7
ip nat source list ACLIN pool P1 interface Ethernet1
ip nat source static 10.0.5.5 203.0.113.99
";

    fn parsed() -> (Device, Diagnostics) {
        parse("r1", SAMPLE)
    }

    #[test]
    fn full_sample_parses_cleanly() {
        let (_, diags) = parsed();
        if let Some(d) = diags.items().first() {
            panic!("unexpected diagnostic: {d}");
        }
    }

    #[test]
    fn hostname_and_management() {
        let (d, _) = parsed();
        assert_eq!(d.name, "r1");
        assert_eq!(d.ntp_servers, vec!["10.255.0.1".parse().unwrap()]);
        assert_eq!(d.dns_servers, vec!["10.255.0.53".parse().unwrap()]);
    }

    #[test]
    fn interfaces_parse() {
        let (d, _) = parsed();
        assert_eq!(d.interfaces.len(), 3);
        let e1 = &d.interfaces["Ethernet1"];
        assert_eq!(e1.address, Some(("10.0.0.1".parse().unwrap(), 24)));
        assert_eq!(e1.acl_in.as_deref(), Some("ACLIN"));
        assert_eq!(e1.ospf_cost, Some(10));
        assert_eq!(e1.ospf_area, Some(0));
        assert_eq!(e1.description.as_deref(), Some("to r2"));
        assert!(e1.enabled);
        let e2 = &d.interfaces["Ethernet2"];
        assert!(!e2.enabled);
        assert_eq!(e2.address, Some(("10.0.1.1".parse().unwrap(), 24)));
        let lo = &d.interfaces["Loopback0"];
        assert_eq!(lo.address, Some(("1.1.1.1".parse().unwrap(), 32)));
    }

    #[test]
    fn static_routes_parse() {
        let (d, _) = parsed();
        assert_eq!(d.static_routes.len(), 2);
        assert_eq!(d.static_routes[0].prefix.to_string(), "10.99.0.0/16");
        assert_eq!(
            d.static_routes[0].next_hop,
            NextHop::Ip("10.0.0.2".parse().unwrap())
        );
        assert_eq!(d.static_routes[0].admin_distance, 1);
        assert_eq!(d.static_routes[1].next_hop, NextHop::Discard);
        assert_eq!(d.static_routes[1].admin_distance, 250);
    }

    #[test]
    fn routing_processes_parse() {
        let (d, _) = parsed();
        let ospf = d.ospf.as_ref().unwrap();
        assert_eq!(ospf.router_id, Some("1.1.1.1".parse().unwrap()));
        assert!(ospf.redistribute_connected);
        let bgp = d.bgp.as_ref().unwrap();
        assert_eq!(bgp.asn.0, 65001);
        assert_eq!(bgp.networks, vec!["10.5.0.0/16".parse().unwrap()]);
        assert_eq!(bgp.neighbors.len(), 1);
        let n = &bgp.neighbors[0];
        assert_eq!(n.remote_as.0, 65002);
        assert_eq!(n.import_policy.as_deref(), Some("RM-IN"));
        assert_eq!(n.export_policy.as_deref(), Some("RM-OUT"));
        assert!(n.next_hop_self);
    }

    #[test]
    fn policy_structures_parse() {
        let (d, _) = parsed();
        let pl = &d.prefix_lists["PL"];
        assert_eq!(pl.entries.len(), 1);
        assert_eq!(pl.entries[0].le, Some(24));
        let rm = &d.route_maps["RM-IN"];
        assert_eq!(rm.clauses.len(), 2);
        assert_eq!(rm.clauses[0].seq, 10);
        assert_eq!(rm.clauses[1].action, AclAction::Deny);
        assert!(d.community_lists.contains_key("CL"));
    }

    #[test]
    fn acl_parses_with_ports_and_flags() {
        let (d, _) = parsed();
        let acl = &d.acls["ACLIN"];
        assert_eq!(acl.lines.len(), 4);
        let l0 = &acl.lines[0];
        assert_eq!(l0.seq, 10);
        assert_eq!(l0.space.dst_ports, vec![PortRange::single(80)]);
        assert_eq!(
            l0.space.src_ips,
            vec![IpRange::from_prefix("10.0.0.0/24".parse().unwrap())]
        );
        let l1 = &acl.lines[1];
        assert_eq!(l1.space.dst_ports, vec![PortRange::new(8000, 8100)]);
        assert_eq!(
            l1.space.dst_ips,
            vec![IpRange::single("10.0.5.5".parse().unwrap())]
        );
        assert!(acl.lines[2].space.established);
        assert_eq!(acl.lines[3].action, AclAction::Deny);
    }

    #[test]
    fn nat_rules_expand_from_list() {
        let (d, _) = parsed();
        // 3 permit lines of ACLIN + 1 static source rule.
        assert_eq!(d.nat_rules.len(), 4);
        let listed: Vec<_> = d
            .nat_rules
            .iter()
            .filter(|r| r.interface.as_deref() == Some("Ethernet1"))
            .collect();
        assert_eq!(listed.len(), 3);
        assert_eq!(listed[0].pool.size(), 8);
        let stat = d.nat_rules.iter().find(|r| r.interface.is_none()).unwrap();
        assert_eq!(stat.pool, IpRange::single("203.0.113.99".parse().unwrap()));
    }

    #[test]
    fn unrecognized_lines_become_diagnostics() {
        let (_, diags) = parse(
            "r1",
            "hostname r1\nsome mystery knob\ninterface e1\n fancy feature on\n",
        );
        assert_eq!(diags.count(Severity::UnrecognizedLine), 2);
        assert!(diags.coverage(4) < 1.0);
    }

    #[test]
    fn undefined_pool_reference_diagnosed() {
        let (_, diags) = parse(
            "r1",
            "ip access-list extended A\n 10 permit ip any any\nip nat source list A pool NOPE\n",
        );
        assert_eq!(diags.count(Severity::UndefinedReference), 1);
    }

    #[test]
    fn undefined_nat_list_is_diagnosed_at_its_statement() {
        let (d, diags) = parse(
            "r1",
            "hostname r1\nip nat pool P 203.0.113.1 203.0.113.8\n\
             ip nat source list NOPE pool P\nip nat source list LATER pool P\n\
             ip access-list extended LATER\n 10 permit ip any any\n",
        );
        let undefined: Vec<_> = diags
            .items()
            .iter()
            .filter(|d| d.severity == Severity::UndefinedReference)
            .collect();
        assert_eq!(undefined.len(), 1);
        assert_eq!(undefined[0].line, 3);
        assert_eq!(undefined[0].message, "nat references undefined acl NOPE");
        // The rule after it still resolves its list, defined later.
        assert_eq!(d.nat_rules.len(), 1);
        assert!(d.nat_rules[0].text.contains("LATER"));
    }

    #[test]
    fn mask_parsing_edge_cases() {
        assert_eq!(mask_to_len(Ip(0)), Some(0));
        assert_eq!(mask_to_len("255.255.255.255".parse().unwrap()), Some(32));
        assert_eq!(mask_to_len("255.255.254.0".parse().unwrap()), Some(23));
        assert_eq!(mask_to_len("255.0.255.0".parse().unwrap()), None, "non-contiguous");
        assert_eq!(wildcard_to_len("0.0.0.255".parse().unwrap()), Some(24));
        assert_eq!(wildcard_to_len("0.0.255.255".parse().unwrap()), Some(16));
    }

    #[test]
    fn block_structures_carry_line_ranges() {
        let (d, _) = parsed();
        // The ACL block span covers the header plus all four lines.
        let acl = &d.acls["ACLIN"];
        assert!(acl.src.is_known());
        assert_eq!(acl.src.end() - acl.src.line, 4);
        // Each route-map clause spans its own section.
        let rm = &d.route_maps["RM-IN"];
        let c10 = &rm.clauses[0];
        assert_eq!(c10.src.end() - c10.src.line, 2, "permit 10 has two body lines");
        let c20 = &rm.clauses[1];
        assert_eq!(c20.src.end(), c20.src.line, "deny 20 is a bare header");
        // The map's own span stretches over both clause sections.
        assert!(rm.src.end() >= c20.src.line);
        // The neighbor stanza covers remote-as through next-hop-self.
        let nb = &d.bgp.as_ref().unwrap().neighbors[0];
        assert_eq!(nb.src.end() - nb.src.line, 3);
    }

    #[test]
    fn route_map_clauses_sorted_by_seq() {
        let text = "route-map RM permit 20\nroute-map RM permit 10\n set metric 5\n";
        let (d, _) = parse("r1", text);
        let rm = &d.route_maps["RM"];
        assert_eq!(rm.clauses[0].seq, 10);
        assert_eq!(rm.clauses[1].seq, 20);
    }

    #[test]
    fn zones_parse() {
        let text = "\
zone security trust
zone security untrust
zone-pair security trust untrust acl Z1
ip access-list extended Z1
 10 permit tcp any any eq 443
interface e1
 zone-member security trust
";
        let (d, diags) = parse("fw1", text);
        assert!(d.stateful);
        assert_eq!(d.zones.len(), 2);
        assert_eq!(d.zone_policies.len(), 1);
        assert_eq!(d.zone_policies[0].src.line, 3);
        assert_eq!(diags.count(Severity::UndefinedReference), 0);
        assert_eq!(d.zone_acl("trust", "untrust").map(|a| a.lines.len()), Some(1));
        assert_eq!(d.interfaces["e1"].zone.as_deref(), Some("trust"));
    }

    #[test]
    fn zone_acl_split_around_its_zone_pair_resolves_to_both_blocks() {
        let text = "\
ip access-list extended Z1
 10 permit tcp any any eq 443
zone-pair security trust untrust acl Z1
ip access-list extended Z1
 20 permit tcp any any eq 22
";
        let (d, _) = parse("fw1", text);
        assert_eq!(d.acls["Z1"].lines.len(), 2);
        let acl = d.zone_acl("trust", "untrust").expect("policy for the pair");
        let seqs: Vec<u32> = acl.lines.iter().map(|l| l.seq).collect();
        assert_eq!(seqs, [10, 20]);
    }
}
