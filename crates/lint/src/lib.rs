//! # batnet-lint — configuration analyses beyond forwarding (Lesson 5)
//!
//! *"Deep configuration modeling has many applications."* The detailed VI
//! model built for data plane generation answers many questions network
//! engineers ask that never touch forwarding: are all referenced
//! structures defined? Are IP assignments unique? Are BGP sessions
//! configured compatibly on both ends? Are management-plane settings
//! (NTP) consistent? These analyses are *local* — easy to localize, cheap
//! to run — and the paper notes they are often the fastest route to a
//! root cause (*"much easier to find this error by checking for
//! undefined route-maps than by debugging … a data plane verification
//! query"*).
//!
//! This crate grew from a bag of functions into a small static-analysis
//! engine:
//!
//! * every check is registered in the [`CHECKS`] catalog and dispatched
//!   through the [`PASSES`] table, so a check cannot silently fall out of
//!   [`run_all`];
//! * findings carry a stable [`Finding::fingerprint`] (check + device +
//!   structure path — insensitive to message wording), a [`Severity`], a
//!   source location, and, for the symbolic checks, a concrete witness;
//! * devices can mute checks with inline `! batnet-lint-disable <check>`
//!   directives (scanned by every dialect parser), and whole runs can be
//!   baselined by fingerprint so CI gates on *new* findings only;
//! * parse diagnostics bridge into the same finding stream
//!   ([`diagnostics_findings`]), so one report covers both what the
//!   parser could not model and what the model reveals.

pub mod drift;
pub mod exercise;
pub mod output;
pub mod routemap;

pub use drift::{policy_drift, role_of};
pub use exercise::{never_touched_structures, unexercised_config, NeverTouched, StructureRef};
pub use routemap::route_map_dead_clauses;

use batnet_bdd::NodeId;
use batnet_config::diag::{self, Diagnostic};
use batnet_config::vi::{Device, RouteMapMatch, SourceSpan};
use batnet_config::{InterfaceRef, Topology};
use batnet_dataplane::acl::compile_acl;
use batnet_dataplane::PacketVars;
use batnet_net::Ip;
use std::collections::BTreeMap;
use std::fmt;

/// How serious a finding is. Ordered: `Info < Warning < Error`, so
/// `--deny warning` means "warning or worse".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory: worth a look, usually intentional.
    Info,
    /// Likely misconfiguration; the network still functions.
    Warning,
    /// Definite error: a referenced structure is missing, an address is
    /// double-assigned, a config could not be parsed.
    Error,
}

impl Severity {
    /// Stable lowercase name (also the SARIF `level`, except `Info`
    /// which SARIF spells `note`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }

    /// SARIF result level.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Info => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;
    fn from_str(s: &str) -> Result<Severity, String> {
        match s {
            "info" | "note" => Ok(Severity::Info),
            "warning" | "warn" => Ok(Severity::Warning),
            "error" => Ok(Severity::Error),
            other => Err(format!("unknown severity '{other}' (expected info|warning|error)")),
        }
    }
}

/// One finding.
///
/// `check`, `device`, and `path` identify *what* is wrong structurally
/// and feed the fingerprint; `message` is free prose and may change
/// between versions without invalidating baselines.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Finding {
    /// Which check produced it (an id from [`CHECKS`]).
    pub check: &'static str,
    /// Device concerned ("" for network-wide findings).
    pub device: String,
    /// Structure path within the device ("acl SERVERS/line 30",
    /// "neighbor 10.0.0.1/half-open", …). Stable across message rewords.
    pub path: String,
    /// How serious it is (from the [`CHECKS`] catalog).
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Source file the finding points into ("" when unknown).
    pub file: String,
    /// 1-based source line (0 when unknown).
    pub line: u32,
    /// Concrete witness for symbolic checks: a flow or prefix that
    /// demonstrates the problem ("" when not applicable).
    pub witness: String,
}

impl Finding {
    /// A finding with severity looked up from the catalog and no source
    /// location or witness yet.
    pub fn new(
        check: &'static str,
        device: impl Into<String>,
        path: impl Into<String>,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            check,
            severity: severity_of(check),
            device: device.into(),
            path: path.into(),
            message: message.into(),
            file: String::new(),
            line: 0,
            witness: String::new(),
        }
    }

    /// Attaches a source location (no-op for unknown spans).
    pub fn at(mut self, src: &SourceSpan) -> Finding {
        if src.is_known() {
            self.file = src.file.clone();
            self.line = src.line;
        }
        self
    }

    /// Attaches a concrete witness.
    pub fn with_witness(mut self, witness: impl Into<String>) -> Finding {
        self.witness = witness.into();
        self
    }

    /// Stable fingerprint: 16 hex chars of FNV-1a 64 over
    /// `check \0 device \0 path`. Deliberately excludes the message (so
    /// rewording does not invalidate baselines), the location (so
    /// re-ordering a config does not either), and the witness (which
    /// depends on BDD internals).
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(&[self.check, &self.device, &self.path]))
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.device.is_empty() {
            write!(f, "[{}] {}", self.check, self.message)
        } else {
            write!(f, "[{}] {}: {}", self.check, self.device, self.message)
        }
    }
}

fn fnv1a64(parts: &[&str]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            // NUL separator so ("ab","c") != ("a","bc").
            h ^= 0;
            h = h.wrapping_mul(PRIME);
        }
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Catalog entry for one check.
pub struct CheckInfo {
    /// Stable check id (the `check` field of findings it emits).
    pub id: &'static str,
    /// Severity of its findings.
    pub severity: Severity,
    /// True when the check is bridged from parse diagnostics rather than
    /// run as a VI-model pass.
    pub bridged: bool,
    /// One-line description.
    pub what: &'static str,
}

/// Every check the engine knows, with its severity. The registry test
/// asserts that every non-bridged entry is wired into [`PASSES`].
pub const CHECKS: &[CheckInfo] = &[
    CheckInfo { id: "undefined-reference", severity: Severity::Error, bridged: false, what: "a used structure (acl, route-map, prefix-list, community-list) is not defined" },
    CheckInfo { id: "duplicate-ip", severity: Severity::Error, bridged: false, what: "the same interface address is assigned on more than one device" },
    CheckInfo { id: "unused-structure", severity: Severity::Warning, bridged: false, what: "a defined structure is referenced nowhere" },
    CheckInfo { id: "bgp-compat", severity: Severity::Warning, bridged: false, what: "a BGP session is not configured compatibly on both ends" },
    CheckInfo { id: "ntp-consistency", severity: Severity::Warning, bridged: false, what: "a device's NTP servers differ from the network majority" },
    CheckInfo { id: "mtu-mismatch", severity: Severity::Warning, bridged: false, what: "the two ends of a link disagree on MTU" },
    CheckInfo { id: "acl-shadowing", severity: Severity::Warning, bridged: false, what: "an ACL line can never match (fully covered by earlier lines)" },
    CheckInfo { id: "acl-partial-shadow", severity: Severity::Info, bridged: false, what: "an ACL line matches strictly less than written because earlier opposite-action lines steal part of its space" },
    CheckInfo { id: "route-map-dead-clause", severity: Severity::Warning, bridged: false, what: "a route-map clause can never match (covered by earlier clauses)" },
    CheckInfo { id: "dead-device", severity: Severity::Warning, bridged: false, what: "a device cannot do anything: all interfaces shutdown, or a BGP process with no sessions" },
    CheckInfo { id: "policy-drift", severity: Severity::Warning, bridged: false, what: "a device's policy semantically diverges from the majority of its role peers" },
    CheckInfo { id: "unexercised-config", severity: Severity::Info, bridged: false, what: "a structure (acl, route-map, bgp neighbor) that no query of the coverage suite can ever exercise" },
    CheckInfo { id: "parse-info", severity: Severity::Info, bridged: true, what: "parser note (deprecated form, implicit default)" },
    CheckInfo { id: "unrecognized-line", severity: Severity::Warning, bridged: true, what: "a config line outside the model was skipped" },
    CheckInfo { id: "parse-error", severity: Severity::Error, bridged: true, what: "a malformed config line was dropped" },
];

/// Severity of a check id, from the catalog (unknown ids are warnings —
/// only possible if a pass emits an unregistered id, which the registry
/// test rejects).
pub fn severity_of(check: &str) -> Severity {
    CHECKS
        .iter()
        .find(|c| c.id == check)
        .map(|c| c.severity)
        .unwrap_or(Severity::Warning)
}

/// One dispatchable pass: per-device or network-wide.
pub enum Pass {
    /// Runs once per device.
    Device(fn(&Device) -> Vec<Finding>),
    /// Runs once over the whole device list and its inferred topology
    /// (links and the address-owner index).
    Network(fn(&[Device], &Topology) -> Vec<Finding>),
}

/// The dispatch table: (pass name, check ids it may emit, entry point).
/// [`run_all`] iterates this table, so adding a check here is all it
/// takes to have it run everywhere — the historical bug where
/// `acl_shadowing` was exported but never invoked cannot recur.
pub const PASSES: &[(&str, &[&str], Pass)] = &[
    ("undefined-references", &["undefined-reference"], Pass::Device(undefined_references)),
    ("unused-structures", &["unused-structure"], Pass::Device(unused_structures)),
    ("route-map-dead-clauses", &["route-map-dead-clause"], Pass::Device(route_map_dead_clauses)),
    ("acl-shadowing", &["acl-shadowing", "acl-partial-shadow"], Pass::Device(acl_shadowing)),
    ("dead-device", &["dead-device"], Pass::Device(dead_device)),
    ("duplicate-ips", &["duplicate-ip"], Pass::Network(|_, topo| duplicate_ips(topo))),
    ("bgp-compatibility", &["bgp-compat"], Pass::Network(bgp_compatibility)),
    ("ntp-consistency", &["ntp-consistency"], Pass::Network(|devices, _| ntp_consistency(devices))),
    ("mtu-mismatch", &["mtu-mismatch"], Pass::Network(mtu_mismatch)),
    ("policy-drift", &["policy-drift"], Pass::Network(|devices, _| policy_drift(devices))),
    ("unexercised-config", &["unexercised-config"], Pass::Network(unexercised_config)),
];

/// Runs every registered pass with no budget: the complete result of
/// the passes [`run_network`] runs, without the diagnostics bridge.
/// `topo` must be inferred from `devices`; every network pass reads it.
pub fn run_all(devices: &[Device], topo: &Topology) -> Vec<Finding> {
    run_all_governed(devices, topo, &batnet_net::governor::ResourceGovernor::unlimited())
        .into_value()
}

/// Runs every registered pass under a
/// [`batnet_net::governor::ResourceGovernor`], applies device-level
/// suppressions, and returns the sorted finding list. Emits one
/// `lint.<pass>` span and a `lint.findings.<pass>` counter per pass. The
/// budget is polled before each pass and each pass ticks the iteration
/// budget once. Passes are local and cheap (Lesson 5), so a deadline
/// lands between passes within milliseconds — that is the checkpoint
/// granularity. A tripped budget abandons the remaining passes *by
/// name* and returns the findings of the passes that did run, sorted,
/// deduped, and suppression-filtered like a complete run.
fn run_all_governed(
    devices: &[Device],
    topo: &Topology,
    gov: &batnet_net::governor::ResourceGovernor,
) -> batnet_net::governor::Outcome<Vec<Finding>> {
    use batnet_net::governor::Outcome;
    let mut findings = Vec::new();
    let finish = |mut f: Vec<Finding>| {
        apply_suppressions(devices, &mut f);
        f.sort();
        f.dedup();
        f
    };
    for (i, (name, _, pass)) in PASSES.iter().enumerate() {
        let stage = format!("lint.{name}");
        if let Err(why) = gov.tick(&stage, 1) {
            return Outcome::Partial {
                completed: finish(findings),
                abandoned: PASSES[i..].iter().map(|(n, _, _)| (*n).to_string()).collect(),
                why,
            };
        }
        let span = batnet_obs::Span::enter(stage);
        let produced = match pass {
            Pass::Device(f) => devices.iter().flat_map(f).collect::<Vec<_>>(),
            Pass::Network(f) => f(devices, topo),
        };
        span.close();
        batnet_obs::counter_add(&format!("lint.findings.{name}"), produced.len() as u64);
        findings.extend(produced);
    }
    Outcome::Complete(finish(findings))
}

/// Every registered pass under a governor, plus the diagnostics bridge
/// over the per-device parse diagnostics (the shape
/// `Snapshot::diagnostics` stores), so the CLI and the service lint the
/// same way. The bridge is always included, complete or partial, because
/// the diagnostics were already computed at parse time and cost nothing
/// to surface.
pub fn run_network_governed(
    devices: &[Device],
    topo: &Topology,
    diags: &[(String, Vec<Diagnostic>)],
    gov: &batnet_net::governor::ResourceGovernor,
) -> batnet_net::governor::Outcome<Vec<Finding>> {
    let mut bridged: Vec<Finding> = diags
        .iter()
        .flat_map(|(name, dg)| diagnostics_findings(name, dg))
        .collect();
    batnet_obs::counter_add("lint.findings.bridged", bridged.len() as u64);
    apply_suppressions(devices, &mut bridged);
    run_all_governed(devices, topo, gov).map(|mut findings| {
        findings.extend(bridged);
        findings.sort();
        findings.dedup();
        findings
    })
}

/// [`run_all`] plus parse diagnostics bridged into the same stream:
/// [`run_network_governed`] with no budget.
pub fn run_network(
    devices: &[Device],
    topo: &Topology,
    diags: &[(String, Vec<Diagnostic>)],
) -> Vec<Finding> {
    run_network_governed(devices, topo, diags, &batnet_net::governor::ResourceGovernor::unlimited())
        .into_value()
}

/// Bridges one device's parse diagnostics into findings, with the same
/// fingerprint scheme as VI-model checks (path = `line <n>`).
pub fn diagnostics_findings(device: &str, diags: &[Diagnostic]) -> Vec<Finding> {
    diags
        .iter()
        .map(|d| {
            let check = match d.severity {
                diag::Severity::Info => "parse-info",
                diag::Severity::UnrecognizedLine => "unrecognized-line",
                diag::Severity::UndefinedReference => "undefined-reference",
                diag::Severity::ParseError => "parse-error",
            };
            let mut f = Finding::new(
                check,
                device,
                format!("line {}", d.line),
                d.message.clone(),
            );
            f.file = device.to_string();
            f.line = d.line as u32;
            f
        })
        .collect()
}

/// Drops findings whose check the owning device muted with an inline
/// `! batnet-lint-disable <check>` directive.
fn apply_suppressions(devices: &[Device], findings: &mut Vec<Finding>) {
    let muted: BTreeMap<&str, &[String]> = devices
        .iter()
        .filter(|d| !d.lint_suppressions.is_empty())
        .map(|d| (d.name.as_str(), d.lint_suppressions.as_slice()))
        .collect();
    if muted.is_empty() {
        return;
    }
    let before = findings.len();
    findings.retain(|f| {
        !muted
            .get(f.device.as_str())
            .is_some_and(|checks| checks.iter().any(|c| c == f.check))
    });
    batnet_obs::counter_add("lint.suppressed", (before - findings.len()) as u64);
}

/// Undefined references: route maps, ACLs, prefix lists, and community
/// lists that are used but defined nowhere (the paper's canonical
/// Lesson-5 example). The one report of a zone policy's undefined ACL,
/// which `Device::zone_acl` resolves to deny-all.
pub fn undefined_references(d: &Device) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut missing = |kind: &str, name: &str, site: String, src: Option<&SourceSpan>| {
        let mut f = Finding::new(
            "undefined-reference",
            &d.name,
            format!("{site}/{kind} {name}"),
            format!("{kind} {name} referenced by {site} is not defined"),
        );
        if let Some(s) = src {
            f = f.at(s);
        }
        out.push(f);
    };
    for iface in d.interfaces.values() {
        for (dir, acl) in [("in", &iface.acl_in), ("out", &iface.acl_out)] {
            if let Some(name) = acl {
                if !d.acls.contains_key(name) {
                    missing("acl", name, format!("interface {} ({dir})", iface.name), None);
                }
            }
        }
    }
    for zp in &d.zone_policies {
        if !d.acls.contains_key(&zp.acl) {
            let site = format!("zone-policy {} -> {}", zp.from_zone, zp.to_zone);
            missing("acl", &zp.acl, site, Some(&zp.src));
        }
    }
    if let Some(bgp) = &d.bgp {
        for nb in &bgp.neighbors {
            for (dir, policy) in [("in", &nb.import_policy), ("out", &nb.export_policy)] {
                if let Some(name) = policy {
                    if !d.route_maps.contains_key(name) {
                        missing(
                            "route-map",
                            name,
                            format!("neighbor {} ({dir})", nb.peer_ip),
                            Some(&nb.src),
                        );
                    }
                }
            }
        }
    }
    for rm in d.route_maps.values() {
        for clause in &rm.clauses {
            for m in &clause.matches {
                match m {
                    RouteMapMatch::PrefixLists(names) => {
                        for n in names {
                            if !d.prefix_lists.contains_key(n) {
                                missing("prefix-list", n, format!("route-map {}", rm.name), Some(&rm.src));
                            }
                        }
                    }
                    RouteMapMatch::CommunityLists(names) => {
                        for n in names {
                            if !d.community_lists.contains_key(n) {
                                missing("community-list", n, format!("route-map {}", rm.name), Some(&rm.src));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Structures that are defined but referenced nowhere — usually debris
/// from old changes, occasionally a typo'd attachment.
pub fn unused_structures(d: &Device) -> Vec<Finding> {
    let mut used_acls: Vec<&str> = Vec::new();
    for iface in d.interfaces.values() {
        used_acls.extend(iface.acl_in.as_deref());
        used_acls.extend(iface.acl_out.as_deref());
    }
    used_acls.extend(d.zone_policies.iter().map(|zp| zp.acl.as_str()));
    used_acls.extend(d.nat_rules.iter().filter_map(|r| r.acl.as_deref()));
    let mut used_maps: Vec<&str> = Vec::new();
    if let Some(bgp) = &d.bgp {
        for nb in &bgp.neighbors {
            used_maps.extend(nb.import_policy.as_deref());
            used_maps.extend(nb.export_policy.as_deref());
        }
    }
    let mut used_lists: Vec<&str> = Vec::new();
    for rm in d.route_maps.values() {
        for clause in &rm.clauses {
            for m in &clause.matches {
                match m {
                    RouteMapMatch::PrefixLists(ns) => used_lists.extend(ns.iter().map(String::as_str)),
                    RouteMapMatch::CommunityLists(ns) => used_lists.extend(ns.iter().map(String::as_str)),
                    _ => {}
                }
            }
        }
    }
    let mut out = Vec::new();
    for (name, acl) in &d.acls {
        if !used_acls.contains(&name.as_str()) {
            out.push(
                Finding::new(
                    "unused-structure",
                    &d.name,
                    format!("acl {name}"),
                    format!("acl {name} is defined but never used"),
                )
                .at(&acl.src),
            );
        }
    }
    for (name, rm) in &d.route_maps {
        if !used_maps.contains(&name.as_str()) {
            out.push(
                Finding::new(
                    "unused-structure",
                    &d.name,
                    format!("route-map {name}"),
                    format!("route-map {name} is defined but never used"),
                )
                .at(&rm.src),
            );
        }
    }
    for name in d.prefix_lists.keys() {
        if !used_lists.contains(&name.as_str()) {
            out.push(Finding::new(
                "unused-structure",
                &d.name,
                format!("prefix-list {name}"),
                format!("prefix-list {name} is defined but never used"),
            ));
        }
    }
    out
}

/// Duplicate interface addresses across the network (the paper's
/// "uniqueness of assigned IP addresses" example), primary or secondary,
/// read off the topology's address-owner index.
pub fn duplicate_ips(topo: &Topology) -> Vec<Finding> {
    topo.addresses()
        .filter(|&ip| topo.owners(ip).len() > 1)
        .map(|ip| {
            let sites: Vec<String> = topo.owners(ip).map(|o| o.interface.to_string()).collect();
            Finding::new(
                "duplicate-ip",
                "",
                format!("ip {ip}"),
                format!("{ip} assigned at {}", sites.join(", ")),
            )
        })
        .collect()
}

/// BGP session compatibility: a configured neighbor should have a
/// matching configuration on the other end (right AS, pointing back).
/// Half-configured sessions are the paper's original static-analysis
/// example ("a BGP session is not configured on both ends"). Whether a
/// session pairs is [`Topology::bgp_pairing`]'s call — the rule routing
/// establishes sessions by — so every neighbor routing does not pair in
/// the snapshot either draws a finding here or is unowned (and public).
pub fn bgp_compatibility(devices: &[Device], topo: &Topology) -> Vec<Finding> {
    let private: [batnet_net::Prefix; 3] =
        ["10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16"].map(|p| p.parse().expect("const"));
    let mut out = Vec::new();
    for (di, d) in devices.iter().enumerate() {
        let Some(bgp) = &d.bgp else { continue };
        for nb in &bgp.neighbors {
            let finding = |kind: &str, message: String| {
                Finding::new("bgp-compat", &d.name, format!("neighbor {}/{kind}", nb.peer_ip), message)
                    .at(&nb.src)
            };
            let pairing = topo.bgp_pairing(devices, di, nb);
            let Some(peer) = pairing.peer.map(|pi| &devices[pi]) else {
                // Could be an external peer; flag softly only when the
                // address is in private space (likely internal typo).
                if private.iter().any(|p| p.contains(nb.peer_ip)) {
                    out.push(finding(
                        "missing-peer",
                        format!("neighbor {} is in private space but no device owns it", nb.peer_ip),
                    ));
                }
                continue;
            };
            let Some(pb) = &peer.bgp else {
                out.push(finding(
                    "no-bgp",
                    format!("neighbor {} ({}) does not run BGP", nb.peer_ip, peer.name),
                ));
                continue;
            };
            if !pairing.as_match {
                out.push(finding(
                    "as-mismatch",
                    format!(
                        "neighbor {} expects AS {} but {} is AS {}",
                        nb.peer_ip, nb.remote_as, peer.name, pb.asn
                    ),
                ));
            }
            if pairing.reverse.is_none() {
                out.push(finding(
                    "half-open",
                    format!(
                        "session to {} is not configured on {} (half-open)",
                        nb.peer_ip, peer.name
                    ),
                ));
            }
        }
    }
    out
}

/// NTP server consistency: every device should use the majority NTP set
/// (the paper's canonical management-plane check).
pub fn ntp_consistency(devices: &[Device]) -> Vec<Finding> {
    let mut counts: BTreeMap<Vec<Ip>, usize> = BTreeMap::new();
    for d in devices {
        let mut servers = d.ntp_servers.clone();
        servers.sort();
        *counts.entry(servers).or_default() += 1;
    }
    let Some((majority, _)) = counts.iter().max_by_key(|(_, &c)| c) else {
        return Vec::new();
    };
    let majority = majority.clone();
    devices
        .iter()
        .filter(|d| {
            let mut s = d.ntp_servers.clone();
            s.sort();
            s != majority
        })
        .map(|d| {
            Finding::new(
                "ntp-consistency",
                &d.name,
                "ntp",
                format!(
                    "ntp servers {:?} differ from the majority {:?}",
                    d.ntp_servers, majority
                ),
            )
        })
        .collect()
}

/// MTU mismatch across inferred links (a classic silent breaker of OSPF
/// adjacency and of large packets). Each link is visited once, from its
/// smaller end.
pub fn mtu_mismatch(devices: &[Device], topo: &Topology) -> Vec<Finding> {
    let by_name: BTreeMap<&str, &Device> = devices.iter().map(|d| (d.name.as_str(), d)).collect();
    let mtu = |r: &InterfaceRef| Some(by_name.get(r.device.as_str())?.interfaces.get(&r.interface)?.mtu);
    let mut out = Vec::new();
    for iface_ref in topo.connected_interfaces() {
        for nb in topo.neighbors_of(iface_ref).iter().filter(|nb| iface_ref < *nb) {
            let (Some(a), Some(b)) = (mtu(iface_ref), mtu(nb)) else { continue };
            if a != b {
                out.push(Finding::new(
                    "mtu-mismatch",
                    "",
                    format!("link {iface_ref} ~ {nb}"),
                    format!("{iface_ref} mtu {a} != {nb} mtu {b}"),
                ));
            }
        }
    }
    out
}

/// ACL shadowing via BDDs — the symbolic Lesson-5 analysis, and the
/// building block of the §5.3 ACL-refactoring use-case.
///
/// Two flavors:
/// * **full shadow** (`acl-shadowing`, warning): the line can never match
///   — every packet it names is claimed by earlier lines; it is safe to
///   delete.
/// * **partial shadow** (`acl-partial-shadow`, info): the line is
///   reachable but matches strictly less than written, *and* the stolen
///   region goes to earlier lines with the opposite action — i.e. the
///   overlap changes behaviour, not just bookkeeping. The finding's
///   witness is a concrete flow from the lost region. Catch-all tails
///   (`deny ip any any`) are exempt: their written space is the full
///   universe by idiom, not by intent.
pub fn acl_shadowing(d: &Device) -> Vec<Finding> {
    if d.acls.is_empty() {
        return Vec::new();
    }
    let (mut bdd, vars) = PacketVars::new(0);
    let mut out = Vec::new();
    for acl in d.acls.values() {
        let compiled = compile_acl(&mut bdd, &vars, acl);
        for (i, line) in acl.lines.iter().enumerate() {
            let hit = compiled.line_hits[i];
            if hit == NodeId::FALSE {
                out.push(
                    Finding::new(
                        "acl-shadowing",
                        &d.name,
                        format!("acl {}/line {}", acl.name, line.seq),
                        format!(
                            "acl {} line {} ({}) is fully shadowed by earlier lines",
                            acl.name, line.seq, line.text
                        ),
                    )
                    .at(&acl.src),
                );
                continue;
            }
            let written = vars.headerspace(&mut bdd, &line.space);
            if written == NodeId::TRUE {
                continue; // catch-all idiom: written space is everything
            }
            let lost = bdd.diff(written, hit);
            if lost == NodeId::FALSE {
                continue;
            }
            // Only report when the lost region lands on earlier lines of
            // the *opposite* action: same-action overlap is harmless.
            let mut conflict = NodeId::FALSE;
            for (j, earlier) in acl.lines.iter().enumerate().take(i) {
                if earlier.action != line.action {
                    let stolen = bdd.and(lost, compiled.line_hits[j]);
                    conflict = bdd.or(conflict, stolen);
                }
            }
            if conflict == NodeId::FALSE {
                continue;
            }
            let witness = bdd
                .pick_cube(conflict)
                .map(|c| vars.cube_to_flow(&c).to_string())
                .unwrap_or_default();
            out.push(
                Finding::new(
                    "acl-partial-shadow",
                    &d.name,
                    format!("acl {}/line {}", acl.name, line.seq),
                    format!(
                        "acl {} line {} ({}) is partially shadowed: earlier opposite-action lines take part of its match set",
                        acl.name, line.seq, line.text
                    ),
                )
                .at(&acl.src)
                .with_witness(witness),
            );
        }
    }
    out
}

/// Dead devices: configured but unable to do anything. Reuses the
/// quarantine vocabulary (kebab-case reason codes in the witness field)
/// so operators see one set of names across quarantine and lint.
pub fn dead_device(d: &Device) -> Vec<Finding> {
    let mut out = Vec::new();
    if !d.interfaces.is_empty() && d.active_interfaces().next().is_none() {
        out.push(
            Finding::new(
                "dead-device",
                &d.name,
                "interfaces",
                "every interface is shutdown; the device cannot forward or peer",
            )
            .with_witness("all-interfaces-shutdown"),
        );
    }
    if let Some(bgp) = &d.bgp {
        if bgp.neighbors.is_empty() {
            out.push(
                Finding::new(
                    "dead-device",
                    &d.name,
                    "bgp",
                    format!("BGP process (AS {}) has no configured sessions", bgp.asn),
                )
                .with_witness("no-bgp-sessions"),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    fn dev(text: &str) -> Device {
        parse_device("t", text).0
    }

    fn lint(devices: &[Device]) -> Vec<Finding> {
        run_all(devices, &Topology::infer(devices))
    }

    #[test]
    fn undefined_reference_findings() {
        let d = dev(
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n ip access-group NOPE in\nrouter bgp 65001\n neighbor 10.0.0.2 remote-as 65002\n neighbor 10.0.0.2 route-map MISSING in\nroute-map USED permit 10\n match ip address prefix-list ABSENT\n",
        );
        let f = undefined_references(&d);
        let checks: Vec<&str> = f.iter().map(|x| x.message.split(' ').next().unwrap()).collect();
        assert!(checks.contains(&"acl"));
        assert!(checks.contains(&"route-map"));
        assert!(checks.contains(&"prefix-list"));
        assert_eq!(f.len(), 3);
        // All carry the error severity from the catalog.
        assert!(f.iter().all(|x| x.severity == Severity::Error));
        // The BGP-sourced one has a source location (file stamped by
        // parse_device, line by the parser).
        let rm = f.iter().find(|x| x.path.contains("route-map MISSING")).unwrap();
        assert_eq!(rm.file, "t");
        assert!(rm.line > 0);
    }

    #[test]
    fn unused_structure_findings() {
        let d = dev(
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n ip access-group USED in\nip access-list extended USED\n 10 permit ip any any\nip access-list extended DEAD\n 10 permit ip any any\nroute-map ORPHAN permit 10\nip prefix-list LONELY seq 5 permit 10.0.0.0/8\n",
        );
        let f = unused_structures(&d);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("acl DEAD")));
        assert!(f.iter().any(|x| x.message.contains("route-map ORPHAN")));
        assert!(f.iter().any(|x| x.message.contains("prefix-list LONELY")));
    }

    #[test]
    fn nat_lists_use_their_acl_by_name() {
        let d = dev(
            "hostname b1\ninterface uplink\n ip address 203.0.113.1/30\n\
             ip nat pool EDGE 198.51.100.1 198.51.100.4\n\
             ip access-list extended INSIDE\n 10 permit ip 10.0.0.0 0.255.255.255 any\n\
             ip access-list extended EDGE\n 10 permit ip any any\n\
             ip access-list extended IN\n 10 permit ip any any\n\
             ip nat source list INSIDE pool EDGE interface uplink\n",
        );
        let unused: Vec<String> = unused_structures(&d).into_iter().map(|f| f.path).collect();
        assert_eq!(unused, ["acl EDGE", "acl IN"]);
        let devices = [d];
        let never = exercise::never_touched_structures(&devices, &Topology::infer(&devices));
        let never: Vec<String> = never.iter().map(|n| n.what.path()).collect();
        assert_eq!(never, ["acl EDGE", "acl IN"]);
    }

    #[test]
    fn an_undefined_zone_acl_is_one_finding_at_its_policy_in_every_dialect() {
        for text in [
            "hostname fw\nzone security a\nzone-pair security a b acl NOPE\n",
            "set system host-name fw\nset security zones security-zone a interfaces e0\n\
             set security policies from-zone a to-zone b filter NOPE\n",
            "device fw\nzone a iface=e0\nzone-policy a b acl=NOPE\n",
        ] {
            let (d, diags) = parse_device("fw", text);
            assert!(diags.items().is_empty(), "{text}: {:?}", diags.items());
            let devices = [d];
            let bridged = [("fw".to_string(), diags.items().to_vec())];
            let found: Vec<Finding> = run_network(&devices, &Topology::infer(&devices), &bridged)
                .into_iter()
                .filter(|f| f.check == "undefined-reference")
                .collect();
            assert_eq!(found.len(), 1, "{text}: {found:?}");
            let f = &found[0];
            assert_eq!((f.path.as_str(), f.file.as_str(), f.line), ("zone-policy a -> b/acl NOPE", "fw", 3));
        }
    }

    #[test]
    fn duplicate_ip_detection() {
        let a = dev("hostname a\ninterface e0\n ip address 10.0.0.1/24\n");
        let mut b = dev("hostname b\ninterface e0\n ip address 10.0.0.1/24\n");
        b.name = "b".into();
        let f = duplicate_ips(&Topology::infer(&[a, b]));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("10.0.0.1"));
        // Distinct addresses are clean.
        let c = dev("hostname c\ninterface e0\n ip address 10.0.0.2/24\n");
        let d2 = dev("hostname d\ninterface e0\n ip address 10.0.0.3/24\n");
        assert!(duplicate_ips(&Topology::infer(&[c, d2])).is_empty());
    }

    #[test]
    fn bgp_compat_findings() {
        let a = dev(
            "hostname a\ninterface e0\n ip address 10.0.0.1/31\nrouter bgp 65001\n neighbor 10.0.0.0 remote-as 65099\n neighbor 10.9.9.9 remote-as 65003\n",
        );
        let mut b = dev(
            "hostname b\ninterface e0\n ip address 10.0.0.0/31\nrouter bgp 65002\n",
        );
        b.name = "b".into();
        let devices = [a, b];
        let f = bgp_compatibility(&devices, &Topology::infer(&devices));
        // Wrong AS + not pointing back + private-space missing peer.
        assert!(f.iter().any(|x| x.message.contains("expects AS 65099")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("half-open")), "{f:?}");
        assert!(f.iter().any(|x| x.message.contains("no device owns")), "{f:?}");
    }

    #[test]
    fn secondary_addresses_own_peers_and_can_collide() {
        // a dials b's primary; b dials a's secondary. Routing pairs the
        // session over the secondary, so lint must not call it half-open
        // on a or a missing peer on b.
        let mut a = dev(
            "hostname a\ninterface e0\n ip address 10.0.0.0 255.255.255.254\n ip address 10.1.0.1 255.255.255.0 secondary\nrouter bgp 65001\n neighbor 10.0.0.1 remote-as 65002\n",
        );
        a.name = "a".into();
        let mut b = dev(
            "hostname b\ninterface e0\n ip address 10.0.0.1 255.255.255.254\n ip address 10.2.0.1 255.255.255.0 secondary\nrouter bgp 65002\n neighbor 10.1.0.1 remote-as 65001\n",
        );
        b.name = "b".into();
        assert_eq!(a.interfaces["e0"].secondary_addresses.len(), 1, "the IOS secondary form parses");
        let devices = [a, b];
        let topo = Topology::infer(&devices);
        let f = bgp_compatibility(&devices, &topo);
        assert!(f.is_empty(), "{f:?}");
        assert!(duplicate_ips(&topo).is_empty());
        // A secondary address assigned twice is a duplicate like any other.
        let mut c = dev("hostname c\ninterface e0\n ip address 10.3.0.1/24\n ip address 10.2.0.1/24 secondary\n");
        c.name = "c".into();
        let [a, b] = devices;
        let f = duplicate_ips(&Topology::infer(&[a, b, c]));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].message, "10.2.0.1 assigned at b[e0], c[e0]");
    }

    #[test]
    fn ntp_majority() {
        let a = dev("hostname a\nntp server 10.255.0.1\ninterface e0\n ip address 10.0.0.1/24\n");
        let b = dev("hostname b\nntp server 10.255.0.1\ninterface e0\n ip address 10.0.1.1/24\n");
        let c = dev("hostname c\nntp server 10.255.0.9\ninterface e0\n ip address 10.0.2.1/24\n");
        let f = ntp_consistency(&[a, b, c]);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].device, "c");
    }

    #[test]
    fn mtu_mismatch_on_link() {
        let a = dev("hostname a\ninterface e0\n ip address 10.0.0.0/31\n mtu 9000\n");
        let mut b = dev("hostname b\ninterface e0\n ip address 10.0.0.1/31\n");
        b.name = "b".into();
        let devices = [a, b];
        let f = mtu_mismatch(&devices, &Topology::infer(&devices));
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("9000"));
    }

    #[test]
    fn shadowed_acl_line_found() {
        let d = dev(
            "hostname r1\nip access-list extended A\n 10 permit tcp any any\n 20 permit tcp any any eq 80\n 30 deny ip any any\n",
        );
        let f = acl_shadowing(&d);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("line 20"));
        assert_eq!(f[0].check, "acl-shadowing");
    }

    #[test]
    fn partial_shadow_reports_lost_region_with_witness() {
        // Line 20 wants all TCP but line 10 already denied port 22: a
        // behaviour-relevant partial shadow with a concrete witness.
        let d = dev(
            "hostname r1\nip access-list extended A\n 10 deny tcp any any eq 22\n 20 permit tcp any any\n",
        );
        let f = acl_shadowing(&d);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].check, "acl-partial-shadow");
        assert_eq!(f[0].severity, Severity::Info);
        assert!(f[0].path.contains("line 20"));
        assert!(f[0].witness.contains(":22"), "witness names port 22: {}", f[0].witness);
    }

    #[test]
    fn partial_shadow_ignores_same_action_overlap_and_catch_alls() {
        // Same-action overlap (both permit) and an unconstrained final
        // deny: neither is worth a report.
        let d = dev(
            "hostname r1\nip access-list extended A\n 10 permit tcp any any eq 80\n 20 permit tcp any any\n 30 deny ip any any\n",
        );
        assert!(acl_shadowing(&d).is_empty());
    }

    #[test]
    fn dead_device_findings() {
        let d = dev(
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n shutdown\nrouter bgp 65001\n",
        );
        let f = dead_device(&d);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.witness == "all-interfaces-shutdown"));
        assert!(f.iter().any(|x| x.witness == "no-bgp-sessions"));
        // A live device is clean.
        let live = dev("hostname r2\ninterface e0\n ip address 10.0.0.2/24\n");
        assert!(dead_device(&live).is_empty());
    }

    #[test]
    fn run_all_aggregates() {
        let a = dev("hostname a\nntp server 1.1.1.1\ninterface e0\n ip address 10.0.0.1/24\n ip access-group NOPE in\n");
        let f = lint(std::slice::from_ref(&a));
        assert!(f.iter().any(|x| x.check == "undefined-reference"));
    }

    /// The registry invariant: every non-bridged catalog check is wired
    /// into PASSES, every PASSES check id is in the catalog, and no pass
    /// is registered twice. This is the regression test for the historical
    /// bug where `acl_shadowing` was exported but never run.
    #[test]
    fn registry_covers_every_check() {
        let mut from_passes: Vec<&str> = PASSES.iter().flat_map(|(_, ids, _)| ids.iter().copied()).collect();
        from_passes.sort();
        let dup = from_passes.windows(2).find(|w| w[0] == w[1]);
        assert!(dup.is_none(), "check id owned by two passes: {dup:?}");
        for c in CHECKS.iter().filter(|c| !c.bridged) {
            assert!(
                from_passes.contains(&c.id),
                "catalog check '{}' is not dispatched by any pass",
                c.id
            );
        }
        for id in &from_passes {
            assert!(
                CHECKS.iter().any(|c| c.id == *id && !c.bridged),
                "pass emits unregistered check '{id}'"
            );
        }
        let mut names: Vec<&str> = PASSES.iter().map(|(n, _, _)| *n).collect();
        names.sort();
        assert!(names.windows(2).all(|w| w[0] != w[1]), "duplicate pass name");
        // Specifically: the shadowing pass is present.
        assert!(PASSES.iter().any(|(n, _, _)| *n == "acl-shadowing"));
        // And the coverage-gap check is registered exactly once on each side.
        assert_eq!(
            CHECKS.iter().filter(|c| c.id == "unexercised-config").count(),
            1,
            "unexercised-config must appear exactly once in the catalog"
        );
        assert_eq!(
            from_passes.iter().filter(|id| **id == "unexercised-config").count(),
            1,
            "unexercised-config must be dispatched by exactly one pass"
        );
        assert_eq!(severity_of("unexercised-config"), Severity::Info);
    }

    #[test]
    fn fingerprints_are_stable_and_message_insensitive() {
        let mut a = Finding::new("acl-shadowing", "leaf1", "acl SERVERS/line 20", "old wording");
        let b = Finding::new("acl-shadowing", "leaf1", "acl SERVERS/line 20", "completely new wording");
        a.line = 7; // location does not participate either
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint().len(), 16);
        // Known-answer so the scheme cannot drift silently.
        assert_eq!(a.fingerprint(), format!("{:016x}", fnv1a64(&["acl-shadowing", "leaf1", "acl SERVERS/line 20"])));
        // Different path → different fingerprint.
        let c = Finding::new("acl-shadowing", "leaf1", "acl SERVERS/line 30", "x");
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Separator matters: ("ab","c","") vs ("a","bc","").
        assert_ne!(fnv1a64(&["ab", "c", ""]), fnv1a64(&["a", "bc", ""]));
    }

    #[test]
    fn inline_suppression_mutes_a_check() {
        let text = "hostname a\n! batnet-lint-disable unused-structure\ninterface e0\n ip address 10.0.0.1/24\nip access-list extended DEAD\n 10 permit ip any any\n";
        let noisy = dev("hostname a\ninterface e0\n ip address 10.0.0.1/24\nip access-list extended DEAD\n 10 permit ip any any\n");
        assert!(lint(std::slice::from_ref(&noisy)).iter().any(|f| f.check == "unused-structure"));
        let quiet = dev(text);
        let f = lint(std::slice::from_ref(&quiet));
        assert!(
            !f.iter().any(|x| x.check == "unused-structure"),
            "directive should mute the check: {f:?}"
        );
    }

    #[test]
    fn diagnostics_bridge_maps_severities() {
        let mut dg = diag::Diagnostics::new();
        dg.push(diag::Severity::UnrecognizedLine, 3, "mystery knob");
        dg.push(diag::Severity::UndefinedReference, 9, "route-map NOPE");
        dg.push(diag::Severity::ParseError, 12, "garbled");
        let f = diagnostics_findings("r1", dg.items());
        assert_eq!(f.len(), 3);
        assert!(f.iter().any(|x| x.check == "unrecognized-line" && x.severity == Severity::Warning));
        assert!(f.iter().any(|x| x.check == "undefined-reference" && x.severity == Severity::Error));
        assert!(f.iter().any(|x| x.check == "parse-error" && x.line == 12 && x.file == "r1"));
    }

    /// An `ip nat source list` naming no ACL is reported once, by the
    /// bridge, at the statement's line.
    #[test]
    fn undefined_nat_list_is_bridged_with_its_location() {
        let text = "hostname r1\nip nat pool P 203.0.113.1 203.0.113.8\nip nat source list NOPE pool P\n";
        let (device, diags) = batnet_config::parse_device("r1", text);
        let found = run_network(
            std::slice::from_ref(&device),
            &Topology::infer(std::slice::from_ref(&device)),
            &[("r1".to_string(), diags.items().to_vec())],
        );
        let undefined: Vec<&Finding> =
            found.iter().filter(|f| f.check == "undefined-reference").collect();
        assert_eq!(undefined.len(), 1, "{found:?}");
        assert_eq!((undefined[0].file.as_str(), undefined[0].line), ("r1", 3));
        assert_eq!(undefined[0].path, "line 3");
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!("warn".parse::<Severity>().unwrap(), Severity::Warning);
        assert_eq!("note".parse::<Severity>().unwrap(), Severity::Info);
        assert!("loud".parse::<Severity>().is_err());
        assert_eq!(Severity::Info.sarif_level(), "note");
    }
}
