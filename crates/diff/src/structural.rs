//! Layer 1: structural diff of the vendor-independent model.
//!
//! Every change is keyed by the same stable structure paths the lint
//! fingerprints use (`interface X`, `acl X`, `route-map X`,
//! `bgp neighbor A.B.C.D`, …), so a behavioral delta downstream can be
//! traced back to the configuration structure that moved. Where the VI
//! model records where a structure was defined, both sides' spans ride
//! along as witnesses.

use batnet_config::vi::{
    Acl, AclAction, BgpNeighbor, BgpProcess, Device, Interface, NextHop, OspfProcess, RouteMap,
    RouteMapClause, RouteMapMatch, RouteMapSet, SourceSpan, StaticRoute, Zone,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a structure changed between the two snapshots.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChangeKind {
    /// Present only in the after snapshot.
    Added,
    /// Present only in the before snapshot.
    Removed,
    /// Present in both, not equal.
    Modified,
}

impl fmt::Display for ChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ChangeKind::Added => "added",
            ChangeKind::Removed => "removed",
            ChangeKind::Modified => "modified",
        };
        write!(f, "{s}")
    }
}

/// One structural change, keyed by a stable structure path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StructChange {
    /// Device the structure lives on.
    pub device: String,
    /// Stable structure path (lint-fingerprint style), e.g. `acl SERVERS`.
    pub path: String,
    /// Added / removed / modified.
    pub kind: ChangeKind,
    /// Human-readable field-level summary of what moved.
    pub detail: String,
    /// Where the structure was defined in the before config, when known.
    pub before_src: Option<SourceSpan>,
    /// Where the structure was defined in the after config, when known.
    pub after_src: Option<SourceSpan>,
}

/// The structural layer of a snapshot diff.
#[derive(Clone, Default, Debug)]
pub struct StructuralDiff {
    /// Devices present only in the after snapshot.
    pub devices_added: Vec<String>,
    /// Devices present only in the before snapshot.
    pub devices_removed: Vec<String>,
    /// Per-structure changes on devices present in both.
    pub changes: Vec<StructChange>,
}

impl StructuralDiff {
    /// No device-set changes and no structure changes?
    pub fn is_empty(&self) -> bool {
        self.devices_added.is_empty() && self.devices_removed.is_empty() && self.changes.is_empty()
    }

    /// Total change count (device adds/removes count as one each).
    pub fn change_count(&self) -> usize {
        self.devices_added.len() + self.devices_removed.len() + self.changes.len()
    }

    /// Every device touched by a structural change (including adds and
    /// removes) — the seed set for data-plane cone pruning.
    pub fn changed_devices(&self) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = self.changes.iter().map(|c| c.device.clone()).collect();
        set.extend(self.devices_added.iter().cloned());
        set.extend(self.devices_removed.iter().cloned());
        set
    }
}

/// Diffs two device lists structure by structure.
pub fn diff_structural(before: &[Device], after: &[Device]) -> StructuralDiff {
    let b: BTreeMap<&str, &Device> = before.iter().map(|d| (d.name.as_str(), d)).collect();
    let a: BTreeMap<&str, &Device> = after.iter().map(|d| (d.name.as_str(), d)).collect();
    let mut diff = StructuralDiff::default();
    for name in a.keys() {
        if !b.contains_key(name) {
            diff.devices_added.push((*name).to_string());
        }
    }
    for name in b.keys() {
        if !a.contains_key(name) {
            diff.devices_removed.push((*name).to_string());
        }
    }
    for (name, db) in &b {
        if let Some(da) = a.get(name) {
            diff_device(db, da, &mut diff.changes);
        }
    }
    diff.changes.sort_by(|x, y| {
        (x.device.as_str(), x.path.as_str()).cmp(&(y.device.as_str(), y.path.as_str()))
    });
    diff
}

/// A span worth reporting: known locations only.
fn span(s: &SourceSpan) -> Option<SourceSpan> {
    if s.is_known() {
        Some(s.clone())
    } else {
        None
    }
}

fn push(
    changes: &mut Vec<StructChange>,
    device: &str,
    path: String,
    kind: ChangeKind,
    detail: String,
    before_src: Option<SourceSpan>,
    after_src: Option<SourceSpan>,
) {
    changes.push(StructChange {
        device: device.to_string(),
        path,
        kind,
        detail,
        before_src,
        after_src,
    });
}

/// Generic keyed-map comparison: added / removed / modified entries.
/// `same` is the equivalence test — span-insensitive for structures that
/// record where they were defined, so an unrelated edit shifting line
/// numbers does not read as a semantic change.
fn diff_map<T>(
    changes: &mut Vec<StructChange>,
    device: &str,
    prefix: &str,
    before: &BTreeMap<String, T>,
    after: &BTreeMap<String, T>,
    same: impl Fn(&T, &T) -> bool,
    describe: impl Fn(&T) -> String,
    modified: impl Fn(&T, &T) -> String,
    src_of: impl Fn(&T) -> Option<SourceSpan>,
) {
    for (k, vb) in before {
        match after.get(k) {
            None => push(
                changes,
                device,
                format!("{prefix} {k}"),
                ChangeKind::Removed,
                describe(vb),
                src_of(vb),
                None,
            ),
            Some(va) if !same(vb, va) => push(
                changes,
                device,
                format!("{prefix} {k}"),
                ChangeKind::Modified,
                modified(vb, va),
                src_of(vb),
                src_of(va),
            ),
            Some(_) => {}
        }
    }
    for (k, va) in after {
        if !before.contains_key(k) {
            push(
                changes,
                device,
                format!("{prefix} {k}"),
                ChangeKind::Added,
                describe(va),
                None,
                src_of(va),
            );
        }
    }
}

fn fmt_opt<T: fmt::Display>(v: &Option<T>) -> String {
    match v {
        Some(x) => x.to_string(),
        None => "none".to_string(),
    }
}

/// Appends `field: before -> after` when the two values differ.
fn field_change<T: PartialEq + fmt::Display>(out: &mut Vec<String>, name: &str, b: &T, a: &T) {
    if b != a {
        out.push(format!("{name}: {b} -> {a}"));
    }
}

fn describe_interface(i: &Interface) -> String {
    let mut parts = vec![match i.address {
        Some((ip, len)) => format!("{ip}/{len}"),
        None => "unaddressed".to_string(),
    }];
    if !i.enabled {
        parts.push("shutdown".to_string());
    }
    if let Some(acl) = &i.acl_in {
        parts.push(format!("acl-in {acl}"));
    }
    if let Some(acl) = &i.acl_out {
        parts.push(format!("acl-out {acl}"));
    }
    parts.join(", ")
}

fn modified_interface(b: &Interface, a: &Interface) -> String {
    let addr = |i: &Interface| match i.address {
        Some((ip, len)) => format!("{ip}/{len}"),
        None => "none".to_string(),
    };
    let mut out = Vec::new();
    field_change(&mut out, "address", &addr(b), &addr(a));
    field_change(&mut out, "enabled", &b.enabled, &a.enabled);
    field_change(&mut out, "acl-in", &fmt_opt(&b.acl_in), &fmt_opt(&a.acl_in));
    field_change(&mut out, "acl-out", &fmt_opt(&b.acl_out), &fmt_opt(&a.acl_out));
    field_change(&mut out, "ospf-cost", &fmt_opt(&b.ospf_cost), &fmt_opt(&a.ospf_cost));
    field_change(&mut out, "ospf-area", &fmt_opt(&b.ospf_area), &fmt_opt(&a.ospf_area));
    field_change(&mut out, "ospf-passive", &b.ospf_passive, &a.ospf_passive);
    field_change(&mut out, "zone", &fmt_opt(&b.zone), &fmt_opt(&a.zone));
    field_change(&mut out, "mtu", &b.mtu, &a.mtu);
    if b.secondary_addresses != a.secondary_addresses {
        out.push(format!(
            "secondaries: {} -> {}",
            b.secondary_addresses.len(),
            a.secondary_addresses.len()
        ));
    }
    field_change(
        &mut out,
        "description",
        &fmt_opt(&b.description),
        &fmt_opt(&a.description),
    );
    if out.is_empty() {
        "changed".to_string()
    } else {
        out.join("; ")
    }
}

/// ACL equivalence ignoring the definition span.
fn same_acl(b: &Acl, a: &Acl) -> bool {
    b.name == a.name && b.lines == a.lines
}

/// What a route-map clause means: everything but its span.
fn clause_meaning(c: &RouteMapClause) -> (u32, AclAction, &[RouteMapMatch], &[RouteMapSet]) {
    (c.seq, c.action, &c.matches, &c.sets)
}

/// Route-map equivalence ignoring the map's and its clauses' spans.
fn same_route_map(b: &RouteMap, a: &RouteMap) -> bool {
    b.name == a.name
        && b.clauses.iter().map(clause_meaning).eq(a.clauses.iter().map(clause_meaning))
}

/// BGP-neighbor equivalence ignoring the definition span.
fn same_bgp_neighbor(b: &BgpNeighbor, a: &BgpNeighbor) -> bool {
    b.peer_ip == a.peer_ip
        && b.remote_as == a.remote_as
        && b.import_policy == a.import_policy
        && b.export_policy == a.export_policy
        && b.next_hop_self == a.next_hop_self
        && b.send_community == a.send_community
        && b.description == a.description
}

/// Line-level ACL delta: `+`/`-` prefixed config text, capped.
fn modified_acl(b: &Acl, a: &Acl) -> String {
    const MAX_LINES: usize = 8;
    let btexts: Vec<&str> = b.lines.iter().map(|l| l.text.trim()).collect();
    let atexts: Vec<&str> = a.lines.iter().map(|l| l.text.trim()).collect();
    let mut out = Vec::new();
    for t in &atexts {
        if !btexts.contains(t) {
            out.push(format!("+ {t}"));
        }
    }
    for t in &btexts {
        if !atexts.contains(t) {
            out.push(format!("- {t}"));
        }
    }
    if out.is_empty() {
        // Same line texts, different order or metadata.
        return format!("lines reordered ({} -> {})", b.lines.len(), a.lines.len());
    }
    let extra = out.len().saturating_sub(MAX_LINES);
    out.truncate(MAX_LINES);
    if extra > 0 {
        out.push(format!("(+{extra} more)"));
    }
    out.join("; ")
}

fn describe_acl(a: &Acl) -> String {
    format!("{} lines", a.lines.len())
}

fn modified_route_map(b: &RouteMap, a: &RouteMap) -> String {
    let bseqs: BTreeSet<u32> = b.clauses.iter().map(|c| c.seq).collect();
    let aseqs: BTreeSet<u32> = a.clauses.iter().map(|c| c.seq).collect();
    let mut out = Vec::new();
    for seq in aseqs.difference(&bseqs) {
        out.push(format!("+ clause {seq}"));
    }
    for seq in bseqs.difference(&aseqs) {
        out.push(format!("- clause {seq}"));
    }
    for seq in bseqs.intersection(&aseqs) {
        let cb = b.clauses.iter().find(|c| c.seq == *seq).map(clause_meaning);
        let ca = a.clauses.iter().find(|c| c.seq == *seq).map(clause_meaning);
        if cb != ca {
            out.push(format!("~ clause {seq}"));
        }
    }
    if out.is_empty() {
        "changed".to_string()
    } else {
        out.join("; ")
    }
}

fn modified_bgp_neighbor(b: &BgpNeighbor, a: &BgpNeighbor) -> String {
    let mut out = Vec::new();
    field_change(&mut out, "remote-as", &b.remote_as, &a.remote_as);
    field_change(
        &mut out,
        "import-policy",
        &fmt_opt(&b.import_policy),
        &fmt_opt(&a.import_policy),
    );
    field_change(
        &mut out,
        "export-policy",
        &fmt_opt(&b.export_policy),
        &fmt_opt(&a.export_policy),
    );
    field_change(&mut out, "next-hop-self", &b.next_hop_self, &a.next_hop_self);
    field_change(&mut out, "send-community", &b.send_community, &a.send_community);
    if out.is_empty() {
        "changed".to_string()
    } else {
        out.join("; ")
    }
}

/// Static routes keyed `P -> NH`, where NH is `discard` for a null route.
fn static_routes(d: &Device) -> BTreeMap<String, &StaticRoute> {
    let key = |r: &StaticRoute| match r.next_hop {
        NextHop::Ip(ip) => format!("{} -> {ip}", r.prefix),
        NextHop::Discard => format!("{} -> discard", r.prefix),
    };
    d.static_routes.iter().map(|r| (key(r), r)).collect()
}

/// A BGP process's neighbours keyed by peer address.
fn bgp_neighbors(p: &BgpProcess) -> BTreeMap<String, &BgpNeighbor> {
    p.neighbors.iter().map(|n| (n.peer_ip.to_string(), n)).collect()
}

/// A routing process present on one side only is added or removed, as
/// `describe` puts it; present on both, it is modified when `fields`
/// lists a difference.
fn diff_process<P>(
    changes: &mut Vec<StructChange>,
    device: &str,
    path: &str,
    b: &Option<P>,
    a: &Option<P>,
    describe: impl Fn(ChangeKind, &P) -> String,
    fields: impl Fn(&P, &P) -> Vec<String>,
) {
    let (kind, detail) = match (b, a) {
        (None, None) => return,
        (Some(p), None) => (ChangeKind::Removed, describe(ChangeKind::Removed, p)),
        (None, Some(p)) => (ChangeKind::Added, describe(ChangeKind::Added, p)),
        (Some(pb), Some(pa)) => (ChangeKind::Modified, fields(pb, pa).join("; ")),
    };
    if !detail.is_empty() {
        push(changes, device, path.to_string(), kind, detail, None, None);
    }
}

/// What moved between two BGP processes, neighbours aside.
fn bgp_fields(pb: &BgpProcess, pa: &BgpProcess) -> Vec<String> {
    let mut out = Vec::new();
    field_change(&mut out, "asn", &pb.asn, &pa.asn);
    field_change(
        &mut out,
        "router-id",
        &fmt_opt(&pb.router_id),
        &fmt_opt(&pa.router_id),
    );
    let bn: BTreeSet<String> = pb.networks.iter().map(|p| p.to_string()).collect();
    let an: BTreeSet<String> = pa.networks.iter().map(|p| p.to_string()).collect();
    for p in an.difference(&bn) {
        out.push(format!("+ network {p}"));
    }
    for p in bn.difference(&an) {
        out.push(format!("- network {p}"));
    }
    field_change(
        &mut out,
        "redistribute-connected",
        &pb.redistribute_connected,
        &pa.redistribute_connected,
    );
    field_change(
        &mut out,
        "redistribute-static",
        &pb.redistribute_static,
        &pa.redistribute_static,
    );
    field_change(
        &mut out,
        "redistribute-ospf",
        &pb.redistribute_ospf,
        &pa.redistribute_ospf,
    );
    out
}

/// What moved between two OSPF processes.
fn ospf_fields(pb: &OspfProcess, pa: &OspfProcess) -> Vec<String> {
    let mut out = Vec::new();
    field_change(
        &mut out,
        "router-id",
        &fmt_opt(&pb.router_id),
        &fmt_opt(&pa.router_id),
    );
    field_change(
        &mut out,
        "reference-bandwidth",
        &pb.reference_bandwidth_mbps,
        &pa.reference_bandwidth_mbps,
    );
    field_change(
        &mut out,
        "redistribute-connected",
        &pb.redistribute_connected,
        &pa.redistribute_connected,
    );
    field_change(
        &mut out,
        "redistribute-static",
        &pb.redistribute_static,
        &pa.redistribute_static,
    );
    field_change(&mut out, "default-cost", &pb.default_cost, &pa.default_cost);
    out
}

fn describe_zone(z: &Zone) -> String {
    format!("{} interfaces", z.interfaces.len())
}

/// Each zone pair's filter as the engines resolve it, keyed `FROM -> TO`.
fn zone_acls(d: &Device) -> BTreeMap<String, Cow<'_, Acl>> {
    d.zone_policies
        .iter()
        .filter_map(|p| {
            let acl = d.zone_acl(&p.from_zone, &p.to_zone)?;
            Some((format!("{} -> {}", p.from_zone, p.to_zone), acl))
        })
        .collect()
}

/// Diffs one device present in both snapshots.
fn diff_device(b: &Device, a: &Device, changes: &mut Vec<StructChange>) {
    let dev = b.name.as_str();
    diff_map(
        changes,
        dev,
        "interface",
        &b.interfaces,
        &a.interfaces,
        |x, y| x == y,
        describe_interface,
        modified_interface,
        |_| None,
    );
    diff_map(
        changes,
        dev,
        "acl",
        &b.acls,
        &a.acls,
        same_acl,
        describe_acl,
        modified_acl,
        |acl| span(&acl.src),
    );
    diff_map(
        changes,
        dev,
        "route-map",
        &b.route_maps,
        &a.route_maps,
        same_route_map,
        |rm| format!("{} clauses", rm.clauses.len()),
        modified_route_map,
        |rm| span(&rm.src),
    );
    diff_map(
        changes,
        dev,
        "prefix-list",
        &b.prefix_lists,
        &a.prefix_lists,
        |x, y| x == y,
        |pl| format!("{} entries", pl.entries.len()),
        |pl_b, pl_a| format!("entries: {} -> {}", pl_b.entries.len(), pl_a.entries.len()),
        |_| None,
    );
    diff_map(
        changes,
        dev,
        "community-list",
        &b.community_lists,
        &a.community_lists,
        |x, y| x == y,
        |cl| format!("{} entries", cl.entries.len()),
        |cl_b, cl_a| format!("entries: {} -> {}", cl_b.entries.len(), cl_a.entries.len()),
        |_| None,
    );
    diff_map(
        changes,
        dev,
        "zone",
        &b.zones,
        &a.zones,
        |x, y| x == y,
        describe_zone,
        |zb, za| format!("interfaces: {:?} -> {:?}", zb.interfaces, za.interfaces),
        |_| None,
    );

    // Static routes: set semantics keyed by (prefix, next hop), so an
    // admin-distance change modifies its key.
    diff_map(
        changes,
        dev,
        "static",
        &static_routes(b),
        &static_routes(a),
        |x, y| x == y,
        |r| format!("distance {}", r.admin_distance),
        |rb, ra| format!("distance {} -> {}", rb.admin_distance, ra.admin_distance),
        |_| None,
    );
    if let (Some(pb), Some(pa)) = (&b.bgp, &a.bgp) {
        diff_map(
            changes,
            dev,
            "bgp neighbor",
            &bgp_neighbors(pb),
            &bgp_neighbors(pa),
            |x, y| same_bgp_neighbor(x, y),
            |n| format!("remote-as {}", n.remote_as),
            |x, y| modified_bgp_neighbor(x, y),
            |n| span(&n.src),
        );
    }
    let asn = |_, p: &BgpProcess| format!("as {}", p.asn);
    diff_process(changes, dev, "bgp", &b.bgp, &a.bgp, asn, bgp_fields);
    let process = |kind: ChangeKind, _: &OspfProcess| format!("process {kind}");
    diff_process(changes, dev, "ospf", &b.ospf, &a.ospf, process, ospf_fields);

    diff_map(
        changes,
        dev,
        "zone-policy",
        &zone_acls(b),
        &zone_acls(a),
        |x, y| same_acl(x, y),
        |acl| format!("acl {}", acl.name),
        |x, y| modified_acl(x, y),
        |acl| span(&acl.src),
    );

    // NAT rules: positional (evaluation order is semantic).
    if b.nat_rules != a.nat_rules {
        push(
            changes,
            dev,
            "nat".to_string(),
            ChangeKind::Modified,
            format!("rules: {} -> {}", b.nat_rules.len(), a.nat_rules.len()),
            None,
            None,
        );
    }

    // Device-level scalars.
    let mut out = Vec::new();
    field_change(&mut out, "zone-default-permit", &b.zone_default_permit, &a.zone_default_permit);
    field_change(&mut out, "stateful", &b.stateful, &a.stateful);
    if b.ntp_servers != a.ntp_servers {
        out.push(format!("ntp-servers: {} -> {}", b.ntp_servers.len(), a.ntp_servers.len()));
    }
    if b.dns_servers != a.dns_servers {
        out.push(format!("dns-servers: {} -> {}", b.dns_servers.len(), a.dns_servers.len()));
    }
    if !out.is_empty() {
        push(
            changes,
            dev,
            "device".to_string(),
            ChangeKind::Modified,
            out.join("; "),
            None,
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    fn dev(name: &str, text: &str) -> Device {
        parse_device(name, text).0
    }

    #[test]
    fn identical_devices_diff_empty() {
        let d = dev("r1", "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n");
        let diff = diff_structural(&[d.clone()], &[d]);
        assert!(diff.is_empty(), "{:?}", diff.changes);
    }

    #[test]
    fn added_acl_line_reported_with_spans() {
        let before = dev(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip access-list extended A\n 10 permit ip any any\n",
        );
        let after = dev(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip access-list extended A\n 5 deny tcp any any eq 179\n 10 permit ip any any\n",
        );
        let diff = diff_structural(&[before], &[after]);
        assert_eq!(diff.changes.len(), 1);
        let c = &diff.changes[0];
        assert_eq!(c.path, "acl A");
        assert_eq!(c.kind, ChangeKind::Modified);
        assert!(c.detail.contains("+ 5 deny tcp any any eq 179"), "{}", c.detail);
        assert!(c.before_src.is_some() && c.after_src.is_some());
        assert_eq!(diff.changed_devices().into_iter().collect::<Vec<_>>(), ["r1"]);
    }

    #[test]
    fn device_set_changes_reported() {
        let d1 = dev("r1", "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n");
        let d2 = dev("r2", "hostname r2\ninterface e0\n ip address 10.0.1.1/24\n");
        let diff = diff_structural(&[d1.clone()], &[d1, d2]);
        assert_eq!(diff.devices_added, ["r2"]);
        assert!(diff.devices_removed.is_empty());
        assert!(diff.changes.is_empty());
    }

    #[test]
    fn swap_swaps_added_and_removed() {
        let before = dev("r1", "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n");
        let after = dev(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\ninterface e1\n ip address 10.9.0.1/24\n",
        );
        let fwd = diff_structural(std::slice::from_ref(&before), std::slice::from_ref(&after));
        let rev = diff_structural(&[after], &[before]);
        assert_eq!(fwd.changes.len(), 1);
        assert_eq!(rev.changes.len(), 1);
        assert_eq!(fwd.changes[0].kind, ChangeKind::Added);
        assert_eq!(rev.changes[0].kind, ChangeKind::Removed);
        assert_eq!(fwd.changes[0].path, rev.changes[0].path);
    }
}
