//! Which structures can a query suite exercise at all?
//!
//! The coverage engine (`batnet-coverage`) classifies every ACL line,
//! route-map clause, and BGP neighbor stanza as *exercised*,
//! *shadowed-but-present*, or *never-touched*, and reads every one of
//! those verdicts off lint's passes. The third bucket is a pure
//! reachability-of-reference property of the VI model — no BDD work
//! needed — computed here by [`never_touched_structures`] and reported
//! as the `unexercised-config` check; the shadowed bucket is what the
//! `acl-shadowing` and `route-map-dead-clause` checks find, and a
//! neighbor's session verdict is [`batnet_config::Topology::bgp_pairing`],
//! the rule `bgp-compat` and routing apply.
//!
//! A structure is never-touched when no query of the suite (reachability
//! starts, traceroutes, lint BDD passes) can reach it:
//!
//! * an ACL that is never attached to an interface, zone policy, or NAT
//!   rule — or attached only to inactive (shutdown/unaddressed)
//!   interfaces that forwarding never consults;
//! * a route-map that no BGP neighbor applies as import or export
//!   policy (route propagation never evaluates it);
//! * a BGP neighbor whose peer address is owned by no active interface
//!   in the snapshot (the session can never even be attempted).

use crate::Finding;
use batnet_config::vi::{Device, SourceSpan};
use batnet_config::Topology;
use batnet_net::Ip;

/// A reference to one coverable structure on a device.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum StructureRef {
    /// An ACL by name.
    Acl(String),
    /// A route map by name.
    RouteMap(String),
    /// A BGP neighbor by peer address.
    BgpNeighbor(Ip),
}

impl StructureRef {
    /// The finding path / coverage item path for this structure.
    pub fn path(&self) -> String {
        match self {
            StructureRef::Acl(n) => format!("acl {n}"),
            StructureRef::RouteMap(n) => format!("route-map {n}"),
            StructureRef::BgpNeighbor(ip) => format!("neighbor {ip}"),
        }
    }
}

/// One structure no query suite can exercise, with the reason.
#[derive(Clone, Debug)]
pub struct NeverTouched {
    /// Owning device name.
    pub device: String,
    /// Which structure.
    pub what: StructureRef,
    /// Where it was defined.
    pub span: SourceSpan,
    /// Why no query reaches it.
    pub reason: String,
}

/// Every never-touched structure in the snapshot, deterministically
/// ordered (device, then structure kind, then name/address). `topo` must
/// be inferred from `devices`: its address-owner index says which peer
/// addresses resolve.
pub fn never_touched_structures(devices: &[Device], topo: &Topology) -> Vec<NeverTouched> {
    let mut out = Vec::new();
    for d in devices {
        for (name, acl) in &d.acls {
            let mut active_attach = false;
            let mut inactive_attach = false;
            for iface in d.interfaces.values() {
                if iface.acl_in.as_deref() == Some(name) || iface.acl_out.as_deref() == Some(name) {
                    if iface.is_active() {
                        active_attach = true;
                    } else {
                        inactive_attach = true;
                    }
                }
            }
            let zone_used = d.zone_policies.iter().any(|zp| zp.acl == *name);
            let nat_used = d.nat_rules.iter().any(|r| r.acl.as_ref() == Some(name));
            if active_attach || zone_used || nat_used {
                continue;
            }
            let reason = if inactive_attach {
                "attached only to inactive interfaces; forwarding never consults it"
            } else {
                "never attached to an interface, zone policy, or NAT rule"
            };
            out.push(NeverTouched {
                device: d.name.clone(),
                what: StructureRef::Acl(name.clone()),
                span: acl.src.clone(),
                reason: reason.to_string(),
            });
        }
        for (name, rm) in &d.route_maps {
            let referenced = d.bgp.as_ref().is_some_and(|bgp| {
                bgp.neighbors.iter().any(|nb| {
                    nb.import_policy.as_deref() == Some(name)
                        || nb.export_policy.as_deref() == Some(name)
                })
            });
            if !referenced {
                out.push(NeverTouched {
                    device: d.name.clone(),
                    what: StructureRef::RouteMap(name.clone()),
                    span: rm.src.clone(),
                    reason: "no BGP neighbor applies it as import or export policy".to_string(),
                });
            }
        }
        if let Some(bgp) = &d.bgp {
            for nb in &bgp.neighbors {
                if topo.owners(nb.peer_ip).next().is_none() {
                    out.push(NeverTouched {
                        device: d.name.clone(),
                        what: StructureRef::BgpNeighbor(nb.peer_ip),
                        span: nb.src.clone(),
                        reason: format!(
                            "peer {} is owned by no active interface in the snapshot",
                            nb.peer_ip
                        ),
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| (&a.device, &a.what).cmp(&(&b.device, &b.what)));
    out
}

/// The `unexercised-config` pass: one finding per never-touched
/// structure. These are coverage gaps, not outright errors — a config
/// the query suite cannot exercise is config the analysis says nothing
/// about (untested config, per the coverage literature).
pub fn unexercised_config(devices: &[Device], topo: &Topology) -> Vec<Finding> {
    never_touched_structures(devices, topo)
        .into_iter()
        .map(|nt| {
            let path = nt.what.path();
            let message = format!("{path} can never be exercised: {}", nt.reason);
            Finding::new("unexercised-config", &nt.device, path, message).at(&nt.span)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    fn never_touched(devices: &[Device]) -> Vec<NeverTouched> {
        never_touched_structures(devices, &Topology::infer(devices))
    }

    #[test]
    fn unattached_acl_and_unreferenced_route_map_flagged() {
        let text = "\
hostname r1
interface e0
 ip address 10.0.0.1/24
 ip access-group USED in
ip access-list extended USED
 10 permit ip any any
ip access-list extended ORPHAN
 10 deny ip any any
route-map RM-LOST permit 10
 set local-preference 99
";
        let (d, _) = parse_device("r1", text);
        let nts = never_touched(&[d]);
        let paths: Vec<String> = nts.iter().map(|n| n.what.path()).collect();
        assert_eq!(paths, vec!["acl ORPHAN", "route-map RM-LOST"]);
        assert!(nts[0].span.is_known(), "gap findings carry source spans");
    }

    #[test]
    fn acl_on_shutdown_interface_is_never_touched() {
        let text = "\
hostname r1
interface e0
 ip address 10.0.0.1/24
 ip access-group A in
 shutdown
ip access-list extended A
 10 permit ip any any
";
        let (d, _) = parse_device("r1", text);
        let nts = never_touched(&[d]);
        assert_eq!(nts.len(), 1);
        assert!(nts[0].reason.contains("inactive interfaces"));
    }

    #[test]
    fn unresolvable_bgp_neighbor_flagged_and_resolvable_not() {
        let r1 = "\
hostname r1
interface e0
 ip address 172.16.0.0/31
router bgp 65001
 neighbor 172.16.0.1 remote-as 65002
 neighbor 192.0.2.99 remote-as 65099
";
        let r2 = "\
hostname r2
interface e0
 ip address 172.16.0.1/31
router bgp 65002
 neighbor 172.16.0.0 remote-as 65001
";
        let (d1, _) = parse_device("r1", r1);
        let (d2, _) = parse_device("r2", r2);
        let nts = never_touched(&[d1, d2]);
        let paths: Vec<String> = nts.iter().map(|n| n.what.path()).collect();
        assert_eq!(paths, vec!["neighbor 192.0.2.99"]);
    }

    #[test]
    fn findings_flow_through_registry() {
        let text = "\
hostname r1
ip access-list extended ORPHAN
 10 deny ip any any
";
        let (d, _) = parse_device("r1", text);
        let devices = [d];
        let findings = crate::run_all(&devices, &Topology::infer(&devices));
        assert!(
            findings
                .iter()
                .any(|f| f.check == "unexercised-config" && f.path == "acl ORPHAN"),
            "run_all dispatches the unexercised-config pass: {findings:?}"
        );
    }
}
