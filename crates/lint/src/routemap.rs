//! Symbolic route-map analysis: dead-clause detection over *route* space.
//!
//! Route maps match on route attributes, not packet headers, so this
//! analysis builds a second BDD space whose variables describe a route:
//! its prefix (network bits + length), tag, MED, one indicator bit per
//! community the device's config mentions, and one uninterpreted bit per
//! AS-path regex (sound: an uninterpreted condition never makes a clause
//! *appear* dead). A clause is dead when every route it matches is
//! already claimed by earlier clauses — the same first-match carving the
//! packet ACL compiler uses, pointed at a different domain. This powers
//! the route-map half of the §5.3 refactoring use-case.

use crate::Finding;
use batnet_bdd::{Bdd, Cube, NodeId};
use batnet_config::vi::{AclAction, Device, PrefixListEntry, RouteMap, RouteMapMatch};
use batnet_net::Community;
use std::collections::BTreeMap;

/// Variable layout for the route space.
///
/// Crate-visible so the policy-drift pass can compile route maps from
/// *several* devices into one shared manager (equal functions then get
/// equal node ids, which makes semantic comparison a pointer compare).
pub(crate) struct RouteVars {
    /// Network address bits (MSB first): vars 0..32.
    /// Prefix length (6 bits): vars 32..38.
    /// Tag (16 bits): vars 38..54.
    /// MED (16 bits): vars 54..70.
    /// Community indicator bits, then regex bits.
    community_bits: BTreeMap<Community, u32>,
    regex_bits: BTreeMap<String, u32>,
}

const NET_BASE: u32 = 0;
const LEN_BASE: u32 = 32;
const TAG_BASE: u32 = 38;
const MED_BASE: u32 = 54;
const EXTRA_BASE: u32 = 70;

impl RouteVars {
    fn new(device: &Device) -> (Bdd, RouteVars) {
        RouteVars::for_devices(&[device])
    }

    /// Allocates a route space covering every community and AS-path regex
    /// any of `devices` mentions. The same community (or regex string) on
    /// two devices shares one indicator bit, so their compiled policies
    /// are directly comparable. Callers must pass `devices` in a
    /// deterministic order (the drift pass sorts by name).
    pub(crate) fn for_devices(devices: &[&Device]) -> (Bdd, RouteVars) {
        let mut community_bits = BTreeMap::new();
        let mut next = EXTRA_BASE;
        for device in devices {
            for cl in device.community_lists.values() {
                for e in &cl.entries {
                    community_bits.entry(e.community).or_insert_with(|| {
                        let v = next;
                        next += 1;
                        v
                    });
                }
            }
        }
        let mut regex_bits = BTreeMap::new();
        for device in devices {
            for rm in device.route_maps.values() {
                for clause in &rm.clauses {
                    for m in &clause.matches {
                        if let RouteMapMatch::AsPathRegex(re) = m {
                            regex_bits.entry(re.clone()).or_insert_with(|| {
                                let v = next;
                                next += 1;
                                v
                            });
                        }
                    }
                }
            }
        }
        (
            Bdd::new(next),
            RouteVars {
                community_bits,
                regex_bits,
            },
        )
    }

    /// `value == field` over `bits` variables starting at `base`.
    fn value(&self, bdd: &mut Bdd, base: u32, bits: u32, value: u64) -> NodeId {
        bdd.value_cube(base, bits, value)
    }

    /// `lo <= field <= hi` over `bits` variables at `base`, by masked
    /// block decomposition.
    fn range(&self, bdd: &mut Bdd, base: u32, bits: u32, lo: u64, hi: u64) -> NodeId {
        let mut acc = NodeId::FALSE;
        let mut cur = lo;
        while cur <= hi {
            let align = if cur == 0 { bits } else { cur.trailing_zeros().min(bits) };
            let span = 64 - (hi - cur + 1).leading_zeros() - 1;
            let take = align.min(span);
            let mut block = NodeId::TRUE;
            for i in 0..bits - take {
                let bit = (cur >> (bits - 1 - i)) & 1 == 1;
                let lit = bdd.literal(base + i, bit);
                block = bdd.and(block, lit);
            }
            acc = bdd.or(acc, block);
            cur += 1u64 << take;
            if cur == 0 {
                break; // wrapped
            }
        }
        acc
    }

    /// The routes matched by one prefix-list entry.
    fn prefix_entry(&self, bdd: &mut Bdd, e: &PrefixListEntry) -> NodeId {
        // Network containment: the candidate's top entry.len bits equal
        // the entry prefix's.
        let mut net = NodeId::TRUE;
        for i in 0..e.prefix.len() as u32 {
            let bit = (e.prefix.network().0 >> (31 - i)) & 1 == 1;
            let lit = bdd.literal(NET_BASE + i, bit);
            net = bdd.and(net, lit);
        }
        // Length window.
        let (lo, hi) = match (e.ge, e.le) {
            (None, None) => (e.prefix.len() as u64, e.prefix.len() as u64),
            (ge, le) => (
                ge.map(u64::from).unwrap_or(e.prefix.len() as u64),
                le.map(u64::from).unwrap_or(32),
            ),
        };
        let len = self.range(bdd, LEN_BASE, 6, lo, hi.min(63));
        bdd.and(net, len)
    }

    /// The routes matched by one `match` line.
    fn match_line(&self, bdd: &mut Bdd, device: &Device, m: &RouteMapMatch) -> NodeId {
        match m {
            RouteMapMatch::PrefixLists(names) => {
                let mut acc = NodeId::FALSE;
                for n in names {
                    let Some(pl) = device.prefix_lists.get(n) else {
                        continue; // undefined list: matches nothing
                    };
                    // First-match carving within the list.
                    let mut remaining = NodeId::TRUE;
                    for e in &pl.entries {
                        let s = self.prefix_entry(bdd, e);
                        let hit = bdd.and(remaining, s);
                        if e.action == batnet_config::vi::AclAction::Permit {
                            acc = bdd.or(acc, hit);
                        }
                        remaining = bdd.diff(remaining, s);
                    }
                }
                acc
            }
            RouteMapMatch::CommunityLists(names) => {
                let mut acc = NodeId::FALSE;
                for n in names {
                    let Some(cl) = device.community_lists.get(n) else {
                        continue;
                    };
                    // For each community, the first entry mentioning it
                    // decides; the route matches if any community with an
                    // effective permit is present.
                    let mut decided: BTreeMap<Community, bool> = BTreeMap::new();
                    for e in &cl.entries {
                        decided
                            .entry(e.community)
                            .or_insert(e.action == batnet_config::vi::AclAction::Permit);
                    }
                    for (c, permit) in decided {
                        if permit {
                            let bit = self.community_bits[&c];
                            let v = bdd.var(bit);
                            acc = bdd.or(acc, v);
                        }
                    }
                }
                acc
            }
            RouteMapMatch::AsPathRegex(re) => bdd.var(self.regex_bits[re]),
            RouteMapMatch::Metric(m) => self.value(bdd, MED_BASE, 16, *m as u64 & 0xffff),
            RouteMapMatch::Tag(t) => self.value(bdd, TAG_BASE, 16, *t as u64 & 0xffff),
            // Protocol matches partition a dimension we do not model;
            // treat as uninterpreted-true (conservative: never creates a
            // false dead-clause report, may miss some).
            RouteMapMatch::Protocol(_) => NodeId::TRUE,
        }
    }

    /// The routes matched by a whole clause (conjunction of lines).
    fn clause(&self, bdd: &mut Bdd, device: &Device, matches: &[RouteMapMatch]) -> NodeId {
        let mut acc = NodeId::TRUE;
        for m in matches {
            let s = self.match_line(bdd, device, m);
            acc = bdd.and(acc, s);
        }
        acc
    }
}

/// The set of routes a route map *accepts*: union of the fresh (not yet
/// claimed) match sets of its permit clauses, by first-match carving.
/// `set` actions are attribute rewrites and do not change acceptance, so
/// they are ignored here; this is the comparison function the
/// policy-drift pass uses.
pub(crate) fn permit_set(bdd: &mut Bdd, vars: &RouteVars, device: &Device, rm: &RouteMap) -> NodeId {
    let mut claimed = NodeId::FALSE;
    let mut permits = NodeId::FALSE;
    for clause in &rm.clauses {
        let set = vars.clause(bdd, device, &clause.matches);
        let fresh = bdd.diff(set, claimed);
        if clause.action == AclAction::Permit {
            permits = bdd.or(permits, fresh);
        }
        claimed = bdd.or(claimed, set);
    }
    permits
}

/// Renders a route-space cube as a concrete witness prefix (don't-care
/// bits resolve to 0, the numerically smallest completion).
pub(crate) fn cube_route(cube: &Cube) -> String {
    let net = cube.field(NET_BASE, 32) as u32;
    let len = cube.field(LEN_BASE, 6).min(32);
    format!(
        "{}.{}.{}.{}/{len}",
        net >> 24,
        (net >> 16) & 0xff,
        (net >> 8) & 0xff,
        net & 0xff
    )
}

/// Dead clauses of one route map: clauses whose match set is fully
/// covered by earlier clauses.
fn dead_clauses(device: &Device, rm: &RouteMap) -> Vec<u32> {
    let (mut bdd, vars) = RouteVars::new(device);
    let mut claimed = NodeId::FALSE;
    let mut dead = Vec::new();
    for clause in &rm.clauses {
        let set = vars.clause(&mut bdd, device, &clause.matches);
        let fresh = bdd.diff(set, claimed);
        if fresh == NodeId::FALSE {
            dead.push(clause.seq);
        }
        claimed = bdd.or(claimed, set);
    }
    dead
}

/// The lint entry point: dead clauses across every route map of a device.
pub fn route_map_dead_clauses(device: &Device) -> Vec<Finding> {
    let mut out = Vec::new();
    for rm in device.route_maps.values() {
        for seq in dead_clauses(device, rm) {
            out.push(
                Finding::new(
                    "route-map-dead-clause",
                    &device.name,
                    format!("route-map {}/clause {seq}", rm.name),
                    format!(
                        "route-map {} clause {seq} can never match (covered by earlier clauses)",
                        rm.name
                    ),
                )
                .at(&rm.src),
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

    #[test]
    fn shadowed_prefix_clause_is_dead() {
        let d = dev(
            "hostname t\n\
             ip prefix-list WIDE seq 5 permit 10.0.0.0/8 le 32\n\
             ip prefix-list NARROW seq 5 permit 10.1.0.0/16 le 24\n\
             route-map RM permit 10\n match ip address prefix-list WIDE\n\
             route-map RM permit 20\n match ip address prefix-list NARROW\n\
             route-map RM permit 30\n",
        );
        let dead = dead_clauses(&d, &d.route_maps["RM"]);
        assert_eq!(dead, vec![20], "NARROW ⊆ WIDE, final match-all is live");
    }

    #[test]
    fn match_all_shadows_everything_after() {
        let d = dev(
            "hostname t\n\
             route-map RM permit 10\n\
             route-map RM deny 20\n match tag 7\n",
        );
        let dead = dead_clauses(&d, &d.route_maps["RM"]);
        assert_eq!(dead, vec![20]);
    }

    #[test]
    fn disjoint_clauses_all_live() {
        let d = dev(
            "hostname t\n\
             route-map RM permit 10\n match tag 7\n\
             route-map RM permit 20\n match tag 9\n\
             route-map RM deny 99\n",
        );
        assert!(dead_clauses(&d, &d.route_maps["RM"]).is_empty());
    }

    #[test]
    fn regex_clauses_conservative() {
        // Two different regexes: neither shadows the other (uninterpreted
        // bits), and a later narrower regex clause is NOT reported dead.
        let d = dev(
            "hostname t\n\
             route-map RM permit 10\n match as-path regex _65001_\n\
             route-map RM permit 20\n match as-path regex _65002_\n",
        );
        assert!(dead_clauses(&d, &d.route_maps["RM"]).is_empty());
        // But the *same* regex twice: the second is dead.
        let d2 = dev(
            "hostname t\n\
             route-map RM permit 10\n match as-path regex _65001_\n\
             route-map RM permit 20\n match as-path regex _65001_\n",
        );
        assert_eq!(dead_clauses(&d2, &d2.route_maps["RM"]), vec![20]);
    }

    #[test]
    fn community_shadowing() {
        let d = dev(
            "hostname t\n\
             ip community-list standard CL1 permit 65001:100\n\
             ip community-list standard CL2 permit 65001:100\n\
             route-map RM permit 10\n match community CL1\n\
             route-map RM permit 20\n match community CL2\n",
        );
        assert_eq!(dead_clauses(&d, &d.route_maps["RM"]), vec![20]);
    }

    #[test]
    fn ge_le_windows_respected() {
        // Clause 10 permits /16-/24; clause 20 permits /25-/28 of the
        // same space — live, not shadowed.
        let d = dev(
            "hostname t\n\
             ip prefix-list A seq 5 permit 10.0.0.0/8 ge 16 le 24\n\
             ip prefix-list B seq 5 permit 10.0.0.0/8 ge 25 le 28\n\
             route-map RM permit 10\n match ip address prefix-list A\n\
             route-map RM permit 20\n match ip address prefix-list B\n",
        );
        assert!(dead_clauses(&d, &d.route_maps["RM"]).is_empty());
    }

    #[test]
    fn lint_wrapper_emits_findings() {
        let d = dev(
            "hostname t\nroute-map RM permit 10\nroute-map RM permit 20\n match tag 3\n",
        );
        let f = route_map_dead_clauses(&d);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("clause 20"));
    }
}
