//! FIB construction: main RIB → forwarding table.
//!
//! The FIB is what both analysis engines consume: for every prefix, the
//! resolved action — deliver onto a connected interface (with the concrete
//! ARP next hop), forward out an interface towards a gateway, or drop.
//! Resolution is recursive: a BGP route's next hop may itself resolve
//! through an IGP route, which resolves to a connected interface.
//!
//! Entries share their ECMP sets (§4.1.3's lesson applied to the FIB):
//! a device has far fewer distinct sets than entries, so each distinct
//! set is resolved once and stored once, and entries hold [`NextHops`]
//! handles to it.

use crate::error::RoutingError;
use crate::rib::MainRib;
use crate::routes::{MainNextHop, MainRoute};
use batnet_net::{Ip, Prefix};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Maximum recursive-resolution depth; beyond this the route is considered
/// unresolvable (defensive: rib-internal next-hop cycles).
const MAX_RESOLUTION_DEPTH: usize = 8;

/// A fully resolved next hop.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FibNextHop {
    /// Egress interface.
    pub iface: String,
    /// The IP the packet is handed to: the gateway for forwarded traffic,
    /// or `None` when the destination itself is on the connected subnet.
    pub gateway: Option<Ip>,
}

/// An ECMP set: resolved next hops in ascending order, each once. Clones
/// share one allocation, and [`Fib::build`] makes every entry of a device
/// that forwards the same way hold the same one. Derefs to the hops.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct NextHops(Arc<[FibNextHop]>);

impl NextHops {
    /// The set of `hops`: sorted, with repeats collapsed.
    pub fn new(mut hops: Vec<FibNextHop>) -> NextHops {
        hops.sort_unstable();
        hops.dedup();
        NextHops(hops.into())
    }
}

impl Deref for NextHops {
    type Target = [FibNextHop];
    fn deref(&self) -> &[FibNextHop] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a NextHops {
    type Item = &'a FibNextHop;
    type IntoIter = std::slice::Iter<'a, FibNextHop>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Prints the hops as a list, exactly as a `Vec` of them prints.
impl fmt::Debug for NextHops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What happens to packets matching a FIB entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FibAction {
    /// Forward out one of these next hops (ECMP set, deterministic order).
    Forward(NextHops),
    /// Drop: explicit discard route.
    Discard,
    /// Drop: the route's next hop could not be resolved.
    Unresolved,
}

/// One FIB entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Resolved action.
    pub action: FibAction,
    /// The protocol of the winning RIB route (annotation for traceroute
    /// output and violation explanations, §4.4.3).
    pub protocol: batnet_config::vi::RouteProtocol,
}

impl FibEntry {
    /// The ECMP next-hop set, or a typed error when the entry does not
    /// forward. Callers that previously pattern-matched and panicked on
    /// "unexpected action" states use this instead.
    pub fn forward_hops(&self) -> Result<&[FibNextHop], RoutingError> {
        match &self.action {
            FibAction::Forward(hops) => Ok(hops),
            FibAction::Discard => Err(RoutingError::NotForwarding {
                prefix: self.prefix,
                action: "discard",
            }),
            FibAction::Unresolved => Err(RoutingError::NotForwarding {
                prefix: self.prefix,
                action: "unresolved",
            }),
        }
    }
}

/// A device's forwarding table.
///
/// Invariant: `entries` is in strictly increasing [`Prefix`] order —
/// `(network, len)`, the pre-order of the binary trie over destination
/// bits — so every prefix appears at most once. [`Fib::build`] is the only
/// constructor and gets it from the RIB's `BTreeMap` iteration.
/// [`Fib::lookup`] binary-searches on it and the data plane's FIB encoder
/// recurses over it; a new constructor must sort and deduplicate.
#[derive(Clone, Debug, Default)]
pub struct Fib {
    entries: Vec<FibEntry>,
}

impl Fib {
    /// Builds the FIB from a main RIB by resolving every best route.
    ///
    /// An entry's action depends only on the next hops of its best
    /// routes: `resolve(r, 0)` reads nothing of `r` but `r.next_hop`,
    /// because the self-reference guard applies only below the top level.
    /// So each distinct list of next hops is resolved once, and each
    /// distinct resolved set is allocated once.
    pub fn build(rib: &MainRib) -> Fib {
        let mut memo: HashMap<Vec<&MainNextHop>, FibAction> = HashMap::new();
        let mut sets: HashSet<NextHops> = HashSet::new();
        let mut key: Vec<&MainNextHop> = Vec::new();
        let mut entries = Vec::with_capacity(rib.prefix_count());
        for (prefix, routes) in rib.iter_best() {
            let Some(first) = routes.first() else { continue };
            key.clear();
            key.extend(routes.iter().map(|r| &r.next_hop));
            let action = match memo.get(key.as_slice()) {
                Some(action) => action.clone(),
                None => {
                    let action = action_of(rib, routes, &mut sets);
                    memo.insert(key.clone(), action.clone());
                    action
                }
            };
            entries.push(FibEntry {
                prefix: *prefix,
                action,
                protocol: first.protocol,
            });
        }
        Fib { entries }
    }

    /// Longest-prefix-match lookup with a typed miss: like
    /// [`Fib::lookup`] but a missing entry is a [`RoutingError::NoRoute`]
    /// rather than `None`, for callers that treat a miss as a failure.
    pub fn resolve(&self, ip: Ip) -> Result<&FibEntry, RoutingError> {
        self.lookup(ip).ok_or(RoutingError::NoRoute { dst: ip })
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, ip: Ip) -> Option<&FibEntry> {
        // Entries are in prefix order; LPM via linear scan would be O(n).
        // Instead exploit that entries are sorted by (network, len): find
        // the candidates by probing each length, like the RIB does.
        for len in (0..=32u8).rev() {
            let p = Prefix::new(ip, len);
            if let Ok(i) = self.entries.binary_search_by(|e| e.prefix.cmp(&p)) {
                return Some(&self.entries[i]);
            }
        }
        None
    }

    /// All entries, in strictly increasing `(network, len)` order (see the
    /// type's invariant).
    pub fn entries(&self) -> &[FibEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct ECMP sets the entries hold, counted by
    /// allocation: one per distinct set for a table [`Fib::build`] made.
    pub fn hop_sets(&self) -> usize {
        let mut sets: Vec<*const FibNextHop> = self
            .entries
            .iter()
            .filter_map(|e| match &e.action {
                FibAction::Forward(hops) => Some(hops.as_ptr()),
                _ => None,
            })
            .collect();
        sets.sort_unstable();
        sets.dedup();
        sets.len()
    }
}

/// The action of one prefix's best routes. A forwarding set already in
/// `sets` is shared, not allocated again.
fn action_of(rib: &MainRib, routes: &[MainRoute], sets: &mut HashSet<NextHops>) -> FibAction {
    match merge(routes.iter().map(|r| resolve(rib, r, 0))) {
        Resolution::Hops(hops) => {
            let hops = NextHops::new(hops);
            if let Some(shared) = sets.get(&hops) {
                return FibAction::Forward(shared.clone());
            }
            sets.insert(hops.clone());
            FibAction::Forward(hops)
        }
        Resolution::Discard => FibAction::Discard,
        Resolution::Unresolved => FibAction::Unresolved,
    }
}

enum Resolution {
    Hops(Vec<FibNextHop>),
    Discard,
    Unresolved,
}

/// Merges the resolutions of an ECMP set's routes: their hops if any
/// route forwards, else a discard if any route discards.
fn merge(parts: impl Iterator<Item = Resolution>) -> Resolution {
    let mut hops = Vec::new();
    let mut discard = false;
    for part in parts {
        match part {
            Resolution::Hops(h) => hops.extend(h),
            Resolution::Discard => discard = true,
            Resolution::Unresolved => {}
        }
    }
    if !hops.is_empty() {
        Resolution::Hops(hops)
    } else if discard {
        Resolution::Discard
    } else {
        Resolution::Unresolved
    }
}

fn resolve(rib: &MainRib, route: &MainRoute, depth: usize) -> Resolution {
    if depth > MAX_RESOLUTION_DEPTH {
        return Resolution::Unresolved;
    }
    match &route.next_hop {
        MainNextHop::Discard => Resolution::Discard,
        MainNextHop::Connected { iface } => Resolution::Hops(vec![FibNextHop {
            iface: iface.clone(),
            gateway: None,
        }]),
        MainNextHop::Via(gw) => {
            let Some((p, routes)) = rib.lookup(*gw) else {
                return Resolution::Unresolved;
            };
            // Guard against self-referential resolution (a route resolving
            // through itself).
            if p == route.prefix && routes.iter().any(|r| r == route) && depth > 0 {
                return Resolution::Unresolved;
            }
            let mut resolved = merge(routes.iter().map(|r| resolve(rib, r, depth + 1)));
            if let Resolution::Hops(hops) = &mut resolved {
                // The ARP target is the innermost gateway that sits on a
                // connected subnet: only the deepest Via before a
                // Connected route sets it.
                for hop in hops.iter_mut().filter(|h| h.gateway.is_none()) {
                    hop.gateway = Some(*gw);
                }
            }
            resolved
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, Environment, SimOptions};
    use batnet_config::vi::RouteProtocol;
    use batnet_topogen::{suite, GeneratedNetwork};
    use std::collections::{BTreeMap, BTreeSet};

    /// The per-route resolution [`Fib::build`] replaced, kept as its
    /// oracle: every entry resolves each of its best routes again and
    /// collects the hops into a fresh set of its own.
    fn build_reference(rib: &MainRib) -> Vec<FibEntry> {
        let mut entries = Vec::new();
        for (prefix, routes) in rib.iter_best() {
            let Some(first) = routes.first() else { continue };
            let mut hops: BTreeSet<FibNextHop> = BTreeSet::new();
            let mut discard = false;
            for r in routes {
                match resolve(rib, r, 0) {
                    Resolution::Hops(h) => hops.extend(h),
                    Resolution::Discard => discard = true,
                    Resolution::Unresolved => {}
                }
            }
            let action = if !hops.is_empty() {
                FibAction::Forward(NextHops::new(hops.into_iter().collect()))
            } else if discard {
                FibAction::Discard
            } else {
                FibAction::Unresolved
            };
            entries.push(FibEntry {
                prefix: *prefix,
                action,
                protocol: first.protocol,
            });
        }
        entries
    }

    /// [`Fib::build`], checked entry for entry against the reference and
    /// for one allocation per distinct ECMP set.
    fn checked_build(rib: &MainRib) -> Fib {
        let fib = Fib::build(rib);
        assert_eq!(fib.entries(), build_reference(rib));
        let mut allocation: BTreeMap<&[FibNextHop], *const FibNextHop> = BTreeMap::new();
        for e in fib.entries() {
            if let FibAction::Forward(hops) = &e.action {
                let first = *allocation.entry(hops).or_insert(hops.as_ptr());
                assert_eq!(first, hops.as_ptr(), "{}: {hops:?} allocated twice", e.prefix);
            }
        }
        assert_eq!(fib.hop_sets(), allocation.len());
        fib
    }

    /// Every device of a suite network matches the reference; returns the
    /// ECMP sets summed over devices.
    fn hop_sets_checked_on(net: &GeneratedNetwork) -> usize {
        let dp = simulate(&net.parse(), &Environment::of(net), &SimOptions::default());
        dp.devices.iter().map(|d| checked_build(&d.main_rib).hop_sets()).sum()
    }

    #[test]
    fn matches_reference_on_n2() {
        assert_eq!(hop_sets_checked_on(&suite::n2()), 1_190);
    }

    /// Two different next-hop lists can resolve to one set: memoising the
    /// lists alone would leave NET1 with 866 allocations.
    #[test]
    fn matches_reference_on_net1() {
        assert_eq!(hop_sets_checked_on(&suite::net1()), 864);
    }

    fn hop(iface: &str) -> FibNextHop {
        FibNextHop { iface: iface.into(), gateway: None }
    }

    #[test]
    fn next_hops_sort_and_collapse_repeats() {
        let set = NextHops::new(vec![hop("b"), hop("a"), hop("b")]);
        assert_eq!(set, NextHops::new(vec![hop("a"), hop("b")]));
        assert_eq!(format!("{set:?}"), format!("{:?}", vec![hop("a"), hop("b")]));
    }

    fn connected(p: &str, iface: &str) -> MainRoute {
        MainRoute {
            prefix: p.parse().unwrap(),
            admin_distance: 0,
            metric: 0,
            protocol: RouteProtocol::Connected,
            next_hop: MainNextHop::Connected { iface: iface.into() },
        }
    }

    fn via(p: &str, ad: u8, proto: RouteProtocol, gw: &str) -> MainRoute {
        MainRoute {
            prefix: p.parse().unwrap(),
            admin_distance: ad,
            metric: 0,
            protocol: proto,
            next_hop: MainNextHop::Via(gw.parse().unwrap()),
        }
    }

    #[test]
    fn connected_entry_has_no_gateway() -> Result<(), RoutingError> {
        let mut rib = MainRib::new();
        rib.offer(connected("10.0.0.0/24", "e1"));
        let fib = checked_build(&rib);
        let hops = fib.resolve("10.0.0.7".parse().unwrap())?.forward_hops()?;
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].iface, "e1");
        assert_eq!(hops[0].gateway, None);
        Ok(())
    }

    #[test]
    fn recursive_resolution_keeps_first_gateway() {
        let mut rib = MainRib::new();
        rib.offer(connected("10.0.0.0/24", "e1"));
        // Static to 10.9/16 via 10.0.0.2 (on the connected subnet).
        rib.offer(via("10.9.0.0/16", 1, RouteProtocol::Static, "10.0.0.2"));
        // BGP route whose next hop resolves through the static route.
        rib.offer(via("172.16.0.0/12", 20, RouteProtocol::Ebgp, "10.9.1.1"));
        let fib = checked_build(&rib);
        let e = fib.resolve("172.16.5.5".parse().unwrap()).expect("entry");
        let hops = e.forward_hops().expect("forwarding entry");
        assert_eq!(hops[0].iface, "e1");
        // Gateway = the hop on the connected subnet (the ARP target):
        // 10.0.0.2, not the BGP next hop 10.9.1.1.
        assert_eq!(hops[0].gateway, Some("10.0.0.2".parse().unwrap()));
        assert_eq!(e.protocol, RouteProtocol::Ebgp);
    }

    #[test]
    fn discard_route() {
        let mut rib = MainRib::new();
        rib.offer(MainRoute {
            prefix: "0.0.0.0/0".parse().unwrap(),
            admin_distance: 250,
            metric: 0,
            protocol: RouteProtocol::Static,
            next_hop: MainNextHop::Discard,
        });
        let fib = checked_build(&rib);
        let e = fib.lookup("8.8.8.8".parse().unwrap()).unwrap();
        assert_eq!(e.action, FibAction::Discard);
    }

    #[test]
    fn unresolvable_next_hop() {
        let mut rib = MainRib::new();
        rib.offer(via("10.9.0.0/16", 1, RouteProtocol::Static, "192.168.1.1"));
        let fib = checked_build(&rib);
        let e = fib.lookup("10.9.0.1".parse().unwrap()).unwrap();
        assert_eq!(e.action, FibAction::Unresolved);
    }

    #[test]
    fn ecmp_hops_merged() {
        let mut rib = MainRib::new();
        rib.offer(connected("10.0.0.0/31", "e1"));
        rib.offer(connected("10.0.1.0/31", "e2"));
        rib.offer(via("10.9.0.0/16", 110, RouteProtocol::Ospf, "10.0.0.1"));
        rib.offer(via("10.9.0.0/16", 110, RouteProtocol::Ospf, "10.0.1.1"));
        let fib = checked_build(&rib);
        let hops = fib
            .resolve("10.9.0.1".parse().unwrap())
            .and_then(|e| e.forward_hops())
            .expect("ECMP entry");
        assert_eq!(hops.len(), 2);
        let ifaces: Vec<_> = hops.iter().map(|h| h.iface.as_str()).collect();
        assert_eq!(ifaces, vec!["e1", "e2"]);
    }

    #[test]
    fn lpm_on_fib() {
        let mut rib = MainRib::new();
        rib.offer(connected("10.0.0.0/24", "e1"));
        rib.offer(connected("10.0.0.128/25", "e2"));
        let fib = checked_build(&rib);
        let iface_of = |ip: &str| -> Result<String, RoutingError> {
            let hops = fib.resolve(ip.parse().expect("ip"))?.forward_hops()?;
            Ok(hops[0].iface.clone())
        };
        assert_eq!(iface_of("10.0.0.200").expect("routed"), "e2");
        assert_eq!(iface_of("10.0.0.5").expect("routed"), "e1");
        assert!(matches!(
            iface_of("9.9.9.9"),
            Err(RoutingError::NoRoute { .. })
        ));
    }

    #[test]
    fn resolution_cycle_detected() {
        let mut rib = MainRib::new();
        // Two routes resolving through each other (config pathology).
        rib.offer(via("10.1.0.0/16", 1, RouteProtocol::Static, "10.2.0.1"));
        rib.offer(via("10.2.0.0/16", 1, RouteProtocol::Static, "10.1.0.1"));
        let fib = checked_build(&rib);
        for e in fib.entries() {
            assert_eq!(e.action, FibAction::Unresolved, "{e:?}");
        }
    }
}
