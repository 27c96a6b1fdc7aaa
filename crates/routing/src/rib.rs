//! The main RIB and RIB deltas.
//!
//! The main RIB holds *all* candidate routes per prefix and answers
//! queries with the best set — best by administrative distance, then
//! metric, with ECMP when both tie. Keeping the losing candidates matters:
//! when BGP withdraws a route mid-fixed-point, the displaced OSPF or
//! static route must take over without recomputation.
//!
//! [`RibDelta`] is the unit of exchange in the pull-based BGP fixed point
//! (§4.1.3): receivers pull a neighbor's delta instead of the neighbor
//! pushing copies onto per-session queues.

use crate::routes::MainRoute;
use batnet_config::vi::RouteProtocol;
use batnet_net::{Ip, Prefix};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A device's main RIB.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MainRib {
    /// All candidate routes per prefix, kept in [`slot_order`] so the best
    /// set is the leading run and iteration order is deterministic.
    routes: BTreeMap<Prefix, Vec<MainRoute>>,
}

/// The order within a prefix's slot: `(admin_distance, metric, next_hop,
/// protocol)`. It is total on the routes of one prefix, so a slot's order
/// never depends on arrival and an equal route is a duplicate.
fn slot_order(a: &MainRoute, b: &MainRoute) -> Ordering {
    (a.admin_distance, a.metric, &a.next_hop, a.protocol).cmp(&(
        b.admin_distance,
        b.metric,
        &b.next_hop,
        b.protocol,
    ))
}

impl MainRib {
    /// An empty RIB.
    pub fn new() -> MainRib {
        MainRib::default()
    }

    /// Adds a candidate route (duplicates ignored). Returns true when the
    /// *best set* for the prefix changed.
    pub fn offer(&mut self, route: MainRoute) -> bool {
        let slot = self.routes.entry(route.prefix).or_default();
        let Err(pos) = slot.binary_search_by(|r| slot_order(r, &route)) else {
            return false;
        };
        let old_best = best_key(slot);
        let new_key = (route.admin_distance, route.metric);
        slot.insert(pos, route);
        // The best set changed iff the new route entered it: its key is at
        // least as good as the previous best (or there was none).
        match old_best {
            None => true,
            Some(k) => new_key <= k,
        }
    }

    /// This RIB plus `routes`, built in one pass: equal to offering each
    /// route in turn, but every slot is allocated at its exact length and
    /// the map is built from sorted input. `routes` must be sorted by
    /// prefix and then in slot order, and hold no route this RIB already
    /// has — as [`crate::ospf::OspfGraph::routes_for`] emits them.
    pub(crate) fn merged_with(&self, routes: Vec<MainRoute>) -> MainRib {
        let mut slots: Vec<(Prefix, Vec<MainRoute>)> =
            Vec::with_capacity(self.routes.len() + routes.len());
        let mut mine = self.routes.iter().peekable();
        let mut theirs = routes.into_iter();
        loop {
            let prefix = match (mine.peek(), theirs.as_slice().first()) {
                (None, None) => break,
                (Some((&p, _)), None) => p,
                (None, Some(r)) => r.prefix,
                (Some((&p, _)), Some(r)) => p.min(r.prefix),
            };
            let old = mine.next_if(|(&p, _)| p == prefix).map_or(&[][..], |(_, v)| v.as_slice());
            let added = theirs.as_slice().iter().take_while(|r| r.prefix == prefix).count();
            let mut slot = Vec::with_capacity(old.len() + added);
            let mut new = theirs.by_ref().take(added).peekable();
            for r in old {
                while let Some(n) = new.next_if(|n| slot_order(n, r).is_lt()) {
                    slot.push(n);
                }
                slot.push(r.clone());
            }
            slot.extend(new);
            slots.push((prefix, slot));
        }
        MainRib {
            routes: slots.into_iter().collect(),
        }
    }

    /// Removes all routes for `prefix` from `protocol`. Returns true when
    /// any route was removed.
    pub fn withdraw(&mut self, prefix: Prefix, protocol: RouteProtocol) -> bool {
        let Some(slot) = self.routes.get_mut(&prefix) else {
            return false;
        };
        let before = slot.len();
        slot.retain(|r| r.protocol != protocol);
        let changed = slot.len() != before;
        if slot.is_empty() {
            self.routes.remove(&prefix);
        }
        changed
    }

    /// The ECMP best set for an exact prefix (all candidates sharing the
    /// lowest `(admin_distance, metric)`).
    pub fn best(&self, prefix: &Prefix) -> &[MainRoute] {
        let Some(slot) = self.routes.get(prefix) else {
            return &[];
        };
        best_run(slot)
    }

    /// All candidate routes for an exact prefix (best first).
    pub fn candidates(&self, prefix: &Prefix) -> &[MainRoute] {
        self.routes.get(prefix).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Longest-prefix-match lookup: the ECMP best set for the most
    /// specific prefix covering `ip`.
    pub fn lookup(&self, ip: Ip) -> Option<(Prefix, &[MainRoute])> {
        // Walk candidate prefixes from /32 down to /0: O(33 log n).
        for len in (0..=32u8).rev() {
            let p = Prefix::new(ip, len);
            if let Some(slot) = self.routes.get(&p) {
                if !slot.is_empty() {
                    return Some((p, best_run(slot)));
                }
            }
        }
        None
    }

    /// Iterates `(prefix, best set)` in prefix order.
    pub fn iter_best(&self) -> impl Iterator<Item = (&Prefix, &[MainRoute])> {
        self.routes.iter().map(|(p, v)| (p, best_run(v)))
    }

    /// Number of prefixes with at least one route.
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }

    /// Number of best-set entries across prefixes (the paper's Table 1
    /// "routes" figure counts these across devices).
    pub fn route_count(&self) -> usize {
        self.routes.values().map(|v| best_run(v).len()).sum()
    }

    /// Allocated but unused candidate places, summed over slots.
    #[cfg(test)]
    pub(crate) fn spare_capacity(&self) -> usize {
        self.routes.values().map(|v| v.capacity() - v.len()).sum()
    }
}

fn best_key(slot: &[MainRoute]) -> Option<(u8, u32)> {
    slot.first().map(|r| (r.admin_distance, r.metric))
}

fn best_run(slot: &[MainRoute]) -> &[MainRoute] {
    let Some(k) = best_key(slot) else {
        return &[];
    };
    let end = slot
        .iter()
        .position(|r| (r.admin_distance, r.metric) != k)
        .unwrap_or(slot.len());
    &slot[..end]
}

/// Changes to a set of best routes during one sweep: the exchange unit of
/// the pull model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RibDelta<R> {
    /// Routes that became best this sweep.
    pub added: Vec<R>,
    /// Prefixes whose previous best stopped being best this sweep.
    pub removed: Vec<Prefix>,
}

impl<R> Default for RibDelta<R> {
    fn default() -> Self {
        RibDelta {
            added: Vec::new(),
            removed: Vec::new(),
        }
    }
}

impl<R> RibDelta<R> {
    /// No changes?
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Number of changes carried.
    pub fn len(&self) -> usize {
        self.added.len() + self.removed.len()
    }

    /// Drops all changes.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::MainNextHop;

    fn route(p: &str, ad: u8, metric: u32, proto: RouteProtocol, nh: &str) -> MainRoute {
        MainRoute {
            prefix: p.parse().unwrap(),
            admin_distance: ad,
            metric,
            protocol: proto,
            next_hop: MainNextHop::Via(nh.parse().unwrap()),
        }
    }

    #[test]
    fn better_ad_wins_but_loser_retained() {
        let mut rib = MainRib::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        rib.offer(route("10.0.0.0/8", 110, 20, RouteProtocol::Ospf, "1.1.1.1"));
        rib.offer(route("10.0.0.0/8", 20, 0, RouteProtocol::Ebgp, "2.2.2.2"));
        assert_eq!(rib.best(&p).len(), 1);
        assert_eq!(rib.best(&p)[0].protocol, RouteProtocol::Ebgp);
        assert_eq!(rib.candidates(&p).len(), 2);
        // Withdrawing BGP restores the OSPF route as best.
        assert!(rib.withdraw(p, RouteProtocol::Ebgp));
        assert_eq!(rib.best(&p)[0].protocol, RouteProtocol::Ospf);
    }

    #[test]
    fn equal_cost_joins_ecmp() {
        let mut rib = MainRib::new();
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        rib.offer(route("10.0.0.0/8", 110, 20, RouteProtocol::Ospf, "1.1.1.1"));
        rib.offer(route("10.0.0.0/8", 110, 20, RouteProtocol::Ospf, "1.1.1.2"));
        assert_eq!(rib.best(&p).len(), 2);
        // Duplicate offer is a no-op.
        assert!(!rib.offer(route("10.0.0.0/8", 110, 20, RouteProtocol::Ospf, "1.1.1.2")));
        assert_eq!(rib.route_count(), 2);
        assert_eq!(rib.prefix_count(), 1);
        // Worse route joins candidates but not the best set.
        rib.offer(route("10.0.0.0/8", 110, 30, RouteProtocol::Ospf, "1.1.1.3"));
        assert_eq!(rib.best(&p).len(), 2);
        assert_eq!(rib.candidates(&p).len(), 3);
    }

    #[test]
    fn a_tie_on_distance_metric_and_next_hop_takes_one_slot_order() {
        let p: Prefix = "10.0.0.0/8".parse().unwrap();
        let ibgp = route("10.0.0.0/8", 200, 0, RouteProtocol::Ibgp, "1.1.1.1");
        let local = route("10.0.0.0/8", 200, 0, RouteProtocol::BgpLocal, "1.1.1.1");
        let mut forward = MainRib::new();
        assert!(forward.offer(ibgp.clone()));
        assert!(forward.offer(local.clone()));
        let mut backward = MainRib::new();
        assert!(backward.offer(local.clone()));
        assert!(backward.offer(ibgp.clone()));
        assert_eq!(forward, backward);
        assert_eq!(forward.candidates(&p), [ibgp.clone(), local.clone()]);
        // Either is a duplicate now.
        assert!(!forward.offer(local));
        assert!(!forward.offer(ibgp));
        assert_eq!(forward.candidates(&p).len(), 2);
    }

    #[test]
    fn merging_sorted_routes_equals_offering_them_with_exact_slots() {
        let mut local = MainRib::new();
        local.offer(route("10.0.0.0/8", 1, 0, RouteProtocol::Static, "9.9.9.9"));
        local.offer(route("10.2.0.0/16", 250, 0, RouteProtocol::Static, "9.9.9.9"));
        local.offer(route("10.9.0.0/16", 1, 0, RouteProtocol::Static, "9.9.9.9"));
        let ospf = vec![
            route("10.0.0.0/8", 110, 20, RouteProtocol::Ospf, "1.1.1.1"),
            route("10.1.0.0/16", 110, 20, RouteProtocol::Ospf, "1.1.1.1"),
            route("10.1.0.0/16", 110, 20, RouteProtocol::Ospf, "1.1.1.2"),
            route("10.2.0.0/16", 110, 30, RouteProtocol::Ospf, "1.1.1.1"),
            route("10.3.0.0/16", 110, 30, RouteProtocol::Ospf, "1.1.1.1"),
        ];
        let merged = local.merged_with(ospf.clone());
        let mut offered = local.clone();
        for r in ospf {
            offered.offer(r);
        }
        assert_eq!(merged, offered);
        assert_eq!(merged.prefix_count(), 5);
        let p: Prefix = "10.2.0.0/16".parse().unwrap();
        assert_eq!(merged.best(&p)[0].protocol, RouteProtocol::Ospf, "a floating static trails");
        assert_eq!(merged.spare_capacity(), 0);
        assert!(offered.spare_capacity() > 0);
        assert_eq!(local.merged_with(Vec::new()), local);
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut rib = MainRib::new();
        rib.offer(route("10.0.0.0/8", 1, 0, RouteProtocol::Static, "1.1.1.1"));
        rib.offer(route("10.1.0.0/16", 1, 0, RouteProtocol::Static, "2.2.2.2"));
        rib.offer(route("0.0.0.0/0", 1, 0, RouteProtocol::Static, "3.3.3.3"));
        let (p, routes) = rib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.1.0.0/16");
        assert_eq!(routes[0].next_hop, MainNextHop::Via("2.2.2.2".parse().unwrap()));
        let (p, _) = rib.lookup("10.9.0.1".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.0.0.0/8");
        let (p, _) = rib.lookup("192.168.1.1".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "0.0.0.0/0");
    }

    #[test]
    fn lookup_without_default_can_miss() {
        let mut rib = MainRib::new();
        rib.offer(route("10.0.0.0/8", 1, 0, RouteProtocol::Static, "1.1.1.1"));
        assert!(rib.lookup("192.168.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn withdraw_missing_is_noop() {
        let mut rib = MainRib::new();
        assert!(!rib.withdraw("10.0.0.0/8".parse().unwrap(), RouteProtocol::Ebgp));
    }

    #[test]
    fn delta_basics() {
        let mut d: RibDelta<u32> = RibDelta::default();
        assert!(d.is_empty());
        d.added.push(1);
        d.removed.push("10.0.0.0/8".parse().unwrap());
        assert_eq!(d.len(), 2);
        d.clear();
        assert!(d.is_empty());
    }
}
