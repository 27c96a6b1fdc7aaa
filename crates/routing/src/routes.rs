//! Route types and the BGP decision process.

use batnet_config::vi::{RouteAttrs, RouteOrigin, RouteProtocol};
use batnet_net::{AsPath, Community, Interned, Interner, Ip, Prefix};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Administrative distance per protocol — the cross-protocol preference
/// used by the main RIB (lower wins). Values follow IOS conventions; the
/// dialect frontends may override static-route distance per route.
pub fn admin_distance(protocol: RouteProtocol) -> u8 {
    match protocol {
        RouteProtocol::Connected => 0,
        RouteProtocol::Static => 1,
        RouteProtocol::Ebgp => 20,
        RouteProtocol::Ospf => 110,
        RouteProtocol::Ibgp => 200,
        RouteProtocol::BgpLocal => 200,
    }
}

/// Where a main-RIB route sends packets.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MainNextHop {
    /// Deliver onto this directly connected interface (ARP for the dest).
    Connected {
        /// Egress interface name.
        iface: String,
    },
    /// Forward towards this gateway address (resolved recursively against
    /// the RIB when building the FIB).
    Via(Ip),
    /// Drop (null route / discard aggregate).
    Discard,
}

/// One route in a device's main RIB. "Routes" in Table 1 of the paper
/// counts entries of this type across all devices.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MainRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Administrative distance (protocol preference; lower wins).
    pub admin_distance: u8,
    /// Protocol-internal metric (compared when distances tie).
    pub metric: u32,
    /// Source protocol.
    pub protocol: RouteProtocol,
    /// Next hop.
    pub next_hop: MainNextHop,
}

impl fmt::Display for MainRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nh = match &self.next_hop {
            MainNextHop::Connected { iface } => format!("directly connected, {iface}"),
            MainNextHop::Via(ip) => format!("via {ip}"),
            MainNextHop::Discard => "discard".to_string(),
        };
        write!(
            f,
            "{} [{}/{}] {} ({})",
            self.prefix, self.admin_distance, self.metric, nh, self.protocol
        )
    }
}

/// Identifies who a BGP route was learned from.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PeerKey {
    /// Locally originated (network statement or redistribution).
    Local,
    /// Learned from the session with this configured peer address.
    Peer(Ip),
}

impl fmt::Display for PeerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerKey::Local => write!(f, "local"),
            PeerKey::Peer(ip) => write!(f, "{ip}"),
        }
    }
}

/// The shareable half of a BGP route: every attribute except the
/// per-route prefix and next hop. This is what one interned object holds
/// (§4.1.3) — routes that followed similar paths share it, so it is one
/// allocation per attribute combination rather than one per route.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PathAttrs {
    /// Protocol the route came from (`Ebgp`, `Ibgp` or `BgpLocal`).
    pub protocol: RouteProtocol,
    /// Local preference.
    pub local_pref: u32,
    /// Multi-exit discriminator.
    pub med: u32,
    /// AS path.
    pub as_path: AsPath,
    /// Communities.
    pub communities: BTreeSet<Community>,
    /// Origin.
    pub origin: RouteOrigin,
    /// Route tag.
    pub tag: u32,
}

/// A BGP route as held in a device's BGP RIB.
///
/// The prefix and next hop are the route's own; everything else is an
/// interned [`PathAttrs`] (§4.1.3), so equality of the shared part during
/// the decision process is a pointer comparison.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BgpRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// BGP next hop (`Ip::ZERO` for a locally originated route).
    pub next_hop: Ip,
    /// Shared attribute bundle (local-pref, AS path, MED, communities,
    /// origin, …).
    pub attrs: Interned<PathAttrs>,
    /// Which peer sent it.
    pub from: PeerKey,
    /// Router id of the sender (decision step 9).
    pub sender_router_id: Ip,
    /// Lamport-style arrival stamp assigned by the *receiver* (§4.1.2:
    /// logical clocks tie-break by arrival time, like routers do). Lower =
    /// arrived earlier = preferred.
    pub arrival: u64,
    /// IGP metric to the route's next hop, resolved against the main RIB
    /// at import time (decision step 7); 0 for a locally originated
    /// route. Import refuses a next hop that does not resolve, so every
    /// held route has one.
    pub igp_cost: u32,
}

impl BgpRoute {
    /// A route from a policy-facing bundle: the prefix and next hop stay
    /// with the route, the rest is interned in `pool`.
    pub(crate) fn new(
        attrs: RouteAttrs,
        pool: &Interner<PathAttrs>,
        from: PeerKey,
        sender_router_id: Ip,
        arrival: u64,
        igp_cost: u32,
    ) -> BgpRoute {
        let RouteAttrs {
            prefix,
            protocol,
            next_hop,
            local_pref,
            med,
            as_path,
            communities,
            origin,
            tag,
        } = attrs;
        let shared = PathAttrs {
            protocol,
            local_pref,
            med,
            as_path,
            communities,
            origin,
            tag,
        };
        BgpRoute {
            prefix,
            next_hop,
            attrs: pool.intern(shared),
            from,
            sender_router_id,
            arrival,
            igp_cost,
        }
    }

    /// The policy-facing view route maps evaluate: the shared attributes
    /// with this route's prefix and next hop put back.
    pub(crate) fn route_attrs(&self) -> RouteAttrs {
        let a = &*self.attrs;
        RouteAttrs {
            prefix: self.prefix,
            protocol: a.protocol,
            next_hop: self.next_hop,
            local_pref: a.local_pref,
            med: a.med,
            as_path: a.as_path.clone(),
            communities: a.communities.clone(),
            origin: a.origin,
            tag: a.tag,
        }
    }
}

impl BgpRoute {
    /// Is this an eBGP-learned route?
    pub fn is_ebgp(&self) -> bool {
        self.attrs.protocol == RouteProtocol::Ebgp
    }

    /// The BGP decision process. Returns `Ordering::Less` when `self` is
    /// **better** than `other` (so `min_by` picks the best route).
    ///
    /// Steps, in order:
    /// 1. higher local preference
    /// 2. locally originated first (the weight analogue)
    /// 3. shorter AS path
    /// 4. lower origin (IGP < EGP < incomplete)
    /// 5. lower MED (compared unconditionally — the "always-compare-med"
    ///    setting; per-neighbor-AS MED scoping is noted future work in
    ///    DESIGN.md)
    /// 6. eBGP over iBGP
    /// 7. lower IGP cost to the next hop
    /// 8. earlier arrival (logical clock — the paper's addition)
    /// 9. lower sender router id
    /// 10. lower peer address (final deterministic tie-break)
    ///
    /// `use_clock` disables step 8 for the convergence ablation (A-1).
    pub fn decide(&self, other: &BgpRoute, use_clock: bool) -> Ordering {
        let local_rank = |p: RouteProtocol| u8::from(p != RouteProtocol::BgpLocal);
        other
            .attrs
            .local_pref
            .cmp(&self.attrs.local_pref)
            .then_with(|| local_rank(self.attrs.protocol).cmp(&local_rank(other.attrs.protocol)))
            .then_with(|| self.attrs.as_path.length().cmp(&other.attrs.as_path.length()))
            .then_with(|| self.attrs.origin.cmp(&other.attrs.origin))
            .then_with(|| self.attrs.med.cmp(&other.attrs.med))
            .then_with(|| protocol_rank(self.attrs.protocol).cmp(&protocol_rank(other.attrs.protocol)))
            .then_with(|| self.igp_cost.cmp(&other.igp_cost))
            .then_with(|| {
                if use_clock {
                    self.arrival.cmp(&other.arrival)
                } else {
                    Ordering::Equal
                }
            })
            .then_with(|| self.sender_router_id.cmp(&other.sender_router_id))
            .then_with(|| self.from.cmp(&other.from))
    }
}

impl BgpRoute {
    /// Multipath equivalence: equal through decision steps 1–7 (all the
    /// attribute comparisons and IGP cost, but not the arrival/router-id
    /// tie-breaks). Routes equivalent to the best are installed together
    /// in the main RIB as an ECMP set — the paper's "multipath routing
    /// across data center network tiers".
    pub fn multipath_equivalent(&self, other: &BgpRoute) -> bool {
        self.attrs.local_pref == other.attrs.local_pref
            && self.attrs.as_path.length() == other.attrs.as_path.length()
            && self.attrs.origin == other.attrs.origin
            && self.attrs.med == other.attrs.med
            && protocol_rank(self.attrs.protocol) == protocol_rank(other.attrs.protocol)
            && self.igp_cost == other.igp_cost
    }
}

fn protocol_rank(p: RouteProtocol) -> u8 {
    match p {
        // Locally originated preferred over learned (weight analogue).
        RouteProtocol::BgpLocal => 0,
        RouteProtocol::Ebgp => 1,
        RouteProtocol::Ibgp => 2,
        // Non-BGP protocols never enter the BGP RIB.
        _ => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_net::Asn;

    fn mk(
        pool: &Interner<PathAttrs>,
        lp: u32,
        path_len: usize,
        med: u32,
        proto: RouteProtocol,
        igp: u32,
        arrival: u64,
        rid: u32,
    ) -> BgpRoute {
        let mut attrs = RouteAttrs::new("10.0.0.0/8".parse().unwrap(), proto);
        attrs.local_pref = lp;
        attrs.as_path = AsPath(vec![Asn(65000); path_len]);
        attrs.med = med;
        attrs.origin = RouteOrigin::Igp;
        BgpRoute::new(attrs, pool, PeerKey::Peer(Ip(rid)), Ip(rid), arrival, igp)
    }

    #[test]
    fn local_pref_dominates() {
        let pool = Interner::new();
        let hi = mk(&pool, 200, 5, 100, RouteProtocol::Ibgp, 99, 9, 2);
        let lo = mk(&pool, 100, 0, 0, RouteProtocol::Ebgp, 0, 0, 1);
        assert_eq!(hi.decide(&lo, true), Ordering::Less, "higher local-pref wins");
    }

    #[test]
    fn as_path_then_med() {
        let pool = Interner::new();
        let short = mk(&pool, 100, 1, 50, RouteProtocol::Ebgp, 10, 5, 2);
        let long = mk(&pool, 100, 3, 0, RouteProtocol::Ebgp, 0, 0, 1);
        assert_eq!(short.decide(&long, true), Ordering::Less);
        let med_lo = mk(&pool, 100, 1, 10, RouteProtocol::Ebgp, 10, 5, 2);
        let med_hi = mk(&pool, 100, 1, 20, RouteProtocol::Ebgp, 0, 0, 1);
        assert_eq!(med_lo.decide(&med_hi, true), Ordering::Less);
    }

    #[test]
    fn ebgp_over_ibgp_then_igp_cost() {
        let pool = Interner::new();
        let e = mk(&pool, 100, 1, 0, RouteProtocol::Ebgp, 100, 9, 9);
        let i = mk(&pool, 100, 1, 0, RouteProtocol::Ibgp, 1, 0, 1);
        assert_eq!(e.decide(&i, true), Ordering::Less);
        let near = mk(&pool, 100, 1, 0, RouteProtocol::Ibgp, 5, 9, 9);
        let far = mk(&pool, 100, 1, 0, RouteProtocol::Ibgp, 50, 0, 1);
        assert_eq!(near.decide(&far, true), Ordering::Less);
    }

    #[test]
    fn clock_breaks_ties_when_enabled() {
        let pool = Interner::new();
        let old = mk(&pool, 100, 1, 0, RouteProtocol::Ebgp, 10, 3, 9);
        let new = mk(&pool, 100, 1, 0, RouteProtocol::Ebgp, 10, 7, 1);
        assert_eq!(old.decide(&new, true), Ordering::Less, "older preferred");
        // With clocks disabled, router id decides instead.
        assert_eq!(old.decide(&new, false), Ordering::Greater);
    }

    #[test]
    fn decision_is_total_and_antisymmetric() {
        let pool = Interner::new();
        let a = mk(&pool, 100, 1, 0, RouteProtocol::Ebgp, 10, 3, 4);
        let b = mk(&pool, 100, 1, 0, RouteProtocol::Ebgp, 10, 3, 5);
        assert_eq!(a.decide(&b, true), Ordering::Less);
        assert_eq!(b.decide(&a, true), Ordering::Greater);
        assert_eq!(a.decide(&a, true), Ordering::Equal);
    }

    #[test]
    fn local_routes_preferred_over_learned() {
        let pool = Interner::new();
        let attrs = RouteAttrs::new("10.0.0.0/8".parse().unwrap(), RouteProtocol::BgpLocal);
        let local = BgpRoute::new(attrs, &pool, PeerKey::Local, Ip(0), 100, 0);
        let learned = mk(&pool, 100, 0, 0, RouteProtocol::Ebgp, 0, 0, 1);
        assert_eq!(local.decide(&learned, true), Ordering::Less);
    }

    #[test]
    fn routes_share_one_bundle_across_prefixes_and_next_hops() {
        let pool = Interner::new();
        let mut a = RouteAttrs::new("10.0.0.0/8".parse().unwrap(), RouteProtocol::Ebgp);
        a.next_hop = Ip(1);
        a.as_path = AsPath(vec![Asn(65001)]);
        a.med = 5;
        let b = RouteAttrs {
            prefix: "10.1.0.0/16".parse().unwrap(),
            next_hop: Ip(2),
            ..a.clone()
        };
        let ra = BgpRoute::new(a.clone(), &pool, PeerKey::Local, Ip(0), 0, 0);
        let rb = BgpRoute::new(b.clone(), &pool, PeerKey::Local, Ip(0), 0, 0);
        assert_eq!(ra.attrs, rb.attrs, "one interned bundle");
        assert_eq!(pool.len(), 1);
        // Route maps still see the whole route.
        assert_eq!(ra.route_attrs(), a);
        assert_eq!(rb.route_attrs(), b);
    }

    #[test]
    fn admin_distances() {
        assert!(admin_distance(RouteProtocol::Connected) < admin_distance(RouteProtocol::Static));
        assert!(admin_distance(RouteProtocol::Static) < admin_distance(RouteProtocol::Ebgp));
        assert!(admin_distance(RouteProtocol::Ebgp) < admin_distance(RouteProtocol::Ospf));
        assert!(admin_distance(RouteProtocol::Ospf) < admin_distance(RouteProtocol::Ibgp));
    }
}
