//! BGP: session establishment, export/import policy, and the pull-based
//! sweep machinery.
//!
//! ## The pull model (§4.1.3)
//!
//! Every node keeps, besides its adj-RIB-in and best routes, exactly two
//! deltas: the changes to its best set during the *previous* sweep
//! (`delta_prev`) and during the *current* sweep (`delta_cur`). A receiver
//! processing in sweep *k* pulls from each established session's peer:
//!
//! * if the peer has already run this sweep (lower color), the receiver
//!   consumes `delta_prev` **then** `delta_cur` — the peer's most recent
//!   changes, Gauss–Seidel style;
//! * otherwise it consumes `delta_prev` only.
//!
//! Over-delivery (a delta seen twice across sweeps) is harmless because
//! deltas are applied as prefix-level upserts in order, and an identical
//! re-announcement keeps the incumbent's arrival clock (so no churn).
//! At sweep end each node rotates `delta_prev ← delta_cur`.
//!
//! ## What a route carries (§4.1.3)
//!
//! A [`BgpRoute`] keeps its own prefix and next hop; the attributes that
//! routes share live in one interned [`PathAttrs`], so the pool holds one
//! bundle per attribute combination rather than one per route. Route maps
//! still evaluate a full `RouteAttrs`: [`export_route`] rebuilds it from
//! the route and [`import_route`] splits the policy's result back.
//! "Identical" above means the same bundle, next hop and sender.
//!
//! A pull over an eBGP session turns a route whose AS path already
//! carries the receiver's AS into a withdraw without building its export:
//! import would refuse it whatever export policy did, because route maps
//! can only prepend.
//!
//! ## Session establishment (§4.1.1)
//!
//! A session comes up only when both ends are configured consistently
//! (matching peer addresses and AS numbers), the peer address is reachable
//! in the partial data plane, and no interface ACL on the path's first hop
//! blocks BGP's TCP port — the paper's example of control-plane state
//! depending on data-plane state. Sessions are re-evaluated after the BGP
//! fixed point; if viability changed, the computation re-runs.

use crate::rib::{MainRib, RibDelta};
use crate::routes::{BgpRoute, MainNextHop, PathAttrs, PeerKey};
use batnet_config::vi::{BgpNeighbor, Device, PolicyResult, RouteAttrs, RouteProtocol};
use batnet_config::Topology;
use batnet_net::{Asn, Flow, Interner, Ip, Prefix};
use std::collections::BTreeMap;

/// One direction of a configured BGP session on a device.
#[derive(Clone, Debug)]
pub struct Session {
    /// Index of the neighbor entry in the device's `BgpProcess`.
    pub neighbor_idx: usize,
    /// The configured peer address (where updates come from).
    pub peer_ip: Ip,
    /// Our address the peer talks to (the session source).
    pub local_ip: Ip,
    /// Peer device index, or `None` for an environment (external) peer.
    pub peer_device: Option<usize>,
    /// Index of the *peer's* neighbor entry pointing back at us (the entry
    /// whose export policy governs what we receive). `None` for external
    /// peers.
    pub peer_neighbor_idx: Option<usize>,
    /// Peer AS.
    pub remote_as: Asn,
    /// Is the session currently considered established?
    pub established: bool,
}

impl Session {
    /// Is this an eBGP session for a device in AS `local_as`?
    pub fn is_ebgp(&self, local_as: Asn) -> bool {
        self.remote_as != local_as
    }
}

/// Per-device BGP state.
#[derive(Clone, Debug, Default)]
pub struct BgpNode {
    /// Local AS (0 when the device does not run BGP).
    pub asn: Asn,
    /// Router id used in advertisements.
    pub router_id: Ip,
    /// Sessions in deterministic (config) order.
    pub sessions: Vec<Session>,
    /// Adj-RIB-in: the routes held for each prefix, one per sending peer
    /// (`PeerKey::Local` for locally originated routes). Each vector is
    /// sorted by the route's own `from`, holds at most one route per
    /// sender and is never empty: a prefix whose last sender withdraws is
    /// removed. One vector per prefix rather than a map, because a map's
    /// smallest node is sized for eleven senders and most prefixes have
    /// four.
    pub rib_in: BTreeMap<Prefix, Vec<BgpRoute>>,
    /// Selected best route per prefix.
    pub best: BTreeMap<Prefix, BgpRoute>,
    /// Best-set changes during the previous sweep (pulled by peers).
    pub delta_prev: RibDelta<BgpRoute>,
    /// Best-set changes during the current sweep.
    pub delta_cur: RibDelta<BgpRoute>,
    /// Lamport-style arrival clock (§4.1.2).
    pub clock: u64,
}

impl BgpNode {
    /// Recomputes the best route for `prefix` from the adj-RIB-in,
    /// updating `best`, the main RIB, and `delta_cur`. `use_clock` selects
    /// the arrival-time tie-break.
    ///
    /// Only the single best route is advertised (standard BGP), but every
    /// route multipath-equivalent to it is installed in the main RIB —
    /// BGP multipath, which DC fabrics rely on for ECMP.
    pub fn reselect(&mut self, prefix: Prefix, main_rib: &mut MainRib, use_clock: bool) {
        let routes = self.rib_in.get(&prefix).map_or(&[][..], Vec::as_slice);
        let new_best = routes.iter().min_by(|a, b| a.decide(b, use_clock)).cloned();
        let old_best = self.best.get(&prefix);
        let best_unchanged = match (&old_best, &new_best) {
            (None, None) => return,
            (Some(o), Some(n)) => {
                o.attrs == n.attrs && o.next_hop == n.next_hop && o.from == n.from
            }
            _ => false,
        };
        // The main RIB's ECMP set may change even when the best route is
        // stable (an equivalent path appeared/disappeared), so the RIB
        // contribution is always rebuilt; the advertised delta only moves
        // when the best route itself changes.
        if let Some(old) = old_best {
            main_rib.withdraw(prefix, old.attrs.protocol);
        }
        if let Some(new) = &new_best {
            for r in routes.iter().filter(|r| r.multipath_equivalent(new)) {
                main_rib.offer(main_route_of(r));
            }
        }
        if best_unchanged {
            return;
        }
        if self.best.remove(&prefix).is_some() {
            self.delta_cur.removed.push(prefix);
        }
        if let Some(new) = new_best {
            self.delta_cur.added.push(new.clone());
            self.best.insert(prefix, new);
        }
    }
}

/// The main-RIB view of a BGP best route.
pub fn main_route_of(r: &BgpRoute) -> crate::routes::MainRoute {
    crate::routes::MainRoute {
        prefix: r.prefix,
        admin_distance: crate::routes::admin_distance(r.attrs.protocol),
        metric: r.attrs.med,
        protocol: r.attrs.protocol,
        next_hop: if r.next_hop == Ip::ZERO {
            MainNextHop::Discard
        } else {
            MainNextHop::Via(r.next_hop)
        },
    }
}

/// Discovers the configured sessions of every device: a neighbor statement
/// pairs with the in-snapshot device owning the peer address when
/// [`Topology::bgp_pairing`] says so, or becomes an external session when
/// no other device owns the address and the environment announces routes
/// on it. `topo` must be inferred from `devices`.
pub fn discover_sessions(
    devices: &[Device],
    topo: &Topology,
    external_peers: &BTreeMap<(usize, Ip), Asn>,
) -> Vec<Vec<Session>> {
    let mut all = Vec::with_capacity(devices.len());
    for (di, d) in devices.iter().enumerate() {
        let mut sessions = Vec::new();
        if let Some(bgp) = &d.bgp {
            for (ni, nb) in bgp.neighbors.iter().enumerate() {
                let pairing = topo.bgp_pairing(devices, di, nb);
                match pairing.peer {
                    Some(pi) if pi != di => {
                        let (true, Some(reverse_idx), Some(peer_bgp)) =
                            (pairing.pairs(), pairing.reverse, &devices[pi].bgp)
                        else {
                            continue;
                        };
                        sessions.push(Session {
                            neighbor_idx: ni,
                            peer_ip: nb.peer_ip,
                            local_ip: peer_bgp.neighbors[reverse_idx].peer_ip,
                            peer_device: Some(pi),
                            peer_neighbor_idx: Some(reverse_idx),
                            remote_as: peer_bgp.asn,
                            established: false,
                        });
                    }
                    _ => {
                        // Not owned in-snapshot: external if the
                        // environment speaks on it.
                        if let Some(&peer_as) = external_peers.get(&(di, nb.peer_ip)) {
                            if peer_as == nb.remote_as {
                                // Our session source: the interface on the
                                // peer's subnet.
                                let local_ip = d
                                    .active_interfaces()
                                    .find(|i| {
                                        i.connected_prefix()
                                            .is_some_and(|p| p.contains(nb.peer_ip))
                                    })
                                    .and_then(|i| i.ip())
                                    .unwrap_or(Ip::ZERO);
                                sessions.push(Session {
                                    neighbor_idx: ni,
                                    peer_ip: nb.peer_ip,
                                    local_ip,
                                    peer_device: None,
                                    peer_neighbor_idx: None,
                                    remote_as: peer_as,
                                    established: false,
                                });
                            }
                        }
                    }
                }
            }
        }
        all.push(sessions);
    }
    all
}

/// Can `device` reach `peer_ip` per its current main RIB, and does the
/// first-hop egress ACL permit BGP (TCP/179)? This is the partial-data-
/// plane viability check of §4.1.1. Returns true when both hold.
pub fn bgp_path_clear(device: &Device, rib: &MainRib, local_ip: Ip, peer_ip: Ip) -> bool {
    // Directly-owned address (loopback peering with self) never happens;
    // find the forwarding interface.
    let Some((_, routes)) = rib.lookup(peer_ip) else {
        return false;
    };
    let Some(first) = routes.first() else { return false };
    let egress_iface = match &first.next_hop {
        MainNextHop::Connected { iface } => Some(iface.clone()),
        MainNextHop::Via(gw) => {
            // One level of resolution is enough for the viability check.
            rib.lookup(*gw).and_then(|(_, rs)| {
                rs.iter().find_map(|r| match &r.next_hop {
                    MainNextHop::Connected { iface } => Some(iface.clone()),
                    _ => None,
                })
            })
        }
        MainNextHop::Discard => None,
    };
    let Some(egress) = egress_iface else { return false };
    // ACL check: the session's TCP SYN towards port 179 must pass the
    // egress interface's outbound ACL. (The peer's inbound ACL is checked
    // from its own side.)
    let flow = Flow::tcp(local_ip, 179, peer_ip, 179);
    if let Some(iface) = device.interfaces.get(&egress) {
        if let Some(acl_name) = &iface.acl_out {
            match device.acls.get(acl_name) {
                Some(acl) => {
                    if !acl.permits(&flow) {
                        return false;
                    }
                }
                // Undefined egress ACL: documented default permit-any (the
                // parser already flagged the reference).
                None => {}
            }
        }
    }
    // Inbound ACL on the interface the peer's traffic arrives on (the same
    // egress interface, since the session is symmetric at this hop).
    let rev = Flow::tcp(peer_ip, 179, local_ip, 179);
    if let Some(iface) = device.interfaces.get(&egress) {
        if let Some(acl_name) = &iface.acl_in {
            if let Some(acl) = device.acls.get(acl_name) {
                if !acl.permits(&rev) {
                    return false;
                }
            }
        }
    }
    true
}

/// The sender-side export transform for one route over one session: the
/// route's full policy-facing bundle (`BgpRoute::route_attrs`) through
/// the export route map and the session rewrites. Returns `None` when the
/// route must not be advertised.
///
/// Documented defaults (Lesson 3): an export policy referencing an
/// *undefined* route map fails closed (nothing advertised).
pub fn export_route(
    sender: &Device,
    sender_asn: Asn,
    session_is_ebgp: bool,
    session_local_ip: Ip,
    neighbor_idx: usize,
    route: &BgpRoute,
) -> Option<RouteAttrs> {
    // iBGP-learned routes are not re-advertised to iBGP peers (full-mesh
    // rule; route reflection is future work recorded in DESIGN.md).
    if !session_is_ebgp && route.attrs.protocol == RouteProtocol::Ibgp {
        return None;
    }
    let mut attrs = route.route_attrs();
    let nb = &sender.bgp.as_ref()?.neighbors[neighbor_idx];
    if let Some(policy) = &nb.export_policy {
        match sender.route_maps.get(policy) {
            Some(rm) => {
                if rm.evaluate(&mut attrs, &sender.prefix_lists, &sender.community_lists)
                    == PolicyResult::Deny
                {
                    return None;
                }
            }
            None => return None, // undefined export policy: fail closed
        }
    }
    if session_is_ebgp {
        attrs.as_path = attrs.as_path.prepend(sender_asn, 1);
        // Local preference is not transitive across AS boundaries.
        attrs.local_pref = 100;
    }
    attrs.next_hop = export_next_hop(nb, session_is_ebgp, session_local_ip, attrs.next_hop);
    if !nb.send_community {
        attrs.communities.clear();
    }
    Some(attrs)
}

/// The next hop a sender advertises over a session whose neighbor entry
/// is `nb`, for a route whose (post-policy) next hop is `next_hop`: its
/// own session address over eBGP, with `next-hop-self`, or for a locally
/// originated route; otherwise the route's own next hop.
pub(crate) fn export_next_hop(
    nb: &BgpNeighbor,
    session_is_ebgp: bool,
    session_local_ip: Ip,
    next_hop: Ip,
) -> Ip {
    if session_is_ebgp || nb.next_hop_self || next_hop == Ip::ZERO {
        session_local_ip
    } else {
        next_hop
    }
}

/// The sender's neighbor entry of a session on which neither the
/// sender's export side nor the receiver's import side names a route map
/// (defined or not), or `None`. Only route maps read a route's prefix and
/// next hop, so on such a session the bundle import interns depends on
/// nothing but the sent bundle, the sender's AS, eBGP or not and the
/// entry's `send_community`; the receiver's AS is fixed per pull.
pub(crate) fn unmapped_sender<'a>(
    sender: &'a Device,
    sender_nidx: usize,
    receiver: &Device,
    receiver_nidx: usize,
) -> Option<&'a BgpNeighbor> {
    let out = &sender.bgp.as_ref()?.neighbors[sender_nidx];
    let inbound = &receiver.bgp.as_ref()?.neighbors[receiver_nidx];
    (out.export_policy.is_none() && inbound.import_policy.is_none()).then_some(out)
}

/// The receiver-side import transform. Returns the route ready for the
/// adj-RIB-in — its prefix and next hop split off, the rest interned in
/// `pool` — or `None` when rejected.
///
/// Rejections: AS-path loop (own AS present), undefined import route map
/// (fail closed), policy deny, unresolvable next hop.
#[allow(clippy::too_many_arguments)]
pub fn import_route(
    receiver: &Device,
    receiver_asn: Asn,
    session: &Session,
    mut attrs: RouteAttrs,
    sender_router_id: Ip,
    rib: &MainRib,
    pool: &Interner<PathAttrs>,
    arrival: u64,
) -> Option<BgpRoute> {
    let ebgp = session.is_ebgp(receiver_asn);
    if ebgp && attrs.as_path.contains(receiver_asn) {
        return None; // loop prevention
    }
    attrs.protocol = if ebgp {
        RouteProtocol::Ebgp
    } else {
        RouteProtocol::Ibgp
    };
    let nb = &receiver.bgp.as_ref()?.neighbors[session.neighbor_idx];
    if let Some(policy) = &nb.import_policy {
        match receiver.route_maps.get(policy) {
            Some(rm) => {
                if rm.evaluate(&mut attrs, &receiver.prefix_lists, &receiver.community_lists)
                    == PolicyResult::Deny
                {
                    return None;
                }
            }
            None => return None, // undefined import policy: fail closed
        }
    }
    // Resolve the IGP cost to the next hop against the current partial
    // data plane. Routes with unreachable next hops are unusable.
    let igp_cost = resolve_igp_cost(rib, attrs.next_hop)?;
    let from = PeerKey::Peer(session.peer_ip);
    Some(BgpRoute::new(attrs, pool, from, sender_router_id, arrival, igp_cost))
}

/// The IGP metric to reach `next_hop`, or `None` when unreachable. A
/// next hop resolved through a BGP route is permitted (recursive
/// resolution) but contributes that route's metric.
pub fn resolve_igp_cost(rib: &MainRib, next_hop: Ip) -> Option<u32> {
    let (_, routes) = rib.lookup(next_hop)?;
    let first = routes.first()?;
    Some(match first.protocol {
        RouteProtocol::Connected => 0,
        _ => first.metric,
    })
}

/// A change to a node's adj-RIB-in computed during the parallel phase of
/// a sweep. An upsert is keyed by its route's own prefix and `from`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RibInUpdate {
    /// Install this route as its sender's route for its prefix.
    Upsert(BgpRoute),
    /// Drop whatever `peer` sent for `prefix`.
    Withdraw {
        /// Destination prefix.
        prefix: Prefix,
        /// Sending peer.
        peer: PeerKey,
    },
}

// A sweep on N11 buffers millions of these: keep the sender out of the
// upsert's header.
const _: () = assert!(std::mem::size_of::<RibInUpdate>() == 48);

impl RibInUpdate {
    /// The prefix the update is for.
    pub fn prefix(&self) -> Prefix {
        match self {
            RibInUpdate::Upsert(route) => route.prefix,
            RibInUpdate::Withdraw { prefix, .. } => *prefix,
        }
    }
}

/// Applies an update to the adj-RIB-in, preserving the incumbent's arrival
/// clock when an identical route — same shared bundle, next hop and
/// sender — is re-delivered (this is what makes delta over-delivery
/// idempotent). Returns true when the RIB-in changed.
pub fn apply_rib_in(node: &mut BgpNode, update: RibInUpdate) -> bool {
    match update {
        RibInUpdate::Withdraw { prefix, peer } => {
            let Some(routes) = node.rib_in.get_mut(&prefix) else {
                return false;
            };
            let Ok(i) = routes.binary_search_by(|r| r.from.cmp(&peer)) else {
                return false;
            };
            routes.remove(i);
            if routes.is_empty() {
                node.rib_in.remove(&prefix);
            }
            true
        }
        RibInUpdate::Upsert(route) => {
            let routes = node.rib_in.entry(route.prefix).or_default();
            match routes.binary_search_by(|r| r.from.cmp(&route.from)) {
                Ok(i) => {
                    let existing = &mut routes[i];
                    if existing.attrs == route.attrs
                        && existing.next_hop == route.next_hop
                        && existing.sender_router_id == route.sender_router_id
                    {
                        return false; // identical re-delivery: keep incumbent clock
                    }
                    *existing = route;
                }
                Err(i) => routes.insert(i, route),
            }
            true
        }
    }
}

/// One interned attribute bundle's approximate heap footprint, used for
/// the bytes-saved estimate. The paper quotes 88 bytes of properties
/// moved into the shared object.
pub const ATTR_BUNDLE_BYTES: usize = 88;

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::vi::{BgpProcess, Interface};

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    fn dev_with_bgp(name: &str, asn: u32, addr: &str, peer: &str, peer_as: u32) -> Device {
        let mut d = Device::new(name);
        let mut i = Interface::new("e1");
        i.address = Some((ip(addr), 24));
        d.interfaces.insert("e1".into(), i);
        let mut bgp = BgpProcess::new(Asn(asn));
        bgp.neighbors.push(BgpNeighbor::new(ip(peer), Asn(peer_as)));
        d.bgp = Some(bgp);
        d
    }

    fn discover(devices: &[Device], ext: &BTreeMap<(usize, Ip), Asn>) -> Vec<Vec<Session>> {
        discover_sessions(devices, &Topology::infer(devices), ext)
    }

    #[test]
    fn sessions_pair_when_consistent() {
        let a = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65002);
        let b = dev_with_bgp("b", 65002, "10.0.0.2", "10.0.0.1", 65001);
        let sessions = discover(&[a, b], &BTreeMap::new());
        assert_eq!(sessions[0].len(), 1);
        assert_eq!(sessions[1].len(), 1);
        let s = &sessions[0][0];
        assert_eq!(s.peer_device, Some(1));
        assert_eq!(s.local_ip, ip("10.0.0.1"));
        assert_eq!(s.remote_as, Asn(65002));
    }

    #[test]
    fn as_mismatch_blocks_session() {
        let a = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65099); // wrong AS
        let b = dev_with_bgp("b", 65002, "10.0.0.2", "10.0.0.1", 65001);
        let sessions = discover(&[a, b], &BTreeMap::new());
        assert!(sessions[0].is_empty());
        assert!(sessions[1].is_empty());
    }

    #[test]
    fn external_session_needs_environment() {
        let a = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.9", 174);
        // Without an external peer: no session.
        let none = discover(std::slice::from_ref(&a), &BTreeMap::new());
        assert!(none[0].is_empty());
        // With one: session to the environment.
        let mut ext = BTreeMap::new();
        ext.insert((0usize, ip("10.0.0.9")), Asn(174));
        let some = discover(&[a], &ext);
        assert_eq!(some[0].len(), 1);
        assert_eq!(some[0][0].peer_device, None);
        assert_eq!(some[0][0].local_ip, ip("10.0.0.1"));
    }

    #[test]
    fn export_prepends_and_rewrites_next_hop_on_ebgp() {
        let sender = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65002);
        let pool = Interner::new();
        let mut attrs = RouteAttrs::new("10.5.0.0/16".parse().unwrap(), RouteProtocol::BgpLocal);
        attrs.local_pref = 300;
        let route = BgpRoute::new(attrs, &pool, PeerKey::Local, ip("1.1.1.1"), 0, 0);
        let out = export_route(&sender, Asn(65001), true, ip("10.0.0.1"), 0, &route).unwrap();
        assert_eq!(out.as_path.0, vec![Asn(65001)]);
        assert_eq!(out.next_hop, ip("10.0.0.1"));
        assert_eq!(out.local_pref, 100, "local-pref not transitive over eBGP");
    }

    #[test]
    fn ibgp_learned_not_reexported_to_ibgp() {
        let sender = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65001);
        let pool = Interner::new();
        let attrs = RouteAttrs::new("10.5.0.0/16".parse().unwrap(), RouteProtocol::Ibgp);
        let from = PeerKey::Peer(ip("9.9.9.9"));
        let route = BgpRoute::new(attrs, &pool, from, ip("1.1.1.1"), 0, 0);
        assert!(export_route(&sender, Asn(65001), false, ip("10.0.0.1"), 0, &route).is_none());
        // But eBGP-learned is fine over iBGP.
        let attrs2 = RouteAttrs::new("10.6.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        let route2 = BgpRoute::new(attrs2, &pool, from, ip("1.1.1.1"), 0, 0);
        assert!(export_route(&sender, Asn(65001), false, ip("10.0.0.1"), 0, &route2).is_some());
    }

    #[test]
    fn undefined_export_policy_fails_closed() {
        let mut sender = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65002);
        sender.bgp.as_mut().unwrap().neighbors[0].export_policy = Some("NOPE".into());
        let pool = Interner::new();
        let attrs = RouteAttrs::new("10.5.0.0/16".parse().unwrap(), RouteProtocol::BgpLocal);
        let route = BgpRoute::new(attrs, &pool, PeerKey::Local, ip("1.1.1.1"), 0, 0);
        assert!(export_route(&sender, Asn(65001), true, ip("10.0.0.1"), 0, &route).is_none());
    }

    #[test]
    fn import_rejects_as_loop_and_unresolved_next_hop() {
        let receiver = dev_with_bgp("b", 65002, "10.0.0.2", "10.0.0.1", 65001);
        let pool = Interner::new();
        let mut rib = MainRib::new();
        rib.offer(crate::routes::MainRoute {
            prefix: "10.0.0.0/24".parse().unwrap(),
            admin_distance: 0,
            metric: 0,
            protocol: RouteProtocol::Connected,
            next_hop: MainNextHop::Connected { iface: "e1".into() },
        });
        let session = Session {
            neighbor_idx: 0,
            peer_ip: ip("10.0.0.1"),
            local_ip: ip("10.0.0.2"),
            peer_device: Some(0),
            peer_neighbor_idx: Some(0),
            remote_as: Asn(65001),
            established: true,
        };
        // Loop: path contains our AS.
        let mut looped = RouteAttrs::new("10.9.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        looped.as_path = batnet_net::AsPath(vec![Asn(65001), Asn(65002)]);
        looped.next_hop = ip("10.0.0.1");
        assert!(import_route(&receiver, Asn(65002), &session, looped, ip("1.1.1.1"), &rib, &pool, 1).is_none());
        // Unresolvable next hop.
        let mut unres = RouteAttrs::new("10.9.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        unres.as_path = batnet_net::AsPath(vec![Asn(65001)]);
        unres.next_hop = ip("192.168.77.1");
        assert!(import_route(&receiver, Asn(65002), &session, unres, ip("1.1.1.1"), &rib, &pool, 1).is_none());
        // Good route accepted with eBGP defaults applied.
        let mut good = RouteAttrs::new("10.9.0.0/16".parse().unwrap(), RouteProtocol::Ebgp);
        good.as_path = batnet_net::AsPath(vec![Asn(65001)]);
        good.next_hop = ip("10.0.0.1");
        let r = import_route(&receiver, Asn(65002), &session, good, ip("1.1.1.1"), &rib, &pool, 7).unwrap();
        assert_eq!(r.igp_cost, 0, "connected next hop");
        assert_eq!(r.arrival, 7);
        assert_eq!(r.attrs.protocol, RouteProtocol::Ebgp);
    }

    /// The route `peer` holds for `prefix` in `node`'s RIB-in.
    fn held<'a>(node: &'a BgpNode, prefix: &Prefix, peer: PeerKey) -> Option<&'a BgpRoute> {
        node.rib_in.get(prefix)?.iter().find(|r| r.from == peer)
    }

    #[test]
    fn rib_in_keeps_incumbent_clock_on_identical_redelivery() {
        let pool: Interner<PathAttrs> = Interner::new();
        let mut node = BgpNode::default();
        let attrs = RouteAttrs::new("10.0.0.0/8".parse().unwrap(), RouteProtocol::Ebgp);
        let peer = PeerKey::Peer(ip("10.0.0.1"));
        let r1 = BgpRoute::new(attrs, &pool, peer, ip("1.1.1.1"), 1, 0);
        let prefix = r1.prefix;
        let withdraw = RibInUpdate::Withdraw { prefix, peer };
        assert!(apply_rib_in(&mut node, RibInUpdate::Upsert(r1.clone())));
        // Re-delivery with a later clock must NOT replace the incumbent.
        let r2 = BgpRoute {
            arrival: 99,
            ..r1.clone()
        };
        assert!(!apply_rib_in(&mut node, RibInUpdate::Upsert(r2)));
        assert_eq!(held(&node, &prefix, peer).unwrap().arrival, 1);
        // The same shared bundle behind a new next hop is a new route.
        let moved = BgpRoute {
            next_hop: ip("10.0.0.3"),
            arrival: 2,
            ..r1.clone()
        };
        assert!(apply_rib_in(&mut node, RibInUpdate::Upsert(moved)));
        assert_eq!(held(&node, &prefix, peer).unwrap().arrival, 2);
        // Withdraw works.
        assert!(apply_rib_in(&mut node, withdraw.clone()));
        assert!(!apply_rib_in(&mut node, withdraw));
    }

    #[test]
    fn the_last_withdraw_removes_the_prefix() {
        let pool: Interner<PathAttrs> = Interner::new();
        let mut node = BgpNode::default();
        let attrs = RouteAttrs::new("10.0.0.0/8".parse().unwrap(), RouteProtocol::Ebgp);
        let peer = PeerKey::Peer(ip("10.0.0.1"));
        let route = BgpRoute::new(attrs, &pool, peer, ip("1.1.1.1"), 1, 0);
        let prefix = route.prefix;
        assert!(apply_rib_in(&mut node, RibInUpdate::Upsert(route)));
        assert!(apply_rib_in(&mut node, RibInUpdate::Withdraw { prefix, peer }));
        assert!(!node.rib_in.contains_key(&prefix));
    }

    #[test]
    fn path_clear_respects_acls() {
        use batnet_config::vi::{Acl, AclAction, AclLine};
        use batnet_net::HeaderSpace;
        let mut d = dev_with_bgp("a", 65001, "10.0.0.1", "10.0.0.2", 65002);
        let mut rib = MainRib::new();
        rib.offer(crate::routes::MainRoute {
            prefix: "10.0.0.0/24".parse().unwrap(),
            admin_distance: 0,
            metric: 0,
            protocol: RouteProtocol::Connected,
            next_hop: MainNextHop::Connected { iface: "e1".into() },
        });
        assert!(bgp_path_clear(&d, &rib, ip("10.0.0.1"), ip("10.0.0.2")));
        // Block TCP/179 outbound: session must fail.
        d.acls.insert(
            "NOBGP".into(),
            Acl {
                name: "NOBGP".into(),
                lines: vec![AclLine {
                    seq: 10,
                    action: AclAction::Deny,
                    space: HeaderSpace::any().protocol(batnet_net::IpProtocol::Tcp).dst_port(179),
                    text: "deny tcp any any eq 179".into(),
                }],
                ..Acl::default()
            },
        );
        d.interfaces.get_mut("e1").unwrap().acl_out = Some("NOBGP".into());
        assert!(!bgp_path_clear(&d, &rib, ip("10.0.0.1"), ip("10.0.0.2")));
        // Unreachable peer also fails.
        assert!(!bgp_path_clear(&d, &rib, ip("10.0.0.1"), ip("192.168.9.9")));
    }
}
