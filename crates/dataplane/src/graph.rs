//! The dataflow graph (Figure 2 of the paper).
//!
//! Nodes are pipeline stages; edges carry either a packet-set BDD
//! (intersection) or a transform (NAT relation, zone tagging). Terminal sinks are *typed* so symbolic dispositions align
//! one-to-one with the concrete engine's [`batnet_traceroute::Disposition`]
//! values — the alignment differential testing depends on.
//!
//! Per-device shape, mirroring the general pipeline (§7.2):
//!
//! ```text
//! IfaceSrc(d,i) ──init──▶ PreIn(d,i) ──aclIn──▶ PostIn(d,i)
//!                            │                      │ (dNAT rules / passthrough)
//!                            └──deny──▶ Drop        ▼
//!                                              PreFwd(d) ──owned──▶ Accept(d)
//!                                                   │ ¬owned
//!                                                   ▼
//!                                                Fwd(d) ──fib(o)──▶ ZoneOut(d,o) ──policy──▶ PostZone(d,o)
//!                                                   │ (no route /                 │ (sNAT / passthrough)
//!                                                   ▼  discard)                   ▼
//!                                                 Drop                      OutAcl(d,o) ──permit──▶ OutIface(d,o)
//!                                                                                                  │ per-gateway
//!                                                                                                  ▼
//!                                                             PreIn(neighbor) / DeliveredToSubnet / ExitsNetwork / Drop
//! ```
//!
//! Graph compression (§4.2.3) later splices out the chain nodes that turn
//! out trivial.

use crate::acl::compile_acl;
use crate::fibenc::compile_fib;
use crate::vars::{Field, PacketVars};
use batnet_bdd::{Bdd, NodeId, Transform};
use batnet_config::vi::{Device, Interface, NatKind};
use batnet_config::{InterfaceRef, Topology};
use batnet_net::{Ip, IpRange};
use batnet_routing::DataPlane;
use std::collections::BTreeMap;

/// Why a packet was dropped — mirrors the concrete engine's dispositions.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DropKind {
    /// Ingress ACL deny.
    AclIn(String),
    /// Egress ACL deny.
    AclOut(String),
    /// Inter-zone policy deny.
    Zone,
    /// No FIB entry (or unresolved next hop).
    NoRoute,
    /// Discard route.
    NullRouted,
    /// Gateway unowned on the egress subnet.
    NeighborUnreachable(String),
}

/// Node kinds of the dataflow graph.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeKind {
    /// Packets injected at this interface (from hosts / outside).
    IfaceSrc(String, String),
    /// Ingress pipeline entry (injection + hand-offs from neighbors).
    PreIn(String, String),
    /// After the ingress ACL.
    PostIn(String, String),
    /// After destination NAT and zone tagging, before the local check.
    PreFwd(String),
    /// The FIB lookup.
    Fwd(String),
    /// After the egress zone check for one egress interface.
    ZoneOut(String, String),
    /// After source NAT.
    PostZone(String, String),
    /// After the egress ACL — packets definitely leaving via this
    /// interface.
    OutIface(String, String),
    /// Delivered to an address owned by the device.
    Accept(String),
    /// Forwarded onto the connected subnet (host delivery).
    DeliveredToSubnet(String, String),
    /// Left the modeled network.
    ExitsNetwork(String, String),
    /// Dropped.
    Drop(String, DropKind),
}

impl NodeKind {
    /// The device this node belongs to.
    pub fn device(&self) -> &str {
        match self {
            NodeKind::IfaceSrc(d, _)
            | NodeKind::PreIn(d, _)
            | NodeKind::PostIn(d, _)
            | NodeKind::PreFwd(d)
            | NodeKind::Fwd(d)
            | NodeKind::ZoneOut(d, _)
            | NodeKind::PostZone(d, _)
            | NodeKind::OutIface(d, _)
            | NodeKind::Accept(d)
            | NodeKind::DeliveredToSubnet(d, _)
            | NodeKind::ExitsNetwork(d, _)
            | NodeKind::Drop(d, _) => d,
        }
    }

    /// Is this a terminal (success or drop) node?
    pub fn is_sink(&self) -> bool {
        matches!(
            self,
            NodeKind::Accept(_)
                | NodeKind::DeliveredToSubnet(_, _)
                | NodeKind::ExitsNetwork(_, _)
                | NodeKind::Drop(_, _)
        )
    }

    /// Is this a success terminal?
    pub fn is_success_sink(&self) -> bool {
        matches!(
            self,
            NodeKind::Accept(_) | NodeKind::DeliveredToSubnet(_, _) | NodeKind::ExitsNetwork(_, _)
        )
    }
}

/// What an edge does to the packet set flowing over it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeLabel {
    /// Intersect with this set (packet unchanged).
    Bdd(NodeId),
    /// Apply this relation with this transform handle (NAT, zone tag).
    Transform(NodeId, Transform),
}

/// One edge.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Tail node index.
    pub from: usize,
    /// Head node index.
    pub to: usize,
    /// Label.
    pub label: EdgeLabel,
}

/// The dataflow graph.
pub struct ForwardingGraph {
    /// Nodes; index = node id.
    pub nodes: Vec<NodeKind>,
    /// Edges.
    pub edges: Vec<Edge>,
    /// Node → outgoing edge indices.
    pub out_edges: Vec<Vec<usize>>,
    /// Node → incoming edge indices.
    pub in_edges: Vec<Vec<usize>>,
    index: BTreeMap<NodeKind, usize>,
}

impl ForwardingGraph {
    /// An empty graph (used by rewriting passes).
    pub fn empty() -> ForwardingGraph {
        ForwardingGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    pub(crate) fn index_insert(&mut self, kind: NodeKind, i: usize) {
        self.index.insert(kind, i);
    }

    /// Node id for a kind, if present.
    pub fn node(&self, kind: &NodeKind) -> Option<usize> {
        self.index.get(kind).copied()
    }

    /// All node ids matching a predicate.
    pub fn nodes_where(&self, pred: impl Fn(&NodeKind) -> bool) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, k)| pred(k))
            .map(|(i, _)| i)
            .collect()
    }

    fn add_node(&mut self, kind: NodeKind) -> usize {
        if let Some(&i) = self.index.get(&kind) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(kind.clone());
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.index.insert(kind, i);
        i
    }

    /// Adds an edge (used by the builder and by instrumentation passes).
    pub fn add_edge(&mut self, from: usize, to: usize, label: EdgeLabel) {
        let id = self.edges.len();
        self.edges.push(Edge { from, to, label });
        self.out_edges[from].push(id);
        self.in_edges[to].push(id);
    }

    /// Builds the graph for a simulated snapshot.
    pub fn build(
        bdd: &mut Bdd,
        vars: &PacketVars,
        devices: &[Device],
        dp: &DataPlane,
        topo: &Topology,
    ) -> ForwardingGraph {
        let _span = batnet_obs::Span::enter("graph.build");
        let mut g = ForwardingGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            index: BTreeMap::new(),
        };
        let init = vars.initial_bits(bdd);

        // Pass 1: per-device internals.
        for (di, device) in devices.iter().enumerate() {
            let ddp = &dp.devices[di];
            let dev = device.name.clone();
            let fwd = g.add_node(NodeKind::Fwd(dev.clone()));
            let pre_fwd = g.add_node(NodeKind::PreFwd(dev.clone()));
            let accept = g.add_node(NodeKind::Accept(dev.clone()));

            // Local delivery split: PreFwd → Accept on owned addresses,
            // PreFwd → Fwd on the rest.
            let mut owned = NodeId::FALSE;
            for ip in device.active_interfaces().flat_map(Interface::addresses) {
                let f = vars.field_value(bdd, Field::DstIp, ip.0 as u64);
                owned = bdd.or(owned, f);
            }
            let not_owned = bdd.not(owned);
            g.add_edge(pre_fwd, accept, EdgeLabel::Bdd(owned));
            g.add_edge(pre_fwd, fwd, EdgeLabel::Bdd(not_owned));

            // Ingress chains.
            let zone_index = zone_indices(device);
            for iface in device.active_interfaces() {
                let src = g.add_node(NodeKind::IfaceSrc(dev.clone(), iface.name.clone()));
                let pre_in = g.add_node(NodeKind::PreIn(dev.clone(), iface.name.clone()));
                let post_in = g.add_node(NodeKind::PostIn(dev.clone(), iface.name.clone()));
                g.add_edge(src, pre_in, EdgeLabel::Bdd(init));
                // Ingress ACL.
                match iface.acl_in.as_ref().and_then(|n| device.acls.get(n)) {
                    Some(acl) => {
                        let compiled = compile_acl(bdd, vars, acl);
                        g.add_edge(pre_in, post_in, EdgeLabel::Bdd(compiled.permits));
                        let drop = g.add_node(NodeKind::Drop(
                            dev.clone(),
                            DropKind::AclIn(iface.name.clone()),
                        ));
                        g.add_edge(pre_in, drop, EdgeLabel::Bdd(compiled.denies));
                    }
                    // No ACL, or undefined reference (documented default
                    // permit): pass-through.
                    None => g.add_edge(pre_in, post_in, EdgeLabel::Bdd(NodeId::TRUE)),
                }
                // Destination NAT (first match; fall-through passes
                // untouched) then zone tagging into PreFwd.
                let tag = device.stateful.then(|| {
                    let z = iface
                        .zone
                        .as_deref()
                        .or_else(|| device.zone_of_interface(&iface.name))
                        .and_then(|z| zone_index.get(z).copied())
                        .unwrap_or(0);
                    let rule = vars.zone_set_rule(bdd, z);
                    (rule, vars.zone_transform)
                });
                // The node NAT/zone edges feed: with zone tagging, an
                // intermediate per-interface point is needed so the tag
                // applies to every ingress packet.
                let after_nat = if tag.is_some() {
                    g.add_node(NodeKind::PostZone(dev.clone(), format!("__in__{}", iface.name)))
                } else {
                    pre_fwd
                };
                build_nat_edges(
                    &mut g,
                    bdd,
                    vars,
                    device,
                    NatKind::Destination,
                    Some(&iface.name),
                    post_in,
                    after_nat,
                );
                if let Some((rule, t)) = tag {
                    g.add_edge(after_nat, pre_fwd, EdgeLabel::Transform(rule, t));
                }
            }

            // FIB split.
            let compiled_fib = compile_fib(bdd, vars, &ddp.fib);
            let no_route_set = bdd.or(compiled_fib.no_route, compiled_fib.unresolved);
            if no_route_set != NodeId::FALSE {
                let drop = g.add_node(NodeKind::Drop(dev.clone(), DropKind::NoRoute));
                g.add_edge(fwd, drop, EdgeLabel::Bdd(no_route_set));
            }
            if compiled_fib.discarded != NodeId::FALSE {
                let drop = g.add_node(NodeKind::Drop(dev.clone(), DropKind::NullRouted));
                g.add_edge(fwd, drop, EdgeLabel::Bdd(compiled_fib.discarded));
            }

            // Egress chains: group FIB buckets by egress interface.
            let mut by_iface: BTreeMap<String, Vec<(Option<Ip>, NodeId)>> = BTreeMap::new();
            for (hop, &set) in &compiled_fib.forwards {
                by_iface
                    .entry(hop.iface.clone())
                    .or_default()
                    .push((hop.gateway, set));
            }
            for (oiface, buckets) in by_iface {
                let mut iface_set = NodeId::FALSE;
                for &(_, s) in &buckets {
                    iface_set = bdd.or(iface_set, s);
                }
                let zone_out = g.add_node(NodeKind::ZoneOut(dev.clone(), oiface.clone()));
                g.add_edge(fwd, zone_out, EdgeLabel::Bdd(iface_set));
                // Zone policy.
                let post_zone = g.add_node(NodeKind::PostZone(dev.clone(), oiface.clone()));
                if device.stateful {
                    let (permit, deny) =
                        zone_policy_sets(bdd, vars, device, &zone_index, &oiface);
                    g.add_edge(zone_out, post_zone, EdgeLabel::Bdd(permit));
                    if deny != NodeId::FALSE {
                        let drop = g.add_node(NodeKind::Drop(dev.clone(), DropKind::Zone));
                        g.add_edge(zone_out, drop, EdgeLabel::Bdd(deny));
                    }
                } else {
                    g.add_edge(zone_out, post_zone, EdgeLabel::Bdd(NodeId::TRUE));
                }
                // Source NAT, then the egress ACL.
                let pre_acl =
                    g.add_node(NodeKind::PostZone(dev.clone(), format!("__snat__{oiface}")));
                build_nat_edges(
                    &mut g,
                    bdd,
                    vars,
                    device,
                    NatKind::Source,
                    Some(&oiface),
                    post_zone,
                    pre_acl,
                );
                let out = g.add_node(NodeKind::OutIface(dev.clone(), oiface.clone()));
                match device
                    .interfaces
                    .get(&oiface)
                    .and_then(|i| i.acl_out.as_ref())
                    .and_then(|n| device.acls.get(n))
                {
                    Some(acl) => {
                        let compiled = compile_acl(bdd, vars, acl);
                        g.add_edge(pre_acl, out, EdgeLabel::Bdd(compiled.permits));
                        let drop = g.add_node(NodeKind::Drop(
                            dev.clone(),
                            DropKind::AclOut(oiface.clone()),
                        ));
                        g.add_edge(pre_acl, drop, EdgeLabel::Bdd(compiled.denies));
                    }
                    None => g.add_edge(pre_acl, out, EdgeLabel::Bdd(NodeId::TRUE)),
                }

                // Hand-off per gateway bucket, to the neighbor owning the
                // gateway (the topology's owner index).
                let me = InterfaceRef::new(&dev, &oiface);
                let neighbors = topo.neighbors_of(&me);
                for (gateway, set) in buckets {
                    match gateway {
                        Some(gw) => match topo.neighbor_owning(&me, gw) {
                            Some(nb) => {
                                let next = g.add_node(NodeKind::PreIn(
                                    nb.device.clone(),
                                    nb.interface.clone(),
                                ));
                                g.add_edge(out, next, EdgeLabel::Bdd(set));
                            }
                            None => {
                                if neighbors.is_empty() {
                                    // Edge interface towards the outside.
                                    let exits = g.add_node(NodeKind::ExitsNetwork(
                                        dev.clone(),
                                        oiface.clone(),
                                    ));
                                    g.add_edge(out, exits, EdgeLabel::Bdd(set));
                                } else {
                                    let drop = g.add_node(NodeKind::Drop(
                                        dev.clone(),
                                        DropKind::NeighborUnreachable(oiface.clone()),
                                    ));
                                    g.add_edge(out, drop, EdgeLabel::Bdd(set));
                                }
                            }
                        },
                        None => {
                            // Connected delivery: per neighbor-owned dst on
                            // this interface's subnets a hand-off; the
                            // remainder goes to hosts on the subnet.
                            let mut on_link: Vec<(Ip, &InterfaceRef)> = device
                                .interfaces
                                .get(&oiface)
                                .into_iter()
                                .flat_map(Interface::connected_prefixes)
                                .flat_map(|p| topo.neighbor_addresses_in(&me, p))
                                .collect();
                            on_link.sort();
                            on_link.dedup();
                            let mut remainder = set;
                            for (ip, nb) in on_link {
                                let dst = vars.field_value(bdd, Field::DstIp, ip.0 as u64);
                                let to_nb = bdd.and(set, dst);
                                if to_nb != NodeId::FALSE {
                                    let next = g.add_node(NodeKind::PreIn(
                                        nb.device.clone(),
                                        nb.interface.clone(),
                                    ));
                                    g.add_edge(out, next, EdgeLabel::Bdd(to_nb));
                                    remainder = bdd.diff(remainder, dst);
                                }
                            }
                            if remainder != NodeId::FALSE {
                                // On-subnet host delivery (any of the
                                // interface's subnets) vs off-subnet (edge
                                // interface → exits network).
                                let mut on_subnet = NodeId::FALSE;
                                for p in device
                                    .interfaces
                                    .get(&oiface)
                                    .into_iter()
                                    .flat_map(Interface::connected_prefixes)
                                {
                                    let range = vars.ip_range(bdd, Field::DstIp, IpRange::from_prefix(p));
                                    on_subnet = bdd.or(on_subnet, range);
                                }
                                let host_part = bdd.and(remainder, on_subnet);
                                if host_part != NodeId::FALSE {
                                    let sink = g.add_node(NodeKind::DeliveredToSubnet(
                                        dev.clone(),
                                        oiface.clone(),
                                    ));
                                    g.add_edge(out, sink, EdgeLabel::Bdd(host_part));
                                }
                                let off = bdd.diff(remainder, on_subnet);
                                if off != NodeId::FALSE {
                                    let sink = g.add_node(NodeKind::ExitsNetwork(
                                        dev.clone(),
                                        oiface.clone(),
                                    ));
                                    g.add_edge(out, sink, EdgeLabel::Bdd(off));
                                }
                            }
                        }
                    }
                }
            }
        }
        batnet_obs::gauge_set("graph.nodes", g.nodes.len() as f64);
        batnet_obs::gauge_set("graph.edges", g.edges.len() as f64);
        g
    }

    /// Total node and edge counts (reported by Table 2's graph-build
    /// column and the compression ablation).
    pub fn size(&self) -> (usize, usize) {
        (self.nodes.len(), self.edges.len())
    }
}

/// Stable zone → small-integer mapping for a device. Zone index 0 is
/// reserved for "no zone".
fn zone_indices(device: &Device) -> BTreeMap<String, u32> {
    let mut map = BTreeMap::new();
    let mut next = 1u32;
    for z in device.zones.keys() {
        map.insert(z.clone(), next);
        next += 1;
    }
    // Zones referenced only via interface membership.
    for iface in device.interfaces.values() {
        if let Some(z) = &iface.zone {
            map.entry(z.clone()).or_insert_with(|| {
                let v = next;
                next += 1;
                v
            });
        }
    }
    map
}

/// The permit/deny packet sets for traffic leaving via `oiface` of a
/// stateful device, as a function of the recorded ingress zone bits.
fn zone_policy_sets(
    bdd: &mut Bdd,
    vars: &PacketVars,
    device: &Device,
    zone_index: &BTreeMap<String, u32>,
    oiface: &str,
) -> (NodeId, NodeId) {
    let out_zone = device
        .zone_of_interface(oiface)
        .and_then(|z| zone_index.get(z).copied())
        .unwrap_or(0);
    let mut permit = NodeId::FALSE;
    // Unzoned ingress (index 0) bypasses zone policy, as does an unzoned
    // egress.
    let z0 = vars.zone_value(bdd, 0);
    permit = bdd.or(permit, z0);
    if out_zone == 0 {
        return (NodeId::TRUE, NodeId::FALSE);
    }
    let name_of = |idx: u32| {
        zone_index
            .iter()
            .find(|(_, &v)| v == idx)
            .map(|(n, _)| n.as_str())
    };
    // An unnamed egress zone index cannot occur (out_zone came from the
    // index), but degrade to the unzoned-egress behavior if it does.
    let Some(out_name) = name_of(out_zone) else {
        return (NodeId::TRUE, NodeId::FALSE);
    };
    for (in_name, &in_idx) in zone_index {
        let zin = vars.zone_value(bdd, in_idx);
        if in_idx == out_zone {
            // Intra-zone: permitted by default.
            permit = bdd.or(permit, zin);
            continue;
        }
        let policy = device
            .zone_policies
            .iter()
            .find(|zp| zp.from_zone == *in_name && zp.to_zone == out_name);
        let allowed_headers = match policy {
            Some(zp) => compile_acl(bdd, vars, &zp.acl).permits,
            None => {
                if device.zone_default_permit {
                    NodeId::TRUE
                } else {
                    NodeId::FALSE
                }
            }
        };
        let contribution = bdd.and(zin, allowed_headers);
        permit = bdd.or(permit, contribution);
    }
    let deny = bdd.not(permit);
    (permit, deny)
}

/// Builds the NAT edges of one pipeline step: one transform edge per
/// applicable rule (first-match carved) plus a pass-through edge for
/// packets no rule matches.
#[allow(clippy::too_many_arguments)]
fn build_nat_edges(
    g: &mut ForwardingGraph,
    bdd: &mut Bdd,
    vars: &PacketVars,
    device: &Device,
    kind: NatKind,
    iface: Option<&str>,
    from: usize,
    to: usize,
) {
    let mut unmatched = NodeId::TRUE;
    for rule in &device.nat_rules {
        if rule.kind != kind {
            continue;
        }
        if let Some(scope) = &rule.interface {
            if Some(scope.as_str()) != iface {
                continue;
            }
        }
        let match_set = vars.headerspace(bdd, &rule.match_space);
        let mine = bdd.and(unmatched, match_set);
        if mine == NodeId::FALSE {
            continue;
        }
        unmatched = bdd.diff(unmatched, match_set);
        // The relation: inputs restricted to this rule's slice, outputs
        // rewritten per the rule, untouched fields identity.
        let relation = nat_rule_relation(bdd, vars, rule);
        let gated = bdd.and(relation, mine);
        g.add_edge(from, to, EdgeLabel::Transform(gated, vars.nat_transform));
    }
    if unmatched != NodeId::FALSE {
        g.add_edge(from, to, EdgeLabel::Bdd(unmatched));
    }
}

/// The input/output relation of one NAT rule over the 96 transformable
/// bits.
///
/// Pool mapping: aligned power-of-two pools translate exactly (high bits
/// from the pool base, low bits preserved — matching the concrete
/// engine's `addr mod size` rule). Other pools use the sound
/// over-approximation "translated address lies in the pool", recorded in
/// DESIGN.md as a known approximation.
fn nat_rule_relation(bdd: &mut Bdd, vars: &PacketVars, rule: &batnet_config::vi::NatRule) -> NodeId {
    let (rewritten_ip, rewritten_port, identity_fields): (Field, Field, [Field; 3]) =
        match rule.kind {
            NatKind::Source => (
                Field::SrcIp,
                Field::SrcPort,
                [Field::DstIp, Field::DstPort, Field::SrcPort],
            ),
            NatKind::Destination => (
                Field::DstIp,
                Field::DstPort,
                [Field::SrcIp, Field::SrcPort, Field::DstPort],
            ),
        };
    let pool = rule.pool;
    let size = pool.size();
    let aligned_pow2 = size.is_power_of_two() && (pool.start.0 as u64) % size == 0;
    let mut rel = if size == 1 {
        vars.field_value_primed(bdd, rewritten_ip, pool.start.0 as u64)
    } else if aligned_pow2 {
        // High bits = pool base, low k bits copied from the original.
        let k = size.trailing_zeros();
        let mut acc = NodeId::TRUE;
        for i in 0..32 {
            let primed = bdd.var(vars.var_of(rewritten_ip, i, true));
            if i < 32 - k {
                let bit = (pool.start.0 >> (31 - i)) & 1 == 1;
                let lit = if bit { primed } else { bdd.not(primed) };
                acc = bdd.and(acc, lit);
            } else {
                let orig = bdd.var(vars.var_of(rewritten_ip, i, false));
                let x = bdd.xor(orig, primed);
                let eq = bdd.not(x);
                acc = bdd.and(acc, eq);
            }
        }
        acc
    } else {
        // Over-approximation: output in the pool.
        let mut acc = NodeId::FALSE;
        for p in pool.to_prefixes() {
            let mut cube = NodeId::TRUE;
            for i in 0..(p.len() as u32) {
                let bit = (p.network().0 >> (31 - i)) & 1 == 1;
                let primed = vars.var_of(rewritten_ip, i, true);
                let lit = bdd.literal(primed, bit);
                cube = bdd.and(cube, lit);
            }
            acc = bdd.or(acc, cube);
        }
        acc
    };
    // Port: rewritten to a constant or identity.
    match rule.port {
        Some(p) => {
            let pv = vars.field_value_primed(bdd, rewritten_port, p as u64);
            rel = bdd.and(rel, pv);
        }
        None => {
            let id = vars.field_identity(bdd, rewritten_port);
            rel = bdd.and(rel, id);
        }
    }
    // Identity on the untouched transformable fields.
    for f in identity_fields {
        if f == rewritten_port {
            continue; // already handled above
        }
        let id = vars.field_identity(bdd, f);
        rel = bdd.and(rel, id);
    }
    rel
}
