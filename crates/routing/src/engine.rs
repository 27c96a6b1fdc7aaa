//! The data plane generation engine: orchestration of the fixed point.
//!
//! The phases (§4.1.1's "control intricate dependencies … for example,
//! allowing IGP protocols to converge prior to beginning BGP"):
//!
//! 1. connected + static routes;
//! 2. OSPF (direct link-state computation);
//! 3. BGP session discovery, with establishment gated on the partial data
//!    plane (reachability of the peer address, interface ACLs on TCP/179);
//! 4. the BGP fixed point — colored Gauss–Seidel sweeps with pull-based
//!    deltas and logical clocks (see [`crate::bgp`] and
//!    [`crate::scheduler`]);
//! 5. session re-evaluation: if the converged data plane changes any
//!    session's viability, BGP re-runs (bounded rounds);
//! 6. FIB construction.
//!
//! Same-color nodes are processed in parallel by a `batnet_exec` map
//! (CPU-bound work on scoped OS threads — no async runtime, per the
//! project's networking guides). The compute phase of each sweep fans
//! out read-only; the apply phase is sequential in ascending node
//! order, so RIBs are byte-identical at every thread count.

use crate::bgp::{
    self, apply_rib_in, BgpNode, BgpPools, RibInUpdate, Session, ATTR_BUNDLE_BYTES,
};
use crate::env::Environment;
use crate::fib::Fib;
use crate::ospf::OspfGraph;
use crate::rib::MainRib;
use crate::routes::{BgpRoute, MainNextHop, MainRoute, PeerKey};
use crate::scheduler::{color_graph, color_groups, SchedulerMode};
use batnet_config::vi::{Device, NextHop, RouteAttrs, RouteOrigin, RouteProtocol};
use batnet_config::Topology;
use batnet_net::governor::{Exhaustion, Outcome, ResourceGovernor};
use batnet_net::{Asn, Prefix};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;

/// Engine options. The defaults are the production configuration; the
/// ablation benchmarks flip individual fields.
#[derive(Clone, Debug)]
pub struct SimOptions {
    /// Colored Gauss–Seidel (production) or Jacobi lockstep (ablation).
    pub scheduler: SchedulerMode,
    /// Arrival-time tie-break in the decision process (§4.1.2).
    pub use_logical_clocks: bool,
    /// Sweep budget before declaring non-convergence.
    pub max_sweeps: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            scheduler: SchedulerMode::Colored,
            use_logical_clocks: true,
            max_sweeps: 100,
        }
    }
}

/// Maximum session re-evaluation rounds (§4.1.1 "key points").
const SESSION_REEVAL_ROUNDS: usize = 2;

/// Convergence outcome of the BGP fixed point.
#[derive(Clone, Debug, Default)]
pub struct ConvergenceReport {
    /// Did the computation reach a fixed point within the sweep budget?
    pub converged: bool,
    /// Sweeps used (per re-evaluation round, summed).
    pub sweeps: usize,
    /// Number of colors the BGP graph needed.
    pub colors: usize,
    /// Prefixes still churning when the budget ran out (empty when
    /// converged). This is the §4.1.2 "detects and reports
    /// non-convergence" surface.
    pub unstable_prefixes: Vec<Prefix>,
    /// Set when a [`ResourceGovernor`] limit stopped the fixed point
    /// before the sweep budget: the generalized form of the sweep-budget
    /// mechanism (deadline, shared iteration budget).
    pub aborted: Option<Exhaustion>,
    /// Devices whose per-node computation panicked during the fixed
    /// point. The panic is contained (the device contributes nothing from
    /// that point on) and the caller is expected to quarantine these and
    /// re-simulate the healthy subset.
    pub poisoned_devices: Vec<String>,
}

/// Memory accounting for the A-2 ablation (§4.1.3): the counters the
/// simulation keeps anyway. The shareable-combination count they are
/// judged against costs a set insert per route, so it is computed on
/// demand ([`DataPlane::shareable_combos`]) and passed in.
#[derive(Clone, Debug, Default)]
pub struct MemReport {
    /// Total BGP routes held across adj-RIBs-in.
    pub total_bgp_routes: u64,
    /// Distinct interned attribute bundles (full bundles, including
    /// prefix and next hop).
    pub unique_attr_bundles: u64,
    /// Interner requests (≥ total routes; includes transient bundles).
    pub intern_requests: u64,
}

impl MemReport {
    /// Routes served per shareable combination — the paper reports
    /// 10–20×.
    pub fn sharing_factor(&self, combos: u64) -> f64 {
        if combos == 0 {
            0.0
        } else {
            self.total_bgp_routes as f64 / combos as f64
        }
    }

    /// Fraction of attribute memory avoided: 1 − combos/routes.
    pub fn memory_reduction(&self, combos: u64) -> f64 {
        if self.total_bgp_routes == 0 {
            0.0
        } else {
            1.0 - (combos as f64 / self.total_bgp_routes as f64).min(1.0)
        }
    }

    /// Estimated bytes saved at 88 bytes per shareable combination.
    pub fn bytes_saved(&self, combos: u64) -> u64 {
        self.total_bgp_routes.saturating_sub(combos) * ATTR_BUNDLE_BYTES as u64
    }
}

/// Everything the simulation produced for one device.
#[derive(Clone, Debug)]
pub struct DeviceDataPlane {
    /// Device name.
    pub name: String,
    /// The main RIB (all candidates; best sets answer queries).
    pub main_rib: MainRib,
    /// BGP state (RIB-in, best routes, sessions).
    pub bgp: BgpNode,
    /// The forwarding table.
    pub fib: Fib,
}

/// The simulated data plane of the whole network.
#[derive(Clone, Debug)]
pub struct DataPlane {
    /// Per-device results, in input order.
    pub devices: Vec<DeviceDataPlane>,
    /// Device name → index.
    pub index: BTreeMap<String, usize>,
    /// Convergence outcome.
    pub convergence: ConvergenceReport,
    /// Memory accounting.
    pub mem: MemReport,
}

impl DataPlane {
    /// The data plane of a device by name.
    pub fn device(&self, name: &str) -> Option<&DeviceDataPlane> {
        self.index.get(name).map(|&i| &self.devices[i])
    }

    /// Total main-RIB routes across devices (Table 1's "routes").
    pub fn total_routes(&self) -> usize {
        self.devices.iter().map(|d| d.main_rib.route_count()).sum()
    }

    /// Distinct *shareable* property combinations across every
    /// adj-RIB-in — the bundle minus the per-route prefix and next hop,
    /// i.e. the thirteen-odd properties the paper moves into one interned
    /// object ("there are typically 10x–20x fewer combinations of those
    /// properties than routes").
    pub fn shareable_combos(&self) -> u64 {
        let mut combos = BTreeSet::new();
        for d in &self.devices {
            for peers in d.bgp.rib_in.values() {
                for r in peers.values() {
                    combos.insert((
                        r.attrs.local_pref,
                        r.attrs.med,
                        &r.attrs.as_path,
                        r.attrs.communities.iter().copied().collect::<Vec<_>>(),
                        r.attrs.origin as u8,
                        r.attrs.tag,
                    ));
                }
            }
        }
        combos.len() as u64
    }
}

/// Runs the full simulation (ungoverned: no deadline, no shared budget;
/// the sweep budget in `opts` still applies).
pub fn simulate(devices: &[Device], env: &Environment, opts: &SimOptions) -> DataPlane {
    simulate_governed(devices, env, opts, &ResourceGovernor::unlimited()).into_value()
}

/// Runs the full simulation under a [`ResourceGovernor`].
///
/// When a limit trips mid-fixed-point the engine stops where it is and
/// returns [`Outcome::Partial`]: the data plane computed so far (with
/// `convergence.aborted` set), and the still-churning prefixes listed as
/// abandoned work — a partial-but-honest result instead of a hang.
pub fn simulate_governed(
    devices: &[Device],
    env: &Environment,
    opts: &SimOptions,
    gov: &ResourceGovernor,
) -> Outcome<DataPlane> {
    let _span = batnet_obs::Span::enter("route.simulate");
    // Phase 0: apply environment link failures.
    let mut devices: Vec<Device> = devices.to_vec();
    for d in devices.iter_mut() {
        let name = d.name.clone();
        for iface in d.interfaces.values_mut() {
            if env.interface_failed(&name, &iface.name) {
                iface.enabled = false;
            }
        }
    }
    let topo = Topology::infer(&devices);

    // Phases 1+2: connected + static, then OSPF.
    let igp_span = batnet_obs::Span::enter("route.igp");
    let mut ribs: Vec<MainRib> = devices.iter().map(local_routes).collect();
    let ospf = OspfGraph::build(&devices, &topo);
    for (di, rib) in ribs.iter_mut().enumerate() {
        for r in ospf.routes_for(di, &devices) {
            rib.offer(r);
        }
    }
    igp_span.close();

    // Phase 3+4+5: BGP with session re-evaluation.
    let bgp_span = batnet_obs::Span::enter("route.bgp");
    let pools = BgpPools::default();
    let mut report = ConvergenceReport::default();
    let external_peers = external_peer_map(&devices, env);
    let mut sessions = bgp::discover_sessions(&devices, &external_peers);
    let mut established = evaluate_sessions(&devices, &ribs, &mut sessions);
    let mut nodes: Vec<BgpNode> = Vec::new();
    for round in 0..=SESSION_REEVAL_ROUNDS {
        // (Re)run BGP from scratch against the current session set.
        // Reset any BGP contributions in the main RIBs.
        for rib in ribs.iter_mut() {
            let prefixes: Vec<Prefix> = rib
                .iter_best()
                .map(|(p, _)| *p)
                .collect();
            for p in prefixes {
                rib.withdraw(p, RouteProtocol::Ebgp);
                rib.withdraw(p, RouteProtocol::Ibgp);
                rib.withdraw(p, RouteProtocol::BgpLocal);
            }
        }
        nodes = init_bgp_nodes(&devices, &sessions, &mut ribs, env, &pools, opts);
        let r = run_bgp_fixed_point(&devices, &mut nodes, &mut ribs, &pools, opts, gov);
        report.converged = r.converged;
        report.sweeps += r.sweeps;
        report.colors = r.colors;
        report.unstable_prefixes = r.unstable_prefixes;
        report.aborted = r.aborted;
        for d in r.poisoned_devices {
            if !report.poisoned_devices.contains(&d) {
                report.poisoned_devices.push(d);
            }
        }
        if report.aborted.is_some() {
            // Out of budget: no further re-evaluation rounds.
            break;
        }
        // Re-evaluate viability against the fuller data plane.
        let now = evaluate_sessions(&devices, &ribs, &mut sessions);
        if now == established || round == SESSION_REEVAL_ROUNDS {
            break;
        }
        established = now;
    }
    bgp_span.close();
    batnet_obs::counter_add("route.sweeps", report.sweeps as u64);
    batnet_obs::gauge_set("route.colors", report.colors as f64);
    batnet_obs::gauge_set(
        "route.sessions.established",
        established.len() as f64,
    );
    if !report.poisoned_devices.is_empty() {
        batnet_obs::counter_add("route.poisoned", report.poisoned_devices.len() as u64);
    }

    // Phase 6: FIBs — independent per device, fanned out over a map
    // and merged in device order.
    let fib_span = batnet_obs::Span::enter("route.fib");
    let fibs: Vec<Fib> = batnet_exec::current().map_opts(
        &ribs,
        batnet_exec::MapOptions {
            span: Some(("exec.fib", fib_span.context())),
        },
        Fib::build,
    );
    fib_span.close();

    let stats = pools.attrs.stats();
    let total_bgp_routes: u64 = nodes
        .iter()
        .map(|n| n.rib_in.values().map(|p| p.len() as u64).sum::<u64>())
        .sum();
    let mem = MemReport {
        total_bgp_routes,
        unique_attr_bundles: stats.unique,
        intern_requests: stats.requests,
    };

    let index = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.clone(), i))
        .collect();
    let devices = devices
        .into_iter()
        .zip(ribs)
        .zip(nodes)
        .zip(fibs)
        .map(|(((d, main_rib), bgp), fib)| DeviceDataPlane {
            name: d.name,
            main_rib,
            bgp,
            fib,
        })
        .collect();
    let dp = DataPlane {
        devices,
        index,
        convergence: report,
        mem,
    };
    match dp.convergence.aborted.clone() {
        Some(why) => {
            let abandoned: Vec<String> = dp
                .convergence
                .unstable_prefixes
                .iter()
                .map(|p| p.to_string())
                .collect();
            Outcome::Partial {
                completed: dp,
                abandoned,
                why,
            }
        }
        None => Outcome::Complete(dp),
    }
}

/// Connected and static routes of one device.
fn local_routes(d: &Device) -> MainRib {
    let mut rib = MainRib::new();
    for iface in d.active_interfaces() {
        if let Some(p) = iface.connected_prefix() {
            rib.offer(MainRoute {
                prefix: p,
                admin_distance: 0,
                metric: 0,
                protocol: RouteProtocol::Connected,
                next_hop: MainNextHop::Connected {
                    iface: iface.name.clone(),
                },
            });
        }
        for &(ip, len) in &iface.secondary_addresses {
            rib.offer(MainRoute {
                prefix: Prefix::new(ip, len),
                admin_distance: 0,
                metric: 0,
                protocol: RouteProtocol::Connected,
                next_hop: MainNextHop::Connected {
                    iface: iface.name.clone(),
                },
            });
        }
    }
    for sr in &d.static_routes {
        rib.offer(MainRoute {
            prefix: sr.prefix,
            admin_distance: sr.admin_distance,
            metric: 0,
            protocol: RouteProtocol::Static,
            next_hop: match sr.next_hop {
                NextHop::Ip(ip) => MainNextHop::Via(ip),
                NextHop::Discard => MainNextHop::Discard,
            },
        });
    }
    rib
}

/// (device idx, peer ip) → AS for every environment announcement source.
fn external_peer_map(devices: &[Device], env: &Environment) -> BTreeMap<(usize, batnet_net::Ip), Asn> {
    let index: BTreeMap<&str, usize> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect();
    let mut map = BTreeMap::new();
    for a in &env.announcements {
        let Some(&di) = index.get(a.device.as_str()) else { continue };
        let Some(&peer_as) = a.as_path.0.first() else { continue };
        map.insert((di, a.peer_ip), peer_as);
    }
    map
}

/// Marks each session established or not against the current RIBs.
/// Returns the established set for change detection.
fn evaluate_sessions(
    devices: &[Device],
    ribs: &[MainRib],
    sessions: &mut [Vec<Session>],
) -> BTreeSet<(usize, usize)> {
    let mut up = BTreeSet::new();
    // First pass: one-directional viability.
    let mut viable: Vec<Vec<bool>> = Vec::with_capacity(sessions.len());
    for (di, devsessions) in sessions.iter().enumerate() {
        let mut v = Vec::with_capacity(devsessions.len());
        for s in devsessions.iter() {
            v.push(bgp::bgp_path_clear(&devices[di], &ribs[di], s.local_ip, s.peer_ip));
        }
        viable.push(v);
    }
    // Second pass: a session is up when both directions are viable
    // (external sessions only need our side).
    for di in 0..sessions.len() {
        for si in 0..sessions[di].len() {
            let s = &sessions[di][si];
            let ok = viable[di][si]
                && match s.peer_device {
                    None => true,
                    Some(pi) => {
                        // The peer's matching session must also be viable.
                        sessions[pi]
                            .iter()
                            .enumerate()
                            .any(|(pj, ps)| {
                                ps.peer_device == Some(di)
                                    && ps.peer_ip == s.local_ip
                                    && viable[pi][pj]
                            })
                    }
                };
            sessions[di][si].established = ok;
            if ok {
                up.insert((di, si));
            }
        }
    }
    up
}

/// Initializes per-device BGP state: local originations (network
/// statements, redistribution) and environment announcements.
fn init_bgp_nodes(
    devices: &[Device],
    sessions: &[Vec<Session>],
    ribs: &mut [MainRib],
    env: &Environment,
    pools: &BgpPools,
    opts: &SimOptions,
) -> Vec<BgpNode> {
    let mut nodes: Vec<BgpNode> = Vec::with_capacity(devices.len());
    for (di, d) in devices.iter().enumerate() {
        let mut node = BgpNode {
            asn: d.bgp.as_ref().map(|b| b.asn).unwrap_or(Asn(0)),
            router_id: d.router_id(),
            sessions: sessions[di].clone(),
            ..BgpNode::default()
        };
        if let Some(bgp) = &d.bgp {
            let mut originate: Vec<(Prefix, RouteOrigin)> = Vec::new();
            for &p in &bgp.networks {
                // `network` requires the prefix in the RIB already.
                if !ribs[di].candidates(&p).is_empty() {
                    originate.push((p, RouteOrigin::Igp));
                }
            }
            if bgp.redistribute_connected {
                for iface in d.active_interfaces() {
                    if let Some(p) = iface.connected_prefix() {
                        originate.push((p, RouteOrigin::Incomplete));
                    }
                }
            }
            if bgp.redistribute_static {
                for sr in &d.static_routes {
                    originate.push((sr.prefix, RouteOrigin::Incomplete));
                }
            }
            if bgp.redistribute_ospf {
                let prefixes: Vec<Prefix> = ribs[di]
                    .iter_best()
                    .filter(|(_, rs)| rs.iter().any(|r| r.protocol == RouteProtocol::Ospf))
                    .map(|(p, _)| *p)
                    .collect();
                for p in prefixes {
                    originate.push((p, RouteOrigin::Incomplete));
                }
            }
            for (prefix, origin) in originate {
                let mut attrs = RouteAttrs::new(prefix, RouteProtocol::BgpLocal);
                attrs.origin = origin;
                let route = BgpRoute {
                    attrs: pools.attrs.intern(attrs),
                    from: PeerKey::Local,
                    sender_router_id: node.router_id,
                    arrival: node.clock,
                    igp_cost: 0,
                };
                node.clock += 1;
                apply_rib_in(
                    &mut node,
                    RibInUpdate {
                        prefix,
                        peer: PeerKey::Local,
                        route: Some(route),
                    },
                );
                node.reselect(prefix, &mut ribs[di], opts.use_logical_clocks);
            }
            // Environment announcements arrive on external sessions.
            for a in &env.announcements {
                if a.device != d.name {
                    continue;
                }
                let Some(session) = node
                    .sessions
                    .iter()
                    .find(|s| s.peer_ip == a.peer_ip && s.established)
                    .cloned()
                else {
                    continue;
                };
                let mut attrs = RouteAttrs::new(a.prefix, RouteProtocol::Ebgp);
                attrs.as_path = a.as_path.clone();
                attrs.med = a.med;
                attrs.communities = a.communities.iter().copied().collect();
                attrs.next_hop = a.peer_ip;
                attrs.origin = RouteOrigin::Igp;
                let arrival = node.clock;
                if let Some(route) = bgp::import_route(
                    d,
                    node.asn,
                    &session,
                    attrs,
                    a.peer_ip,
                    &ribs[di],
                    &pools.attrs,
                    arrival,
                ) {
                    node.clock += 1;
                    let prefix = a.prefix;
                    apply_rib_in(
                        &mut node,
                        RibInUpdate {
                            prefix,
                            peer: PeerKey::Peer(session.peer_ip),
                            route: Some(route),
                        },
                    );
                    node.reselect(prefix, &mut ribs[di], opts.use_logical_clocks);
                }
            }
        }
        nodes.push(node);
    }
    // Rotate: the initial originations become delta_prev for sweep 1.
    for node in nodes.iter_mut() {
        node.delta_prev = std::mem::take(&mut node.delta_cur);
    }
    nodes
}

/// One receiver's computed changes for a sweep.
struct NodeChanges {
    node: usize,
    updates: Vec<RibInUpdate>,
    new_clock: u64,
    /// The node's computation panicked; the panic was contained and the
    /// node contributes nothing (here and in later sweeps).
    poisoned: bool,
}

/// Runs the colored (or lockstep) fixed point. Returns the report.
fn run_bgp_fixed_point(
    devices: &[Device],
    nodes: &mut Vec<BgpNode>,
    ribs: &mut [MainRib],
    pools: &BgpPools,
    opts: &SimOptions,
    gov: &ResourceGovernor,
) -> ConvergenceReport {
    let n = devices.len();
    // BGP adjacency graph (device level) over established sessions.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (di, node) in nodes.iter().enumerate() {
        for s in &node.sessions {
            if let (true, Some(pi)) = (s.established, s.peer_device) {
                if !adj[di].contains(&pi) {
                    adj[di].push(pi);
                }
            }
        }
    }
    let (groups, colors) = match opts.scheduler {
        SchedulerMode::Colored => {
            let colors = color_graph(&adj);
            let max = colors.iter().copied().max().map(|c| c as usize + 1).unwrap_or(0);
            (color_groups(&colors), max.max(1))
        }
        SchedulerMode::Lockstep => ((vec![(0..n).collect::<Vec<_>>()]), 1),
    };
    // color_of[i] = position of i's group in the sweep order.
    let mut rank_of = vec![0usize; n];
    for (gi, g) in groups.iter().enumerate() {
        for &v in g {
            rank_of[v] = gi;
        }
    }

    let mut report = ConvergenceReport {
        colors,
        ..ConvergenceReport::default()
    };

    let mut poisoned: BTreeSet<usize> = BTreeSet::new();
    'sweeps: for _sweep in 0..opts.max_sweeps {
        // Governor gate: a sweep only starts while within budget.
        if let Err(e) = gov.check("bgp-fixed-point") {
            report.aborted = Some(e);
            break;
        }
        report.sweeps += 1;
        for group in &groups {
            // One iteration of shared budget per node processed.
            if let Err(e) = gov.tick("bgp-fixed-point", group.len() as u64) {
                report.aborted = Some(e);
                break 'sweeps;
            }
            // Compute phase: read-only over all nodes; parallel when the
            // group is large enough to pay for threads. A panicking node
            // is contained here (not propagated): it yields no updates
            // and is flagged for quarantine by the caller.
            let poisoned_now = &poisoned;
            let compute = |&ni: &usize| -> NodeChanges {
                if poisoned_now.contains(&ni) {
                    return NodeChanges {
                        node: ni,
                        updates: Vec::new(),
                        new_clock: nodes[ni].clock,
                        poisoned: false,
                    };
                }
                match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    compute_pulls(ni, devices, nodes, ribs, pools, &rank_of, opts)
                })) {
                    Ok(ch) => ch,
                    Err(_) => NodeChanges {
                        node: ni,
                        updates: Vec::new(),
                        new_clock: nodes[ni].clock,
                        poisoned: true,
                    },
                }
            };
            let changes: Vec<NodeChanges> = if group.len() >= 8 {
                batnet_exec::current().map(group, compute)
            } else {
                group.iter().map(compute).collect()
            };
            // Apply phase: sequential, ascending node order (deterministic).
            for ch in changes {
                if ch.poisoned {
                    poisoned.insert(ch.node);
                    let name = devices[ch.node].name.clone();
                    if !report.poisoned_devices.contains(&name) {
                        report.poisoned_devices.push(name);
                    }
                    continue;
                }
                let node = &mut nodes[ch.node];
                node.clock = ch.new_clock;
                let mut touched: BTreeSet<Prefix> = BTreeSet::new();
                for up in ch.updates {
                    let prefix = up.prefix;
                    if apply_rib_in(node, up) {
                        touched.insert(prefix);
                    }
                }
                for p in touched {
                    node.reselect(p, &mut ribs[ch.node], opts.use_logical_clocks);
                }
            }
        }
        // Sweep end: rotate deltas; converged when nothing changed.
        let mut delta_total = 0u64;
        for node in nodes.iter_mut() {
            delta_total += (node.delta_cur.added.len() + node.delta_cur.removed.len()) as u64;
            node.delta_prev = std::mem::take(&mut node.delta_cur);
        }
        batnet_obs::observe("route.sweep.rib-delta", delta_total);
        if delta_total == 0 {
            report.converged = true;
            break;
        }
    }
    if !report.converged {
        // Both delta generations matter: an abort mid-sweep leaves work in
        // delta_cur that was never rotated.
        let mut unstable: BTreeSet<Prefix> = BTreeSet::new();
        for node in nodes.iter() {
            unstable.extend(node.delta_prev.added.iter().map(|r| r.attrs.prefix));
            unstable.extend(node.delta_prev.removed.iter().copied());
            unstable.extend(node.delta_cur.added.iter().map(|r| r.attrs.prefix));
            unstable.extend(node.delta_cur.removed.iter().copied());
        }
        report.unstable_prefixes = unstable.into_iter().collect();
    }
    report
}

/// Computes the RIB-in updates node `ni` receives this sweep by pulling
/// each established session's peer deltas through export + import policy.
fn compute_pulls(
    ni: usize,
    devices: &[Device],
    nodes: &[BgpNode],
    ribs: &[MainRib],
    pools: &BgpPools,
    rank_of: &[usize],
    opts: &SimOptions,
) -> NodeChanges {
    let node = &nodes[ni];
    let device = &devices[ni];
    let mut clock = node.clock;
    let mut updates = Vec::new();
    for session in &node.sessions {
        if !session.established {
            continue;
        }
        let Some(pi) = session.peer_device else {
            continue; // external announcements were injected at init
        };
        let peer_node = &nodes[pi];
        let peer_device = &devices[pi];
        let peer_ran_first = matches!(opts.scheduler, SchedulerMode::Colored)
            && rank_of[pi] < rank_of[ni];
        // Pull order: previous sweep's delta, then (Gauss–Seidel) this
        // sweep's if the peer already ran.
        let mut deltas: Vec<&crate::rib::RibDelta<BgpRoute>> = vec![&peer_node.delta_prev];
        if peer_ran_first {
            deltas.push(&peer_node.delta_cur);
        }
        let session_is_ebgp = session.is_ebgp(node.asn);
        let peer_key = PeerKey::Peer(session.peer_ip);
        let Some(peer_nidx) = session.peer_neighbor_idx else { continue };
        for delta in deltas {
            for &prefix in &delta.removed {
                updates.push(RibInUpdate {
                    prefix,
                    peer: peer_key,
                    route: None,
                });
            }
            for route in &delta.added {
                let exported = bgp::export_route(
                    peer_device,
                    peer_node.asn,
                    session_is_ebgp,
                    session.peer_ip, // the peer's address on this session
                    peer_nidx,
                    route,
                );
                let update = match exported {
                    None => RibInUpdate {
                        // An unexportable replacement acts as a withdraw
                        // of whatever we previously held from this peer.
                        prefix: route.attrs.prefix,
                        peer: peer_key,
                        route: None,
                    },
                    Some(attrs) => {
                        let arrival = clock;
                        match bgp::import_route(
                            device,
                            node.asn,
                            session,
                            attrs,
                            peer_node.router_id,
                            &ribs[ni],
                            &pools.attrs,
                            arrival,
                        ) {
                            Some(r) => {
                                clock += 1;
                                RibInUpdate {
                                    prefix: r.attrs.prefix,
                                    peer: peer_key,
                                    route: Some(r),
                                }
                            }
                            None => RibInUpdate {
                                prefix: route.attrs.prefix,
                                peer: peer_key,
                                route: None,
                            },
                        }
                    }
                };
                updates.push(update);
            }
        }
    }
    NodeChanges {
        node: ni,
        updates,
        new_clock: clock,
        poisoned: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    fn devs(configs: &[(&str, &str)]) -> Vec<Device> {
        configs
            .iter()
            .map(|(n, t)| parse_device(n, t).0)
            .collect()
    }

    /// Two routers, eBGP, each redistributing a LAN.
    fn ebgp_pair() -> Vec<Device> {
        devs(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n bgp router-id 1.1.1.1\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface lan\n ip address 10.2.0.1/24\nrouter bgp 65002\n bgp router-id 2.2.2.2\n redistribute connected\n neighbor 10.0.0.1 remote-as 65001\n",
            ),
        ])
    }

    #[test]
    fn ebgp_pair_exchanges_routes() {
        let dp = simulate(&ebgp_pair(), &Environment::none(), &SimOptions::default());
        assert!(dp.convergence.converged);
        let r1 = dp.device("r1").unwrap();
        // r1 must have learned 10.2.0.0/24 via eBGP.
        let (p, routes) = r1.main_rib.lookup("10.2.0.5".parse().unwrap()).unwrap();
        assert_eq!(p.to_string(), "10.2.0.0/24");
        assert_eq!(routes[0].protocol, RouteProtocol::Ebgp);
        assert_eq!(
            routes[0].next_hop,
            MainNextHop::Via("10.0.0.0".parse().unwrap())
        );
        // And the AS path must carry the peer's AS.
        let best = &r1.bgp.best[&"10.2.0.0/24".parse().unwrap()];
        assert_eq!(best.attrs.as_path.0, vec![Asn(65002)]);
        // FIB resolves out e0.
        match &r1.fib.lookup("10.2.0.5".parse().unwrap()).unwrap().action {
            crate::fib::FibAction::Forward(hops) => assert_eq!(hops[0].iface, "e0"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let d = ebgp_pair();
        let dp1 = simulate(&d, &Environment::none(), &SimOptions::default());
        let dp2 = simulate(&d, &Environment::none(), &SimOptions::default());
        for (a, b) in dp1.devices.iter().zip(dp2.devices.iter()) {
            assert_eq!(a.main_rib, b.main_rib);
        }
    }

    #[test]
    fn external_announcement_propagates() {
        let mut env = Environment::none();
        // r2 has an external peer 10.9.0.2 announcing a default route.
        env.announcements.push(crate::env::ExternalAnnouncement::simple(
            "r2",
            "10.9.0.2".parse().unwrap(),
            Asn(174),
            "0.0.0.0/0".parse().unwrap(),
        ));
        let mut devices = ebgp_pair();
        // Give r2 the upstream interface + neighbor.
        let (d2, diags) = parse_device(
            "r2",
            "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface lan\n ip address 10.2.0.1/24\ninterface up\n ip address 10.9.0.1/24\nrouter bgp 65002\n bgp router-id 2.2.2.2\n redistribute connected\n neighbor 10.0.0.1 remote-as 65001\n neighbor 10.9.0.2 remote-as 174\n",
        );
        assert!(diags.items().is_empty());
        devices[1] = d2;
        let dp = simulate(&devices, &env, &SimOptions::default());
        assert!(dp.convergence.converged);
        // r1 learns the default route through r2 (AS path 65002 174).
        let r1 = dp.device("r1").unwrap();
        let best = &r1.bgp.best[&Prefix::DEFAULT];
        assert_eq!(best.attrs.as_path.0, vec![Asn(65002), Asn(174)]);
    }

    #[test]
    fn session_blocked_by_acl_means_no_routes() {
        let mut devices = ebgp_pair();
        let (d1, _) = parse_device(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/31\n ip access-group BLOCK out\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\nip access-list extended BLOCK\n 10 deny tcp any any eq 179\n 20 permit ip any any\n",
        );
        devices[0] = d1;
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let r1 = dp.device("r1").unwrap();
        assert!(
            r1.main_rib.lookup("10.2.0.5".parse().unwrap()).is_none(),
            "session must not establish through the BGP-blocking ACL"
        );
    }

    #[test]
    fn ibgp_over_ospf_with_next_hop_self() {
        // r1 -(ospf)- r2; iBGP between loopbacks; r1 has an eBGP-learned
        // route (via environment) it re-advertises to r2.
        let devices = devs(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\n ip ospf area 0\ninterface lo0\n ip address 1.1.1.1/32\n ip ospf area 0\n ip ospf passive\ninterface up\n ip address 10.9.0.1/24\nrouter ospf 1\nrouter bgp 65000\n bgp router-id 1.1.1.1\n neighbor 2.2.2.2 remote-as 65000\n neighbor 2.2.2.2 next-hop-self\n neighbor 10.9.0.2 remote-as 174\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\n ip ospf area 0\ninterface lo0\n ip address 2.2.2.2/32\n ip ospf area 0\n ip ospf passive\nrouter ospf 1\nrouter bgp 65000\n bgp router-id 2.2.2.2\n neighbor 1.1.1.1 remote-as 65000\n",
            ),
        ]);
        let mut env = Environment::none();
        env.announcements.push(crate::env::ExternalAnnouncement::simple(
            "r1",
            "10.9.0.2".parse().unwrap(),
            Asn(174),
            "203.0.113.0/24".parse().unwrap(),
        ));
        let dp = simulate(&devices, &env, &SimOptions::default());
        assert!(dp.convergence.converged);
        let r2 = dp.device("r2").unwrap();
        let p: Prefix = "203.0.113.0/24".parse().unwrap();
        let best = r2.bgp.best.get(&p).expect("iBGP route present");
        assert_eq!(best.attrs.protocol, RouteProtocol::Ibgp);
        // next-hop-self: next hop must be r1's loopback (the session
        // source), which r2 resolves via OSPF.
        assert_eq!(best.attrs.next_hop, "1.1.1.1".parse().unwrap());
        assert!(best.igp_cost > 0, "resolved through OSPF");
        // Main RIB AD for iBGP is 200.
        let (_, routes) = r2.main_rib.lookup("203.0.113.7".parse().unwrap()).unwrap();
        assert_eq!(routes[0].admin_distance, 200);
    }

    #[test]
    fn import_policy_sets_local_pref() {
        let mut devices = ebgp_pair();
        let (d1, diags) = parse_device(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\n neighbor 10.0.0.0 route-map SETLP in\nroute-map SETLP permit 10\n set local-preference 250\n",
        );
        assert!(diags.items().is_empty(), "{:?}", diags.items());
        devices[0] = d1;
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let r1 = dp.device("r1").unwrap();
        let best = &r1.bgp.best[&"10.2.0.0/24".parse().unwrap()];
        assert_eq!(best.attrs.local_pref, 250);
    }

    #[test]
    fn undefined_import_policy_fails_closed() {
        let mut devices = ebgp_pair();
        let (d1, diags) = parse_device(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\n neighbor 10.0.0.0 route-map NOPE in\n",
        );
        // The reference is undefined but parse succeeds (Lesson 3).
        assert!(diags.items().is_empty());
        devices[0] = d1;
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let r1 = dp.device("r1").unwrap();
        assert!(
            !r1.bgp.best.contains_key(&"10.2.0.0/24".parse().unwrap()),
            "undefined import policy must reject all routes"
        );
    }

    #[test]
    fn link_failure_environment() {
        let mut env = Environment::none();
        env.failed_interfaces.push(("r1".into(), "e0".into()));
        let dp = simulate(&ebgp_pair(), &env, &SimOptions::default());
        let r1 = dp.device("r1").unwrap();
        assert!(r1.main_rib.lookup("10.2.0.5".parse().unwrap()).is_none());
        // The connected subnet of the failed interface is gone too.
        assert!(r1.main_rib.lookup("10.0.0.0".parse().unwrap()).is_none());
    }

    #[test]
    fn mem_report_populated() {
        let dp = simulate(&ebgp_pair(), &Environment::none(), &SimOptions::default());
        assert!(dp.mem.total_bgp_routes > 0);
        assert!(dp.mem.unique_attr_bundles > 0);
        assert!(dp.mem.sharing_factor(dp.shareable_combos()) >= 1.0);
    }
}
