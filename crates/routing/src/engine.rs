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
//! Same-color nodes are processed in parallel by one `batnet_exec` map
//! per colour group (CPU-bound work on scoped OS threads — no async
//! runtime, per the project's networking guides). Each map item pulls one
//! member's updates from its peers and folds them straight into that
//! member's state, so only one member's updates are buffered per thread.
//! Before the map, each member's written state — RIB-in, best routes,
//! current delta, clock and main RIB — moves out of the shared vectors;
//! what its pulls read of peers stays in place. No pull reads another
//! member's moved-out state: colour-group members are never peers, and
//! lockstep pulls read only peers' previous deltas. So RIBs, best routes
//! and clocks are byte-identical at every thread count. Only the poison
//! bookkeeping after the map runs sequentially, in ascending node order.

use crate::bgp::{self, apply_rib_in, BgpNode, RibInUpdate, Session, ATTR_BUNDLE_BYTES};
use crate::env::Environment;
use crate::fib::Fib;
use crate::ospf::OspfGraph;
use crate::rib::MainRib;
use crate::routes::{BgpRoute, MainNextHop, MainRoute, PathAttrs, PeerKey};
use crate::scheduler::{color_graph, color_groups, SchedulerMode};
use batnet_config::vi::{Device, NextHop, RouteAttrs, RouteOrigin, RouteProtocol};
use batnet_config::Topology;
use batnet_net::governor::{Exhaustion, Outcome, ResourceGovernor};
use batnet_net::hash::FxMap;
use batnet_net::{Asn, Interned, Interner, Prefix};
use std::borrow::Cow;
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
    /// Distinct interned attribute bundles: the shareable properties
    /// only — prefix and next hop stay with each route — so this is what
    /// the run actually allocated against [`DataPlane::shareable_combos`].
    pub unique_attr_bundles: u64,
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
            for routes in d.bgp.rib_in.values() {
                for r in routes {
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
    let topo = Topology::infer(devices);
    simulate_governed(devices, &topo, env, opts, &ResourceGovernor::unlimited()).into_value()
}

/// Runs the full simulation under a [`ResourceGovernor`], over
/// `topo = Topology::infer(devices)`, which the caller has inferred.
/// Routing reads it as is unless `env` fails an interface; then the
/// topology of the patched devices is inferred here.
///
/// When a limit trips mid-fixed-point the engine stops where it is and
/// returns [`Outcome::Partial`]: the data plane computed so far (with
/// `convergence.aborted` set), and the still-churning prefixes listed as
/// abandoned work — a partial-but-honest result instead of a hang.
pub fn simulate_governed(
    devices: &[Device],
    topo: &Topology,
    env: &Environment,
    opts: &SimOptions,
    gov: &ResourceGovernor,
) -> Outcome<DataPlane> {
    let _span = batnet_obs::Span::enter("route.simulate");
    // Phase 0: apply environment link failures. Only then do the devices
    // (and their topology) differ from the caller's, so only then are
    // they copied.
    let (devices, topo): (Cow<'_, [Device]>, Cow<'_, Topology>) =
        if env.failed_interfaces.is_empty() {
            (Cow::Borrowed(devices), Cow::Borrowed(topo))
        } else {
            let mut devices = devices.to_vec();
            for d in devices.iter_mut() {
                let name = d.name.clone();
                for iface in d.interfaces.values_mut() {
                    if env.interface_failed(&name, &iface.name) {
                        iface.enabled = false;
                    }
                }
            }
            let topo = Topology::infer(&devices);
            (Cow::Owned(devices), Cow::Owned(topo))
        };
    let (devices, topo) = (&*devices, &*topo);

    // Phases 1+2: connected + static, then OSPF.
    let igp_span = batnet_obs::Span::enter("route.igp");
    let mut ribs = igp_ribs(devices, topo);
    igp_span.close();

    // Phase 3+4+5: BGP with session re-evaluation.
    let bgp_span = batnet_obs::Span::enter("route.bgp");
    let pool: Interner<PathAttrs> = Interner::new();
    let mut report = ConvergenceReport::default();
    let mut sessions: Vec<Vec<Session>> = Vec::new();
    let mut established: Option<BTreeSet<(usize, usize)>> = None;
    let mut nodes: Vec<BgpNode> = Vec::new();
    for round in 0..=SESSION_REEVAL_ROUNDS {
        let sessions_span = batnet_obs::Span::enter("route.sessions");
        if round == 0 {
            let external_peers = external_peer_map(devices, env);
            sessions = bgp::discover_sessions(devices, topo, &external_peers);
        }
        // Evaluate viability against the data plane so far; after the
        // first round, stop once the session set is stable.
        let now = evaluate_sessions(devices, &ribs, &mut sessions);
        if established.as_ref() == Some(&now) {
            break;
        }
        established = Some(now);
        // (Re)run BGP from scratch against the current session set.
        // `reselect` keeps BGP routes in a main RIB for exactly the
        // prefixes in `best`, so those are the only ones to reset.
        for (rib, node) in ribs.iter_mut().zip(&nodes) {
            for &p in node.best.keys() {
                rib.withdraw(p, RouteProtocol::Ebgp);
                rib.withdraw(p, RouteProtocol::Ibgp);
                rib.withdraw(p, RouteProtocol::BgpLocal);
            }
        }
        sessions_span.close();
        nodes = init_bgp_nodes(devices, &sessions, &mut ribs, env, &pool, opts);
        let r = run_bgp_fixed_point(devices, &mut nodes, &mut ribs, &pool, opts, gov);
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
    }
    bgp_span.close();
    let stats = pool.stats();
    batnet_obs::counter_add("route.sweeps", report.sweeps as u64);
    batnet_obs::gauge_set("route.attr_bundles", stats.unique as f64);
    batnet_obs::gauge_set("route.colors", report.colors as f64);
    batnet_obs::gauge_set(
        "route.sessions.established",
        established.map_or(0, |e| e.len()) as f64,
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
    let entries: usize = fibs.iter().map(Fib::len).sum();
    let hop_sets: usize = fibs.iter().map(Fib::hop_sets).sum();
    batnet_obs::gauge_set("route.fib.entries", entries as f64);
    batnet_obs::gauge_set("route.fib.hop_sets", hop_sets as f64);

    let total_bgp_routes: u64 = nodes
        .iter()
        .map(|n| n.rib_in.values().map(|p| p.len() as u64).sum::<u64>())
        .sum();
    let mem = MemReport {
        total_bgp_routes,
        unique_attr_bundles: stats.unique,
    };

    let index = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.clone(), i))
        .collect();
    let devices = devices
        .iter()
        .zip(ribs)
        .zip(nodes)
        .zip(fibs)
        .map(|(((d, main_rib), bgp), fib)| DeviceDataPlane {
            name: d.name.clone(),
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

/// Every device's connected, static and OSPF candidates. Each device
/// with an OSPF adjacency merges its OSPF routes into its local RIB in
/// one pass, on the calling thread: on a pool, which helper allocated
/// each RIB, and so the heap later stages work in, would change from run
/// to run (DESIGN §5j).
pub(crate) fn igp_ribs(devices: &[Device], topo: &Topology) -> Vec<MainRib> {
    let mut ribs: Vec<MainRib> = devices.iter().map(local_routes).collect();
    let _span = batnet_obs::Span::enter("route.ospf");
    let ospf = OspfGraph::build(devices, topo);
    for (di, rib) in ribs.iter_mut().enumerate() {
        if ospf.has_adjacency(di) {
            *rib = rib.merged_with(ospf.routes_for(di));
        }
    }
    ribs
}

/// Connected and static routes of one device.
pub(crate) fn local_routes(d: &Device) -> MainRib {
    let mut rib = MainRib::new();
    for iface in d.active_interfaces() {
        for prefix in iface.connected_prefixes() {
            rib.offer(MainRoute {
                prefix,
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
    pool: &Interner<PathAttrs>,
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
                for p in d.active_interfaces().flat_map(|i| i.connected_prefixes()) {
                    originate.push((p, RouteOrigin::Incomplete));
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
                let route =
                    BgpRoute::new(attrs, pool, PeerKey::Local, node.router_id, node.clock, 0);
                node.clock += 1;
                apply_rib_in(&mut node, RibInUpdate::Upsert(route));
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
                    pool,
                    arrival,
                ) {
                    node.clock += 1;
                    apply_rib_in(&mut node, RibInUpdate::Upsert(route));
                    node.reselect(a.prefix, &mut ribs[di], opts.use_logical_clocks);
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

/// Runs the colored (or lockstep) fixed point. Returns the report.
fn run_bgp_fixed_point(
    devices: &[Device],
    nodes: &mut [BgpNode],
    ribs: &mut [MainRib],
    pool: &Interner<PathAttrs>,
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
    // rank_of[i] = position of i's group in the sweep order.
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
    let mut updates = 0u64;
    let mut memo_hits = 0u64;
    'sweeps: for sweep in 1..=opts.max_sweeps {
        // Governor gate: a sweep only starts while within budget.
        if let Err(e) = gov.check("bgp-fixed-point") {
            report.aborted = Some(e);
            break;
        }
        report.sweeps += 1;
        // Numbered, so a folded profile keeps each sweep's time apart.
        let sweep_span = batnet_obs::Span::enter(format!("route.sweep.{sweep}"));
        let mut noops = 0u64;
        for group in &groups {
            // One iteration of shared budget per node processed.
            if let Err(e) = gov.tick("bgp-fixed-point", group.len() as u64) {
                report.aborted = Some(e);
                break 'sweeps;
            }
            let group_span = batnet_obs::Span::enter("route.sweep.group");
            // Move out what each member writes (see the module doc for
            // why no pull reads it).
            let mut members: Vec<Member> = group
                .iter()
                .filter(|ni| !poisoned.contains(ni))
                .map(|&ni| Member::take(ni, nodes, ribs))
                .collect();
            let in_place: &[BgpNode] = nodes;
            // A panicking pull is contained (not propagated): the node
            // keeps its moved-out state untouched and is flagged for
            // quarantine by the caller.
            let visit = |m: &mut Member| -> Option<(u64, u64, u64)> {
                let pulled = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pull(m, devices, in_place, pool, &rank_of, opts)
                }));
                let Pulled {
                    updates,
                    clock,
                    memo_hits,
                } = pulled.ok()?;
                let count = updates.len() as u64;
                m.state.clock = clock;
                Some((
                    count,
                    fold_in(updates, m, opts.use_logical_clocks),
                    memo_hits,
                ))
            };
            // Parallel when the group is large enough to pay for threads.
            let outcomes: Vec<Option<(u64, u64, u64)>> = if group.len() >= 8 {
                batnet_exec::current().map_mut(&mut members, visit)
            } else {
                members.iter_mut().map(visit).collect()
            };
            // Poison bookkeeping: sequential, ascending node order.
            for (m, outcome) in members.into_iter().zip(outcomes) {
                match outcome {
                    Some((pulled, unchanged, hits)) => {
                        updates += pulled;
                        noops += unchanged;
                        memo_hits += hits;
                    }
                    None => {
                        poisoned.insert(m.ni);
                        let name = devices[m.ni].name.clone();
                        if !report.poisoned_devices.contains(&name) {
                            report.poisoned_devices.push(name);
                        }
                    }
                }
                m.put_back(nodes, ribs);
            }
            group_span.close();
        }
        // Sweep end: rotate deltas; converged when nothing changed.
        let mut delta_total = 0u64;
        for node in nodes.iter_mut() {
            delta_total += (node.delta_cur.added.len() + node.delta_cur.removed.len()) as u64;
            node.delta_prev = std::mem::take(&mut node.delta_cur);
        }
        batnet_obs::observe("route.sweep.rib-delta", delta_total);
        batnet_obs::observe("route.sweep.noop-updates", noops);
        sweep_span.close();
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
            unstable.extend(node.delta_prev.added.iter().map(|r| r.prefix));
            unstable.extend(node.delta_prev.removed.iter().copied());
            unstable.extend(node.delta_cur.added.iter().map(|r| r.prefix));
            unstable.extend(node.delta_cur.removed.iter().copied());
        }
        report.unstable_prefixes = unstable.into_iter().collect();
    }
    batnet_obs::counter_add("route.updates", updates);
    batnet_obs::counter_add("route.attr_memo_hits", memo_hits);
    report
}

/// What a sweep writes of one node, moved out of the shared state for
/// its colour group: the RIB-in, best routes, current delta and clock (in
/// a `BgpNode` that holds nothing else) and the main RIB.
struct Member {
    ni: usize,
    state: BgpNode,
    rib: MainRib,
}

impl Member {
    fn take(ni: usize, nodes: &mut [BgpNode], ribs: &mut [MainRib]) -> Member {
        let node = &mut nodes[ni];
        let state = BgpNode {
            rib_in: std::mem::take(&mut node.rib_in),
            best: std::mem::take(&mut node.best),
            delta_cur: std::mem::take(&mut node.delta_cur),
            clock: node.clock,
            ..BgpNode::default()
        };
        Member {
            ni,
            state,
            rib: std::mem::take(&mut ribs[ni]),
        }
    }

    fn put_back(self, nodes: &mut [BgpNode], ribs: &mut [MainRib]) {
        let node = &mut nodes[self.ni];
        node.rib_in = self.state.rib_in;
        node.best = self.state.best;
        node.delta_cur = self.state.delta_cur;
        node.clock = self.state.clock;
        ribs[self.ni] = self.rib;
    }
}

/// Folds a member's RIB-in updates in, in the order they were pulled,
/// then re-runs the decision process once per prefix that changed.
/// Returns how many updates left the RIB-in unchanged.
fn fold_in(updates: Vec<RibInUpdate>, m: &mut Member, use_clock: bool) -> u64 {
    let mut touched: BTreeSet<Prefix> = BTreeSet::new();
    let mut noops = 0;
    for up in updates {
        let prefix = up.prefix();
        if apply_rib_in(&mut m.state, up) {
            touched.insert(prefix);
        } else {
            noops += 1;
        }
    }
    for p in touched {
        m.state.reselect(p, &mut m.rib, use_clock);
    }
    noops
}

/// What one member's pull produced.
struct Pulled {
    /// RIB-in updates, in pull order.
    updates: Vec<RibInUpdate>,
    /// The member's clock after stamping every upsert.
    clock: u64,
    /// Imports that reused a bundle derived earlier in the pull.
    memo_hits: u64,
}

/// A bundle derived within one pull on a session with no route map,
/// keyed by everything the derivation reads: the sent bundle (by
/// pointer: the pool never drops a bundle, so an address names one
/// bundle for the whole run), the sender's AS, eBGP or not, and the
/// sender's `send_community`.
type BundleMemo = FxMap<(*const PathAttrs, Asn, bool, bool), Interned<PathAttrs>>;

/// Computes the RIB-in updates member `m` receives this sweep by pulling
/// each established session's peer deltas through export + import policy.
/// Reads the member's own moved-out clock and main RIB, and everything
/// else in place.
///
/// On a session without route maps ([`bgp::unmapped_sender`]) an import
/// whose key the pull has already derived reuses that bundle: it then
/// only picks the next hop by export's rule, resolves its IGP cost and
/// stamps its arrival, exactly as the full export → import path would.
fn pull(
    m: &Member,
    devices: &[Device],
    nodes: &[BgpNode],
    pool: &Interner<PathAttrs>,
    rank_of: &[usize],
    opts: &SimOptions,
) -> Pulled {
    let ni = m.ni;
    let node = &nodes[ni];
    let device = &devices[ni];
    let mut clock = m.state.clock;
    let mut updates = Vec::new();
    let mut memo = BundleMemo::default();
    let mut memo_hits = 0;
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
        let unmapped = bgp::unmapped_sender(peer_device, peer_nidx, device, session.neighbor_idx);
        for delta in deltas {
            for &prefix in &delta.removed {
                updates.push(RibInUpdate::Withdraw {
                    prefix,
                    peer: peer_key,
                });
            }
            for route in &delta.added {
                // A path that already carries our AS is refused by import
                // whatever export does to it: route maps can only prepend.
                // Withdraw without building the export.
                let withdraw = RibInUpdate::Withdraw {
                    prefix: route.prefix,
                    peer: peer_key,
                };
                if session_is_ebgp && route.attrs.as_path.contains(node.asn) {
                    updates.push(withdraw);
                    continue;
                }
                let key = unmapped.map(|nb| {
                    (
                        route.attrs.as_ptr(),
                        peer_node.asn,
                        session_is_ebgp,
                        nb.send_community,
                    )
                });
                if let (Some(nb), Some(attrs)) = (unmapped, key.and_then(|k| memo.get(&k))) {
                    memo_hits += 1;
                    let next_hop =
                        bgp::export_next_hop(nb, session_is_ebgp, session.peer_ip, route.next_hop);
                    let update = match bgp::resolve_igp_cost(&m.rib, next_hop) {
                        Some(igp_cost) => {
                            let arrival = clock;
                            clock += 1;
                            RibInUpdate::Upsert(BgpRoute {
                                prefix: route.prefix,
                                next_hop,
                                attrs: attrs.clone(),
                                from: peer_key,
                                sender_router_id: peer_node.router_id,
                                arrival,
                                igp_cost,
                            })
                        }
                        None => withdraw,
                    };
                    updates.push(update);
                    continue;
                }
                let exported = bgp::export_route(
                    peer_device,
                    peer_node.asn,
                    session_is_ebgp,
                    session.peer_ip, // the peer's address on this session
                    peer_nidx,
                    route,
                );
                let update = match exported {
                    // An unexportable replacement acts as a withdraw of
                    // whatever we previously held from this peer.
                    None => withdraw,
                    Some(attrs) => {
                        let arrival = clock;
                        match bgp::import_route(
                            device,
                            node.asn,
                            session,
                            attrs,
                            peer_node.router_id,
                            &m.rib,
                            pool,
                            arrival,
                        ) {
                            Some(r) => {
                                clock += 1;
                                if let Some(k) = key {
                                    memo.insert(k, r.attrs.clone());
                                }
                                RibInUpdate::Upsert(r)
                            }
                            None => withdraw,
                        }
                    }
                };
                updates.push(update);
            }
        }
    }
    Pulled {
        updates,
        clock,
        memo_hits,
    }
}

/// The reference [`pull`] checks its bundle memo against: every import
/// through the full export → import path. Returns the updates and the
/// advanced clock.
#[cfg(test)]
fn pull_reference(
    m: &Member,
    devices: &[Device],
    nodes: &[BgpNode],
    pool: &Interner<PathAttrs>,
    rank_of: &[usize],
    opts: &SimOptions,
) -> (Vec<RibInUpdate>, u64) {
    let ni = m.ni;
    let node = &nodes[ni];
    let device = &devices[ni];
    let mut clock = m.state.clock;
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
                updates.push(RibInUpdate::Withdraw {
                    prefix,
                    peer: peer_key,
                });
            }
            for route in &delta.added {
                // A path that already carries our AS is refused by import
                // whatever export does to it: route maps can only prepend.
                // Withdraw without building the export.
                let withdraw = RibInUpdate::Withdraw {
                    prefix: route.prefix,
                    peer: peer_key,
                };
                if session_is_ebgp && route.attrs.as_path.contains(node.asn) {
                    updates.push(withdraw);
                    continue;
                }
                let exported = bgp::export_route(
                    peer_device,
                    peer_node.asn,
                    session_is_ebgp,
                    session.peer_ip, // the peer's address on this session
                    peer_nidx,
                    route,
                );
                let update = match exported {
                    // An unexportable replacement acts as a withdraw of
                    // whatever we previously held from this peer.
                    None => withdraw,
                    Some(attrs) => {
                        let arrival = clock;
                        match bgp::import_route(
                            device,
                            node.asn,
                            session,
                            attrs,
                            peer_node.router_id,
                            &m.rib,
                            pool,
                            arrival,
                        ) {
                            Some(r) => {
                                clock += 1;
                                RibInUpdate::Upsert(r)
                            }
                            None => withdraw,
                        }
                    }
                };
                updates.push(update);
            }
        }
    }
    (updates, clock)
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

    /// r1 -(ospf)- r2 in AS 65000, iBGP between loopbacks with
    /// next-hop-self on r1, which also has an external peer.
    fn ibgp_pair() -> Vec<Device> {
        devs(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\n ip ospf area 0\ninterface lo0\n ip address 1.1.1.1/32\n ip ospf area 0\n ip ospf passive\ninterface up\n ip address 10.9.0.1/24\nrouter ospf 1\nrouter bgp 65000\n bgp router-id 1.1.1.1\n neighbor 2.2.2.2 remote-as 65000\n neighbor 2.2.2.2 next-hop-self\n neighbor 10.9.0.2 remote-as 174\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\n ip ospf area 0\ninterface lo0\n ip address 2.2.2.2/32\n ip ospf area 0\n ip ospf passive\nrouter ospf 1\nrouter bgp 65000\n bgp router-id 2.2.2.2\n neighbor 1.1.1.1 remote-as 65000\n",
            ),
        ])
    }

    #[test]
    fn ibgp_over_ospf_with_next_hop_self() {
        // r1 has an eBGP-learned route (via environment) it re-advertises
        // to r2.
        let devices = ibgp_pair();
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
        assert_eq!(best.next_hop, "1.1.1.1".parse().unwrap());
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

    /// The converged per-device BGP state and main RIBs of `devices`, for
    /// driving one more pull by hand.
    fn converged(devices: &[Device]) -> (Vec<BgpNode>, Vec<MainRib>) {
        let dp = simulate(devices, &Environment::none(), &SimOptions::default());
        assert!(dp.convergence.converged);
        dp.devices.into_iter().map(|d| (d.bgp, d.main_rib)).unzip()
    }

    /// Node `to`'s pulls in a sweep after the one in which node `from`
    /// (which runs first) changed nothing but `route`: its moved-out
    /// state, the updates and the advanced clock.
    fn pull_after(
        devices: &[Device],
        nodes: &mut [BgpNode],
        ribs: &mut [MainRib],
        pool: &Interner<PathAttrs>,
        (from, to): (usize, usize),
        route: BgpRoute,
    ) -> (Member, Vec<RibInUpdate>, u64) {
        nodes[from].delta_prev = crate::rib::RibDelta {
            added: vec![route],
            removed: Vec::new(),
        };
        let mut rank_of = vec![0; devices.len()];
        rank_of[to] = 1;
        let opts = SimOptions::default();
        let m = Member::take(to, nodes, ribs);
        let pulled = pull(&m, devices, nodes, pool, &rank_of, &opts);
        (m, pulled.updates, pulled.clock)
    }

    #[test]
    fn a_looped_route_withdraws_the_peers_earlier_route() {
        let devices = ebgp_pair();
        let (mut nodes, mut ribs) = converged(&devices);
        let lan: Prefix = "10.2.0.0/24".parse().unwrap();
        let r2 = PeerKey::Peer("10.0.0.0".parse().unwrap());
        assert!(nodes[0].rib_in[&lan].iter().any(|r| r.from == r2));
        // r2 re-announces its LAN with r1's AS already on the path.
        let pool = Interner::new();
        let mut attrs = nodes[1].best[&lan].route_attrs();
        attrs.as_path = batnet_net::AsPath(vec![Asn(65001)]);
        let route = BgpRoute::new(attrs, &pool, PeerKey::Local, nodes[1].router_id, 0, 0);
        let clock = nodes[0].clock;
        let (mut m, updates, new_clock) =
            pull_after(&devices, &mut nodes, &mut ribs, &pool, (1, 0), route);
        assert_eq!(updates.len(), 1);
        assert!(
            matches!(updates[0], RibInUpdate::Withdraw { prefix, peer } if (prefix, peer) == (lan, r2)),
            "a withdraw"
        );
        assert_eq!(new_clock, clock, "no arrival stamp taken");
        fold_in(updates, &mut m, true);
        m.put_back(&mut nodes, &mut ribs);
        let (node, rib) = (&nodes[0], &ribs[0]);
        assert!(!node.rib_in.get(&lan).is_some_and(|rs| rs.iter().any(|r| r.from == r2)));
        assert!(!node.best.contains_key(&lan));
        assert!(rib.lookup("10.2.0.5".parse().unwrap()).is_none());
    }

    #[test]
    fn an_export_map_prepending_the_receivers_as_is_still_refused() {
        let mut devices = ebgp_pair();
        let (d2, diags) = parse_device(
            "r2",
            "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface lan\n ip address 10.2.0.1/24\nrouter bgp 65002\n bgp router-id 2.2.2.2\n redistribute connected\n neighbor 10.0.0.1 remote-as 65001\n neighbor 10.0.0.1 route-map POISON out\nroute-map POISON permit 10\n set as-path prepend 65001\n",
        );
        assert!(diags.items().is_empty(), "{:?}", diags.items());
        devices[1] = d2;
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        assert!(dp.convergence.converged);
        let r1 = dp.device("r1").unwrap();
        assert!(
            !r1.bgp.best.contains_key(&"10.2.0.0/24".parse().unwrap()),
            "the export map put r1's AS on the path: import must refuse it"
        );
        // The other direction is untouched.
        let r2 = dp.device("r2").unwrap();
        assert!(r2.bgp.best.contains_key(&"10.1.0.0/24".parse().unwrap()));
    }

    #[test]
    fn an_ibgp_session_never_takes_the_loop_shortcut() {
        let devices = ibgp_pair();
        let (mut nodes, mut ribs) = converged(&devices);
        // r1 re-advertises its loopback with r1's own AS on the path:
        // loop prevention is an eBGP rule, so r2 must still import it.
        let lo: Prefix = "1.1.1.1/32".parse().unwrap();
        let pool = Interner::new();
        let mut attrs = RouteAttrs::new(lo, RouteProtocol::Ebgp);
        attrs.as_path = batnet_net::AsPath(vec![Asn(65000), Asn(174)]);
        let route = BgpRoute::new(attrs, &pool, PeerKey::Local, nodes[0].router_id, 0, 0);
        let (_, updates, _) = pull_after(&devices, &mut nodes, &mut ribs, &pool, (0, 1), route);
        assert_eq!(updates.len(), 1);
        let RibInUpdate::Upsert(got) = &updates[0] else {
            panic!("iBGP imports it");
        };
        assert_eq!(got.attrs.as_path.0, vec![Asn(65000), Asn(174)]);
        assert_eq!(got.attrs.protocol, RouteProtocol::Ibgp);
    }

    /// Every member's pull, with every node's best routes as both of its
    /// deltas and `rank_of` = node index, so each route crosses every
    /// session (twice from a peer with a lower index). Each pull must equal
    /// [`pull_reference`]'s field for field, arrival included, and end on
    /// the same clock. Then, per member and per established session with a
    /// route map on either side, pulling that session after all of the
    /// member's sessions without one must add no memo hit. Returns the
    /// memo hits of the full pulls.
    fn pulls_match_reference(devices: &[Device], env: &Environment) -> u64 {
        let dp = simulate(devices, env, &SimOptions::default());
        assert!(dp.convergence.converged);
        let (mut nodes, mut ribs): (Vec<BgpNode>, Vec<MainRib>) =
            dp.devices.into_iter().map(|d| (d.bgp, d.main_rib)).unzip();
        for node in nodes.iter_mut() {
            let best: Vec<BgpRoute> = node.best.values().cloned().collect();
            node.delta_prev = crate::rib::RibDelta {
                added: best.clone(),
                removed: Vec::new(),
            };
            node.delta_cur = crate::rib::RibDelta {
                added: best,
                removed: Vec::new(),
            };
        }
        let rank_of: Vec<usize> = (0..devices.len()).collect();
        let opts = SimOptions::default();
        let pool = Interner::new();
        let mut hits = 0;
        for ni in 0..devices.len() {
            let m = Member::take(ni, &mut nodes, &mut ribs);
            let pulled = pull(&m, devices, &nodes, &pool, &rank_of, &opts);
            let (updates, clock) = pull_reference(&m, devices, &nodes, &pool, &rank_of, &opts);
            let name = &devices[ni].name;
            assert_eq!(pulled.updates, updates, "{name}: updates");
            assert_eq!(pulled.clock, clock, "{name}: clock");
            hits += pulled.memo_hits;

            let sessions = nodes[ni].sessions.clone();
            let up = |s: &&Session| s.established && s.peer_device.is_some();
            let mapped = |s: &Session| {
                let (Some(pi), Some(pn)) = (s.peer_device, s.peer_neighbor_idx) else {
                    return false;
                };
                bgp::unmapped_sender(&devices[pi], pn, &devices[ni], s.neighbor_idx).is_none()
            };
            let plain: Vec<Session> = sessions
                .iter()
                .filter(up)
                .filter(|s| !mapped(s))
                .cloned()
                .collect();
            nodes[ni].sessions = plain.clone();
            let warm = pull(&m, devices, &nodes, &pool, &rank_of, &opts).memo_hits;
            for s in sessions.iter().filter(up).filter(|s| mapped(s)) {
                nodes[ni].sessions = plain.iter().chain([s]).cloned().collect();
                let pulled = pull(&m, devices, &nodes, &pool, &rank_of, &opts);
                assert_eq!(
                    pulled.memo_hits, warm,
                    "{name}: a route-mapped session hit the memo"
                );
                let (updates, _) = pull_reference(&m, devices, &nodes, &pool, &rank_of, &opts);
                assert_eq!(pulled.updates, updates, "{name}: updates");
            }
            nodes[ni].sessions = sessions;
            m.put_back(&mut nodes, &mut ribs);
        }
        hits
    }

    /// The pulls of a suite network against the reference; returns the
    /// memo hits.
    fn suite_pulls_match_reference(net: &batnet_topogen::GeneratedNetwork) -> u64 {
        pulls_match_reference(&net.parse(), &Environment::of(net))
    }

    #[test]
    fn memo_pulls_match_the_reference_on_n2() {
        assert!(suite_pulls_match_reference(&batnet_topogen::suite::n2()) > 0);
    }

    #[test]
    fn memo_pulls_match_the_reference_on_net1() {
        assert!(suite_pulls_match_reference(&batnet_topogen::suite::net1()) > 0);
    }

    /// Aggs export to cores through the `TO-CORE` map, an export-only
    /// route map on an in-snapshot session.
    #[test]
    fn memo_pulls_match_the_reference_on_a_fat_tree() {
        let fat = batnet_topogen::dc::fat_tree("t", 2, 3, 2, 8);
        assert!(suite_pulls_match_reference(&fat) > 0);
    }

    /// r2, r3 and r5 (AS 65002) all relay r4's LAN to r1 in one bundle.
    /// r1 ← r2 has no route map; r1 ← r3 has r3's export map and r1's
    /// import map; r1 ← r5 has r1's import map only. Each map changes the
    /// bundle, so a memo hit on a mapped session would show.
    fn route_map_lab() -> Vec<Device> {
        devs(&[
            (
                "r1",
                "hostname r1\ninterface e2\n ip address 10.0.12.1/31\ninterface e3\n ip address 10.0.13.1/31\ninterface e5\n ip address 10.0.15.1/31\nrouter bgp 65001\n bgp router-id 1.1.1.1\n neighbor 10.0.12.0 remote-as 65002\n neighbor 10.0.13.0 remote-as 65002\n neighbor 10.0.13.0 route-map SETLP in\n neighbor 10.0.15.0 remote-as 65002\n neighbor 10.0.15.0 route-map SETLP in\nroute-map SETLP permit 10\n set local-preference 250\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e1\n ip address 10.0.12.0/31\ninterface e4\n ip address 10.0.24.0/31\nrouter bgp 65002\n bgp router-id 2.2.2.2\n neighbor 10.0.12.1 remote-as 65001\n neighbor 10.0.24.1 remote-as 65004\n",
            ),
            (
                "r3",
                "hostname r3\ninterface e1\n ip address 10.0.13.0/31\ninterface e4\n ip address 10.0.34.0/31\nrouter bgp 65002\n bgp router-id 3.3.3.3\n neighbor 10.0.13.1 remote-as 65001\n neighbor 10.0.13.1 route-map SETMED out\n neighbor 10.0.34.1 remote-as 65004\nroute-map SETMED permit 10\n set metric 5\n",
            ),
            (
                "r4",
                "hostname r4\ninterface e2\n ip address 10.0.24.1/31\ninterface e3\n ip address 10.0.34.1/31\ninterface e5\n ip address 10.0.45.1/31\ninterface lan\n ip address 10.4.0.1/24\nrouter bgp 65004\n bgp router-id 4.4.4.4\n redistribute connected\n neighbor 10.0.24.0 remote-as 65002\n neighbor 10.0.34.0 remote-as 65002\n neighbor 10.0.45.0 remote-as 65002\n",
            ),
            (
                "r5",
                "hostname r5\ninterface e1\n ip address 10.0.15.0/31\ninterface e4\n ip address 10.0.45.0/31\nrouter bgp 65002\n bgp router-id 5.5.5.5\n neighbor 10.0.15.1 remote-as 65001\n neighbor 10.0.45.1 remote-as 65004\n",
            ),
        ])
    }

    #[test]
    fn memo_pulls_match_the_reference_on_route_mapped_sessions() {
        let devices = route_map_lab();
        assert!(pulls_match_reference(&devices, &Environment::none()) > 0);
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let lan: Prefix = "10.4.0.0/24".parse().unwrap();
        let held = &dp.device("r1").unwrap().bgp.rib_in[&lan];
        let from = |peer: &str| {
            let peer = PeerKey::Peer(peer.parse().unwrap());
            let r = held.iter().find(|r| r.from == peer).unwrap();
            (r.attrs.local_pref, r.attrs.med)
        };
        assert_eq!(from("10.0.12.0"), (100, 0));
        assert_eq!(from("10.0.13.0"), (250, 5));
        assert_eq!(from("10.0.15.0"), (250, 0));
    }

    #[test]
    fn memo_pulls_match_the_reference_over_ibgp_with_next_hop_self() {
        let mut env = Environment::none();
        env.announcements.push(crate::env::ExternalAnnouncement::simple(
            "r1",
            "10.9.0.2".parse().unwrap(),
            Asn(174),
            "203.0.113.0/24".parse().unwrap(),
        ));
        assert!(pulls_match_reference(&ibgp_pair(), &env) > 0);
    }

    /// r2 and r3 (AS 65002) both hear one external announcement with a
    /// community, so they hold one bundle; r2 sends communities to r1,
    /// r3 does not. The memo must keep the two derived bundles apart.
    #[test]
    fn memo_pulls_match_the_reference_across_send_community() {
        let mut devices = devs(&[
            (
                "r1",
                "hostname r1\ninterface e2\n ip address 10.0.12.1/31\ninterface e3\n ip address 10.0.13.1/31\nrouter bgp 65001\n bgp router-id 1.1.1.1\n neighbor 10.0.12.0 remote-as 65002\n neighbor 10.0.13.0 remote-as 65002\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e1\n ip address 10.0.12.0/31\ninterface up\n ip address 10.9.2.1/24\nrouter bgp 65002\n bgp router-id 2.2.2.2\n neighbor 10.0.12.1 remote-as 65001\n neighbor 10.0.12.1 send-community\n neighbor 10.9.2.2 remote-as 174\n",
            ),
            (
                "r3",
                "hostname r3\ninterface e1\n ip address 10.0.13.0/31\ninterface up\n ip address 10.9.3.1/24\nrouter bgp 65002\n bgp router-id 3.3.3.3\n neighbor 10.0.13.1 remote-as 65001\n neighbor 10.9.3.2 remote-as 174\n",
            ),
        ]);
        devices[2].bgp.as_mut().unwrap().neighbors[0].send_community = false;
        let prefix: Prefix = "203.0.113.0/24".parse().unwrap();
        let mut env = Environment::none();
        for (device, peer) in [("r2", "10.9.2.2"), ("r3", "10.9.3.2")] {
            let mut a = crate::env::ExternalAnnouncement::simple(device, peer.parse().unwrap(), Asn(174), prefix);
            a.communities = vec!["174:100".parse().unwrap()];
            env.announcements.push(a);
        }
        // The two sessions' keys differ only in `send_community`: neither
        // reuses the other's bundle.
        assert_eq!(pulls_match_reference(&devices, &env), 0);
        let dp = simulate(&devices, &env, &SimOptions::default());
        let held = &dp.device("r1").unwrap().bgp.rib_in[&prefix];
        let communities: Vec<usize> = held.iter().map(|r| r.attrs.communities.len()).collect();
        assert_eq!(communities, [1, 0], "r2 sends its community, r3 does not");
    }

    #[test]
    fn mem_report_populated() {
        let dp = simulate(&ebgp_pair(), &Environment::none(), &SimOptions::default());
        assert!(dp.mem.total_bgp_routes > 0);
        assert!(dp.mem.unique_attr_bundles > 0);
        assert!(dp.mem.sharing_factor(dp.shareable_combos()) >= 1.0);
    }
}
