//! Layer 3: symbolic differential reachability.
//!
//! Each side is walked in its own BDD manager — a fork of the stored
//! analysis' when the side lends one, else a scratch one its graph is
//! built in — and only the small five-tuple projections of what each
//! start delivers leave it. They are recorded in the side's
//! [`SideMemo`] and copied ([`Bdd::import`]) from there into one
//! comparison manager, where the delta is a plain XOR (computed as two
//! set differences to keep the lost/gained split). Per changed start
//! location the diff yields a concrete example flow (picked with the
//! §4.4.3-style preferences) and a before/after trace from the concrete
//! tracer. A lent manager is locked only long enough to fork it, and
//! the side is walked in the fork: the walk neither keeps a
//! `/query/reach` waiting nor leaves its nodes in the lender's arena.
//!
//! What a start delivers is a function of its side alone, so a side that
//! lends a memo with its analysis (`batnet-serve` keeps one per stored
//! snapshot) is walked only for the compared starts no earlier diff of
//! it recorded; the others are imported from the memo. A side lending
//! none gets a memo local to the diff, so both take the same path. The
//! memo holds projections only, in a small manager of its own, never a
//! fork.
//!
//! Cost is bounded by *cone pruning*: a start location whose node cannot
//! even topologically reach a changed device — in either graph — is
//! provably unchanged (outside the changed cone, the two graphs are
//! identical by construction), so its fixed point is never computed.
//!
//! And by *one backward walk per side* (§4.2.3): one fixed point from
//! every success sink, seeded with `TRUE`, gives each node the packets
//! it delivers. Along edges that only intersect, a packet arrives as it
//! left, so for a start whose forward cone holds no NAT edge that set
//! *is* what the start delivers. Zone and waypoint transforms rewrite
//! only bookkeeping bits the projection drops, so they do not count.
//!
//! A start that can reach a NAT edge keeps *one forward walk per ingress
//! seed*: its `TRUE` seed is first pushed along its own ingress chain
//! (`IfaceSrc → PreIn → PostIn → dNAT, zone tag → PreFwd`). Forward
//! reachability distributes over its seeds and no success sink lies on
//! that chain, so the start's success set is that of the walk from what
//! the chain hands `PreFwd`. Starts of one device whose chains pass the
//! same packets (host ports sharing an ACL, uplinks with none) share one
//! walk.

use crate::{DiffOptions, SideAnalysis};
use batnet_bdd::{Bdd, NodeId};
use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_dataplane::{EdgeLabel, ForwardingGraph, NodeKind, PacketVars, ReachAnalysis};
use batnet_queries::examples::{pick_flow, Preferences};
use batnet_routing::DataPlane;
use batnet_traceroute::{StartLocation, Trace, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Mutex, PoisonError, TryLockError};

/// Which way a flow's fate changed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowDirection {
    /// Delivered before, not after.
    Lost,
    /// Not delivered before, delivered after.
    Gained,
}

impl fmt::Display for FlowDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlowDirection::Lost => "lost",
            FlowDirection::Gained => "gained",
        };
        write!(f, "{s}")
    }
}

/// One changed-flow witness: a concrete example flow whose delivery fate
/// flipped between the snapshots, with both traces.
#[derive(Clone, Debug)]
pub struct FlowDelta {
    /// Start device.
    pub device: String,
    /// Start (ingress) interface.
    pub iface: String,
    /// Lost or gained.
    pub direction: FlowDirection,
    /// The example flow, rendered.
    pub flow: String,
    /// Dispositions of the before trace, rendered.
    pub before_disposition: String,
    /// Dispositions of the after trace, rendered.
    pub after_disposition: String,
    /// Full before trace (§4.4.3-style annotated paths).
    pub before_trace: String,
    /// Full after trace.
    pub after_trace: String,
}

/// The data-plane layer of a snapshot diff.
#[derive(Clone, Default, Debug)]
pub struct ReachDiff {
    /// Start locations common to both snapshots.
    pub starts_total: usize,
    /// Starts whose fixed point was actually computed (the rest were
    /// pruned as provably unchanged, or dropped by `max_starts`).
    pub starts_compared: usize,
    /// Fixed points this diff ran for those starts, both sides: at most
    /// one backward walk per side, plus one forward walk per distinct
    /// ingress seed of a start that can reach a NAT edge, and none for a
    /// side whose memo held every compared start. A cost figure, not
    /// part of the rendered report.
    pub walks: usize,
    /// Compared starts, counted once per side, that a forward walk of
    /// this diff answered (their forward cone holds a NAT edge).
    pub forward_starts: usize,
    /// Compared starts, counted once per side, that a backward walk of
    /// this diff answered. A start a side's memo already held counts in
    /// neither.
    pub backward_starts: usize,
    /// Starts whose five-tuple success set changed.
    pub changed_starts: usize,
    /// Example-flow witnesses (capped; see `truncated`).
    pub deltas: Vec<FlowDelta>,
    /// Witnesses were dropped to honor `max_flow_deltas`.
    pub truncated: bool,
    /// The structural + control-plane layers were both empty, so the
    /// graphs are identical by construction and the symbolic stage was
    /// skipped outright.
    pub skipped_equivalent: bool,
}

impl ReachDiff {
    /// No changed flows?
    pub fn is_empty(&self) -> bool {
        self.changed_starts == 0
    }
}

/// Everything the symbolic stage needs from the two snapshots.
pub struct ReachInputs<'a> {
    /// Before devices (healthy subset).
    pub devices_before: &'a [Device],
    /// Before analysis: data plane, topology, graph and its manager.
    pub before: SideAnalysis<'a>,
    /// After devices.
    pub devices_after: &'a [Device],
    /// After analysis.
    pub after: SideAnalysis<'a>,
    /// Devices touched by the structural or control-plane layers — the
    /// seed of the changed cone.
    pub changed_devices: &'a BTreeSet<String>,
    /// The manager this diff builds the graphs of lend-less sides in. A
    /// side whose manager it is is walked in it as it is; every other
    /// side's manager is lent, and walked in a fork.
    pub scratch: &'a Mutex<Bdd>,
}

/// Expands the changed-device set with every device adjacent to it in
/// `graph` (cross-device edges carry neighbor-dependent labels, so the
/// frontier devices' subgraphs are not provably identical).
fn expand_adjacent(graph: &ForwardingGraph, changed: &mut BTreeSet<String>) {
    let mut frontier: Vec<String> = Vec::new();
    for e in &graph.edges {
        let (df, dt) = (graph.nodes[e.from].device(), graph.nodes[e.to].device());
        if df != dt {
            if changed.contains(df) && !changed.contains(dt) {
                frontier.push(dt.to_string());
            } else if changed.contains(dt) && !changed.contains(df) {
                frontier.push(df.to_string());
            }
        }
    }
    changed.extend(frontier);
}

/// Node-level reverse BFS: which nodes can (topologically) reach one of
/// `targets`?
fn reaching(graph: &ForwardingGraph, targets: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let mut in_cone = vec![false; graph.nodes.len()];
    let mut work: Vec<usize> = Vec::new();
    for i in targets {
        if !in_cone[i] {
            in_cone[i] = true;
            work.push(i);
        }
    }
    while let Some(n) = work.pop() {
        for &ei in &graph.in_edges[n] {
            let from = graph.edges[ei].from;
            if !in_cone[from] {
                in_cone[from] = true;
                work.push(from);
            }
        }
    }
    in_cone
}

/// Which nodes can reach any node of a changed device? Starts outside
/// this set are unchanged.
fn cone_of(graph: &ForwardingGraph, changed: &BTreeSet<String>) -> Vec<bool> {
    reaching(graph, graph.nodes_where(|k| changed.contains(k.device())))
}

/// Which nodes can reach the tail of a NAT edge? Zone and waypoint
/// transforms rewrite only bits the five-tuple projection drops.
fn nat_cone(graph: &ForwardingGraph, vars: &PacketVars) -> Vec<bool> {
    let tails = graph.edges.iter().filter_map(|e| match e.label {
        EdgeLabel::Transform(_, t) if t == vars.nat_transform => Some(e.from),
        _ => None,
    });
    reaching(graph, tails)
}

/// `(device, iface) -> node id` for every ingress start location.
fn start_map(graph: &ForwardingGraph) -> BTreeMap<(String, String), usize> {
    let mut map = BTreeMap::new();
    for (i, k) in graph.nodes.iter().enumerate() {
        if let NodeKind::IfaceSrc(d, ifc) = k {
            map.insert((d.clone(), ifc.clone()), i);
        }
    }
    map
}

/// Where a start's ingress chain ends: `PreFwd`, or a success sink
/// (the built graph has none on the chain).
fn past_ingress(kind: &NodeKind) -> bool {
    matches!(kind, NodeKind::PreFwd(_)) || kind.is_success_sink()
}

/// Pushes `start`'s `TRUE` seed along its ingress chain and returns what
/// arrives past it, in node order. Packets the chain drops (an ingress
/// ACL's denies) are left behind: no success sink lies downstream of a
/// drop node.
fn ingress_seeds(graph: &ForwardingGraph, bdd: &mut Bdd, start: usize) -> Vec<(usize, NodeId)> {
    let mut at: BTreeMap<usize, NodeId> = BTreeMap::from([(start, NodeId::TRUE)]);
    let mut work: BTreeSet<usize> = BTreeSet::from([start]);
    while let Some(node) = work.pop_first() {
        if past_ingress(&graph.nodes[node]) {
            continue;
        }
        let set = at[&node];
        for &eid in &graph.out_edges[node] {
            let edge = &graph.edges[eid];
            let pushed = ReachAnalysis::apply(bdd, edge.label, set);
            if pushed == NodeId::FALSE {
                continue;
            }
            let slot = at.entry(edge.to).or_insert(NodeId::FALSE);
            let merged = bdd.or(*slot, pushed);
            if merged != *slot {
                *slot = merged;
                work.insert(edge.to);
            }
        }
    }
    at.into_iter()
        .filter(|&(node, _)| past_ingress(&graph.nodes[node]))
        .collect()
}

/// One graph's success sets: one backward walk for the starts that reach
/// no NAT edge, forward walks memoised by ingress seeds for the rest.
struct Walks<'g> {
    analysis: ReachAnalysis<'g>,
    nat: Vec<bool>,
    delivered: Option<Vec<NodeId>>,
    forward: BTreeMap<Vec<(usize, NodeId)>, NodeId>,
}

impl<'g> Walks<'g> {
    fn new(graph: &'g ForwardingGraph, vars: &PacketVars) -> Walks<'g> {
        Walks {
            analysis: ReachAnalysis::new(graph),
            nat: nat_cone(graph, vars),
            delivered: None,
            forward: BTreeMap::new(),
        }
    }

    /// What `start` delivers (not yet projected), walking the graph only
    /// when no earlier walk answers it.
    fn success(&mut self, bdd: &mut Bdd, vars: &PacketVars, start: usize) -> NodeId {
        if !self.nat[start] {
            let analysis = &self.analysis;
            let delivered = self.delivered.get_or_insert_with(|| {
                let sinks = analysis.graph.nodes_where(NodeKind::is_success_sink);
                let unlimited = batnet_net::governor::ResourceGovernor::unlimited();
                analysis.backward_from(bdd, vars, &sinks, &unlimited).into_value().reach
            });
            return delivered[start];
        }
        let seeds = ingress_seeds(self.analysis.graph, bdd, start);
        if let Some(&s) = self.forward.get(&seeds) {
            return s;
        }
        let r = self.analysis.forward(bdd, &seeds);
        let s = self.analysis.success_set(bdd, &r);
        self.forward.insert(seeds, s);
        s
    }

    fn count(&self) -> usize {
        usize::from(self.delivered.is_some()) + self.forward.len()
    }
}

/// The manager the reach stage builds graphs in when a side lends none:
/// both such sides share it, and it is walked in place rather than
/// forked, so the second build and its walks find the first's nodes.
pub(crate) struct Scratch {
    vars: PacketVars,
    pub(crate) bdd: Mutex<Bdd>,
}

impl Scratch {
    pub(crate) fn new() -> Scratch {
        let (bdd, vars) = PacketVars::new(0);
        Scratch {
            vars,
            bdd: Mutex::new(bdd),
        }
    }

    /// Builds `devices`' forwarding graph in this manager.
    pub(crate) fn build(
        &self,
        devices: &[Device],
        dp: &DataPlane,
        topo: &Topology,
    ) -> ForwardingGraph {
        let mut bdd = self.bdd.lock().unwrap_or_else(PoisonError::into_inner);
        ForwardingGraph::build(&mut bdd, &self.vars, devices, dp, topo)
    }

    /// `graph`, built here, lent as a side's analysis.
    pub(crate) fn lend<'a>(
        &'a self,
        graph: &'a ForwardingGraph,
        dp: &'a DataPlane,
        topo: &'a Topology,
    ) -> SideAnalysis<'a> {
        SideAnalysis {
            dp,
            topo,
            graph,
            vars: &self.vars,
            bdd: &self.bdd,
            memo: None,
        }
    }
}

/// The five-tuple projection of what each start of one side's graph
/// delivers, for every start a diff of that side has compared, kept in
/// a small manager of the comparison's layout (`PacketVars::new(0)`).
/// It belongs to one graph: lend it only beside that graph.
pub struct SideMemo {
    bdd: Bdd,
    delivers: BTreeMap<usize, NodeId>,
}

impl SideMemo {
    /// How many starts it holds.
    pub fn starts(&self) -> usize {
        self.delivers.len()
    }
}

impl Default for SideMemo {
    /// An empty memo.
    fn default() -> SideMemo {
        SideMemo {
            bdd: PacketVars::new(0).0,
            delivers: BTreeMap::new(),
        }
    }
}

/// The walks one diff ran on one side.
#[derive(Default)]
struct Ran {
    walks: usize,
    /// Starts a forward walk answered.
    forward: usize,
    /// Starts the backward walk answered.
    backward: usize,
}

/// Imports into `cmp` the five-tuple projection of what each of `starts`
/// delivers on one side, in `starts` order, and says which walks it ran.
/// The side's memo (or one local to this call) answers the starts it
/// holds; the others are walked and recorded in it first. The memo stays
/// locked until the imports are done, so a second diff of the same side
/// waits for the first's walk and then reads it rather than walking too.
fn project_side(
    devices: &[Device],
    side: &SideAnalysis<'_>,
    in_place: bool,
    starts: &[usize],
    cmp: &mut Bdd,
) -> (Vec<NodeId>, Ran) {
    let local;
    let memo = match side.memo {
        Some(memo) => memo,
        None => {
            local = Mutex::new(SideMemo::default());
            &local
        }
    };
    // A diff that panicked holding the memo left it valid: each start
    // is recorded whole, after its projection's import.
    let mut memo = memo.lock().unwrap_or_else(PoisonError::into_inner);
    let missing: Vec<usize> = starts
        .iter()
        .copied()
        .filter(|s| !memo.delivers.contains_key(s))
        .collect();
    let ran = if missing.is_empty() {
        Ran::default()
    } else {
        walk_side(devices, side, in_place, &missing, &mut memo)
    };
    // Equal projections share a memo node, and so an import.
    let mut imported: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let nodes = starts
        .iter()
        .map(|s| {
            let p = memo.delivers[s];
            *imported
                .entry(p)
                .or_insert_with(|| cmp.import(&memo.bdd, p))
        })
        .collect();
    (nodes, ran)
}

/// Walks one side in its own manager and records in `memo` the
/// five-tuple projection of what each of `starts` delivers.
///
/// A manager the diff built itself (`in_place`) is walked as it is: no
/// one else holds it, and its nodes go with the diff. A lent manager is
/// held only while it is forked; the walks run in the fork, which is
/// dropped with them. A lent manager someone else holds (a
/// `/query/reach` under its deadline) is not waited for: the side's
/// graph is built again in a fresh manager of the same layout, and must
/// number its nodes as the lent graph does, since `starts` are the lent
/// graph's.
fn walk_side(
    devices: &[Device],
    side: &SideAnalysis<'_>,
    in_place: bool,
    starts: &[usize],
    memo: &mut SideMemo,
) -> Ran {
    let (mut held, mut owned, rebuilt);
    let (bdd, graph, vars): (&mut Bdd, &ForwardingGraph, &PacketVars) = if in_place {
        held = side.bdd.lock().unwrap_or_else(PoisonError::into_inner);
        (&mut held, side.graph, side.vars)
    } else {
        let fork = match side.bdd.try_lock() {
            Ok(lent) => Some(lent.fork()),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner().fork()),
            Err(TryLockError::WouldBlock) => None,
        };
        match fork {
            Some(fork) => {
                owned = fork;
                (&mut owned, side.graph, side.vars)
            }
            None => {
                let vars;
                (owned, vars) = PacketVars::new(side.vars.waypoint_count);
                let graph = ForwardingGraph::build(&mut owned, &vars, devices, side.dp, side.topo);
                assert!(
                    graph.nodes == side.graph.nodes,
                    "a rebuilt graph numbers its nodes as the lent one does"
                );
                rebuilt = (graph, vars);
                (&mut owned, &rebuilt.0, &rebuilt.1)
            }
        }
    };
    let mut walks = Walks::new(graph, vars);
    // Both maps are keyed by this side's nodes: starts that deliver the
    // same set share a projection, equal projections share an import.
    let mut projected: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut imported: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for &start in starts {
        let s = walks.success(bdd, vars, start);
        // Project away TCP flags / ICMP codes / zone & waypoint
        // bookkeeping bits before comparing: deltas must be about the
        // five-tuple, not internal encoding state.
        let p = *projected
            .entry(s)
            .or_insert_with(|| vars.project_five_tuple(bdd, s));
        let m = *imported.entry(p).or_insert_with(|| memo.bdd.import(bdd, p));
        memo.delivers.insert(start, m);
    }
    let forward = starts.iter().filter(|&&s| walks.nat[s]).count();
    Ran {
        walks: walks.count(),
        forward,
        backward: starts.len() - forward,
    }
}

fn dispositions_of(trace: &Trace) -> String {
    let ds: Vec<String> = trace.dispositions().iter().map(|d| d.to_string()).collect();
    if ds.is_empty() {
        "no path".to_string()
    } else {
        ds.join("; ")
    }
}

/// Runs the symbolic differential-reachability stage.
pub fn diff_reach(inputs: &ReachInputs<'_>, opts: &DiffOptions) -> ReachDiff {
    let (before, after) = (&inputs.before, &inputs.after);
    let mut changed = inputs.changed_devices.clone();
    expand_adjacent(before.graph, &mut changed);
    expand_adjacent(after.graph, &mut changed);
    let cone_b = cone_of(before.graph, &changed);
    let cone_a = cone_of(after.graph, &changed);

    let starts_b = start_map(before.graph);
    let starts_a = start_map(after.graph);
    let common: Vec<(&(String, String), usize, usize)> = starts_b
        .iter()
        .filter_map(|(k, &nb)| starts_a.get(k).map(|&na| (k, nb, na)))
        .collect();

    let mut diff = ReachDiff {
        starts_total: common.len(),
        ..ReachDiff::default()
    };
    // Cone pruning: a start that cannot reach the changed region in
    // either graph is provably unchanged.
    let mut compared: Vec<(&(String, String), usize, usize)> = Vec::new();
    for (key, nb, na) in common {
        if !cone_b[nb] && !cone_a[na] {
            continue;
        }
        if opts.max_starts != 0 && compared.len() >= opts.max_starts {
            diff.truncated = true;
            break;
        }
        compared.push((key, nb, na));
    }

    // The lend-less sides' scratch manager is walked in place.
    let in_place = |side: &SideAnalysis<'_>| std::ptr::eq(inputs.scratch, side.bdd);
    let (mut bdd, vars) = PacketVars::new(0);
    let nodes_b: Vec<usize> = compared.iter().map(|&(_, nb, _)| nb).collect();
    let (projected_b, ran_b) = project_side(
        inputs.devices_before,
        before,
        in_place(before),
        &nodes_b,
        &mut bdd,
    );
    let nodes_a: Vec<usize> = compared.iter().map(|&(_, _, na)| na).collect();
    let (projected_a, ran_a) = project_side(
        inputs.devices_after,
        after,
        in_place(after),
        &nodes_a,
        &mut bdd,
    );

    let tracer_b = Tracer::new(inputs.devices_before, before.dp, before.topo);
    let tracer_a = Tracer::new(inputs.devices_after, after.dp, after.topo);
    let prefs = Preferences::likely(&mut bdd, &vars);
    for (((dev, ifc), _, _), (pb, pa)) in compared
        .iter()
        .zip(projected_b.into_iter().zip(projected_a))
    {
        if pb == pa {
            continue;
        }
        diff.changed_starts += 1;
        let lost = bdd.diff(pb, pa);
        let gained = bdd.diff(pa, pb);
        for (set, direction) in [(lost, FlowDirection::Lost), (gained, FlowDirection::Gained)] {
            if set == NodeId::FALSE || diff.deltas.len() >= opts.max_flow_deltas {
                if set != NodeId::FALSE {
                    diff.truncated = true;
                }
                continue;
            }
            let Some(flow) = pick_flow(&mut bdd, &vars, set, &prefs) else {
                continue;
            };
            let start = StartLocation::ingress(dev, ifc);
            let before_trace = tracer_b.trace(&start, &flow);
            let after_trace = tracer_a.trace(&start, &flow);
            diff.deltas.push(FlowDelta {
                device: dev.clone(),
                iface: ifc.clone(),
                direction,
                flow: flow.to_string(),
                before_disposition: dispositions_of(&before_trace),
                after_disposition: dispositions_of(&after_trace),
                before_trace: before_trace.to_string(),
                after_trace: after_trace.to_string(),
            });
        }
    }
    diff.starts_compared = compared.len();
    diff.walks = ran_b.walks + ran_a.walks;
    diff.forward_starts = ran_b.forward + ran_a.forward;
    diff.backward_starts = ran_b.backward + ran_a.backward;
    batnet_obs::gauge_set("diff.reach.starts", diff.starts_total as f64);
    batnet_obs::gauge_set("diff.reach.compared", diff.starts_compared as f64);
    batnet_obs::gauge_set("diff.reach.walks", diff.walks as f64);
    batnet_obs::gauge_set("diff.reach.forward-starts", diff.forward_starts as f64);
    batnet_obs::gauge_set("diff.reach.backward-starts", diff.backward_starts as f64);
    batnet_obs::counter_add("diff.reach.changed-starts", diff.changed_starts as u64);
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diff, DiffOptions, DiffSide, SideAnalysis};
    use batnet_config::parse_device;
    use batnet_net::{Flow, Ip};
    use batnet_routing::{simulate, Environment, SimOptions};
    use batnet_topogen::perturb::{perturb, Scenario};
    use batnet_topogen::suite;

    fn parse(configs: &[(String, String)]) -> Vec<Device> {
        configs.iter().map(|(n, t)| parse_device(n, t).0).collect()
    }

    /// The per-start loop [`Walks`] replaced: one forward walk from the
    /// start's own `TRUE` seed.
    fn reference(
        analysis: &ReachAnalysis<'_>,
        bdd: &mut Bdd,
        vars: &PacketVars,
        start: usize,
    ) -> NodeId {
        let r = analysis.forward(bdd, &[(start, NodeId::TRUE)]);
        let s = analysis.success_set(bdd, &r);
        vars.project_five_tuple(bdd, s)
    }

    /// What [`check`] saw on one graph.
    struct Checked {
        graph: ForwardingGraph,
        starts: usize,
        /// Starts answered by the backward walk.
        backward: usize,
        walks: usize,
    }

    /// Builds `devices`' graph and checks, start by start in one manager,
    /// that the projection of what [`Walks`] answers — backward walk or
    /// memoised forward walk — is the reference's node.
    fn check(devices: &[Device], env: &Environment) -> Checked {
        let dp = simulate(devices, env, &SimOptions::default());
        let topo = Topology::infer(devices);
        let (mut bdd, vars) = PacketVars::new(0);
        let graph = ForwardingGraph::build(&mut bdd, &vars, devices, &dp, &topo);
        let starts: Vec<usize> = start_map(&graph).into_values().collect();
        let analysis = ReachAnalysis::new(&graph);
        let mut walks = Walks::new(&graph, &vars);
        for &s in &starts {
            let success = walks.success(&mut bdd, &vars, s);
            let got = vars.project_five_tuple(&mut bdd, success);
            let want = reference(&analysis, &mut bdd, &vars, s);
            assert_eq!(got, want, "start {:?}", graph.nodes[s]);
        }
        let backward = starts.iter().filter(|&&s| !walks.nat[s]).count();
        let walks = walks.count();
        Checked {
            graph,
            starts: starts.len(),
            backward,
            walks,
        }
    }

    /// Does a transform edge leave some node `pred` accepts?
    fn has_transform_from(graph: &ForwardingGraph, pred: fn(&NodeKind) -> bool) -> bool {
        graph
            .edges
            .iter()
            .any(|e| pred(&graph.nodes[e.from]) && matches!(e.label, EdgeLabel::Transform(..)))
    }

    #[test]
    fn walks_match_per_start_walks_on_n2_perturbations() {
        let net = suite::n2();
        for (scenario, seed) in [(Scenario::AclAttachPeering, 3), (Scenario::AclAddLine, 1)] {
            let p = perturb(&net, scenario, seed).expect("N2 has a victim");
            let c = check(&parse(&p.configs), &net.env);
            // No NAT anywhere: one backward walk answers every start.
            assert_eq!((c.backward, c.walks), (c.starts, 1), "{}", scenario.name());
        }
    }

    #[test]
    fn walks_match_per_start_walks_under_nat() {
        let net = suite::net1();
        let c = check(&net.parse(), &net.env);
        // Every start's forward cone holds a NAT edge, so all walk
        // forward, memoised by ingress seed.
        assert_eq!(c.backward, 0);
        assert!(c.walks < c.starts, "{} walks, {} starts", c.walks, c.starts);
    }

    /// The lab's destination NAT.
    const NAT: &str = "ip nat destination static 203.0.113.10 10.2.0.10\n";

    fn firewall_lab(nat: &str) -> Vec<Device> {
        let fw = format!(
            "hostname fw\nzone security inside\nzone security outside\n\
             zone-pair security inside outside acl OUTBOUND\n\
             zone-pair security outside inside acl INBOUND\n\
             interface h1\n ip address 10.1.1.1/24\n ip access-group HOSTS in\n zone-member security inside\n\
             interface h2\n ip address 10.1.2.1/24\n ip access-group HOSTS in\n zone-member security inside\n\
             interface up\n ip address 172.16.0.1/31\n zone-member security outside\n\
             ip access-list extended HOSTS\n 10 deny tcp any any eq 23\n 20 permit ip any any\n\
             ip access-list extended OUTBOUND\n 10 permit ip any any\n\
             ip access-list extended INBOUND\n 10 permit tcp any any eq 443\n\
             {nat}ip route 10.2.0.0/24 172.16.0.0\n"
        );
        let r2 = "hostname r2\ninterface down\n ip address 172.16.0.0/31\n\
                  interface servers\n ip address 10.2.0.1/24\n\
                  ip route 10.1.0.0/16 172.16.0.1\n";
        parse(&[("fw".into(), fw), ("r2".into(), r2.into())])
    }

    /// Ingress ACLs, a destination NAT and stateful zones: every ingress
    /// chain carries transform edges and every start reaches the NAT, so
    /// all take forward walks, and the two host ports that share an ACL
    /// and a zone share one.
    #[test]
    fn walks_match_per_start_walks_through_nat_and_zones() {
        let c = check(&firewall_lab(NAT), &Environment::none());
        let dnat = has_transform_from(&c.graph, |k| matches!(k, NodeKind::PostIn(..)));
        let zone = has_transform_from(&c.graph, |k| matches!(k, NodeKind::PostZone(..)));
        assert!(dnat && zone);
        assert_eq!((c.starts, c.backward, c.walks), (5, 0, 3));
    }

    /// INBOUND, written after its zone-pair, admits tcp/443 from the
    /// servers and its implicit deny drops tcp/80.
    #[test]
    fn firewall_lab_zones_filter_by_their_acls() {
        let devices = firewall_lab("");
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let topo = Topology::infer(&devices);
        let tracer = Tracer::new(&devices, &dp, &topo);
        let start = StartLocation::ingress("r2", "servers");
        let dispositions = |port| {
            let flow = Flow::tcp(Ip::new(10, 2, 0, 10), 40000, Ip::new(10, 1, 1, 9), port);
            dispositions_of(&tracer.trace(&start, &flow))
        };
        assert_eq!(dispositions(443), "delivered to subnet via fw[h1]");
        assert_eq!(dispositions(80), "denied by zone policy outside->inside at fw");
    }

    /// The same lab without the NAT: zone tags alone leave every start to
    /// the backward walk.
    #[test]
    fn zone_tags_do_not_need_forward_walks() {
        let c = check(&firewall_lab(""), &Environment::none());
        let zone = has_transform_from(&c.graph, |k| matches!(k, NodeKind::PostZone(..)));
        assert!(zone);
        assert_eq!((c.starts, c.backward, c.walks), (5, 5, 1));
    }

    /// One side's whole analysis, as `batnet-serve` stores it, memo
    /// included.
    struct Stored {
        devices: Vec<Device>,
        dp: DataPlane,
        topo: Topology,
        graph: ForwardingGraph,
        vars: PacketVars,
        bdd: Mutex<Bdd>,
        memo: Mutex<SideMemo>,
    }

    impl Stored {
        fn new(devices: Vec<Device>, env: &Environment) -> Stored {
            let dp = simulate(&devices, env, &SimOptions::default());
            let topo = Topology::infer(&devices);
            let (mut bdd, vars) = PacketVars::new(1);
            let graph = ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo);
            let bdd = Mutex::new(bdd);
            Stored {
                devices,
                dp,
                topo,
                graph,
                vars,
                bdd,
                memo: Mutex::new(SideMemo::default()),
            }
        }

        /// This analysis as a diff side, lending its memo or not.
        fn side<'a>(&'a self, env: &'a Environment, memo: bool) -> DiffSide<'a> {
            DiffSide {
                devices: &self.devices,
                env,
                quarantined: Vec::new(),
                analysis: Some(SideAnalysis {
                    dp: &self.dp,
                    topo: &self.topo,
                    graph: &self.graph,
                    vars: &self.vars,
                    bdd: &self.bdd,
                    memo: memo.then_some(&self.memo),
                }),
            }
        }

        fn memoised(&self) -> usize {
            self.memo.lock().expect("not poisoned").starts()
        }
    }

    /// A lent manager someone holds is built around, not waited for, and
    /// the report does not show it.
    #[test]
    fn a_held_manager_is_built_around() {
        let net = suite::n2();
        let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
        let before = Stored::new(net.parse(), &net.env);
        let after = Stored::new(parse(&p.configs), &net.env);
        let run = || {
            diff(
                &before.side(&net.env, false),
                &after.side(&net.env, false),
                &DiffOptions::default(),
            )
        };
        let free = run();
        let held = before.bdd.lock().expect("not poisoned");
        let busy = run();
        drop(held);
        assert_eq!(free.reach.changed_starts, 71);
        assert_eq!(crate::render_json(&busy), crate::render_json(&free));
    }

    /// Two diffs of one pair that share both sides' memos: the second
    /// walks neither side and reports the same bytes.
    #[test]
    fn a_repeated_diff_reads_its_memos() {
        let net = suite::n2();
        let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
        let before = Stored::new(net.parse(), &net.env);
        let after = Stored::new(parse(&p.configs), &net.env);
        let run = || {
            diff(
                &before.side(&net.env, true),
                &after.side(&net.env, true),
                &DiffOptions::default(),
            )
        };
        let first = run();
        assert_eq!(
            (first.reach.walks, first.reach.backward_starts),
            (2, 2 * 770)
        );
        assert_eq!((before.memoised(), after.memoised()), (770, 770));
        let second = run();
        assert_eq!(second.reach.starts_compared, 770);
        let ran = (
            second.reach.walks,
            second.reach.forward_starts,
            second.reach.backward_starts,
        );
        assert_eq!(ran, (0, 0, 0));
        assert_eq!(crate::render_json(&second), crate::render_json(&first));
    }

    /// `before`, lending its memo, is diffed against each of `afters` in
    /// turn, the first diff capped at `first_cap` starts. Each diff walks
    /// `before` only for the compared starts the memo lacks, and reports
    /// what a diff without a memo reports. Returns how many starts the
    /// memo held after each diff.
    fn memo_serves_later_diffs(
        before: &Stored,
        afters: &[Vec<Device>],
        env: &Environment,
        first_cap: usize,
    ) -> Vec<usize> {
        let mut held = vec![0];
        for (k, devices) in afters.iter().enumerate() {
            let after = DiffSide {
                devices,
                env,
                quarantined: Vec::new(),
                analysis: None,
            };
            let opts = DiffOptions {
                max_starts: if k == 0 { first_cap } else { 0 },
                ..DiffOptions::default()
            };
            let d = diff(&before.side(env, true), &after, &opts);
            let fresh = diff(&before.side(env, false), &after, &opts);
            assert_eq!(
                crate::render_json(&d),
                crate::render_json(&fresh),
                "diff {k}"
            );
            let (was, now) = (held[k], before.memoised());
            // The after side has no memo, so it walks every compared
            // start; the before side only those it lacked.
            let walked = fresh.reach.forward_starts + fresh.reach.backward_starts;
            let ran = d.reach.forward_starts + d.reach.backward_starts;
            assert_eq!(walked, 2 * d.reach.starts_compared, "diff {k}");
            assert_eq!(ran, d.reach.starts_compared + now - was, "diff {k}");
            held.push(now);
        }
        held
    }

    /// NET1's starts all walk forward. A memo filled by a drain-device
    /// diff serves an acl-add-line diff, whose changed cone holds three
    /// starts more, and that one's memo serves the drain-device diff
    /// again.
    #[test]
    fn a_memo_serves_a_diff_of_another_cone_under_nat() {
        let net = suite::net1();
        let before = Stored::new(net.parse(), &net.env);
        let drain = perturb(&net, Scenario::DrainDevice, 1).expect("NET1 has a victim");
        let acl = perturb(&net, Scenario::AclAddLine, 1).expect("NET1 has a victim");
        let afters = [&drain, &acl, &drain].map(|p| parse(&p.configs));
        let held = memo_serves_later_diffs(&before, &afters, &net.env, 0);
        assert_eq!(held, [0, 417, 420, 420]);
    }

    /// On the dNAT + zone lab, a diff capped at two starts leaves the
    /// memo partial, and a diff of another edit walks only the rest.
    #[test]
    fn a_memo_serves_a_diff_of_another_edit_through_nat_and_zones() {
        let before = Stored::new(firewall_lab(NAT), &Environment::none());
        let afters = vec![
            firewall_lab(&format!("{NAT}ip route 10.3.0.0/24 172.16.0.0\n")),
            firewall_lab(&format!(
                "{NAT}ip access-list extended EXTRA\n 10 permit ip any any\n"
            )),
        ];
        let held = memo_serves_later_diffs(&before, &afters, &Environment::none(), 2);
        assert_eq!(held, [0, 2, 5]);
    }

    #[test]
    fn n2_diff_walks_once_per_side() {
        let net = suite::n2();
        let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
        let (before, after) = (net.parse(), parse(&p.configs));
        let side = |devices| DiffSide {
            devices,
            env: &net.env,
            quarantined: Vec::new(),
            analysis: None,
        };
        let d = diff(&side(&before), &side(&after), &DiffOptions::default());
        assert_eq!((d.reach.starts_compared, d.reach.changed_starts), (770, 71));
        assert_eq!((d.reach.walks, d.reach.forward_starts), (2, 0));
        assert_eq!(d.reach.backward_starts, 2 * 770);
    }
}
