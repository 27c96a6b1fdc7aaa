//! Layer 3: symbolic differential reachability.
//!
//! Both forwarding graphs are encoded in ONE shared BDD manager, so the
//! per-start reachability relations live in the same node space and the
//! delta is a plain XOR (computed as two set differences to keep the
//! lost/gained split). Per changed start location the diff yields a
//! concrete example flow (picked with the §4.4.3-style preferences) and
//! a before/after trace from the concrete tracer.
//!
//! Cost is bounded by *cone pruning*: a start location whose node cannot
//! even topologically reach a changed device — in either graph — is
//! provably unchanged (outside the changed cone, the two graphs are
//! identical by construction), so its fixed point is never computed.
//!
//! And by *one walk per ingress seed*: a start's `TRUE` seed is first
//! pushed along its own ingress chain (`IfaceSrc → PreIn → PostIn →
//! dNAT, zone tag → PreFwd`). Forward reachability distributes over its
//! seeds and no success sink lies on that chain, so the start's success
//! set is that of the walk from what the chain hands `PreFwd`. Starts of
//! one device whose chains pass the same packets (host ports sharing an
//! ACL, uplinks with none) share one walk.

use crate::DiffOptions;
use batnet_bdd::{Bdd, NodeId};
use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_dataplane::{ForwardingGraph, NodeKind, PacketVars, ReachAnalysis};
use batnet_queries::examples::{pick_flow, Preferences};
use batnet_routing::DataPlane;
use batnet_traceroute::{StartLocation, Trace, Tracer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

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
    /// Forward walks run for those starts, both sides: one per distinct
    /// ingress seed. A cost figure, not part of the rendered report.
    pub walks: usize,
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
    /// Before data plane.
    pub dp_before: &'a DataPlane,
    /// After devices.
    pub devices_after: &'a [Device],
    /// After data plane.
    pub dp_after: &'a DataPlane,
    /// Devices touched by the structural or control-plane layers — the
    /// seed of the changed cone.
    pub changed_devices: &'a BTreeSet<String>,
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

/// Node-level reverse BFS: which nodes can (topologically) reach any
/// node of a changed device? Starts outside this set are unchanged.
fn cone_of(graph: &ForwardingGraph, changed: &BTreeSet<String>) -> Vec<bool> {
    let mut in_cone = vec![false; graph.nodes.len()];
    let mut work: Vec<usize> = Vec::new();
    for (i, k) in graph.nodes.iter().enumerate() {
        if changed.contains(k.device()) {
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

/// One graph's projected success sets, memoised by ingress seeds.
struct Walks<'g> {
    analysis: ReachAnalysis<'g>,
    memo: BTreeMap<Vec<(usize, NodeId)>, NodeId>,
}

impl<'g> Walks<'g> {
    fn new(graph: &'g ForwardingGraph) -> Walks<'g> {
        Walks {
            analysis: ReachAnalysis::new(graph),
            memo: BTreeMap::new(),
        }
    }

    /// The five-tuple projection of what `start` delivers, walking the
    /// graph only for seeds not seen before.
    fn projected(&mut self, bdd: &mut Bdd, vars: &PacketVars, start: usize) -> NodeId {
        let seeds = ingress_seeds(self.analysis.graph, bdd, start);
        if let Some(&p) = self.memo.get(&seeds) {
            return p;
        }
        let r = self.analysis.forward(bdd, &seeds);
        let s = self.analysis.success_set(bdd, &r);
        // Project away TCP flags / ICMP codes / zone & waypoint
        // bookkeeping bits before comparing: deltas must be about the
        // five-tuple, not internal encoding state.
        let p = vars.project_five_tuple(bdd, s);
        self.memo.insert(seeds, p);
        p
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
    let topo_b = Topology::infer(inputs.devices_before);
    let topo_a = Topology::infer(inputs.devices_after);
    // One shared manager: both graphs' edge predicates and both sides'
    // reach sets live in the same node space, so set algebra across the
    // snapshots is direct.
    let (mut bdd, vars) = PacketVars::new(0);
    let graph_b =
        ForwardingGraph::build(&mut bdd, &vars, inputs.devices_before, inputs.dp_before, &topo_b);
    let graph_a =
        ForwardingGraph::build(&mut bdd, &vars, inputs.devices_after, inputs.dp_after, &topo_a);

    let mut changed = inputs.changed_devices.clone();
    expand_adjacent(&graph_b, &mut changed);
    expand_adjacent(&graph_a, &mut changed);
    let cone_b = cone_of(&graph_b, &changed);
    let cone_a = cone_of(&graph_a, &changed);

    let starts_b = start_map(&graph_b);
    let starts_a = start_map(&graph_a);
    let common: Vec<(&(String, String), usize, usize)> = starts_b
        .iter()
        .filter_map(|(k, &nb)| starts_a.get(k).map(|&na| (k, nb, na)))
        .collect();

    let mut diff = ReachDiff {
        starts_total: common.len(),
        ..ReachDiff::default()
    };
    let mut walks_b = Walks::new(&graph_b);
    let mut walks_a = Walks::new(&graph_a);
    let tracer_b = Tracer::new(inputs.devices_before, inputs.dp_before, &topo_b);
    let tracer_a = Tracer::new(inputs.devices_after, inputs.dp_after, &topo_a);
    let prefs = Preferences::likely(&mut bdd, &vars);

    let mut compared = 0usize;
    for ((dev, ifc), nb, na) in common.into_iter().map(|(k, nb, na)| (k.clone(), nb, na)) {
        // Cone pruning: a start that cannot reach the changed region in
        // either graph is provably unchanged.
        if !cone_b[nb] && !cone_a[na] {
            continue;
        }
        if opts.max_starts != 0 && compared >= opts.max_starts {
            diff.truncated = true;
            break;
        }
        compared += 1;
        let pb = walks_b.projected(&mut bdd, &vars, nb);
        let pa = walks_a.projected(&mut bdd, &vars, na);
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
            let start = StartLocation::ingress(&dev, &ifc);
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
    diff.starts_compared = compared;
    diff.walks = walks_b.memo.len() + walks_a.memo.len();
    batnet_obs::gauge_set("diff.reach.starts", diff.starts_total as f64);
    batnet_obs::gauge_set("diff.reach.compared", diff.starts_compared as f64);
    batnet_obs::gauge_set("diff.reach.walks", diff.walks as f64);
    batnet_obs::counter_add("diff.reach.changed-starts", diff.changed_starts as u64);
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diff, DiffOptions, DiffSide};
    use batnet_config::parse_device;
    use batnet_dataplane::EdgeLabel;
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

    /// Builds `devices`' graph and checks, start by start in one manager,
    /// that the memoised projection is the reference's node. Returns the
    /// graph with its start and walk counts.
    fn check(devices: &[Device], env: &Environment) -> (ForwardingGraph, usize, usize) {
        let dp = simulate(devices, env, &SimOptions::default());
        let topo = Topology::infer(devices);
        let (mut bdd, vars) = PacketVars::new(0);
        let graph = ForwardingGraph::build(&mut bdd, &vars, devices, &dp, &topo);
        let starts: Vec<usize> = start_map(&graph).into_values().collect();
        let analysis = ReachAnalysis::new(&graph);
        let mut walks = Walks::new(&graph);
        for &s in &starts {
            let memo = walks.projected(&mut bdd, &vars, s);
            let want = reference(&analysis, &mut bdd, &vars, s);
            assert_eq!(memo, want, "start {:?}", graph.nodes[s]);
        }
        let walked = walks.memo.len();
        (graph, starts.len(), walked)
    }

    #[test]
    fn memo_matches_per_start_walks_on_n2_perturbations() {
        let net = suite::n2();
        for (scenario, seed) in [(Scenario::AclAttachPeering, 3), (Scenario::AclAddLine, 1)] {
            let p = perturb(&net, scenario, seed).expect("N2 has a victim");
            let (_, starts, walks) = check(&parse(&p.configs), &net.env);
            assert!(walks < starts, "{}: {walks} walks for {starts} starts", scenario.name());
        }
    }

    #[test]
    fn memo_matches_per_start_walks_under_nat() {
        let net = suite::net1();
        check(&net.parse(), &net.env);
    }

    /// Ingress ACLs, a destination NAT and stateful zones: every ingress
    /// chain carries transform edges, and the two host ports that share
    /// an ACL and a zone share a walk.
    #[test]
    fn memo_matches_per_start_walks_through_nat_and_zones() {
        let fw = "hostname fw\nzone security inside\nzone security outside\n\
                  zone-pair security inside outside acl OUTBOUND\n\
                  zone-pair security outside inside acl INBOUND\n\
                  interface h1\n ip address 10.1.1.1/24\n ip access-group HOSTS in\n zone-member security inside\n\
                  interface h2\n ip address 10.1.2.1/24\n ip access-group HOSTS in\n zone-member security inside\n\
                  interface up\n ip address 172.16.0.1/31\n zone-member security outside\n\
                  ip access-list extended HOSTS\n 10 deny tcp any any eq 23\n 20 permit ip any any\n\
                  ip access-list extended OUTBOUND\n 10 permit ip any any\n\
                  ip access-list extended INBOUND\n 10 permit tcp any any eq 443\n\
                  ip nat destination static 203.0.113.10 10.2.0.10\n\
                  ip route 10.2.0.0/24 172.16.0.0\n";
        let r2 = "hostname r2\ninterface down\n ip address 172.16.0.0/31\n\
                  interface servers\n ip address 10.2.0.1/24\n\
                  ip route 10.1.0.0/16 172.16.0.1\n";
        let devices = parse(&[("fw".into(), fw.into()), ("r2".into(), r2.into())]);
        let (graph, starts, walks) = check(&devices, &Environment::none());
        let transform_from = |pred: fn(&NodeKind) -> bool| {
            graph.edges.iter().any(|e| {
                pred(&graph.nodes[e.from]) && matches!(e.label, EdgeLabel::Transform(..))
            })
        };
        assert!(transform_from(|k| matches!(k, NodeKind::PostIn(..))), "destination NAT");
        assert!(transform_from(|k| matches!(k, NodeKind::PostZone(..))), "zone tag");
        assert_eq!((starts, walks), (5, 3));
    }

    #[test]
    fn n2_diff_walks_fewer_times_than_it_compares_starts() {
        let net = suite::n2();
        let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
        let (before, after) = (net.parse(), parse(&p.configs));
        let side = |devices| DiffSide {
            devices,
            env: &net.env,
            quarantined: Vec::new(),
            dp: None,
        };
        let d = diff(&side(&before), &side(&after), &DiffOptions::default());
        assert_eq!((d.reach.starts_compared, d.reach.changed_starts), (770, 71));
        assert!(d.reach.walks < d.reach.starts_compared, "{} walks", d.reach.walks);
    }
}
