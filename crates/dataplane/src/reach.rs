//! Reachability: fixed-point propagation over the dataflow graph.
//!
//! Forward analysis (§4.2.1): seed packet sets at source nodes, push
//! along edges (intersecting with labels, applying transforms), union at
//! heads, iterate to a fixed point. Multipath routing is inherent — the
//! analysis traverses all edges.
//!
//! Backward analysis (§4.2.3): for single-destination queries, walk the
//! graph backwards propagating pre-images, *"sav[ing] us from walking the
//! edges that do not lie on the destination's forwarding tree."* Walked
//! from a set of sinks at once, one backward pass answers every source:
//! two such passes, from the success and the drop sinks, answer multipath
//! consistency and loops for every start ([`ReachAnalysis::multipath`]).

use crate::graph::{DropKind, EdgeLabel, ForwardingGraph, NodeKind};
use crate::vars::PacketVars;
use batnet_bdd::{Bdd, NodeId, Transform};
use batnet_net::governor::{Exhaustion, Outcome, ResourceGovernor};
use std::collections::BTreeSet;

/// Shards per sharded reach call — **fixed**, not tied to the worker
/// count, so per-shard BDD growth (and therefore every stat and result
/// byte) is identical at 1 thread and N threads.
const REACH_SHARDS: usize = 8;

/// Manager-independent summary of one sharded per-start query:
/// `NodeId`s live in a shard-local fork, so shards report semantic
/// counts that combine deterministically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StartSummary {
    /// The start (graph node) this summarizes.
    pub start: usize,
    /// Graph nodes with a non-empty packet set.
    pub reached: usize,
    /// Edge relaxations the fixed point performed.
    pub relaxations: u64,
}

/// Summed manager stats across all shards of one sharded call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Total arena nodes across shard forks (includes the forked base).
    pub nodes: u64,
    /// Apply-cache hits across shards.
    pub cache_hits: u64,
    /// Apply-cache misses across shards.
    pub cache_misses: u64,
}

/// One start's answer from [`ReachAnalysis::multipath`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Multipath {
    /// The start (an `IfaceSrc` node).
    pub start: usize,
    /// Delivered on some path and dropped on another.
    pub inconsistent: NodeId,
    /// Reaches no sink on any path: it only loops, or hits a graph hole.
    pub only_loops: NodeId,
}

/// The result of a propagation: one packet set per graph node.
pub struct ReachResult {
    /// reach[node] = packets that can appear at that node.
    pub reach: Vec<NodeId>,
    /// Fixed-point iterations (edge relaxations performed).
    pub relaxations: u64,
}

impl ReachResult {
    /// The set at one node.
    pub fn at(&self, node: usize) -> NodeId {
        self.reach[node]
    }
}

/// Reachability analyses over one graph.
pub struct ReachAnalysis<'g> {
    /// The graph.
    pub graph: &'g ForwardingGraph,
}

impl<'g> ReachAnalysis<'g> {
    /// Creates an analysis over `graph`.
    pub fn new(graph: &'g ForwardingGraph) -> ReachAnalysis<'g> {
        ReachAnalysis { graph }
    }

    /// Applies an edge label in the forward direction: the packets
    /// `set` becomes on the edge's far side.
    pub fn apply(bdd: &mut Bdd, label: EdgeLabel, set: NodeId) -> NodeId {
        match label {
            EdgeLabel::Bdd(l) => bdd.and(l, set),
            EdgeLabel::Transform(rule, t) => bdd.transform(set, rule, t),
        }
    }

    /// Applies an edge label in the backward direction (pre-image). An
    /// unknown transform handle (a caller wiring bug) propagates nothing
    /// rather than panicking: the analysis under-approximates and the
    /// query degrades instead of crashing.
    fn apply_rev(
        bdd: &mut Bdd,
        vars: &PacketVars,
        label: EdgeLabel,
        set: NodeId,
    ) -> NodeId {
        match label {
            EdgeLabel::Bdd(l) => bdd.and(l, set),
            EdgeLabel::Transform(rule, t) => match rev_of(vars, t) {
                Some(rev) => PacketVars::transform_pre(bdd, rev, rule, set),
                None => NodeId::FALSE,
            },
        }
    }

    /// Forward fixed point from `sources` (node, packet set) seeds.
    pub fn forward(&self, bdd: &mut Bdd, sources: &[(usize, NodeId)]) -> ReachResult {
        let span = batnet_obs::Span::enter("reach.forward");
        let n = self.graph.nodes.len();
        let mut reach = vec![NodeId::FALSE; n];
        let mut worklist: BTreeSet<usize> = BTreeSet::new();
        for &(node, set) in sources {
            reach[node] = bdd.or(reach[node], set);
            if reach[node] != NodeId::FALSE {
                worklist.insert(node);
            }
        }
        let mut relaxations = 0u64;
        while let Some(node) = worklist.pop_first() {
            let current = reach[node];
            for &eid in &self.graph.out_edges[node] {
                relaxations += 1;
                let edge = &self.graph.edges[eid];
                let pushed = Self::apply(bdd, edge.label, current);
                if pushed == NodeId::FALSE {
                    continue;
                }
                let merged = bdd.or(reach[edge.to], pushed);
                if merged != reach[edge.to] {
                    reach[edge.to] = merged;
                    worklist.insert(edge.to);
                }
            }
        }
        span.close();
        batnet_obs::counter_add("reach.queries", 1);
        batnet_obs::observe("reach.relaxations", relaxations);
        ReachResult { reach, relaxations }
    }

    /// Backward fixed point: the packets that, placed at each node, can
    /// go on to reach `target` carrying a packet in `target_set`. Nodes
    /// pop in index order.
    pub fn backward(
        &self,
        bdd: &mut Bdd,
        vars: &PacketVars,
        target: usize,
        target_set: NodeId,
    ) -> ReachResult {
        let span = batnet_obs::Span::enter("reach.backward");
        let mut reach = vec![NodeId::FALSE; self.graph.nodes.len()];
        reach[target] = target_set;
        let mut worklist: BTreeSet<usize> = BTreeSet::new();
        worklist.insert(target);
        let mut relaxations = 0u64;
        while let Some(node) = worklist.pop_first() {
            let current = reach[node];
            for &eid in &self.graph.in_edges[node] {
                relaxations += 1;
                let edge = &self.graph.edges[eid];
                let pulled = Self::apply_rev(bdd, vars, edge.label, current);
                if pulled == NodeId::FALSE {
                    continue;
                }
                let merged = bdd.or(reach[edge.from], pulled);
                if merged != reach[edge.from] {
                    reach[edge.from] = merged;
                    worklist.insert(edge.from);
                }
            }
        }
        span.close();
        batnet_obs::counter_add("reach.queries", 1);
        batnet_obs::observe("reach.relaxations", relaxations);
        ReachResult { reach, relaxations }
    }

    /// Backward fixed point from `sinks`, each seeded `TRUE`: `reach[n]` is
    /// the packets that, placed at `n`, reach one of them (§4.2.3). Nodes
    /// pop in reverse topological rank, sinks first, so outside cycles a
    /// node is pulled from once; popped again, it pulls only what it gained.
    /// ([`ReachAnalysis::backward`] keeps index order: its relaxation
    /// counts are pinned.)
    ///
    /// `gov` is polled on every pop, its node ceiling against `bdd`'s
    /// arena, so a governor handed in per query (e.g. by batnet-serve)
    /// bounds the walk's time and BDD growth. When a limit trips, the sets
    /// computed so far are returned as [`Outcome::Partial`] (each an
    /// under-approximation), with the devices still on the worklist listed
    /// as abandoned.
    pub fn backward_from(
        &self,
        bdd: &mut Bdd,
        vars: &PacketVars,
        sinks: &[usize],
        gov: &ResourceGovernor,
    ) -> Outcome<ReachResult> {
        const STAGE: &str = "reach-backward";
        let span = batnet_obs::Span::enter("reach.backward");
        let order = post_order(self.graph);
        let mut rank = vec![0; order.len()];
        for (r, &node) in order.iter().enumerate() {
            rank[node] = r;
        }
        let mut reach = vec![NodeId::FALSE; order.len()];
        let mut pulled = vec![NodeId::FALSE; order.len()];
        let mut worklist: BTreeSet<usize> = BTreeSet::new();
        for &sink in sinks {
            reach[sink] = NodeId::TRUE;
            worklist.insert(rank[sink]);
        }
        let mut relaxations = 0u64;
        let mut why: Option<Exhaustion> = None;
        while let Some(r) = worklist.pop_first() {
            let polled = gov.tick(STAGE, 1).and_then(|()| gov.check_nodes(STAGE, bdd.node_count()));
            if let Err(e) = polled {
                worklist.insert(r);
                why = Some(e);
                break;
            }
            let node = order[r];
            let gained = bdd.diff(reach[node], pulled[node]);
            pulled[node] = reach[node];
            for &eid in &self.graph.in_edges[node] {
                relaxations += 1;
                let edge = &self.graph.edges[eid];
                let pre = Self::apply_rev(bdd, vars, edge.label, gained);
                if pre == NodeId::FALSE {
                    continue;
                }
                let merged = bdd.or(reach[edge.from], pre);
                if merged != reach[edge.from] {
                    reach[edge.from] = merged;
                    worklist.insert(rank[edge.from]);
                }
            }
        }
        span.close();
        batnet_obs::counter_add("reach.queries", 1);
        batnet_obs::observe("reach.relaxations", relaxations);
        let completed = ReachResult { reach, relaxations };
        let Some(why) = why else {
            return Outcome::Complete(completed);
        };
        let abandoned: BTreeSet<String> = worklist
            .into_iter()
            .map(|r| self.graph.nodes[order[r]].device().to_string())
            .collect();
        Outcome::Partial { completed, abandoned: abandoned.into_iter().collect(), why }
    }

    /// Convenience: seeds every `IfaceSrc` node with `set` and runs
    /// forward.
    pub fn forward_from_all_sources(&self, bdd: &mut Bdd, set: NodeId) -> ReachResult {
        let sources: Vec<(usize, NodeId)> = self
            .graph
            .nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _)))
            .into_iter()
            .map(|n| (n, set))
            .collect();
        self.forward(bdd, &sources)
    }

    /// The union of reach sets over success sinks.
    pub fn success_set(&self, bdd: &mut Bdd, r: &ReachResult) -> NodeId {
        let mut acc = NodeId::FALSE;
        for n in self.graph.nodes_where(NodeKind::is_success_sink) {
            acc = bdd.or(acc, r.reach[n]);
        }
        acc
    }

    /// The union of reach sets over drop sinks, optionally filtered by
    /// kind.
    pub fn drop_set(&self, bdd: &mut Bdd, r: &ReachResult, kind: Option<&DropKind>) -> NodeId {
        let mut acc = NodeId::FALSE;
        for (i, k) in self.graph.nodes.iter().enumerate() {
            if let NodeKind::Drop(_, dk) = k {
                if kind.is_none_or(|want| want == dk) {
                    acc = bdd.or(acc, r.reach[i]);
                }
            }
        }
        acc
    }

    /// Multipath consistency (§6.1) for each of `starts`, from two backward
    /// walks (§4.2.3), one from the success and one from the `Drop` sinks.
    /// Both answers hold packets as the start sends them, whatever NAT or
    /// zone rewrites lie on their paths, so a flow picked from either
    /// traces as-is. A packet that loops on one ECMP branch and ends on
    /// another is in neither set.
    pub fn multipath(&self, bdd: &mut Bdd, vars: &PacketVars, starts: &[usize]) -> Vec<Multipath> {
        let unlimited = ResourceGovernor::unlimited();
        let ok_sinks = self.graph.nodes_where(NodeKind::is_success_sink);
        let drop_sinks = self.graph.nodes_where(|k| matches!(k, NodeKind::Drop(..)));
        let ok = self
            .backward_from(bdd, vars, &ok_sinks, &unlimited)
            .into_value();
        let dropped = self
            .backward_from(bdd, vars, &drop_sinks, &unlimited)
            .into_value();
        let init = vars.initial_bits(bdd);
        starts
            .iter()
            .map(|&start| {
                let both = bdd.and(ok.reach[start], dropped.reach[start]);
                let either = bdd.or(ok.reach[start], dropped.reach[start]);
                Multipath {
                    start,
                    inconsistent: bdd.and(both, init),
                    only_loops: bdd.diff(init, either),
                }
            })
            .collect()
    }

    /// The benchmark-only egress reference for [`ReachAnalysis::multipath`]:
    /// one forward walk from `source`, meeting the delivered and dropped
    /// sets at the sinks. After a NAT or zone rewrite those headers are no
    /// longer the packets the start sent, so across a transform this both
    /// reports and misses packets wrongly.
    pub fn multipath_inconsistency(&self, bdd: &mut Bdd, source: usize) -> NodeId {
        let r = self.forward(bdd, &[(source, NodeId::TRUE)]);
        let ok = self.success_set(bdd, &r);
        let bad = self.drop_set(bdd, &r, None);
        bdd.and(ok, bad)
    }

    /// Backward reachability from each of `targets`, sharded over the
    /// execution pool: starts are partitioned into a **fixed** number of
    /// shards (independent of thread count, so results and stats never
    /// depend on parallelism level), each shard runs on its own
    /// [`Bdd::fork`] of `base`, and per-start summaries are combined in
    /// input order. Summaries are manager-independent (`NodeId`s from
    /// different forks are not comparable, semantic counts are), which
    /// is the cross-shard combine.
    pub fn backward_sharded(
        &self,
        base: &Bdd,
        vars: &PacketVars,
        targets: &[usize],
    ) -> (Vec<StartSummary>, ShardStats) {
        self.run_sharded(base, targets, |local, &t| {
            let r = self.backward(local, vars, t, NodeId::TRUE);
            StartSummary {
                start: t,
                reached: r.reach.iter().filter(|&&s| s != NodeId::FALSE).count(),
                relaxations: r.relaxations,
            }
        })
    }

    /// [`ReachAnalysis::multipath_inconsistency`] over many starts,
    /// sharded like [`ReachAnalysis::backward_sharded`]: the benchmark-only
    /// egress reference. Returns `(start, violated)` pairs in input order.
    #[allow(clippy::disallowed_methods)] // its per-start call of the egress reference
    pub fn multipath_sharded(
        &self,
        base: &Bdd,
        starts: &[usize],
    ) -> (Vec<(usize, bool)>, ShardStats) {
        self.run_sharded(base, starts, |local, &s| {
            (s, self.multipath_inconsistency(local, s) != NodeId::FALSE)
        })
    }

    /// The shared shard driver: fixed partition, one fork per shard,
    /// input-order merge, summed manager stats.
    fn run_sharded<R: Send>(
        &self,
        base: &Bdd,
        starts: &[usize],
        per_start: impl Fn(&mut Bdd, &usize) -> R + Sync,
    ) -> (Vec<R>, ShardStats) {
        if starts.is_empty() {
            return (Vec::new(), ShardStats::default());
        }
        let span = batnet_obs::Span::enter("reach.shard");
        let chunk = starts.len().div_ceil(REACH_SHARDS.min(starts.len()));
        let chunks: Vec<&[usize]> = starts.chunks(chunk).collect();
        let pool = batnet_exec::current();
        let per_chunk = pool.map_opts(
            &chunks,
            batnet_exec::MapOptions {
                span: Some(("exec.reach", span.context())),
            },
            |chunk: &&[usize]| {
                let mut local = base.fork();
                let out: Vec<R> = chunk.iter().map(|t| per_start(&mut local, t)).collect();
                let stats = local.stats();
                (
                    out,
                    ShardStats {
                        nodes: stats.nodes as u64,
                        cache_hits: stats.cache_hits,
                        cache_misses: stats.cache_misses,
                    },
                )
            },
        );
        span.close();
        let mut merged = Vec::with_capacity(starts.len());
        let mut stats = ShardStats::default();
        for (rs, s) in per_chunk {
            merged.extend(rs);
            stats.nodes += s.nodes;
            stats.cache_hits += s.cache_hits;
            stats.cache_misses += s.cache_misses;
        }
        (merged, stats)
    }
}

/// The graph's nodes in one depth-first post-order over out-edges: a node
/// comes after everything it reaches, except around a cycle.
fn post_order(graph: &ForwardingGraph) -> Vec<usize> {
    let n = graph.nodes.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        stack.push((root, 0));
        while let Some(top) = stack.last_mut() {
            let (node, next) = *top;
            match graph.out_edges[node].get(next) {
                Some(&eid) => {
                    top.1 += 1;
                    let to = graph.edges[eid].to;
                    if !seen[to] {
                        seen[to] = true;
                        stack.push((to, 0));
                    }
                }
                None => {
                    order.push(node);
                    stack.pop();
                }
            }
        }
    }
    order
}

/// The reverse data for a registered transform handle, or `None` for a
/// handle this variable layout never registered.
fn rev_of(vars: &PacketVars, t: Transform) -> Option<crate::vars::TransformRev> {
    if t == vars.nat_transform {
        Some(vars.nat_rev)
    } else if t == vars.zone_transform {
        Some(vars.zone_rev)
    } else {
        None
    }
}
