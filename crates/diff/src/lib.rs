//! # batnet-diff — differential snapshot analysis
//!
//! The workflow Batfish is actually deployed for is validating a
//! *candidate change* against the running network before deployment.
//! This crate compares two snapshots end to end, across all three
//! pipeline layers:
//!
//! 1. **Structural** ([`structural`]) — the VI model, keyed by stable
//!    structure paths with source spans on both sides.
//! 2. **Control plane** ([`routes`]) — per-device RIB/FIB deltas from
//!    the two simulated data planes.
//! 3. **Data plane** ([`reach`]) — symbolic differential reachability:
//!    each forwarding graph walked in its own BDD manager (one backward
//!    walk answers every start no NAT edge touches), the per-start
//!    five-tuple projections imported into one comparison manager and
//!    XORed there, with a concrete example flow and before/after traces
//!    for every delta.
//!
//! A side can lend the analysis it already has ([`SideAnalysis`]: data
//! plane, topology, graph and manager, as `batnet-serve` stores them),
//! whose manager the diff walks a fork of; a side without one is
//! simulated and its graph built in a scratch manager, which the sides
//! that lend none share and which is walked in place, so every caller
//! takes the same reach path. A side may also lend a [`SideMemo`] of
//! what its starts deliver, filled by earlier diffs of it, so that only
//! the compared starts it lacks are walked.
//!
//! When the first two layers are empty, the forwarding graphs are equal
//! by construction (the graph is a function of devices, FIBs, and the
//! inferred topology — itself a function of the devices), so the
//! symbolic stage is skipped and marked `skipped_equivalent`.
//!
//! Observability: the three stages run under the `diff.configs`,
//! `diff.routes`, and `diff.reach` spans with change-count metrics.

pub mod reach;
pub mod report;
pub mod routes;
pub mod structural;

pub use reach::{FlowDelta, FlowDirection, ReachDiff, ReachInputs, SideMemo};
pub use report::{render_json, render_text, validate, SCHEMA};
pub use routes::{RouteChange, RouteChangeKind, RouteDiff};
pub use structural::{ChangeKind, StructChange, StructuralDiff};

use batnet_bdd::Bdd;
use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_dataplane::{ForwardingGraph, PacketVars};
use batnet_obs::report::QuarantineEntry;
use batnet_routing::{DataPlane, Environment, SimOptions};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// Tuning knobs for a diff run.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Cap on example-flow witnesses in the data-plane layer.
    pub max_flow_deltas: usize,
    /// Cap on start locations actually compared symbolically
    /// (0 = unlimited). Pruned starts do not count.
    pub max_starts: usize,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            max_flow_deltas: 16,
            max_starts: 0,
        }
    }
}

/// A whole analysis of one side's devices, lent to the diff: what the
/// reach stage walks instead of building its own.
#[derive(Clone, Copy)]
pub struct SideAnalysis<'a> {
    /// Simulated RIBs and FIBs.
    pub dp: &'a DataPlane,
    /// The devices' inferred topology.
    pub topo: &'a Topology,
    /// The forwarding graph of `dp` over `topo`, as built (not
    /// compressed or instrumented).
    pub graph: &'a ForwardingGraph,
    /// The variable layout `graph` was built with.
    pub vars: &'a PacketVars,
    /// The manager `graph`'s labels live in. The diff locks it only to
    /// fork it and walks the fork, so it adds no nodes here; if someone
    /// else holds it, the diff builds this side's graph afresh rather
    /// than wait.
    pub bdd: &'a Mutex<Bdd>,
    /// What this graph's starts deliver, as earlier diffs of it recorded:
    /// the diff walks only for the compared starts it lacks, and records
    /// those. `None` gives the diff a memo of its own.
    pub memo: Option<&'a Mutex<SideMemo>>,
}

/// One side of a diff: the healthy devices, their environment, and the
/// quarantine accounting for everything that did not make it in.
pub struct DiffSide<'a> {
    /// Healthy parsed devices.
    pub devices: &'a [Device],
    /// External announcements and link state.
    pub env: &'a Environment,
    /// Devices excluded from this side, as the run report lists them.
    pub quarantined: Vec<QuarantineEntry>,
    /// An analysis already run for `devices` and `env` under
    /// `SimOptions::default()`, or `None` to simulate this side the same
    /// way, under the diff's governor, and build its graph here.
    pub analysis: Option<SideAnalysis<'a>>,
}

/// The full three-layer diff of two snapshots.
#[derive(Clone, Default, Debug)]
pub struct SnapshotDiff {
    /// Layer 1: VI-model changes.
    pub structural: StructuralDiff,
    /// Layer 2: RIB/FIB deltas.
    pub routes: RouteDiff,
    /// Layer 3: changed reachability.
    pub reach: ReachDiff,
    /// Before-side quarantine accounting (not a difference per se: these
    /// devices were never compared, and the report must say so).
    pub quarantined_before: Vec<QuarantineEntry>,
    /// After-side quarantine accounting.
    pub quarantined_after: Vec<QuarantineEntry>,
}

impl SnapshotDiff {
    /// No behavioral or structural differences? Quarantine lists do not
    /// count: a self-diff of a degraded snapshot is still empty.
    pub fn is_empty(&self) -> bool {
        self.structural.is_empty() && self.routes.is_empty() && self.reach.is_empty()
    }

    /// Total change count across the three layers.
    pub fn change_count(&self) -> usize {
        self.structural.change_count() + self.routes.change_count() + self.reach.changed_starts
    }
}

/// A side's control plane: its stored topology and data plane, or the
/// topology inferred here and the simulation under `gov` run on it.
fn control_plane<'a>(
    side: &DiffSide<'a>,
    gov: &batnet_net::governor::ResourceGovernor,
) -> (
    Cow<'a, Topology>,
    batnet_net::governor::Outcome<Cow<'a, DataPlane>>,
) {
    match side.analysis {
        Some(a) => (
            Cow::Borrowed(a.topo),
            batnet_net::governor::Outcome::Complete(Cow::Borrowed(a.dp)),
        ),
        None => {
            let topo = Topology::infer(side.devices);
            let dp = batnet_routing::simulate_governed(
                side.devices,
                &topo,
                side.env,
                &SimOptions::default(),
                gov,
            )
            .map(Cow::Owned);
            (Cow::Owned(topo), dp)
        }
    }
}

/// The three-layer comparison under a
/// [`batnet_net::governor::ResourceGovernor`]: structural, then control
/// plane (simulate each side that lends no analysis, merge-join the
/// RIBs/FIBs), then data plane — with the equivalence fast path:
/// identical devices and identical RIBs/FIBs make the graphs equal by
/// construction.
///
/// The governor is consulted at the three layer boundaries
/// (`diff.configs`, `diff.routes`, `diff.reach`) and threaded into the
/// route simulations, which are the only unbounded-iteration stages. A
/// tripped budget returns the layers computed so far — structural-only,
/// or structural + routes — with the uncomputed layers named in
/// `abandoned`. Layer 3 already bounds itself via `opts` caps, so its
/// boundary check is the last one taken.
pub fn diff_governed(
    before: &DiffSide<'_>,
    after: &DiffSide<'_>,
    opts: &DiffOptions,
    gov: &batnet_net::governor::ResourceGovernor,
) -> batnet_net::governor::Outcome<SnapshotDiff> {
    use batnet_net::governor::Outcome;
    let partial = |d: SnapshotDiff, abandoned: &[&str], why| Outcome::Partial {
        completed: d,
        abandoned: abandoned.iter().map(|s| s.to_string()).collect(),
        why,
    };
    let mut out = SnapshotDiff {
        quarantined_before: before.quarantined.clone(),
        quarantined_after: after.quarantined.clone(),
        ..SnapshotDiff::default()
    };
    if let Err(why) = gov.check("diff.configs") {
        return partial(out, &["configs", "routes", "reach"], why);
    }
    let span = batnet_obs::Span::enter("diff.configs");
    out.structural = structural::diff_structural(before.devices, after.devices);
    batnet_obs::counter_add("diff.structural.changes", out.structural.change_count() as u64);
    span.close();

    if let Err(why) = gov.check("diff.routes") {
        return partial(out, &["routes", "reach"], why);
    }
    let span = batnet_obs::Span::enter("diff.routes");
    let (topo_before, sim_before) = control_plane(before, gov);
    let (topo_after, sim_after) = control_plane(after, gov);
    let (dp_before, dp_after): (&DataPlane, &DataPlane) = (sim_before.value(), sim_after.value());
    out.routes = routes::diff_routes(dp_before, dp_after);
    batnet_obs::counter_add("diff.routes.changes", out.routes.change_count() as u64);
    span.close();
    // A partial simulation makes the route delta itself suspect: stop at
    // this layer and say so rather than diffing two half-converged RIBs
    // symbolically.
    if let Some(why) = sim_before.why().or(sim_after.why()) {
        return partial(out, &["reach"], why.clone());
    }

    if let Err(why) = gov.check("diff.reach") {
        return partial(out, &["reach"], why);
    }
    let span = batnet_obs::Span::enter("diff.reach");
    out.reach = if out.structural.is_empty() && out.routes.is_empty() {
        ReachDiff {
            skipped_equivalent: true,
            ..ReachDiff::default()
        }
    } else {
        let mut changed: BTreeSet<String> = out.structural.changed_devices();
        changed.extend(out.routes.changed_devices.iter().cloned());
        let scratch = reach::Scratch::new();
        let (graph_before, graph_after);
        let lent_before = match before.analysis {
            Some(a) => a,
            None => {
                graph_before = scratch.build(before.devices, dp_before, &topo_before);
                scratch.lend(&graph_before, dp_before, &topo_before)
            }
        };
        let lent_after = match after.analysis {
            Some(a) => a,
            None => {
                graph_after = scratch.build(after.devices, dp_after, &topo_after);
                scratch.lend(&graph_after, dp_after, &topo_after)
            }
        };
        reach::diff_reach(
            &ReachInputs {
                devices_before: before.devices,
                before: lent_before,
                devices_after: after.devices,
                after: lent_after,
                changed_devices: &changed,
                scratch: &scratch.bdd,
            },
            opts,
        )
    };
    span.close();
    Outcome::Complete(out)
}

/// Compares two snapshot sides across all three layers: [`diff_governed`]
/// with no budget.
pub fn diff(before: &DiffSide<'_>, after: &DiffSide<'_>, opts: &DiffOptions) -> SnapshotDiff {
    diff_governed(before, after, opts, &batnet_net::governor::ResourceGovernor::unlimited())
        .into_value()
}
