//! The two batch workloads: each answer starts from config text.
//!
//! * `verify-n7`: N7 → `Snapshot::from_configs` → `analyze` → multipath
//!   consistency from 8 seeded start interfaces and backward
//!   destination reachability to 3 seeded delivery sinks.
//! * `routes-n11`: N11 → `from_configs` → `routing::simulate` → route
//!   totals and 2,000 seeded FIB lookups. Never builds a BDD.

use crate::inputs::{self, PORTS};
use crate::oracle::{self, Facts, Verdict};
use crate::spec::{self, put, put_n, Metrics, Size, TimedRun};
use crate::stats::median;
use batnet::config::{InterfaceRef, Topology};
use batnet::dataplane::{ForwardingGraph, NodeKind, ReachAnalysis, StartSummary};
use batnet::net::rng::Rng;
use batnet::net::{Flow, Ip, Prefix};
use batnet::queries::{pick_flow, Preferences};
use batnet::routing::{simulate, DataPlane, Environment, FibAction, SimOptions};
use batnet::traceroute::{Disposition, StartLocation};
use batnet::{Analysis, Snapshot};
use batnet_topogen::GeneratedNetwork;
use std::panic::{catch_unwind, AssertUnwindSafe};

const VERIFY_STARTS: usize = 8;
const VERIFY_SINKS: usize = 3;
const ROUTE_LOOKUPS: usize = 2_000;

/// The seeded start interfaces and delivery sinks of a verify answer.
pub fn verify_targets(graph: &ForwardingGraph, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let mut pick = |mut pool: Vec<usize>, n: usize| {
        rng.shuffle(&mut pool);
        pool.truncate(n);
        pool.sort_unstable();
        pool
    };
    let starts = pick(
        graph.nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _))),
        VERIFY_STARTS,
    );
    let sinks = pick(
        graph.nodes_where(|k| matches!(k, NodeKind::DeliveredToSubnet(_, _))),
        VERIFY_SINKS,
    );
    (starts, sinks)
}

/// One verify answer, as a user of the library gets it.
pub struct VerifyAnswer {
    pub analysis: Analysis,
    pub verdicts: Vec<(usize, bool)>,
    pub summaries: Vec<StartSummary>,
    /// Arena nodes summed over the shard forks of both questions.
    pub shard_nodes: u64,
}

impl VerifyAnswer {
    /// Complete: nothing quarantined, routing converged.
    fn healthy(&self) -> bool {
        self.analysis.quarantined.is_empty() && self.analysis.dp.convergence.converged
    }
}

/// Config text in, verdicts out.
pub fn verify_answer(configs: Vec<(String, String)>, env: &Environment, seed: u64) -> VerifyAnswer {
    let analysis = Snapshot::from_configs(configs)
        .with_env(env.clone())
        .analyze();
    let (starts, sinks) = verify_targets(&analysis.graph, seed);
    let reach = ReachAnalysis::new(&analysis.graph);
    let (verdicts, multipath) = reach.multipath_sharded(&analysis.bdd, &starts);
    let (summaries, dest) = reach.backward_sharded(&analysis.bdd, &analysis.vars, &sinks);
    VerifyAnswer {
        analysis,
        verdicts,
        summaries,
        shard_nodes: multipath.nodes + dest.nodes,
    }
}

/// One routes answer: the simulated data plane plus the lookup results.
pub struct RoutesAnswer {
    pub snapshot: Snapshot,
    pub dp: DataPlane,
    /// `(device index, destination)` of each lookup and whether it hit.
    pub lookups: Vec<(usize, Ip, bool)>,
}

impl RoutesAnswer {
    fn healthy(&self) -> bool {
        self.snapshot.quarantined.is_empty() && self.dp.convergence.converged
    }
}

/// Config text in, routes out.
pub fn routes_answer(configs: Vec<(String, String)>, env: &Environment, seed: u64) -> RoutesAnswer {
    let snapshot = Snapshot::from_configs(configs).with_env(env.clone());
    let dp = simulate(&snapshot.devices, &snapshot.env, &SimOptions::default());
    let universe = inputs::connected_prefixes(&snapshot.devices);
    let mut rng = Rng::new(seed);
    let lookups = (0..ROUTE_LOOKUPS)
        .map(|_| {
            let device = rng.index(dp.devices.len());
            let prefix = *rng.pick(&universe);
            let dst = inputs::addr_in(&mut rng, prefix);
            let hit = dp.devices[device].fib.lookup(dst).is_some();
            (device, dst, hit)
        })
        .collect();
    RoutesAnswer {
        snapshot,
        dp,
        lookups,
    }
}

/// Timing of a batch workload: one discarded warm-up answer (part of
/// set-up: the first iteration runs on a cold allocator and is 10–30 %
/// slower), then `n` timed answers. Between answers — outside the
/// timed window — the previous answer is dropped and the program's span
/// recorder is reset, so neither leaks into the next answer's time or
/// into `peak_rss_mb`. Returns the run so far and the last good answer
/// for the oracle.
fn timed_answers<A>(
    n: usize,
    generate: fn() -> GeneratedNetwork,
    answer: impl Fn(Vec<(String, String)>, &Environment) -> A,
    healthy: impl Fn(&A) -> bool,
) -> (TimedRun, Option<A>) {
    let t_setup = batnet::obs::now();
    let net = generate();
    let mut inputs: Vec<_> = (0..=n).map(|_| net.configs.clone()).collect();
    let run = |configs| catch_unwind(AssertUnwindSafe(|| answer(configs, &net.env))).ok();
    drop(run(inputs.pop().expect("n + 1 inputs")));
    let setup_s = t_setup.elapsed().as_secs_f64();

    let (mut times_ms, mut failed, mut last) = (Vec::with_capacity(n), 0, None);
    while let Some(configs) = inputs.pop() {
        drop(last.take());
        batnet::obs::reset();
        let t = batnet::obs::now();
        let a = run(configs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match a {
            Some(a) if healthy(&a) => {
                times_ms.push(ms);
                last = Some(a);
            }
            _ => failed += 1,
        }
    }

    let mut metrics = Metrics::new();
    put(&mut metrics, "setup_s", setup_s);
    put_n(
        &mut metrics,
        "answer_p50_ms",
        median(&times_ms),
        times_ms.len(),
    );
    let wall_s: f64 = times_ms.iter().sum::<f64>() / 1e3;
    put_n(
        &mut metrics,
        "answers_per_s",
        times_ms.len() as f64 / wall_s,
        times_ms.len(),
    );
    let run = TimedRun {
        metrics,
        counts: Vec::new(),
        attempted: n as u64,
        failed,
        verdict: Verdict::default(),
        facts: Facts::new(),
    };
    (run, last)
}

/// The timed run of `verify-n7`.
pub fn verify_timed(seed: u64, size: Size) -> TimedRun {
    let n = size.count(spec::VERIFY_ANSWERS, 1);
    let (mut run, last) = timed_answers(
        n,
        inputs::workload_net("verify-n7", size.quick).1,
        |c, env| verify_answer(c, env, seed),
        VerifyAnswer::healthy,
    );
    if let Some(mut a) = last {
        run.counts = vec![
            ("routing.routes".into(), a.analysis.dp.total_routes() as u64),
            ("bdd.nodes".into(), a.analysis.bdd.node_count() as u64),
            (
                "bdd.cache_entries".into(),
                a.analysis.bdd.cache_entries() as u64,
            ),
            ("bdd.shard_nodes".into(), a.shard_nodes),
            (
                "dataplane.relaxations".into(),
                a.summaries.iter().map(|s| s.relaxations).sum(),
            ),
        ];
        run.facts = verify_facts(&a);
        verify_concrete(&mut a, seed, &mut run.verdict);
    }
    run
}

/// Semantic facts of a verify answer for the expected file.
fn verify_facts(a: &VerifyAnswer) -> Facts {
    let (nodes, edges) = a.analysis.graph.size();
    let mut f = Facts::new();
    f.insert("devices".into(), a.analysis.devices.len().to_string());
    f.insert("routes".into(), a.analysis.dp.total_routes().to_string());
    f.insert("graph_nodes".into(), nodes.to_string());
    f.insert("graph_edges".into(), edges.to_string());
    f.insert(
        "seed1.multipath_starts".into(),
        oracle::list(a.verdicts.iter().map(|v| v.0)),
    );
    f.insert(
        "seed1.multipath_violated".into(),
        oracle::list(a.verdicts.iter().map(|v| u8::from(v.1))),
    );
    f.insert(
        "seed1.dest_sinks".into(),
        oracle::list(a.summaries.iter().map(|s| s.start)),
    );
    f.insert(
        "seed1.dest_reached".into(),
        oracle::list(a.summaries.iter().map(|s| s.reached)),
    );
    f.insert(
        "seed1.dest_relaxations".into(),
        oracle::list(a.summaries.iter().map(|s| s.relaxations)),
    );
    f
}

/// Re-checks sampled verdicts of a verify answer with the concrete
/// engine.
fn verify_concrete(a: &mut VerifyAnswer, seed: u64, verdict: &mut Verdict) {
    let an = &mut a.analysis;
    let universe = inputs::connected_prefixes(&an.devices);
    let mut rng = Rng::new(seed ^ 0x5eed);
    // Multipath: a start the symbolic engine calls consistent has no
    // packet that is delivered on one path and dropped on another (a
    // forwarding loop is neither: the graph has no sink for it).
    for &(start, violated) in &a.verdicts {
        let NodeKind::IfaceSrc(device, iface) = &an.graph.nodes[start] else {
            continue;
        };
        if violated {
            continue;
        }
        let Some(subnet) = an
            .devices
            .iter()
            .find(|d| d.name == *device)
            .and_then(|d| d.interfaces.get(iface))
            .and_then(|i| i.connected_prefix())
        else {
            continue;
        };
        for _ in 0..4 {
            let (to, port) = (*rng.pick(&universe), *rng.pick(&PORTS));
            let flow = Flow::tcp(
                inputs::addr_in(&mut rng, subnet),
                40_000,
                inputs::addr_in(&mut rng, to),
                port,
            );
            let trace = an.trace(device, iface, &flow);
            let delivered = trace.paths.iter().any(|p| p.disposition.is_success());
            let dropped = trace
                .paths
                .iter()
                .any(|p| !p.disposition.is_success() && p.disposition != Disposition::Loop);
            verdict.check(!(delivered && dropped), || {
                format!("multipath: {device}[{iface}] is consistent symbolically, yet {flow} splits:\n{trace}")
            });
        }
    }
    // Destination reachability: a packet the backward analysis places at
    // an interface source must be delivered at that sink concretely.
    let reach = ReachAnalysis::new(&an.graph);
    let prefs = Preferences::likely(&mut an.bdd, &an.vars);
    let init = an.vars.initial_bits(&mut an.bdd);
    for s in &a.summaries {
        let NodeKind::DeliveredToSubnet(sink_dev, sink_if) = &an.graph.nodes[s.start] else {
            continue;
        };
        let r = reach.backward(&mut an.bdd, &an.vars, s.start, batnet::bdd::NodeId::TRUE);
        let witness = an
            .graph
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, k)| match k {
                NodeKind::IfaceSrc(d, i_name) => {
                    let set = an.bdd.and(r.at(i), init);
                    pick_flow(&mut an.bdd, &an.vars, set, &prefs)
                        .map(|f| (d.clone(), i_name.clone(), f))
                }
                _ => None,
            });
        let Some((device, iface, flow)) = witness else {
            continue;
        };
        let trace = an.tracer().trace(
            &StartLocation::ingress(device.clone(), iface.clone()),
            &flow,
        );
        let arrives = trace.paths.iter().any(|p| {
            matches!(&p.disposition, Disposition::DeliveredToSubnet { device: d, iface: i } if d == sink_dev && i == sink_if)
        });
        verdict.check(arrives, || {
            format!(
                "dest-reach: witness {flow} from {device}[{iface}] does not arrive at {sink_dev}[{sink_if}]:\n{trace}"
            )
        });
    }
}

/// The timed run of `routes-n11`.
pub fn routes_timed(seed: u64, size: Size) -> TimedRun {
    let n = size.count(spec::ROUTES_ANSWERS, 1);
    let (mut run, last) = timed_answers(
        n,
        inputs::workload_net("routes-n11", size.quick).1,
        |c, env| routes_answer(c, env, seed),
        RoutesAnswer::healthy,
    );
    if let Some(a) = last {
        run.counts = vec![
            ("routing.routes".into(), a.dp.total_routes() as u64),
            ("routing.sweeps".into(), a.dp.convergence.sweeps as u64),
            (
                "routing.lookup_hits".into(),
                a.lookups.iter().filter(|l| l.2).count() as u64,
            ),
        ];
        run.facts = routes_facts(&a);
        routes_concrete(&a, &mut run.verdict);
    }
    run
}

/// Semantic facts of a routes answer for the expected file.
fn routes_facts(a: &RoutesAnswer) -> Facts {
    let mut f = Facts::new();
    f.insert("devices".into(), a.snapshot.devices.len().to_string());
    f.insert("routes".into(), a.dp.total_routes().to_string());
    let per_device = a.dp.devices.iter().map(|d| d.main_rib.route_count() as u64);
    f.insert(
        "routes_per_device_fnv".into(),
        format!("{:016x}", oracle::fold(per_device)),
    );
    f.insert(
        "fib_entries".into(),
        a.dp.devices
            .iter()
            .map(|d| d.fib.len())
            .sum::<usize>()
            .to_string(),
    );
    f.insert(
        "seed1.lookup_hits".into(),
        a.lookups.iter().filter(|l| l.2).count().to_string(),
    );
    f
}

/// Every lookup that forwards must name an interface of the device
/// whose next hop is a topology neighbour (or, for a connected route,
/// whose subnet holds the destination).
fn routes_concrete(a: &RoutesAnswer, verdict: &mut Verdict) {
    let devices = &a.snapshot.devices;
    let topo = Topology::infer(devices);
    let owns = |r: &InterfaceRef, ip: Ip| {
        devices
            .iter()
            .find(|d| d.name == r.device)
            .and_then(|d| d.interfaces.get(&r.interface))
            .is_some_and(|i| i.ip() == Some(ip) || i.secondary_addresses.iter().any(|s| s.0 == ip))
    };
    for &(di, dst, _) in &a.lookups {
        let Some(entry) = a.dp.devices[di].fib.lookup(dst) else {
            continue;
        };
        verdict.check(entry.prefix.contains(dst), || {
            format!("lookup {dst}: entry {} does not cover it", entry.prefix)
        });
        let FibAction::Forward(hops) = &entry.action else {
            continue;
        };
        let device = &devices[di];
        for hop in hops {
            let ok = match (device.interfaces.get(&hop.iface), hop.gateway) {
                (None, _) => false,
                (Some(i), None) => i
                    .connected_prefix()
                    .is_some_and(|p: Prefix| p.contains(dst)),
                (Some(_), Some(gw)) => topo
                    .neighbors_of(&InterfaceRef::new(&device.name, &hop.iface))
                    .iter()
                    .any(|n| owns(n, gw)),
            };
            verdict.check(ok, || {
                format!(
                    "lookup {dst} on {}: hop {}/{:?} is not a topology neighbour",
                    device.name, hop.iface, hop.gateway
                )
            });
        }
    }
}
