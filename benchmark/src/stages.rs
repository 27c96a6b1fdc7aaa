//! The staged pipeline of the traced runs: the same work as a workload's
//! answer, driven stage by stage through each crate's public functions
//! with one of the benchmark's spans around every call, plus a few
//! re-runs in fresh state (ACL compile and FIB encode in their own BDD
//! manager, `Fib::build` per device, graph compression) that give
//! layers a number of their own. Spans inside the program are a later
//! change; these are timed from outside.

use crate::batch::verify_targets;
use crate::inputs;
use crate::online::ask_all;
use crate::record::Recorder;
use crate::spec::{put, put_n, Metrics};
use crate::stats::{max, median};
use batnet::config::{parse_device, Topology};
use batnet::dataplane::acl::compile_acl;
use batnet::dataplane::compress::compress;
use batnet::dataplane::fibenc::compile_fib;
use batnet::dataplane::{ForwardingGraph, PacketVars, ReachAnalysis};
use batnet::net::rng::Rng;
use batnet::routing::{simulate, Fib, SimOptions};
use batnet::traceroute::StartLocation;
use batnet::{Analysis, Snapshot};
use batnet_topogen::GeneratedNetwork;

/// How far a staged pass goes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Parse and routing only (`routes-n11` never builds a BDD).
    Routes,
    /// The whole pipeline, then `questions` service questions.
    Full { questions: usize },
}

const TRACES: usize = 64;

/// One staged pass over the network `generate` builds. Records spans in
/// `rec` and returns the per-layer numbers it could measure.
pub fn staged(
    rec: &mut Recorder,
    net_id: &'static str,
    generate: fn() -> GeneratedNetwork,
    depth: Depth,
    seed: u64,
) -> Metrics {
    rec.net = net_id;
    let mut m = Metrics::new();
    let facade_ms = facade_reference(&mut m, generate, depth);

    let answer = rec.enter("answer", 0);
    let (net, ms) = rec.span("topogen.generate", 0, |_| generate());
    put(&mut m, "topogen.generate_ms", ms);
    let lines = net.config_lines();
    put(&mut m, "topogen.config_lines", lines as f64);

    let (devices, parse_ms) = rec.span("config.parse", 0, |rec| {
        net.configs
            .iter()
            .map(|(name, text)| {
                rec.span("config.parse_device", 0, |_| parse_device(name, text).0)
                    .0
            })
            .collect::<Vec<_>>()
    });
    put(&mut m, "config.parse_ms", parse_ms);
    put(
        &mut m,
        "config.lines_per_s",
        lines as f64 / (parse_ms / 1e3),
    );

    let (dp, simulate_ms) = rec.span("routing.simulate", 0, |_| {
        simulate(&devices, &net.env, &SimOptions::default())
    });
    put(&mut m, "routing.simulate_ms", simulate_ms);
    put(&mut m, "routing.routes", dp.total_routes() as f64);
    put(
        &mut m,
        "routing.routes_per_s",
        dp.total_routes() as f64 / (simulate_ms / 1e3),
    );
    put(&mut m, "routing.sweeps", dp.convergence.sweeps as f64);

    let Depth::Full { questions } = depth else {
        rec.exit(answer);
        put(
            &mut m,
            "trace.stage_sum_share",
            (parse_ms + simulate_ms) / facade_ms,
        );
        fib_rebuild(rec, &mut m, &dp);
        return m;
    };

    let (topo, topology_ms) = rec.span("config.topology", 0, |_| Topology::infer(&devices));
    put(&mut m, "config.topology_ms", topology_ms);
    let (mut bdd, vars) = PacketVars::new(1);
    let (graph, graph_ms) = rec.span("dataplane.graph_build", 0, |_| {
        ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo)
    });
    put(&mut m, "dataplane.graph_build_ms", graph_ms);
    let (nodes, edges) = graph.size();
    put(&mut m, "dataplane.graph_nodes", nodes as f64);
    put(&mut m, "dataplane.graph_edges", edges as f64);
    put(
        &mut m,
        "trace.stage_sum_share",
        (parse_ms + topology_ms + simulate_ms + graph_ms) / facade_ms,
    );

    // The verify questions run on shard forks: the manager is untouched.
    let (starts, sinks) = verify_targets(&graph, seed);
    let reach = ReachAnalysis::new(&graph);
    let ((_, multipath), multipath_ms) = rec.span("dataplane.multipath", 1, |_| {
        reach.multipath_sharded(&bdd, &starts)
    });
    let ((summaries, dest), dest_ms) = rec.span("dataplane.dest_reach", 2, |_| {
        reach.backward_sharded(&bdd, &vars, &sinks)
    });
    put(&mut m, "dataplane.multipath_ms", multipath_ms);
    put(&mut m, "dataplane.dest_reach_ms", dest_ms);
    put(
        &mut m,
        "dataplane.relaxations",
        summaries.iter().map(|s| s.relaxations).sum::<u64>() as f64,
    );
    put(
        &mut m,
        "bdd.shard_nodes",
        (multipath.nodes + dest.nodes) as f64,
    );

    // Service questions on the one manager, as `query-warm-net1` asks them.
    let mut analysis = Analysis {
        devices,
        topo,
        dp,
        bdd,
        vars,
        graph,
        quarantined: Vec::new(),
        report: batnet::obs::RunReport::default(),
    };
    let asked = inputs::questions(
        &inputs::connected_prefixes(&analysis.devices),
        seed,
        questions,
    );
    let ((asked, _), questions_ms) = rec.span("queries", 0, |rec| {
        ask_all(&mut analysis, &asked, Some(rec))
    });
    rec.exit(answer);
    let times: Vec<f64> = asked.iter().map(|a| a.ms).collect();
    put_n(
        &mut m,
        "queries.service_reachable_p50_ms",
        median(&times),
        times.len(),
    );
    put_n(
        &mut m,
        "queries.service_reachable_max_ms",
        max(&times),
        times.len(),
    );
    put(
        &mut m,
        "queries.starts_checked",
        asked.iter().map(|a| a.starts_checked).sum::<usize>() as f64,
    );
    put(
        &mut m,
        "queries.violations",
        asked.iter().map(|a| a.violations.len()).sum::<usize>() as f64,
    );

    let stats = analysis.bdd.stats();
    let calls = stats.cache_hits + stats.cache_misses;
    put(&mut m, "bdd.nodes", stats.nodes as f64);
    put(
        &mut m,
        "bdd.cache_entries",
        analysis.bdd.cache_entries() as f64,
    );
    put(&mut m, "bdd.cache_hit_rate", analysis.bdd.cache_hit_rate());
    put(&mut m, "bdd.apply_calls", calls as f64);
    put(
        &mut m,
        "bdd.ns_per_apply",
        (graph_ms + questions_ms) * 1e6 / calls as f64,
    );

    // Re-runs that isolate a layer; not part of the answer.
    let (fork, fork_ms) = rec.span("bdd.fork", 0, |_| analysis.bdd.fork());
    put(&mut m, "bdd.fork_ms", fork_ms);
    drop(fork);
    let traces = trace_flows(rec, &analysis, seed);
    put_n(
        &mut m,
        "traceroute.trace_p50_us",
        median(&traces),
        traces.len(),
    );
    put(&mut m, "traceroute.traces", traces.len() as f64);
    fib_rebuild(rec, &mut m, &analysis.dp);

    let (mut fresh, vars) = PacketVars::new(1);
    let (acl_lines, acl_ms) = rec.span("dataplane.acl_compile", 0, |_| {
        let mut lines = 0;
        for acl in analysis.devices.iter().flat_map(|d| d.acls.values()) {
            lines += acl.lines.len();
            std::hint::black_box(compile_acl(&mut fresh, &vars, acl));
        }
        lines
    });
    put(&mut m, "dataplane.acl_compile_ms", acl_ms);
    put(&mut m, "dataplane.acl_lines", acl_lines as f64);
    let (mut fresh, vars) = PacketVars::new(1);
    let (entries, encode_ms) = rec.span("dataplane.fib_encode", 0, |_| {
        let mut entries = 0;
        for d in &analysis.dp.devices {
            entries += d.fib.len();
            std::hint::black_box(compile_fib(&mut fresh, &vars, &d.fib));
        }
        entries
    });
    put(&mut m, "dataplane.fib_encode_ms", encode_ms);
    put(&mut m, "dataplane.fib_entries", entries as f64);
    drop(fresh);
    // Last: compression adds nodes to the answer's manager.
    let (_, compress_ms) = rec.span("dataplane.compress", 0, |_| {
        std::hint::black_box(compress(&mut analysis.bdd, &analysis.graph)).1
    });
    put(&mut m, "dataplane.compress_ms", compress_ms);
    m
}

/// The reference: the same answer through the facade, spans off. Run
/// twice — the first call pays for a cold allocator — and keep the
/// second, reading the program's own recorder after it. Returns the
/// facade's time for the part the stages above re-do.
fn facade_reference(m: &mut Metrics, generate: fn() -> GeneratedNetwork, depth: Depth) -> f64 {
    let net = generate();
    let mut facade = (0.0, 0.0);
    for _ in 0..2 {
        batnet::obs::reset();
        let t = batnet::obs::now();
        let snapshot = Snapshot::from_configs(net.configs.clone()).with_env(net.env.clone());
        let from_configs_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = batnet::obs::now();
        match depth {
            Depth::Routes => drop(simulate(
                &snapshot.devices,
                &snapshot.env,
                &SimOptions::default(),
            )),
            Depth::Full { .. } => drop(snapshot.analyze()),
        }
        facade = (from_configs_ms, t.elapsed().as_secs_f64() * 1e3);
    }
    put(m, "core.from_configs_ms", facade.0);
    if depth != Depth::Routes {
        put(m, "core.analyze_ms", facade.1);
    }
    let t = batnet::obs::now();
    let report = batnet::obs::capture();
    put(m, "obs.capture_ms", t.elapsed().as_secs_f64() * 1e3);
    put(m, "obs.spans_per_answer", report.spans.len() as f64);
    batnet::obs::reset();
    facade.0 + facade.1
}

/// `Fib::build` re-run for every device: the FIB layer on its own.
fn fib_rebuild(rec: &mut Recorder, m: &mut Metrics, dp: &batnet::routing::DataPlane) {
    let (_, fib_ms) = rec.span("routing.fib_build", 0, |_| {
        for d in &dp.devices {
            std::hint::black_box(Fib::build(&d.main_rib));
        }
    });
    put(m, "routing.fib_build_ms", fib_ms);
}

/// Concrete traces of seeded client flows: the `traceroute` layer.
/// Returns microseconds per trace.
fn trace_flows(rec: &mut Recorder, analysis: &Analysis, seed: u64) -> Vec<f64> {
    let clients = inputs::client_ifaces(&analysis.devices, &analysis.topo);
    let universe = inputs::connected_prefixes(&analysis.devices);
    if clients.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng::new(seed ^ 0x7ace);
    let tracer = analysis.tracer();
    (0..TRACES)
        .map(|i| {
            let from = rng.pick(&clients);
            let (to, port) = (*rng.pick(&universe), *rng.pick(&inputs::PORTS));
            let flow = inputs::client_flow(&mut rng, from, to, port);
            let start = StartLocation::ingress(from.device.clone(), from.interface.clone());
            let (_, ms) = rec.span("traceroute.trace", i as u32 + 1, |_| {
                std::hint::black_box(tracer.trace(&start, &flow))
            });
            ms * 1e3
        })
        .collect()
}

/// `Pool::map` over 1,024 no-op items: the floor under every parallel
/// stage. Median of 21 calls, in microseconds.
pub fn map_floor_us() -> f64 {
    let pool = batnet_exec::current();
    let items = vec![0u32; 1024];
    let samples: Vec<f64> = (0..21)
        .map(|_| {
            let t = batnet::obs::now();
            std::hint::black_box(pool.map(&items, |x| *x));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}
