//! Experiment plumbing for the harness binary: world construction,
//! timing, and the per-experiment measurement routines that regenerate
//! the paper's tables and figures.
//!
//! Timing flows through [`batnet_obs`] spans: every measured window is a
//! span, so the same numbers that print in the text tables appear in the
//! machine-readable run report (`BENCH_<cmd>.json`, see [`bench_json`]).

use batnet::bdd::Bdd;
use batnet::config::Topology;
use batnet::dataplane::{ForwardingGraph, NodeKind, PacketVars, ReachAnalysis, ShardStats};
use batnet::routing::{simulate, DataPlane, SimOptions};
use batnet_obs::Span;
use batnet_topogen::GeneratedNetwork;
use std::time::Duration;

/// A built world for measurement.
pub struct World {
    /// The generated network.
    pub net: GeneratedNetwork,
    /// Parsed devices.
    pub devices: Vec<batnet::config::vi::Device>,
    /// Topology.
    pub topo: Topology,
    /// Simulated data plane.
    pub dp: DataPlane,
    /// Wall-clock of the parse stage.
    pub parse_time: Duration,
    /// Wall-clock of data plane generation (topology inference included,
    /// so the per-stage times partition the pipeline wall clock).
    pub dpgen_time: Duration,
}

/// Opens a memory window and, on close, publishes the stage's peak and
/// retained-delta bytes as `mem.<stage>.peak_bytes` /
/// `mem.<stage>.delta_bytes` gauges. Windows reset the global
/// high-water mark, so stages must be sequential (see
/// `batnet_obs::mem`) — which the harness pipeline is.
fn mem_stage<R>(stage: &str, f: impl FnOnce() -> R) -> R {
    let w = batnet_obs::MemWindow::open();
    let r = f();
    let m = w.close();
    batnet_obs::gauge_set(&format!("mem.{stage}.peak_bytes"), m.peak_bytes as f64);
    batnet_obs::gauge_set(&format!("mem.{stage}.delta_bytes"), m.delta_bytes as f64);
    r
}

/// Publishes the BDD manager's per-stage accounting window: node count
/// (a level) and apply-cache hits/misses since the last call (flows,
/// reset via `take_stats`).
fn bdd_stage_stats(stage: &str, bdd: &mut Bdd) {
    let stats = bdd.take_stats();
    batnet_obs::gauge_set(&format!("bdd.{stage}.nodes"), stats.nodes as f64);
    batnet_obs::gauge_set(&format!("bdd.{stage}.cache_hits"), stats.cache_hits as f64);
    batnet_obs::gauge_set(&format!("bdd.{stage}.cache_misses"), stats.cache_misses as f64);
    batnet_obs::gauge_set("bdd.cache.entries", bdd.cache_entries() as f64);
}

/// The sharded-stage analogue of [`bdd_stage_stats`]: per-shard forks
/// summed by the analysis (the shard partition is fixed, so these
/// gauges are identical at every thread count).
fn bdd_shard_gauges(stage: &str, stats: &ShardStats) {
    batnet_obs::gauge_set(&format!("bdd.{stage}.nodes"), stats.nodes as f64);
    batnet_obs::gauge_set(&format!("bdd.{stage}.cache_hits"), stats.cache_hits as f64);
    batnet_obs::gauge_set(&format!("bdd.{stage}.cache_misses"), stats.cache_misses as f64);
}

/// Parses and simulates a generated network, timing both stages.
pub fn build_world(net: GeneratedNetwork) -> World {
    let (devices, parse_time) = mem_stage("parse", || {
        let span = Span::enter("parse");
        let devices = net.parse();
        (devices, span.close())
    });
    let ((topo, dp), dpgen_time) = mem_stage("dpgen", || {
        let span = Span::enter("dpgen");
        let topo = Topology::infer(&devices);
        let dp = simulate(&devices, &net.env, &SimOptions::default());
        ((topo, dp), span.close())
    });
    World {
        net,
        devices,
        topo,
        dp,
        parse_time,
        dpgen_time,
    }
}

/// Builds the BDD forwarding graph, timed.
pub fn build_graph(world: &World, waypoints: u32) -> (Bdd, PacketVars, ForwardingGraph, Duration) {
    let (mut bdd, vars) = PacketVars::new(waypoints);
    let (graph, dt) = mem_stage("graph", || {
        let span = Span::enter("graph");
        let graph = ForwardingGraph::build(&mut bdd, &vars, &world.devices, &world.dp, &world.topo);
        (graph, span.close())
    });
    bdd_stage_stats("graph", &mut bdd);
    (bdd, vars, graph, dt)
}

/// Destination-reachability measurement: backward propagation from
/// `count` sampled delivery sinks (Table 2's "Dest reach" column).
/// Returns total time and the number of queries run.
pub fn dest_reachability(
    bdd: &mut Bdd,
    vars: &PacketVars,
    graph: &ForwardingGraph,
    count: usize,
) -> (Duration, usize) {
    let sinks = graph.nodes_where(|k| matches!(k, NodeKind::DeliveredToSubnet(_, _)));
    let step = (sinks.len() / count.max(1)).max(1);
    let chosen: Vec<usize> = sinks.iter().copied().step_by(step).take(count).collect();
    let analysis = ReachAnalysis::new(graph);
    let mut shard_stats = ShardStats::default();
    let dt = mem_stage("dest-reach", || {
        let span = Span::enter("dest-reach");
        // Sharded over the exec pool: one forked manager per shard, the
        // shared manager stays untouched. Summaries are the combine.
        let (summaries, stats) = analysis.backward_sharded(bdd, vars, &chosen);
        std::hint::black_box(&summaries);
        shard_stats = stats;
        span.close()
    });
    bdd_shard_gauges("dest-reach", &shard_stats);
    (dt, chosen.len())
}

/// Up to `max_starts` interface sources spread evenly over the graph's
/// `IfaceSrc` nodes, in node order.
pub fn spread_starts(graph: &ForwardingGraph, max_starts: usize) -> Vec<usize> {
    let sources = graph.nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _)));
    let step = (sources.len() / max_starts.max(1)).max(1);
    sources.into_iter().step_by(step).take(max_starts).collect()
}

/// Multipath-consistency measurement from the interface sources `starts`
/// (the §6.1 verification benchmark query). Returns the time and how many
/// starts are inconsistent.
pub fn multipath_consistency(
    bdd: &mut Bdd,
    graph: &ForwardingGraph,
    starts: &[usize],
) -> (Duration, usize) {
    let analysis = ReachAnalysis::new(graph);
    let mut violations = 0usize;
    let mut shard_stats = ShardStats::default();
    let dt = mem_stage("multipath", || {
        let span = Span::enter("multipath");
        let (verdicts, stats) = analysis.multipath_sharded(bdd, starts);
        violations = verdicts.iter().filter(|(_, bad)| *bad).count();
        shard_stats = stats;
        span.close()
    });
    bdd_shard_gauges("multipath", &shard_stats);
    (dt, violations)
}

/// Pretty-prints a duration for tables.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 10 {
        format!("{:.1}s", d.as_secs_f64())
    } else if d.as_millis() >= 10 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    }
}

/// Speedup formatting.
pub fn fmt_speedup(slow: Duration, fast: Duration) -> String {
    if fast.as_nanos() == 0 {
        return "∞".into();
    }
    format!("{:.0}x", slow.as_secs_f64() / fast.as_secs_f64())
}

/// One measurement row of the machine-readable bench output. The schema
/// is stable: `{bench, network, stage, ms, meta}` — CI and external
/// dashboards key on these five fields.
#[derive(Clone, Debug)]
pub struct Row {
    /// The experiment this row belongs to (`table2`, `fig3`, `lint`, ...).
    pub bench: String,
    /// Network id (`NET1`, `N2`, ...).
    pub network: String,
    /// Pipeline stage (`parse`, `dpgen`, `graph`, `dest-reach`,
    /// `multipath`, or `total` for the per-network root span).
    pub stage: String,
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Free-form string annotations (node counts, query counts, ...).
    pub meta: Vec<(String, String)>,
}

impl Row {
    /// A row from a timed duration.
    pub fn new(bench: &str, network: &str, stage: &str, d: Duration) -> Row {
        Row {
            bench: bench.to_string(),
            network: network.to_string(),
            stage: stage.to_string(),
            ms: d.as_secs_f64() * 1e3,
            meta: Vec::new(),
        }
    }

    /// Attaches one meta annotation (builder style).
    pub fn with(mut self, key: &str, value: impl ToString) -> Row {
        self.meta.push((key.to_string(), value.to_string()));
        self
    }
}

/// Serializes a bench document: schema version, provenance meta, the
/// measurement rows, and the embedded run report captured from the
/// observability registry. The in-tree validator
/// (`batnet_obs::report::validate_bench`) accepts exactly this shape.
pub fn bench_json(
    bench: &str,
    meta: &[(String, String)],
    rows: &[Row],
    report: &batnet_obs::RunReport,
) -> String {
    batnet_obs::json::Writer::spaced()
        .obj(|w| {
            w.field("schema", batnet_obs::report::SCHEMA_VERSION)
                .field("bench", bench)
                .strs("meta", meta.iter().map(|(k, v)| (k, v)))
                .array("rows", |w| {
                    for row in rows {
                        w.obj(|w| {
                            w.field("bench", &row.bench)
                                .field("network", &row.network)
                                .field("stage", &row.stage)
                                .field("ms", row.ms)
                                .strs("meta", row.meta.iter().map(|(k, v)| (k, v)));
                        });
                    }
                })
                .raw("report", &report.to_json());
        })
        .finish()
}

/// The rustc that built this binary (`rustc --version` of the ambient
/// toolchain — the workspace pins one toolchain, so the runtime query
/// matches the compiler), or `"unknown"`. Stamped into bench
/// provenance.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build profile of this binary, stamped into bench provenance
/// (debug numbers are not the paper's figures).
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The current git commit (short hash), or `"unknown"` outside a
/// checkout — every emitted report and text table is stamped with it.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The workspace root (where `BENCH_<cmd>.json` baselines live),
/// resolved from this crate's manifest directory.
pub fn repo_root() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().unwrap_or(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_validates() {
        let rows = vec![
            Row::new("table2", "N2", "parse", Duration::from_millis(2)).with("nodes", 75),
            Row::new("table2", "N2", "total", Duration::from_millis(120)),
        ];
        let meta = vec![("commit".to_string(), "abc123".to_string())];
        let report = batnet_obs::capture();
        let text = bench_json("table2", &meta, &rows, &report);
        let v = batnet_obs::json::parse(&text).expect("bench JSON parses");
        batnet_obs::report::validate_bench(&v).expect("bench JSON validates");
    }
}
