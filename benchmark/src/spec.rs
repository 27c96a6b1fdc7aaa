//! What the benchmark reports: workload names, work sizes, and the two
//! metric lists. `BENCHMARK.json` at the repo root carries the same
//! lists; `benchmark run --quick` checks the two against each other.

use batnet::obs::json::{self, Value};
use std::collections::BTreeMap;

/// The four workloads, in the order `run --all` runs them.
pub const WORKLOADS: [&str; 4] = ["verify-n7", "routes-n11", "query-warm-net1", "serve-mix-n2"];

/// `--seconds` at which the nominal counts below apply (the value
/// `BENCHMARK.json` records as `run_seconds`).
pub const NOMINAL_SECONDS: f64 = 15.0;

/// Work is fixed, not time-boxed: `--seconds` scales the number of
/// answers, so counts (BDD nodes, relaxations, request totals) repeat
/// exactly between two runs with the same arguments.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `--seconds / NOMINAL_SECONDS`.
    pub scale: f64,
    /// Smoke mode: small networks, tiny counts, no expected-file check.
    pub quick: bool,
}

impl Size {
    /// Size for a `--seconds` value.
    pub fn new(seconds: f64, quick: bool) -> Size {
        Size {
            scale: seconds / NOMINAL_SECONDS,
            quick,
        }
    }

    /// `nominal` answers at the nominal run length, scaled, at least `min`.
    pub fn count(&self, nominal: usize, min: usize) -> usize {
        ((nominal as f64 * self.scale).round() as usize).max(min)
    }
}

/// Timed answers per workload at the nominal run length (each sized to
/// about `NOMINAL_SECONDS` of work on the 2-core reference box).
pub const VERIFY_ANSWERS: usize = 4;
pub const ROUTES_ANSWERS: usize = 8;
pub const QUERY_QUESTIONS: usize = 150;
pub const SERVE_REQUESTS_PER_CLIENT: usize = 500;

/// One reported number.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    /// Samples behind a median or percentile; `None` for plain readings.
    pub n: Option<usize>,
}

/// Metric name → reading.
pub type Metrics = BTreeMap<String, Sample>;

/// Records a plain reading.
pub fn put(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), Sample { value, n: None });
}

/// Records a median/percentile with its sample count.
pub fn put_n(m: &mut Metrics, name: &str, value: f64, n: usize) {
    m.insert(name.to_string(), Sample { value, n: Some(n) });
}

/// What one timed run measured, whichever workload it was.
pub struct TimedRun {
    pub metrics: Metrics,
    /// Counts that must repeat exactly between two runs with the same
    /// arguments (`selfcheck` compares them).
    pub counts: Vec<(String, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub verdict: crate::oracle::Verdict,
    pub facts: crate::oracle::Facts,
}

/// An end-to-end metric: `(name, unit, higher_is_better, bound)`.
pub type EndToEnd = (&'static str, &'static str, bool, f64);

/// The end-to-end metrics every workload reports from its timed run.
pub const END_TO_END: &[EndToEnd] = &[
    ("setup_s", "s", false, 0.25),
    ("answer_p50_ms", "ms", false, 0.25),
    ("answers_per_s", "1/s", true, 0.25),
    ("peak_rss_mb", "MB", false, 0.1),
];

/// A per-layer metric: `(name, unit, higher_is_better)`. The prefix
/// before the first dot is the layer (a crate name, `host` or `trace`).
pub type PerLayer = (&'static str, &'static str, bool);

/// The per-layer metrics every workload reports from its traced run.
pub const PER_LAYER: &[PerLayer] = &[
    ("topogen.generate_ms", "ms", false),
    ("topogen.config_lines", "count", false),
    ("config.parse_ms", "ms", false),
    ("config.lines_per_s", "1/s", true),
    ("config.topology_ms", "ms", false),
    ("routing.simulate_ms", "ms", false),
    ("routing.routes_per_s", "1/s", true),
    ("routing.fib_build_ms", "ms", false),
    ("routing.routes", "count", false),
    ("routing.sweeps", "count", false),
    ("dataplane.acl_compile_ms", "ms", false),
    ("dataplane.fib_encode_ms", "ms", false),
    ("dataplane.graph_build_ms", "ms", false),
    ("dataplane.compress_ms", "ms", false),
    ("dataplane.multipath_ms", "ms", false),
    ("dataplane.dest_reach_ms", "ms", false),
    ("dataplane.acl_lines", "count", false),
    ("dataplane.fib_entries", "count", false),
    ("dataplane.graph_nodes", "count", false),
    ("dataplane.graph_edges", "count", false),
    ("dataplane.relaxations", "count", false),
    ("bdd.nodes", "count", false),
    ("bdd.cache_entries", "count", false),
    ("bdd.cache_hit_rate", "ratio", true),
    ("bdd.apply_calls", "count", false),
    ("bdd.ns_per_apply", "ns", false),
    ("bdd.fork_ms", "ms", false),
    ("bdd.shard_nodes", "count", false),
    ("queries.service_reachable_p50_ms", "ms", false),
    ("queries.service_reachable_max_ms", "ms", false),
    ("queries.starts_checked", "count", false),
    ("queries.violations", "count", false),
    ("traceroute.trace_p50_us", "us", false),
    ("traceroute.traces", "count", false),
    ("core.from_configs_ms", "ms", false),
    ("core.analyze_ms", "ms", false),
    ("serve.healthz_p50_ms", "ms", false),
    ("serve.reach_p50_ms", "ms", false),
    ("serve.reach_p90_ms", "ms", false),
    ("serve.reach_max_ms", "ms", false),
    ("serve.trace_p50_ms", "ms", false),
    ("serve.lint_p50_ms", "ms", false),
    ("serve.report_p50_ms", "ms", false),
    ("serve.write_p50_ms", "ms", false),
    ("serve.diff_p50_ms", "ms", false),
    ("serve.upload_body_kb", "KB", false),
    ("serve.rejected", "count", false),
    ("serve.partial_206", "count", false),
    ("exec.threads", "count", false),
    ("exec.steals", "count", false),
    ("exec.map_floor_us", "us", false),
    ("obs.spans_per_answer", "count", false),
    ("obs.capture_ms", "ms", false),
    ("diff.changes", "count", false),
    ("lint.findings", "count", false),
    ("host.calib_ms", "ms", false),
    ("host.nproc", "count", false),
    ("trace.stage_sum_share", "ratio", false),
    ("trace.overhead_share", "ratio", false),
];

/// The path of a file under the benchmark's own directory.
pub fn bench_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Checks that `BENCHMARK.json` names exactly the workloads and metrics
/// this program reports, with the same units and directions.
pub fn validate_benchmark_json() -> Result<(), String> {
    let path = bench_path("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = |key: &str| -> Result<&[Value], String> {
        doc.get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
    };
    let field = |v: &Value, key: &str| -> String {
        v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
    };
    let direction = |higher: bool| if higher { "higher" } else { "lower" };

    let names: Vec<String> = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    if names != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} != {WORKLOADS:?}"
        ));
    }
    let listed = |key: &str| -> Result<Vec<(String, String, String)>, String> {
        Ok(list(key)?
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect())
    };
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u, h, _)| (n.to_string(), u.to_string(), direction(h).to_string()))
        .collect();
    if listed("end_to_end")? != e2e {
        return Err("BENCHMARK.json end_to_end differs from spec::END_TO_END".to_string());
    }
    for (m, &(name, _, _, bound)) in list("end_to_end")?.iter().zip(END_TO_END) {
        if m.get("bound").and_then(Value::as_f64) != Some(bound) {
            return Err(format!(
                "BENCHMARK.json bound of {name} differs from spec::END_TO_END"
            ));
        }
    }
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|&(n, u, h)| (n.to_string(), u.to_string(), direction(h).to_string()))
        .collect();
    if listed("per_layer")? != layers {
        return Err("BENCHMARK.json per_layer differs from spec::PER_LAYER".to_string());
    }
    if doc.get("run_seconds").and_then(Value::as_f64) != Some(NOMINAL_SECONDS) {
        return Err("BENCHMARK.json run_seconds differs from spec::NOMINAL_SECONDS".to_string());
    }
    Ok(())
}
