//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) plus the DESIGN.md ablations.
//!
//! ```text
//! usage: harness [OPTIONS] [EXPERIMENT]
//!
//! Run one EXPERIMENT (default: all):
//!   fig1                Figure 1: convergence gadgets
//!   fig3                Figure 3: current vs original engines (NET1)
//!   table1              Table 1: the 11-network suite
//!   table2              Table 2: pipeline performance
//!   smoke               smallest network, always writes target/BENCH_smoke.json
//!   lint                lint engine throughput, writes BENCH_lint.json
//!   diff                differential analysis on N2, writes BENCH_diff.json
//!   cov                 coverage engine throughput, writes BENCH_cov.json
//!   serve               service load on loopback, writes BENCH_serve.json
//!   apt                 section 6.2: APT comparison (92 nodes)
//!   ablate-convergence  A-1: coloring / logical clocks
//!   ablate-memory       A-2: attribute interning
//!   ablate-varorder     A-3: BDD variable order
//!   ablate-dataflow     A-4: graph compression & backward walk
//!   ablate-transform    A-5: fused vs 3-step NAT transform
//!   all                 every figure, table and ablation above
//!   bench-all           every BENCH_*.json + results/TRAJECTORY.jsonl
//! Exit 0 done, 2 usage error or unknown experiment.
//!
//! options:
//!   --full       all eleven suite networks instead of the smallest four
//!   --json       also write BENCH_<experiment>.json at the repo root (fig3, table2)
//!   --repeat N   run a row-producing bench N times; rows carry the median plus mad_ms/repeat meta
//!   --net ID     restrict table2 / lint / cov to one suite network
//!   --out FILE   write the bench JSON to FILE instead of the committed baseline
//!   --threads N  size of the shared execution pool (0 or omitted = all cores)
//!   --profile    sample at 997 Hz and write a .profile.json (batnet-prof/v1) next to each bench JSON
//!   --help       print this help and exit
//! ```
//!
//! `bench-all` regenerates every bench JSON in one command (one obs
//! reset + capture per bench, so each embedded report is that bench's
//! own) and appends one commit-stamped summary row per bench to
//! `results/TRAJECTORY.jsonl` — the recorded perf trajectory across
//! PRs, schema-validated on every append.
//!
//! `table2` runs the four smallest networks by default; `--full` runs
//! all eleven (minutes of wall clock on the biggest).
//!
//! Bench files carry the stable `{bench, network, stage, ms, meta}` row
//! schema and the full run report (span tree, metrics, events)
//! embedded. Rows carry per-stage peak/delta heap meta (`peak_kb` /
//! `delta_kb`, from the counting allocator) and the file meta stamps
//! commit, command line, thread width, rustc version, and build profile
//! — `obs-diff` refuses cross-profile comparisons. Every text report
//! ends with a provenance stamp: git commit, command line, and total
//! wall time from the root span.

use batnet::baselines::{AptEngine, CubeNetwork};
use batnet::bdd::NodeId;
use batnet::datalog::{datalog_routes, RoutingInputs};
use batnet::dataplane::compress::compress;
use batnet::dataplane::{NodeKind, ReachAnalysis};
use batnet::routing::{simulate, SchedulerMode, SimOptions};
use batnet_bench::*;
use batnet_obs::clock;
use batnet_obs::flags::{self, Cli, Flag};
use std::time::Duration;

static CLI: Cli = Cli {
    bin: "harness",
    about: "Run one EXPERIMENT (default: all):\n\
            \x20 fig1                Figure 1: convergence gadgets\n\
            \x20 fig3                Figure 3: current vs original engines (NET1)\n\
            \x20 table1              Table 1: the 11-network suite\n\
            \x20 table2              Table 2: pipeline performance\n\
            \x20 smoke               smallest network, always writes target/BENCH_smoke.json\n\
            \x20 lint                lint engine throughput, writes BENCH_lint.json\n\
            \x20 diff                differential analysis on N2, writes BENCH_diff.json\n\
            \x20 cov                 coverage engine throughput, writes BENCH_cov.json\n\
            \x20 serve               service load on loopback, writes BENCH_serve.json\n\
            \x20 apt                 section 6.2: APT comparison (92 nodes)\n\
            \x20 ablate-convergence  A-1: coloring / logical clocks\n\
            \x20 ablate-memory       A-2: attribute interning\n\
            \x20 ablate-varorder     A-3: BDD variable order\n\
            \x20 ablate-dataflow     A-4: graph compression & backward walk\n\
            \x20 ablate-transform    A-5: fused vs 3-step NAT transform\n\
            \x20 all                 every figure, table and ablation above\n\
            \x20 bench-all           every BENCH_*.json + results/TRAJECTORY.jsonl\n\
            Exit 0 done, 2 usage error or unknown experiment.",
    positional: "[EXPERIMENT]",
    flags: &[
        Flag::switch("--full", "all eleven suite networks instead of the smallest four"),
        Flag::switch("--json", "also write BENCH_<experiment>.json at the repo root (fig3, table2)"),
        Flag::positive(
            "--repeat",
            "run a row-producing bench N times; rows carry the median plus mad_ms/repeat meta",
        ),
        Flag::text("--net", "ID", "restrict table2 / lint / cov to one suite network"),
        Flag::text("--out", "FILE", "write the bench JSON to FILE instead of the committed baseline"),
        flags::THREADS,
        Flag::switch(
            "--profile",
            "sample at 997 Hz and write a .profile.json (batnet-prof/v1) next to each bench JSON",
        ),
    ],
};

fn main() {
    let args = CLI.parse_env();
    let cmd = match args.args.as_slice() {
        [] => "all",
        [cmd] => cmd.as_str(),
        _ => CLI.fail("expected at most one EXPERIMENT"),
    };
    let full = args.has("--full");
    let profile = args.has("--profile");
    if !batnet_exec::configure_threads(args.num("--threads").unwrap_or(0)) {
        CLI.fail("--threads: the execution pool is already sized differently");
    }
    if cmd == "bench-all" {
        bench_all(full, profile);
        return;
    }
    batnet_obs::reset();
    let profiler = start_profiler(profile);
    let root = batnet_obs::Span::enter("harness");
    // Repeats only make sense for the row-producing benches; everything
    // else (ablations, text-only tables) runs once.
    let repeat = if matches!(cmd, "fig3" | "table2" | "smoke" | "lint" | "diff" | "serve" | "cov") {
        args.num("--repeat").unwrap_or(1)
    } else {
        1
    };
    let mut runs: Vec<Vec<Row>> = Vec::new();
    for i in 0..repeat {
        if repeat > 1 {
            println!("\n### repeat {}/{repeat} ###", i + 1);
        }
        let mut rows: Vec<Row> = Vec::new();
        run_cmd(cmd, full, args.text("--net"), &mut rows);
        runs.push(rows);
    }
    let rows = if repeat > 1 {
        aggregate_repeats(&runs)
    } else {
        runs.pop().unwrap_or_default()
    };
    let wall = root.close();
    let profile_doc = finish_profiler(profiler, wall);
    let commit = git_commit();
    let cmdline = &args.cmdline;
    println!(
        "\n--- provenance: commit {commit} | cmd \"{}\" | wall {:.2}s ---",
        cmdline.trim_end(),
        wall.as_secs_f64()
    );
    if args.has("--json") || matches!(cmd, "smoke" | "lint" | "diff" | "serve" | "cov") {
        emit_json(
            cmd,
            &rows,
            &commit,
            cmdline,
            repeat,
            args.text("--out"),
            profile_doc.as_deref(),
        );
    }
}

/// The continuous profiler's bench cadence: an odd prime, so sampling
/// does not alias with any periodic work in the measured pipeline.
const PROFILE_HZ: u64 = 997;

fn start_profiler(profile: bool) -> Option<batnet_obs::SamplerThread> {
    profile.then(|| batnet_obs::SamplerThread::spawn(PROFILE_HZ))
}

/// Stops the profiler, reports its strictly-accounted cost against the
/// bench wall time, and returns the window's `batnet-prof/v1` document.
fn finish_profiler(
    profiler: Option<batnet_obs::SamplerThread>,
    wall: Duration,
) -> Option<String> {
    let sampler = profiler?.stop();
    let text = sampler.take_profile();
    let stats = sampler.stats();
    let pct = 100.0 * stats.overhead_us as f64 / (wall.as_micros().max(1) as f64);
    println!(
        "profiler: {} samples ({} dropped) over {} ticks @ {PROFILE_HZ}Hz, \
         overhead {}us = {pct:.3}% of wall",
        stats.samples, stats.dropped, stats.ticks, stats.overhead_us
    );
    Some(text)
}

/// The benches `bench-all` regenerates, in dependency-free order. All
/// but `smoke` write committed repo-root baselines; `smoke` lands in
/// `target/` like always.
const ALL_BENCHES: [&str; 7] = ["table2", "fig3", "lint", "diff", "serve", "cov", "smoke"];

/// `harness bench-all`: every bench JSON in one command, each under its
/// own obs reset/capture, plus one commit-stamped trajectory row per
/// bench appended to `results/TRAJECTORY.jsonl`.
fn bench_all(full: bool, profile: bool) {
    let commit = git_commit();
    let mut summary = Vec::new();
    for bench in ALL_BENCHES {
        batnet_obs::reset();
        let profiler = start_profiler(profile);
        let root = batnet_obs::Span::enter("harness");
        let mut rows: Vec<Row> = Vec::new();
        run_cmd(bench, full, None, &mut rows);
        let wall = root.close();
        let profile_doc = finish_profiler(profiler, wall);
        emit_json(
            bench,
            &rows,
            &commit,
            &format!("harness bench-all ({bench})"),
            1,
            None,
            profile_doc.as_deref(),
        );
        summary.push((bench, rows.len(), wall));
    }
    let path = repo_root().join("results").join("TRAJECTORY.jsonl");
    if let Err(e) = append_trajectory(&path, &commit, &summary) {
        eprintln!("bench-all: trajectory append failed: {e}");
        std::process::exit(1);
    }
    println!(
        "\nbench-all: {} benches, trajectory rows appended to {}",
        summary.len(),
        path.display()
    );
}

/// Appends one schema-validated summary row per bench. Every line is
/// validated *before* it is written — a malformed row must fail the run,
/// not poison the committed trajectory.
fn append_trajectory(
    path: &std::path::Path,
    commit: &str,
    summary: &[(&str, usize, Duration)],
) -> Result<(), String> {
    use std::io::Write as _;
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut lines = String::new();
    let threads = batnet_exec::current().threads();
    for (bench, rows, wall) in summary {
        let line = format!(
            "{{\"schema\": 1, \"bench\": \"{bench}\", \"commit\": \"{commit}\", \
             \"unix\": {unix}, \"rows\": {rows}, \"total_ms\": {:.3}, \"threads\": {threads}}}",
            wall.as_secs_f64() * 1000.0
        );
        let parsed = batnet_obs::json::parse(&line).map_err(|e| format!("{bench}: {e}"))?;
        batnet_obs::report::validate_trajectory_row(&parsed)
            .map_err(|e| format!("{bench}: row invalid: {e}"))?;
        lines.push_str(&line);
        lines.push('\n');
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    f.write_all(lines.as_bytes()).map_err(|e| e.to_string())
}

/// Dispatches one run of an experiment command.
fn run_cmd(cmd: &str, full: bool, net: Option<&str>, rows: &mut Vec<Row>) {
    match cmd {
        "fig1" => fig1(),
        "fig3" => fig3(rows),
        "table1" => table1(full),
        "table2" => table2(full, net, rows),
        "smoke" => smoke(rows),
        "lint" => lint_bench(full, net, rows),
        "diff" => diff_bench(rows),
        "serve" => serve_bench(rows),
        "cov" => cov_bench(full, net, rows),
        "apt" => apt(),
        "ablate-convergence" => ablate_convergence(),
        "ablate-memory" => ablate_memory(),
        "ablate-varorder" => ablate_varorder(),
        "ablate-dataflow" => ablate_dataflow(),
        "ablate-transform" => ablate_transform(),
        "all" => {
            fig1();
            fig3(rows);
            table1(full);
            table2(full, net, rows);
            apt();
            ablate_convergence();
            ablate_memory();
            ablate_varorder();
            ablate_dataflow();
            ablate_transform();
        }
        other => CLI.fail(&format!("unknown experiment '{other}'")),
    }
}

/// Writes `BENCH_<bench>.json` for each bench that produced rows. The
/// repo-root baselines (`table2`, `fig3`) are written on `--json`; the
/// `smoke` bench always lands in `target/` so CI never dirties the
/// committed baselines. `--out` redirects the (single) output file —
/// the CI `perf-smoke` gate uses it to write under `target/`. When a
/// profile window was captured (`--profile`), it is written next to each
/// bench file with a `.profile.json` extension.
#[allow(clippy::too_many_arguments)]
fn emit_json(
    cmd: &str,
    rows: &[Row],
    commit: &str,
    cmdline: &str,
    repeat: usize,
    out: Option<&str>,
    profile: Option<&str>,
) {
    let report = batnet_obs::capture();
    let meta = vec![
        ("commit".to_string(), commit.to_string()),
        ("cmd".to_string(), cmdline.trim_end().to_string()),
        ("rustc".to_string(), rustc_version()),
        ("profile".to_string(), build_profile().to_string()),
        ("repeat".to_string(), repeat.to_string()),
        ("threads".to_string(), batnet_exec::current().threads().to_string()),
    ];
    let benches: Vec<&str> = match cmd {
        "all" => vec!["table2", "fig3"],
        b => vec![b],
    };
    if out.is_some() && benches.len() > 1 {
        eprintln!("--out applies to single-bench commands; ignoring it for `all`");
    }
    for bench in &benches {
        let subset: Vec<Row> = rows.iter().filter(|r| r.bench == *bench).cloned().collect();
        if subset.is_empty() {
            continue;
        }
        let path = match out {
            Some(p) if benches.len() == 1 => std::path::PathBuf::from(p),
            _ if *bench == "smoke" => repo_root().join("target").join("BENCH_smoke.json"),
            _ => repo_root().join(format!("BENCH_{bench}.json")),
        };
        let text = bench_json(bench, &meta, &subset, &report);
        match std::fs::write(&path, &text) {
            Ok(()) => println!("wrote {} ({} rows)", path.display(), subset.len()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
        if let Some(doc) = profile {
            let ppath = path.with_extension("profile.json");
            match std::fs::write(&ppath, doc) {
                Ok(()) => println!("wrote {}", ppath.display()),
                Err(e) => eprintln!("failed to write {}: {e}", ppath.display()),
            }
        }
    }
}

/// Attaches the stage's heap accounting — published as
/// `mem.<stage>.peak_bytes` / `mem.<stage>.delta_bytes` gauges by the
/// bench library's memory windows — to a row as `peak_kb` / `delta_kb`
/// meta. Leaves the row untouched when the counting allocator is absent.
fn with_mem(row: Row, stage: &str) -> Row {
    let read = |key: &str| batnet_obs::metrics::gauge(&format!("mem.{stage}.{key}"));
    let row = match read("peak_bytes") {
        Some(v) => row.with("peak_kb", format!("{:.0}", v / 1024.0)),
        None => row,
    };
    match read("delta_bytes") {
        Some(v) => row.with("delta_kb", format!("{:.0}", v / 1024.0)),
        None => row,
    }
}

fn banner(s: &str) {
    println!("\n=== {s} ===");
}

/// One full pipeline measurement over a network: the five Table-2 stage
/// windows under a per-network root span, pushed as rows (the `total`
/// row is the root span, so per-stage times sum to it by construction).
struct PipelineMeasure {
    nodes: usize,
    routes: usize,
    parse: Duration,
    dpgen: Duration,
    graph: Duration,
    dest: Duration,
    dest_n: usize,
    mp: Duration,
    mp_n: usize,
}

fn measure_pipeline(
    bench: &str,
    id: &str,
    net: batnet_topogen::GeneratedNetwork,
    rows: &mut Vec<Row>,
) -> PipelineMeasure {
    let span = batnet_obs::Span::enter(format!("network.{id}"));
    let world = build_world(net);
    let (mut bdd, vars, graph, graph_time) = build_graph(&world, 0);
    let (dest_time, dest_n) = dest_reachability(&mut bdd, &vars, &graph, 3);
    let (mp_time, mp_n, _) = multipath_consistency(&mut bdd, &graph, 8);
    let total = span.close();
    let m = PipelineMeasure {
        nodes: world.net.node_count(),
        routes: world.dp.total_routes(),
        parse: world.parse_time,
        dpgen: world.dpgen_time,
        graph: graph_time,
        dest: dest_time,
        dest_n,
        mp: mp_time,
        mp_n,
    };
    let gauge = |name: &str| batnet_obs::metrics::gauge(name).unwrap_or(0.0);
    rows.push(with_mem(Row::new(bench, id, "parse", m.parse), "parse"));
    rows.push(with_mem(
        Row::new(bench, id, "dpgen", m.dpgen).with("routes", m.routes),
        "dpgen",
    ));
    rows.push(with_mem(
        Row::new(bench, id, "graph", m.graph)
            .with("bdd_nodes", format!("{:.0}", gauge("bdd.graph.nodes"))),
        "graph",
    ));
    rows.push(with_mem(
        Row::new(bench, id, "dest-reach", m.dest).with("queries", m.dest_n),
        "dest-reach",
    ));
    rows.push(with_mem(
        Row::new(bench, id, "multipath", m.mp).with("queries", m.mp_n),
        "multipath",
    ));
    rows.push(
        Row::new(bench, id, "total", total)
            .with("nodes", m.nodes)
            .with("routes", m.routes),
    );
    m
}

/// Figure 1: the convergence gadgets under both schedulers.
fn fig1() {
    banner("E-F1 (Figure 1): deterministic convergence");
    for (label, net) in [
        ("fig1a (no stable solution)", batnet_topogen::gadgets::fig1a()),
        ("fig1b (lockstep oscillation)", batnet_topogen::gadgets::fig1b()),
    ] {
        let devices = net.parse();
        for (mode, name) in [
            (SchedulerMode::Colored, "colored+clocks"),
            (SchedulerMode::Lockstep, "lockstep"),
        ] {
            let opts = SimOptions {
                scheduler: mode,
                max_sweeps: 60,
                ..SimOptions::default()
            };
            let dp = simulate(&devices, &net.env, &opts);
            println!(
                "{label:34} {name:16} converged={} sweeps={} colors={}",
                dp.convergence.converged, dp.convergence.sweeps, dp.convergence.colors
            );
        }
    }
    println!("expected shape: 1a never converges (reported, not hung);");
    println!("1b converges under colored+clocks, oscillates under lockstep.");
}

/// Figure 3: current vs original Batfish on NET1 — parsing, data plane
/// generation (imperative vs Datalog), verification (BDD vs cube engine).
fn fig3(rows: &mut Vec<Row>) {
    banner("E-F3 (Figure 3): current vs original engines on NET1");
    let net = batnet_topogen::suite::net1();
    println!(
        "NET1: {} nodes, {} config lines",
        net.node_count(),
        net.config_lines()
    );
    let world = build_world(net);
    println!("parse (current frontend):        {}", fmt_dur(world.parse_time));
    println!("DP generation (imperative):      {}", fmt_dur(world.dpgen_time));
    rows.push(Row::new("fig3", "NET1", "parse", world.parse_time));
    rows.push(Row::new("fig3", "NET1", "dpgen", world.dpgen_time).with("engine", "imperative"));

    // Original DP generation: the Datalog model.
    let inputs = RoutingInputs::for_network(&world.devices, &world.topo);
    let span = batnet_obs::Span::enter("dpgen-datalog");
    let dl = datalog_routes(&world.devices, &world.topo, &inputs);
    let datalog_time = span.close();
    let total_routes: usize = dl.routes.values().map(Vec::len).sum();
    println!(
        "DP generation (Datalog):         {}  ({} facts retained, {} routes)",
        fmt_dur(datalog_time),
        dl.fact_count,
        total_routes
    );
    println!(
        "  -> DP generation speedup:      {}  (paper: ~1500x)",
        fmt_speedup(datalog_time, world.dpgen_time)
    );
    rows.push(
        Row::new("fig3", "NET1", "dpgen-datalog", datalog_time)
            .with("engine", "datalog")
            .with("facts", dl.fact_count),
    );

    // Verification: multipath consistency, BDD vs cubes.
    let (mut bdd, _vars, graph, graph_time) = build_graph(&world, 0);
    println!("dataflow graph build (BDD):      {}", fmt_dur(graph_time));
    rows.push(Row::new("fig3", "NET1", "graph", graph_time));
    let (bdd_time, starts, bdd_viol) = multipath_consistency(&mut bdd, &graph, 24);
    println!(
        "verification (BDD engine):       {}  ({starts} starts, {bdd_viol} inconsistent)",
        fmt_dur(bdd_time)
    );
    rows.push(
        Row::new("fig3", "NET1", "multipath", bdd_time)
            .with("engine", "bdd")
            .with("queries", starts),
    );
    let outer = batnet_obs::Span::enter("multipath-cubes");
    let span = batnet_obs::Span::enter("cube-build");
    let cube_net = CubeNetwork::build(&world.devices, &world.dp, &world.topo);
    let cube_build = span.close();
    let ingresses = cube_net.ingresses();
    let step = (ingresses.len() / 24).max(1);
    let span = batnet_obs::Span::enter("cube-query");
    let mut cube_viol = 0;
    let mut cube_starts = 0;
    for (d, i) in ingresses.iter().step_by(step).take(24) {
        cube_starts += 1;
        if !cube_net.multipath_inconsistency(d, i).is_empty() {
            cube_viol += 1;
        }
    }
    let cube_time = span.close();
    drop(outer);
    println!(
        "verification (cube engine):      {}  (+{} build; {cube_starts} starts, {cube_viol} inconsistent)",
        fmt_dur(cube_time),
        fmt_dur(cube_build)
    );
    println!(
        "  -> verification speedup:       {}  (paper: ~12x)",
        fmt_speedup(cube_time + cube_build, bdd_time + graph_time)
    );
    rows.push(
        Row::new("fig3", "NET1", "multipath-cubes", cube_time + cube_build)
            .with("engine", "cubes")
            .with("queries", cube_starts),
    );
}

/// Table 1: the suite inventory.
fn table1(full: bool) {
    banner("E-T1 (Table 1): the 11-network suite");
    println!(
        "{:<6} {:<26} {:>6} {:>9} {:>9}",
        "net", "type", "nodes", "LoC", "routes"
    );
    for entry in batnet_topogen::suite::suite() {
        if !full && entry.nominal_nodes > 700 {
            let net = (entry.build)();
            println!(
                "{:<6} {:<26} {:>6} {:>9} {:>9}",
                entry.id,
                net.kind,
                net.node_count(),
                net.config_lines(),
                "(--full)"
            );
            continue;
        }
        let net = (entry.build)();
        let world = build_world(net);
        println!(
            "{:<6} {:<26} {:>6} {:>9} {:>9}",
            entry.id,
            world.net.kind,
            world.net.node_count(),
            world.net.config_lines(),
            world.dp.total_routes()
        );
    }
}

/// The suite networks a per-network bench runs over: the one `--net`
/// names, else the networks up to 520 nodes (all eleven with `--full`).
fn selected(full: bool, net: Option<&str>) -> Vec<batnet_topogen::suite::SuiteEntry> {
    match net {
        Some(id) => vec![batnet_topogen::suite::find(id).unwrap_or_else(|e| CLI.fail(&e))],
        None => batnet_topogen::suite::suite()
            .into_iter()
            .filter(|e| full || e.nominal_nodes <= 520)
            .collect(),
    }
}

/// Table 2: pipeline performance per network. `net` restricts the run
/// to one suite network (by id, case-insensitive) — the CI `perf-smoke`
/// gate uses it to measure only N2.
fn table2(full: bool, net: Option<&str>, rows: &mut Vec<Row>) {
    banner("E-T2 (Table 2): pipeline performance");
    println!(
        "{:<6} {:>6} {:>9} {:>10} {:>10} {:>11} {:>12} {:>10}",
        "net", "nodes", "routes", "parse", "DP gen", "graph", "dest-reach", "multipath"
    );
    let before = rows.len();
    for entry in selected(full, net) {
        let net = (entry.build)();
        let m = measure_pipeline("table2", entry.id, net, rows);
        println!(
            "{:<6} {:>6} {:>9} {:>10} {:>10} {:>11} {:>12} {:>10}",
            entry.id,
            m.nodes,
            m.routes,
            fmt_dur(m.parse),
            fmt_dur(m.dpgen),
            fmt_dur(m.graph),
            format!("{}/{}q", fmt_dur(m.dest), m.dest_n),
            format!("{}/{}q", fmt_dur(m.mp), m.mp_n),
        );
    }
    if let Some(filter) = net {
        if rows.len() == before {
            eprintln!("--net {filter} matched no suite network");
        }
    }
    println!("(times are wall clock on this machine; the paper's claim is");
    println!(" minutes even at thousands of nodes — compare shapes, not values)");
}

/// The CI smoke bench: the full pipeline on the smallest suite network,
/// always emitting `target/BENCH_smoke.json` for the validator.
fn smoke(rows: &mut Vec<Row>) {
    banner("obs-smoke: pipeline on N2");
    let net = batnet_topogen::suite::n2();
    let m = measure_pipeline("smoke", "N2", net, rows);
    println!(
        "N2: {} nodes, {} routes — parse {} | dpgen {} | graph {} | dest-reach {} | multipath {}",
        m.nodes,
        m.routes,
        fmt_dur(m.parse),
        fmt_dur(m.dpgen),
        fmt_dur(m.graph),
        fmt_dur(m.dest),
        fmt_dur(m.mp),
    );
}

/// The lint bench: parse + full static-analysis pass per suite network,
/// finding counts in the row metadata. Always writes `BENCH_lint.json`
/// (lint reports are deterministic, so the baseline is reproducible).
fn lint_bench(full: bool, net: Option<&str>, rows: &mut Vec<Row>) {
    banner("E-L: lint engine throughput");
    println!(
        "{:<6} {:>7} {:>10} {:>10} {:>9} {:>9}",
        "net", "devices", "parse", "lint", "findings", "errors"
    );
    for entry in selected(full, net) {
        let net = (entry.build)();
        let id = entry.id;
        let t = clock::now();
        let mut devices = Vec::with_capacity(net.configs.len());
        let mut diags = Vec::with_capacity(net.configs.len());
        for (name, text) in &net.configs {
            let (device, dg) = batnet::config::parse_device(name, text);
            devices.push(device);
            diags.push((name.clone(), dg));
        }
        let parse = t.elapsed();
        let t = clock::now();
        let findings = batnet::lint::run_network(&devices, &diags);
        let lint = t.elapsed();
        let errors = findings
            .iter()
            .filter(|f| f.severity >= batnet::lint::Severity::Error)
            .count();
        println!(
            "{:<6} {:>7} {:>10} {:>10} {:>9} {:>9}",
            id,
            devices.len(),
            fmt_dur(parse),
            fmt_dur(lint),
            findings.len(),
            errors
        );
        rows.push(Row::new("lint", id, "parse", parse).with("devices", devices.len()));
        rows.push(
            Row::new("lint", id, "lint", lint)
                .with("findings", findings.len())
                .with("errors", errors),
        );
    }
}

/// The coverage bench: parse + coverage classification per suite
/// network, item/gap counts in the row metadata. Always writes
/// `BENCH_cov.json` (the report is deterministic, so the baseline is
/// reproducible and the CI `cov-smoke` gate can structure-diff it).
fn cov_bench(full: bool, net: Option<&str>, rows: &mut Vec<Row>) {
    banner("E-C: coverage engine throughput");
    println!(
        "{:<6} {:>7} {:>10} {:>10} {:>7} {:>9} {:>6}",
        "net", "devices", "parse", "analyze", "items", "exercised", "gaps"
    );
    for entry in selected(full, net) {
        let net = (entry.build)();
        let id = entry.id;
        let t = clock::now();
        let mut devices = Vec::with_capacity(net.configs.len());
        for (name, text) in &net.configs {
            let (mut device, _) = batnet::config::parse_device(name, text);
            device.stamp_source_file(name);
            devices.push(device);
        }
        let parse = t.elapsed();
        let t = clock::now();
        let report = batnet_coverage::analyze(&devices);
        let analyze = t.elapsed();
        let totals = report.totals();
        let gaps = report.gaps().count();
        println!(
            "{:<6} {:>7} {:>10} {:>10} {:>7} {:>9} {:>6}",
            id,
            devices.len(),
            fmt_dur(parse),
            fmt_dur(analyze),
            totals.items,
            totals.exercised,
            gaps
        );
        rows.push(Row::new("cov", id, "parse", parse).with("devices", devices.len()));
        rows.push(
            Row::new("cov", id, "analyze", analyze)
                .with("items", totals.items)
                .with("exercised", totals.exercised)
                .with("gaps", gaps),
        );
    }
}

/// The diff bench: the three differential-analysis stages on N2 with a
/// seeded `acl-attach-peering` perturbation (one ACL attach that kills a
/// BGP session, so every layer has real work). Mirrors the staging of
/// `batnet_diff::diff` but times each layer separately. Always writes
/// `BENCH_diff.json` for the obs-diff perf gate.
fn diff_bench(rows: &mut Vec<Row>) {
    use batnet::diff::reach::{diff_reach, ReachInputs};
    banner("E-D: differential analysis (acl-attach-peering on N2)");
    let net = batnet_topogen::suite::n2();
    let p = batnet_topogen::perturb::perturb(
        &net,
        batnet_topogen::perturb::Scenario::AclAttachPeering,
        3,
    )
    .expect("a leaf is always eligible");
    println!("perturbation: {} on {}", p.description, p.victim);

    let t = clock::now();
    let before = batnet::Snapshot::from_configs(net.configs.clone()).with_env(net.env.clone());
    let after = batnet::Snapshot::from_configs(p.configs).with_env(net.env.clone());
    let parse = t.elapsed();

    let t = clock::now();
    let structural = batnet::diff::structural::diff_structural(&before.devices, &after.devices);
    let configs_time = t.elapsed();

    let opts = batnet::DiffOptions::default();
    let t = clock::now();
    let dp_b = simulate(&before.devices, &before.env, &opts.sim);
    let dp_a = simulate(&after.devices, &after.env, &opts.sim);
    let routes = batnet::diff::routes::diff_routes(&dp_b, &dp_a, opts.max_route_changes);
    let routes_time = t.elapsed();

    let t = clock::now();
    let mut changed = structural.changed_devices();
    changed.extend(routes.changed_devices.iter().cloned());
    let reach = diff_reach(
        &ReachInputs {
            devices_before: &before.devices,
            dp_before: &dp_b,
            devices_after: &after.devices,
            dp_after: &dp_a,
            changed_devices: &changed,
        },
        &opts,
    );
    let reach_time = t.elapsed();

    println!(
        "N2: parse {} | configs {} ({} changes) | routes {} ({} deltas) | reach {} ({}/{} starts, {} changed)",
        fmt_dur(parse),
        fmt_dur(configs_time),
        structural.change_count(),
        fmt_dur(routes_time),
        routes.change_count(),
        fmt_dur(reach_time),
        reach.starts_compared,
        reach.starts_total,
        reach.changed_starts,
    );
    rows.push(Row::new("diff", "N2", "parse", parse));
    rows.push(
        Row::new("diff", "N2", "configs", configs_time).with("changes", structural.change_count()),
    );
    rows.push(Row::new("diff", "N2", "routes", routes_time).with("changes", routes.change_count()));
    rows.push(
        Row::new("diff", "N2", "reach", reach_time)
            .with("starts", reach.starts_compared)
            .with("changed", reach.changed_starts),
    );
}

/// The serve bench: the full service loop on loopback. Spawns
/// `batnet-serve` in-process, uploads the N2 data center through the
/// public API, then drives reachability / trace / lint / report loads
/// with `Backoff`-retried clients. Every stage row carries request
/// counts plus that endpoint's own p50/p99 (from the server's
/// `serve.latency.us.<endpoint>` histograms — per-endpoint, so one
/// endpoint's tail regression can't hide behind a fast-path-dominated
/// aggregate); the `total` row keeps the global-histogram tail. Always
/// writes `BENCH_serve.json` — the CI `serve-smoke` gate diffs its
/// structure against the committed baseline.
fn serve_bench(rows: &mut Vec<Row>) {
    use batnet_net::Backoff;
    use batnet_serve::{client, ServeConfig};
    banner("E-SV: analysis service under load (loopback)");
    let net = batnet_topogen::suite::n2();
    let devices = net.configs.len();
    // A real device/interface pair for the trace load, straight from
    // the generated config text.
    let (trace_dev, trace_iface) = net
        .configs
        .iter()
        .find_map(|(name, text)| {
            text.lines()
                .find_map(|l| l.strip_prefix("interface "))
                .map(|i| (name.clone(), i.trim().to_string()))
        })
        .expect("suite configs declare interfaces");

    let handle = batnet_serve::spawn(ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    let t = Duration::from_secs(30);
    let retry = || Backoff::new(Duration::from_millis(5), Duration::from_millis(80), 6, 17);
    let get = |target: &str, step: &str| -> batnet_serve::client::ClientResponse {
        let r = client::get_with_retry(addr, target, t, retry())
            .unwrap_or_else(|e| panic!("{step}: transport: {e}"));
        assert_eq!(r.status, 200, "{step}: {}", r.body_str());
        r
    };

    let span = batnet_obs::Span::enter("serve-bench");

    // Upload: the whole network as one governed POST.
    let mut body = String::from("{\"configs\": [");
    for (i, (name, text)) in net.configs.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str("{\"name\": ");
        batnet_obs::json::write_str(&mut body, name);
        body.push_str(", \"text\": ");
        batnet_obs::json::write_str(&mut body, text);
        body.push('}');
    }
    body.push_str("]}");
    let t0 = clock::now();
    let up = client::post(addr, "/snapshots/N2", body.as_bytes(), t).expect("upload transport");
    let upload = t0.elapsed();
    assert_eq!(up.status, 201, "upload: {}", up.body_str());

    // Query loads, each a burst of identical requests.
    let reach_n = 16;
    let t0 = clock::now();
    for _ in 0..reach_n {
        let r = get("/query/reach?snapshot=N2&port=80", "reach");
        assert!(r.body_str().contains("\"partial\": null"), "reach went partial");
    }
    let reach = t0.elapsed();

    let trace_n = 8;
    let target = format!(
        "/query/trace?snapshot=N2&device={trace_dev}&iface={trace_iface}&src=10.0.0.1&dst=10.0.1.1&port=80"
    );
    let t0 = clock::now();
    for _ in 0..trace_n {
        get(&target, "trace");
    }
    let trace = t0.elapsed();

    let lint_n = 4;
    let t0 = clock::now();
    for _ in 0..lint_n {
        get("/lint?snapshot=N2", "lint");
    }
    let lint = t0.elapsed();

    let report_n = 4;
    let t0 = clock::now();
    for _ in 0..report_n {
        get("/report?snapshot=N2", "report");
    }
    let report = t0.elapsed();

    let total = span.close();
    // One capture covers every stage: each row reads its own endpoint's
    // latency histogram, the total row the global one.
    let obs = batnet_obs::capture();
    let pct = |name: &str| serve_latency_percentiles(&obs, name);
    let (up50, up99) = pct("serve.latency.us.snapshots.upload");
    let (re50, re99) = pct("serve.latency.us.query.reach");
    let (tr50, tr99) = pct("serve.latency.us.query.trace");
    let (li50, li99) = pct("serve.latency.us.lint");
    let (rp50, rp99) = pct("serve.latency.us.report");
    let (p50, p99) = pct("serve.latency.us");
    rows.push(
        Row::new("serve", "N2", "upload", upload)
            .with("devices", devices)
            .with("body_kb", body.len() / 1024)
            .with("p50_us", up50)
            .with("p99_us", up99),
    );
    rows.push(
        Row::new("serve", "N2", "reach", reach)
            .with("requests", reach_n)
            .with("p50_us", re50)
            .with("p99_us", re99),
    );
    rows.push(
        Row::new("serve", "N2", "trace", trace)
            .with("requests", trace_n)
            .with("p50_us", tr50)
            .with("p99_us", tr99),
    );
    rows.push(
        Row::new("serve", "N2", "lint", lint)
            .with("requests", lint_n)
            .with("p50_us", li50)
            .with("p99_us", li99),
    );
    rows.push(
        Row::new("serve", "N2", "report", report)
            .with("requests", report_n)
            .with("p50_us", rp50)
            .with("p99_us", rp99),
    );
    rows.push(
        Row::new("serve", "N2", "total", total)
            .with("requests", 1 + reach_n + trace_n + lint_n + report_n)
            .with("p50_us", p50)
            .with("p99_us", p99),
    );
    handle.shutdown();
    println!(
        "N2 over HTTP: upload {} ({} devices) | reach {}/{}q | trace {}/{}q | lint {}/{}q | report {}/{}q",
        fmt_dur(upload),
        devices,
        fmt_dur(reach),
        reach_n,
        fmt_dur(trace),
        trace_n,
        fmt_dur(lint),
        lint_n,
        fmt_dur(report),
        report_n,
    );
    println!(
        "server-side request latency: p50 ~{p50}us, p99 ~{p99}us global \
         (log2-bucket upper bounds; per-endpoint tails on each row)"
    );
    println!(
        "per-endpoint p99: upload ~{up99}us | reach ~{re99}us | trace ~{tr99}us | \
         lint ~{li99}us | report ~{rp99}us"
    );
}

/// Upper-bound p50/p99 estimates from one of the server's log2 latency
/// histograms (each percentile reports its bucket's upper edge).
fn serve_latency_percentiles(report: &batnet_obs::RunReport, name: &str) -> (u64, u64) {
    let Some(batnet_obs::metrics::MetricValue::Histogram(h)) = report.metrics.get(name) else {
        return (0, 0);
    };
    (h.percentile_upper(0.5), h.percentile_upper(0.99))
}

/// §6.2: the APT comparison on the 92-node network.
fn apt() {
    banner("E-APT (§6.2): BDD engine vs Atomic Predicates, 92 nodes");
    let net = batnet_topogen::suite::apt92();
    let world = build_world(net);
    let (mut bdd, vars, graph, graph_time) = build_graph(&world, 0);
    let (dest_time, dest_n) = dest_reachability(&mut bdd, &vars, &graph, 5);
    println!(
        "BDD engine:  graph build {}  + {dest_n} dest-reach queries {}",
        fmt_dur(graph_time),
        fmt_dur(dest_time)
    );
    let t = clock::now();
    let apt = AptEngine::build(&mut bdd, &graph).expect("suite networks carry no transform edges");
    let apt_build = t.elapsed();
    let t = clock::now();
    let sinks = apt.dest_reachability(&graph);
    let apt_query = t.elapsed();
    println!(
        "APT engine:  atoms {} (compute {})  + all-sink reach {} ({} sinks)",
        apt.atoms.len(),
        fmt_dur(apt_build),
        fmt_dur(apt_query),
        sinks.len()
    );
    println!(
        "  -> build+query speedup: {}  (paper: ~2 orders of magnitude)",
        fmt_speedup(apt_build + apt_query, graph_time + dest_time)
    );
}

/// A-1: the convergence machinery ablation.
fn ablate_convergence() {
    banner("A-1: convergence ablation (coloring / logical clocks)");
    let net = batnet_topogen::suite::n2();
    let devices = net.parse();
    for (mode, clocks, label) in [
        (SchedulerMode::Colored, true, "colored + clocks (production)"),
        (SchedulerMode::Colored, false, "colored, no clocks"),
        (SchedulerMode::Lockstep, true, "lockstep + clocks"),
        (SchedulerMode::Lockstep, false, "lockstep, no clocks"),
    ] {
        let opts = SimOptions {
            scheduler: mode,
            use_logical_clocks: clocks,
            max_sweeps: 100,
            ..SimOptions::default()
        };
        let t = clock::now();
        let dp = simulate(&devices, &net.env, &opts);
        println!(
            "{label:32} converged={} sweeps={:>3} time={}",
            dp.convergence.converged,
            dp.convergence.sweeps,
            fmt_dur(t.elapsed())
        );
    }
    // The gadget that separates the modes.
    let net = batnet_topogen::gadgets::fig1b();
    let devices = net.parse();
    for (mode, label) in [
        (SchedulerMode::Colored, "fig1b colored"),
        (SchedulerMode::Lockstep, "fig1b lockstep"),
    ] {
        let opts = SimOptions {
            scheduler: mode,
            max_sweeps: 60,
            ..SimOptions::default()
        };
        let dp = simulate(&devices, &net.env, &opts);
        println!(
            "{label:32} converged={} sweeps={:>3}",
            dp.convergence.converged, dp.convergence.sweeps
        );
    }
}

/// A-2: attribute interning (the §4.1.3 memory claims).
fn ablate_memory() {
    banner("A-2: memory ablation (attribute-bundle interning)");
    for id in ["N2", "N5"] {
        let net = match id {
            "N2" => batnet_topogen::suite::n2(),
            _ => batnet_topogen::suite::n5(),
        };
        let world = build_world(net);
        let mem = &world.dp.mem;
        println!(
            "{id}: {} BGP routes, {} full bundles, {} shareable combos  sharing={:.1}x  reduction={:.0}%  saved~{}KB",
            mem.total_bgp_routes,
            mem.unique_attr_bundles,
            mem.unique_shared_combos,
            mem.sharing_factor(),
            mem.memory_reduction() * 100.0,
            mem.bytes_saved / 1024
        );
    }
    println!("(paper: 10x-20x fewer bundles than routes, ~50% memory reduction)");
}

/// A-3: BDD variable-order ablation — encode the same FIB three ways.
fn ablate_varorder() {
    banner("A-3: BDD variable order (paper order vs alternatives)");
    // Corpus: the FIB prefixes of NET1's largest device plus its ACLs,
    // encoded as one union-of-prefixes BDD under three orders.
    let net = batnet_topogen::suite::net1();
    let world = build_world(net);
    let mut prefixes: Vec<batnet::net::Prefix> = Vec::new();
    for d in &world.dp.devices {
        for (p, _) in d.main_rib.iter_best() {
            // Short prefixes (the default route especially) swallow the
            // union; the order comparison needs a non-trivial set.
            if p.len() >= 16 {
                prefixes.push(*p);
            }
        }
    }
    prefixes.sort();
    prefixes.dedup();
    println!("corpus: {} distinct prefixes", prefixes.len());
    // Order A: MSB-first (the paper's). Order B: LSB-first. Order C:
    // even/odd interleave of dst-IP bits (a deliberately poor order).
    let orders: [(&str, Box<dyn Fn(u32) -> u32>); 3] = [
        ("msb-first (paper)", Box::new(|i| i)),
        ("lsb-first", Box::new(|i| 31 - i)),
        ("interleaved", Box::new(|i| if i % 2 == 0 { i / 2 } else { 16 + i / 2 })),
    ];
    for (label, map) in &orders {
        let mut bdd = batnet::bdd::Bdd::new(32);
        let t = clock::now();
        let mut acc = NodeId::FALSE;
        for p in &prefixes {
            let mut cube = NodeId::TRUE;
            for i in (0..p.len() as u32).rev() {
                let bit = (p.network().0 >> (31 - i)) & 1 == 1;
                let lit = bdd.literal(map(i), bit);
                cube = bdd.and(lit, cube);
            }
            acc = bdd.or(acc, cube);
        }
        println!(
            "{label:20} nodes={:>7} time={}",
            bdd.size(acc),
            fmt_dur(t.elapsed())
        );
    }
}

/// A-4: graph compression and the backward walk.
fn ablate_dataflow() {
    banner("A-4: dataflow ablation (compression, backward walk)");
    let net = batnet_topogen::suite::net1();
    let world = build_world(net);
    let (mut bdd, vars, graph, _) = build_graph(&world, 0);
    let (n0, e0) = graph.size();
    let t = clock::now();
    let (cgraph, stats) = compress(&mut bdd, &graph);
    let ct = t.elapsed();
    println!(
        "graph: {n0} nodes / {e0} edges -> {} / {} after compression ({}; {:.0}% nodes removed)",
        stats.nodes_after,
        stats.edges_after,
        fmt_dur(ct),
        100.0 * (1.0 - stats.nodes_after as f64 / n0 as f64)
    );
    // Same forward query on both graphs.
    for (label, g) in [("uncompressed", &graph), ("compressed", &cgraph)] {
        let analysis = ReachAnalysis::new(g);
        let t = clock::now();
        let r = analysis.forward_from_all_sources(&mut bdd, NodeId::TRUE);
        println!(
            "forward all-sources ({label:12}): {}  ({} relaxations)",
            fmt_dur(t.elapsed()),
            r.relaxations
        );
    }
    // Backward vs forward for a single destination.
    let sink = graph
        .nodes_where(|k| matches!(k, NodeKind::DeliveredToSubnet(_, _)))
        .into_iter()
        .next()
        .expect("a delivery sink");
    let analysis = ReachAnalysis::new(&graph);
    let t = clock::now();
    let b = analysis.backward(&mut bdd, &vars, sink, NodeId::TRUE);
    let bt = t.elapsed();
    let t = clock::now();
    let f = analysis.forward_from_all_sources(&mut bdd, NodeId::TRUE);
    let ft = t.elapsed();
    println!(
        "single-dest: backward {} ({} relax) vs full forward {} ({} relax)",
        fmt_dur(bt),
        b.relaxations,
        fmt_dur(ft),
        f.relaxations
    );
}

/// A-5: the fused transform op vs the three-step sequence.
fn ablate_transform() {
    banner("A-5: fused NAT transform vs and/exists/rename");
    use batnet::dataplane::vars::Field;
    let (mut bdd, vars) = batnet::dataplane::PacketVars::new(0);
    // A realistic NAT relation: rewrite source IP to a /28 pool, keep the
    // low bits; identity elsewhere.
    let mut rel = NodeId::TRUE;
    for i in 0..32u32 {
        let primed = bdd.var(vars.var_of(Field::SrcIp, i, true));
        if i < 28 {
            let bit = (0xcb007100u32 >> (31 - i)) & 1 == 1;
            let lit = if bit { primed } else { bdd.not(primed) };
            rel = bdd.and(rel, lit);
        } else {
            let orig = bdd.var(vars.var_of(Field::SrcIp, i, false));
            let x = bdd.xor(orig, primed);
            let eq = bdd.not(x);
            rel = bdd.and(rel, eq);
        }
    }
    for f in [Field::DstIp, Field::DstPort, Field::SrcPort] {
        let id = vars.field_identity(&mut bdd, f);
        rel = bdd.and(rel, id);
    }
    // Input sets: many distinct prefixes.
    let mut sets = Vec::new();
    for k in 0..200u32 {
        let p = batnet::net::Prefix::new(batnet::net::Ip(k << 20), 12);
        sets.push(vars.ip_prefix(&mut bdd, Field::SrcIp, p));
    }
    let t = clock::now();
    let mut acc1 = NodeId::FALSE;
    for &s in &sets {
        let o = bdd.transform(s, rel, vars.nat_transform);
        acc1 = bdd.or(acc1, o);
    }
    let fused = t.elapsed();
    bdd.clear_caches();
    let t = clock::now();
    let mut acc2 = NodeId::FALSE;
    for &s in &sets {
        let o = bdd.transform_3step(s, rel, vars.nat_transform);
        acc2 = bdd.or(acc2, o);
    }
    let steps = t.elapsed();
    assert_eq!(acc1, acc2, "the two paths must agree");
    println!(
        "200 transforms: fused {}  vs 3-step {}  (speedup {})",
        fmt_dur(fused),
        fmt_dur(steps),
        fmt_speedup(steps, fused)
    );
}
