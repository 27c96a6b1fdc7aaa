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
//!   lint                lint engine throughput, writes BENCH_lint.json
//!   diff                differential analysis on N2, writes BENCH_diff.json
//!   cov                 coverage engine throughput, writes BENCH_cov.json
//!   apt                 section 6.2: APT comparison (92 nodes)
//!   ablate-convergence  A-1: coloring / logical clocks
//!   ablate-memory       A-2: attribute interning
//!   ablate-varorder     A-3: BDD variable order
//!   ablate-dataflow     A-4: graph compression & backward walk
//!   ablate-transform    A-5: fused vs 3-step NAT transform
//!   all                 every figure, table and ablation above
//! Exit 0 done, 1 a bench file could not be written, 2 usage error, unknown
//! experiment, or a flag the experiment does not read.
//!
//! options:
//!   --full       all eleven suite networks (table1, table2, lint, cov, all)
//!   --json       also write BENCH_<experiment>.json at the repo root (fig3, table2, all)
//!   --net ID     restrict table2 / lint / cov to one suite network
//!   --out FILE   write the one bench JSON to FILE instead of the committed baseline
//!   --threads N  width of the parallel joints (0 or omitted = all cores)
//!   --help       print this help and exit
//! ```
//!
//! `table2` runs the four smallest networks by default; `--full` runs
//! all eleven (minutes of wall clock on the biggest).
//!
//! Bench files carry the stable `{bench, network, stage, ms, meta}` row
//! schema and the full run report (span tree, metrics, events)
//! embedded. Rows carry per-stage peak/delta heap meta (`peak_kb` /
//! `delta_kb`, from the counting allocator) and the file meta stamps
//! commit, command line, thread width, rustc version, and build
//! profile. The numbers are one run on one machine — what the paper's
//! figures look like here; whether a revision got faster is the
//! benchmark's question (`benchmark/`), and CI checks these files for
//! shape only (`obs-diff`). Every text report ends with a provenance
//! stamp: git commit, command line, and total wall time from the root
//! span.

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
            \x20 lint                lint engine throughput, writes BENCH_lint.json\n\
            \x20 diff                differential analysis on N2, writes BENCH_diff.json\n\
            \x20 cov                 coverage engine throughput, writes BENCH_cov.json\n\
            \x20 apt                 section 6.2: APT comparison (92 nodes)\n\
            \x20 ablate-convergence  A-1: coloring / logical clocks\n\
            \x20 ablate-memory       A-2: attribute interning\n\
            \x20 ablate-varorder     A-3: BDD variable order\n\
            \x20 ablate-dataflow     A-4: graph compression & backward walk\n\
            \x20 ablate-transform    A-5: fused vs 3-step NAT transform\n\
            \x20 all                 every figure, table and ablation above\n\
            Exit 0 done, 1 a bench file could not be written, 2 usage error, unknown\n\
            experiment, or a flag the experiment does not read.",
    positional: "[EXPERIMENT]",
    flags: &[
        Flag::switch("--full", "all eleven suite networks (table1, table2, lint, cov, all)"),
        Flag::switch("--json", "also write BENCH_<experiment>.json at the repo root (fig3, table2, all)"),
        Flag::text("--net", "ID", "restrict table2 / lint / cov to one suite network"),
        Flag::text("--out", "FILE", "write the one bench JSON to FILE instead of the committed baseline"),
        flags::THREADS,
    ],
};

/// The flags an experiment reads, besides `--threads` (which sets the
/// width for all of them). Giving any other is misuse, as is an
/// experiment this does not name.
fn reads(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "table2" => &["--full", "--net", "--json", "--out"],
        "fig3" => &["--json", "--out"],
        "lint" | "cov" => &["--full", "--net", "--out"],
        "diff" => &["--out"],
        "all" => &["--full", "--net", "--json"],
        "table1" => &["--full"],
        "fig1" | "apt" | "ablate-convergence" | "ablate-memory" | "ablate-varorder"
        | "ablate-dataflow" | "ablate-transform" => &[],
        other => CLI.fail(&format!("unknown experiment '{other}'")),
    }
}

fn main() {
    let args = CLI.parse_env();
    let cmd = match args.args.as_slice() {
        [] => "all",
        [cmd] => cmd.as_str(),
        _ => CLI.fail("expected at most one EXPERIMENT"),
    };
    let accepted = reads(cmd);
    for flag in CLI.flags {
        if flag.name != "--threads" && args.has(flag.name) && !accepted.contains(&flag.name) {
            CLI.fail(&format!("{} does not apply to '{cmd}'", flag.name));
        }
    }
    batnet_exec::configure_threads(args.num("--threads").unwrap_or(0));
    batnet_obs::reset();
    let root = batnet_obs::Span::enter("harness");
    let mut rows: Vec<Row> = Vec::new();
    run_cmd(cmd, args.has("--full"), args.text("--net"), &mut rows);
    let wall = root.close();
    let commit = git_commit();
    let cmdline = args.cmdline.trim_end();
    println!(
        "\n--- provenance: commit {commit} | cmd \"{cmdline}\" | wall {:.2}s ---",
        wall.as_secs_f64()
    );
    let out = args.text("--out");
    if args.has("--json") || out.is_some() || matches!(cmd, "lint" | "diff" | "cov") {
        if let Err(e) = emit_json(cmd, &rows, &commit, cmdline, out) {
            eprintln!("harness: {e}");
            std::process::exit(1);
        }
    }
}

/// Dispatches an experiment [`reads`] has vetted.
fn run_cmd(cmd: &str, full: bool, net: Option<&str>, rows: &mut Vec<Row>) {
    match cmd {
        "fig1" => fig1(),
        "fig3" => fig3(rows),
        "table1" => table1(full),
        "table2" => table2(full, net, rows),
        "lint" => lint_bench(full, net, rows),
        "diff" => diff_bench(rows),
        "cov" => cov_bench(full, net, rows),
        "apt" => apt(),
        "ablate-convergence" => ablate_convergence(),
        "ablate-memory" => ablate_memory(),
        "ablate-varorder" => ablate_varorder(),
        "ablate-dataflow" => ablate_dataflow(),
        "ablate-transform" => ablate_transform(),
        // "all": the paper's figures, tables and ablations.
        _ => {
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
    }
}

/// Writes one `BENCH_<bench>.json` per bench that produced rows: at the
/// repo root (the committed baselines), or at `out` — which [`reads`]
/// only lets through for single-bench experiments, so CI can write
/// under `target/`. A file that cannot be written is an error: a gate
/// downstream must never pass on what an earlier run left at that path.
fn emit_json(
    cmd: &str,
    rows: &[Row],
    commit: &str,
    cmdline: &str,
    out: Option<&str>,
) -> Result<(), String> {
    let report = batnet_obs::capture();
    let meta = vec![
        ("commit".to_string(), commit.to_string()),
        ("cmd".to_string(), cmdline.to_string()),
        ("rustc".to_string(), rustc_version()),
        ("profile".to_string(), build_profile().to_string()),
        ("threads".to_string(), batnet_exec::current().threads().to_string()),
    ];
    let benches: &[&str] = match cmd {
        "all" => &["table2", "fig3"],
        _ => std::slice::from_ref(&cmd),
    };
    for bench in benches {
        let subset: Vec<Row> = rows.iter().filter(|r| r.bench == *bench).cloned().collect();
        if subset.is_empty() {
            continue;
        }
        let path = match out {
            Some(p) => std::path::PathBuf::from(p),
            None => repo_root().join(format!("BENCH_{bench}.json")),
        };
        std::fs::write(&path, bench_json(bench, &meta, &subset, &report))
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        println!("wrote {} ({} rows)", path.display(), subset.len());
    }
    Ok(())
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
/// to one suite network (by id, case-insensitive) — the CI `bench-smoke`
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
/// `BENCH_diff.json` for the `diff-smoke` structure gate.
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
    let routes = batnet::diff::routes::diff_routes(&dp_b, &dp_a);
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
        let combos = world.dp.shareable_combos();
        println!(
            "{id}: {} BGP routes, {} full bundles, {} shareable combos  sharing={:.1}x  reduction={:.0}%  saved~{}KB",
            mem.total_bgp_routes,
            mem.unique_attr_bundles,
            combos,
            mem.sharing_factor(combos),
            mem.memory_reduction(combos) * 100.0,
            mem.bytes_saved(combos) / 1024
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
