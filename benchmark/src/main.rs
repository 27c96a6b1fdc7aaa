//! The repo's benchmark. Four fixed-work workloads; end-to-end metrics
//! from a *timed* run that calls the program the way a user does, and
//! per-layer metrics from a separate *traced* run that drives the same
//! work stage by stage under the benchmark's own spans. See `README.md`.
//!
//! ```text
//! benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]   one run, in this process
//! benchmark run (--all | --workload W) [--seed N] [--seconds S] [--quick]
//! benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command invokes; its last
//! line of output is the result as one JSON object. `run` starts one
//! child process per workload and per mode (so `VmHWM` belongs to that
//! run alone) and checks the output's names against `BENCHMARK.json`;
//! `selfcheck` runs every timed run twice and compares the two sets.

mod batch;
mod host;
mod inputs;
mod online;
mod oracle;
mod record;
mod serve;
mod spec;
mod stages;
mod stats;

use batnet::obs::json::{self, Value};
use record::Recorder;
use spec::{put, Metrics, Size, END_TO_END, PER_LAYER, WORKLOADS};
use stages::{staged, Depth};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        all: false,
        seed: 1,
        seconds: spec::NOMINAL_SECONDS,
        trace: false,
        quick: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "run" | "selfcheck" if args.command.is_none() => args.command = Some(arg),
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--all" => args.all = true,
            "--quick" => args.quick = true,
            "--write-expected" => args.write_expected = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(workload)) => run_here(workload, &args),
        (Some("run"), _) => run_children(&args),
        (Some("selfcheck"), _) => selfcheck(&args),
        _ => Err("give --workload W, or `run --all`, or `selfcheck`".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// One run in this process. Returns whether every answer was right.
fn run_here(workload: &str, args: &Args) -> Result<bool, String> {
    batnet_exec::configure_threads(host::pool_width());
    let size = Size::new(args.seconds, args.quick);
    let host = host::host_line(args.seed);
    println!("{host}");
    let calib_before = host::calib_ms();
    if args.trace {
        return traced_run(workload, args, size, &host, calib_before);
    }

    let mut run = match workload {
        "verify-n7" => batch::verify_timed(args.seed, size),
        "routes-n11" => batch::routes_timed(args.seed, size),
        "query-warm-net1" => online::timed(args.seed, size),
        _ => serve::timed(args.seed, size)?,
    };
    let calib_after = host::calib_ms();
    put(&mut run.metrics, "peak_rss_mb", host::peak_rss_mb());
    print_calib(calib_before, calib_after);

    if args.write_expected {
        oracle::write_expected(workload, &run.facts).map_err(|e| format!("write expected: {e}"))?;
    } else if !args.quick {
        let seed1 = args.seed == 1 && args.seconds == spec::NOMINAL_SECONDS;
        oracle::check_expected(workload, seed1, &run.facts, &mut run.verdict);
    }
    for reason in &run.verdict.reasons {
        println!("WRONG: {reason}");
    }

    println!(
        "{workload} timed run, seed {}, {} answers attempted",
        args.seed, run.attempted
    );
    let row = |name: &str, unit: &str| match run.metrics.get(name) {
        Some(s) => println!(
            "  {name:<16} {:>14.4} {unit:<5} {}",
            s.value,
            samples_label(s)
        ),
        None => println!("  {name:<16} {:>14} {unit:<5}", "—"),
    };
    for (name, unit) in [
        ("setup_s", "s"),
        ("answer_p50_ms", "ms"),
        ("answer_p90_ms", "ms"),
        ("answers_per_s", "1/s"),
        ("write_p50_ms", "ms"),
        ("diff_p50_ms", "ms"),
        ("peak_rss_mb", "MB"),
    ] {
        row(name, unit);
    }
    println!(
        "  {:<16} {:>14.4} ratio ({} of {})",
        "failed_share",
        run.failed as f64 / run.attempted as f64,
        run.failed,
        run.attempted
    );
    println!(
        "  {:<16} {:>14} count ({} checks)",
        "wrong_answers", run.verdict.wrong, run.verdict.checked
    );

    let mut counts = String::from("counts {");
    for (i, (name, value)) in run.counts.iter().enumerate() {
        let _ = write!(
            counts,
            "{}\"{name}\": {value}",
            if i > 0 { ", " } else { "" }
        );
    }
    println!("{counts}}}");
    let names: Vec<_> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    print_result(
        run.verdict.wrong == 0,
        run.attempted,
        run.failed,
        &run.metrics,
        &names,
    )
}

fn print_calib(before: f64, after: f64) {
    println!("host.calib_ms before {before:.1} after {after:.1} (fixed BDD kernel; raw metrics are not normalised by it)");
}

/// `n=…` for a median or percentile, nothing for a plain reading.
fn samples_label(s: &spec::Sample) -> String {
    s.n.map(|n| format!("n={n}")).unwrap_or_default()
}

/// Prints the result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `names`. A metric that
/// is missing or not finite is a broken run, not a zero.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    names: &[(&str, &str)],
) -> Result<bool, String> {
    let mut out =
        format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = metrics
            .get(*name)
            .map(|s| s.value)
            .filter(|v| v.is_finite());
        let value =
            value.ok_or_else(|| format!("metric {name} was not measured (too few samples?)"))?;
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": ",
            if i > 0 { ", " } else { "" }
        );
        json::write_f64(&mut out, value);
        let _ = write!(out, ", \"unit\": \"{unit}\"}}");
    }
    println!("{out}}}}}");
    Ok(correct && failed == 0)
}

/// Per-layer numbers of a traced run, each tagged with the network it
/// was measured on. A workload's own stages are absorbed first; layers
/// it never reaches are then filled from a probe on N2.
#[derive(Default)]
struct Layered {
    metrics: Metrics,
    net_of: BTreeMap<String, &'static str>,
}

impl Layered {
    fn absorb(&mut self, from: Metrics, net: &'static str) {
        for (name, sample) in from {
            if !self.metrics.contains_key(&name) {
                self.net_of.insert(name.clone(), net);
                self.metrics.insert(name, sample);
            }
        }
    }
}

/// Service questions asked by the N2 probe and the serve workload's
/// staged pass.
const PROBE_QUESTIONS: usize = 20;
/// Service questions on N7 in `verify-n7`'s traced run (≈1.6 s each).
const VERIFY_TRACE_QUESTIONS: usize = 2;
/// Requests per client of the serve probe: enough `/query/reach`
/// samples (110) for a p90 with ten beyond it.
const PROBE_REQUESTS_PER_CLIENT: usize = 100;

fn traced_run(
    workload: &str,
    args: &Args,
    size: Size,
    host: &str,
    calib_before: f64,
) -> Result<bool, String> {
    let started = batnet::obs::now();
    let mut rec = Recorder::new();
    let mut layers = Layered::default();
    let seed = args.seed;
    let (id, net) = inputs::workload_net(workload, size.quick);
    let n2 = inputs::workload_net("serve-mix-n2", size.quick).1;
    let probe = Depth::Full {
        questions: PROBE_QUESTIONS,
    };
    let probe_requests = if size.quick {
        50
    } else {
        PROBE_REQUESTS_PER_CLIENT
    };
    match workload {
        "verify-n7" => {
            let depth = Depth::Full {
                questions: VERIFY_TRACE_QUESTIONS,
            };
            layers.absorb(staged(&mut rec, id, net, depth, seed), id);
        }
        "routes-n11" => {
            layers.absorb(staged(&mut rec, id, net, Depth::Routes, seed), id);
            layers.absorb(staged(&mut rec, "N2", n2, probe, seed), "N2");
        }
        "query-warm-net1" => {
            let questions = size.count(spec::QUERY_QUESTIONS, 10);
            layers.absorb(
                staged(&mut rec, id, net, Depth::Full { questions }, seed),
                id,
            );
        }
        _ => {
            let per_client = serve::per_client(size).max(probe_requests);
            layers.absorb(serve::traced(seed, per_client, &mut rec)?, id);
            layers.absorb(staged(&mut rec, id, net, probe, seed), id);
        }
    }
    if workload != "serve-mix-n2" {
        layers.absorb(serve::traced(seed, probe_requests, &mut rec)?, "N2");
    }

    let pool = batnet_exec::current();
    let mut own = Metrics::new();
    put(&mut own, "exec.threads", pool.threads() as f64);
    put(&mut own, "exec.steals", pool.stats().steals as f64);
    put(&mut own, "exec.map_floor_us", stages::map_floor_us());
    put(
        &mut own,
        "host.nproc",
        batnet_exec::default_threads() as f64,
    );
    put(&mut own, "host.calib_ms", calib_before);
    let recording_s = rec.len() as f64 * Recorder::cost_per_span_ns() / 1e9;
    put(
        &mut own,
        "trace.overhead_share",
        recording_s / started.elapsed().as_secs_f64(),
    );
    layers.absorb(own, "host");
    print_calib(calib_before, host::calib_ms());

    println!("{workload} traced run, seed {seed}, {} spans", rec.len());
    let mut tagged = Vec::new();
    for &(name, unit, _) in PER_LAYER {
        let (Some(s), Some(net)) = (layers.metrics.get(name), layers.net_of.get(name)) else {
            continue;
        };
        println!(
            "  {name:<34} {:>16.4} {unit:<6} {:<7} {net}",
            s.value,
            samples_label(s)
        );
        tagged.push((name, s.value, *net));
    }
    let path = spec::bench_path(&format!("out/trace-{workload}.json"));
    std::fs::create_dir_all(spec::bench_path("out")).map_err(|e| format!("out/: {e}"))?;
    std::fs::write(&path, rec.to_json(workload, host, &tagged))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    let share = layers
        .metrics
        .get("trace.stage_sum_share")
        .map_or(f64::NAN, |s| s.value);
    if !(0.9..=1.1).contains(&share) {
        println!("note: trace.stage_sum_share {share:.3} is outside 0.9–1.1: the stage split is not the facade's work");
    }
    let names: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    print_result(true, 1, 0, &layers.metrics, &names)
}

/// A child run's parsed output.
struct ChildResult {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, f64>,
}

/// Runs this binary as `--workload … --trace …` in a child process,
/// echoes its output and parses the result and `counts` lines.
fn child(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let object = |line: Option<&str>| -> BTreeMap<String, Value> {
        match line.and_then(|l| json::parse(l).ok()) {
            Some(Value::Obj(m)) => m,
            _ => BTreeMap::new(),
        }
    };
    let result = object(text.lines().last());
    let metrics = match result.get("metrics") {
        Some(Value::Obj(m)) => m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    };
    let counts = object(text.lines().find_map(|l| l.strip_prefix("counts ")));
    Ok(ChildResult {
        ok: out.status.success() && result.get("correct") == Some(&Value::Bool(true)),
        metrics,
        counts: counts
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.all || args.workload.as_deref() == Some(w))
        .collect()
}

/// `run`: a timed and a traced child per selected workload.
fn run_children(args: &Args) -> Result<bool, String> {
    let workloads = selected(args);
    if workloads.is_empty() {
        return Err("run needs --all or --workload W".to_string());
    }
    let mut ok = true;
    for w in &workloads {
        for trace in [false, true] {
            println!("==== {w} ({}) ====", if trace { "traced" } else { "timed" });
            let r = child(w, args, trace)?;
            let names: Vec<&str> = if trace {
                PER_LAYER.iter().map(|m| m.0).collect()
            } else {
                END_TO_END.iter().map(|m| m.0).collect()
            };
            let complete =
                names.iter().all(|n| r.metrics.contains_key(*n)) && r.metrics.len() == names.len();
            if !r.ok || !complete {
                println!(
                    "FAILED: {w} ({}): ok={} all metrics present={complete}",
                    if trace { "traced" } else { "timed" },
                    r.ok
                );
                ok = false;
            }
        }
    }
    match spec::validate_benchmark_json() {
        Ok(()) => println!("BENCHMARK.json names, units, directions and bounds match this program"),
        Err(e) => {
            println!("FAILED: {e}");
            ok = false;
        }
    }
    println!(
        "{}",
        if ok {
            "benchmark run: ok"
        } else {
            "benchmark run: FAILED"
        }
    );
    Ok(ok)
}

/// `selfcheck`: two full sets of timed runs of the same build must agree
/// within the benchmark's own bounds, and every count must repeat
/// exactly.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let mut sets = Vec::new();
    for set in 1..=2 {
        let mut runs = Vec::new();
        for w in WORKLOADS {
            println!("==== selfcheck set {set}: {w} ====");
            runs.push(child(w, args, false)?);
        }
        sets.push(runs);
    }
    let mut ok = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "set 1", "set 2", "bound"
    );
    for (i, w) in WORKLOADS.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        ok &= a.ok && b.ok;
        for &(name, _, _, bound) in END_TO_END {
            let (x, y) = (
                a.metrics.get(name).copied().unwrap_or(f64::NAN),
                b.metrics.get(name).copied().unwrap_or(f64::NAN),
            );
            let agree = (x - y).abs() <= bound * x.min(y);
            ok &= agree;
            println!(
                "{w:<18} {name:<24} {x:>14.4} {y:>14.4} {:>7.0}%  {}",
                bound * 100.0,
                if agree { "agree" } else { "unresolved" }
            );
        }
        for (name, x) in &a.counts {
            let y = b.counts.get(name).copied().unwrap_or(f64::NAN);
            let agree = *x == y;
            ok &= agree;
            println!(
                "{w:<18} {name:<24} {x:>14} {y:>14} {:>8}  {}",
                "exact",
                if agree { "agree" } else { "unresolved" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck: two sets of runs agree"
        } else {
            "selfcheck: FAILED"
        }
    );
    Ok(ok)
}
