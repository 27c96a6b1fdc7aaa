//! `batnet-lint` — run the configuration static-analysis engine from the
//! command line.
//!
//! ```text
//! usage: batnet-lint [OPTIONS]
//!
//! Lint a suite network (--net) or a snapshot directory (--dir); exactly one is required.
//! Exit 0 clean or below --deny, 1 findings at or above --deny, 2 usage or I/O error.
//!
//! options:
//!   --net ID                   suite network to load (N2, NET1, N3 ... N11)
//!   --dir PATH                 snapshot directory: one config file per device, file stem = device name
//!   --format text|json|sarif   report format (default text)
//!   --deny info|warning|error  exit 1 when a finding has this severity or worse
//!   --baseline FILE            mute the findings whose fingerprints FILE lists
//!   --write-baseline FILE      record this run's fingerprints to FILE
//!   --out FILE                 write the output to FILE instead of stdout
//!   --drift DEVICE             plant a policy drift on DEVICE before linting (DNS ACL port 53 -> 5353)
//!   --deadline-ms N            wall-clock budget; a blown deadline yields a partial result, never a hang
//!   --help                     print this help and exit
//! ```
//!
//! The binary never panics on input: configs are parsed through the
//! diagnostic-collecting `parse_device`, and parse problems become
//! findings, not aborts. Reports carry no timestamps, so two runs emit
//! byte-identical output.

use batnet::config::{parse_device, Topology};
use batnet::lint::{output, run_network_governed, Severity};
use batnet::obs::flags::{self, Cli, Flag};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "batnet-lint",
    about:
        "Lint a suite network (--net) or a snapshot directory (--dir); exactly one is required.\n\
            Exit 0 clean or below --deny, 1 findings at or above --deny, 2 usage or I/O error.",
    positional: "",
    flags: &[
        flags::NET,
        flags::DIR,
        Flag::choice(
            "--format",
            &["text", "json", "sarif"],
            "report format (default text)",
        ),
        Flag::choice(
            "--deny",
            &["info", "warning", "error"],
            "exit 1 when a finding has this severity or worse",
        ),
        Flag::text(
            "--baseline",
            "FILE",
            "mute the findings whose fingerprints FILE lists",
        ),
        Flag::text(
            "--write-baseline",
            "FILE",
            "record this run's fingerprints to FILE",
        ),
        flags::OUT,
        Flag::text(
            "--drift",
            "DEVICE",
            "plant a policy drift on DEVICE before linting (DNS ACL port 53 -> 5353)",
        ),
        flags::DEADLINE_MS,
    ],
};

fn run(args: &flags::Parsed<'_>) -> Result<ExitCode, String> {
    let mut net = batnet_repro::load_source(CLI.bin, args.text("--net"), args.text("--dir"))?;
    if let Some(victim) = args.text("--drift") {
        if !net.seed_policy_drift(victim) {
            return Err(format!("--drift: no DNS ACL line to perturb on '{victim}'"));
        }
    }
    let span = batnet::obs::Span::enter("lint.cli");
    let mut devices = Vec::with_capacity(net.configs.len());
    let mut diags = Vec::with_capacity(net.configs.len());
    for (name, text) in &net.configs {
        let (device, dg) = parse_device(name, text);
        devices.push(device);
        diags.push((name.clone(), dg.into_items()));
    }
    let gov = batnet_repro::governor(args.num("--deadline-ms"));
    let topo = Topology::infer(&devices);
    let (mut findings, partial) = run_network_governed(&devices, &topo, &diags, &gov).into_parts();
    span.close();
    if let Some((abandoned, why)) = &partial {
        batnet::obs::counter_add("lint.partial", 1);
        eprintln!(
            "batnet-lint: partial result: {why}; abandoned passes: {}",
            abandoned.join(", ")
        );
    }

    if let Some(path) = args.text("--write-baseline") {
        std::fs::write(path, output::write_baseline(&findings))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = args.text("--baseline") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let fps = output::parse_baseline(&text).map_err(|e| format!("{path}: {e}"))?;
        let (kept, muted) = output::apply_baseline(findings, &fps);
        findings = kept;
        batnet::obs::counter_add("lint.baselined", muted as u64);
    }

    let rendered = match args.text("--format") {
        Some("json") => output::render_json(&net.name, &findings),
        Some("sarif") => output::render_sarif(&findings),
        _ => output::render_text(&findings),
    };
    flags::emit(args.text("--out"), &rendered)?;

    if let Some(deny) = args.text("--deny") {
        let deny: Severity = deny.parse()?;
        let over = findings.iter().filter(|f| f.severity >= deny).count();
        if over > 0 {
            eprintln!("batnet-lint: {over} finding(s) at or above --deny {deny}");
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    CLI.main(run)
}
