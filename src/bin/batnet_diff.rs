//! `batnet-diff` — differential snapshot analysis from the command line.
//!
//! ```text
//! usage: batnet-diff [OPTIONS]
//!
//! Compare two snapshot directories (--before with --after), or a suite network (--net)
//! against a seeded perturbation of itself (--scenario; without it the network is
//! diffed against itself and the result must be empty).
//! Exit 0 clean or no --deny given, 1 the denied layer has differences,
//! 2 usage or I/O error.
//!
//! options:
//!   --before DIR                        the snapshot directory before the change
//!   --after DIR                         the snapshot directory after the change
//!   --net ID                            suite network to load (N2, NET1, N3 ... N11)
//!   --scenario NAME                     with --net: the change to apply to a seed-chosen victim
//!   --seed N                            with --scenario: picks the victim (default 1)
//!   --format text|json                  report format (default text)
//!   --out FILE                          write the output to FILE instead of stdout
//!   --deny any|structural|routes|reach  exit 1 when the named layer (or any layer) has differences
//!   --max-flows N                       cap on example-flow witnesses
//!   --max-starts N                      cap on start locations compared symbolically (0 = all)
//!   --deadline-ms N                     wall-clock budget; a blown deadline yields a partial result, never a hang
//!   --threads N                         size of the shared execution pool (0 or omitted = all cores)
//!   --help                              print this help and exit
//! ```
//!
//! Unreadable or unparseable devices are quarantined, reported in the
//! output, and excluded from the comparison — they never abort the run.
//! JSON output is byte-identical across runs and thread counts.

use batnet::diff::{render_json, render_text, DiffOptions};
use batnet::obs::flags::{self, Cli, Flag};
use batnet::Snapshot;
use batnet_topogen::perturb::{perturb, Scenario};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "batnet-diff",
    about: "Compare two snapshot directories (--before with --after), or a suite network (--net)\n\
            against a seeded perturbation of itself (--scenario; without it the network is\n\
            diffed against itself and the result must be empty).\n\
            Exit 0 clean or no --deny given, 1 the denied layer has differences,\n\
            2 usage or I/O error.",
    positional: "",
    flags: &[
        Flag::text(
            "--before",
            "DIR",
            "the snapshot directory before the change",
        ),
        Flag::text("--after", "DIR", "the snapshot directory after the change"),
        flags::NET,
        Flag::text(
            "--scenario",
            "NAME",
            "with --net: the change to apply to a seed-chosen victim",
        ),
        Flag::uint("--seed", "with --scenario: picks the victim (default 1)"),
        Flag::choice(
            "--format",
            &["text", "json"],
            "report format (default text)",
        ),
        flags::OUT,
        Flag::choice(
            "--deny",
            &["any", "structural", "routes", "reach"],
            "exit 1 when the named layer (or any layer) has differences",
        ),
        Flag::uint("--max-flows", "cap on example-flow witnesses"),
        Flag::uint(
            "--max-starts",
            "cap on start locations compared symbolically (0 = all)",
        ),
        flags::DEADLINE_MS,
        flags::THREADS,
    ],
};

fn from_dir(flag: &str, dir: &str) -> Result<Snapshot, String> {
    let snapshot =
        Snapshot::from_dir(std::path::Path::new(dir)).map_err(|e| format!("{flag} {dir}: {e}"))?;
    let load: Vec<_> = snapshot
        .quarantined
        .iter()
        .filter(|q| matches!(q.stage, batnet::QuarantineStage::Load))
        .cloned()
        .collect();
    batnet_repro::report_quarantined(CLI.bin, dir, &load);
    Ok(snapshot)
}

/// Builds the before/after snapshot pair.
fn load_sides(args: &flags::Parsed<'_>) -> Result<(Snapshot, Snapshot), String> {
    let id = match (
        args.text("--before"),
        args.text("--after"),
        args.text("--net"),
    ) {
        (Some(before), Some(after), None) if !args.has("--scenario") => {
            return Ok((from_dir("--before", before)?, from_dir("--after", after)?));
        }
        (None, None, Some(id)) => id,
        _ => CLI.fail("give --before with --after, or --net (optionally with --scenario)"),
    };
    let net = (batnet_topogen::suite::find(id)?.build)();
    let snapshot = |configs| Snapshot::from_configs(configs).with_env(net.env.clone());
    let after = match args.text("--scenario") {
        None => snapshot(net.configs.clone()),
        Some(name) => {
            let scenario = Scenario::from_name(name).ok_or_else(|| {
                let names: Vec<&str> = Scenario::ALL.iter().map(|s| s.name()).collect();
                format!("unknown scenario '{name}' (known: {})", names.join(", "))
            })?;
            let p = perturb(&net, scenario, args.num("--seed").unwrap_or(1))
                .ok_or_else(|| format!("no device on {id} is eligible for scenario '{name}'"))?;
            eprintln!(
                "batnet-diff: {}: {} on {}",
                scenario.name(),
                p.description,
                p.victim
            );
            snapshot(p.configs)
        }
    };
    Ok((snapshot(net.configs.clone()), after))
}

fn run(args: &flags::Parsed<'_>) -> Result<ExitCode, String> {
    if !batnet_exec::configure_threads(args.num("--threads").unwrap_or(0)) {
        return Err("--threads: the execution pool is already sized differently".to_string());
    }
    let (before, after) = load_sides(args)?;

    let mut opts = DiffOptions::default();
    if let Some(n) = args.num("--max-flows") {
        opts.max_flow_deltas = n;
    }
    if let Some(n) = args.num("--max-starts") {
        opts.max_starts = n;
    }
    let gov = batnet_repro::governor(args.num("--deadline-ms"));
    let (diff, partial) = before.diff_with_governed(&after, &opts, &gov).into_parts();
    if let Some((abandoned, why)) = &partial {
        batnet::obs::counter_add("diff.partial", 1);
        eprintln!(
            "batnet-diff: partial result: {why}; layers not compared: {}",
            abandoned.join(", ")
        );
    }

    let rendered = match args.text("--format") {
        Some("json") => render_json(&diff),
        _ => render_text(&diff),
    };
    flags::emit(args.text("--out"), &rendered)?;

    if let Some(deny) = args.text("--deny") {
        let denied = match deny {
            "structural" => !diff.structural.is_empty(),
            "routes" => !diff.routes.is_empty(),
            "reach" => !diff.reach.is_empty(),
            _ => !diff.is_empty(),
        };
        if denied {
            eprintln!(
                "batnet-diff: differences present (--deny {deny}): \
{} structural, {} route, {} changed start(s)",
                diff.structural.change_count(),
                diff.routes.change_count(),
                diff.reach.changed_starts
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    CLI.main(run)
}
