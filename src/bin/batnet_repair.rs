//! `batnet-repair` — minimal automatic repair from the command line.
//!
//! ```text
//! usage: batnet-repair [OPTIONS]
//!
//! Search for the smallest config patch that fixes one lint finding (--dir with --check)
//! or that makes a failing diff empty again (--before with --after).
//! Exit 0 patch emitted or nothing to repair, 1 no candidate passed validation,
//! 2 usage or I/O error.
//!
//! options:
//!   --dir PATH          snapshot directory: one config file per device, file stem = device name
//!   --check ID          lint mode: the check whose first finding to repair
//!   --device NAME       lint mode: only consider findings on this device
//!   --before PATH       diff mode: the snapshot directory that was fine
//!   --after PATH        diff mode: the snapshot directory to patch
//!   --out FILE          write the output to FILE instead of stdout
//!   --max-candidates N  cap on candidate patches tried
//!   --help              print this help and exit
//! ```
//!
//! Lint mode targets the first finding of `--check` (optionally on
//! `--device`) and searches for the smallest patch that makes it vanish
//! while changing nothing else — no route or reachability deltas, no
//! other finding added or removed. Diff mode targets a failing
//! `diff(before, after)` and finds the smallest edit to *after* that
//! makes the diff empty at every layer.
//!
//! The accepted patch is written as a unified diff (one context line)
//! to `--out` or stdout; the candidate accounting goes to stderr.

use batnet::obs::flags::{self, Cli, Flag};
use batnet_coverage::repair::{repair_diff, repair_lint, RepairLimits};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "batnet-repair",
    about:
        "Search for the smallest config patch that fixes one lint finding (--dir with --check)\n\
            or that makes a failing diff empty again (--before with --after).\n\
            Exit 0 patch emitted or nothing to repair, 1 no candidate passed validation,\n\
            2 usage or I/O error.",
    positional: "",
    flags: &[
        flags::DIR,
        Flag::text(
            "--check",
            "ID",
            "lint mode: the check whose first finding to repair",
        ),
        Flag::text(
            "--device",
            "NAME",
            "lint mode: only consider findings on this device",
        ),
        Flag::text(
            "--before",
            "PATH",
            "diff mode: the snapshot directory that was fine",
        ),
        Flag::text(
            "--after",
            "PATH",
            "diff mode: the snapshot directory to patch",
        ),
        flags::OUT,
        Flag::uint("--max-candidates", "cap on candidate patches tried"),
    ],
};

fn load(dir: &str) -> Result<Vec<(String, String)>, String> {
    Ok(batnet_repro::load_source(CLI.bin, None, Some(dir))?.configs)
}

fn run(args: &flags::Parsed<'_>) -> Result<ExitCode, String> {
    let mut limits = RepairLimits::default();
    if let Some(n) = args.num("--max-candidates") {
        limits.max_candidates = n;
    }
    let outcome = match (
        args.text("--dir"),
        args.text("--before"),
        args.text("--after"),
    ) {
        (Some(dir), None, None) => {
            let check = args
                .text("--check")
                .unwrap_or_else(|| CLI.fail("--dir needs --check"));
            repair_lint(&load(dir)?, check, args.text("--device"), &limits)?
        }
        (None, Some(before), Some(after)) => repair_diff(&load(before)?, &load(after)?, &limits)?,
        _ => CLI.fail("give --dir with --check, or --before with --after"),
    };
    eprintln!("batnet-repair: target: {}", outcome.target);
    eprintln!("batnet-repair: {}", outcome.summary());
    match &outcome.patch {
        Some(patch) => {
            flags::emit(args.text("--out"), &patch.unified())?;
            Ok(ExitCode::SUCCESS)
        }
        None if outcome.tried == 0 => {
            eprintln!("batnet-repair: nothing to repair");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("batnet-repair: no candidate patch passed validation");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    CLI.main(run)
}
