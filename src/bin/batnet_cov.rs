//! `batnet-cov` — config coverage analysis from the command line.
//!
//! ```text
//! usage: batnet-cov [OPTIONS]
//!
//! Classify every ACL line, route-map clause and BGP neighbor of a suite network (--net)
//! or a snapshot directory (--dir) as exercised, shadowed or never-touched; exactly one
//! of the two is required. Exit 0 clean or nothing at --deny, 1 denied gaps present,
//! 2 usage or I/O error.
//!
//! options:
//!   --net ID                  suite network to load (N2, NET1, N3 ... N11)
//!   --dir PATH                snapshot directory: one config file per device, file stem = device name
//!   --format text|json|sarif  report format (default text)
//!   --deny gap|shadow         exit 1 on never-touched items (gap) or on any coverage gap (shadow)
//!   --out FILE                write the output to FILE instead of stdout
//!   --help                    print this help and exit
//! ```
//!
//! `--deny gap` fails on never-touched items; `--deny shadow` also
//! fails on shadowed ones. The JSON report (`batnet-cov/v1`) is
//! deterministic — byte-identical across runs and device orderings —
//! and `obs-validate` re-checks one against the in-tree schema.

use batnet::config::{parse_device, Topology};
use batnet::config::vi::Device;
use batnet::obs::flags::{self, Cli, Flag};
use batnet_coverage::{analyze, render_json, render_text};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "batnet-cov",
    about:
        "Classify every ACL line, route-map clause and BGP neighbor of a suite network (--net)\n\
            or a snapshot directory (--dir) as exercised, shadowed or never-touched; exactly one\n\
            of the two is required. Exit 0 clean or nothing at --deny, 1 denied gaps present,\n\
            2 usage or I/O error.",
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
            &["gap", "shadow"],
            "exit 1 on never-touched items (gap) or on any coverage gap (shadow)",
        ),
        flags::OUT,
    ],
};

fn run(args: &flags::Parsed<'_>) -> Result<ExitCode, String> {
    let net = batnet_repro::load_source(CLI.bin, args.text("--net"), args.text("--dir"))?;
    let devices: Vec<Device> = net
        .configs
        .iter()
        .map(|(name, text)| {
            let (mut d, _) = parse_device(name, text);
            d.stamp_source_file(name);
            d
        })
        .collect();
    let topo = Topology::infer(&devices);
    let report = analyze(&devices, &topo);
    let rendered = match args.text("--format") {
        Some("json") => render_json(&net.name, &report),
        Some("sarif") => {
            batnet::lint::output::render_sarif(&batnet::lint::unexercised_config(&devices, &topo))
        }
        _ => render_text(&net.name, &report),
    };
    flags::emit(args.text("--out"), &rendered)?;
    if let Some(deny) = args.text("--deny") {
        let blocked = match deny {
            "gap" => report.never_touched().count(),
            _ => report.gaps().count(),
        };
        if blocked > 0 {
            eprintln!(
                "batnet-cov: {blocked} coverage gap(s) at or above the --deny {deny} threshold"
            );
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    CLI.main(run)
}
