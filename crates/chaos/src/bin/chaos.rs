//! Chaos sweep CLI: inject faults, assert zero panics and monotone
//! degradation — in the pipeline (invariants 1–7, 10, and the
//! parallel-engine parity sweep of 12), and against a live
//! `batnet-serve` under adversarial clients (invariants 8–9).
//!
//! ```text
//! usage: chaos [OPTIONS]
//!
//! Sweep seeded faults over suite networks and a live batnet-serve.
//! Exit 0 every invariant held, 1 on any violation, 2 usage error.
//!
//! options:
//!   --seeds N          pipeline seeds 1..=N per network and class (default 25)
//!   --classes LIST     comma-separated mutation classes: truncate, duplicate, garbage, delete-stanza, undefined-ref, link-flap (default all)
//!   --nets LIST        comma-separated suite network ids (default net1,n2)
//!   --victims N        victim devices per text mutation (default 2)
//!   --deadline-secs N  per-run wall-clock deadline (default 120)
//!   --serve-seeds N    adversaries per abuse class against the service; 0 skips it (default 5)
//!   --help             print this help and exit
//! ```

#![deny(clippy::unwrap_used, clippy::panic)]

use batnet_chaos::{run_chaos, run_serve_chaos, ChaosConfig, MutationClass, ServeChaosConfig};
use batnet_obs::flags::{Cli, Flag};
use std::process::ExitCode;
use std::time::Duration;

static CLI: Cli = Cli {
    bin: "chaos",
    about: "Sweep seeded faults over suite networks and a live batnet-serve.\n\
            Exit 0 every invariant held, 1 on any violation, 2 usage error.",
    positional: "",
    flags: &[
        Flag::positive("--seeds", "pipeline seeds 1..=N per network and class (default 25)"),
        Flag::text(
            "--classes",
            "LIST",
            "comma-separated mutation classes: truncate, duplicate, garbage, delete-stanza, \
             undefined-ref, link-flap (default all)",
        ),
        Flag::text("--nets", "LIST", "comma-separated suite network ids (default net1,n2)"),
        Flag::positive("--victims", "victim devices per text mutation (default 2)"),
        Flag::positive("--deadline-secs", "per-run wall-clock deadline (default 120)"),
        Flag::uint("--serve-seeds", "adversaries per abuse class against the service; 0 skips it (default 5)"),
    ],
};

fn main() -> ExitCode {
    let args = CLI.parse_env();
    let mut cfg = ChaosConfig::default();
    let mut serve_cfg = ServeChaosConfig::default();
    if let Some(n) = args.num::<u64>("--seeds") {
        cfg.seeds = (1..=n).collect();
    }
    if let Some(list) = args.text("--classes") {
        cfg.classes = list
            .split(',')
            .map(|name| {
                MutationClass::from_name(name.trim())
                    .unwrap_or_else(|| CLI.fail(&format!("unknown mutation class {name:?}")))
            })
            .collect();
    }
    if let Some(n) = args.num("--victims") {
        cfg.victims_per_run = n;
    }
    if let Some(n) = args.num("--deadline-secs") {
        cfg.deadline = Duration::from_secs(n);
    }
    if let Some(n) = args.num::<u64>("--serve-seeds") {
        serve_cfg.seeds = (1..=n).collect();
    }
    let nets: Vec<_> = args
        .text("--nets")
        .unwrap_or("net1,n2")
        .split(',')
        .map(|id| match batnet_topogen::suite::find(id.trim()) {
            Ok(entry) => (entry.build)(),
            Err(e) => CLI.fail(&e),
        })
        .collect();

    let t0 = batnet_obs::clock::now();
    let report = run_chaos(&nets, &cfg);
    let elapsed = t0.elapsed();
    println!(
        "chaos: {} runs over {} nets x {} classes x {} seeds in {:.1}s",
        report.total(),
        nets.len(),
        cfg.classes.len(),
        cfg.seeds.len(),
        elapsed.as_secs_f64()
    );
    println!(
        "chaos: {} devices quarantined across all runs",
        report.quarantine_total()
    );
    let mut violations = report.violations();

    if serve_cfg.seeds.is_empty() {
        println!("chaos: serve sweep skipped (--serve-seeds 0)");
    } else {
        let t1 = batnet_obs::clock::now();
        let serve_report = run_serve_chaos(&serve_cfg);
        println!(
            "chaos: serve sweep — {} adversarial connections, {} probes in {:.1}s",
            serve_report.connections,
            serve_report.probes,
            t1.elapsed().as_secs_f64()
        );
        for (class, n) in &serve_report.rejections {
            println!("chaos: serve rejected {n} as {class}, all accounted");
        }
        println!(
            "chaos: serve traced {} requests — {} retained + {} evicted in the ring",
            serve_report.requests, serve_report.traces_retained, serve_report.traces_evicted
        );
        violations.extend(
            serve_report
                .violations
                .iter()
                .map(|v| format!("[serve] {v}")),
        );
    }

    if violations.is_empty() {
        println!("chaos: PASS — zero panics, monotone degradation, valid run reports");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("chaos: VIOLATION {v}");
        }
        eprintln!("chaos: FAIL — {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}
