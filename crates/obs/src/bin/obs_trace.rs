//! Exports batnet span forests as Chrome trace JSON or folded-stack
//! flamegraph text.
//!
//! ```text
//! usage: obs-trace [OPTIONS] INPUT
//!
//! Export INPUT — a run-report JSON file, a BENCH_*.json bench file (its embedded report
//! is used), or a /tracez dump (one span tree per retained request) — as a Chrome trace
//! or as folded flamegraph stacks (exact self microseconds per span path).
//! Exit 0 exported, 1 the input cannot be exported, 2 usage error.
//!
//! options:
//!   --format chrome|folded  output format (default chrome)
//!   --out FILE              write the output to FILE instead of stdout
//!   --help                  print this help and exit
//! ```
//!
//! The Chrome output loads in Perfetto or `chrome://tracing` (open the
//! UI, drag the file in); it is validated against the in-tree checker
//! before it is written, so `obs-trace` never emits a trace Perfetto
//! would reject (`obs-validate` re-checks an existing trace file). Every
//! root span gets its own lane, so a `/tracez` dump renders one lane per
//! request.

use batnet_obs::flags::{self, Cli, Flag};
use batnet_obs::json::{self, Value};
use batnet_obs::trace::{chrome_trace, folded, forest_from_json, validate_chrome_trace, SpanNode};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "obs-trace",
    about: "Export INPUT — a run-report JSON file, a BENCH_*.json bench file (its embedded report\n\
            is used), or a /tracez dump (one span tree per retained request) — as a Chrome trace\n\
            or as folded flamegraph stacks (exact self microseconds per span path).\n\
            Exit 0 exported, 1 the input cannot be exported, 2 usage error.",
    positional: "INPUT",
    flags: &[
        Flag::choice("--format", &["chrome", "folded"], "output format (default chrome)"),
        flags::OUT,
    ],
};

/// The span forest `doc` carries. Every `/tracez` trace holds its
/// request's tree in the run-report shape, so a dump is the forest of
/// all retained requests.
fn forest(doc: &Value) -> Result<Vec<SpanNode>, String> {
    if doc.get("traces").is_some() {
        let mut forest = Vec::new();
        for trace in doc.arr("traces")? {
            forest.extend(forest_from_json(trace)?);
        }
        return Ok(forest);
    }
    // A bench file embeds its run report under "report".
    let report = if doc.get("bench").is_some() {
        doc.get("report")
            .ok_or("bench file has no embedded report")?
    } else {
        doc
    };
    forest_from_json(report)
}

/// Renders `doc` in the requested format.
fn export(doc: Value, chrome: bool) -> Result<String, String> {
    let forest = forest(&doc)?;
    if !chrome {
        return Ok(folded(&forest));
    }
    let text = chrome_trace(&forest);
    // Never emit a trace the validator would reject.
    let events = json::parse(&text)
        .and_then(|v| validate_chrome_trace(&v).and_then(|()| Ok(v.arr("traceEvents")?.len())))
        .map_err(|e| format!("internal error, rendered trace invalid: {e}"))?;
    eprintln!("obs-trace: {events} events, validated");
    Ok(text)
}

fn main() -> ExitCode {
    CLI.main(|args| {
        let [input] = args.args.as_slice() else {
            CLI.fail("expected exactly one INPUT file");
        };
        let rendered = std::fs::read_to_string(input)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text).map_err(|e| format!("not valid JSON: {e}")))
            .and_then(|doc| export(doc, args.text("--format") != Some("folded")));
        let written = rendered
            .map_err(|e| format!("{input}: {e}"))
            .and_then(|text| flags::emit(args.text("--out"), &text));
        Ok(match written {
            Ok(()) => {
                if let Some(path) = args.text("--out") {
                    println!("wrote {path}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs-trace: {e}");
                ExitCode::FAILURE
            }
        })
    })
}
