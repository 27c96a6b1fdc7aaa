//! `obs-validate` — the one validator for every JSON artifact the
//! workspace emits.
//!
//! ```text
//! usage: obs-validate [OPTIONS] FILE...
//!
//! Validate JSON artifacts against the in-tree schemas: run reports, BENCH_*.json files,
//! /tracez dumps, trajectory rows (JSONL), Chrome traces, lint SARIF, coverage reports
//! and diff reports. The schema is picked from each document's own marker.
//! Exit 0 every file valid, 1 on the first invalid file, 2 usage error.
//!
//! options:
//!   --help  print this help and exit
//! ```
//!
//! The schema is picked from the document's own marker, never from the
//! file name: a SARIF `version`, a string `schema` tag (`batnet-diff-1`,
//! `batnet-cov/v1`), a `traceEvents` array, or — under the numeric
//! `schema` the telemetry documents share — a `traces` array, a
//! top-level `commit`, a `bench` name, and otherwise a run report. A
//! file that is not one JSON document is read as JSONL and every line
//! is validated on its own (`results/TRAJECTORY.jsonl`).

use batnet::obs::flags::Cli;
use batnet::obs::json::{self, Value};
use batnet::obs::{report, trace};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "obs-validate",
    about: "Validate JSON artifacts against the in-tree schemas: run reports, BENCH_*.json files,\n\
            /tracez dumps, trajectory rows (JSONL), Chrome traces, lint SARIF, coverage reports\n\
            and diff reports. The schema is picked from each document's own marker.\n\
            Exit 0 every file valid, 1 on the first invalid file, 2 usage error.",
    positional: "FILE...",
    flags: &[],
};

/// One artifact family: what it is called, how a document announces
/// itself as one, and its validator.
struct Schema {
    label: &'static str,
    is: fn(&Value) -> bool,
    validate: fn(&Value) -> Result<(), String>,
}

fn schema_tag(v: &Value) -> Option<&str> {
    v.get("schema").and_then(Value::as_str)
}

/// First match wins; the run report is what a schema-1 document is when
/// nothing more specific marks it.
const SCHEMAS: &[Schema] = &[
    Schema {
        label: "lint SARIF",
        is: |v| v.text("version").is_ok(),
        validate: batnet::lint::output::validate_sarif,
    },
    Schema {
        label: "diff report",
        is: |v| schema_tag(v) == Some(batnet::diff::SCHEMA),
        validate: batnet::diff::validate,
    },
    Schema {
        label: "coverage report",
        is: |v| schema_tag(v) == Some(batnet_coverage::SCHEMA),
        validate: batnet_coverage::validate_report,
    },
    Schema {
        label: "Chrome trace",
        is: |v| v.get("traceEvents").is_some(),
        validate: trace::validate_chrome_trace,
    },
    Schema {
        label: "tracez dump",
        is: |v| v.get("traces").is_some(),
        validate: report::validate_tracez,
    },
    Schema {
        label: "perf trajectory row",
        is: |v| v.get("commit").is_some(),
        validate: report::validate_trajectory_row,
    },
    Schema {
        label: "bench schema",
        is: |v| v.get("bench").is_some(),
        validate: report::validate_bench,
    },
    Schema {
        label: "run report",
        is: |v| v.num("schema").is_ok(),
        validate: report::validate_run_report,
    },
];

/// Validates one document by its own marker; returns the schema's label.
fn validate(v: &Value) -> Result<&'static str, String> {
    let schema = SCHEMAS
        .iter()
        .find(|s| (s.is)(v))
        .ok_or("no schema marker (\"schema\", \"version\", \"traceEvents\")")?;
    (schema.validate)(v).map(|()| schema.label)
}

/// Validates a file's text: one JSON document, or (JSONL) one per line.
fn validate_text(text: &str) -> Result<String, String> {
    let whole = match json::parse(text) {
        Ok(v) => return validate(&v).map(str::to_string),
        Err(e) => format!("not valid JSON: {e}"),
    };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    if lines.len() < 2 {
        return Err(whole);
    }
    let mut label = "";
    for (lineno, line) in &lines {
        label = json::parse(line)
            .map_err(|e| format!("not valid JSON: {e}"))
            .and_then(|v| validate(&v))
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    Ok(format!("{label}, {} rows", lines.len()))
}

fn main() -> ExitCode {
    CLI.main(|args| {
        if args.args.is_empty() {
            CLI.fail("no files given");
        }
        for file in &args.args {
            let verdict = std::fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|text| validate_text(&text));
            match verdict {
                Ok(label) => println!("obs-validate: {file}: OK ({label})"),
                Err(e) => {
                    eprintln!("obs-validate: {file}: INVALID: {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        Ok(ExitCode::SUCCESS)
    })
}
