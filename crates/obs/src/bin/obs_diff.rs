//! Compares two bench files or run reports with noise-aware thresholds
//! and exits non-zero on regressions — the perf gate every future
//! change is judged with.
//!
//! ```text
//! usage: obs-diff [OPTIONS] BASELINE NEW
//!
//! Compare a baseline bench file or run report with a new one.
//! Exit 0 clean (improvements and warnings allowed), 1 failing findings,
//! 2 usage errors or incomparable inputs (schema-invalid files, mismatched
//! build profiles without --force).
//!
//! options:
//!   --kind bench|report  force the document kind (default: bench when a "bench" key is present)
//!   --k F                MAD multiplier in the threshold (default 4)
//!   --pct F              relative floor as a fraction (default 0.25)
//!   --min-ms F           absolute floor in ms (default 0.01)
//!   --structure-only     schema/structure gate, ignore timings
//!   --force              compare even across build profiles
//!   --json               emit the verdict as JSON
//!   --help               print this help and exit
//! ```
//!
//! A row regresses only when `|Δmedian| > max(k·MAD, pct·base, min_ms)`.

use batnet_obs::diff::{diff_bench, diff_reports, DiffOptions};
use batnet_obs::flags::{Cli, Flag};
use batnet_obs::json::{self, Value};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "obs-diff",
    about: "Compare a baseline bench file or run report with a new one.\n\
            Exit 0 clean (improvements and warnings allowed), 1 failing findings,\n\
            2 usage errors or incomparable inputs (schema-invalid files, mismatched\n\
            build profiles without --force).",
    positional: "BASELINE NEW",
    flags: &[
        Flag::choice(
            "--kind",
            &["bench", "report"],
            "force the document kind (default: bench when a \"bench\" key is present)",
        ),
        Flag::float("--k", "MAD multiplier in the threshold (default 4)"),
        Flag::float("--pct", "relative floor as a fraction (default 0.25)"),
        Flag::float("--min-ms", "absolute floor in ms (default 0.01)"),
        Flag::switch("--structure-only", "schema/structure gate, ignore timings"),
        Flag::switch("--force", "compare even across build profiles"),
        Flag::switch("--json", "emit the verdict as JSON"),
    ],
};

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
}

fn main() -> ExitCode {
    CLI.main(|args| {
        let [base, new] = args.args.as_slice() else {
            CLI.fail("expected exactly two files: BASELINE NEW");
        };
        let (base, new) = (load(base)?, load(new)?);
        let defaults = DiffOptions::default();
        let opts = DiffOptions {
            k: args.num("--k").unwrap_or(defaults.k),
            pct: args.num("--pct").unwrap_or(defaults.pct),
            min_ms: args.num("--min-ms").unwrap_or(defaults.min_ms),
            structure_only: args.has("--structure-only"),
            force: args.has("--force"),
        };
        let is_bench = match args.text("--kind") {
            Some(kind) => kind == "bench",
            None => base.get("bench").is_some() || new.get("bench").is_some(),
        };
        let report = if is_bench {
            diff_bench(&base, &new, &opts)?
        } else {
            diff_reports(&base, &new, &opts)?
        };
        if args.has("--json") {
            println!("{}", report.render_json());
        } else {
            print!("{}", report.render_text());
        }
        Ok(if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        })
    })
}
