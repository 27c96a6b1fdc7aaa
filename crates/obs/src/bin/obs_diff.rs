//! The bench-file structure gate: fails when a `BENCH_*.json` lost a
//! stage or grew a row the committed baseline does not have.
//!
//! ```text
//! usage: obs-diff [OPTIONS] BASELINE NEW
//!
//! Compare the row sets (bench/network/stage keys) of two bench files.
//! Time is not read; wall-clock between revisions is the benchmark's job.
//! Exit 0 same rows (networks absent from NEW only warn), 1 a missing or
//! unexpected row, 2 usage errors or schema-invalid input.
//!
//! options:
//!   --json  emit the verdict as JSON
//!   --help  print this help and exit
//! ```

use batnet_obs::diff::diff_bench;
use batnet_obs::flags::{Cli, Flag};
use batnet_obs::json::{self, Value};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "obs-diff",
    about: "Compare the row sets (bench/network/stage keys) of two bench files.\n\
            Time is not read; wall-clock between revisions is the benchmark's job.\n\
            Exit 0 same rows (networks absent from NEW only warn), 1 a missing or\n\
            unexpected row, 2 usage errors or schema-invalid input.",
    positional: "BASELINE NEW",
    flags: &[Flag::switch("--json", "emit the verdict as JSON")],
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
        let report = diff_bench(&load(base)?, &load(new)?)?;
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
