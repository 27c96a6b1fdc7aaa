//! The CLI contract (see `tests/support/cli_contract.rs` at the
//! workspace root) over `harness`.

#[path = "../../../tests/support/cli_contract.rs"]
mod contract;

const HARNESS: &str = env!("CARGO_BIN_EXE_harness");

#[test]
fn harness_honours_the_cli_contract() {
    let repo = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let help = contract::check(HARNESS, repo, "crates/bench/src/bin/harness.rs");
    // A flag the chosen experiment does not read is misuse, not a no-op.
    for misuse in [
        &["diff", "--net", "N7"][..],
        &["fig1", "--json"],
        &["apt", "--out", "f.json"],
        &["all", "--out", "f.json"],
        &["table1", "--net", "N2"],
        &["no-such-experiment"],
    ] {
        contract::assert_misuse(HARNESS, misuse, &help);
    }
}

/// A bench file that cannot be written fails the run: a gate downstream
/// would otherwise validate whatever an earlier run left at that path.
#[test]
fn a_failed_write_exits_nonzero() {
    let out = std::process::Command::new(HARNESS)
        .args(["lint", "--net", "N2", "--out", "/nonexistent-dir/x.json"])
        .output()
        .expect("harness runs");
    assert_eq!(out.status.code(), Some(1), "a failed write must exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to write /nonexistent-dir/x.json"),
        "{stderr}"
    );
}
