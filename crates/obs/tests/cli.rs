//! The CLI contract (see `tests/support/cli_contract.rs` at the
//! workspace root) over this package's binaries.

#[path = "../../../tests/support/cli_contract.rs"]
mod contract;

#[test]
fn obs_tools_honour_the_cli_contract() {
    let repo = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    contract::check(
        env!("CARGO_BIN_EXE_obs-diff"),
        repo,
        "crates/obs/src/bin/obs_diff.rs",
    );
    contract::check(
        env!("CARGO_BIN_EXE_obs-trace"),
        repo,
        "crates/obs/src/bin/obs_trace.rs",
    );
}
