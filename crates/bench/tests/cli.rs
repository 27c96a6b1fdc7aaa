//! The CLI contract (see `tests/support/cli_contract.rs` at the
//! workspace root) over `harness`.

#[path = "../../../tests/support/cli_contract.rs"]
mod contract;

#[test]
fn harness_honours_the_cli_contract() {
    let repo = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    contract::check(
        env!("CARGO_BIN_EXE_harness"),
        repo,
        "crates/bench/src/bin/harness.rs",
    );
}
