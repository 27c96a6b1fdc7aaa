//! The CLI contract (see `tests/support/cli_contract.rs` at the
//! workspace root) over `batnet-serve`.

#[path = "../../../tests/support/cli_contract.rs"]
mod contract;

#[test]
fn batnet_serve_honours_the_cli_contract() {
    let repo = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let exe = env!("CARGO_BIN_EXE_batnet-serve");
    let help = contract::check(exe, repo, "crates/serve/src/bin/batnet_serve.rs");
    // The worker-count knob spawned nothing; it is gone, not deprecated.
    contract::assert_misuse(exe, &["--workers", "4"], &help);
}
