//! The CLI contract (see `support/cli_contract.rs`) over the front ends
//! this package owns.

#[path = "support/cli_contract.rs"]
mod contract;

#[test]
fn front_ends_honour_the_cli_contract() {
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (exe, source) in [
        (env!("CARGO_BIN_EXE_batnet-lint"), "src/bin/batnet_lint.rs"),
        (env!("CARGO_BIN_EXE_batnet-cov"), "src/bin/batnet_cov.rs"),
        (
            env!("CARGO_BIN_EXE_batnet-repair"),
            "src/bin/batnet_repair.rs",
        ),
        (env!("CARGO_BIN_EXE_batnet-diff"), "src/bin/batnet_diff.rs"),
        (
            env!("CARGO_BIN_EXE_obs-validate"),
            "src/bin/obs_validate.rs",
        ),
    ] {
        let help = contract::check(exe, repo, source);
        // The validators folded into `obs-validate` left no flag behind.
        assert!(
            !help.contains("--validate") && !help.contains("--kind"),
            "{exe}:\n{help}"
        );
    }
}
