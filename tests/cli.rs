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

/// `obs-validate` picks the `/tracez` schema from a live server's dump
/// by its `traces` marker, and holds the dump to it.
#[test]
fn obs_validate_recognises_a_tracez_dump() {
    let t = std::time::Duration::from_secs(10);
    let handle = batnet_serve::spawn(batnet_serve::ServeConfig::default()).expect("bind loopback");
    batnet_serve::get(handle.addr(), "/healthz", t).expect("healthz");
    let dump = batnet_serve::get(handle.addr(), "/tracez", t).expect("tracez");
    handle.shutdown();

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (good, bad) = (dir.join("tracez.json"), dir.join("tracez-bad.json"));
    std::fs::write(&good, dump.body_str()).expect("write dump");
    std::fs::write(&bad, dump.body_str().replace("\"status\": 200", "\"status\": 42"))
        .expect("write corrupted dump");
    let validate = |file: &std::path::Path| {
        std::process::Command::new(env!("CARGO_BIN_EXE_obs-validate"))
            .arg(file)
            .output()
            .expect("run obs-validate")
    };
    let ok = validate(&good);
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(ok.status.success() && stdout.contains("OK (tracez dump)"), "{stdout}");
    let rejected = validate(&bad);
    assert_eq!(rejected.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("INVALID"));
}
