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

/// A `/tracez` dump is a profile: `obs-trace` folds every retained
/// request's tree into exact self-µs per path, and renders the dump as
/// a valid Chrome trace with one lane per request.
#[test]
fn obs_trace_exports_a_tracez_dump() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tracez.json");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-trace"))
        .args([fixture, "--format", "folded"])
        .output()
        .expect("obs-trace runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "serve.request 750\nserve.request;serve.bdd_lock 1000\nserve.request;reach.forward 2000\n"
    );

    let chrome = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tracez.trace.json");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_obs-trace"))
        .args([fixture, "--out"])
        .arg(&chrome)
        .status()
        .expect("obs-trace runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&chrome).expect("trace written");
    let v = batnet_obs::json::parse(&text).expect("trace parses");
    batnet_obs::trace::validate_chrome_trace(&v).expect("trace validates");
    let events = v.get("traceEvents").and_then(batnet_obs::json::Value::as_arr).expect("events");
    let lanes: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(batnet_obs::json::Value::as_f64))
        .map(|t| t as u64)
        .collect();
    assert_eq!((events.len(), lanes.len()), (4, 2), "four spans, one lane per request");
}

/// `obs-diff` is a structure gate: row keys decide the exit code, `ms`
/// never does, and a file that is not a bench document is refused.
#[test]
fn obs_diff_gates_on_row_keys_not_on_time() {
    let dir = std::env::temp_dir().join(format!("obs-diff-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let write = |name: &str, rows: &[(&str, f64)]| -> String {
        let rows: Vec<String> = rows
            .iter()
            .map(|(stage, ms)| {
                format!(
                    r#"{{"bench": "t", "network": "N2", "stage": "{stage}", "ms": {ms}, "meta": {{}}}}"#
                )
            })
            .collect();
        let doc = format!(
            r#"{{"schema": 1, "bench": "t", "meta": {{}}, "rows": [{}],
                "report": {{"schema": 1, "meta": {{}}, "spans": [], "metrics": {{}},
                           "events": [], "events_dropped": 0, "quarantined": [],
                           "partial": null, "snapshot": null}}}}"#,
            rows.join(", ")
        );
        let path = dir.join(name);
        std::fs::write(&path, doc).expect("fixture written");
        path.display().to_string()
    };
    let base = write("base.json", &[("parse", 2.0), ("graph", 50.0)]);
    let slow = write("slow.json", &[("parse", 20.0), ("graph", 500.0)]);
    let lost = write("lost.json", &[("parse", 2.0)]);
    let grew = write(
        "grew.json",
        &[("parse", 2.0), ("graph", 50.0), ("bonus", 1.0)],
    );
    let junk = dir.join("junk.json").display().to_string();
    std::fs::write(&junk, r#"{"schema": 1, "bench": "t", "rows": []}"#).expect("fixture written");

    let run = |new: &str| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_obs-diff"))
            .args([&base, new])
            .output()
            .expect("obs-diff runs");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
        )
    };
    assert_eq!(run(&slow).0, Some(0), "every ms x10 is not a finding");
    let (code, stdout) = run(&lost);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("MISSING t/N2/graph"), "{stdout}");
    let (code, stdout) = run(&grew);
    assert_eq!(code, Some(1));
    assert!(stdout.contains("EXTRA t/N2/bonus"), "{stdout}");
    assert_eq!(run(&junk).0, Some(2), "schema-invalid input is refused");
    let _ = std::fs::remove_dir_all(&dir);
}
