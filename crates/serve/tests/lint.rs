//! `/lint` answers what `batnet-lint --dir` answers. The command line
//! bridges parse diagnostics into findings next to the lint passes; the
//! service must too, or a snapshot with an unrecognized line reports one
//! finding fewer over HTTP than in CI.

use batnet_obs::json::{self, Value, Writer};
use batnet_serve::{client, ServeConfig};
use std::path::Path;
use std::time::Duration;

#[test]
fn lint_endpoint_reports_what_the_cli_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let load = batnet::load_dir(&root.join("fixtures/lint-bad")).expect("fixture loads");
    let upload = Writer::spaced()
        .obj(|w| {
            w.array("configs", |w| {
                for (name, text) in &load.configs {
                    w.obj(|w| {
                        w.field("name", name).field("text", text);
                    });
                }
            });
        })
        .finish();
    let handle = batnet_serve::spawn(ServeConfig::default()).expect("bind loopback");
    let t = Duration::from_secs(20);
    let up = client::post(handle.addr(), "/snapshots/bad", upload.as_bytes(), t).expect("upload");
    assert_eq!(up.status, 201, "{}", up.body_str());
    let lint = client::get(handle.addr(), "/lint?snapshot=bad", t).expect("lint");
    handle.shutdown();
    assert_eq!(lint.status, 200, "{}", lint.body_str());
    let served = json::parse(lint.body_str()).expect("lint body parses");

    // `batnet-lint --dir fixtures/lint-bad --format json`, byte for byte
    // (the root package's golden test pins it against the CLI's calls).
    let cli = std::fs::read_to_string(root.join("tests/golden/lint-bad.lint.json"))
        .expect("committed golden file");
    let cli = json::parse(&cli).expect("golden file parses");
    let report = served.get("report").expect("embedded lint report");
    for key in ["counts", "findings"] {
        assert_eq!(report.get(key), cli.get(key), "{key} differ from the CLI's");
    }
    let unrecognized = report.arr("findings").expect("findings").iter().any(|f| {
        f.get("check").and_then(Value::as_str) == Some("unrecognized-line")
    });
    assert!(unrecognized, "the parse-diagnostic bridge ran");
    assert_eq!(served.num("findings"), Ok(4.0));
}
