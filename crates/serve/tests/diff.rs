//! `/diff` answers what the facade answers. A stored snapshot whose
//! analysis is whole lends the diff its data plane instead of being
//! simulated again; the report must not show which way a side was built,
//! and a partially analysed upload must still be simulated in full.

use batnet::Snapshot;
use batnet_obs::json::{self, Value, Writer};
use batnet_serve::{client, ServeConfig};
use batnet_topogen::perturb::{perturb, Scenario};
use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(120);

fn upload(addr: SocketAddr, target: &str, configs: &[(String, String)]) -> u16 {
    let body = Writer::spaced()
        .obj(|w| {
            w.array("configs", |w| {
                for (name, text) in configs {
                    w.obj(|w| {
                        w.field("name", name).field("text", text);
                    });
                }
            });
        })
        .finish();
    let up = client::post(addr, target, body.as_bytes(), TIMEOUT).expect("upload");
    assert!(
        matches!(up.status, 201 | 206),
        "{target}: {}",
        up.body_str()
    );
    up.status
}

/// The report `/diff?snapshot=a&against=b` embeds.
fn served_report(addr: SocketAddr, a: &str, b: &str) -> Value {
    let target = format!("/diff?snapshot={a}&against={b}&deadline_ms=60000");
    let diff = client::get(addr, &target, TIMEOUT).expect("diff");
    assert_eq!(diff.status, 200, "{}", diff.body_str());
    let served = json::parse(diff.body_str()).expect("diff body parses");
    served.get("report").expect("embedded diff report").clone()
}

/// `batnet::diff::render_json` of the facade's diff of the same configs.
fn facade_report(before: &[(String, String)], after: &[(String, String)]) -> Value {
    let d = Snapshot::from_configs(before.to_vec()).diff(&Snapshot::from_configs(after.to_vec()));
    json::parse(&batnet::diff::render_json(&d)).expect("facade report parses")
}

#[test]
fn diff_endpoint_reports_what_the_facade_reports() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let side = |dir: &str| {
        batnet::load_dir(&root.join(dir))
            .expect("fixture loads")
            .configs
    };
    let (pair_b, pair_a) = (
        side("fixtures/diff-pair/before"),
        side("fixtures/diff-pair/after"),
    );
    let net = batnet_topogen::suite::n2();
    let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");

    let handle = batnet_serve::spawn(ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    for (name, configs) in [
        ("pair-b", &pair_b),
        ("pair-a", &pair_a),
        ("n2", &net.configs),
        ("n2-cand", &p.configs),
    ] {
        assert_eq!(upload(addr, &format!("/snapshots/{name}"), configs), 201);
    }
    // A budget that trips at once leaves the upload's data plane partial:
    // the diff must simulate that side rather than reuse it.
    assert_eq!(
        upload(addr, "/snapshots/n2-partial?deadline_ms=0", &p.configs),
        206
    );
    let pair = served_report(addr, "pair-b", "pair-a");
    let n2 = served_report(addr, "n2", "n2-cand");
    let partial = served_report(addr, "n2", "n2-partial");
    handle.shutdown();

    assert_eq!(pair, facade_report(&pair_b, &pair_a), "fixture pair");
    let want = facade_report(&net.configs, &p.configs);
    let summary = n2.get("summary").expect("summary");
    assert_eq!(summary.num("route_changes"), Ok(278.0));
    assert_eq!(summary.num("changed_starts"), Ok(71.0));
    assert_eq!(n2, want, "N2 acl-attach-peering seed 3");
    assert_eq!(partial, want, "a partial upload is simulated again");
}
