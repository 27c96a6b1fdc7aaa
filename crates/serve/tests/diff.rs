//! `/diff` answers what the facade answers. A stored snapshot whose
//! analysis is whole lends the diff its data plane, topology, graph and
//! manager instead of being simulated again; the report must not show
//! which way a side was built, and a partially analysed upload must
//! still be simulated in full. The diff walks a fork of a lent manager,
//! so a reach on the same snapshot does not wait for that walk.

use batnet::Snapshot;
use batnet_obs::json::{self, Value, Writer};
use batnet_obs::trace::{forest_from_json, SpanNode};
use batnet_serve::{client, ServeConfig};
use batnet_topogen::perturb::{perturb, Scenario};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
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
    // NET1's border NAT sends every start down the forward walks.
    let net1 = batnet_topogen::suite::net1();
    let p1 = perturb(&net1, Scenario::AclAddLine, 1).expect("NET1 has a victim");

    let handle = batnet_serve::spawn(ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    for (name, configs) in [
        ("pair-b", &pair_b),
        ("pair-a", &pair_a),
        ("n2", &net.configs),
        ("n2-cand", &p.configs),
        ("net1", &net1.configs),
        ("net1-cand", &p1.configs),
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
    let nat = served_report(addr, "net1", "net1-cand");
    handle.shutdown();

    assert_eq!(pair, facade_report(&pair_b, &pair_a), "fixture pair");
    let want = facade_report(&net.configs, &p.configs);
    let summary = n2.get("summary").expect("summary");
    assert_eq!(summary.num("route_changes"), Ok(278.0));
    assert_eq!(summary.num("changed_starts"), Ok(71.0));
    assert_eq!(n2, want, "N2 acl-attach-peering seed 3");
    assert_eq!(partial, want, "a partial upload is simulated again");
    let summary = nat.get("summary").expect("summary");
    assert_eq!(summary.num("changed_starts"), Ok(1.0));
    let want = facade_report(&net1.configs, &p1.configs);
    assert_eq!(nat, want, "NET1 acl-add-line seed 1");
}

/// Durations, in open order, of the spans named `name` in `nodes`.
fn span_ns(nodes: &[SpanNode], name: &str, out: &mut Vec<u64>) {
    for n in nodes {
        if n.name == name {
            out.push(n.dur_ns);
        }
        span_ns(&n.children, name, out);
    }
}

/// A diff holds a stored manager only while it forks it. A reach on the
/// same snapshot, issued while diffs of it run on another dispatch
/// thread, answers whole within its deadline, and its wait for the
/// manager (`serve.bdd_lock`) is short beside the walk of that snapshot
/// it would wait for if the diff walked in the stored manager.
#[test]
fn a_reach_beside_diffs_answers_within_its_deadline() {
    const DIFFS: usize = 3;
    let net = batnet_topogen::suite::n2();
    let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
    let pool = batnet_exec::Pool::new(2);
    let handle = batnet_exec::with_pool(&pool, || batnet_serve::spawn(ServeConfig::default()))
        .expect("bind loopback");
    let addr = handle.addr();
    assert_eq!(upload(addr, "/snapshots/n2", &net.configs), 201);
    assert_eq!(upload(addr, "/snapshots/n2-cand", &p.configs), 201);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..DIFFS {
                served_report(addr, "n2", "n2-cand");
            }
            done.store(true, Ordering::SeqCst);
        });
        // A short reach (no address in the prefix is inside N2), paced
        // so that the diffs mostly find the manager free.
        let target = "/query/reach?snapshot=n2&prefix=192.0.2.0/24&port=80&deadline_ms=1000";
        while !done.load(Ordering::SeqCst) {
            let r = client::get(addr, target, TIMEOUT).expect("reach");
            assert_eq!(r.status, 200, "{}", r.body_str());
            std::thread::sleep(Duration::from_millis(10));
        }
    });
    let dump = client::get(addr, "/tracez", TIMEOUT).expect("tracez");
    handle.shutdown();
    let doc = json::parse(dump.body_str()).expect("tracez parses");
    let (mut waits, mut walks) = (Vec::new(), Vec::new());
    for trace in doc.arr("traces").expect("traces") {
        let forest = forest_from_json(trace).expect("span forest");
        match trace.text("path").expect("path") {
            "/query/reach" => span_ns(&forest, "serve.bdd_lock", &mut waits),
            // The first walk is the `n2` side's.
            "/diff" => {
                let mut both = Vec::new();
                span_ns(&forest, "reach.backward", &mut both);
                walks.push(both[0]);
            }
            _ => {}
        }
    }
    assert_eq!(walks.len(), DIFFS);
    assert!(waits.len() >= DIFFS, "{} reaches", waits.len());
    let longest_wait = waits.iter().max().expect("a reach ran");
    let shortest_walk = walks.iter().min().expect("a diff ran");
    assert!(
        2 * longest_wait < *shortest_walk,
        "a reach waited {longest_wait} ns; a diff walked n2 in {shortest_walk} ns"
    );
}
