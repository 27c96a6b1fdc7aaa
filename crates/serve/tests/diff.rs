//! `/diff` answers what the facade answers. A stored snapshot whose
//! analysis is whole lends the diff its data plane, topology, graph,
//! manager and memo instead of being simulated again; the report must
//! not show which way a side was built, nor whether it was walked or
//! read from the memo, and a partially analysed upload must still be
//! simulated in full. The diff walks a fork of a lent manager, so a
//! reach on the same snapshot does not wait for that walk, and walks a
//! stored side once for every diff it takes part in.

use batnet::Snapshot;
use batnet_obs::json::{self, Value, Writer};
use batnet_obs::trace::{forest_from_json, SpanNode};
use batnet_serve::{client, ServeConfig};
use batnet_topogen::perturb::{perturb, Scenario};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
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

/// The body of `/diff?snapshot=a&against=b`.
fn served_body(addr: SocketAddr, a: &str, b: &str) -> String {
    let target = format!("/diff?snapshot={a}&against={b}&deadline_ms=60000");
    let diff = client::get(addr, &target, TIMEOUT).expect("diff");
    assert_eq!(diff.status, 200, "{}", diff.body_str());
    diff.body_str().to_string()
}

/// The report a `/diff` body embeds.
fn report_of(body: &str) -> Value {
    let served = json::parse(body).expect("diff body parses");
    served.get("report").expect("embedded diff report").clone()
}

/// The report `/diff?snapshot=a&against=b` embeds.
fn served_report(addr: SocketAddr, a: &str, b: &str) -> Value {
    report_of(&served_body(addr, a, b))
}

/// `batnet::diff::render_json` of the facade's diff of the same configs.
fn facade_json(before: &[(String, String)], after: &[(String, String)]) -> String {
    let d = Snapshot::from_configs(before.to_vec()).diff(&Snapshot::from_configs(after.to_vec()));
    batnet::diff::render_json(&d)
}

/// [`facade_json`], parsed.
fn facade_report(before: &[(String, String)], after: &[(String, String)]) -> Value {
    json::parse(&facade_json(before, after)).expect("facade report parses")
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
    let n2_body = served_body(addr, "n2", "n2-cand");
    let n2 = report_of(&n2_body);
    let partial = served_report(addr, "n2", "n2-partial");
    let nat_body = served_body(addr, "net1", "net1-cand");
    // Diffs of the same stored pairs read both sides' memos.
    let n2_again = served_body(addr, "n2", "n2-cand");
    let nat_again = served_body(addr, "net1", "net1-cand");
    // A re-upload is a new snapshot with an empty memo; the stored
    // `net1` side's memo still answers the starts it holds.
    let p2 = perturb(&net1, Scenario::DrainDevice, 1).expect("NET1 has a victim");
    assert_eq!(upload(addr, "/snapshots/net1-cand", &p2.configs), 201);
    let reuploaded = served_body(addr, "net1", "net1-cand");
    handle.shutdown();

    assert_eq!(pair, facade_report(&pair_b, &pair_a), "fixture pair");
    let want_json = facade_json(&net.configs, &p.configs);
    assert!(
        n2_body.contains(&want_json),
        "the embedded report is the facade's bytes"
    );
    assert_eq!(n2_again, n2_body, "a repeated N2 diff");
    let want = json::parse(&want_json).expect("facade report parses");
    let summary = n2.get("summary").expect("summary");
    assert_eq!(summary.num("route_changes"), Ok(278.0));
    assert_eq!(summary.num("changed_starts"), Ok(71.0));
    assert_eq!(n2, want, "N2 acl-attach-peering seed 3");
    assert_eq!(partial, want, "a partial upload is simulated again");
    let nat = report_of(&nat_body);
    let summary = nat.get("summary").expect("summary");
    assert_eq!(summary.num("changed_starts"), Ok(1.0));
    let want_json = facade_json(&net1.configs, &p1.configs);
    assert!(nat_body.contains(&want_json), "NET1 acl-add-line seed 1");
    assert_eq!(nat_again, nat_body, "a repeated NET1 diff");
    let want_json = facade_json(&net1.configs, &p2.configs);
    assert!(
        reuploaded.contains(&want_json),
        "NET1 drain-device seed 1, re-uploaded"
    );
}

/// A diff holds a stored manager only while it forks it, and walks a
/// stored side only when its memo lacks a compared start. A reach on the
/// same snapshot, issued while diffs of it run on another dispatch
/// thread, answers whole within its deadline, and its wait for the
/// manager (`serve.bdd_lock`) is short beside the first diff's walk of
/// that snapshot, which it would wait for if the diff walked in the
/// stored manager. The later diffs of the same pair walk nothing.
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
    let (waits, walks) = spans_by_path(dump.body_str());
    // The first diff walks both sides, `n2` first.
    assert_eq!(walks.len(), DIFFS);
    assert_eq!(walks[0].len(), 2, "the first diff walks both sides");
    assert!(
        walks[1..].iter().all(Vec::is_empty),
        "later diffs walk: {walks:?}"
    );
    assert!(waits.len() >= DIFFS, "{} reaches", waits.len());
    let longest_wait = waits.iter().max().expect("a reach ran");
    let walk = walks[0][0];
    assert!(
        2 * longest_wait < walk,
        "a reach waited {longest_wait} ns; the first diff walked n2 in {walk} ns"
    );
}

/// Two diffs of one pair, issued at once on two dispatch threads, answer
/// the same bytes, and each side is walked once between them: the second
/// diff to reach a side's memo waits for the first's walk and reads it.
#[test]
fn concurrent_diffs_of_one_pair_walk_each_side_once() {
    let net = batnet_topogen::suite::n2();
    let p = perturb(&net, Scenario::AclAttachPeering, 3).expect("N2 has a victim");
    let pool = batnet_exec::Pool::new(2);
    let handle = batnet_exec::with_pool(&pool, || batnet_serve::spawn(ServeConfig::default()))
        .expect("bind loopback");
    let addr = handle.addr();
    assert_eq!(upload(addr, "/snapshots/n2", &net.configs), 201);
    assert_eq!(upload(addr, "/snapshots/n2-cand", &p.configs), 201);
    let start = Barrier::new(2);
    let bodies = std::thread::scope(|s| {
        let diffs = [(); 2].map(|()| {
            s.spawn(|| {
                start.wait();
                served_body(addr, "n2", "n2-cand")
            })
        });
        diffs.map(|d| d.join().expect("diff thread"))
    });
    let dump = client::get(addr, "/tracez", TIMEOUT).expect("tracez");
    handle.shutdown();
    assert_eq!(bodies[0], bodies[1]);
    let (_, walks) = spans_by_path(dump.body_str());
    assert_eq!(walks.len(), 2);
    assert_eq!(walks.concat().len(), 2, "walks per diff: {walks:?}");
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

/// From a `/tracez` dump: every reach's `serve.bdd_lock` waits, and each
/// diff's `reach.backward` walks, one list per diff in request order.
fn spans_by_path(dump: &str) -> (Vec<u64>, Vec<Vec<u64>>) {
    let doc = json::parse(dump).expect("tracez parses");
    let (mut waits, mut walks) = (Vec::new(), Vec::new());
    // The dump lists the newest first; ids count up from zero.
    let mut traces: Vec<&Value> = doc.arr("traces").expect("traces").iter().collect();
    traces.sort_by_key(|t| t.text("trace_id").expect("trace id"));
    for trace in traces {
        let forest = forest_from_json(trace).expect("span forest");
        match trace.text("path").expect("path") {
            "/query/reach" => span_ns(&forest, "serve.bdd_lock", &mut waits),
            "/diff" => {
                let mut walked = Vec::new();
                span_ns(&forest, "reach.backward", &mut walked);
                walks.push(walked);
            }
            _ => {}
        }
    }
    (waits, walks)
}
