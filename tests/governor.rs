//! Resource-governor integration tests: every [`Limit`] variant —
//! deadline, iteration budget, BDD node ceiling — driven to exhaustion
//! must come back as `Outcome::Partial` with correct accounting,
//! in-process *and* through a live `batnet-serve` endpoint returning
//! partial JSON. Reported, never hung and never panicking.

use batnet::config::Topology;
use batnet::dataplane::{NodeKind, ReachAnalysis};
use batnet::net::governor::{Limit, Outcome, ResourceGovernor};
use batnet::routing::{simulate_governed, SchedulerMode, SimOptions};
use batnet::Snapshot;
use batnet_topogen::gadgets::fig1b;
use batnet_topogen::suite;
use std::time::Duration;

fn lockstep() -> SimOptions {
    SimOptions {
        scheduler: SchedulerMode::Lockstep,
        ..SimOptions::default()
    }
}

/// The fig1b gadget oscillates forever under lockstep; an iteration
/// budget must cut it off with a Partial outcome listing the prefix
/// that never settled.
#[test]
fn fig1b_iteration_budget_yields_partial() {
    let net = fig1b();
    let devices = net.parse();
    let topo = Topology::infer(&devices);
    let gov = ResourceGovernor::with_iteration_budget(50);
    match simulate_governed(&devices, &topo, &net.env, &lockstep(), &gov) {
        Outcome::Partial {
            completed,
            abandoned,
            why,
        } => {
            assert!(matches!(why.limit, Limit::Iterations { .. }), "{why:?}");
            assert!(
                abandoned.iter().any(|p| p == "10.0.0.0/8"),
                "churning prefix must be listed, got {abandoned:?}"
            );
            assert!(completed.convergence.aborted.is_some());
            assert!(!completed.convergence.converged);
        }
        Outcome::Complete(_) => panic!("budget must abort the oscillator"),
    }
}

/// Same gadget, wall-clock deadline instead of an iteration budget.
#[test]
fn fig1b_deadline_yields_partial() {
    let net = fig1b();
    let devices = net.parse();
    let topo = Topology::infer(&devices);
    let gov = ResourceGovernor::with_deadline(Duration::ZERO);
    let outcome = simulate_governed(&devices, &topo, &net.env, &lockstep(), &gov);
    match outcome {
        Outcome::Partial { why, .. } => {
            assert!(matches!(why.limit, Limit::Deadline { .. }), "{why:?}")
        }
        Outcome::Complete(_) => panic!("a zero deadline must abort"),
    }
}

fn two_router_configs() -> Vec<(String, String)> {
    vec![
        (
            "r1".into(),
            "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface core\n ip address 172.16.0.1/31\nip route 10.2.0.0/24 172.16.0.0\n".into(),
        ),
        (
            "r2".into(),
            "hostname r2\ninterface core\n ip address 172.16.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.1\n".into(),
        ),
    ]
}

/// The third `Limit` variant in-process: a reachability fixed point
/// under a tiny BDD node ceiling stops with `Limit::BddNodes`,
/// reporting the arena size it saw, the devices still on the worklist,
/// and the sets computed so far — without the ceiling ever being
/// installed into (and thereby poisoning) the shared manager.
#[test]
fn bdd_node_ceiling_yields_partial_reachability() {
    let snapshot = Snapshot::from_configs(two_router_configs());
    let mut analysis = snapshot
        .analyze_resilient(&ResourceGovernor::unlimited())
        .expect("analyze")
        .into_value();
    let init = analysis.vars.initial_bits(&mut analysis.bdd);
    let seeds: Vec<(usize, batnet::bdd::NodeId)> = analysis
        .graph
        .nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _)))
        .into_iter()
        .map(|n| (n, init))
        .collect();
    assert!(!seeds.is_empty());
    let arena_before = analysis.bdd.node_count();
    let gov = ResourceGovernor::with_node_ceiling(2);
    let reach = ReachAnalysis::new(&analysis.graph);
    match reach.forward_governed(&mut analysis.bdd, &seeds, &gov) {
        Outcome::Partial {
            completed,
            abandoned,
            why,
        } => {
            let Limit::BddNodes { ceiling, reached } = why.limit else {
                panic!("expected BddNodes, got {:?}", why.limit);
            };
            assert_eq!(ceiling, 2);
            assert!(reached >= arena_before, "{reached} < {arena_before}");
            assert_eq!(why.stage, "reach-forward");
            assert!(!abandoned.is_empty(), "worklist devices must be named");
            assert_eq!(completed.reach.len(), analysis.graph.nodes.len());
        }
        Outcome::Complete(_) => panic!("a 2-node ceiling must abort"),
    }
    // The same query against the same manager, ungoverned, completes:
    // the ceiling lived in the request's governor, not the manager.
    let again = reach.forward_governed(
        &mut analysis.bdd,
        &seeds,
        &ResourceGovernor::unlimited(),
    );
    assert!(matches!(again, Outcome::Complete(_)));
}

/// Every `Limit` variant through a live serve endpoint: the same
/// governor mechanism, reached via query parameters, must produce an
/// HTTP 206 whose JSON carries the stage/limit/abandoned accounting.
#[test]
fn serve_endpoint_returns_partial_json_for_each_limit() {
    let handle = batnet_serve::spawn(batnet_serve::ServeConfig::default()).expect("bind loopback");
    let addr = handle.addr();
    let t = Duration::from_secs(10);

    // Upload a small snapshot through the API (rather than prewarming a
    // suite network) so the governed upload path is exercised too.
    let mut body = String::from("{\"configs\": [");
    for (i, (name, text)) in two_router_configs().iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str("{\"name\": ");
        batnet::obs::json::write_str(&mut body, name);
        body.push_str(", \"text\": ");
        batnet::obs::json::write_str(&mut body, text);
        body.push('}');
    }
    body.push_str("]}");
    let up = batnet_serve::post(addr, "/snapshots/t", body.as_bytes(), t).expect("upload");
    assert_eq!(up.status, 201, "{}", up.body_str());

    for (params, needle) in [
        ("deadline_ms=0", "deadline"),
        ("deadline_ms=60000&max_iterations=1", "iteration budget"),
        ("deadline_ms=60000&max_bdd_nodes=2", "BDD node ceiling"),
    ] {
        let r = batnet_serve::get(
            addr,
            &format!("/query/reach?snapshot=t&port=80&{params}"),
            t,
        )
        .expect("query");
        assert_eq!(r.status, 206, "{params}: {}", r.body_str());
        let text = r.body_str();
        assert!(
            text.contains(needle),
            "{params}: limit {needle:?} not in accounting: {text}"
        );
        assert!(
            text.contains("\"stage\":") && text.contains("\"abandoned\":"),
            "{params}: partial accounting incomplete: {text}"
        );
        let parsed = r.json().expect("partial body is valid JSON");
        assert!(parsed.get("partial").is_some());
    }

    // The same snapshot, ungoverned, still answers completely — the
    // tripped budgets were per-request.
    let ok = batnet_serve::get(addr, "/query/reach?snapshot=t&port=80", t).expect("query");
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    assert!(ok.body_str().contains("\"partial\": null"));
    handle.shutdown();
}

/// A convergent network under a generous governor is Complete and equals
/// the ungoverned result.
#[test]
fn governed_complete_matches_ungoverned() {
    let net = suite::n2();
    let devices = net.parse();
    let opts = SimOptions::default();
    let governed = simulate_governed(
        &devices,
        &Topology::infer(&devices),
        &net.env,
        &opts,
        &ResourceGovernor::with_deadline(Duration::from_secs(600)),
    );
    let Outcome::Complete(governed) = governed else {
        panic!("a generous deadline must not abort a convergent network");
    };
    let plain = batnet::routing::simulate(&devices, &net.env, &opts);
    for d in &plain.devices {
        let g = governed.device(&d.name).expect("device present");
        assert_eq!(g.main_rib, d.main_rib, "{}", d.name);
        assert_eq!(g.fib.entries(), d.fib.entries(), "{}", d.name);
    }
}
