//! Observability integration test: one fault-tolerant NET1 analysis
//! must produce a RunReport that (a) contains every pipeline stage span
//! exactly once, (b) validates against the schema-1 validator, and
//! (c) accounts for every quarantined device with its reason code; and
//! (d) one service question on that analysis, or on a lab with one or
//! five client subnets, runs exactly one backward walk and no forward
//! one.
//!
//! A single `#[test]` on purpose: the observability registry is
//! process-global and `cargo test` runs tests on threads, so this file
//! owns the whole run (reset → analyze → capture) without interleaving.

use batnet::obs;
use batnet::queries::{host_facing_interfaces, service_reachable, ServiceSpec};
use batnet::{Analysis, ResourceGovernor, Snapshot};

/// Binary slush no parser understands — quarantined at the parse stage.
const GARBAGE: &str = "\u{1}\u{2}\u{3}%PDF-1.4 \u{7f}\u{6}binary\u{5}slush\n\
                       \u{2}\u{4}not a config\u{1}at all\u{3}\n";

#[test]
fn net1_run_report_is_complete_and_accountable() {
    let net = batnet_topogen::suite::net1();
    let mut configs = net.configs.clone();
    // Corrupt two devices so the quarantine sections are non-trivial.
    let victims: Vec<String> = vec![configs[3].0.clone(), configs[11].0.clone()];
    configs[3].1 = GARBAGE.to_string();
    configs[11].1 = GARBAGE.to_string();

    obs::reset();
    let snapshot = Snapshot::from_configs(configs).with_env(net.env.clone());
    let outcome = snapshot
        .analyze_resilient(&ResourceGovernor::unlimited())
        .expect("healthy subset analyzes");
    assert!(!outcome.is_partial(), "unlimited governor cannot trip");
    let mut analysis = outcome.into_value();
    let report = &analysis.report;

    // (a) Every pipeline stage appears exactly once. `route.simulate`
    // nests its own phases; reach spans only appear once queries run.
    for stage in ["snapshot.parse", "pipeline", "topology.infer", "route.simulate", "graph.build"] {
        assert_eq!(
            report.span_count(stage),
            1,
            "stage {stage} must appear exactly once, got {}",
            report.span_count(stage)
        );
    }
    // Stage timings are real: every stage span closed with a duration.
    for stage in ["snapshot.parse", "pipeline", "route.simulate", "graph.build"] {
        assert!(
            report.span_ms(stage).is_some(),
            "span {stage} must have closed"
        );
    }

    // (b) The serialized report parses and passes the schema validator.
    let text = report.to_json();
    let parsed = obs::json::parse(&text).expect("report JSON parses");
    obs::report::validate_run_report(&parsed).expect("report validates");

    // (c) Both corrupted devices appear with a machine-readable reason
    // code, in the report and as bridged quarantine events.
    assert_eq!(report.quarantined.len(), 2);
    for v in &victims {
        let entry = report
            .quarantined
            .iter()
            .find(|q| &q.device == v)
            .unwrap_or_else(|| panic!("{v} missing from report.quarantined"));
        assert_eq!(entry.code, "unintelligible");
        assert_eq!(entry.stage, "parse");
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == "quarantine" && &e.subject == v),
            "{v} missing a quarantine event"
        );
    }

    // The snapshot summary reflects the input accounting.
    let summary = report.snapshot.expect("snapshot summary present");
    assert_eq!(summary.quarantined, 2);
    assert_eq!(summary.devices, net.configs.len() - 2);

    // Pipeline metrics made it into the report: parse coverage,
    // routing convergence, and BDD statistics.
    assert!(report.counter("route.sweeps").unwrap_or(0) > 0);
    assert!(
        report.metrics.keys().any(|k| k.starts_with("parse.devices.")),
        "per-dialect parse counters missing"
    );
    assert!(
        report.metrics.contains_key("bdd.nodes"),
        "BDD gauges missing"
    );

    // (d) `service_reachable`'s verdict is the seed minus what one
    // backward walk from the service's sinks projects onto each start, so
    // a question runs exactly one fixed point, whatever its start count.
    let hosts = host_facing_interfaces(&analysis.devices, &analysis.topo);
    let service = hosts.iter().find(|h| !h.external).expect("NET1 has host subnets").subnet;
    let question = ask(&mut analysis, ServiceSpec::tcp(service, 80));
    assert!(question > 5, "{question} starts");
    for hosts in [1, 5] {
        let mut lab = Snapshot::from_configs(clients_and_servers(hosts)).analyze();
        let service = ServiceSpec::tcp("10.2.0.0/24".parse().expect("prefix"), 443);
        assert_eq!(ask(&mut lab, service), hosts);
    }
}

/// Asks `service_reachable` alone on a fresh recorder and checks that it
/// ran one backward walk and no forward one; returns its start count.
fn ask(analysis: &mut Analysis, service: ServiceSpec) -> usize {
    obs::reset();
    let answer = service_reachable(&mut analysis.query_context(), &service);
    let question = obs::capture();
    assert_eq!(question.span_count("reach.backward"), 1, "one walk per question");
    assert_eq!(question.counter("reach.queries"), Some(1));
    assert_eq!(question.span_count("reach.forward"), 0, "a forward pass nothing reads");
    answer.starts_checked
}

/// `hosts` client subnets on r1, servers behind r2.
fn clients_and_servers(hosts: usize) -> Vec<(String, String)> {
    let mut r1 = String::from("hostname r1\ninterface core\n ip address 172.16.0.1/31\n");
    for h in 0..hosts {
        r1 += &format!("interface hosts{h}\n ip address 10.1.{h}.1/24\n");
    }
    r1 += "ip route 10.2.0.0/24 172.16.0.0\n";
    let r2 = "hostname r2\ninterface core\n ip address 172.16.0.0/31\n\
              interface servers\n ip address 10.2.0.1/24\n\
              ip route 10.1.0.0/16 172.16.0.1\n";
    vec![("r1".into(), r1), ("r2".into(), r2.into())]
}
