//! End-to-end engine properties over generated networks: determinism,
//! order-insensitivity, clean baselines, and seeded drift detection.

use batnet_config::vi::Device;
use batnet_config::{parse_device, Topology};
use batnet_lint::{output, Finding, Severity};
use batnet_topogen::suite::n2;

fn parse_net(net: &batnet_topogen::GeneratedNetwork) -> Vec<Device> {
    net.configs
        .iter()
        .map(|(name, text)| parse_device(name, text).0)
        .collect()
}

fn run_all(devices: &[Device]) -> Vec<Finding> {
    batnet_lint::run_all(devices, &Topology::infer(devices))
}

/// The generated N2 leaf–spine is policy-clean: no warnings or errors,
/// which is what lets `make lint-smoke` gate on `--deny error` against
/// it.
#[test]
fn clean_n2_has_no_warning_or_error_findings() {
    let devices = parse_net(&n2());
    let findings = run_all(&devices);
    let loud: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.severity >= Severity::Warning)
        .collect();
    assert!(loud.is_empty(), "clean N2 should be quiet, got {loud:?}");
}

/// Determinism: two independent parse+lint runs produce byte-identical
/// JSON, and a shuffled device order produces the identical finding
/// list (fingerprints included).
#[test]
fn lint_is_deterministic_and_order_insensitive() {
    let run = || {
        let devices = parse_net(&n2());
        let findings = run_all(&devices);
        output::render_json("N2", &findings)
    };
    assert_eq!(run(), run(), "two runs must serialize identically");

    let mut devices = parse_net(&n2());
    let sorted_fps = |findings: &[Finding]| -> Vec<String> {
        findings.iter().map(Finding::fingerprint).collect()
    };
    let baseline = run_all(&devices);
    // Reverse and rotate: same findings regardless of input order.
    devices.reverse();
    devices.rotate_left(13);
    let shuffled = run_all(&devices);
    assert_eq!(baseline, shuffled);
    assert_eq!(sorted_fps(&baseline), sorted_fps(&shuffled));
}

/// Seeded drift: perturbing one leaf's DNS port makes the policy-drift
/// pass flag exactly that device, with a concrete witness flow; putting
/// the finding's fingerprint in a baseline mutes it again.
#[test]
fn seeded_drift_flags_exactly_the_victim() {
    let mut net = n2();
    assert!(net.seed_policy_drift("leaf3"), "fixture must perturb leaf3");
    let devices = parse_net(&net);
    let findings = run_all(&devices);
    let drift: Vec<&Finding> = findings.iter().filter(|f| f.check == "policy-drift").collect();
    assert_eq!(drift.len(), 1, "exactly the victim: {drift:?}");
    assert_eq!(drift[0].device, "leaf3");
    assert_eq!(drift[0].severity, Severity::Warning);
    assert!(
        drift[0].witness.contains(":53") || drift[0].witness.contains(":5353"),
        "witness should name the diverging port: {}",
        drift[0].witness
    );
    // No other warning+ findings appear as a side effect.
    assert!(
        findings
            .iter()
            .all(|f| f.check == "policy-drift" || f.severity < Severity::Warning),
        "{findings:?}"
    );

    // Baseline the drift fingerprint: the report is quiet again (CI
    // gates on *new* findings only).
    let fps = vec![drift[0].fingerprint()];
    let total = findings.len();
    let (kept, muted) = output::apply_baseline(findings, &fps);
    assert_eq!(muted, 1);
    assert_eq!(kept.len(), total - 1);
    assert!(kept.iter().all(|f| f.severity < Severity::Warning));
}

/// The drift fixture helper refuses unknown or port-less victims.
#[test]
fn drift_seeding_rejects_bad_victims() {
    let mut net = n2();
    assert!(!net.seed_policy_drift("spine0"), "spines carry no DNS ACL");
    assert!(!net.seed_policy_drift("ghost99"));
}
