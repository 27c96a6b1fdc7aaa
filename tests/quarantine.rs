//! Quarantine integration tests: a snapshot with k corrupted devices
//! must analyze the healthy subset to *byte-identical* results as
//! analyzing that subset alone, with every corrupted device quarantined
//! under a machine-readable reason.

use batnet::{Outcome, QuarantineStage, ResourceGovernor, Snapshot};
use batnet_topogen::dc::leaf_spine;
use batnet_topogen::enterprise::{enterprise, EnterpriseSpec};
use batnet_topogen::GeneratedNetwork;

/// A corruption no parser can make sense of — lands in Parse quarantine.
const GARBAGE: &str = "\u{1}\u{2}\u{3}%PDF-1.4 \u{7f}\u{6}binary\u{5}slush\n\
                       \u{2}\u{4}not a config\u{1}at all\u{3}\n\
                       \u{7}\u{6}\u{5}\u{4}\u{3}\u{2}\u{1}\n";

/// Corrupts `k` devices (every `stride`-th) and returns the mutated
/// configs plus the victim names.
fn corrupt_k(net: &GeneratedNetwork, k: usize) -> (Vec<(String, String)>, Vec<String>) {
    let mut configs = net.configs.clone();
    let stride = (configs.len() / k).max(1);
    let mut victims = Vec::new();
    for i in 0..k {
        let vi = (i * stride) % configs.len();
        let (name, text) = &mut configs[vi];
        if !victims.contains(name) {
            victims.push(name.clone());
            *text = GARBAGE.to_string();
        }
    }
    (configs, victims)
}

fn check_monotone(net: GeneratedNetwork, k: usize) {
    let (configs, victims) = corrupt_k(&net, k);
    let snapshot = Snapshot::from_configs(configs).with_env(net.env.clone());

    // Every victim is quarantined at the Parse stage with a
    // machine-readable reason, and is visible in the diagnostics.
    for v in &victims {
        let q = snapshot
            .quarantined
            .iter()
            .find(|q| &q.device == v)
            .unwrap_or_else(|| panic!("{v}: corrupted but not quarantined"));
        assert_eq!(q.stage, QuarantineStage::Parse, "{v}");
        assert!(!q.reason.code().is_empty(), "{v}: reason must carry a code");
        assert!(
            snapshot.diagnostics.iter().any(|(n, _)| n == v),
            "{v}: quarantined device missing from diagnostics"
        );
    }
    // No healthy device was swept up.
    assert_eq!(snapshot.quarantined.len(), victims.len());
    let survivors: Vec<String> = snapshot.devices.iter().map(|d| d.name.clone()).collect();
    assert_eq!(survivors.len(), net.configs.len() - victims.len());

    // Analyze with the corrupted devices present (quarantined)...
    let with_quarantine = snapshot
        .analyze_resilient(&ResourceGovernor::unlimited())
        .expect("healthy devices remain")
        .into_value();

    // ...and the healthy subset alone.
    let subset: Vec<(String, String)> = net
        .configs
        .iter()
        .filter(|(n, _)| survivors.contains(n))
        .cloned()
        .collect();
    let alone = Snapshot::from_configs(subset)
        .with_env(net.env)
        .analyze_resilient(&ResourceGovernor::unlimited())
        .expect("subset analyzes")
        .into_value();

    // Byte-identical routing state for every survivor.
    for name in &survivors {
        let a = with_quarantine.dp.device(name).expect("survivor present");
        let b = alone.dp.device(name).expect("survivor present in subset");
        assert_eq!(a.main_rib, b.main_rib, "{name}: RIB must not bend");
        assert_eq!(
            a.fib.entries(),
            b.fib.entries(),
            "{name}: FIB must not bend"
        );
    }
}

#[test]
fn leaf_spine_with_two_corrupted_devices() {
    check_monotone(leaf_spine("t", 3, 8), 2);
}

#[test]
fn enterprise_with_three_corrupted_devices() {
    check_monotone(
        enterprise(
            "e",
            &EnterpriseSpec {
                cores: 2,
                dists: 4,
                accesses: 4,
                borders: 2,
                firewalls: 0,
                flat_access_percent: 0,
                nat: false,
            },
        ),
        3,
    );
}

/// Corrupting *everything* is a typed error, not a panic.
#[test]
fn all_devices_corrupted_is_typed_error() {
    let net = leaf_spine("t", 2, 4);
    let k = net.configs.len();
    let (configs, _) = corrupt_k(&net, k);
    let snapshot = Snapshot::from_configs(configs).with_env(net.env);
    assert!(snapshot.devices.is_empty());
    match snapshot.analyze_resilient(&ResourceGovernor::unlimited()) {
        Err(err) => assert!(matches!(err, batnet::Error::EmptySnapshot)),
        Ok(_) => panic!("nothing to analyze: expected a typed error"),
    }
}

/// A healthy snapshot under an unlimited governor completes (the
/// governed path is not lossy when nothing is wrong).
#[test]
fn healthy_snapshot_completes_under_governor() {
    let net = leaf_spine("t", 2, 4);
    let snapshot = Snapshot::from_configs(net.configs).with_env(net.env);
    assert!(snapshot.quarantined.is_empty());
    let outcome = snapshot
        .analyze_resilient(&ResourceGovernor::unlimited())
        .expect("analyzes");
    assert!(matches!(outcome, Outcome::Complete(_)));
}
