//! End-to-end integration tests: generated networks through the whole
//! pipeline, with the §4.3.2 differential engine cross-check on each.

use batnet::differential_test;
use batnet::routing::SimOptions;
use batnet::Snapshot;
use batnet_topogen::dc::{fat_tree, leaf_spine, paired_dcs};
use batnet_topogen::enterprise::{enterprise, EnterpriseSpec};
use batnet_topogen::wan::wan;
use batnet_topogen::GeneratedNetwork;

fn run_pipeline(net: GeneratedNetwork, max_diff_starts: usize) {
    let name = net.name.clone();
    let snapshot = Snapshot::from_configs(net.configs).with_env(net.env);
    assert_eq!(snapshot.diagnostic_count(), 0, "{name}: generated configs parse clean");
    let mut analysis = snapshot.analyze();
    assert!(
        analysis.dp.convergence.converged,
        "{name}: must converge: {:?}",
        analysis.dp.convergence
    );
    let report = differential_test(&mut analysis, max_diff_starts);
    assert!(
        report.ok(),
        "{name}: engines disagree: {:#?}",
        report.mismatches
    );
    assert!(report.checks > 0, "{name}: differential test must do work");
}

#[test]
fn leaf_spine_end_to_end() {
    run_pipeline(leaf_spine("t", 3, 8), 4);
}

#[test]
fn fat_tree_end_to_end() {
    run_pipeline(fat_tree("t", 2, 2, 2, 4), 4);
}

#[test]
fn paired_dcs_end_to_end() {
    run_pipeline(paired_dcs("t", 2, 4), 3);
}

#[test]
fn enterprise_end_to_end() {
    run_pipeline(
        enterprise(
            "t",
            &EnterpriseSpec {
                cores: 2,
                dists: 2,
                accesses: 5,
                borders: 1,
                firewalls: 0,
                flat_access_percent: 20,
                nat: true,
            },
        ),
        4,
    );
}

#[test]
fn enterprise_with_firewalls_end_to_end() {
    run_pipeline(
        enterprise(
            "t",
            &EnterpriseSpec {
                cores: 2,
                dists: 2,
                accesses: 4,
                borders: 1,
                firewalls: 2,
                flat_access_percent: 0,
                nat: true,
            },
        ),
        4,
    );
}

#[test]
fn wan_end_to_end() {
    run_pipeline(wan("t", 4, 8), 4);
}

#[test]
fn determinism_across_runs_and_parallelism() {
    // §4.1.2: stable results across simulations. The same snapshot must
    // produce byte-identical RIBs regardless of parallelism.
    let net = enterprise(
        "t",
        &EnterpriseSpec {
            cores: 3,
            dists: 4,
            accesses: 8,
            borders: 2,
            firewalls: 0,
            flat_access_percent: 0,
            nat: true,
        },
    );
    let devices = net.parse();
    // Width 1 is the sequential loop; 4 fans same-color groups out.
    let runs: Vec<_> = [4, 1, 4]
        .iter()
        .map(|&width| {
            batnet_exec::with_pool(&batnet_exec::Pool::new(width), || {
                batnet::routing::simulate(&devices, &net.env, &SimOptions::default())
            })
        })
        .collect();
    for pair in runs.windows(2) {
        for (a, b) in pair[0].devices.iter().zip(pair[1].devices.iter()) {
            assert_eq!(a.main_rib, b.main_rib, "{}: RIBs must be identical", a.name);
        }
    }
}

#[test]
fn lint_is_quiet_on_generated_networks() {
    // Generated networks should be (nearly) lint-clean: only the known
    // benign classes may appear.
    let net = enterprise(
        "t",
        &EnterpriseSpec {
            cores: 2,
            dists: 2,
            accesses: 4,
            borders: 1,
            firewalls: 0,
            flat_access_percent: 0,
            nat: true,
        },
    );
    let snapshot = Snapshot::from_configs(net.configs).with_env(net.env);
    let findings = snapshot.lint();
    for f in &findings {
        assert!(
            // The transit peer lives outside the snapshot; the generator
            // deliberately reuses the community list only on some paths.
            // Info-severity findings are fine: the generator's
            // deny-specific-then-permit-broad ACLs are exactly the idiom
            // acl-partial-shadow reports at the informational level.
            f.check == "bgp-compat"
                || f.check == "unused-structure"
                || f.severity < batnet::lint::Severity::Warning,
            "unexpected finding: {f}"
        );
    }
}
