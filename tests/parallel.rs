//! Cross-thread-count determinism for the `batnet_exec` subsystem.
//!
//! The parallel engine's contract is *byte identity*: every analysis
//! artifact — run-report accounting, lint fingerprints, diff JSON,
//! coverage JSON — must be identical whether a map runs on one thread
//! (the sequential code path, by construction) or many. The property
//! sweeps perturbation seeds and map widths in one process
//! via `with_pool`, so a scheduling-order dependence anywhere in the
//! routing and reach fan-outs fails loudly here before it can reach a
//! committed baseline.
//!
//! The poisoning regression pins the other half of the contract: a
//! panicking item does not tear its map — every sibling item still
//! runs, the panic reaches the caller with its payload, and later runs
//! at the same width stay byte-identical with no mutex left poisoned.
//!
//! A single `#[test]` on purpose: every run `obs::reset()`s and
//! `capture()`s the process-global recorder, and `cargo test` runs the
//! tests of one file on concurrent threads, so this file owns its
//! process — the width sweep first, then the poisoning check.

use batnet::config::{parse_device, Topology};
use batnet::{DiffOptions, Snapshot};
use batnet_exec::{with_pool, MapOptions, Pool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Widths swept against the 1-thread baseline: one that divides the
/// eight reach shards evenly, and one that does not, so some thread
/// runs a second shard while the others finish.
const WIDTHS: [usize; 2] = [4, 7];

/// Perturbation seeds (≥3, per the determinism gate) applied to the N2
/// data center — each seed picks a different victim device, so the
/// sweep covers distinct quarantine-free change shapes.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Everything the sweep compares, rendered to stable text. Span records
/// are deliberately absent: helper spans exist only to attribute time,
/// and which helper ran which items is timing-dependent.
/// Everything else — metrics, events, quarantine and partial
/// accounting, the snapshot summary — must not move by a byte.
fn projection(report: &batnet_obs::RunReport) -> String {
    use batnet_obs::metrics::MetricValue;
    let mut out = String::new();
    for (name, value) in &report.metrics {
        match value {
            MetricValue::Counter(n) => out.push_str(&format!("counter {name} {n}\n")),
            MetricValue::Gauge(g) => out.push_str(&format!("gauge {name} {g}\n")),
            MetricValue::Histogram(h) => out.push_str(&format!(
                "histogram {name} count={} sum={} buckets={:?}\n",
                h.count, h.sum, h.buckets
            )),
        }
    }
    for e in &report.events {
        // `at_ns` is wall clock; the projection compares order + content.
        out.push_str(&format!("event {} {} {}\n", e.kind, e.subject, e.detail));
    }
    out.push_str(&format!("events_dropped {}\n", report.events_dropped));
    for q in &report.quarantined {
        out.push_str(&format!(
            "quarantine {} {} {} {}\n",
            q.device, q.stage, q.code, q.detail
        ));
    }
    match &report.partial {
        None => out.push_str("partial none\n"),
        Some(p) => out.push_str(&format!(
            "partial {} {} {:?}\n",
            p.stage, p.limit, p.abandoned
        )),
    }
    if let Some(s) = &report.snapshot {
        out.push_str(&format!(
            "snapshot devices={} quarantined={} diagnostics={}\n",
            s.devices, s.quarantined, s.diagnostics
        ));
    }
    out
}

/// One full run under the *current* pool: analysis projection, lint
/// JSON, diff JSON (unperturbed vs perturbed), coverage JSON. Returns
/// the four artifacts for byte comparison.
fn run_artifacts(
    net: &batnet_topogen::GeneratedNetwork,
    perturbed: &[(String, String)],
) -> (String, String, String, String) {
    batnet_obs::reset();
    let before = Snapshot::from_configs(net.configs.clone()).with_env(net.env.clone());
    let after = Snapshot::from_configs(perturbed.to_vec()).with_env(net.env.clone());
    let analysis = after.analyze();
    let report = projection(&analysis.report);

    // Lint fingerprints over a pool-parallel parse of the same configs.
    let parsed = batnet_exec::current().map_opts(
        perturbed,
        MapOptions::default(),
        |(name, text): &(String, String)| parse_device(name, text),
    );
    let mut devices = Vec::with_capacity(parsed.len());
    let mut diags = Vec::with_capacity(parsed.len());
    for ((name, _), (device, dg)) in perturbed.iter().zip(parsed) {
        devices.push(device);
        diags.push((name.clone(), dg.into_items()));
    }
    let topo = Topology::infer(&devices);
    let findings = batnet::lint::run_network(&devices, &topo, &diags);
    let lint_json = batnet::lint::output::render_json("N2", &findings);

    let diff = before.diff_with(&after, &DiffOptions::default());
    let diff_json = batnet::diff::render_json(&diff);

    for (device, (name, _)) in devices.iter_mut().zip(perturbed.iter()) {
        device.stamp_source_file(name);
    }
    let coverage = batnet_coverage::analyze(&devices, &topo);
    let cov_json = batnet_coverage::render_json("N2", &coverage);

    (report, lint_json, diff_json, cov_json)
}

#[test]
fn artifacts_are_byte_identical_and_the_pool_survives_a_panic() {
    artifacts_are_byte_identical_across_thread_counts();
    pool_survives_a_mid_sweep_panic_without_poisoning();
}

fn artifacts_are_byte_identical_across_thread_counts() {
    let net = batnet_topogen::suite::n2();
    for seed in SEEDS {
        let p = batnet_topogen::perturb::perturb(
            &net,
            batnet_topogen::perturb::Scenario::AclAttachPeering,
            seed,
        )
        .expect("N2 always has an eligible victim");

        let sequential = Pool::new(1);
        let baseline = with_pool(&sequential, || run_artifacts(&net, &p.configs));

        for width in WIDTHS {
            let pool = Pool::new(width);
            let parallel = with_pool(&pool, || run_artifacts(&net, &p.configs));
            for (what, base, got) in [
                ("run report", &baseline.0, &parallel.0),
                ("lint JSON", &baseline.1, &parallel.1),
                ("diff JSON", &baseline.2, &parallel.2),
                ("coverage JSON", &baseline.3, &parallel.3),
            ] {
                assert_eq!(
                    base, got,
                    "seed {seed}: {what} differs between 1 thread and {width}"
                );
            }
        }
    }
}

fn pool_survives_a_mid_sweep_panic_without_poisoning() {
    let pool = Pool::new(4);
    let items: Vec<usize> = (0..16).collect();

    // One item panics mid-map; every sibling item must still run, and
    // the panic must reach the caller with its payload.
    let ran = AtomicUsize::new(0);
    let payload = catch_unwind(AssertUnwindSafe(|| {
        with_pool(&pool, || {
            batnet_exec::current().map(&items, |&i| {
                ran.fetch_add(1, Ordering::SeqCst);
                assert!(i != 7, "injected failure on item 7");
                i * 2
            })
        })
    }))
    .expect_err("item 7 panicked");
    assert_eq!(
        ran.load(Ordering::SeqCst),
        items.len(),
        "a sibling item was torn"
    );
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        detail.contains("injected failure"),
        "panic detail lost: {detail}"
    );

    // The same pool must then produce a byte-identical full analysis:
    // nothing was poisoned.
    let net = batnet_topogen::suite::n2();
    let p = batnet_topogen::perturb::perturb(
        &net,
        batnet_topogen::perturb::Scenario::AclAttachPeering,
        1,
    )
    .expect("N2 always has an eligible victim");
    let reference = with_pool(&Pool::new(1), || run_artifacts(&net, &p.configs));
    let reused = with_pool(&pool, || run_artifacts(&net, &p.configs));
    assert_eq!(reference, reused, "a panicking item changed later results");
}
