//! Continuous-profiling integration over a real pipeline: run the
//! fault-tolerant NET1 analysis — on the default pool and on a 4-thread
//! one, so the property does not depend on the host's core count — with
//! the wall-clock sampler attached and pin the subset property: every
//! non-idle path the sampler folded is a path the finished run's exact
//! attribution ([`obs::attr::path_totals`]) also knows. The sampler can
//! only ever see stacks the span recorder published, so a sampled path
//! outside the exact set means the two views of "where time goes" have
//! diverged. Pool workers are where that could happen: a worker's
//! `exec.*` span hangs under its logical parent in the exact tree, so
//! its published live stack must start with that parent's path.
//!
//! A single `#[test]` on purpose: the observability registry is
//! process-global and `cargo test` runs tests on threads, so this file
//! owns the whole run (reset → sample+analyze → capture).

use batnet::obs;
use batnet::routing::SimOptions;
use batnet::{ResourceGovernor, Snapshot};
use std::collections::BTreeSet;

#[test]
fn sampled_paths_are_a_subset_of_exact_attribution() {
    sampled_paths_are_exact_paths();
    batnet_exec::with_pool(&batnet_exec::Pool::new(4), sampled_paths_are_exact_paths);
}

/// The body, under whatever pool is current.
fn sampled_paths_are_exact_paths() {
    let net = batnet_topogen::suite::net1();
    // The sampler is wall-clock, so whether any given tick lands while
    // the analysis is mid-flight is timing luck; retry a few times
    // rather than assert on one roll of the scheduler dice. The subset
    // property itself must hold on every attempt.
    let mut live_paths_seen = 0usize;
    for _attempt in 0..5 {
        obs::reset();
        let thread = obs::SamplerThread::spawn(4_000);
        let snapshot = Snapshot::from_configs(net.configs.clone()).with_env(net.env.clone());
        let outcome = snapshot
            .analyze_resilient(&SimOptions::default(), 1, &ResourceGovernor::unlimited())
            .expect("NET1 analyzes");
        let analysis = outcome.into_value();
        let sampler = thread.stop();
        let profile = sampler.take_profile();
        let doc = obs::json::parse(&profile).expect("profile parses");
        obs::report::validate_profile(&doc).expect("profile validates");

        // Read-only contract: the captured report carries no trace of
        // the sampler that watched it.
        let report_text = analysis.report.to_json();
        assert!(
            !report_text.contains("obs.sampler."),
            "sampler artifacts leaked into the run report"
        );

        let totals = obs::attr::path_totals(&analysis.report.spans);
        let exact: BTreeSet<&str> = totals.keys().map(String::as_str).collect();
        let stacks = doc
            .get("stacks")
            .and_then(obs::json::Value::as_arr)
            .expect("stacks");
        for s in stacks {
            let stack = s
                .get("stack")
                .and_then(obs::json::Value::as_str)
                .expect("stack string");
            if stack == "(idle)" {
                continue;
            }
            live_paths_seen += 1;
            assert!(
                exact.contains(stack),
                "sampled path {stack:?} is not in the run's exact attribution"
            );
        }
        if live_paths_seen > 0 {
            break;
        }
    }
    assert!(
        live_paths_seen > 0,
        "a 4 kHz sampler never once caught the NET1 pipeline mid-flight"
    );
}
