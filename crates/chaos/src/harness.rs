//! The chaos harness: inject faults, assert the pipeline never panics
//! and degrades monotonically.
//!
//! For every `(network, class, seed)` triple the harness mutates the
//! network, runs the fault-tolerant pipeline, and checks these
//! invariants:
//!
//! 1. **Zero panics** — no panic escapes the pipeline (containment via
//!    typed errors and quarantine is fine; an escaping panic is a
//!    violation).
//! 2. **Accountability** — every quarantined device appears in the
//!    snapshot diagnostics and carries a machine-readable reason code.
//! 3. **Monotone degradation** — when devices were quarantined, the
//!    results for the surviving devices are byte-identical to analyzing
//!    the surviving subset alone: broken inputs cannot bend healthy
//!    state.
//! 4. **Report validation** — the analysis's [`batnet_obs::RunReport`]
//!    serializes to JSON that parses and passes the schema-1 validator
//!    even under faults, and every quarantined device is accounted for
//!    in it with its reason code.
//! 5. **Lint robustness** — the lint engine never panics on mutated
//!    configs, and its finding fingerprints are identical across two
//!    runs over the same devices (reproducible reports are what the CI
//!    baseline gate stands on).
//! 6. **Tooling round trip** — under every mutation class the run
//!    report exports to Chrome trace JSON that passes the in-tree
//!    trace validator.
//! 7. **Differential robustness** — `Snapshot::diff` of the faulted
//!    snapshot against itself never panics, is empty at every layer,
//!    and accounts for every quarantined device on both sides of the
//!    report (the change-validation gate cannot be confused by broken
//!    inputs).
//! 10. **Coverage/repair robustness** — the coverage engine never
//!    panics on mutated configs and its JSON report is byte-identical
//!    across two runs over the same devices; the repairer never panics
//!    and its candidate accounting always balances
//!    (`tried == accepted + rejected_regression + rejected_side_effect`).
//! 12. **Parallel-engine parity** — the whole faulted pipeline re-run
//!     at map width 4 quarantines the same devices with the same reason
//!     codes and reports the same partial/complete outcome as the
//!     ambient run.
//!
//! Invariants 8–9 are the `batnet-serve` sweep in [`crate::serve`]; 11
//! is retired.

use crate::mutate::{mutate, MutationClass};
use batnet::{ResourceGovernor, Snapshot};
use batnet_routing::SimOptions;
use batnet_topogen::GeneratedNetwork;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// What to run.
pub struct ChaosConfig {
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Mutation classes to inject.
    pub classes: Vec<MutationClass>,
    /// Victim devices per text mutation.
    pub victims_per_run: usize,
    /// Per-run wall-clock deadline (a hang is also a failure mode).
    pub deadline: Duration,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seeds: (1..=25).collect(),
            classes: MutationClass::ALL.to_vec(),
            victims_per_run: 2,
            deadline: Duration::from_secs(120),
        }
    }
}

/// One `(network, class, seed)` result.
pub struct ChaosRun {
    /// Network name.
    pub net: String,
    /// Mutation class name.
    pub class: &'static str,
    /// Seed.
    pub seed: u64,
    /// `(device, reason code)` for everything quarantined.
    pub quarantined: Vec<(String, &'static str)>,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

/// Aggregated sweep outcome.
#[derive(Default)]
pub struct ChaosReport {
    /// Per-run results.
    pub runs: Vec<ChaosRun>,
}

impl ChaosReport {
    /// Total runs.
    pub fn total(&self) -> usize {
        self.runs.len()
    }

    /// Total quarantined devices across runs.
    pub fn quarantine_total(&self) -> usize {
        self.runs.iter().map(|r| r.quarantined.len()).sum()
    }

    /// All violations, labeled by run.
    pub fn violations(&self) -> Vec<String> {
        self.runs
            .iter()
            .flat_map(|r| {
                r.violations
                    .iter()
                    .map(move |v| format!("[{} {} seed={}] {v}", r.net, r.class, r.seed))
            })
            .collect()
    }

    /// Did every run uphold every invariant?
    pub fn ok(&self) -> bool {
        self.runs.iter().all(|r| r.violations.is_empty())
    }
}

/// Runs the sweep over `nets`. The default panic hook is silenced for
/// the duration (contained panics would otherwise spam stderr) and
/// restored afterwards.
pub fn run_chaos(nets: &[GeneratedNetwork], cfg: &ChaosConfig) -> ChaosReport {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut report = ChaosReport::default();
    for net in nets {
        for &class in &cfg.classes {
            for &seed in &cfg.seeds {
                report.runs.push(run_one(net, class, seed, cfg));
            }
        }
    }
    std::panic::set_hook(prev_hook);
    report
}

fn run_one(net: &GeneratedNetwork, class: MutationClass, seed: u64, cfg: &ChaosConfig) -> ChaosRun {
    let mut run = ChaosRun {
        net: net.name.clone(),
        class: class.name(),
        seed,
        quarantined: Vec::new(),
        violations: Vec::new(),
    };
    let m = mutate(&net.configs, &net.env, class, seed, cfg.victims_per_run);
    let configs = m.configs.clone();
    let env = m.env.clone();
    let deadline = cfg.deadline;
    // One observability run per chaos run: the captured report must
    // describe exactly this (network, class, seed) triple.
    batnet_obs::reset();

    // Invariant 1: the entire pipeline, end to end, must not panic.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let snapshot = Snapshot::from_configs(configs).with_env(env);
        let gov = ResourceGovernor::with_deadline(deadline);
        let quarantine: Vec<(String, &'static str)> = snapshot
            .quarantined
            .iter()
            .map(|q| (q.device.clone(), q.reason.code()))
            .collect();
        let diag_names: Vec<String> =
            snapshot.diagnostics.iter().map(|(n, _)| n.clone()).collect();
        let healthy: Vec<String> = snapshot.devices.iter().map(|d| d.name.clone()).collect();
        let result = snapshot.analyze_resilient(&SimOptions::default(), 1, &gov);
        (snapshot, quarantine, diag_names, healthy, result)
    }));
    let (snapshot, quarantine, diag_names, _healthy, result) = match outcome {
        Ok(v) => v,
        Err(_) => {
            run.violations.push("panic escaped the pipeline".to_string());
            return run;
        }
    };
    run.quarantined = quarantine;

    // Invariant 2: every quarantined device is accounted for in the
    // diagnostics with a machine-readable reason.
    for (device, code) in &run.quarantined {
        if code.is_empty() {
            run.violations
                .push(format!("{device}: quarantine reason has no code"));
        }
        if !diag_names.iter().any(|n| n == device) {
            run.violations
                .push(format!("{device}: quarantined but absent from diagnostics"));
        }
    }

    // Invariant 7: differential analysis of the faulted snapshot
    // against itself never panics, reports no differences, and carries
    // the quarantine accounting on both sides.
    let diff_outcome = catch_unwind(AssertUnwindSafe(|| {
        let opts = batnet::DiffOptions {
            max_flow_deltas: 4,
            max_starts: 8,
            ..batnet::DiffOptions::default()
        };
        snapshot.diff_with(&snapshot, &opts)
    }));
    match diff_outcome {
        Err(_) => run
            .violations
            .push("diff panicked on the faulted snapshot".to_string()),
        Ok(diff) => {
            if !diff.is_empty() {
                run.violations.push(format!(
                    "self-diff of faulted snapshot is not empty: {} change(s)",
                    diff.change_count()
                ));
            }
            for q in &snapshot.quarantined {
                let on_both = [&diff.quarantined_before, &diff.quarantined_after]
                    .iter()
                    .all(|side| {
                        side.iter()
                            .any(|e| e.device == q.device && e.code == q.reason.code())
                    });
                if !on_both {
                    run.violations.push(format!(
                        "{}: quarantined but missing from the self-diff report",
                        q.device
                    ));
                }
            }
        }
    }

    // Invariant 5: the lint engine never panics on mutated configs, and
    // its finding fingerprints are deterministic across runs over the
    // same parsed devices (the CI gate depends on reproducible reports).
    let lint_outcome = catch_unwind(AssertUnwindSafe(|| {
        let devices: Vec<batnet_config::vi::Device> = m
            .configs
            .iter()
            .map(|(name, text)| batnet_config::parse_device(name, text).0)
            .collect();
        let fingerprints = |findings: &[batnet::lint::Finding]| -> Vec<String> {
            findings.iter().map(batnet::lint::Finding::fingerprint).collect()
        };
        let first = fingerprints(&batnet::lint::run_all(&devices));
        let second = fingerprints(&batnet::lint::run_all(&devices));
        (first, second)
    }));
    match lint_outcome {
        Err(_) => run
            .violations
            .push("lint panicked on mutated configs".to_string()),
        Ok((first, second)) => {
            if first != second {
                run.violations
                    .push("lint fingerprints differ across identical runs".to_string());
            }
        }
    }

    // Invariant 10: coverage analysis never panics on mutated configs
    // and reports byte-identically across runs; the repairer never
    // panics and always balances its candidate accounting. Repair
    // validation runs two route simulations per candidate, so the
    // repair half is sampled on the low seeds only — every class still
    // gets exercised.
    let cov_outcome = catch_unwind(AssertUnwindSafe(|| {
        let devices: Vec<batnet_config::vi::Device> = m
            .configs
            .iter()
            .map(|(name, text)| batnet_config::parse_device(name, text).0)
            .collect();
        let first = batnet_coverage::render_json(&run.net, &batnet_coverage::analyze(&devices));
        let second = batnet_coverage::render_json(&run.net, &batnet_coverage::analyze(&devices));
        (first, second)
    }));
    match cov_outcome {
        Err(_) => run
            .violations
            .push("coverage analysis panicked on mutated configs".to_string()),
        Ok((first, second)) => {
            if first != second {
                run.violations
                    .push("coverage JSON differs across identical runs".to_string());
            }
        }
    }
    if seed <= 3 {
        let configs = m.configs.clone();
        let repair_outcome = catch_unwind(AssertUnwindSafe(|| {
            let snapshot = Snapshot::from_configs(configs.clone());
            let target = snapshot.lint().first().map(|f| (f.check, f.device.clone()));
            target.map(|(check, device)| {
                let limits = batnet_coverage::repair::RepairLimits {
                    max_candidates: 3,
                    diff: batnet::DiffOptions {
                        max_flow_deltas: 4,
                        max_starts: 8,
                        ..batnet::DiffOptions::default()
                    },
                };
                let dev = (!device.is_empty()).then_some(device);
                batnet_coverage::repair::repair_lint(&configs, check, dev.as_deref(), &limits)
            })
        }));
        match repair_outcome {
            Err(_) => run
                .violations
                .push("repair panicked on mutated configs".to_string()),
            // No findings to target, or the target vanished between lint
            // and repair (an Err) — nothing to account for.
            Ok(None) | Ok(Some(Err(_))) => {}
            Ok(Some(Ok(outcome))) => {
                if !outcome.balanced() {
                    run.violations.push(format!(
                        "repair accounting does not balance: {}",
                        outcome.summary()
                    ));
                }
            }
        }
    }

    let analysis = match result {
        Err(e) => {
            // A typed error is acceptable only when nothing survived.
            if !snapshot.devices.is_empty() {
                run.violations
                    .push(format!("typed error despite healthy devices: {e}"));
            }
            return run;
        }
        Ok(outcome) => outcome,
    };
    // A Partial outcome (deadline hit) has honestly-incomplete RIBs; the
    // byte-identical monotone comparison only applies to complete runs.
    let partial = analysis.is_partial();
    let analysis = analysis.into_value();

    // Route-stage quarantines surface on the analysis.
    for q in &analysis.quarantined {
        if !run.quarantined.iter().any(|(d, _)| d == &q.device) {
            run.quarantined.push((q.device.clone(), q.reason.code()));
        }
    }

    // Invariant 4: the run report is machine-readable even under faults
    // and accounts for every quarantined device.
    let report_text = analysis.report.to_json();
    match batnet_obs::json::parse(&report_text) {
        Err(e) => run
            .violations
            .push(format!("run report does not parse as JSON: {e}")),
        Ok(v) => {
            if let Err(e) = batnet_obs::report::validate_run_report(&v) {
                run.violations.push(format!("run report fails schema: {e}"));
            }
            check_trace_export(&v, &mut run.violations);
        }
    }
    for q in &analysis.quarantined {
        let accounted = analysis
            .report
            .quarantined
            .iter()
            .any(|e| e.device == q.device && e.code == q.reason.code());
        if !accounted {
            run.violations.push(format!(
                "{}: quarantined but missing from the run report",
                q.device
            ));
        }
    }

    // Invariant 3: monotone degradation. When anything was quarantined,
    // re-analyze the surviving subset alone and require byte-identical
    // routing results for every survivor.
    if !partial && !run.quarantined.is_empty() && !analysis.devices.is_empty() {
        let survivors: Vec<String> = analysis.devices.iter().map(|d| d.name.clone()).collect();
        let subset: Vec<(String, String)> = m
            .configs
            .iter()
            .filter(|(n, _)| survivors.contains(n))
            .cloned()
            .collect();
        let check = catch_unwind(AssertUnwindSafe(|| {
            let snap = Snapshot::from_configs(subset).with_env(m.env.clone());
            batnet_routing::simulate(&snap.devices, &snap.env, &SimOptions::default())
        }));
        match check {
            Err(_) => run
                .violations
                .push("panic while re-analyzing the healthy subset".to_string()),
            Ok(alone) => {
                for name in &survivors {
                    let (a, b) = (analysis.dp.device(name), alone.device(name));
                    let same = match (a, b) {
                        (Some(a), Some(b)) => {
                            a.main_rib == b.main_rib && a.fib.entries() == b.fib.entries()
                        }
                        _ => false,
                    };
                    if !same {
                        run.violations.push(format!(
                            "non-monotone: {name} differs between quarantined-run and subset-alone"
                        ));
                    }
                }
            }
        }
    }

    // Invariant 12: the parallel engine degrades identically. Re-run
    // the whole pipeline at map width 4: the quarantine list (device
    // and reason code, in order) and the partial/complete outcome must
    // match the ambient run above. The re-run is a full analysis, so
    // like the repair half it is sampled on the low seeds only — every
    // mutation class still gets exercised.
    if seed <= 3 {
        let par = catch_unwind(AssertUnwindSafe(|| {
            batnet_exec::with_pool(&batnet_exec::Pool::new(4), || {
                let snap = Snapshot::from_configs(m.configs.clone()).with_env(m.env.clone());
                let gov = ResourceGovernor::with_deadline(deadline);
                let quarantine: Vec<(String, &'static str)> = snap
                    .quarantined
                    .iter()
                    .map(|q| (q.device.clone(), q.reason.code()))
                    .collect();
                let result = snap.analyze_resilient(&SimOptions::default(), 1, &gov);
                (quarantine, result)
            })
        }));
        match par {
            Err(_) => run
                .violations
                .push("panic escaped the parallel pipeline".to_string()),
            Ok((mut par_quarantine, par_result)) => {
                let par_partial = match par_result {
                    Err(_) => false,
                    Ok(outcome) => {
                        let is_partial = outcome.is_partial();
                        let par_analysis = outcome.into_value();
                        for q in &par_analysis.quarantined {
                            if !par_quarantine.iter().any(|(d, _)| d == &q.device) {
                                par_quarantine.push((q.device.clone(), q.reason.code()));
                            }
                        }
                        is_partial
                    }
                };
                if par_quarantine != run.quarantined {
                    run.violations.push(format!(
                        "parallel quarantine accounting differs: {:?} (parallel) vs {:?}",
                        par_quarantine, run.quarantined
                    ));
                }
                if par_partial != partial {
                    run.violations.push(format!(
                        "parallel partiality differs: {par_partial} (parallel) vs {partial}"
                    ));
                }
            }
        }
    }
    run
}

/// Invariant 6: a faulted run's report still round-trips through the
/// performance tooling — its span forest exports to Chrome trace JSON
/// that passes the in-tree trace validator.
fn check_trace_export(report: &batnet_obs::json::Value, violations: &mut Vec<String>) {
    let forest = match batnet_obs::trace::forest_from_json(report) {
        Ok(f) => f,
        Err(e) => {
            violations.push(format!("span forest does not export: {e}"));
            return;
        }
    };
    match batnet_obs::json::parse(&batnet_obs::trace::chrome_trace(&forest)) {
        Err(e) => violations.push(format!("chrome trace does not parse: {e}")),
        Ok(t) => {
            if let Err(e) = batnet_obs::trace::validate_chrome_trace(&t) {
                violations.push(format!("chrome trace fails validation: {e}"));
            }
        }
    }
}
