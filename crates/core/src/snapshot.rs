//! Snapshots and analyses: the top-level workflow objects.
//!
//! Fault tolerance lives here: inputs that cannot be read, parsed, or
//! simulated are quarantined per device (see [`crate::quarantine`]) and
//! the pipeline continues on the healthy subset. Results for healthy
//! devices are identical to analyzing the healthy subset alone.

use crate::error::Error;
use crate::quarantine::{panic_detail, Quarantine, QuarantineReason, QuarantineStage};
use batnet_config::{parse_device, Diagnostic, Severity, Topology};
use batnet_dataplane::{ForwardingGraph, PacketVars};
use batnet_net::governor::{Exhaustion, Outcome, ResourceGovernor};
use batnet_net::Flow;
use batnet_obs::report::{PartialOutcome, SnapshotSummary};
use batnet_obs::RunReport;
use batnet_queries::QueryContext;
use batnet_routing::{simulate_governed, DataPlane, Environment, SimOptions};
use batnet_traceroute::{StartLocation, Trace, Tracer};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A parse below this coverage with zero interfaces means the text is not
/// a config we understand (garbage, binary junk): quarantine it.
const MIN_COVERAGE: f64 = 0.5;

/// Bounded route-stage retries: each round removes the devices that
/// poisoned the simulation and re-runs on the survivors.
const MAX_ROUTE_RETRIES: usize = 4;

/// A parsed configuration snapshot: the unit both proactive and
/// continuous validation workflows operate on (§5.1, §5.2).
pub struct Snapshot {
    /// Parsed devices (the healthy subset: quarantined inputs are not
    /// here).
    pub devices: Vec<batnet_config::vi::Device>,
    /// Parse diagnostics per device (including skipped inputs).
    pub diagnostics: Vec<(String, Vec<Diagnostic>)>,
    /// Inputs isolated at load or parse, with machine-readable reasons.
    pub quarantined: Vec<Quarantine>,
    /// The environment (external announcements, failed links).
    pub env: Environment,
}

impl Snapshot {
    /// Parses a set of `(name, config text)` pairs with dialect
    /// auto-detection. Inputs whose parse panics (contained) or produces
    /// no usable model are quarantined rather than aborting the
    /// snapshot.
    pub fn from_configs(configs: Vec<(String, String)>) -> Snapshot {
        let _span = batnet_obs::Span::enter("snapshot.parse");
        let mut devices = Vec::with_capacity(configs.len());
        let mut diagnostics = Vec::new();
        let mut quarantined = Vec::new();
        for (name, text) in configs {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let (device, diags) = parse_device(&name, &text);
                let meaningful = text
                    .lines()
                    .filter(|l| {
                        let t = l.trim();
                        !t.is_empty() && !t.starts_with('!') && !t.starts_with('#')
                    })
                    .count();
                let coverage = diags.coverage(meaningful);
                (device, diags, meaningful, coverage)
            }));
            match outcome {
                Err(payload) => {
                    diagnostics.push((
                        name.clone(),
                        vec![Diagnostic::new(
                            Severity::ParseError,
                            0,
                            "parser panicked; device quarantined",
                        )],
                    ));
                    quarantined.push(Quarantine {
                        device: name,
                        stage: QuarantineStage::Parse,
                        reason: QuarantineReason::ParsePanic {
                            detail: panic_detail(payload),
                        },
                    });
                }
                Ok((device, diags, meaningful, coverage)) => {
                    let unintelligible = device.interfaces.is_empty()
                        && meaningful > 0
                        && coverage < MIN_COVERAGE;
                    let mut items = diags.into_items();
                    if unintelligible {
                        items.push(Diagnostic::new(
                            Severity::ParseError,
                            0,
                            format!(
                                "config not understood (coverage {:.0}%); device quarantined",
                                coverage * 100.0
                            ),
                        ));
                        diagnostics.push((device.name.clone(), items));
                        quarantined.push(Quarantine {
                            device: device.name,
                            stage: QuarantineStage::Parse,
                            reason: QuarantineReason::Unintelligible {
                                coverage_permille: (coverage.max(0.0) * 1000.0) as u32,
                            },
                        });
                    } else {
                        diagnostics.push((device.name.clone(), items));
                        devices.push(device);
                    }
                }
            }
        }
        for q in &quarantined {
            batnet_obs::event("quarantine", &q.device, q.reason.code());
        }
        Snapshot {
            devices,
            diagnostics,
            quarantined,
            env: Environment::none(),
        }
    }

    /// Loads every file in a directory as one device config (the way real
    /// snapshots arrive: a directory of per-device files), under
    /// [`load_dir`]'s robustness contract.
    pub fn from_dir(dir: &std::path::Path) -> Result<Snapshot, Error> {
        let DirLoad {
            configs,
            skipped,
            mut quarantined,
        } = load_dir(dir)?;
        let mut snapshot = Snapshot::from_configs(configs);
        snapshot.diagnostics.extend(skipped);
        // Load-stage quarantines come first: they happened first.
        quarantined.append(&mut snapshot.quarantined);
        snapshot.quarantined = quarantined;
        Ok(snapshot)
    }

    /// Attaches an environment (builder style).
    pub fn with_env(mut self, env: Environment) -> Snapshot {
        self.env = env;
        self
    }

    /// Total diagnostics across devices.
    pub fn diagnostic_count(&self) -> usize {
        self.diagnostics.iter().map(|(_, d)| d.len()).sum()
    }

    /// Runs the full pipeline with default options and one waypoint
    /// variable available.
    pub fn analyze(&self) -> Analysis {
        self.analyze_with(&SimOptions::default(), 1)
    }

    /// Runs the full pipeline with explicit options: the ungoverned name
    /// for [`Snapshot::analyze_resilient`]'s body. Unlike it, an empty
    /// snapshot is not an error here — it analyzes to an empty
    /// [`Analysis`].
    pub fn analyze_with(&self, opts: &SimOptions, waypoints: u32) -> Analysis {
        self.pipeline(opts, waypoints, &ResourceGovernor::unlimited())
            .map(Outcome::into_value)
            .expect("forwarding graph construction panicked")
    }

    /// Runs the full pipeline with route-stage quarantine and a resource
    /// governor: the fault-tolerant entry point.
    ///
    /// * A device whose computation panics during simulation is
    ///   quarantined (bounded retries on the shrinking healthy subset).
    /// * A governor limit tripping yields [`Outcome::Partial`] — the
    ///   analysis built from the state computed so far, with the
    ///   abandoned work listed.
    /// * [`Error::EmptySnapshot`] when no devices survive.
    pub fn analyze_resilient(
        &self,
        opts: &SimOptions,
        waypoints: u32,
        gov: &ResourceGovernor,
    ) -> Result<Outcome<Analysis>, Error> {
        if self.devices.is_empty() {
            return Err(Error::EmptySnapshot);
        }
        let outcome = self.pipeline(opts, waypoints, gov)?;
        if outcome.value().devices.is_empty() {
            return Err(Error::EmptySnapshot);
        }
        Ok(outcome)
    }

    /// The one pipeline body behind every `analyze*` name: simulate
    /// (re-running on the survivors while devices poison the route
    /// stage), infer topology, build the forwarding graph, capture the
    /// report. Errs only when graph construction panics.
    fn pipeline(
        &self,
        opts: &SimOptions,
        waypoints: u32,
        gov: &ResourceGovernor,
    ) -> Result<Outcome<Analysis>, Error> {
        let mut devices = self.devices.clone();
        let mut quarantined = self.quarantined.clone();
        let root = batnet_obs::Span::enter("pipeline");

        let mut round = 0;
        let outcome = loop {
            let out = simulate_governed(&devices, &self.env, opts, gov);
            round += 1;
            let poisoned = &out.value().convergence.poisoned_devices;
            for name in poisoned {
                devices.retain(|d| &d.name != name);
                batnet_obs::event("quarantine", name, QuarantineReason::RoutePanic.code());
                quarantined.push(Quarantine {
                    device: name.clone(),
                    stage: QuarantineStage::Route,
                    reason: QuarantineReason::RoutePanic,
                });
            }
            // The last permitted result stands even if still poisoned
            // (its poisoned devices are already out of `devices`): never
            // loop forever.
            if poisoned.is_empty() || devices.is_empty() || round == MAX_ROUTE_RETRIES {
                break out;
            }
        };

        let (dp, partial) = outcome.into_parts();
        if let Some((_, why)) = &partial {
            batnet_obs::event("governor-trip", &why.stage, &why.limit.to_string());
        }

        let topo_span = batnet_obs::Span::enter("topology.infer");
        let topo = Topology::infer(&devices);
        topo_span.close();
        let (mut bdd, vars) = PacketVars::new(waypoints);
        let graph = catch_unwind(AssertUnwindSafe(|| {
            ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo)
        }))
        .map_err(|payload| {
            Error::Internal(format!(
                "forwarding graph construction panicked: {}",
                panic_detail(payload)
            ))
        })?;
        publish_bdd_gauges(&mut bdd);
        root.close();
        let report = finish_report(
            devices.len(),
            self.diagnostic_count(),
            &quarantined,
            partial.as_ref().map(|(a, w)| (a.as_slice(), w)),
        );

        let analysis = Analysis {
            devices,
            topo,
            dp,
            bdd,
            vars,
            graph,
            quarantined,
            report,
        };
        Ok(match partial {
            None => Outcome::Complete(analysis),
            Some((abandoned, why)) => Outcome::Partial {
                completed: analysis,
                abandoned,
                why,
            },
        })
    }

    /// Runs the Lesson-5 configuration checks (no simulation needed).
    pub fn lint(&self) -> Vec<batnet_lint::Finding> {
        batnet_lint::run_all(&self.devices)
    }

    /// Compares this snapshot (the *before* side) with `other` (the
    /// *after* side) across all three pipeline layers — structural,
    /// control plane, and symbolic data plane — with default options.
    /// The pre-deployment change-validation entry point (§5.1).
    pub fn diff(&self, other: &Snapshot) -> batnet_diff::SnapshotDiff {
        self.diff_with(other, &batnet_diff::DiffOptions::default())
    }

    /// [`Snapshot::diff`] with explicit options.
    pub fn diff_with(
        &self,
        other: &Snapshot,
        opts: &batnet_diff::DiffOptions,
    ) -> batnet_diff::SnapshotDiff {
        batnet_diff::diff(&self.diff_side(), &other.diff_side(), opts)
    }

    /// [`Snapshot::diff_with`] under a [`ResourceGovernor`]: a tripped
    /// budget returns the layers compared so far with the rest named in
    /// the partial accounting.
    pub fn diff_with_governed(
        &self,
        other: &Snapshot,
        opts: &batnet_diff::DiffOptions,
        gov: &ResourceGovernor,
    ) -> Outcome<batnet_diff::SnapshotDiff> {
        batnet_diff::diff_governed(&self.diff_side(), &other.diff_side(), opts, gov)
    }

    /// This snapshot as one side of a differential comparison: the
    /// healthy devices plus the quarantine accounting, in the diff
    /// crate's facade-independent vocabulary.
    pub fn diff_side(&self) -> batnet_diff::DiffSide<'_> {
        batnet_diff::DiffSide {
            devices: &self.devices,
            env: &self.env,
            quarantined: self
                .quarantined
                .iter()
                .map(|q| batnet_diff::QuarantinedDevice {
                    device: q.device.clone(),
                    stage: q.stage.to_string(),
                    code: q.reason.code().to_string(),
                })
                .collect(),
        }
    }
}

/// A snapshot directory as read from disk, before any parsing: what
/// [`load_dir`] hands to [`Snapshot::from_dir`] and to the front ends
/// that work on config text (lint, coverage, repair).
pub struct DirLoad {
    /// `(device name, config text)` per loaded file, in file-name order;
    /// the device name is the file stem.
    pub configs: Vec<(String, String)>,
    /// A diagnostic for every entry that was skipped.
    pub skipped: Vec<(String, Vec<Diagnostic>)>,
    /// Load-stage quarantines, with machine-readable reasons.
    pub quarantined: Vec<Quarantine>,
}

/// Reads every regular file in `dir` as one device config — the one
/// directory loader every front end shares.
///
/// Robustness contract: only a failure to list the directory itself is
/// fatal. Entries are taken in sorted order. Subdirectories and symlinks
/// are skipped with a diagnostic; unreadable or non-UTF-8 files, and
/// files whose stem repeats an earlier file's, are quarantined with a
/// machine-readable reason and the rest of the directory loads.
pub fn load_dir(dir: &std::path::Path) -> Result<DirLoad, Error> {
    let io_err = |source: std::io::Error| Error::Io {
        path: dir.to_path_buf(),
        source,
    };
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(io_err)?
        .collect::<Result<_, _>>()
        .map_err(io_err)?;
    entries.sort_by_key(|e| e.file_name());

    let mut configs: Vec<(String, String)> = Vec::new();
    let mut skipped: Vec<(String, Vec<Diagnostic>)> = Vec::new();
    let mut quarantined: Vec<Quarantine> = Vec::new();
    // Device name (file stem) -> the file that claimed it. `r1.ios`
    // next to `r1.flat` must not silently produce two devices named
    // `r1`: the first file in sorted order wins, the rest are
    // quarantined with a machine-readable reason.
    let mut claimed: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    for entry in entries {
        let path = entry.path();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("device")
            .to_string();
        let file_name = path
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("device")
            .to_string();
        // symlink_metadata: treat symlinks as skippable, not as what
        // they point to (a dangling or cyclic link must not abort the
        // load).
        let is_file = path
            .symlink_metadata()
            .map(|m| m.file_type().is_file())
            .unwrap_or(false);
        // What keeps this entry out of the snapshot, if anything: always
        // a diagnostic, and a quarantine unless it simply is not a file.
        let problem = if !is_file {
            Some((Severity::Info, "not a regular file".to_string(), None))
        } else {
            match std::fs::read(&path).map(String::from_utf8) {
                Err(e) => {
                    let detail = e.to_string();
                    let reason = QuarantineReason::UnreadableFile { detail: detail.clone() };
                    Some((Severity::ParseError, detail, Some(reason)))
                }
                Ok(Err(_)) => Some((
                    Severity::ParseError,
                    "not valid UTF-8".to_string(),
                    Some(QuarantineReason::NotUtf8),
                )),
                Ok(Ok(text)) => match claimed.get(&name) {
                    Some(kept) => Some((
                        Severity::ParseError,
                        format!("device name {name:?} already claimed by {kept}"),
                        Some(QuarantineReason::DuplicateName { kept: kept.clone() }),
                    )),
                    None => {
                        claimed.insert(name.clone(), file_name);
                        configs.push((name.clone(), text));
                        None
                    }
                },
            }
        };
        if let Some((severity, why, reason)) = problem {
            let message = format!("skipped {}: {why}", path.display());
            skipped.push((name.clone(), vec![Diagnostic::new(severity, 0, message)]));
            if let Some(reason) = reason {
                quarantined.push(Quarantine {
                    device: name,
                    stage: QuarantineStage::Load,
                    reason,
                });
            }
        }
    }
    for q in &quarantined {
        batnet_obs::event("quarantine", &q.device, q.reason.code());
    }
    Ok(DirLoad {
        configs,
        skipped,
        quarantined,
    })
}

/// Publishes the BDD manager's end-of-build statistics as gauges, then
/// resets the apply-cache window so later queries (reach, traceroute)
/// accumulate their own hit rates.
fn publish_bdd_gauges(bdd: &mut batnet_bdd::Bdd) {
    batnet_obs::gauge_set("bdd.nodes", bdd.node_count() as f64);
    batnet_obs::gauge_set("bdd.unique-table", bdd.unique_table_len() as f64);
    batnet_obs::gauge_set("bdd.cache.hit-rate", bdd.cache_hit_rate());
    let window = bdd.take_stats();
    batnet_obs::counter_add("bdd.cache.hits", window.cache_hits);
    batnet_obs::counter_add("bdd.cache.misses", window.cache_misses);
}

/// Captures the observability state into a [`RunReport`] and fills the
/// pipeline-side accounting sections.
fn finish_report(
    devices: usize,
    diagnostics: usize,
    quarantined: &[Quarantine],
    partial: Option<(&[String], &Exhaustion)>,
) -> RunReport {
    let mut report = batnet_obs::capture();
    report.quarantined = quarantined.iter().map(Quarantine::report_entry).collect();
    report.partial = partial.map(|(abandoned, why)| PartialOutcome {
        stage: why.stage.clone(),
        limit: why.limit.to_string(),
        abandoned: abandoned.to_vec(),
    });
    report.snapshot = Some(SnapshotSummary {
        devices,
        quarantined: quarantined.len(),
        diagnostics,
    });
    report
}

/// A fully analyzed snapshot: simulated data plane plus the symbolic
/// forwarding graph, ready for queries, traces, and differential tests.
pub struct Analysis {
    /// The VI devices (cloned from the snapshot; link failures from the
    /// environment are applied inside `dp`).
    pub devices: Vec<batnet_config::vi::Device>,
    /// Inferred L3 topology.
    pub topo: Topology,
    /// Simulated RIBs and FIBs.
    pub dp: DataPlane,
    /// The BDD manager backing `graph`.
    pub bdd: batnet_bdd::Bdd,
    /// Packet variable layout.
    pub vars: PacketVars,
    /// The dataflow graph.
    pub graph: ForwardingGraph,
    /// Everything isolated on the way here (load, parse, and route
    /// stages), with machine-readable reasons.
    pub quarantined: Vec<Quarantine>,
    /// The machine-readable run report: span tree, metric snapshot,
    /// events, and quarantine/partial accounting for this analysis.
    pub report: RunReport,
}

impl Analysis {
    /// A concrete tracer over this analysis.
    pub fn tracer(&self) -> Tracer<'_> {
        Tracer::new(&self.devices, &self.dp, &self.topo)
    }

    /// Traces one flow (convenience).
    pub fn trace(&self, device: &str, iface: &str, flow: &Flow) -> Trace {
        self.tracer()
            .trace(&StartLocation::ingress(device, iface), flow)
    }

    /// A query context borrowing this analysis (the `bdd` borrow is
    /// exclusive, so queries run one at a time).
    pub fn query_context(&mut self) -> QueryContext<'_> {
        QueryContext {
            devices: &self.devices,
            dp: &self.dp,
            topo: &self.topo,
            bdd: &mut self.bdd,
            vars: &self.vars,
            graph: &self.graph,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_net::Ip;

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

    #[test]
    fn snapshot_pipeline_end_to_end() {
        let snapshot = Snapshot::from_configs(two_router_configs());
        assert_eq!(snapshot.diagnostic_count(), 0);
        let analysis = snapshot.analyze();
        assert!(analysis.dp.convergence.converged);
        let flow = Flow::tcp(Ip::new(10, 1, 0, 5), 40000, Ip::new(10, 2, 0, 9), 80);
        let trace = analysis.trace("r1", "hosts", &flow);
        assert!(trace.any_succeeds(), "{trace}");
    }

    #[test]
    fn snapshot_from_dir_roundtrip() {
        let dir = std::env::temp_dir().join(format!("batnet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in two_router_configs() {
            std::fs::write(dir.join(format!("{name}.cfg")), text).unwrap();
        }
        let snapshot = Snapshot::from_dir(&dir).unwrap();
        assert_eq!(snapshot.devices.len(), 2);
        assert_eq!(snapshot.devices[0].name, "r1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_dir_skips_subdirs_and_non_utf8() {
        let dir = std::env::temp_dir().join(format!("batnet-skip-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        for (name, text) in two_router_configs() {
            std::fs::write(dir.join(format!("{name}.cfg")), text).unwrap();
        }
        std::fs::write(dir.join("junk.cfg"), [0xFFu8, 0xFE, 0x00, 0x9F]).unwrap();
        let snapshot = Snapshot::from_dir(&dir).unwrap();
        // The two real configs load; the subdir and the binary file are
        // skipped with diagnostics, the binary one quarantined.
        assert_eq!(snapshot.devices.len(), 2);
        assert_eq!(snapshot.quarantined.len(), 1);
        assert_eq!(snapshot.quarantined[0].device, "junk");
        assert_eq!(snapshot.quarantined[0].reason.code(), "not-utf8");
        assert!(snapshot
            .diagnostics
            .iter()
            .any(|(n, d)| n == "sub" && d.iter().any(|x| x.message.contains("not a regular file"))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_dir_duplicate_stems_quarantined() {
        let dir = std::env::temp_dir().join(format!("batnet-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // `r1.flat` sorts before `r1.ios`; both stem to device `r1`.
        std::fs::write(
            dir.join("r1.flat"),
            "hostname r1\ninterface e0\n ip address 10.5.0.1/24\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("r1.ios"),
            "hostname r1\ninterface e0\n ip address 10.6.0.1/24\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("r2.cfg"),
            "hostname r2\ninterface e0\n ip address 10.7.0.1/24\n",
        )
        .unwrap();
        let snapshot = Snapshot::from_dir(&dir).unwrap();
        assert_eq!(snapshot.devices.len(), 2, "one r1 and one r2");
        let r1 = snapshot.devices.iter().find(|d| d.name == "r1").unwrap();
        // The first file in sorted order (r1.flat) won.
        assert_eq!(
            r1.interfaces["e0"].address.unwrap().0,
            Ip::new(10, 5, 0, 1)
        );
        assert_eq!(snapshot.quarantined.len(), 1);
        let q = &snapshot.quarantined[0];
        assert_eq!(q.device, "r1");
        assert_eq!(q.reason.code(), "duplicate-name");
        assert!(matches!(q.stage, QuarantineStage::Load));
        assert!(
            matches!(&q.reason, QuarantineReason::DuplicateName { kept } if kept == "r1.flat")
        );
        // The losing file left a diagnostic trail.
        assert!(snapshot.diagnostics.iter().any(|(n, d)| n == "r1"
            && d.iter().any(|x| x.message.contains("already claimed"))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_config_quarantined_healthy_survive() {
        let mut configs = two_router_configs();
        configs.push((
            "broken".into(),
            "\u{1}\u{2} %%% totally not a config\nzzzz qqqq\n@@@@\n".into(),
        ));
        let snapshot = Snapshot::from_configs(configs);
        assert_eq!(snapshot.devices.len(), 2, "healthy devices survive");
        assert_eq!(snapshot.quarantined.len(), 1);
        assert_eq!(snapshot.quarantined[0].device, "broken");
        assert_eq!(snapshot.quarantined[0].reason.code(), "unintelligible");
        // The healthy subset still analyzes end to end.
        let analysis = snapshot.analyze();
        assert!(analysis.dp.convergence.converged);
        assert_eq!(analysis.quarantined.len(), 1);
    }

    #[test]
    fn analyze_resilient_complete_on_healthy_input() {
        let snapshot = Snapshot::from_configs(two_router_configs());
        let out = snapshot
            .analyze_resilient(&SimOptions::default(), 1, &ResourceGovernor::unlimited())
            .expect("analysis runs");
        assert!(!out.is_partial());
        assert!(out.value().dp.convergence.converged);
    }

    #[test]
    fn analyze_resilient_empty_snapshot_is_typed_error() {
        let snapshot = Snapshot::from_configs(vec![]);
        let err = snapshot
            .analyze_resilient(&SimOptions::default(), 1, &ResourceGovernor::unlimited())
            .err()
            .expect("no devices to analyze");
        assert!(matches!(err, Error::EmptySnapshot));
    }

    #[test]
    fn lint_from_snapshot() {
        let snapshot = Snapshot::from_configs(vec![(
            "r1".into(),
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n ip access-group NOPE in\n".into(),
        )]);
        let findings = snapshot.lint();
        assert!(findings.iter().any(|f| f.check == "undefined-reference"));
    }

    #[test]
    fn query_through_facade() {
        let snapshot = Snapshot::from_configs(two_router_configs());
        let mut analysis = snapshot.analyze();
        let mut ctx = analysis.query_context();
        let service =
            batnet_queries::ServiceSpec::tcp("10.2.0.0/24".parse().unwrap(), 443);
        let report = batnet_queries::service_reachable(&mut ctx, &service);
        assert!(report.holds());
    }
}
