//! Byte-level stability of the audit artifacts CI reads: lint JSON and
//! SARIF, the lint baseline, coverage JSON and diff JSON must render to
//! exactly the committed files under `tests/golden/`.
//!
//! Each artifact is rendered by the same library calls its front end
//! makes (`batnet-lint`, `batnet-cov`, `batnet-diff`) on the committed
//! fixtures, so `batnet-lint --dir fixtures/lint-bad --format json`
//! run from the repository root prints the bytes of
//! `lint-bad.lint.json`. A fixed in-test finding list sets every
//! optional member (`file`/`line`, `witness`, an empty device) and
//! strings that need escaping. Seeded perturbation diffs (N2's
//! `acl-attach-peering` seed 3, the one `harness diff` benches, and
//! NAT-crossing drain-device and acl-add-line diffs on NET1, N3 and N7)
//! are too large to commit, so one line each pins its shape and an
//! FNV-1a 64 digest of its JSON bytes instead; so do one line each for `batnet-lint --format json` and `batnet-cov
//! --format json` on N2 and on NET1, and one line each for a seeded set
//! of service questions on N2 and on NET1 (their starts, violations and
//! examples).
//! Regenerate with
//! `cargo test --test golden -- --ignored write_golden` only when a
//! format intentionally changes (and say so in the change log).

use batnet::config::diag::Diagnostic;
use batnet::config::{parse_device, Topology};
use batnet::config::vi::{Device, SourceSpan};
use batnet::lint::{output, run_network, Finding};
use batnet::net::rng::Rng;
use batnet::net::Prefix;
use batnet::queries::{service_blocked, service_reachable, QueryReport, ServiceSpec};
use batnet::{DiffOptions, Snapshot};
use batnet_topogen::perturb::{perturb, Scenario};
use std::path::{Path, PathBuf};

const LINT_BAD: &str = "fixtures/lint-bad";

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_path(name: &str) -> PathBuf {
    root().join("tests/golden").join(name)
}

/// `fixtures/lint-bad` as `batnet-lint --dir` and `batnet-cov --dir`
/// read it: the loader's sorted configs, each parsed with its
/// diagnostics, source files stamped with the device name.
fn lint_bad() -> (Vec<Device>, Vec<(String, Vec<Diagnostic>)>) {
    let load = batnet::load_dir(&root().join(LINT_BAD)).expect("lint-bad loads");
    assert!(load.quarantined.is_empty(), "lint-bad has no quarantined files");
    load.configs
        .iter()
        .map(|(name, text)| {
            let (mut device, diags) = parse_device(name, text);
            device.stamp_source_file(name);
            (device, (name.clone(), diags.into_items()))
        })
        .unzip()
}

/// Every optional member set somewhere, and text that needs escaping.
fn fixed_findings() -> Vec<Finding> {
    let at = |file: &str, line| SourceSpan { file: file.into(), line, end_line: line };
    vec![
        Finding::new("undefined-reference", "r1", "interface e0 (in)/acl NOPE", "acl \"NOPE\" is not defined")
            .at(&at("r1", 4)),
        Finding::new("acl-partial-shadow", "r2", "acl A/line 20", "partially shadowed by line 10 \\ tab\there")
            .with_witness("tcp 0.0.0.0:0 -> 0.0.0.0:22")
            .at(&at("r2.cfg", 21)),
        Finding::new("acl-partial-shadow", "r3", "acl B/line 5", "shadowed — naïve ordering")
            .with_witness("udp 10.0.0.1:53 -> 10.0.0.2:5353"),
        Finding::new("duplicate-ip", "", "ip 10.0.0.1", "10.0.0.1 assigned twice\u{7}\n"),
    ]
}

/// Every golden artifact: its file name and its freshly rendered bytes.
fn artifacts() -> Vec<(&'static str, String)> {
    let (devices, diags) = lint_bad();
    let topo = Topology::infer(&devices);
    let lint = run_network(&devices, &topo, &diags);
    let coverage = batnet_coverage::analyze(&devices, &topo);
    let side = |dir: &str| Snapshot::from_dir(&root().join(dir)).expect("diff-pair side loads");
    let before = side("fixtures/diff-pair/before");
    let after = side("fixtures/diff-pair/after");
    let diff = before.diff_with(&after, &DiffOptions::default());
    let fixed = fixed_findings();
    vec![
        ("lint-bad.lint.json", output::render_json(LINT_BAD, &lint)),
        ("lint-bad.sarif", output::render_sarif(&lint)),
        ("lint-bad.cov.json", batnet_coverage::render_json(LINT_BAD, &coverage)),
        ("diff-pair.json", batnet::diff::render_json(&diff)),
        ("findings.json", output::render_json("fixed", &fixed)),
        ("findings.sarif", output::render_sarif(&fixed)),
        ("findings.baseline.json", output::write_baseline(&fixed)),
    ]
}

/// FNV-1a 64 of `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seeded perturbation diffs pinned by digest: (suite network,
/// scenario, seed). N2's diff crosses no NAT; on NET1, N3 and N7 every
/// start's forward cone holds the border's source NAT, so their lines
/// pin the before/after traces the diff JSON embeds for NAT-crossing
/// flows.
const DIFF_DIGESTS: &[(&str, Scenario, u64)] = &[
    ("N2", Scenario::AclAttachPeering, 3),
    ("NET1", Scenario::DrainDevice, 1),
    ("NET1", Scenario::AclAddLine, 1),
    ("N3", Scenario::DrainDevice, 1),
    ("N3", Scenario::AclAddLine, 1),
    ("N7", Scenario::DrainDevice, 1),
    ("N7", Scenario::AclAddLine, 1),
];

/// The golden file of one [`DIFF_DIGESTS`] row.
fn diff_digest_name(id: &str, scenario: Scenario, seed: u64) -> String {
    format!("{}-{}-{seed}.diff.fnv", id.to_lowercase(), scenario.name())
}

/// The digest line of `batnet-diff --net ID --scenario S --seed N
/// --format json`: its layer counts, byte length and FNV-1a 64.
fn diff_digest_line(id: &str, scenario: Scenario, seed: u64) -> String {
    let net = (batnet_topogen::suite::find(id).expect("suite network").build)();
    let p = perturb(&net, scenario, seed).expect("a victim is eligible");
    let snapshot = |configs| Snapshot::from_configs(configs).with_env(net.env.clone());
    let diff = snapshot(net.configs.clone()).diff(&snapshot(p.configs));
    let json = batnet::diff::render_json(&diff);
    format!(
        "structural={} routes={} changed_starts={} bytes={} fnv1a64={:016x}\n",
        diff.structural.change_count(),
        diff.routes.change_count(),
        diff.reach.changed_starts,
        json.len(),
        fnv1a64(json.as_bytes()),
    )
}

/// Checks every [`DIFF_DIGESTS`] row on network `id` against its golden
/// file.
fn check_diff_digests(id: &str) {
    for &(net, scenario, seed) in DIFF_DIGESTS.iter().filter(|row| row.0 == id) {
        let name = diff_digest_name(net, scenario, seed);
        let want = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("committed golden file {name}: {e}"));
        assert_eq!(diff_digest_line(net, scenario, seed), want, "{name}: the diff JSON drifted");
    }
}

#[test]
fn n2_perturbation_diff_matches_its_digest() {
    check_diff_digests("N2");
}

#[test]
fn nat_crossing_diffs_match_their_digests() {
    check_diff_digests("NET1");
    check_diff_digests("N3");
}

/// N7's two diffs take the longest, so they run beside the others.
#[test]
fn n7_nat_crossing_diffs_match_their_digests() {
    check_diff_digests("N7");
}

/// The suite networks whose lint and coverage JSON are pinned by digest.
const SUITE_DIGESTS: &[&str] = &["N2", "NET1"];

/// The digest lines of `batnet-lint --net ID --format json` and
/// `batnet-cov --net ID --format json`, keyed by golden file name: the
/// finding or item count, byte length and FNV-1a 64. Devices are parsed
/// the way each front end parses them (coverage stamps source files).
fn suite_digest_lines(id: &str) -> [(String, String); 2] {
    let net = (batnet_topogen::suite::find(id).expect("suite network").build)();
    let mut devices = Vec::new();
    let mut diags = Vec::new();
    for (name, text) in &net.configs {
        let (device, dg) = parse_device(name, text);
        devices.push(device);
        diags.push((name.clone(), dg.into_items()));
    }
    let topo = Topology::infer(&devices);
    let findings = run_network(&devices, &topo, &diags);
    let lint = output::render_json(&net.name, &findings);
    for (d, (name, _)) in devices.iter_mut().zip(&net.configs) {
        d.stamp_source_file(name);
    }
    let report = batnet_coverage::analyze(&devices, &topo);
    let cov = batnet_coverage::render_json(&net.name, &report);
    let line = |count: &str, n: usize, json: &str| {
        format!("{count}={n} bytes={} fnv1a64={:016x}\n", json.len(), fnv1a64(json.as_bytes()))
    };
    let stem = id.to_lowercase();
    [
        (format!("{stem}.lint.fnv"), line("findings", findings.len(), &lint)),
        (format!("{stem}.cov.fnv"), line("items", report.items.len(), &cov)),
    ]
}

#[test]
fn suite_lint_and_coverage_match_their_digests() {
    for id in SUITE_DIGESTS {
        for (name, got) in suite_digest_lines(id) {
            let want = std::fs::read_to_string(golden_path(&name))
                .unwrap_or_else(|e| panic!("committed golden file {name}: {e}"));
            assert_eq!(got, want, "{name}: the {id} report drifted");
        }
    }
}

/// Service ports the seeded questions draw from.
const QUESTION_PORTS: [u16; 4] = [22, 80, 443, 53];

/// Seeded questions per network.
const QUESTIONS: usize = 20;

/// The digest line of a seeded set of service questions on one suite
/// network: for each of [`QUESTIONS`] (connected prefix, port) picks,
/// `service_reachable` and `service_blocked` from external interfaces,
/// one long-lived analysis answering them in order. The FNV-1a 64
/// covers each question's prefix, port, `starts_checked` and every
/// violation's start, example and positive example.
fn questions_digest_line(id: &str) -> String {
    let net = (batnet_topogen::suite::find(id).expect("suite network").build)();
    let mut analysis = Snapshot::from_configs(net.configs.clone())
        .with_env(net.env.clone())
        .analyze();
    let mut universe: Vec<Prefix> = analysis
        .devices
        .iter()
        .flat_map(|d| d.active_interfaces().flat_map(|i| i.connected_prefixes()))
        .collect();
    universe.sort();
    universe.dedup();
    let mut rng = Rng::new(1);
    let mut text = String::new();
    let (mut starts, mut violations) = (0, 0);
    for _ in 0..QUESTIONS {
        let service = ServiceSpec::tcp(*rng.pick(&universe), *rng.pick(&QUESTION_PORTS));
        let reachable = service_reachable(&mut analysis.query_context(), &service);
        let blocked = service_blocked(&mut analysis.query_context(), &service, true);
        for report in [reachable, blocked] {
            let QueryReport { query, violations: found, starts_checked } = report;
            text += &format!("{query} {} {} {starts_checked}\n", service.prefix, service.port);
            starts += starts_checked;
            violations += found.len();
            for v in found {
                text += &format!(
                    "{}[{}] {:?} {:?}\n",
                    v.start.device, v.start.interface, v.example, v.positive_example
                );
            }
        }
    }
    format!(
        "questions={QUESTIONS} starts_checked={starts} violations={violations} fnv1a64={:016x}\n",
        fnv1a64(text.as_bytes())
    )
}

#[test]
fn suite_service_questions_match_their_digests() {
    for id in SUITE_DIGESTS {
        let name = format!("{}.questions.fnv", id.to_lowercase());
        let want = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("committed golden file {name}: {e}"));
        assert_eq!(questions_digest_line(id), want, "{name}: the {id} answers drifted");
    }
}

#[test]
fn audit_artifacts_match_their_golden_files() {
    for (name, got) in artifacts() {
        let want = std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("committed golden file {name}: {e}"));
        assert!(got == want, "{name} drifted from its golden file:\n{got}");
    }
}

#[test]
#[ignore = "regenerates the committed golden files"]
fn write_golden() {
    std::fs::create_dir_all(golden_path("")).expect("mkdir");
    for (name, text) in artifacts() {
        std::fs::write(golden_path(name), text).expect("write golden file");
    }
    for &(id, scenario, seed) in DIFF_DIGESTS {
        let line = diff_digest_line(id, scenario, seed);
        std::fs::write(golden_path(&diff_digest_name(id, scenario, seed)), line).expect("write golden file");
    }
    for id in SUITE_DIGESTS {
        for (name, line) in suite_digest_lines(id) {
            std::fs::write(golden_path(&name), line).expect("write golden file");
        }
        let name = format!("{}.questions.fnv", id.to_lowercase());
        std::fs::write(golden_path(&name), questions_digest_line(id)).expect("write golden file");
    }
}
