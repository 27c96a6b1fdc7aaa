//! Fixture contract tests: the committed expected patches are what
//! `batnet-repair` emits, byte for byte, the committed lint-bad
//! fixture carries a genuine never-touched coverage gap, and muting a
//! lint check leaves coverage alone.

use batnet_config::vi::Device;
use batnet_config::Topology;
use batnet_coverage::repair::{repair_diff, repair_lint, RepairLimits};
use batnet_coverage::{render_json, validate_report, CoverageReport, Status};
use std::path::{Path, PathBuf};

fn analyze(devices: &[Device]) -> CoverageReport {
    batnet_coverage::analyze(devices, &Topology::infer(devices))
}

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures")
        .join(rel)
}

fn load_dir(dir: &Path) -> Vec<(String, String)> {
    let mut entries: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("fixture dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "cfg"))
        .map(|p| {
            (
                p.file_stem().and_then(|s| s.to_str()).expect("stem").to_string(),
                std::fs::read_to_string(&p).expect("read"),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn lint_repair_emits_the_committed_patch_byte_identically() {
    let configs = load_dir(&fixture("repair-bad/lint"));
    let out = repair_lint(&configs, "undefined-reference", None, &RepairLimits::default())
        .expect("planted finding exists");
    assert!(out.balanced(), "accounting: {}", out.summary());
    assert_eq!(out.accepted, 1, "{}", out.summary());
    let patch = out.patch.expect("patch accepted").unified();
    let expected = std::fs::read_to_string(fixture("repair-bad/lint/expected.patch"))
        .expect("committed expectation");
    assert_eq!(patch, expected, "patch must match the committed expectation bytewise");
}

#[test]
fn diff_repair_emits_the_committed_patch_byte_identically() {
    let before = load_dir(&fixture("repair-bad/diff/before"));
    let after = load_dir(&fixture("repair-bad/diff/after"));
    let out = repair_diff(&before, &after, &RepairLimits::default()).expect("repair runs");
    assert!(out.balanced(), "accounting: {}", out.summary());
    assert_eq!(out.accepted, 1, "{}", out.summary());
    let accepted = out.patch.expect("patch accepted");
    let expected = std::fs::read_to_string(fixture("repair-bad/diff/expected.patch"))
        .expect("committed expectation");
    assert_eq!(accepted.unified(), expected, "patch must match the committed expectation bytewise");
    // The patch reverts exactly the planted edit: applying it yields the
    // before text.
    let reverted = &accepted.files[0];
    let original_before = before
        .iter()
        .find(|(n, _)| *n == reverted.device)
        .map(|(_, t)| t.clone())
        .expect("device exists on both sides");
    assert_eq!(reverted.after, original_before);
}

#[test]
fn lint_bad_fixture_has_a_genuine_never_touched_gap() {
    let configs = load_dir(&fixture("lint-bad"));
    let devices: Vec<_> = configs
        .iter()
        .map(|(n, t)| {
            let (mut d, _) = batnet_config::parse_device(n, t);
            d.stamp_source_file(n);
            d
        })
        .collect();
    let report = analyze(&devices);
    let gaps: Vec<_> = report.never_touched().collect();
    assert!(
        gaps.iter().any(|g| g.path.starts_with("acl STALE-FILTER/")),
        "expected the unattached STALE-FILTER ACL to be never-touched: {gaps:?}"
    );
    // The gap carries a real source span from the parser.
    let gap = gaps.first().expect("at least one gap");
    assert_eq!(gap.status, Status::NeverTouched);
    assert!(gap.line > 0 && gap.end_line > gap.line, "block span: {gap:?}");
    // And the JSON report over the fixture is valid and deterministic.
    let json = render_json("lint-bad", &report);
    let doc = batnet_obs::json::parse(&json).expect("report parses");
    validate_report(&doc).expect("valid report");
    assert_eq!(json, render_json("lint-bad", &analyze(&devices)));
}

/// Coverage reads lint's passes before suppressions apply: a device that
/// mutes `acl-shadowing` still has its shadowed line reported shadowed,
/// while lint itself goes quiet about it.
#[test]
fn lint_disable_directive_leaves_coverage_unchanged() {
    // The directive goes last, so both configs put every structure on
    // the same source line.
    let config = |directive: &str| {
        format!(
            "hostname r1
interface e0
 ip address 10.0.0.1/24
 ip access-group EDGE in
ip access-list extended EDGE
 10 deny tcp any any eq 22
 20 deny tcp any any eq 22
 30 permit ip any any
{directive}"
        )
    };
    let parse = |text: &str| {
        let (mut d, _) = batnet_config::parse_device("r1", text);
        d.stamp_source_file("r1");
        vec![d]
    };
    let plain = parse(&config(""));
    let muted = parse(&config("! batnet-lint-disable acl-shadowing\n"));
    assert_eq!(muted[0].lint_suppressions, ["acl-shadowing"], "the directive parses");
    let shadow_findings = |devices: &[Device]| {
        batnet_lint::run_all(devices, &Topology::infer(devices))
            .into_iter()
            .filter(|f| f.check == "acl-shadowing")
            .count()
    };
    assert_eq!(shadow_findings(&plain), 1);
    assert_eq!(shadow_findings(&muted), 0, "lint honours the directive");
    let line_20 = |devices: &[Device]| {
        analyze(devices)
            .items
            .into_iter()
            .find(|i| i.path == "acl EDGE/line 20")
            .map(|i| i.status)
    };
    assert_eq!(line_20(&plain), Some(Status::Shadowed));
    assert_eq!(line_20(&muted), Some(Status::Shadowed), "coverage ignores the directive");
    assert_eq!(
        render_json("t", &analyze(&plain)),
        render_json("t", &analyze(&muted)),
        "the whole report is unchanged"
    );
}
