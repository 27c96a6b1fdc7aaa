//! Differential-analysis integration tests: the diff-core properties
//! from the PR-5 checklist — self-diff emptiness (including under
//! quarantine), before/after swap symmetry, and a seeded perturbation
//! whose changed-flow set is known exactly.

use batnet::diff::{ChangeKind, FlowDirection, RouteChangeKind};
use batnet::{DiffOptions, Snapshot};
use batnet_topogen::dc::leaf_spine;
use batnet_topogen::perturb::{perturb, Scenario};

fn snapshot_of(configs: &[(String, String)], env: &batnet::routing::Environment) -> Snapshot {
    Snapshot::from_configs(configs.to_vec()).with_env(env.clone())
}

/// diff(s, s) is empty at every layer, and the symbolic stage is skipped
/// outright (the graphs are equal by construction).
#[test]
fn self_diff_is_empty_and_skips_reach() {
    let net = leaf_spine("T", 2, 4);
    let snap = snapshot_of(&net.configs, &net.env);
    let diff = snap.diff(&snap);
    assert!(diff.is_empty(), "self-diff not empty: {} changes", diff.change_count());
    assert!(diff.structural.is_empty());
    assert!(diff.routes.is_empty());
    assert!(diff.reach.skipped_equivalent);
    assert_eq!(diff.reach.starts_compared, 0);
}

/// Quarantined devices do not break self-diff emptiness: the comparison
/// runs on the healthy subset and the quarantine is accounted for on
/// both sides of the report.
#[test]
fn self_diff_is_empty_under_quarantine() {
    let mut net = leaf_spine("T", 1, 2);
    net.configs.push((
        "broken".to_string(),
        "%%% not a router config %%%\ngarbage in\ngarbage out\n".to_string(),
    ));
    let snap = snapshot_of(&net.configs, &net.env);
    assert!(
        !snap.quarantined.is_empty(),
        "fixture must actually quarantine the garbage device"
    );
    let diff = snap.diff(&snap);
    assert!(diff.is_empty(), "self-diff not empty: {} changes", diff.change_count());
    assert_eq!(diff.quarantined_before, diff.quarantined_after);
    assert!(
        diff.quarantined_before.iter().any(|q| q.device == "broken"),
        "{:?}",
        diff.quarantined_before
    );
}

/// Swapping before and after swaps every layer's polarity exactly:
/// structural added <-> removed, routes added <-> withdrawn, flows
/// lost <-> gained. The underlying delta sets are identical, so the
/// counts must match one for one.
#[test]
fn swap_swaps_polarity_at_every_layer() {
    let net = leaf_spine("T", 2, 4);
    let p = perturb(&net, Scenario::AclAttachPeering, 5).expect("leaf eligible");
    let before = snapshot_of(&net.configs, &net.env);
    let after = snapshot_of(&p.configs, &net.env);
    let fwd = before.diff(&after);
    let rev = after.diff(&before);
    assert!(!fwd.is_empty(), "perturbation produced no diff");

    let count = |d: &batnet::SnapshotDiff, k: ChangeKind| {
        d.structural.changes.iter().filter(|c| c.kind == k).count()
    };
    assert_eq!(count(&fwd, ChangeKind::Added), count(&rev, ChangeKind::Removed));
    assert_eq!(count(&fwd, ChangeKind::Removed), count(&rev, ChangeKind::Added));
    assert_eq!(count(&fwd, ChangeKind::Modified), count(&rev, ChangeKind::Modified));

    let route_count = |d: &batnet::SnapshotDiff, k: RouteChangeKind| {
        d.routes.changes.iter().filter(|c| c.kind == k).count()
    };
    assert_eq!(
        route_count(&fwd, RouteChangeKind::Added),
        route_count(&rev, RouteChangeKind::Withdrawn)
    );
    assert_eq!(
        route_count(&fwd, RouteChangeKind::Withdrawn),
        route_count(&rev, RouteChangeKind::Added)
    );
    assert_eq!(
        route_count(&fwd, RouteChangeKind::Changed),
        route_count(&rev, RouteChangeKind::Changed)
    );
    assert_eq!(fwd.routes.changed_devices, rev.routes.changed_devices);

    assert_eq!(fwd.reach.changed_starts, rev.reach.changed_starts);
    let flow_count = |d: &batnet::SnapshotDiff, dir: FlowDirection| {
        d.reach.deltas.iter().filter(|f| f.direction == dir).count()
    };
    assert_eq!(
        flow_count(&fwd, FlowDirection::Lost),
        flow_count(&rev, FlowDirection::Gained)
    );
    assert_eq!(
        flow_count(&fwd, FlowDirection::Gained),
        flow_count(&rev, FlowDirection::Lost)
    );
}

/// The seeded `acl-add-line` perturbation inserts a deny for TCP/443 as
/// the first line of the victim's SERVERS ACL, which is applied inbound
/// only on the victim's `servers` interface. The changed-flow set is
/// therefore known exactly: flows from that one start location are lost
/// (nothing is gained), and every witness is TCP to port 443.
#[test]
fn acl_add_line_loses_exactly_the_denied_flows() {
    let net = leaf_spine("T", 2, 4);
    let p = perturb(&net, Scenario::AclAddLine, 9).expect("leaf eligible");
    let before = snapshot_of(&net.configs, &net.env);
    let after = snapshot_of(&p.configs, &net.env);
    let diff = before.diff_with(&after, &DiffOptions::default());

    assert_eq!(diff.structural.change_count(), 1, "{:?}", diff.structural.changes);
    let c = &diff.structural.changes[0];
    assert_eq!(c.device, p.victim);
    assert_eq!(c.path, "acl SERVERS");
    assert!(c.detail.contains("+ 5 deny tcp any any eq 443"), "{}", c.detail);

    // An ACL edit changes no routes…
    assert!(diff.routes.is_empty(), "{:?}", diff.routes.changes);
    // …but the reach stage still runs (the equivalence fast path must
    // not fire) and pinpoints exactly the one affected start location.
    assert!(!diff.reach.skipped_equivalent);
    assert_eq!(diff.reach.changed_starts, 1);
    assert!(!diff.reach.deltas.is_empty());
    for delta in &diff.reach.deltas {
        assert_eq!(delta.direction, FlowDirection::Lost, "{delta:?}");
        assert_eq!(delta.device, p.victim);
        assert_eq!(delta.iface, "servers");
        assert!(delta.flow.contains("443"), "witness not on port 443: {}", delta.flow);
        assert_ne!(delta.before_trace, delta.after_trace);
    }
}

/// One line per structural change: device, path, kind, detail, and both
/// spans as `file:line-end` (`-` when absent).
fn struct_lines(diff: &batnet::diff::StructuralDiff) -> String {
    let span = |s: &Option<batnet::config::vi::SourceSpan>| match s {
        Some(s) => format!("{}:{}-{}", s.file, s.line, s.end_line),
        None => "-".to_string(),
    };
    let mut out = String::new();
    for name in &diff.devices_added {
        out += &format!("device {name} added\n");
    }
    for name in &diff.devices_removed {
        out += &format!("device {name} removed\n");
    }
    for c in &diff.changes {
        out += &format!(
            "{} | {} | {} | {} | {} -> {}\n",
            c.device,
            c.path,
            c.kind,
            c.detail,
            span(&c.before_src),
            span(&c.after_src)
        );
    }
    out
}

const PROTOCOLS_BEFORE: [(&str, &str); 2] = [
    (
        "r1",
        "hostname r1\n\
         interface e0\n ip address 10.0.0.1/24\n\
         router bgp 65001\n\
         \x20bgp router-id 1.1.1.1\n\
         \x20network 10.1.0.0/24\n\
         \x20neighbor 10.0.0.2 remote-as 65002\n\
         \x20neighbor 10.0.0.2 route-map IMP in\n\
         \x20neighbor 10.0.0.3 remote-as 65003\n\
         \x20neighbor 10.0.0.4 remote-as 65004\n\
         \x20neighbor 10.0.0.6 remote-as 65006\n\
         \x20neighbor 10.0.0.6 description old\n\
         router ospf 1\n\
         \x20router-id 1.1.1.1\n\
         ip route 10.9.0.0/16 10.0.0.2\n\
         ip route 10.8.0.0/16 10.0.0.3 5\n\
         ip route 10.6.0.0/16 10.0.0.3\n",
    ),
    (
        "r2",
        "hostname r2\n\
         interface e0\n ip address 10.0.0.2/24\n\
         router bgp 65002\n\
         \x20neighbor 10.0.0.1 remote-as 65001\n",
    ),
];

const PROTOCOLS_AFTER: [(&str, &str); 2] = [
    (
        "r1",
        "hostname r1\n\
         interface e0\n ip address 10.0.0.1/24\n\
         router bgp 65001\n\
         \x20bgp router-id 1.1.1.9\n\
         \x20network 10.1.0.0/24\n\
         \x20network 10.2.0.0/24\n\
         \x20redistribute static\n\
         \x20neighbor 10.0.0.2 remote-as 65012\n\
         \x20neighbor 10.0.0.2 route-map IMP2 in\n\
         \x20neighbor 10.0.0.2 route-map EXP out\n\
         \x20neighbor 10.0.0.2 next-hop-self\n\
         \x20neighbor 10.0.0.4 remote-as 65004\n\
         \x20neighbor 10.0.0.5 remote-as 65005\n\
         \x20neighbor 10.0.0.6 remote-as 65006\n\
         \x20neighbor 10.0.0.6 description new\n\
         \x20neighbor 10.0.0.6 send-community\n\
         router ospf 1\n\
         \x20router-id 1.1.1.2\n\
         \x20auto-cost reference-bandwidth 1000\n\
         \x20redistribute connected\n\
         ip route 10.9.0.0/16 10.0.0.2\n\
         ip route 10.8.0.0/16 10.0.0.3 20\n\
         ip route 10.7.0.0/16 10.0.0.2\n\
         ip route 192.168.0.0/16 null0\n",
    ),
    (
        "r2",
        "hostname r2\n\
         interface e0\n ip address 10.0.0.2/24\n\
         router ospf 1\n\
         \x20redistribute static\n",
    ),
];

/// The structural layer on BGP neighbours, static routes and the BGP
/// and OSPF processes, in both directions: every path, kind, detail and
/// span is pinned.
#[test]
fn structural_diff_of_protocols_is_pinned_both_ways() {
    use batnet::config::parse_device;
    use batnet::diff::structural::diff_structural;
    let parse = |side: &[(&str, &str)]| -> Vec<_> {
        side.iter().map(|(name, text)| parse_device(name, text).0).collect()
    };
    let (before, after) = (parse(&PROTOCOLS_BEFORE), parse(&PROTOCOLS_AFTER));
    let fwd = struct_lines(&diff_structural(&before, &after));
    let rev = struct_lines(&diff_structural(&after, &before));
    assert_eq!(fwd, PROTOCOLS_FORWARD, "{fwd}");
    assert_eq!(rev, PROTOCOLS_REVERSE, "{rev}");
}

const PROTOCOLS_FORWARD: &str = "\
r1 | bgp | modified | router-id: 1.1.1.1 -> 1.1.1.9; + network 10.2.0.0/24; redistribute-static: false -> true | - -> -
r1 | bgp neighbor 10.0.0.2 | modified | remote-as: 65002 -> 65012; import-policy: IMP -> IMP2; export-policy: none -> EXP; next-hop-self: false -> true | r1:7-8 -> r1:9-12
r1 | bgp neighbor 10.0.0.3 | removed | remote-as 65003 | r1:9-9 -> -
r1 | bgp neighbor 10.0.0.5 | added | remote-as 65005 | - -> r1:14-14
r1 | bgp neighbor 10.0.0.6 | modified | changed | r1:11-12 -> r1:15-17
r1 | ospf | modified | router-id: 1.1.1.1 -> 1.1.1.2; reference-bandwidth: 100000 -> 1000; redistribute-connected: false -> true | - -> -
r1 | static 10.6.0.0/16 -> 10.0.0.3 | removed | distance 1 | - -> -
r1 | static 10.7.0.0/16 -> 10.0.0.2 | added | distance 1 | - -> -
r1 | static 10.8.0.0/16 -> 10.0.0.3 | modified | distance 5 -> 20 | - -> -
r1 | static 192.168.0.0/16 -> discard | added | distance 1 | - -> -
r2 | bgp | removed | as 65002 | - -> -
r2 | ospf | added | process added | - -> -
";

const PROTOCOLS_REVERSE: &str = "\
r1 | bgp | modified | router-id: 1.1.1.9 -> 1.1.1.1; - network 10.2.0.0/24; redistribute-static: true -> false | - -> -
r1 | bgp neighbor 10.0.0.2 | modified | remote-as: 65012 -> 65002; import-policy: IMP2 -> IMP; export-policy: EXP -> none; next-hop-self: true -> false | r1:9-12 -> r1:7-8
r1 | bgp neighbor 10.0.0.3 | added | remote-as 65003 | - -> r1:9-9
r1 | bgp neighbor 10.0.0.5 | removed | remote-as 65005 | r1:14-14 -> -
r1 | bgp neighbor 10.0.0.6 | modified | changed | r1:15-17 -> r1:11-12
r1 | ospf | modified | router-id: 1.1.1.2 -> 1.1.1.1; reference-bandwidth: 1000 -> 100000; redistribute-connected: true -> false | - -> -
r1 | static 10.6.0.0/16 -> 10.0.0.3 | added | distance 1 | - -> -
r1 | static 10.7.0.0/16 -> 10.0.0.2 | removed | distance 1 | - -> -
r1 | static 10.8.0.0/16 -> 10.0.0.3 | modified | distance 20 -> 5 | - -> -
r1 | static 192.168.0.0/16 -> discard | removed | distance 1 | - -> -
r2 | bgp | added | as 65002 | - -> -
r2 | ospf | removed | process removed | - -> -
";

/// `fixtures/diff-shift`: the after side is the before side with comment
/// lines inserted above a route map, an ACL and a BGP neighbour. Spans
/// move, meaning does not: no structural change, and the facade takes the
/// equivalence fast path.
#[test]
fn a_line_shift_is_no_change() {
    use batnet::diff::structural::diff_structural;
    let load = |side: &str| {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/diff-shift");
        Snapshot::from_dir(&fixture.join(side)).expect("fixture loads")
    };
    let (before, after) = (load("before"), load("after"));
    let structural = diff_structural(&before.devices, &after.devices);
    assert!(structural.is_empty(), "{}", struct_lines(&structural));
    let diff = before.diff(&after);
    assert!(diff.is_empty(), "{} change(s)", diff.change_count());
    assert!(diff.reach.skipped_equivalent);
}
