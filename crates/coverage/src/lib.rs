//! # batnet-coverage — which config does the analysis actually exercise?
//!
//! Batfish's central promise is *proactive* validation: find the bug
//! before deployment. That promise is only as good as the query suite —
//! an ACL line no reachability start, traceroute, or lint BDD pass can
//! ever touch is config the analysis says nothing about, exactly like
//! an untested branch in a code-coverage report. This crate classifies
//! every ACL line, route-map clause, and BGP-neighbor stanza as:
//!
//! * **exercised** — some packet or route evaluates it, or, for a
//!   neighbor, its session pairs in the snapshot;
//! * **shadowed** — the structure is evaluated, but earlier lines or
//!   clauses carve away its entire match space, or the neighbor's peer
//!   address resolves but the session does not pair;
//! * **never-touched** — no query can reach the structure at all: an ACL
//!   attached nowhere (or only to inactive interfaces), a route map no
//!   BGP neighbor applies, a neighbor whose peer address resolves to no
//!   device.
//!
//! The report is a view over what the lint engine's passes compute,
//! before any `batnet-lint-disable` suppression applies: never-touched is
//! [`batnet_lint::never_touched_structures`] (the `unexercised-config`
//! check), shadowed lines and clauses are the paths the `acl-shadowing`
//! and `route-map-dead-clause` checks report, and a neighbor is exercised
//! exactly when [`Topology::bgp_pairing`] — the rule routing establishes
//! sessions by and `bgp-compat` checks against — says it pairs. Coverage
//! compiles nothing itself, so a report and a lint run cannot disagree.
//!
//! Reports are deterministic — the same devices always serialize to the
//! same bytes regardless of input order — because the CI gate compares
//! runs bytewise ([`render_json`], validated by [`validate_report`]).
//!
//! The sibling module [`repair`] closes the loop: given a lint finding
//! or a failing diff, it enumerates small candidate patches and emits
//! the minimal one that fixes the target without changing anything else.

#![deny(clippy::unwrap_used, clippy::panic)]

pub mod repair;

use batnet_config::vi::{Device, SourceSpan};
use batnet_config::Topology;
use batnet_lint::{never_touched_structures, Pass, StructureRef, PASSES};
use batnet_obs::json::{within, Value, Writer};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Coverage classification of one config item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Some query evaluates this item with a non-empty match space.
    Exercised,
    /// Evaluated, but its entire match space is carved away earlier.
    Shadowed,
    /// No query of the suite can reach it at all.
    NeverTouched,
}

impl Status {
    /// Stable lowercase name (the JSON `status` value).
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Exercised => "exercised",
            Status::Shadowed => "shadowed",
            Status::NeverTouched => "never-touched",
        }
    }
}

/// One covered (or not) config item.
#[derive(Clone, Debug)]
pub struct Item {
    /// Owning device.
    pub device: String,
    /// Item path, matching the lint path vocabulary: `acl A/line 10`,
    /// `route-map RM/clause 20`, `neighbor 10.0.0.1`.
    pub path: String,
    /// Classification.
    pub status: Status,
    /// Why, for shadowed and never-touched items ("" when exercised).
    pub reason: String,
    /// Source file ("" when unknown).
    pub file: String,
    /// 1-based first line of the item's structure (0 when unknown).
    pub line: u32,
    /// 1-based last line of the structure's block.
    pub end_line: u32,
}

impl Item {
    fn new(device: &str, path: String, status: Status, reason: &str, src: &SourceSpan) -> Item {
        Item {
            device: device.to_string(),
            path,
            status,
            reason: reason.to_string(),
            file: src.file.clone(),
            line: src.line,
            end_line: src.end(),
        }
    }
}

/// Per-device (or total, with `device == ""`) item counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Device name, or "" for the network total.
    pub device: String,
    /// Total items.
    pub items: usize,
    /// Exercised items.
    pub exercised: usize,
    /// Shadowed items.
    pub shadowed: usize,
    /// Never-touched items.
    pub never_touched: usize,
}

impl Summary {
    /// Exercised fraction in permille (integer, so reports are
    /// byte-identical with no float formatting concerns). A device with
    /// no coverable items is vacuously fully covered.
    pub fn coverage_permille(&self) -> u32 {
        if self.items == 0 {
            1000
        } else {
            (self.exercised * 1000 / self.items) as u32
        }
    }

    fn absorb(&mut self, item: &Item) {
        self.items += 1;
        match item.status {
            Status::Exercised => self.exercised += 1,
            Status::Shadowed => self.shadowed += 1,
            Status::NeverTouched => self.never_touched += 1,
        }
    }
}

/// The full coverage report: one entry per coverable item.
#[derive(Clone, Debug, Default)]
pub struct CoverageReport {
    /// All items, sorted by (device, path).
    pub items: Vec<Item>,
}

impl CoverageReport {
    /// Per-device summaries, sorted by device name.
    pub fn device_summaries(&self) -> Vec<Summary> {
        let mut by_dev: BTreeMap<&str, Summary> = BTreeMap::new();
        for item in &self.items {
            let s = by_dev.entry(&item.device).or_default();
            s.device = item.device.clone();
            s.absorb(item);
        }
        by_dev.into_values().collect()
    }

    /// The network-wide total (`device == ""`).
    pub fn totals(&self) -> Summary {
        let mut total = Summary::default();
        for item in &self.items {
            total.absorb(item);
        }
        total
    }

    /// The coverage gaps: every shadowed or never-touched item.
    pub fn gaps(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().filter(|i| i.status != Status::Exercised)
    }

    /// Never-touched items only (the `--deny gap` trigger).
    pub fn never_touched(&self) -> impl Iterator<Item = &Item> {
        self.items
            .iter()
            .filter(|i| i.status == Status::NeverTouched)
    }
}

const SHADOWED_ACL_LINE: &str = "no packet reaches this line; earlier lines cover its match space";
const SHADOWED_CLAUSE: &str = "no route reaches this clause; earlier clauses cover its match space";
const SHADOWED_NEIGHBOR: &str =
    "peer address resolves, but the peer configures no compatible return session";

/// The lint checks whose findings are the shadowed ACL lines and
/// route-map clauses, by item path.
const SHADOW_CHECKS: &[&str] = &["acl-shadowing", "route-map-dead-clause"];

/// Runs the coverage analysis over a snapshot's devices; `topo` must be
/// inferred from `devices`.
///
/// Deterministic by construction: structures iterate in `BTreeMap`
/// order and items are sorted by (device, path), so the report does not
/// depend on input order — unless an address is assigned twice, when
/// its owner is the last in device order, as for routing.
pub fn analyze(devices: &[Device], topo: &Topology) -> CoverageReport {
    let never: BTreeMap<(String, StructureRef), String> = never_touched_structures(devices, topo)
        .into_iter()
        .map(|nt| ((nt.device, nt.what), nt.reason))
        .collect();
    let mut items = Vec::new();
    for (di, d) in devices.iter().enumerate() {
        let shadowed: BTreeSet<String> = PASSES
            .iter()
            .filter(|(_, checks, _)| checks.iter().any(|c| SHADOW_CHECKS.contains(c)))
            .filter_map(|(_, _, pass)| match pass {
                Pass::Device(run) => Some(run(d)),
                Pass::Network(_) => None,
            })
            .flatten()
            .filter(|f| SHADOW_CHECKS.contains(&f.check))
            .map(|f| f.path)
            .collect();
        let mut push = |what: StructureRef, path: String, live: bool, shadow: &str, src: &SourceSpan| {
            let (status, reason) = match never.get(&(d.name.clone(), what)) {
                Some(r) => (Status::NeverTouched, r.as_str()),
                None if live => (Status::Exercised, ""),
                None => (Status::Shadowed, shadow),
            };
            items.push(Item::new(&d.name, path, status, reason, src));
        };
        for (name, acl) in &d.acls {
            for line in &acl.lines {
                let path = format!("acl {name}/line {}", line.seq);
                let live = !shadowed.contains(&path);
                push(StructureRef::Acl(name.clone()), path, live, SHADOWED_ACL_LINE, &acl.src);
            }
        }
        for (name, rm) in &d.route_maps {
            for clause in &rm.clauses {
                let path = format!("route-map {name}/clause {}", clause.seq);
                let live = !shadowed.contains(&path);
                push(StructureRef::RouteMap(name.clone()), path, live, SHADOWED_CLAUSE, &clause.src);
            }
        }
        for nb in d.bgp.iter().flat_map(|bgp| &bgp.neighbors) {
            let live = topo.bgp_pairing(devices, di, nb).pairs();
            let path = format!("neighbor {}", nb.peer_ip);
            push(StructureRef::BgpNeighbor(nb.peer_ip), path, live, SHADOWED_NEIGHBOR, &nb.src);
        }
    }
    items.sort_by(|a, b| (&a.device, &a.path).cmp(&(&b.device, &b.path)));
    CoverageReport { items }
}

fn write_summary(w: &mut Writer, s: &Summary) {
    w.field("device", &s.device)
        .field("items", s.items)
        .field("exercised", s.exercised)
        .field("shadowed", s.shadowed)
        .field("never_touched", s.never_touched)
        .field("coverage_permille", s.coverage_permille());
}

/// The schema tag every coverage report carries.
pub const SCHEMA: &str = "batnet-cov/v1";

/// The JSON report (schema `batnet-cov/v1`). Timestamp-free and fully
/// sorted: the same devices serialize to the same bytes in any input
/// order, which is what the determinism gate compares.
pub fn render_json(network: &str, report: &CoverageReport) -> String {
    Writer::compact()
        .obj(|w| {
            w.field("schema", SCHEMA)
                .field("network", network)
                .object("totals", |w| write_summary(w, &report.totals()))
                .array("devices", |w| {
                    for s in report.device_summaries() {
                        w.obj(|w| write_summary(w, &s));
                    }
                })
                .array("items", |w| {
                    for item in &report.items {
                        w.obj(|w| {
                            w.field("device", &item.device)
                                .field("path", &item.path)
                                .field("status", item.status.as_str());
                            if !item.reason.is_empty() {
                                w.field("reason", &item.reason);
                            }
                            if !item.file.is_empty() {
                                w.field("file", &item.file)
                                    .field("line", item.line)
                                    .field("end_line", item.end_line);
                            }
                        });
                    }
                });
        })
        .finish_line()
}

/// Plain-text rendering: per-device percentages, then the gap list.
pub fn render_text(network: &str, report: &CoverageReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "coverage report for {network}");
    let pct = |s: &Summary| {
        let p = s.coverage_permille();
        format!("{}.{}%", p / 10, p % 10)
    };
    for s in report.device_summaries() {
        let _ = writeln!(
            out,
            "  {}: {} items, {} exercised, {} shadowed, {} never-touched ({} exercised)",
            s.device,
            s.items,
            s.exercised,
            s.shadowed,
            s.never_touched,
            pct(&s)
        );
    }
    let t = report.totals();
    let _ = writeln!(
        out,
        "total: {} items, {} exercised, {} shadowed, {} never-touched ({} exercised)",
        t.items,
        t.exercised,
        t.shadowed,
        t.never_touched,
        pct(&t)
    );
    let gaps: Vec<&Item> = report.gaps().collect();
    if !gaps.is_empty() {
        let _ = writeln!(out, "gaps:");
        for g in gaps {
            let _ = write!(out, "  {} {}: {} — {}", g.device, g.path, g.status.as_str(), g.reason);
            if !g.file.is_empty() {
                if g.end_line > g.line {
                    let _ = write!(out, " [{}:{}-{}]", g.file, g.line, g.end_line);
                } else {
                    let _ = write!(out, " [{}:{}]", g.file, g.line);
                }
            }
            out.push('\n');
        }
    }
    out
}

fn validate_summary(v: &Value, label: &str) -> Result<Summary, String> {
    let count = |key: &str| within(label, v.num(key)).map(|n| n as usize);
    let s = Summary {
        device: within(label, v.text("device"))?.to_string(),
        items: count("items")?,
        exercised: count("exercised")?,
        shadowed: count("shadowed")?,
        never_touched: count("never_touched")?,
    };
    if s.items != s.exercised + s.shadowed + s.never_touched {
        return Err(format!(
            "{label}: items {} != exercised {} + shadowed {} + never_touched {}",
            s.items, s.exercised, s.shadowed, s.never_touched
        ));
    }
    let permille = count("coverage_permille")?;
    if permille as u32 != s.coverage_permille() {
        return Err(format!(
            "{label}: coverage_permille {} does not match counts (expected {})",
            permille,
            s.coverage_permille()
        ));
    }
    Ok(s)
}

/// Validates a parsed `batnet-cov/v1` report: schema id, consistent
/// counts at every level (totals, per device, and against the item
/// list), and well-formed items. Writer and reader live in-tree so
/// schema drift is a test failure, not a consumer surprise.
pub fn validate_report(doc: &Value) -> Result<(), String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("schema must be {SCHEMA:?}"));
    }
    doc.text("network")?;
    let totals = validate_summary(doc.get("totals").ok_or("missing totals")?, "totals")?;
    let mut dev_sum = Summary::default();
    for (i, d) in doc.arr("devices")?.iter().enumerate() {
        let s = validate_summary(d, &format!("devices[{i}]"))?;
        dev_sum.items += s.items;
        dev_sum.exercised += s.exercised;
        dev_sum.shadowed += s.shadowed;
        dev_sum.never_touched += s.never_touched;
    }
    let mut item_sum = Summary::default();
    for (i, item) in doc.arr("items")?.iter().enumerate() {
        let place = format!("items[{i}]");
        match within(&place, item.text("status"))? {
            "exercised" => item_sum.exercised += 1,
            "shadowed" => item_sum.shadowed += 1,
            "never-touched" => item_sum.never_touched += 1,
            other => return Err(format!("{place}: unknown status '{other}'")),
        }
        item_sum.items += 1;
        for k in ["device", "path"] {
            within(&place, item.text(k))?;
        }
    }
    for (label, a, b) in [
        ("devices", dev_sum.items, totals.items),
        ("items", item_sum.items, totals.items),
        ("exercised items", item_sum.exercised, totals.exercised),
        ("shadowed items", item_sum.shadowed, totals.shadowed),
        ("never-touched items", item_sum.never_touched, totals.never_touched),
    ] {
        if a != b {
            return Err(format!("{label} count {a} disagrees with totals {b}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;
    use batnet_obs::json;

    fn analyze(devices: &[Device]) -> CoverageReport {
        super::analyze(devices, &Topology::infer(devices))
    }

    fn devices(cfgs: &[(&str, &str)]) -> Vec<Device> {
        cfgs.iter()
            .map(|(n, t)| {
                let (mut d, _) = parse_device(n, t);
                d.stamp_source_file(n);
                d
            })
            .collect()
    }

    const R1: &str = "\
hostname r1
interface e0
 ip address 172.16.0.0/31
 ip access-group EDGE in
router bgp 65001
 neighbor 172.16.0.1 remote-as 65002
ip access-list extended EDGE
 10 deny tcp any any eq 22
 20 deny tcp any any eq 22
 30 permit ip any any
ip access-list extended ORPHAN
 10 permit ip any any
route-map UNAPPLIED permit 10
 set local-preference 50
";

    const R2: &str = "\
hostname r2
interface e0
 ip address 172.16.0.1/31
router bgp 65002
 neighbor 172.16.0.0 remote-as 65001
";

    #[test]
    fn classifies_all_three_statuses() {
        let devs = devices(&[("r1", R1), ("r2", R2)]);
        let report = analyze(&devs);
        let status_of = |path: &str| {
            report
                .items
                .iter()
                .find(|i| i.device == "r1" && i.path == path)
                .map(|i| i.status)
        };
        assert_eq!(status_of("acl EDGE/line 10"), Some(Status::Exercised));
        assert_eq!(status_of("acl EDGE/line 20"), Some(Status::Shadowed));
        assert_eq!(status_of("acl EDGE/line 30"), Some(Status::Exercised));
        assert_eq!(status_of("acl ORPHAN/line 10"), Some(Status::NeverTouched));
        assert_eq!(
            status_of("route-map UNAPPLIED/clause 10"),
            Some(Status::NeverTouched)
        );
        assert_eq!(status_of("neighbor 172.16.0.1"), Some(Status::Exercised));
        // Gap items carry source spans from the parsers.
        let orphan = report
            .items
            .iter()
            .find(|i| i.path == "acl ORPHAN/line 10")
            .expect("orphan item");
        assert_eq!(orphan.file, "r1");
        assert!(orphan.line > 0 && orphan.end_line >= orphan.line);
    }

    #[test]
    fn half_configured_session_is_shadowed() {
        let one_sided = "\
hostname r1
interface e0
 ip address 172.16.0.0/31
router bgp 65001
 neighbor 172.16.0.1 remote-as 65002
";
        let silent_peer = "\
hostname r2
interface e0
 ip address 172.16.0.1/31
";
        let devs = devices(&[("r1", one_sided), ("r2", silent_peer)]);
        let report = analyze(&devs);
        let nb = report
            .items
            .iter()
            .find(|i| i.path == "neighbor 172.16.0.1")
            .expect("neighbor item");
        assert_eq!(nb.status, Status::Shadowed);
    }

    #[test]
    fn json_is_deterministic_and_order_independent() {
        let mut devs = devices(&[("r1", R1), ("r2", R2)]);
        let a = render_json("t", &analyze(&devs));
        let b = render_json("t", &analyze(&devs));
        assert_eq!(a, b, "same devices, same bytes");
        devs.reverse();
        let c = render_json("t", &analyze(&devs));
        assert_eq!(a, c, "device order must not matter");
        validate_report(&json::parse(&a).expect("parses")).expect("own report validates");
    }

    #[test]
    fn validator_rejects_inconsistent_reports() {
        let validate_report = |text: &str| validate_report(&json::parse(text).expect("parses"));
        assert!(validate_report("{}").is_err());
        let devs = devices(&[("r1", R1), ("r2", R2)]);
        let good = render_json("t", &analyze(&devs));
        // Corrupt a count: totals no longer match the item list.
        let bad = good.replace("\"exercised\":4", "\"exercised\":3");
        assert_ne!(good, bad, "fixture must actually corrupt something");
        assert!(validate_report(&bad).is_err());
        // Unknown status value.
        let bad = good.replace("\"status\":\"shadowed\"", "\"status\":\"mystery\"");
        assert!(validate_report(&bad).is_err());
    }

    #[test]
    fn summaries_add_up() {
        let devs = devices(&[("r1", R1), ("r2", R2)]);
        let report = analyze(&devs);
        let totals = report.totals();
        let by_dev = report.device_summaries();
        assert_eq!(by_dev.iter().map(|s| s.items).sum::<usize>(), totals.items);
        assert_eq!(
            totals.items,
            totals.exercised + totals.shadowed + totals.never_touched
        );
        // Permille arithmetic: 0 items is vacuously covered.
        assert_eq!(Summary::default().coverage_permille(), 1000);
        let text = render_text("t", &report);
        assert!(text.contains("gaps:"));
        assert!(text.contains("never-touched"));
    }
}
