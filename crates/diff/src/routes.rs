//! Layer 2: control-plane diff — per-device RIB and FIB deltas computed
//! from the two simulated data planes.
//!
//! Devices present in only one snapshot are *not* enumerated route by
//! route here (the structural layer already reports the device itself);
//! they still count as changed devices so the data-plane layer explores
//! flows toward them.

use batnet_net::Prefix;
use batnet_routing::{DataPlane, Fib, FibAction, FibEntry, MainRib, MainRoute};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How a route changed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteChangeKind {
    /// Prefix present only after.
    Added,
    /// Prefix present only before.
    Withdrawn,
    /// Prefix present in both with different routes (next hop, metric,
    /// protocol, or ECMP set).
    Changed,
}

impl fmt::Display for RouteChangeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteChangeKind::Added => "added",
            RouteChangeKind::Withdrawn => "withdrawn",
            RouteChangeKind::Changed => "changed",
        };
        write!(f, "{s}")
    }
}

/// One per-device route delta, in either the RIB or the FIB layer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RouteChange {
    /// Device name.
    pub device: String,
    /// `"rib"` or `"fib"`.
    pub layer: &'static str,
    /// Destination prefix.
    pub prefix: Prefix,
    /// Added / withdrawn / changed.
    pub kind: RouteChangeKind,
    /// Rendered before state (absent for additions).
    pub before: Option<String>,
    /// Rendered after state (absent for withdrawals).
    pub after: Option<String>,
}

/// The control-plane layer of a snapshot diff.
#[derive(Clone, Default, Debug)]
pub struct RouteDiff {
    /// Detailed changes (capped; see `truncated`).
    pub changes: Vec<RouteChange>,
    /// Total RIB prefix deltas across devices (uncapped count).
    pub total_rib_changes: usize,
    /// Total FIB prefix deltas across devices (uncapped count).
    pub total_fib_changes: usize,
    /// How many detailed changes were dropped to honor the cap.
    pub truncated: usize,
    /// Every device with any RIB/FIB delta, plus devices present in only
    /// one data plane — the seed set for data-plane cone pruning.
    pub changed_devices: BTreeSet<String>,
}

impl RouteDiff {
    /// No route deltas anywhere?
    pub fn is_empty(&self) -> bool {
        self.total_rib_changes == 0 && self.total_fib_changes == 0 && self.changed_devices.is_empty()
    }

    /// Total delta count across layers.
    pub fn change_count(&self) -> usize {
        self.total_rib_changes + self.total_fib_changes
    }
}

/// Renders the best-route run for one RIB prefix.
fn render_rib(routes: &[MainRoute]) -> String {
    routes.iter().map(MainRoute::to_string).collect::<Vec<_>>().join(" | ")
}

/// Renders one FIB entry (no Display on the routing type; the diff keeps
/// its own stable textual form).
fn render_fib(e: &FibEntry) -> String {
    let action = match &e.action {
        FibAction::Forward(hops) => {
            let rendered: Vec<String> = hops
                .iter()
                .map(|h| match h.gateway {
                    Some(gw) => format!("via {gw} ({})", h.iface),
                    None => format!("directly connected ({})", h.iface),
                })
                .collect();
            rendered.join(", ")
        }
        FibAction::Discard => "discard".to_string(),
        FibAction::Unresolved => "unresolved".to_string(),
    };
    format!("{action} [{}]", e.protocol)
}

/// Merge-joins two prefix-sorted runs into changes, rendering only the
/// entries that are added, withdrawn or changed. Both renderers print
/// every field, so comparing the values is comparing their renderings.
fn diff_sorted<'x, T: PartialEq + ?Sized + 'x>(
    device: &str,
    layer: &'static str,
    before: impl Iterator<Item = (Prefix, &'x T)>,
    after: impl Iterator<Item = (Prefix, &'x T)>,
    render: impl Fn(&T) -> String,
    out: &mut Vec<RouteChange>,
) -> usize {
    let (mut before, mut after) = (before.peekable(), after.peekable());
    let mut n = 0;
    loop {
        let (prefix, order) = match (before.peek().map(|e| e.0), after.peek().map(|e| e.0)) {
            (None, None) => break,
            (Some(pb), None) => (pb, Ordering::Less),
            (None, Some(pa)) => (pa, Ordering::Greater),
            (Some(pb), Some(pa)) => (pb.min(pa), pb.cmp(&pa)),
        };
        let vb = if order.is_le() { before.next().map(|e| e.1) } else { None };
        let va = if order.is_ge() { after.next().map(|e| e.1) } else { None };
        let kind = match (vb, va) {
            (Some(b), Some(a)) if b == a => continue,
            (Some(_), Some(_)) => RouteChangeKind::Changed,
            (Some(_), None) => RouteChangeKind::Withdrawn,
            _ => RouteChangeKind::Added,
        };
        n += 1;
        out.push(RouteChange {
            device: device.to_string(),
            layer,
            prefix,
            kind,
            before: vb.map(&render),
            after: va.map(&render),
        });
    }
    n
}

/// Cap on the detailed route-change list (totals stay exact).
const MAX_ROUTE_CHANGES: usize = 200;

/// Diffs two data planes device by device. [`MAX_ROUTE_CHANGES`] caps
/// the *detailed* change list; totals and the changed-device set are
/// always complete.
pub fn diff_routes<'a>(before: &'a DataPlane, after: &'a DataPlane) -> RouteDiff {
    let b: BTreeMap<&str, usize> = before
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect();
    let a: BTreeMap<&str, usize> = after
        .devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect();
    let mut diff = RouteDiff::default();
    let mut detailed: Vec<RouteChange> = Vec::new();
    for (name, &ib) in &b {
        let Some(&ia) = a.get(name) else {
            diff.changed_devices.insert((*name).to_string());
            continue;
        };
        let db = &before.devices[ib];
        let da = &after.devices[ia];
        // RIB layer: the best-route run per prefix.
        let best = |rib: &'a MainRib| rib.iter_best().map(|(p, rs)| (*p, rs));
        let rib_n = diff_sorted(
            name,
            "rib",
            best(&db.main_rib),
            best(&da.main_rib),
            render_rib,
            &mut detailed,
        );
        // FIB layer: one action per prefix.
        let entries = |fib: &'a Fib| fib.entries().iter().map(|e| (e.prefix, e));
        let fib_n =
            diff_sorted(name, "fib", entries(&db.fib), entries(&da.fib), render_fib, &mut detailed);
        diff.total_rib_changes += rib_n;
        diff.total_fib_changes += fib_n;
        if rib_n + fib_n > 0 {
            diff.changed_devices.insert((*name).to_string());
        }
    }
    for name in a.keys() {
        if !b.contains_key(name) {
            diff.changed_devices.insert((*name).to_string());
        }
    }
    detailed.sort_by(|x, y| {
        (x.device.as_str(), x.layer, x.prefix).cmp(&(y.device.as_str(), y.layer, y.prefix))
    });
    if detailed.len() > MAX_ROUTE_CHANGES {
        diff.truncated = detailed.len() - MAX_ROUTE_CHANGES;
        detailed.truncate(MAX_ROUTE_CHANGES);
    }
    diff.changes = detailed;
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;
    use batnet_routing::{simulate, Environment, SimOptions};

    fn dp(configs: &[(&str, &str)]) -> DataPlane {
        let devices: Vec<_> = configs.iter().map(|(n, t)| parse_device(n, t).0).collect();
        simulate(&devices, &Environment::none(), &SimOptions::default())
    }

    #[test]
    fn self_diff_is_empty() {
        let d = dp(&[(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip route 10.9.0.0/24 10.0.0.2\n",
        )]);
        let diff = diff_routes(&d, &d);
        assert!(diff.is_empty(), "{:?}", diff.changes);
    }

    #[test]
    fn static_route_removal_is_withdrawal_both_layers() {
        let before = dp(&[(
            "r1",
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip route 10.9.0.0/24 10.0.0.2\n",
        )]);
        let after = dp(&[("r1", "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n")]);
        let fwd = diff_routes(&before, &after);
        assert_eq!(fwd.total_rib_changes, 1);
        assert_eq!(fwd.total_fib_changes, 1);
        assert!(fwd
            .changes
            .iter()
            .all(|c| c.kind == RouteChangeKind::Withdrawn && c.device == "r1"));
        assert!(fwd.changed_devices.contains("r1"));
        // Swapping sides swaps withdrawn <-> added exactly.
        let rev = diff_routes(&after, &before);
        assert_eq!(rev.change_count(), fwd.change_count());
        assert!(rev.changes.iter().all(|c| c.kind == RouteChangeKind::Added));
    }

    #[test]
    fn next_hop_change_is_changed_and_new_prefix_is_added() {
        let base = "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n";
        let before = dp(&[("r1", &format!("{base}ip route 10.9.0.0/24 10.0.0.2\n"))]);
        let after = dp(&[(
            "r1",
            &format!("{base}ip route 10.9.0.0/24 10.0.0.3\nip route 10.8.0.0/24 10.0.0.2\n"),
        )]);
        let d = diff_routes(&before, &after);
        let got: Vec<(&str, String, RouteChangeKind)> =
            d.changes.iter().map(|c| (c.layer, c.prefix.to_string(), c.kind)).collect();
        let want = |layer| {
            [
                (layer, "10.8.0.0/24".to_string(), RouteChangeKind::Added),
                (layer, "10.9.0.0/24".to_string(), RouteChangeKind::Changed),
            ]
        };
        assert_eq!(got, [want("fib"), want("rib")].concat());
        let changed = &d.changes[1];
        assert_eq!(changed.before.as_deref(), Some("via 10.0.0.2 (e0) [static]"));
        assert_eq!(changed.after.as_deref(), Some("via 10.0.0.3 (e0) [static]"));
        assert_eq!((d.total_rib_changes, d.total_fib_changes), (2, 2));
    }
}
