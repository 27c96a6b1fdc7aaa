//! Layer 2: control-plane diff — per-device RIB and FIB deltas computed
//! from the two simulated data planes.
//!
//! Devices present in only one snapshot are *not* enumerated route by
//! route here (the structural layer already reports the device itself);
//! they still count as changed devices so the data-plane layer explores
//! flows toward them.

use batnet_routing::{DataPlane, FibAction, FibEntry, MainRoute};
use batnet_net::Prefix;
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

/// Merge-joins two prefix-keyed rendered maps into changes.
fn diff_prefix_maps(
    device: &str,
    layer: &'static str,
    before: &BTreeMap<Prefix, String>,
    after: &BTreeMap<Prefix, String>,
    out: &mut Vec<RouteChange>,
) -> usize {
    let mut n = 0;
    for (p, vb) in before {
        match after.get(p) {
            None => {
                n += 1;
                out.push(RouteChange {
                    device: device.to_string(),
                    layer,
                    prefix: *p,
                    kind: RouteChangeKind::Withdrawn,
                    before: Some(vb.clone()),
                    after: None,
                });
            }
            Some(va) if va != vb => {
                n += 1;
                out.push(RouteChange {
                    device: device.to_string(),
                    layer,
                    prefix: *p,
                    kind: RouteChangeKind::Changed,
                    before: Some(vb.clone()),
                    after: Some(va.clone()),
                });
            }
            Some(_) => {}
        }
    }
    for (p, va) in after {
        if !before.contains_key(p) {
            n += 1;
            out.push(RouteChange {
                device: device.to_string(),
                layer,
                prefix: *p,
                kind: RouteChangeKind::Added,
                before: None,
                after: Some(va.clone()),
            });
        }
    }
    n
}

/// Cap on the detailed route-change list (totals stay exact).
const MAX_ROUTE_CHANGES: usize = 200;

/// Diffs two data planes device by device. [`MAX_ROUTE_CHANGES`] caps
/// the *detailed* change list; totals and the changed-device set are
/// always complete.
pub fn diff_routes(before: &DataPlane, after: &DataPlane) -> RouteDiff {
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
        let rib_b: BTreeMap<Prefix, String> =
            db.main_rib.iter_best().map(|(p, rs)| (*p, render_rib(rs))).collect();
        let rib_a: BTreeMap<Prefix, String> =
            da.main_rib.iter_best().map(|(p, rs)| (*p, render_rib(rs))).collect();
        let rib_n = diff_prefix_maps(name, "rib", &rib_b, &rib_a, &mut detailed);
        // FIB layer: one rendered action per prefix.
        let fib_b: BTreeMap<Prefix, String> =
            db.fib.entries().iter().map(|e| (e.prefix, render_fib(e))).collect();
        let fib_a: BTreeMap<Prefix, String> =
            da.fib.entries().iter().map(|e| (e.prefix, render_fib(e))).collect();
        let fib_n = diff_prefix_maps(name, "fib", &fib_b, &fib_a, &mut detailed);
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
}
