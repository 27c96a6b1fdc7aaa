//! The BGP fixed point's two structural contracts at suite scale.
//!
//! * **Sharing.** Only the properties routes share are interned; each
//!   route keeps its own prefix and next hop. So the interner holds about
//!   one bundle per shareable attribute combination, not one per route.
//! * **Width independence.** A colour group of ≥ 8 nodes computes its
//!   pulls *and* applies its changes on a map; each node's changes write
//!   only that node's state. RIBs, best routes, every RIB-in arrival
//!   stamp, clocks, FIBs and the convergence report must therefore be the
//!   same at width 1 and width 4, in both scheduler modes.
//! * **RIB-in layout.** Each prefix holds one vector of routes, one per
//!   sender, sorted by sender, never empty.

use batnet_exec::{with_pool, Pool};
use batnet_routing::{simulate, DataPlane, SchedulerMode, SimOptions};
use batnet_topogen::GeneratedNetwork;

#[test]
fn n2_interns_shareable_combinations_not_routes() {
    let net = batnet_topogen::suite::n2();
    let dp = simulate(&net.parse(), &net.env, &SimOptions::default());
    let combos = dp.shareable_combos();
    let mem = &dp.mem;
    assert!(combos > 0);
    assert!(
        mem.unique_attr_bundles <= combos * 3,
        "{} bundles for {combos} shareable combinations",
        mem.unique_attr_bundles
    );
    assert!(
        mem.unique_attr_bundles * 100 < mem.total_bgp_routes,
        "{} bundles for {} routes",
        mem.unique_attr_bundles,
        mem.total_bgp_routes
    );
}

/// Everything the fixed point decides, rendered per device. `Debug` of an
/// interned bundle prints its value, so two runs with separate interners
/// compare equal exactly when their routes are.
fn rendered(dp: &DataPlane) -> Vec<String> {
    let mut out: Vec<String> = dp
        .devices
        .iter()
        .map(|d| {
            format!(
                "{}\nrib {:?}\nbest {:?}\nrib_in {:?}\nclock {}\nfib {:?}",
                d.name, d.main_rib, d.bgp.best, d.bgp.rib_in, d.bgp.clock, d.fib
            )
        })
        .collect();
    out.push(format!("convergence {:?}", dp.convergence));
    out
}

fn assert_width_independent(label: &str, net: &GeneratedNetwork, opts: &SimOptions) {
    let devices = net.parse();
    let run = |width| with_pool(&Pool::new(width), || simulate(&devices, &net.env, opts));
    let one = rendered(&run(1));
    let four = rendered(&run(4));
    assert_eq!(one.len(), four.len());
    for (a, b) in one.iter().zip(&four) {
        assert_eq!(a, b, "{label}: width 1 and width 4 disagree");
    }
}

#[test]
fn colour_groups_apply_the_same_changes_at_every_width() {
    let fat = batnet_topogen::dc::fat_tree("t", 2, 3, 2, 8);
    let dp = simulate(&fat.parse(), &fat.env, &SimOptions::default());
    assert!(
        dp.devices.len() >= 8 * dp.convergence.colors,
        "some colour group must reach the map threshold of 8"
    );
    assert!(dp.mem.total_bgp_routes > 0);
    for scheduler in [SchedulerMode::Colored, SchedulerMode::Lockstep] {
        let opts = SimOptions {
            scheduler,
            ..SimOptions::default()
        };
        assert_width_independent(&format!("fat tree {scheduler:?}"), &fat, &opts);
    }
    let gadgets = [
        ("fig1a", batnet_topogen::gadgets::fig1a()),
        ("fig1b", batnet_topogen::gadgets::fig1b()),
    ];
    for (label, net) in &gadgets {
        for scheduler in [SchedulerMode::Colored, SchedulerMode::Lockstep] {
            let opts = SimOptions {
                scheduler,
                max_sweeps: 60,
                ..SimOptions::default()
            };
            assert_width_independent(&format!("{label} {scheduler:?}"), net, &opts);
        }
    }
}

/// The layout `BgpNode::rib_in` documents: each prefix's routes are filed
/// under their own prefix, one per sender in strictly ascending sender
/// order, and no prefix is left without a route.
fn assert_rib_in_layout(label: &str, dp: &DataPlane) {
    for d in &dp.devices {
        for (prefix, routes) in &d.bgp.rib_in {
            assert!(!routes.is_empty(), "{label}: {} keeps an empty {prefix}", d.name);
            assert!(
                routes.iter().all(|r| r.prefix == *prefix),
                "{label}: {} files a route under another prefix than {prefix}",
                d.name
            );
            assert!(
                routes.windows(2).all(|w| w[0].from < w[1].from),
                "{label}: {} {prefix}: senders not one each in ascending order",
                d.name
            );
        }
    }
}

#[test]
fn rib_in_holds_one_sorted_route_per_sender_and_no_empty_prefix() {
    let nets = [
        ("fat tree", batnet_topogen::dc::fat_tree("t", 2, 3, 2, 8)),
        ("fig1a", batnet_topogen::gadgets::fig1a()),
        ("fig1b", batnet_topogen::gadgets::fig1b()),
    ];
    for (label, net) in &nets {
        let devices = net.parse();
        let opts = SimOptions {
            max_sweeps: 60,
            ..SimOptions::default()
        };
        for width in [1, 4] {
            let dp = with_pool(&Pool::new(width), || simulate(&devices, &net.env, &opts));
            assert!(dp.mem.total_bgp_routes > 0, "{label}: no BGP routes");
            assert_rib_in_layout(&format!("{label} at width {width}"), &dp);
        }
    }
}
