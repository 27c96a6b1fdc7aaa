//! The BGP fixed point's two structural contracts at suite scale.
//!
//! * **Sharing.** Only the properties routes share are interned; each
//!   route keeps its own prefix and next hop. So the interner holds about
//!   one bundle per shareable attribute combination, not one per route.
//! * **Width independence.** A colour group of ≥ 8 nodes computes its
//!   pulls *and* applies its changes on a map; each node's changes write
//!   only that node's state. Each OSPF speaker builds its main RIB on a
//!   map too, from its own routes only. RIBs, best routes, every RIB-in
//!   arrival stamp, clocks, FIBs and the convergence report must
//!   therefore be the same at width 1 and width 4, in both scheduler
//!   modes.
//! * **RIB-in layout.** Each prefix holds one vector of routes, one per
//!   sender, sorted by sender, never empty.
//! * **BGP's main-RIB footprint.** A main RIB holds BGP routes for exactly
//!   the prefixes with a best route: the multipath-equivalent RIB-in
//!   routes. A session round resets only those prefixes.

use batnet_config::vi::RouteProtocol::{BgpLocal, Ebgp, Ibgp, Ospf};
use batnet_exec::{with_pool, Pool};
use batnet_net::Prefix;
use batnet_routing::bgp::main_route_of;
use batnet_routing::{
    simulate, DataPlane, Environment, MainRib, MainRoute, SchedulerMode, SimOptions,
};
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

/// NET1 runs OSPF under BGP, so its main RIBs hold merged OSPF routes
/// as well as the colour groups' BGP routes.
#[test]
fn ospf_main_ribs_are_the_same_at_every_width() {
    let net = batnet_topogen::suite::net1();
    let dp = simulate(&net.parse(), &net.env, &SimOptions::default());
    let mut best = dp.devices.iter().flat_map(|d| d.main_rib.iter_best()).flat_map(|(_, rs)| rs);
    assert!(best.any(|r| r.protocol == Ospf), "NET1 must carry OSPF routes");
    assert_width_independent("NET1", &net, &SimOptions::default());
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

/// Three routers in a row, each in its own AS, each redistributing its
/// loopback and LAN: r1 - r2 - r3. r1 and r3 also peer eBGP between their
/// loopbacks, which neither can reach until the first round has learned
/// them through r2, so the fixed point runs a second round.
fn loopback_lab() -> GeneratedNetwork {
    let router = |n: u8, links: &str, neighbors: &str| {
        format!(
            "hostname r{n}\n{links}interface lo0\n ip address {n}.{n}.{n}.{n}/32\n\
             interface lan\n ip address 10.{n}.0.1/24\nrouter bgp 6500{n}\n\
             \x20bgp router-id {n}.{n}.{n}.{n}\n redistribute connected\n{neighbors}"
        )
    };
    let configs = vec![
        router(
            1,
            "interface e0\n ip address 10.0.12.0/31\n",
            " neighbor 10.0.12.1 remote-as 65002\n neighbor 3.3.3.3 remote-as 65003\n",
        ),
        router(
            2,
            "interface e0\n ip address 10.0.12.1/31\ninterface e1\n ip address 10.0.23.0/31\n",
            " neighbor 10.0.12.0 remote-as 65001\n neighbor 10.0.23.1 remote-as 65003\n",
        ),
        router(
            3,
            "interface e1\n ip address 10.0.23.1/31\n",
            " neighbor 10.0.23.0 remote-as 65002\n neighbor 1.1.1.1 remote-as 65001\n",
        ),
    ];
    GeneratedNetwork {
        name: "loopback-lab".into(),
        kind: "lab".into(),
        configs: configs
            .into_iter()
            .enumerate()
            .map(|(i, text)| (format!("r{}", i + 1), text))
            .collect(),
        env: Environment::none(),
    }
}

/// The BGP-protocol candidates `rib` holds for `prefix`.
fn bgp_candidates(rib: &MainRib, prefix: &Prefix) -> Vec<MainRoute> {
    let is_bgp = |p| matches!(p, Ebgp | Ibgp | BgpLocal);
    let all = rib.candidates(prefix).iter();
    all.filter(|r| is_bgp(r.protocol)).cloned().collect()
}

/// On every device and prefix: the main RIB's BGP candidates are exactly
/// the main-RIB views of the RIB-in routes multipath-equivalent to the
/// best route, and a prefix without a best route has none.
fn assert_bgp_footprint(label: &str, dp: &DataPlane) {
    for d in &dp.devices {
        let mut want = MainRib::new();
        for (prefix, best) in &d.bgp.best {
            for r in d.bgp.rib_in.get(prefix).into_iter().flatten() {
                if r.multipath_equivalent(best) {
                    want.offer(main_route_of(r));
                }
            }
        }
        for (prefix, _) in d.main_rib.iter_best().chain(want.iter_best()) {
            assert_eq!(
                bgp_candidates(&d.main_rib, prefix),
                bgp_candidates(&want, prefix),
                "{label}: {} {prefix}",
                d.name
            );
        }
    }
}

#[test]
fn main_ribs_hold_bgp_routes_exactly_for_best_prefixes() {
    let nets = [
        ("fat tree", batnet_topogen::dc::fat_tree("t", 2, 3, 2, 8)),
        ("fig1a", batnet_topogen::gadgets::fig1a()),
        ("fig1b", batnet_topogen::gadgets::fig1b()),
        ("NET1", batnet_topogen::suite::net1()),
        ("N2", batnet_topogen::suite::n2()),
        ("N5", batnet_topogen::suite::n5()),
        ("N7", batnet_topogen::suite::n7()),
        ("loopback lab", loopback_lab()),
    ];
    let opts = SimOptions {
        max_sweeps: 60,
        ..SimOptions::default()
    };
    for (label, net) in &nets {
        let dp = simulate(&net.parse(), &net.env, &opts);
        assert!(dp.mem.total_bgp_routes > 0, "{label}: no BGP routes");
        assert_bgp_footprint(label, &dp);
    }
}

/// Round 0 knows no route to either loopback, so the loopback session can
/// only be up in the sessions of a second round.
#[test]
fn the_loopback_lab_needs_a_second_session_round() {
    let net = loopback_lab();
    let dp = simulate(&net.parse(), &net.env, &SimOptions::default());
    assert!(dp.convergence.converged);
    let r1 = dp.device("r1").unwrap();
    let up: Vec<_> = r1
        .bgp
        .sessions
        .iter()
        .filter(|s| s.established)
        .map(|s| s.peer_ip.to_string())
        .collect();
    assert_eq!(up, ["10.0.12.1", "3.3.3.3"], "the loopback session came up");
}
