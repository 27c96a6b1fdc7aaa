//! FIB compilation: longest-prefix-match semantics to BDDs.
//!
//! §4.2.1: *"For real networks, the edge constraints are richer since
//! they also encode the semantics of longest-prefix matching."* A FIB
//! entry's edge set is its destination prefix minus every strictly longer
//! prefix in the table.
//!
//! # Construction
//!
//! The table is compiled the way it is laid out, not by subtracting
//! prefixes from one another. [`Fib::entries`] is sorted by
//! `(network, len)`, which is the pre-order of the binary trie over the
//! destination bits, and the §4.2.2 variable order tests those bits MSB
//! first, so trie depth *is* BDD level. One recursion over the sorted
//! slice therefore builds every bucket bottom-up:
//!
//! * an entry whose length equals the current depth is the sub-table's
//!   own route: it becomes the action the rest of the sub-table inherits;
//! * `partition_point` on destination bit `depth` splits what remains
//!   into the 0-half and the 1-half;
//! * an empty sub-table is a leaf: every packet in it takes the inherited
//!   action, so each *class* of that action (one per [`FibNextHop`] of an
//!   ECMP set, or discarded / unresolved / no-route) is `TRUE` there;
//! * two halves join with one [`Bdd::node`] per class present in either.
//!
//! A hop class is the hop's position among the device's distinct hops in
//! ascending order. Positions are worked out once per shared
//! [`NextHops`](batnet_routing::NextHops) set, not once per entry, and
//! joins compare them as integers rather than by interface name.
//!
//! No `apply`, no operation cache, no materialised trie. The cost is one
//! unique-table probe per class per trie node — output-sensitive: a
//! sub-table whose halves agree collapses to its child, and identical
//! sub-tables on different devices hash-cons to the same nodes.
//!
//! The recursion leans on the ordering invariant documented on [`Fib`]:
//! strictly increasing `(network, len)`, so prefixes are unique (a
//! duplicate would never be consumed and would recurse past depth 32).

use crate::vars::{Field, PacketVars};
use batnet_bdd::{Bdd, NodeId};
use batnet_routing::{Fib, FibAction, FibEntry, FibNextHop};
use std::collections::{BTreeMap, HashMap};

/// A compiled FIB.
#[derive(Debug, PartialEq, Eq)]
pub struct FibBdd {
    /// Per resolved next hop: the packets forwarded to it. A hop that
    /// appears only in entries fully covered by longer prefixes has no
    /// packets and no key.
    pub forwards: BTreeMap<FibNextHop, NodeId>,
    /// Packets matching a discard route.
    pub discarded: NodeId,
    /// Packets matching a route whose next hop did not resolve.
    pub unresolved: NodeId,
    /// Packets matching nothing (no route).
    pub no_route: NodeId,
}

/// Compiles a FIB against the variable layout.
pub fn compile_fib(bdd: &mut Bdd, vars: &PacketVars, fib: &Fib) -> FibBdd {
    let entries = fib.entries();
    debug_assert!(
        entries.windows(2).all(|w| w[0].prefix < w[1].prefix),
        "FIB entries must be in strictly increasing (network, len) order"
    );
    let mut compiled = FibBdd {
        forwards: BTreeMap::new(),
        discarded: NodeId::FALSE,
        unresolved: NodeId::FALSE,
        no_route: NodeId::FALSE,
    };
    let mut sets: Vec<&[FibNextHop]> = entries
        .iter()
        .filter_map(|e| match &e.action {
            FibAction::Forward(hops) => Some(&hops[..]),
            _ => None,
        })
        .collect();
    sets.sort_unstable_by_key(|set| set.as_ptr());
    sets.dedup_by_key(|set| set.as_ptr());
    let mut hops: Vec<&FibNextHop> = sets.iter().flat_map(|set| set.iter()).collect();
    hops.sort_unstable();
    hops.dedup();
    let position = |hop: &FibNextHop| hops.partition_point(|&h| h < hop) as u32;
    let ranks: Ranks = sets
        .iter()
        .map(|set| (set.as_ptr(), set.iter().map(position).collect()))
        .collect();
    for (class, set) in table(bdd, vars, &ranks, entries, 0, None) {
        match class {
            Class::Hop(rank) => {
                compiled.forwards.insert(hops[rank as usize].clone(), set);
            }
            Class::Discard => compiled.discarded = set,
            Class::Unresolved => compiled.unresolved = set,
            Class::NoRoute => compiled.no_route = set,
        }
    }
    compiled
}

/// What a packet's longest match does with it; the buckets of a
/// [`FibBdd`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    /// The hop's position among the device's distinct hops.
    Hop(u32),
    Discard,
    Unresolved,
    NoRoute,
}

/// A sub-table's compiled form: its non-empty classes in `Class` order,
/// each with its BDD over the destination bits from the sub-table's depth
/// down.
type Table = Vec<(Class, NodeId)>;

/// Each ECMP set's hop classes, keyed by the set's allocation: entries
/// that share a set share its classes.
type Ranks = HashMap<*const FibNextHop, Box<[u32]>>;

/// Compiles `entries`, which share their first `depth` destination bits.
/// Packets none of them covers take the `inherited` action (`None`: no
/// route).
fn table<'a>(
    bdd: &mut Bdd,
    vars: &PacketVars,
    ranks: &Ranks,
    entries: &'a [FibEntry],
    depth: u32,
    inherited: Option<&'a FibAction>,
) -> Table {
    // Pre-order: the sub-table's own route, if it has one, comes first.
    let (inherited, rest) = match entries.split_first() {
        Some((own, rest)) if u32::from(own.prefix.len()) == depth => (Some(&own.action), rest),
        _ => (inherited, entries),
    };
    if rest.is_empty() {
        return leaf(ranks, inherited);
    }
    let bit = 1u32 << (31 - depth);
    let split = rest.partition_point(|e| e.prefix.network().0 & bit == 0);
    let lo = table(bdd, vars, ranks, &rest[..split], depth + 1, inherited);
    let hi = table(bdd, vars, ranks, &rest[split..], depth + 1, inherited);
    join(bdd, vars.var_of(Field::DstIp, depth, false), lo, hi)
}

/// The sub-table nothing splits: every packet takes `action`, so each of
/// its classes is `TRUE`.
fn leaf(ranks: &Ranks, action: Option<&FibAction>) -> Table {
    let whole = |class| (class, NodeId::TRUE);
    match action {
        None => vec![whole(Class::NoRoute)],
        Some(FibAction::Discard) => vec![whole(Class::Discard)],
        Some(FibAction::Unresolved) => vec![whole(Class::Unresolved)],
        // `NextHops` is sorted and free of repeats, so its classes are
        // ascending and distinct already.
        Some(FibAction::Forward(hops)) => {
            ranks[&hops.as_ptr()].iter().map(|&rank| whole(Class::Hop(rank))).collect()
        }
    }
}

/// Merges the `var`-clear half `lo` and the `var`-set half `hi`: one node
/// per class present in either, `FALSE` standing in on the side a class
/// is absent from.
fn join(bdd: &mut Bdd, var: u32, lo: Table, hi: Table) -> Table {
    let mut joined = Vec::with_capacity(lo.len().max(hi.len()));
    let mut lo = lo.into_iter().peekable();
    let mut hi = hi.into_iter().peekable();
    loop {
        let class = match (lo.peek(), hi.peek()) {
            (Some(l), Some(h)) => l.0.min(h.0),
            (Some(only), None) | (None, Some(only)) => only.0,
            (None, None) => return joined,
        };
        let l = lo.next_if(|s| s.0 == class).map_or(NodeId::FALSE, |s| s.1);
        let h = hi.next_if(|s| s.0 == class).map_or(NodeId::FALSE, |s| s.1);
        joined.push((class, bdd.node(var, l, h)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::vi::RouteProtocol;
    use batnet_net::{Flow, Ip, Prefix, Rng};
    use batnet_routing::{simulate, DataPlane, MainNextHop, MainRib, MainRoute, SimOptions};
    use batnet_topogen::{suite, GeneratedNetwork};

    /// The encoder this module replaced, kept as the oracle: longest
    /// prefix first, each entry claims what remains of its prefix. One
    /// `diff` and one `or` over the ever-growing `claimed` per entry.
    fn chain_reference(bdd: &mut Bdd, vars: &PacketVars, fib: &Fib) -> FibBdd {
        let mut order: Vec<&FibEntry> = fib.entries().iter().collect();
        order.sort_by_key(|e| std::cmp::Reverse(e.prefix.len()));
        let mut claimed = NodeId::FALSE;
        let mut forwards: BTreeMap<FibNextHop, NodeId> = BTreeMap::new();
        let mut discarded = NodeId::FALSE;
        let mut unresolved = NodeId::FALSE;
        for entry in order {
            let prefix_set = vars.ip_prefix(bdd, Field::DstIp, entry.prefix);
            let mine = bdd.diff(prefix_set, claimed);
            claimed = bdd.or(claimed, prefix_set);
            if mine == NodeId::FALSE {
                continue;
            }
            match &entry.action {
                FibAction::Forward(hops) => {
                    for hop in hops {
                        let slot = forwards.entry(hop.clone()).or_insert(NodeId::FALSE);
                        *slot = bdd.or(*slot, mine);
                    }
                }
                FibAction::Discard => discarded = bdd.or(discarded, mine),
                FibAction::Unresolved => unresolved = bdd.or(unresolved, mine),
            }
        }
        let no_route = bdd.not(claimed);
        FibBdd { forwards, discarded, unresolved, no_route }
    }

    fn route(p: Prefix, next_hop: MainNextHop, ad: u8) -> MainRoute {
        MainRoute {
            prefix: p,
            admin_distance: ad,
            metric: 0,
            protocol: RouteProtocol::Static,
            next_hop,
        }
    }

    fn connected(iface: &str) -> MainNextHop {
        MainNextHop::Connected { iface: iface.into() }
    }

    fn fib_of(routes: Vec<MainRoute>) -> Fib {
        let mut rib = MainRib::new();
        for r in routes {
            rib.offer(r);
        }
        Fib::build(&rib)
    }

    fn fixture() -> Fib {
        let p = |s: &str| s.parse().unwrap();
        fib_of(vec![
            route(p("10.0.0.0/24"), connected("e1"), 0),
            route(p("10.0.1.0/24"), connected("e2"), 0),
            route(p("10.0.0.128/25"), MainNextHop::Via("10.0.1.9".parse().unwrap()), 1),
            route(p("0.0.0.0/0"), MainNextHop::Discard, 250),
        ])
    }

    /// Compiles with both encoders in one manager and demands the same
    /// `NodeId`s, bucket for bucket.
    fn compile_checked(bdd: &mut Bdd, vars: &PacketVars, fib: &Fib) -> FibBdd {
        let compiled = compile_fib(bdd, vars, fib);
        assert_eq!(compiled, chain_reference(bdd, vars, fib));
        compiled
    }

    fn contains(bdd: &mut Bdd, vars: &PacketVars, set: NodeId, dst: &str) -> bool {
        let f = Flow::icmp_echo(Ip::new(1, 1, 1, 1), dst.parse().unwrap());
        let fb = vars.flow(bdd, &f);
        bdd.and(set, fb) != NodeId::FALSE
    }

    #[test]
    fn lpm_carves_out_longer_prefixes() {
        let fib = fixture();
        let (mut bdd, vars) = PacketVars::new(0);
        let compiled = compile_checked(&mut bdd, &vars, &fib);
        // 10.0.0.5 → e1 directly; 10.0.0.200 → the /25 via e2.
        let e1_direct = compiled
            .forwards
            .iter()
            .find(|(h, _)| h.iface == "e1")
            .map(|(_, &s)| s)
            .unwrap();
        assert!(contains(&mut bdd, &vars, e1_direct, "10.0.0.5"));
        assert!(
            !contains(&mut bdd, &vars, e1_direct, "10.0.0.200"),
            "the /25 must carve out the top half of the /24"
        );
        let via_25 = compiled
            .forwards
            .iter()
            .find(|(h, _)| h.gateway == Some("10.0.1.9".parse().unwrap()))
            .map(|(_, &s)| s)
            .unwrap();
        assert!(contains(&mut bdd, &vars, via_25, "10.0.0.200"));
        // Everything else falls to the discard default.
        assert!(contains(&mut bdd, &vars, compiled.discarded, "8.8.8.8"));
        assert!(!contains(&mut bdd, &vars, compiled.discarded, "10.0.0.5"));
        // The table has a default: no packet is route-less.
        assert_eq!(compiled.no_route, NodeId::FALSE);
    }

    #[test]
    fn no_route_set_without_default() {
        let fib = fib_of(vec![route("10.0.0.0/24".parse().unwrap(), connected("e1"), 0)]);
        let (mut bdd, vars) = PacketVars::new(0);
        let compiled = compile_checked(&mut bdd, &vars, &fib);
        assert!(contains(&mut bdd, &vars, compiled.no_route, "9.9.9.9"));
        assert!(!contains(&mut bdd, &vars, compiled.no_route, "10.0.0.9"));
    }

    /// The corners of the recursion: nothing to split, a route at the
    /// root, a route at the deepest leaf, a route with no packets left.
    #[test]
    fn edge_tables() {
        let (mut bdd, vars) = PacketVars::new(0);
        let p = |s: &str| -> Prefix { s.parse().unwrap() };

        let empty = compile_checked(&mut bdd, &vars, &Fib::default());
        assert_eq!(empty.no_route, NodeId::TRUE);
        assert!(empty.forwards.is_empty());
        assert_eq!((empty.discarded, empty.unresolved), (NodeId::FALSE, NodeId::FALSE));

        let default_only = fib_of(vec![route(p("0.0.0.0/0"), connected("e1"), 0)]);
        let compiled = compile_checked(&mut bdd, &vars, &default_only);
        assert_eq!(compiled.forwards.values().collect::<Vec<_>>(), [&NodeId::TRUE]);
        assert_eq!(compiled.no_route, NodeId::FALSE);

        let host_only = fib_of(vec![route(p("10.1.2.3/32"), connected("e1"), 0)]);
        let compiled = compile_checked(&mut bdd, &vars, &host_only);
        let host = vars.ip_prefix(&mut bdd, Field::DstIp, p("10.1.2.3/32"));
        assert_eq!(compiled.forwards.values().collect::<Vec<_>>(), [&host]);
        assert_eq!(compiled.no_route, bdd.not(host));

        // A /24 fully covered by its two /25s forwards nothing: its hop
        // has no bucket at all, not an empty one.
        let covered = fib_of(vec![
            route(p("10.0.0.0/24"), connected("shadowed"), 0),
            route(p("10.0.0.0/25"), connected("lo-half"), 0),
            route(p("10.0.0.128/25"), connected("hi-half"), 0),
        ]);
        let compiled = compile_checked(&mut bdd, &vars, &covered);
        let ifaces: Vec<&str> = compiled.forwards.keys().map(|h| h.iface.as_str()).collect();
        assert_eq!(ifaces, ["hi-half", "lo-half"]);
    }

    /// A seeded table with every shape the recursion distinguishes: a
    /// chain of nested prefixes of one address from `/0` to `/32`, sibling
    /// pairs, ECMP sets drawing on a small pool of gateways so hops recur
    /// across entries, discard routes, gateways nothing resolves, and a
    /// default only half the time.
    fn random_fib(rng: &mut Rng) -> Fib {
        let mut routes = Vec::new();
        for i in 0..4u8 {
            let uplink = Prefix::new(Ip::new(172, 16, i, 0), 24);
            routes.push(route(uplink, connected(&format!("e{i}")), 0));
        }
        let next_hop = |rng: &mut Rng| match rng.below(8) {
            0 => MainNextHop::Discard,
            1 => MainNextHop::Via(Ip::new(203, 0, 113, 9)),
            2 => connected(&format!("e{}", rng.below(4))),
            _ => MainNextHop::Via(Ip::new(172, 16, rng.below(4) as u8, 1 + rng.below(3) as u8)),
        };
        let mut offer = |rng: &mut Rng, p: Prefix| {
            for _ in 0..1 + rng.below(3) {
                let nh = next_hop(rng);
                routes.push(route(p, nh, 1));
            }
        };
        if rng.flip() {
            offer(rng, Prefix::DEFAULT);
        }
        let spine = Ip(rng.next_u32());
        for len in 1..=32u8 {
            if rng.chance(1, 3) {
                offer(rng, Prefix::new(spine, len));
            }
        }
        for _ in 0..rng.below(12) {
            let len = rng.range_u32(1, 32) as u8;
            // Half the extra prefixes hang off the spine's /8.
            let ip = if rng.flip() {
                Ip((spine.0 & 0xff00_0000) | (rng.next_u32() & 0x00ff_ffff))
            } else {
                Ip(rng.next_u32())
            };
            offer(rng, Prefix::new(ip, len));
            if rng.flip() {
                let sibling = Ip(ip.0 ^ (1 << (32 - u32::from(len))));
                offer(rng, Prefix::new(sibling, len));
            }
        }
        fib_of(routes)
    }

    /// Differential property: on seeded random tables, the set of buckets
    /// holding a destination is exactly the concrete `Fib::lookup`'s
    /// action, and the buckets cover the packet space.
    #[test]
    fn bdd_partition_matches_concrete_lookup() {
        let hop_name = |h: &FibNextHop| format!("{}:{:?}", h.iface, h.gateway);
        let mut seen = std::collections::BTreeSet::new();
        let mut deepest = 0;
        for table in 0..240u64 {
            let mut rng = Rng::new(0xF1B_E2C ^ table);
            let fib = random_fib(&mut rng);
            deepest = deepest.max(fib.entries().iter().map(|e| e.prefix.len()).max().unwrap());
            let (mut bdd, vars) = PacketVars::new(0);
            let compiled = compile_checked(&mut bdd, &vars, &fib);
            let mut buckets: Vec<(String, NodeId)> = compiled
                .forwards
                .iter()
                .map(|(h, &s)| (hop_name(h), s))
                .collect();
            buckets.push(("discard".into(), compiled.discarded));
            buckets.push(("unresolved".into(), compiled.unresolved));
            buckets.push(("noroute".into(), compiled.no_route));
            let union = buckets.iter().fold(NodeId::FALSE, |acc, (_, s)| bdd.or(acc, *s));
            assert_eq!(union, NodeId::TRUE, "table {table}: buckets must cover every packet");
            for _ in 0..256 {
                // Most probes land inside a table prefix, so the deep
                // buckets get hit; the rest are uniform.
                let ip = if rng.chance(3, 4) {
                    let p = rng.pick(fib.entries()).prefix;
                    Ip(p.network().0 | (rng.next_u32() & (p.last_ip().0 ^ p.network().0)))
                } else {
                    Ip(rng.next_u32())
                };
                let fb = vars.flow(&mut bdd, &Flow::icmp_echo(Ip::new(1, 1, 1, 1), ip));
                let mut hits: Vec<String> = buckets
                    .iter()
                    .filter(|(_, s)| bdd.and(*s, fb) != NodeId::FALSE)
                    .map(|(n, _)| n.clone())
                    .collect();
                let mut expect: Vec<String> = match fib.lookup(ip).map(|e| &e.action) {
                    None => vec!["noroute".into()],
                    Some(FibAction::Discard) => vec!["discard".into()],
                    Some(FibAction::Unresolved) => vec!["unresolved".into()],
                    Some(FibAction::Forward(hops)) => hops.iter().map(hop_name).collect(),
                };
                hits.sort();
                expect.sort();
                assert_eq!(hits, expect, "table {table}: dst {ip}");
                seen.insert(if expect.len() > 1 { "ecmp".to_string() } else { expect[0].clone() });
            }
        }
        // The generator reached every kind of bucket and both ends of the
        // prefix-length range.
        for kind in ["discard", "unresolved", "noroute", "ecmp"] {
            assert!(seen.contains(kind), "no probe ever hit {kind}");
        }
        assert_eq!(deepest, 32);
    }

    fn data_plane(net: &GeneratedNetwork) -> DataPlane {
        simulate(&net.parse(), &net.env, &SimOptions::default())
    }

    /// Suite oracle: every device's FIB, both encoders, one shared
    /// manager (so hash-consing across devices is exercised too).
    fn matches_chain_reference_on(net: &GeneratedNetwork) {
        let dp = data_plane(net);
        let (mut bdd, vars) = PacketVars::new(0);
        for device in &dp.devices {
            compile_checked(&mut bdd, &vars, &device.fib);
        }
    }

    #[test]
    fn matches_chain_reference_on_n2() {
        matches_chain_reference_on(&suite::n2());
    }

    #[test]
    fn matches_chain_reference_on_net1() {
        matches_chain_reference_on(&suite::net1());
    }

    #[test]
    #[ignore = "chain encoder on N5: too slow for a debug run; cargo test --release -- --ignored"]
    fn matches_chain_reference_on_n5() {
        matches_chain_reference_on(&suite::n5());
    }

    #[test]
    #[ignore = "chain encoder on N7: too slow for a debug run; cargo test --release -- --ignored"]
    fn matches_chain_reference_on_n7() {
        matches_chain_reference_on(&suite::n7());
    }

    /// A count gate: exact, noise-free, and red the day an apply chain
    /// creeps back (the chain encoder needs ≈80 k nodes for the same
    /// tables and an op-cache lookup per step).
    #[test]
    fn n2_fibs_stay_small_and_never_touch_the_op_cache() {
        let dp = data_plane(&suite::n2());
        let (mut bdd, vars) = PacketVars::new(0);
        let before = bdd.stats();
        for device in &dp.devices {
            compile_fib(&mut bdd, &vars, &device.fib);
        }
        let after = bdd.stats();
        assert!(after.nodes <= 20_000, "N2 FIBs took {} nodes", after.nodes);
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses),
            "compile_fib must not look anything up in an operation cache"
        );
    }
}
