//! The original Batfish control-plane model, as Datalog rules.
//!
//! This is the Stage-2 program of §2 of the paper: connected routes,
//! recursive OSPF distance with best-selection via stratified negation,
//! and a path-vector BGP over established sessions. It covers the feature
//! set of the original paper's evaluation (NET1-class networks: OSPF,
//! statics, policy-free eBGP) — and *only* that, which is itself Lesson 1:
//! route maps with regexes and arithmetic, session establishment gated on
//! data-plane state, and AS-path loop checks were impractical to encode.
//!
//! Termination note: recursive distance rules in pure Datalog enumerate
//! *all* path costs, including around cycles, so the model bounds the
//! cost domain ([`RoutingInputs::cost_bound`]) exactly the way LogicBlox
//! programs bounded recursive numeric domains. Every derived fact is
//! retained — [`DatalogRoutes::fact_count`] measures the paper's
//! "intermediate facts" memory complaint.

use crate::engine::{Atom, Builtin, Engine, Fact, Pred, Program, Rule, SymbolTable, Term, Value};
use batnet_config::vi::Device;
use batnet_config::{InterfaceRef, Topology};
use batnet_net::{Ip, Prefix};
use std::collections::BTreeMap;

// Predicate ids.
const LINK: Pred = Pred(0); // link(d1, d2, cost, nh_ip)
const ADV: Pred = Pred(1); // adv(d, prefix, cost)
const CONNECTED: Pred = Pred(2); // connected(d, prefix)
const STATIC: Pred = Pred(3); // static(d, prefix, nh_ip)
const SESSION: Pred = Pred(4); // session(d1, d2, nh_ip)  (eBGP)
const ORIGINATE: Pred = Pred(5); // originate(d, prefix)
const DIST: Pred = Pred(6); // dist(src, dst, cost)
const WORSE_DIST: Pred = Pred(7); // worse_dist(src, dst, cost)
const BEST_DIST: Pred = Pred(8); // best_dist(src, dst, cost)
const FIRST_HOP: Pred = Pred(19); // first_hop(src, dst, nh_ip)
const OSPF_CAND: Pred = Pred(9); // ospf_cand(d, prefix, cost, nh)
const WORSE_OSPF: Pred = Pred(10);
const OSPF_ROUTE: Pred = Pred(11); // ospf_route(d, prefix, cost, nh)
const BGP_CAND: Pred = Pred(12); // bgp_cand(d, prefix, pathlen, nh_ip)
const WORSE_BGP: Pred = Pred(13);
const BGP_ROUTE: Pred = Pred(14); // bgp_route(d, prefix, len, nh)
const FWD: Pred = Pred(15); // fwd(d, prefix, proto, nh_ip)
const HAS_CONN: Pred = Pred(16);
const HAS_STATIC: Pred = Pred(17);
const HAS_OSPF: Pred = Pred(18);

/// Protocol tags in FWD facts.
pub const PROTO_CONNECTED: Value = 0;
/// Static route tag.
pub const PROTO_STATIC: Value = 1;
/// OSPF tag.
pub const PROTO_OSPF: Value = 2;
/// BGP tag.
pub const PROTO_BGP: Value = 3;

/// Packs a prefix into a value.
fn pack_prefix(p: Prefix) -> Value {
    ((p.network().0 as u64) << 6) | p.len() as u64
}

/// Unpacks a prefix value.
fn unpack_prefix(v: Value) -> Prefix {
    Prefix::new(Ip((v >> 6) as u32), (v & 0x3f) as u8)
}

/// Inputs for the Datalog routing computation.
#[derive(Clone, Debug)]
pub struct RoutingInputs {
    /// Upper bound on OSPF path cost (derived distances must stay below
    /// it; pick max-shortest-path + slack).
    pub cost_bound: u64,
    /// Upper bound on BGP path length.
    pub path_bound: u64,
}

impl Default for RoutingInputs {
    fn default() -> Self {
        RoutingInputs {
            cost_bound: 256,
            path_bound: 16,
        }
    }
}

impl RoutingInputs {
    /// Derives tight bounds from the network: cost bound = the maximum
    /// shortest-path cost plus the largest advertised cost plus slack,
    /// path bound = hop diameter plus slack. (The original deployments
    /// tuned such domain bounds by hand; computing them from the input is
    /// the honest equivalent.)
    pub fn for_network(devices: &[Device], topo: &Topology) -> RoutingInputs {
        // Build the OSPF cost graph and run a simple Dijkstra per node.
        let index: BTreeMap<&str, usize> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), i))
            .collect();
        let n = devices.len();
        let mut adj: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut max_adv = 1u64;
        for (di, d) in devices.iter().enumerate() {
            if d.ospf.is_none() {
                continue;
            }
            for iface in d.active_interfaces() {
                if iface.ospf_area.is_none() {
                    continue;
                }
                let cost = iface.ospf_cost.unwrap_or(1) as u64;
                max_adv = max_adv.max(cost);
                if iface.ospf_passive {
                    continue;
                }
                let me = InterfaceRef::new(&d.name, &iface.name);
                for nb in topo.neighbors_of(&me) {
                    let Some(&ni) = index.get(nb.device.as_str()) else { continue };
                    let niface = devices[ni].interfaces.get(&nb.interface);
                    if niface.is_some_and(|n| iface.shares_primary_subnet(n)) {
                        adj[di].push((ni, cost));
                    }
                }
            }
        }
        let mut max_dist = 0u64;
        let mut max_hops = 1u64;
        for s in 0..n {
            let mut dist = vec![u64::MAX; n];
            let mut hops = vec![u64::MAX; n];
            dist[s] = 0;
            hops[s] = 0;
            let mut heap = std::collections::BinaryHeap::new();
            heap.push(std::cmp::Reverse((0u64, s)));
            while let Some(std::cmp::Reverse((c, u))) = heap.pop() {
                if c > dist[u] {
                    continue;
                }
                for &(v, w) in &adj[u] {
                    if c + w < dist[v] {
                        dist[v] = c + w;
                        hops[v] = hops[u] + 1;
                        heap.push(std::cmp::Reverse((c + w, v)));
                    }
                }
            }
            for v in 0..n {
                if dist[v] != u64::MAX {
                    max_dist = max_dist.max(dist[v]);
                    max_hops = max_hops.max(hops[v]);
                }
            }
        }
        RoutingInputs {
            cost_bound: max_dist + max_adv + 2,
            path_bound: (max_hops.max(devices.len() as u64 / 8) + 3).min(64),
        }
    }
}

/// One extracted route.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatalogRoute {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Protocol tag (`PROTO_*`).
    pub proto: Value,
    /// Next-hop address (0 for connected).
    pub next_hop: Ip,
}

/// The result of the Datalog data plane generation.
pub struct DatalogRoutes {
    /// Per device name: forwarding entries.
    pub routes: BTreeMap<String, Vec<DatalogRoute>>,
    /// Total facts retained by the engine (the memory pathology metric).
    pub fact_count: usize,
    /// Rule firings (work metric).
    pub firings: u64,
}

/// Builds the rule program. Variables are numbered per rule.
fn program() -> Program {
    let v = |i| Term::Var(i);
    let a = |p, ts: &[Term]| Atom {
        pred: p,
        terms: ts.to_vec(),
    };
    let plain = |head: Atom, body: Vec<Atom>| Rule {
        head,
        body,
        builtins: vec![],
        negated: vec![],
    };
    // Stratum 0: recursive distances and BGP candidates (monotone).
    let s0 = vec![
        // dist(s, d, c) :- link(s, d, c, _).
        plain(
            a(DIST, &[v(0), v(1), v(2)]),
            vec![a(LINK, &[v(0), v(1), v(2), v(3)])],
        ),
        // dist(s, d, c) :- dist(s, m, c1), link(m, d, c2, _), c = c1+c2, c < BOUND, d != s.
        Rule {
            head: a(DIST, &[v(0), v(4), v(6)]),
            body: vec![
                a(DIST, &[v(0), v(1), v(2)]),
                a(LINK, &[v(1), v(4), v(5), v(7)]),
            ],
            builtins: vec![
                Builtin::Add(v(2), v(5), v(6)),
                Builtin::Lt(v(6), Term::Const(0)), // patched to cost_bound
                Builtin::Ne(v(4), v(0)),
            ],
            negated: vec![],
        },
        // worse_dist(s,d,c) :- dist(s,d,c), dist(s,d,c2), c2 < c.
        Rule {
            head: a(WORSE_DIST, &[v(0), v(1), v(2)]),
            body: vec![
                a(DIST, &[v(0), v(1), v(2)]),
                a(DIST, &[v(0), v(1), v(4)]),
            ],
            builtins: vec![Builtin::Lt(v(4), v(2))],
            negated: vec![],
        },
        // bgp_cand(d, p, 0, 0) :- originate(d, p).
        Rule {
            head: a(BGP_CAND, &[v(0), v(1), Term::Const(0), Term::Const(0)]),
            body: vec![a(ORIGINATE, &[v(0), v(1)])],
            builtins: vec![],
            negated: vec![],
        },
        // bgp_cand(d, p, l+1, nh) :- bgp_cand(peer, p, l, _), session(d, peer, nh), l+1 < BOUND.
        Rule {
            head: a(BGP_CAND, &[v(0), v(1), v(5), v(4)]),
            body: vec![
                a(BGP_CAND, &[v(2), v(1), v(3), v(6)]),
                a(SESSION, &[v(0), v(2), v(4)]),
            ],
            builtins: vec![
                Builtin::Add(v(3), Term::Const(1), v(5)),
                Builtin::Lt(v(5), Term::Const(0)), // patched to path_bound
            ],
            negated: vec![],
        },
        // worse_bgp: shorter length wins; equal length, smaller nh wins.
        Rule {
            head: a(WORSE_BGP, &[v(0), v(1), v(2), v(3)]),
            body: vec![
                a(BGP_CAND, &[v(0), v(1), v(2), v(3)]),
                a(BGP_CAND, &[v(0), v(1), v(4), v(5)]),
            ],
            builtins: vec![Builtin::Lt(v(4), v(2))],
            negated: vec![],
        },
        Rule {
            head: a(WORSE_BGP, &[v(0), v(1), v(2), v(3)]),
            body: vec![
                a(BGP_CAND, &[v(0), v(1), v(2), v(3)]),
                a(BGP_CAND, &[v(0), v(1), v(2), v(5)]),
            ],
            builtins: vec![Builtin::Lt(v(5), v(3))],
            negated: vec![],
        },
    ];
    // Stratum 1: best selections (negation over stratum 0).
    let s1 = vec![
        Rule {
            head: a(BEST_DIST, &[v(0), v(1), v(2)]),
            body: vec![a(DIST, &[v(0), v(1), v(2)])],
            builtins: vec![],
            negated: vec![a(WORSE_DIST, &[v(0), v(1), v(2)])],
        },
        Rule {
            head: a(BGP_ROUTE, &[v(0), v(1), v(2), v(3)]),
            body: vec![a(BGP_CAND, &[v(0), v(1), v(2), v(3)])],
            builtins: vec![Builtin::Ne(v(2), Term::Const(0))],
            negated: vec![a(WORSE_BGP, &[v(0), v(1), v(2), v(3)])],
        },
    ];
    // Stratum 2: recover the first hops of shortest paths.
    let s2 = vec![
        // Direct link on a shortest path.
        Rule {
            head: a(FIRST_HOP, &[v(0), v(1), v(3)]),
            body: vec![
                a(LINK, &[v(0), v(1), v(2), v(3)]),
                a(BEST_DIST, &[v(0), v(1), v(2)]),
            ],
            builtins: vec![],
            negated: vec![],
        },
        // Through neighbor m: cost(link) + dist(m, d) = best(s, d).
        Rule {
            head: a(FIRST_HOP, &[v(0), v(4), v(3)]),
            body: vec![
                a(BEST_DIST, &[v(0), v(4), v(6)]),
                a(LINK, &[v(0), v(1), v(2), v(3)]),
                a(DIST, &[v(1), v(4), v(5)]),
            ],
            builtins: vec![Builtin::Add(v(2), v(5), v(6))],
            negated: vec![],
        },
    ];
    // Stratum 3: OSPF route candidates from best distances.
    let s3 = vec![
        // ospf_cand(d, p, c, nh) :- best_dist(d, adv, c1), adv(adv, p, c2),
        //                           first_hop(d, adv, nh), c = c1+c2.
        Rule {
            head: a(OSPF_CAND, &[v(0), v(4), v(6), v(7)]),
            body: vec![
                a(BEST_DIST, &[v(0), v(1), v(2)]),
                a(ADV, &[v(1), v(4), v(5)]),
                a(FIRST_HOP, &[v(0), v(1), v(7)]),
            ],
            builtins: vec![Builtin::Add(v(2), v(5), v(6))],
            negated: vec![],
        },
        Rule {
            head: a(WORSE_OSPF, &[v(0), v(1), v(2), v(3)]),
            body: vec![
                a(OSPF_CAND, &[v(0), v(1), v(2), v(3)]),
                a(OSPF_CAND, &[v(0), v(1), v(4), v(5)]),
            ],
            builtins: vec![Builtin::Lt(v(4), v(2))],
            negated: vec![],
        },
    ];
    // Stratum 4: final OSPF routes and protocol preference marks.
    let s4 = vec![
        Rule {
            head: a(OSPF_ROUTE, &[v(0), v(1), v(2), v(3)]),
            body: vec![a(OSPF_CAND, &[v(0), v(1), v(2), v(3)])],
            builtins: vec![],
            negated: vec![a(WORSE_OSPF, &[v(0), v(1), v(2), v(3)])],
        },
        plain(a(HAS_CONN, &[v(0), v(1)]), vec![a(CONNECTED, &[v(0), v(1)])]),
        plain(
            a(HAS_STATIC, &[v(0), v(1)]),
            vec![a(STATIC, &[v(0), v(1), v(2)])],
        ),
    ];
    // Stratum 5: has_ospf (needs final OSPF routes).
    let s5 = vec![plain(
        a(HAS_OSPF, &[v(0), v(1)]),
        vec![a(OSPF_ROUTE, &[v(0), v(1), v(2), v(3)])],
    )];
    // Stratum 6: the forwarding relation with administrative preference:
    // connected > static > ospf > bgp, encoded as negation chains.
    let s6 = vec![
        plain(
            a(FWD, &[v(0), v(1), Term::Const(PROTO_CONNECTED), Term::Const(0)]),
            vec![a(CONNECTED, &[v(0), v(1)])],
        ),
        Rule {
            head: a(FWD, &[v(0), v(1), Term::Const(PROTO_STATIC), v(2)]),
            body: vec![a(STATIC, &[v(0), v(1), v(2)])],
            builtins: vec![],
            negated: vec![a(HAS_CONN, &[v(0), v(1)])],
        },
        Rule {
            head: a(FWD, &[v(0), v(1), Term::Const(PROTO_OSPF), v(3)]),
            body: vec![a(OSPF_ROUTE, &[v(0), v(1), v(2), v(3)])],
            builtins: vec![],
            negated: vec![a(HAS_CONN, &[v(0), v(1)]), a(HAS_STATIC, &[v(0), v(1)])],
        },
        Rule {
            head: a(FWD, &[v(0), v(1), Term::Const(PROTO_BGP), v(3)]),
            body: vec![a(BGP_ROUTE, &[v(0), v(1), v(2), v(3)])],
            builtins: vec![],
            negated: vec![
                a(HAS_CONN, &[v(0), v(1)]),
                a(HAS_STATIC, &[v(0), v(1)]),
                a(HAS_OSPF, &[v(0), v(1)]),
            ],
        },
    ];
    Program {
        strata: vec![s0, s1, s2, s3, s4, s5, s6],
    }
}

/// Patches the cost/path bounds into the program's placeholder constants.
fn patch_bounds(p: &mut Program, inputs: &RoutingInputs) {
    // Stratum 0, rule 1 (dist recursion): Lt(_, cost_bound).
    if let Builtin::Lt(x, _) = p.strata[0][1].builtins[1] {
        p.strata[0][1].builtins[1] = Builtin::Lt(x, Term::Const(inputs.cost_bound));
    }
    // Stratum 0, rule 4 (bgp recursion): Lt(_, path_bound).
    if let Builtin::Lt(x, _) = p.strata[0][4].builtins[1] {
        p.strata[0][4].builtins[1] = Builtin::Lt(x, Term::Const(inputs.path_bound));
    }
}

/// Runs the original-architecture data plane generation.
pub fn compute(devices: &[Device], topo: &Topology, inputs: &RoutingInputs) -> DatalogRoutes {
    let mut syms = SymbolTable::default();
    let mut engine = Engine::new();
    let index: BTreeMap<&str, usize> = devices
        .iter()
        .enumerate()
        .map(|(i, d)| (d.name.as_str(), i))
        .collect();
    let mut dev_sym: Vec<Value> = Vec::with_capacity(devices.len());
    for d in devices {
        dev_sym.push(syms.intern(&d.name));
    }

    // Facts from the VI model (the original Stage 1 output).
    for (di, d) in devices.iter().enumerate() {
        let ds = dev_sym[di];
        for iface in d.active_interfaces() {
            for p in iface.connected_prefixes() {
                engine.insert_input(Fact {
                    pred: CONNECTED,
                    values: vec![ds, pack_prefix(p)],
                });
            }
            // OSPF adjacency facts.
            if d.ospf.is_some() {
                if let Some(area) = iface.ospf_area {
                    let cost = iface.ospf_cost.unwrap_or(1) as Value;
                    for p in iface.connected_prefixes() {
                        engine.insert_input(Fact {
                            pred: ADV,
                            values: vec![ds, pack_prefix(p), cost],
                        });
                    }
                    if !iface.ospf_passive {
                        let me = InterfaceRef::new(&d.name, &iface.name);
                        for nb in topo.neighbors_of(&me) {
                            let Some(&ni) = index.get(nb.device.as_str()) else { continue };
                            let nd = &devices[ni];
                            if nd.ospf.is_none() {
                                continue;
                            }
                            let Some(niface) = nd.interfaces.get(&nb.interface) else { continue };
                            if niface.ospf_area != Some(area)
                                || niface.ospf_passive
                                || !iface.shares_primary_subnet(niface)
                            {
                                continue;
                            }
                            let Some(nh) = niface.ip() else { continue };
                            engine.insert_input(Fact {
                                pred: LINK,
                                values: vec![ds, dev_sym[ni], cost, nh.0 as Value],
                            });
                        }
                    }
                }
            }
        }
        for sr in &d.static_routes {
            let nh = match sr.next_hop {
                batnet_config::vi::NextHop::Ip(ip) => ip.0 as Value,
                batnet_config::vi::NextHop::Discard => 0,
            };
            engine.insert_input(Fact {
                pred: STATIC,
                values: vec![ds, pack_prefix(sr.prefix), nh],
            });
        }
        // BGP sessions + originations (config-level pairing only — the
        // original model had no data-plane-gated establishment).
        if let Some(bgp) = &d.bgp {
            for nb in &bgp.neighbors {
                // Find the device owning the peer address.
                for (pi, peer) in devices.iter().enumerate() {
                    if pi == di {
                        continue;
                    }
                    let Some(pb) = &peer.bgp else { continue };
                    if pb.asn != nb.remote_as {
                        continue;
                    }
                    let mut owned = peer.active_interfaces().flat_map(|i| i.addresses());
                    if owned.any(|ip| ip == nb.peer_ip) {
                        engine.insert_input(Fact {
                            pred: SESSION,
                            values: vec![ds, dev_sym[pi], nb.peer_ip.0 as Value],
                        });
                    }
                }
            }
            for &p in &bgp.networks {
                engine.insert_input(Fact {
                    pred: ORIGINATE,
                    values: vec![ds, pack_prefix(p)],
                });
            }
            if bgp.redistribute_connected {
                for p in d.active_interfaces().flat_map(|i| i.connected_prefixes()) {
                    engine.insert_input(Fact {
                        pred: ORIGINATE,
                        values: vec![ds, pack_prefix(p)],
                    });
                }
            }
        }
    }

    let mut prog = program();
    patch_bounds(&mut prog, inputs);
    let firings = engine.run(&prog);

    // Extract FWD facts per device.
    let mut routes: BTreeMap<String, Vec<DatalogRoute>> = BTreeMap::new();
    for d in devices {
        routes.insert(d.name.clone(), Vec::new());
    }
    for tuple in engine.tuples(FWD) {
        let [ds, p, proto, nh] = tuple else { continue };
        let Some(name) = syms.resolve(*ds) else { continue };
        routes.entry(name.to_string()).or_default().push(DatalogRoute {
            prefix: unpack_prefix(*p),
            proto: *proto,
            next_hop: Ip(*nh as u32),
        });
    }
    for v in routes.values_mut() {
        v.sort_by_key(|r| (r.prefix, r.proto, r.next_hop));
        v.dedup();
    }
    DatalogRoutes {
        routes,
        fact_count: engine.fact_count(),
        firings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::parse_device;

    fn devices(configs: &[(&str, &str)]) -> Vec<Device> {
        configs.iter().map(|(n, t)| parse_device(n, t).0).collect()
    }

    /// OSPF triangle with asymmetric costs (same shape as the imperative
    /// engine's test).
    fn triangle() -> Vec<Device> {
        devices(&[
            (
                "r0",
                "hostname r0\ninterface a\n ip address 10.0.1.0/31\n ip ospf area 0\n ip ospf cost 1\ninterface b\n ip address 10.0.2.0/31\n ip ospf area 0\n ip ospf cost 10\nrouter ospf 1\n",
            ),
            (
                "r1",
                "hostname r1\ninterface a\n ip address 10.0.1.1/31\n ip ospf area 0\n ip ospf cost 1\ninterface c\n ip address 10.0.3.0/31\n ip ospf area 0\n ip ospf cost 1\nrouter ospf 1\n",
            ),
            (
                "r2",
                "hostname r2\ninterface b\n ip address 10.0.2.1/31\n ip ospf area 0\n ip ospf cost 10\ninterface c\n ip address 10.0.3.1/31\n ip ospf area 0\n ip ospf cost 1\ninterface lan\n ip address 10.2.0.1/24\n ip ospf area 0\n ip ospf cost 5\n ip ospf passive\nrouter ospf 1\n",
            ),
        ])
    }

    #[test]
    fn ospf_shortest_path_via_datalog() {
        let devs = triangle();
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs { cost_bound: 64, path_bound: 8 });
        let r0 = &result.routes["r0"];
        let lan: Vec<_> = r0
            .iter()
            .filter(|r| r.prefix.to_string() == "10.2.0.0/24")
            .collect();
        assert_eq!(lan.len(), 1, "{r0:?}");
        assert_eq!(lan[0].proto, PROTO_OSPF);
        // Best path r0→r1→r2 enters via r1's 10.0.1.1.
        assert_eq!(lan[0].next_hop, "10.0.1.1".parse::<Ip>().unwrap());
    }

    #[test]
    fn intermediate_facts_are_retained() {
        let devs = triangle();
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs { cost_bound: 64, path_bound: 8 });
        // The engine must hold strictly more facts than final routes —
        // the Lesson-1 memory pathology on display.
        let total_routes: usize = result.routes.values().map(Vec::len).sum();
        assert!(
            result.fact_count > 3 * total_routes,
            "facts {} vs routes {total_routes}",
            result.fact_count
        );
        assert!(result.firings > result.fact_count as u64);
    }

    /// r2's passive host interface carries a secondary subnet; r1 and r3
    /// run OSPF on interfaces that share only a secondary subnet.
    #[test]
    fn ospf_offers_secondaries_and_forms_no_adjacency_over_them() {
        let devs = devices(&[
            (
                "r1",
                "hostname r1\ninterface core\n ip address 172.16.0.1/31\n ip ospf area 0\n\
                 interface side\n ip address 172.16.1.1/31\n ip address 10.13.0.1 255.255.255.0 secondary\n ip ospf area 0\n\
                 router ospf 1\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 172.16.0.0/31\n ip ospf area 0\n\
                 interface hosts\n ip address 10.2.0.1/24\n ip address 10.9.9.1 255.255.255.0 secondary\n \
                 ip ospf area 0\n ip ospf passive\nrouter ospf 1\n",
            ),
            (
                "r3",
                "hostname r3\ninterface side\n ip address 172.16.3.1/31\n ip address 10.13.0.3 255.255.255.0 secondary\n ip ospf area 0\n\
                 interface lan\n ip address 10.33.0.1/24\n ip ospf area 0\n ip ospf passive\nrouter ospf 1\n",
            ),
        ]);
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs::for_network(&devs, &topo));
        let r1 = &result.routes["r1"];
        let to = |p: &str| r1.iter().filter(|r| r.prefix.to_string() == p).collect::<Vec<_>>();
        // The imperative engine's route: OSPF via r2's core address.
        let secondary = to("10.9.9.0/24");
        assert_eq!(secondary.len(), 1, "{r1:?}");
        assert_eq!(secondary[0].proto, PROTO_OSPF);
        assert_eq!(secondary[0].next_hop, "172.16.0.0".parse::<Ip>().unwrap());
        // IOS forms no adjacency over a secondary subnet, so r3's LAN is
        // not learned.
        assert!(to("10.33.0.0/24").is_empty(), "{r1:?}");
    }

    #[test]
    fn bgp_path_vector_propagates() {
        let devs = devices(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.1.0.1/24\nrouter bgp 65001\n redistribute connected\n neighbor 10.0.0.0 remote-as 65002\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface e1\n ip address 10.0.1.0/31\nrouter bgp 65002\n neighbor 10.0.0.1 remote-as 65001\n neighbor 10.0.1.1 remote-as 65003\n",
            ),
            (
                "r3",
                "hostname r3\ninterface e1\n ip address 10.0.1.1/31\nrouter bgp 65003\n neighbor 10.0.1.0 remote-as 65002\n",
            ),
        ]);
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs::for_network(&devs, &topo));
        // r3 must have a BGP route to r1's LAN via r2.
        let r3 = &result.routes["r3"];
        let lan: Vec<_> = r3
            .iter()
            .filter(|r| r.prefix.to_string() == "10.1.0.0/24")
            .collect();
        assert_eq!(lan.len(), 1, "{r3:?}");
        assert_eq!(lan[0].proto, PROTO_BGP);
        assert_eq!(lan[0].next_hop, "10.0.1.0".parse::<Ip>().unwrap());
    }

    /// The imperative engine pairs a session dialled at a secondary
    /// address (`Topology::bgp_pairing`); so must the baseline.
    #[test]
    fn bgp_session_pairs_over_secondary_addresses() {
        let devs = devices(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\n ip address 192.0.2.1 255.255.255.0 secondary\n\
                 interface lan\n ip address 10.1.0.1/24\n\
                 router bgp 65001\n neighbor 192.0.2.2 remote-as 65002\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\n ip address 192.0.2.2 255.255.255.0 secondary\n\
                 interface lan\n ip address 10.2.0.1/24\n\
                 router bgp 65002\n redistribute connected\n neighbor 192.0.2.1 remote-as 65001\n",
            ),
        ]);
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs::for_network(&devs, &topo));
        let lan: Vec<_> = result.routes["r1"]
            .iter()
            .filter(|r| r.prefix.to_string() == "10.2.0.0/24")
            .collect();
        assert_eq!(lan.len(), 1, "{lan:?}");
        assert_eq!(lan[0].proto, PROTO_BGP);
        assert_eq!(lan[0].next_hop, "192.0.2.2".parse::<Ip>().unwrap());
    }

    #[test]
    fn protocol_preference_applies() {
        // A device with a connected prefix also announced via BGP by a
        // peer: connected must win in FWD.
        let devs = devices(&[
            (
                "r1",
                "hostname r1\ninterface e0\n ip address 10.0.0.1/31\ninterface lan\n ip address 10.5.0.1/24\nrouter bgp 65001\n neighbor 10.0.0.0 remote-as 65002\n",
            ),
            (
                "r2",
                "hostname r2\ninterface e0\n ip address 10.0.0.0/31\ninterface lan\n ip address 10.5.0.1/24\nrouter bgp 65002\n redistribute connected\n neighbor 10.0.0.1 remote-as 65001\n",
            ),
        ]);
        let topo = Topology::infer(&devs);
        let result = compute(&devs, &topo, &RoutingInputs::for_network(&devs, &topo));
        let r1 = &result.routes["r1"];
        let entries: Vec<_> = r1
            .iter()
            .filter(|r| r.prefix.to_string() == "10.5.0.0/24")
            .collect();
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(entries[0].proto, PROTO_CONNECTED);
    }

    #[test]
    fn prefix_packing_roundtrip() {
        for s in ["0.0.0.0/0", "10.1.2.0/24", "255.255.255.255/32"] {
            let p: Prefix = s.parse().unwrap();
            assert_eq!(unpack_prefix(pack_prefix(p)), p);
        }
    }
}
