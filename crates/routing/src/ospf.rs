//! OSPF: link-state shortest-path computation.
//!
//! OSPF is a link-state protocol: every router floods its adjacencies and
//! each router independently runs Dijkstra over the resulting graph. That
//! structure lets the simulation compute OSPF *directly* — no fixed point
//! needed — which is exactly the §4.1.1 optimization of "allowing IGP
//! protocols to converge prior to beginning BGP computation".
//!
//! The model: single process per device, areas supported with one level of
//! inter-area routing (intra-area routes are preferred; for prefixes not
//! reachable intra-area, paths go through area border routers). External
//! routes (redistributed connected/static) are type-E2: fixed metric,
//! compared after internal routes.

use crate::routes::{MainNextHop, MainRoute};
use batnet_config::vi::{Device, RouteProtocol};
use batnet_config::{InterfaceRef, Topology};
use batnet_net::{Ip, Prefix};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// OSPF administrative distance.
pub const OSPF_AD: u8 = 110;
/// Fixed metric for redistributed (type-E2) routes, compared after
/// internal routes by biasing the metric far above any internal path.
pub const E2_METRIC_BIAS: u32 = 1 << 24;

/// One OSPF adjacency: `(from, to)` device indices with the outgoing
/// interface and its cost.
#[derive(Clone, Debug)]
struct Adjacency {
    to: usize,
    cost: u32,
    /// The neighbor's interface address on the shared subnet — the next
    /// hop used in routes through this adjacency.
    next_hop_ip: Ip,
}

/// Per-area adjacency graphs plus per-device advertised prefixes.
pub struct OspfGraph {
    /// area → adjacency list per device index.
    areas: BTreeMap<u32, Vec<Vec<Adjacency>>>,
    /// Per device: (prefix, advertising cost, area) for each OSPF-enabled
    /// interface (passive included — their subnets are advertised).
    advertised: Vec<Vec<(Prefix, u32, u32)>>,
    /// Per device: redistributed external prefixes (E2).
    external: Vec<Vec<Prefix>>,
    /// Per device: set of areas it participates in.
    member_areas: Vec<BTreeSet<u32>>,
}

/// The interface cost: explicit `ip ospf cost`, else reference bandwidth
/// heuristic (we have no bandwidths in the model, so the process default).
fn iface_cost(dev: &Device, ifname: &str) -> u32 {
    let default = dev.ospf.as_ref().map(|o| o.default_cost.max(1)).unwrap_or(1);
    dev.interfaces
        .get(ifname)
        .and_then(|i| i.ospf_cost)
        .unwrap_or(default)
}

impl OspfGraph {
    /// Builds the per-area OSPF graphs from device configs and the inferred
    /// L3 topology. Adjacency requires: both devices run OSPF, both
    /// interfaces have an area configured, areas match, and neither side
    /// is passive.
    pub fn build(devices: &[Device], topo: &Topology) -> OspfGraph {
        let index: BTreeMap<&str, usize> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), i))
            .collect();
        let mut areas: BTreeMap<u32, Vec<Vec<Adjacency>>> = BTreeMap::new();
        let mut advertised = vec![Vec::new(); devices.len()];
        let mut external = vec![Vec::new(); devices.len()];
        let mut member_areas = vec![BTreeSet::new(); devices.len()];

        for (di, dev) in devices.iter().enumerate() {
            if dev.ospf.is_none() {
                continue;
            }
            for iface in dev.active_interfaces() {
                let Some(area) = iface.ospf_area else { continue };
                member_areas[di].insert(area);
                let cost = iface_cost(dev, &iface.name);
                if let Some(p) = iface.connected_prefix() {
                    advertised[di].push((p, cost, area));
                }
                if iface.ospf_passive {
                    continue;
                }
                let me = InterfaceRef::new(&dev.name, &iface.name);
                for nb in topo.neighbors_of(&me) {
                    let Some(&ni) = index.get(nb.device.as_str()) else { continue };
                    let ndev = &devices[ni];
                    if ndev.ospf.is_none() {
                        continue;
                    }
                    let Some(niface) = ndev.interfaces.get(&nb.interface) else { continue };
                    if niface.ospf_area != Some(area) || niface.ospf_passive || !niface.is_active() {
                        continue;
                    }
                    let Some(nh_ip) = niface.ip() else { continue };
                    let graph = areas
                        .entry(area)
                        .or_insert_with(|| vec![Vec::new(); devices.len()]);
                    graph[di].push(Adjacency {
                        to: ni,
                        cost,
                        next_hop_ip: nh_ip,
                    });
                }
            }
            // Redistributed external prefixes.
            if let Some(ospf) = &dev.ospf {
                if ospf.redistribute_connected {
                    for iface in dev.active_interfaces() {
                        // Only subnets not already advertised into OSPF.
                        if iface.ospf_area.is_none() {
                            if let Some(p) = iface.connected_prefix() {
                                external[di].push(p);
                            }
                        }
                    }
                }
                if ospf.redistribute_static {
                    for sr in &dev.static_routes {
                        external[di].push(sr.prefix);
                    }
                }
            }
        }
        OspfGraph {
            areas,
            advertised,
            external,
            member_areas,
        }
    }

    /// Computes the OSPF routes of device `src`, as main-RIB candidates.
    ///
    /// The returned routes include ECMP sets (one `MainRoute` per next hop
    /// at equal cost, in ascending next-hop order), intra-area preferred
    /// over inter-area, internal over external.
    ///
    /// First hops are bitsets over `src`'s distinct adjacency next hops,
    /// numbered in ascending address order: one row of words per router
    /// per area. Every advertised prefix becomes one `(prefix, metric,
    /// row)` candidate; after one sort, each prefix takes its lowest
    /// metric over all areas and the union of the rows at that metric.
    pub fn routes_for(&self, src: usize) -> Vec<MainRoute> {
        let my_areas: Vec<&Vec<Vec<Adjacency>>> = self.member_areas[src]
            .iter()
            .filter_map(|area| self.areas.get(area))
            .collect();
        let mut hop_ips: Vec<Ip> = my_areas
            .iter()
            .flat_map(|graph| graph[src].iter().map(|a| a.next_hop_ip))
            .collect();
        hop_ips.sort_unstable();
        hop_ips.dedup();
        if hop_ips.is_empty() {
            return Vec::new(); // no adjacency: every first-hop set is empty
        }
        let words = hop_ips.len().div_ceil(64);
        let mut rows: Vec<u64> = Vec::new();
        let mut candidates: Vec<(Prefix, u32, usize)> = Vec::new();
        for graph in my_areas {
            let base = rows.len() / words;
            let dist = dijkstra(graph, src, &hop_ips, words, &mut rows);
            for (di, d) in dist.iter().enumerate() {
                let row = base + di;
                let Some(cost) = *d else { continue };
                if di == src {
                    continue; // own connected subnets come from Connected
                }
                if rows[row * words..(row + 1) * words].iter().all(|&w| w == 0) {
                    continue; // no first hop, no route
                }
                // Another area's prefix is offered too: di is its border router.
                for &(p, adv_cost, _) in &self.advertised[di] {
                    candidates.push((p, cost + adv_cost, row));
                }
                // External (E2) routes: fixed metric biased above internal.
                for &p in &self.external[di] {
                    candidates.push((p, E2_METRIC_BIAS + 20, row));
                }
            }
        }
        candidates.sort_unstable();
        let mut out = Vec::new();
        let mut union = vec![0u64; words];
        for group in candidates.chunk_by(|a, b| a.0 == b.0) {
            let (prefix, metric, _) = group[0];
            union.fill(0);
            for &(_, _, row) in group.iter().take_while(|c| c.1 == metric) {
                for (u, w) in union.iter_mut().zip(&rows[row * words..]) {
                    *u |= w;
                }
            }
            for (wi, &word) in union.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let nh = hop_ips[wi * 64 + bits.trailing_zeros() as usize];
                    bits &= bits - 1;
                    out.push(MainRoute {
                        prefix,
                        admin_distance: OSPF_AD,
                        metric,
                        protocol: RouteProtocol::Ospf,
                        next_hop: MainNextHop::Via(nh),
                    });
                }
            }
        }
        out
    }
}

/// Dijkstra with ECMP first-hop tracking. Returns per-device distance and
/// appends one row of `words` words per device to `rows`: the bitset of
/// first-hop indices into `hop_ips` (`src`'s sorted adjacency next hops)
/// on shortest paths.
///
/// Two phases: plain Dijkstra for distances, then a pass in increasing
/// distance order that accumulates first-hop sets over the shortest-path
/// DAG (the one-phase variant misses ECMP hops discovered after a node is
/// popped).
fn dijkstra(
    graph: &[Vec<Adjacency>],
    src: usize,
    hop_ips: &[Ip],
    words: usize,
    rows: &mut Vec<u64>,
) -> Vec<Option<u32>> {
    let n = graph.len();
    let mut dist: Vec<Option<u32>> = vec![None; n];
    let mut heap: BinaryHeap<std::cmp::Reverse<(u32, usize)>> = BinaryHeap::new();
    dist[src] = Some(0);
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u] != Some(d) {
            continue; // stale entry
        }
        for adj in &graph[u] {
            let nd = d + adj.cost;
            match dist[adj.to] {
                Some(cur) if cur <= nd => {}
                _ => {
                    dist[adj.to] = Some(nd);
                    heap.push(std::cmp::Reverse((nd, adj.to)));
                }
            }
        }
    }
    // Phase 2: first-hop sets, in distance order.
    let base = rows.len();
    rows.resize(base + n * words, 0);
    let hops = &mut rows[base..];
    let mut order: Vec<usize> = (0..n).filter(|&v| dist[v].is_some()).collect();
    order.sort_by_key(|&v| (dist[v], v));
    for &u in &order {
        // `order` is filtered to reachable nodes; stay total anyway.
        let Some(du) = dist[u] else { continue };
        for adj in &graph[u] {
            if dist[adj.to] != Some(du + adj.cost) {
                continue;
            }
            if u == src {
                // Every next hop of `src`'s adjacencies is in `hop_ips`.
                if let Ok(i) = hop_ips.binary_search(&adj.next_hop_ip) {
                    hops[adj.to * words + i / 64] |= 1 << (i % 64);
                }
            } else {
                for w in 0..words {
                    hops[adj.to * words + w] |= hops[u * words + w];
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::vi::{Interface, OspfProcess};

    /// Builds a device with OSPF on the given interfaces:
    /// (name, ip, len, area, cost, passive).
    fn dev(name: &str, ifaces: &[(&str, &str, u8, u32, u32, bool)]) -> Device {
        let mut d = Device::new(name);
        d.ospf = Some(OspfProcess {
            router_id: None,
            reference_bandwidth_mbps: 100_000,
            redistribute_connected: false,
            redistribute_static: false,
            default_cost: 1,
        });
        for (iname, ip, len, area, cost, passive) in ifaces {
            let mut i = Interface::new(*iname);
            i.address = Some((ip.parse().unwrap(), *len));
            i.ospf_area = Some(*area);
            i.ospf_cost = Some(*cost);
            i.ospf_passive = *passive;
            d.interfaces.insert(iname.to_string(), i);
        }
        d
    }

    /// Triangle: r0 - r1 - r2 - r0 with varying costs; r2 has a passive LAN.
    fn triangle() -> Vec<Device> {
        vec![
            dev(
                "r0",
                &[
                    ("e01", "10.0.1.0", 31, 0, 1, false),
                    ("e02", "10.0.2.0", 31, 0, 10, false),
                ],
            ),
            dev(
                "r1",
                &[
                    ("e01", "10.0.1.1", 31, 0, 1, false),
                    ("e12", "10.0.3.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r2",
                &[
                    ("e02", "10.0.2.1", 31, 0, 10, false),
                    ("e12", "10.0.3.1", 31, 0, 1, false),
                    ("lan", "10.2.0.1", 24, 0, 5, true),
                ],
            ),
        ]
    }

    #[test]
    fn shortest_path_chosen() {
        let devices = triangle();
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        // r0 → 10.2.0.0/24 (r2's LAN): via r1 (1+1+5=7) not direct (10+5=15).
        let lan: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.2.0.0/24")
            .collect();
        assert_eq!(lan.len(), 1);
        assert_eq!(lan[0].metric, 7);
        assert_eq!(lan[0].next_hop, MainNextHop::Via("10.0.1.1".parse().unwrap()));
        assert_eq!(lan[0].admin_distance, OSPF_AD);
    }

    #[test]
    fn transit_subnets_advertised() {
        let devices = triangle();
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        // The far link 10.0.3.0/31 must be reachable via r1 (1+1=2).
        let far: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.0.3.0/31")
            .collect();
        assert!(!far.is_empty());
        assert_eq!(far[0].metric, 2);
    }

    #[test]
    fn ecmp_on_equal_costs() {
        // Diamond: r0 -(1)- r1 -(1)- r3, r0 -(1)- r2 -(1)- r3, r3 has a LAN.
        let devices = vec![
            dev(
                "r0",
                &[
                    ("a", "10.0.1.0", 31, 0, 1, false),
                    ("b", "10.0.2.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r1",
                &[
                    ("a", "10.0.1.1", 31, 0, 1, false),
                    ("c", "10.0.3.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r2",
                &[
                    ("b", "10.0.2.1", 31, 0, 1, false),
                    ("d", "10.0.4.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r3",
                &[
                    ("c", "10.0.3.1", 31, 0, 1, false),
                    ("d", "10.0.4.1", 31, 0, 1, false),
                    ("lan", "10.3.0.1", 24, 0, 1, true),
                ],
            ),
        ];
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        let lan: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.3.0.0/24")
            .collect();
        assert_eq!(lan.len(), 2, "two equal-cost next hops");
        let hops: BTreeSet<_> = lan.iter().map(|r| r.next_hop.clone()).collect();
        assert!(hops.contains(&MainNextHop::Via("10.0.1.1".parse().unwrap())));
        assert!(hops.contains(&MainNextHop::Via("10.0.2.1".parse().unwrap())));
    }

    /// [`dev`] for interface tables built at run time.
    fn dev_owned(name: &str, ifaces: &[(String, String, u8, u32, u32, bool)]) -> Device {
        let refs: Vec<_> = ifaces
            .iter()
            .map(|(n, ip, len, area, cost, passive)| {
                (n.as_str(), ip.as_str(), *len, *area, *cost, *passive)
            })
            .collect();
        dev(name, &refs)
    }

    #[test]
    fn a_hub_with_seventy_neighbours_gets_seventy_ecmp_routes_in_order() {
        // hub -(1)- m{i} -(1)- far for 70 middle routers; far has a LAN.
        // Seventy first hops take two 64-bit words.
        const K: usize = 70;
        let link = |net: u8, i: usize, host: u8| format!("10.{net}.{i}.{host}");
        let hub: Vec<_> = (0..K)
            .map(|i| (format!("h{i}"), link(1, i, 0), 31, 0, 1, false))
            .collect();
        let mut far: Vec<_> = (0..K)
            .map(|i| (format!("f{i}"), link(2, i, 1), 31, 0, 1, false))
            .collect();
        far.push(("lan".into(), "10.3.0.1".into(), 24, 0, 1, true));
        let mut devices = vec![dev_owned("hub", &hub), dev_owned("far", &far)];
        for i in 0..K {
            devices.push(dev_owned(
                &format!("m{i}"),
                &[
                    ("up".into(), link(1, i, 1), 31, 0, 1, false),
                    ("down".into(), link(2, i, 0), 31, 0, 1, false),
                ],
            ));
        }
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let lan: Vec<_> = g
            .routes_for(0)
            .into_iter()
            .filter(|r| r.prefix.to_string() == "10.3.0.0/24")
            .collect();
        let want: Vec<_> = (0..K)
            .map(|i| MainNextHop::Via(link(1, i, 1).parse().unwrap()))
            .collect();
        let got: Vec<_> = lan.iter().map(|r| r.next_hop.clone()).collect();
        assert_eq!(got, want, "70 ECMP next hops in ascending order");
        assert!(lan.iter().all(|r| r.metric == 3));
    }

    /// r0 reaches r3's LAN through r1 in area 0 and through r2 in area 1;
    /// the area-1 links cost `area1_cost` each.
    fn two_areas(area1_cost: u32) -> Vec<MainRoute> {
        let devices = vec![
            dev(
                "r0",
                &[
                    ("a", "10.0.1.0", 31, 0, 1, false),
                    ("b", "10.0.2.0", 31, 1, area1_cost, false),
                ],
            ),
            dev(
                "r1",
                &[
                    ("a", "10.0.1.1", 31, 0, 1, false),
                    ("c", "10.0.3.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r2",
                &[
                    ("b", "10.0.2.1", 31, 1, area1_cost, false),
                    ("d", "10.0.4.0", 31, 1, area1_cost, false),
                ],
            ),
            dev(
                "r3",
                &[
                    ("c", "10.0.3.1", 31, 0, 1, false),
                    ("d", "10.0.4.1", 31, 1, area1_cost, false),
                    ("lan", "10.3.0.1", 24, 0, 1, true),
                ],
            ),
        ];
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        g.routes_for(0)
            .into_iter()
            .filter(|r| r.prefix.to_string() == "10.3.0.0/24")
            .collect()
    }

    #[test]
    fn equal_cost_in_two_areas_takes_both_areas_first_hops() {
        let lan = two_areas(1);
        let hops: Vec<_> = lan.iter().map(|r| (r.next_hop.clone(), r.metric)).collect();
        assert_eq!(
            hops,
            vec![
                (MainNextHop::Via("10.0.1.1".parse().unwrap()), 3),
                (MainNextHop::Via("10.0.2.1".parse().unwrap()), 3),
            ]
        );
    }

    #[test]
    fn unequal_cost_in_two_areas_takes_only_the_cheaper_areas_first_hops() {
        let lan = two_areas(5);
        let hops: Vec<_> = lan.iter().map(|r| (r.next_hop.clone(), r.metric)).collect();
        assert_eq!(
            hops,
            vec![(MainNextHop::Via("10.0.1.1".parse().unwrap()), 3)]
        );
    }

    #[test]
    fn area_mismatch_blocks_adjacency() {
        let mut devices = triangle();
        // Put r2's side of the r1-r2 link in area 1: adjacency breaks, so
        // r0 reaches the LAN via the expensive direct link.
        devices[2]
            .interfaces
            .get_mut("e12")
            .unwrap()
            .ospf_area = Some(1);
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        let lan: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.2.0.0/24")
            .collect();
        assert_eq!(lan.len(), 1);
        assert_eq!(lan[0].metric, 15, "must use the direct area-0 path");
    }

    #[test]
    fn passive_interfaces_form_no_adjacency() {
        let mut devices = triangle();
        devices[0].interfaces.get_mut("e01").unwrap().ospf_passive = true;
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        let lan: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.2.0.0/24")
            .collect();
        // Path via r1 is gone; only the direct 10-cost link remains.
        assert_eq!(lan[0].metric, 15);
    }

    #[test]
    fn redistributed_static_is_e2() {
        let mut devices = triangle();
        devices[2].ospf.as_mut().unwrap().redistribute_static = true;
        devices[2].static_routes.push(batnet_config::vi::StaticRoute {
            prefix: "192.168.0.0/16".parse().unwrap(),
            next_hop: batnet_config::vi::NextHop::Discard,
            admin_distance: 1,
        });
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        let ext: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "192.168.0.0/16")
            .collect();
        assert_eq!(ext.len(), 1);
        assert!(ext[0].metric >= E2_METRIC_BIAS, "E2 metric biased above internal");
    }

    #[test]
    fn non_ospf_device_gets_no_routes() {
        let mut devices = triangle();
        devices[0].ospf = None;
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        assert!(g.routes_for(0).is_empty());
        // And neighbors no longer see routes *through* it either way —
        // r1 still reaches r2 directly.
        let r1_routes = g.routes_for(1);
        assert!(r1_routes.iter().any(|r| r.prefix.to_string() == "10.2.0.0/24"));
    }
}
