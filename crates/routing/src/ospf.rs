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

/// One router's offer of one prefix into OSPF.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Origin {
    /// The router's OSPF domain: the smallest device index it is
    /// connected to by adjacencies of any area.
    domain: usize,
    prefix: Prefix,
    router: usize,
    /// The interface cost, or `None` for a redistributed (type-E2)
    /// prefix, whose metric is fixed.
    cost: Option<u32>,
}

/// Per-area adjacency graphs plus every router's offered prefixes.
pub struct OspfGraph {
    /// area → adjacency list per device index.
    areas: BTreeMap<u32, Vec<Vec<Adjacency>>>,
    /// Every prefix offered into OSPF — each OSPF-enabled interface's
    /// subnets (passive included) and each redistributed prefix — sorted
    /// by domain and then by prefix, so a router's candidates come in
    /// prefix order without a sort of their own.
    origins: Vec<Origin>,
    /// Per device: its OSPF domain (see [`Origin::domain`]).
    domain: Vec<usize>,
    /// Per device: set of areas it participates in.
    member_areas: Vec<BTreeSet<u32>>,
}

/// The interface cost: explicit `ip ospf cost`, else reference bandwidth
/// heuristic (we have no bandwidths in the model, so the process default).
/// IOS and Junos accept only costs 1–65535, so an explicit 0 counts as 1,
/// as the default does: [`dijkstra`] needs every edge to cost at least 1.
fn iface_cost(dev: &Device, ifname: &str) -> u32 {
    let default = dev.ospf.as_ref().map(|o| o.default_cost).unwrap_or(1);
    dev.interfaces
        .get(ifname)
        .and_then(|i| i.ospf_cost)
        .unwrap_or(default)
        .max(1)
}

impl OspfGraph {
    /// Builds the per-area OSPF graphs from device configs and the inferred
    /// L3 topology. Adjacency requires: both devices run OSPF, both
    /// interfaces have an area configured, areas match, neither side is
    /// passive, and the two share their primary subnet
    /// ([`batnet_config::vi::Interface::shares_primary_subnet`]). Every
    /// connected prefix of an OSPF interface, secondaries included, is
    /// offered.
    pub fn build(devices: &[Device], topo: &Topology) -> OspfGraph {
        let index: BTreeMap<&str, usize> = devices
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.as_str(), i))
            .collect();
        let mut areas: BTreeMap<u32, Vec<Vec<Adjacency>>> = BTreeMap::new();
        // (router, prefix, cost); `None` marks a redistributed prefix.
        let mut offers: Vec<(usize, Prefix, Option<u32>)> = Vec::new();
        let mut member_areas = vec![BTreeSet::new(); devices.len()];

        for (di, dev) in devices.iter().enumerate() {
            if dev.ospf.is_none() {
                continue;
            }
            for iface in dev.active_interfaces() {
                let Some(area) = iface.ospf_area else { continue };
                member_areas[di].insert(area);
                let cost = iface_cost(dev, &iface.name);
                offers.extend(iface.connected_prefixes().map(|p| (di, p, Some(cost))));
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
                    if niface.ospf_area != Some(area)
                        || niface.ospf_passive
                        || !niface.is_active()
                        || !iface.shares_primary_subnet(niface)
                    {
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
                            offers.extend(iface.connected_prefixes().map(|p| (di, p, None)));
                        }
                    }
                }
                if ospf.redistribute_static {
                    for sr in &dev.static_routes {
                        offers.push((di, sr.prefix, None));
                    }
                }
            }
        }
        // Domains: union-find over every area's adjacencies, each set
        // named by its smallest member.
        let mut domain: Vec<usize> = (0..devices.len()).collect();
        fn root(domain: &mut [usize], mut v: usize) -> usize {
            while domain[v] != v {
                domain[v] = domain[domain[v]];
                v = domain[v];
            }
            v
        }
        for graph in areas.values() {
            for (u, adjs) in graph.iter().enumerate() {
                for adj in adjs {
                    let (a, b) = (root(&mut domain, u), root(&mut domain, adj.to));
                    domain[a.max(b)] = a.min(b);
                }
            }
        }
        let domain: Vec<usize> = (0..devices.len()).map(|v| root(&mut domain, v)).collect();
        let mut origins: Vec<Origin> = offers
            .into_iter()
            .map(|(router, prefix, cost)| Origin {
                domain: domain[router],
                prefix,
                router,
                cost,
            })
            .collect();
        origins.sort_unstable();
        OspfGraph {
            areas,
            origins,
            domain,
            member_areas,
        }
    }

    /// Whether device `src` has an OSPF adjacency. [`OspfGraph::routes_for`]
    /// gives every other device no routes.
    pub(crate) fn has_adjacency(&self, src: usize) -> bool {
        self.member_areas[src]
            .iter()
            .filter_map(|area| self.areas.get(area))
            .any(|graph| !graph[src].is_empty())
    }

    /// Computes the OSPF routes of device `src`, as main-RIB candidates.
    ///
    /// The returned routes include ECMP sets (one `MainRoute` per next hop
    /// at equal cost, in ascending next-hop order), intra-area preferred
    /// over inter-area, internal over external. They come sorted by prefix
    /// and then in main-RIB slot order, ready for `MainRib::merged_with`.
    ///
    /// First hops are bitsets over `src`'s distinct adjacency next hops,
    /// numbered in ascending address order: one row of words per router
    /// per area. One walk over the domain's prefix-sorted origins then
    /// gives each prefix its lowest metric over all areas and the union of
    /// the rows at that metric. A border router offers the prefixes of all
    /// its areas, so another area's prefixes reach `src` through it.
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
        let dists: Vec<Vec<Option<u32>>> = my_areas
            .iter()
            .map(|graph| dijkstra(graph, src, &hop_ips, words, &mut rows))
            .collect();
        let n = self.domain.len();
        let lo = self.origins.partition_point(|o| o.domain < self.domain[src]);
        let hi = self.origins.partition_point(|o| o.domain <= self.domain[src]);
        let mut out = Vec::with_capacity(hi - lo);
        let mut union = vec![0u64; words];
        for group in self.origins[lo..hi].chunk_by(|a, b| a.prefix == b.prefix) {
            let mut best: Option<u32> = None;
            // Own connected subnets come from Connected.
            for o in group.iter().filter(|o| o.router != src) {
                for (area, dist) in dists.iter().enumerate() {
                    let Some(d) = dist[o.router] else { continue };
                    let row = &rows[(area * n + o.router) * words..][..words];
                    if row.iter().all(|&w| w == 0) {
                        continue; // no first hop, no route
                    }
                    // External (E2) routes: fixed metric biased above internal.
                    let metric = o.cost.map_or(E2_METRIC_BIAS + 20, |c| d + c);
                    if best.is_some_and(|b| metric > b) {
                        continue;
                    }
                    if best != Some(metric) {
                        best = Some(metric);
                        union.fill(0);
                    }
                    for (u, w) in union.iter_mut().zip(row) {
                        *u |= w;
                    }
                }
            }
            let Some(metric) = best else { continue };
            let prefix = group[0].prefix;
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
/// popped). The pass is sound because every edge costs at least 1
/// ([`iface_cost`]): a node's DAG predecessors are all strictly nearer, so
/// their sets are complete before it is reached.
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
    // Nodes as they settle. Every edge costs at least 1, so a node at
    // distance d is pushed before any node at d is popped: they settle in
    // (distance, index) order, the order phase 2 needs.
    let mut order: Vec<usize> = Vec::new();
    dist[src] = Some(0);
    heap.push(std::cmp::Reverse((0, src)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if dist[u] != Some(d) {
            continue; // stale entry
        }
        order.push(u);
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
    for &u in &order {
        // `order` holds settled nodes only; stay total anyway.
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
    use crate::engine::{igp_ribs, local_routes};
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

    /// r0 and r1 are linked over `a` and, by a shared secondary subnet
    /// only, over `s`: IOS forms an adjacency over the primary subnet
    /// alone, so `s` carries none, while its subnets are still offered.
    #[test]
    fn a_shared_secondary_subnet_forms_no_adjacency() {
        let mut devices = vec![
            dev("r0", &[("a", "10.0.1.0", 31, 0, 1, false), ("s", "10.0.8.0", 31, 0, 1, false)]),
            dev("r1", &[("a", "10.0.1.1", 31, 0, 1, false), ("s", "10.0.9.0", 31, 0, 1, false)]),
        ];
        for (d, ip) in devices.iter_mut().zip(["10.9.9.1", "10.9.9.2"]) {
            let s = d.interfaces.get_mut("s").unwrap();
            s.secondary_addresses.push((ip.parse().unwrap(), 24));
        }
        let topo = Topology::infer(&devices);
        assert_eq!(topo.edge_count(), 2);
        let g = OspfGraph::build(&devices, &topo);
        let routes = g.routes_for(0);
        let far: Vec<_> = routes
            .iter()
            .filter(|r| r.prefix.to_string() == "10.0.9.0/31")
            .map(|r| &r.next_hop)
            .collect();
        assert_eq!(far, [&MainNextHop::Via("10.0.1.1".parse().unwrap())]);
        assert!(routes.iter().any(|r| r.prefix.to_string() == "10.9.9.0/24"));
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

    /// Middle routers in [`hub_lab`]: seventy first hops take two 64-bit
    /// words.
    const HUB_K: usize = 70;

    fn hub_link(net: u8, i: usize, host: u8) -> String {
        format!("10.{net}.{i}.{host}")
    }

    /// hub -(1)- m{i} -(1)- far for each of [`HUB_K`] middle routers; far
    /// has a LAN.
    fn hub_lab() -> Vec<Device> {
        let hub: Vec<_> = (0..HUB_K)
            .map(|i| (format!("h{i}"), hub_link(1, i, 0), 31, 0, 1, false))
            .collect();
        let mut far: Vec<_> = (0..HUB_K)
            .map(|i| (format!("f{i}"), hub_link(2, i, 1), 31, 0, 1, false))
            .collect();
        far.push(("lan".into(), "10.3.0.1".into(), 24, 0, 1, true));
        let mut devices = vec![dev_owned("hub", &hub), dev_owned("far", &far)];
        for i in 0..HUB_K {
            devices.push(dev_owned(
                &format!("m{i}"),
                &[
                    ("up".into(), hub_link(1, i, 1), 31, 0, 1, false),
                    ("down".into(), hub_link(2, i, 0), 31, 0, 1, false),
                ],
            ));
        }
        devices
    }

    #[test]
    fn a_hub_with_seventy_neighbours_gets_seventy_ecmp_routes_in_order() {
        let devices = hub_lab();
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let lan: Vec<_> = g
            .routes_for(0)
            .into_iter()
            .filter(|r| r.prefix.to_string() == "10.3.0.0/24")
            .collect();
        let want: Vec<_> = (0..HUB_K)
            .map(|i| MainNextHop::Via(hub_link(1, i, 1).parse().unwrap()))
            .collect();
        let got: Vec<_> = lan.iter().map(|r| r.next_hop.clone()).collect();
        assert_eq!(got, want, "70 ECMP next hops in ascending order");
        assert!(lan.iter().all(|r| r.metric == 3));
    }

    /// r0 reaches r3's LAN through r1 in area 0 and through r2 in area 1;
    /// the area-1 links cost `area1_cost` each.
    fn two_area_lab(area1_cost: u32) -> Vec<Device> {
        vec![
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
        ]
    }

    /// r0's routes to r3's LAN in [`two_area_lab`].
    fn two_areas(area1_cost: u32) -> Vec<MainRoute> {
        let devices = two_area_lab(area1_cost);
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

    /// `igp_ribs` checked against the per-route build it replaced: each
    /// device's RIB must equal its local routes with every OSPF route
    /// offered in turn, candidate order included, and a merged RIB must
    /// have no spare slot capacity. Returns the number of devices merged.
    fn assert_igp_matches_offers(devices: &[Device]) -> usize {
        let topo = Topology::infer(devices);
        let ospf = OspfGraph::build(devices, &topo);
        let bulk = igp_ribs(devices, &topo);
        let mut merged = 0;
        for (di, d) in devices.iter().enumerate() {
            let mut offered = local_routes(d);
            for r in ospf.routes_for(di) {
                offered.offer(r);
            }
            assert_eq!(bulk[di], offered, "{}: bulk and per-route IGP RIBs differ", d.name);
            if ospf.has_adjacency(di) {
                assert_eq!(bulk[di].spare_capacity(), 0, "{}: a slot has spare room", d.name);
                merged += 1;
            }
        }
        merged
    }

    #[test]
    fn bulk_main_ribs_match_offers_on_the_labs() {
        assert_eq!(assert_igp_matches_offers(&triangle()), 3);
        for cost in [1, 5] {
            assert_eq!(assert_igp_matches_offers(&two_area_lab(cost)), 4);
        }
        assert_eq!(assert_igp_matches_offers(&hub_lab()), HUB_K + 2);
    }

    #[test]
    fn bulk_main_ribs_match_offers_on_net1() {
        assert_eq!(assert_igp_matches_offers(&batnet_topogen::suite::net1().parse()), 85);
    }

    #[test]
    fn bulk_main_ribs_match_offers_on_n5() {
        assert_eq!(assert_igp_matches_offers(&batnet_topogen::suite::n5().parse()), 160);
    }

    #[test]
    fn bulk_main_ribs_match_offers_on_n7() {
        assert_eq!(assert_igp_matches_offers(&batnet_topogen::suite::n7().parse()), 302);
    }

    #[test]
    fn an_explicit_cost_of_zero_counts_as_one() {
        // r0 -(1)- r2 -(0)- r1 -(1)- r3, r3 has a LAN. With a 0-cost
        // edge, r1 ties r2 at distance 1 and, having the lower index,
        // would pass on its first hops before r2 had given it any.
        let devices = vec![
            dev("r0", &[("a", "10.0.1.0", 31, 0, 1, false)]),
            dev(
                "r1",
                &[
                    ("b", "10.0.2.1", 31, 0, 0, false),
                    ("c", "10.0.3.0", 31, 0, 1, false),
                ],
            ),
            dev(
                "r2",
                &[
                    ("a", "10.0.1.1", 31, 0, 1, false),
                    ("b", "10.0.2.0", 31, 0, 0, false),
                ],
            ),
            dev(
                "r3",
                &[
                    ("c", "10.0.3.1", 31, 0, 1, false),
                    ("lan", "10.3.0.1", 24, 0, 1, true),
                ],
            ),
        ];
        let topo = Topology::infer(&devices);
        let g = OspfGraph::build(&devices, &topo);
        let lan: Vec<_> = g
            .routes_for(0)
            .into_iter()
            .filter(|r| r.prefix.to_string() == "10.3.0.0/24")
            .map(|r| (r.next_hop, r.metric))
            .collect();
        assert_eq!(lan, vec![(MainNextHop::Via("10.0.1.1".parse().unwrap()), 4)]);
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
