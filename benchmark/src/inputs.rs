//! Seeded inputs. `--seed` is the only source of randomness; the
//! networks themselves come from `batnet_topogen`, which is seed-free,
//! so a seed picks *what is asked* of a fixed network.

use batnet::config::vi::Device;
use batnet::config::Topology;
use batnet::net::rng::Rng;
use batnet::net::{Flow, Ip, Prefix};
use batnet::queries::{host_facing_interfaces, HostIface};
use batnet_topogen::GeneratedNetwork;

/// The network behind a workload, as `(id, generator)`. `--quick` swaps
/// in small ones so a smoke run takes seconds.
pub fn workload_net(workload: &str, quick: bool) -> (&'static str, fn() -> GeneratedNetwork) {
    use batnet_topogen::suite::{n11, n2, n4, n7, net1};
    match (workload, quick) {
        ("verify-n7", false) => ("N7", n7),
        ("routes-n11", false) => ("N11", n11),
        ("routes-n11", true) => ("N4", n4),
        ("query-warm-net1", false) => ("NET1", net1),
        _ => ("N2", n2),
    }
}

/// Service ports the questions draw from.
pub const PORTS: [u16; 4] = [22, 80, 443, 53];

/// The connected prefixes of a network: the universe service questions
/// and lookups draw destinations from.
pub fn connected_prefixes(devices: &[Device]) -> Vec<Prefix> {
    let mut out: Vec<Prefix> = devices
        .iter()
        .flat_map(|d| d.active_interfaces().filter_map(|i| i.connected_prefix()))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// A seeded address inside `prefix`.
pub fn addr_in(rng: &mut Rng, prefix: Prefix) -> Ip {
    Ip(prefix.network().0 + rng.below(prefix.size()) as u32)
}

/// Internal host-facing interfaces: where client traffic enters.
pub fn client_ifaces(devices: &[Device], topo: &Topology) -> Vec<HostIface> {
    host_facing_interfaces(devices, topo)
        .into_iter()
        .filter(|h| !h.external)
        .collect()
}

/// A seeded TCP flow from a host on `from` to an address in `to`.
pub fn client_flow(rng: &mut Rng, from: &HostIface, to: Prefix, port: u16) -> Flow {
    Flow::tcp(addr_in(rng, from.subnet), 40_000, addr_in(rng, to), port)
}

/// One service question: is `prefix:port` reachable from every client?
#[derive(Clone, Copy, Debug)]
pub struct Question {
    pub prefix: Prefix,
    pub port: u16,
}

/// `n` seeded questions over a prefix universe.
pub fn questions(universe: &[Prefix], seed: u64, n: usize) -> Vec<Question> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| Question {
            prefix: *rng.pick(universe),
            port: *rng.pick(&PORTS),
        })
        .collect()
}
