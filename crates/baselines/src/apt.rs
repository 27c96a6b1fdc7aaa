//! Atomic Predicates (APT): the §6.2 comparison engine.
//!
//! Yang & Lam's insight: compute the coarsest partition of the header
//! space that distinguishes every edge predicate in the network; then
//! every predicate is a *set of atom ids* and reachability propagates
//! integer sets. Queries are fast — but the partition must be computed up
//! front over every predicate in the network, which is the cost the
//! paper's Figure/§6.2 comparison highlights (Batfish builds its graph
//! and answers destination queries almost two orders of magnitude
//! faster on the 92-node network).
//!
//! This implementation reuses `batnet-dataplane`'s graph as the edge
//! source; transform edges (NAT/zones) are out of scope, as they were for
//! the original Atomic Predicates tool (*"adding packet transformations
//! to the original Atomic Predicates tool required development of an
//! entirely new theory"*).

use batnet_bdd::{Bdd, NodeId};
use batnet_dataplane::{EdgeLabel, ForwardingGraph, NodeKind};
use std::collections::{BTreeMap, BTreeSet};

/// A set of atom ids, as a bitset.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AtomSet {
    words: Vec<u64>,
}

impl AtomSet {
    fn with_capacity(n: usize) -> AtomSet {
        AtomSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Is atom `i` present?
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Union in place; true when anything changed.
    pub fn union_in(&mut self, other: &AtomSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Intersection.
    pub fn intersect(&self, other: &AtomSet) -> AtomSet {
        AtomSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & b)
                .collect(),
        }
    }

    /// Any atoms present?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of atoms present.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// The Atomic Predicates engine over one forwarding graph.
pub struct AptEngine {
    /// The atoms, as BDDs (pairwise disjoint, covering TRUE).
    pub atoms: Vec<NodeId>,
    /// Per edge: its predicate as an atom set.
    pub edge_atoms: Vec<AtomSet>,
    graph_nodes: usize,
}

/// The graph contains a packet-transformation edge, which the Atomic
/// Predicates theory does not cover (as documented above).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UnsupportedTransform;

impl std::fmt::Display for UnsupportedTransform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "APT does not support packet transformations")
    }
}

impl std::error::Error for UnsupportedTransform {}

impl AptEngine {
    /// Computes the atomic predicates of every BDD-labeled edge and
    /// re-encodes the edges. Errors on transform edges (out of scope, as
    /// documented).
    pub fn build(bdd: &mut Bdd, graph: &ForwardingGraph) -> Result<AptEngine, UnsupportedTransform> {
        // Partition refinement: start with {TRUE}, split by each distinct
        // predicate.
        let mut predicates: BTreeSet<NodeId> = BTreeSet::new();
        for e in &graph.edges {
            match e.label {
                EdgeLabel::Bdd(p) => {
                    predicates.insert(p);
                }
                EdgeLabel::Transform(_, _) => return Err(UnsupportedTransform),
            }
        }
        let mut atoms: Vec<NodeId> = vec![NodeId::TRUE];
        for &p in &predicates {
            if p == NodeId::TRUE || p == NodeId::FALSE {
                continue;
            }
            let np = bdd.not(p);
            let mut next = Vec::with_capacity(atoms.len() * 2);
            for &a in &atoms {
                let with = bdd.and(a, p);
                if with != NodeId::FALSE {
                    next.push(with);
                }
                let without = bdd.and(a, np);
                if without != NodeId::FALSE {
                    next.push(without);
                }
            }
            atoms = next;
        }
        // Re-encode every edge as an atom set. An atom is in a predicate
        // iff atom ∧ predicate ≠ ∅ (atoms are never split by any
        // predicate, so intersection means containment).
        let mut cache: BTreeMap<NodeId, AtomSet> = BTreeMap::new();
        let mut edge_atoms = Vec::with_capacity(graph.edges.len());
        for e in &graph.edges {
            let EdgeLabel::Bdd(p) = e.label else {
                return Err(UnsupportedTransform);
            };
            let set = cache
                .entry(p)
                .or_insert_with(|| {
                    let mut s = AtomSet::with_capacity(atoms.len());
                    for (i, &a) in atoms.iter().enumerate() {
                        if bdd.and(a, p) != NodeId::FALSE {
                            s.insert(i);
                        }
                    }
                    s
                })
                .clone();
            edge_atoms.push(set);
        }
        Ok(AptEngine {
            atoms,
            edge_atoms,
            graph_nodes: graph.nodes.len(),
        })
    }

    /// The atom-set encoding of an arbitrary packet set.
    pub fn encode(&self, bdd: &mut Bdd, set: NodeId) -> AtomSet {
        let mut s = AtomSet::with_capacity(self.atoms.len());
        for (i, &a) in self.atoms.iter().enumerate() {
            if bdd.and(a, set) != NodeId::FALSE {
                s.insert(i);
            }
        }
        s
    }

    /// Decodes an atom set back to a BDD.
    pub fn decode(&self, bdd: &mut Bdd, set: &AtomSet) -> NodeId {
        let mut acc = NodeId::FALSE;
        for (i, &a) in self.atoms.iter().enumerate() {
            if set.contains(i) {
                acc = bdd.or(acc, a);
            }
        }
        acc
    }

    /// Forward reachability with integer-set labels.
    pub fn forward(
        &self,
        graph: &ForwardingGraph,
        sources: &[(usize, AtomSet)],
    ) -> Vec<AtomSet> {
        let mut reach: Vec<AtomSet> = (0..self.graph_nodes)
            .map(|_| AtomSet::with_capacity(self.atoms.len()))
            .collect();
        let mut worklist: BTreeSet<usize> = BTreeSet::new();
        for (n, s) in sources {
            reach[*n].union_in(s);
            worklist.insert(*n);
        }
        while let Some(n) = worklist.pop_first() {
            let current = reach[n].clone();
            for &eid in &graph.out_edges[n] {
                let e = &graph.edges[eid];
                let pushed = current.intersect(&self.edge_atoms[eid]);
                if pushed.is_empty() {
                    continue;
                }
                if reach[e.to].union_in(&pushed) {
                    worklist.insert(e.to);
                }
            }
        }
        reach
    }

    /// Destination reachability: the atom sets arriving at every success
    /// sink when all sources inject everything.
    pub fn dest_reachability(&self, graph: &ForwardingGraph) -> Vec<(usize, AtomSet)> {
        let full = {
            let mut s = AtomSet::with_capacity(self.atoms.len());
            for i in 0..self.atoms.len() {
                s.insert(i);
            }
            s
        };
        let sources: Vec<(usize, AtomSet)> = graph
            .nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _)))
            .into_iter()
            .map(|n| (n, full.clone()))
            .collect();
        let reach = self.forward(graph, &sources);
        graph
            .nodes_where(NodeKind::is_success_sink)
            .into_iter()
            .map(|n| (n, reach[n].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::{parse_device, Topology};
    use batnet_dataplane::{PacketVars, ReachAnalysis};
    use batnet_routing::{simulate, Environment, SimOptions};

    fn fixture() -> (
        Bdd,
        PacketVars,
        ForwardingGraph,
    ) {
        let devices: Vec<_> = [
            (
                "r1",
                "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\n ip access-group EDGE in\ninterface core\n ip address 10.0.0.1/31\nip route 10.2.0.0/24 10.0.0.0\nip access-list extended EDGE\n 10 permit tcp any any eq 80\n 20 deny ip any any\n",
            ),
            (
                "r2",
                "hostname r2\ninterface core\n ip address 10.0.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 10.0.0.1\n",
            ),
        ]
        .iter()
        .map(|(n, t)| parse_device(n, t).0)
        .collect();
        let topo = Topology::infer(&devices);
        let dp = simulate(&devices, &Environment::none(), &SimOptions::default());
        let (mut bdd, vars) = PacketVars::new(0);
        let graph = ForwardingGraph::build(&mut bdd, &vars, &devices, &dp, &topo);
        (bdd, vars, graph)
    }

    #[test]
    fn atoms_partition_the_space() {
        let (mut bdd, _, graph) = fixture();
        let apt = AptEngine::build(&mut bdd, &graph).expect("no transform edges");
        assert!(apt.atoms.len() > 1);
        // Pairwise disjoint.
        for i in 0..apt.atoms.len() {
            for j in i + 1..apt.atoms.len() {
                assert_eq!(bdd.and(apt.atoms[i], apt.atoms[j]), NodeId::FALSE);
            }
        }
        // Cover TRUE.
        let mut all = NodeId::FALSE;
        for &a in &apt.atoms {
            all = bdd.or(all, a);
        }
        assert_eq!(all, NodeId::TRUE);
    }

    #[test]
    fn encode_decode_roundtrip_on_predicates() {
        let (mut bdd, _, graph) = fixture();
        let apt = AptEngine::build(&mut bdd, &graph).expect("no transform edges");
        // Every edge predicate must decode exactly (atoms distinguish all
        // predicates — the APT completeness property).
        for (eid, e) in graph.edges.iter().enumerate() {
            let EdgeLabel::Bdd(p) = e.label else { unreachable!() };
            let decoded = apt.decode(&mut bdd, &apt.edge_atoms[eid]);
            assert_eq!(decoded, p, "edge {eid}");
        }
    }

    #[test]
    fn apt_reachability_matches_bdd_engine() {
        let (mut bdd, _, graph) = fixture();
        let apt = AptEngine::build(&mut bdd, &graph).expect("no transform edges");
        // Same query both ways: everything from every source.
        let analysis = ReachAnalysis::new(&graph);
        let bdd_reach = analysis.forward_from_all_sources(&mut bdd, NodeId::TRUE);
        let apt_sinks = apt.dest_reachability(&graph);
        for (node, atomset) in apt_sinks {
            let decoded = apt.decode(&mut bdd, &atomset);
            // The BDD engine constrains bookkeeping bits at sources; APT
            // sees the raw header space. Compare after dropping those
            // bits from the BDD result — the graphs' packet behaviour
            // must agree exactly on header bits.
            let bdd_set = bdd_reach.at(node);
            // Quantify nothing: source edges add init-bits constraints to
            // both engines identically (the labels are shared), so direct
            // equality holds.
            assert_eq!(decoded, bdd_set, "sink {:?}", graph.nodes[node]);
        }
    }
}
