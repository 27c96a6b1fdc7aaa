//! # batnet-dataplane — Stage 3: BDD-based data plane verification
//!
//! The paper's Lesson 2 engine (§4.2): data plane analysis as a dataflow
//! analysis over a graph whose nodes are pipeline stages (interface
//! sources/sinks, FIB lookups, ACLs, NATs, zone checks) and whose edges
//! carry *sets of packets* encoded as BDDs.
//!
//! * [`vars`] — the packet variable layout: the §4.2.2 frequency-ordered
//!   fields (destination IP first, TCP flags last), MSB-first bits,
//!   interleaved primed copies of the transformable fields for NAT
//!   relations, reusable zone bits, and waypoint bits no query sets.
//! * [`acl`] / [`fibenc`] — compilation of ACLs (first-match) and FIBs
//!   (longest-prefix-match) into edge BDDs.
//! * [`graph`] — the dataflow graph (Figure 2 of the paper), with typed
//!   drop sinks mirroring the concrete engine's dispositions.
//! * [`compress`] — graph compression (§4.2.3): splicing out simple
//!   nodes, composing their edge labels.
//! * [`reach`] — forward fixed-point propagation, backward propagation
//!   for single-destination queries and from a set of sinks at once (the
//!   one governed walk: service questions, `/query/reach`, the diff),
//!   loop detection, and multipath consistency.
//!
//! §4.2.3's bidirectional reachability (firewall sessions and a return
//! pass over a graph instrumented with session fast paths) is not
//! carried: no question asks for it. Stateful devices apply their zone
//! policy to every transiting flow.

pub mod acl;
pub mod compress;
pub mod fibenc;
pub mod graph;
pub mod reach;
pub mod vars;

pub use graph::{DropKind, EdgeLabel, ForwardingGraph, NodeKind};
pub use reach::{ReachAnalysis, ReachResult, ShardStats, StartSummary};
pub use vars::PacketVars;
