//! # batnet-routing — Stage 2: imperative data plane generation
//!
//! The paper's Lesson 1: Datalog was removed and the control-plane model
//! re-written as imperative code running a fixed-point computation (§4.1).
//! This crate is that engine:
//!
//! * **Imperative evaluation** (§4.1.1) — connected and static routes, an
//!   OSPF link-state computation (Dijkstra per node, areas), and a full BGP
//!   decision process with import/export route maps, redistribution, and
//!   session establishment gated on reachability of the peer address
//!   through partial state and interface ACLs.
//! * **Optimized, deterministic convergence** (§4.1.2) — a protocol-
//!   specific graph coloring schedules route exchange so adjacent nodes
//!   never exchange simultaneously (Gauss–Seidel sweeps; same-color nodes
//!   run in parallel), and logical clocks on BGP adverts tie-break by
//!   arrival time like real routers. Networks that genuinely do not
//!   converge (Figure 1a) are detected and reported, not looped forever.
//! * **Optimized memory footprint** (§4.1.3) — receivers *pull* RIB deltas
//!   from neighbors (only the current and previous sweep's deltas are
//!   retained; no per-session queues), and the attributes BGP routes
//!   share (AS path, communities, local-pref, …) are interned as one
//!   bundle while each route keeps its own prefix and next hop.
//!
//! The output is a [`DataPlane`]: per-device main RIBs and FIBs, plus
//! convergence and memory statistics. `batnet-dataplane` (the BDD engine)
//! and `batnet-traceroute` (the concrete engine) both consume it.

pub mod bgp;
pub mod engine;
pub mod env;
pub mod error;
pub mod fib;
pub mod ospf;
pub mod rib;
pub mod routes;
pub mod scheduler;

pub use engine::{
    simulate, simulate_governed, ConvergenceReport, DataPlane, DeviceDataPlane, SimOptions,
};
pub use error::RoutingError;
pub use env::{Environment, ExternalAnnouncement};
pub use fib::{Fib, FibAction, FibEntry, FibNextHop, NextHops};
pub use rib::{MainRib, RibDelta};
pub use routes::{admin_distance, BgpRoute, MainNextHop, MainRoute, PathAttrs, PeerKey};
pub use scheduler::{color_graph, SchedulerMode};
