//! # batnet-queries — the usability layer (§4.4)
//!
//! Lesson 4: verification's raw power (first-order formulas, complete
//! header spaces) is unusable without careful packaging. This crate wraps
//! the symbolic engine with the paper's three techniques:
//!
//! * **Specialized queries** (§4.4.1) — "is this service reachable from
//!   its clients" and "is this service blocked" are *separate* queries
//!   with separate defaults, not parameterizations of one generic check.
//! * **Default search-space scoping** (§4.4.2) — start locations default
//!   to host-facing interfaces (heuristics over addressing, prefix
//!   length, and whether the remote end of the link is in the snapshot),
//!   and source IPs default to the subnets that can legitimately
//!   originate there, silencing the spoofed-source class of uninteresting
//!   violations.
//! * **Examples and annotation** (§4.4.3) — every violation comes with a
//!   *negative* example (a packet that fails), a contrasting *positive*
//!   example when one exists, both chosen against likelihood preferences
//!   (TCP before other protocols, well-known destination ports, ephemeral
//!   source ports), and a concrete trace annotated with the routes and
//!   ACL lines on the path.

pub mod examples;
pub mod scope;
pub mod service;

pub use examples::{pick_flow, Preferences};
pub use scope::{host_facing_interfaces, scoped_sources, HostIface};
pub use service::{
    QueryContext,
    service_blocked, service_reachable, service_sinks, waypoint_enforced, QueryReport,
    ServiceSpec, Violation,
};
