//! # batnet-traceroute — the concrete forwarding engine
//!
//! Batfish keeps two *independent* forwarding analysis engines: the
//! symbolic BDD engine (`batnet-dataplane`) and this one, which walks a
//! single concrete packet through the general device pipeline. §4.3.2:
//! *"Validating that such engines produce identical results is
//! instrumental in uncovering modeling bugs."* The two implementations
//! deliberately share no matching code beyond the VI model itself.
//!
//! ## The general device pipeline (§7.2)
//!
//! Vendors order filtering, NAT, and routing differently; Batfish maps
//! every vendor onto a superset pipeline. Ours, for a packet arriving on
//! interface *in*:
//!
//! 1. ingress ACL (`in.acl_in`);
//! 2. destination NAT (rules scoped to *in* or unscoped);
//! 3. local delivery check (destination owned by the device);
//! 4. FIB lookup (ECMP forks the trace);
//! 5. zone policy (`zone(in) → zone(out)`) on stateful devices;
//! 6. source NAT (rules scoped to *out* or unscoped);
//! 7. egress ACL (`out.acl_out`);
//! 8. hand-off to the L3 neighbor owning the gateway address.
//!
//! Steps 1 and 7 are one filter step. An interface ACL the device does
//! not define permits (the parser flags the reference), and the trace
//! says so in either direction: `ingress acl NAME undefined: permit`,
//! `egress acl NAME undefined: permit`.
//!
//! Traces are one-way: a stateful device installs no session, and return
//! traffic meets the zone policy like any other flow (§4.2.3's
//! bidirectional reachability is not carried).
//!
//! Every step is annotated (route used, ACL line hit) for the §4.4.3
//! violation explanations.

pub mod trace;

pub use trace::{Disposition, Hop, StartLocation, Trace, TracePath, Tracer};
