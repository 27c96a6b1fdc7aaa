//! batnet-serve: the fault-tolerant long-running analysis service.
//!
//! Batfish's most consequential architectural lesson was becoming a
//! *service*: parse and simulate once, keep the analyzed snapshot warm,
//! and answer many questions against it. This crate is that shape for
//! batnet — an HTTP/1.1 server over `std::net` (zero dependencies, like
//! everything here) whose design center is the failure model rather
//! than the happy path:
//!
//! * [`http`] — a hand-rolled parser with strict size/header limits;
//!   every limit violation is a typed rejection with an accounting
//!   class.
//! * [`store`] — the warm snapshot store, itself bounded (eviction);
//!   a stored snapshot is immutable behind one lock on its BDD manager.
//! * [`api`] — the route table and its handlers, where a tripped
//!   [`batnet::ResourceGovernor`] budget returns `206` with
//!   `Outcome::Partial` accounting, the same mechanism the batch CLIs
//!   use for `--deadline-ms`.
//! * [`server`] — accept loop, bounded admission (full means `503` +
//!   `Retry-After` *now*, not unbounded queueing), a fixed set of
//!   dispatch threads on one bounded channel, slow-loris watchdog,
//!   per-request panic isolation, graceful drain.
//! * [`client`] — the blocking client the load driver and the tests
//!   share.
//! * [`tracing`] — per-request trace ids (`X-Batnet-Trace-Id` on every
//!   response) and the bounded recent-trace ring behind `GET /tracez`.
//!
//! Every rejection, partial answer, contained panic, and eviction is
//! accounted in [`batnet_obs`] metrics, exposed at `GET /metricsz` —
//! the chaos harness's invariant 8 audits exactly those books.

#![forbid(unsafe_code)]

pub mod api;
pub mod client;
pub mod http;
pub mod server;
pub mod store;
pub mod tracing;

pub use client::{get, post, ClientResponse};
pub use http::{Limits, Method, ParseError, Request, Response};
pub use server::{spawn, Handle, ServeConfig};
pub use store::{SnapshotStore, StoredSnapshot};
pub use tracing::{TraceEntry, TraceIds, TraceRing};
