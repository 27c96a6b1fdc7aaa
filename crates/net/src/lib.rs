//! # batnet-net — shared networking vocabulary for the batnet workspace
//!
//! This crate holds the primitive types that every other batnet crate speaks:
//! IPv4 addresses and prefixes, transport headers, concrete flows, header
//! spaces (sets of packets described by per-field ranges), BGP vocabulary
//! (AS numbers, communities, AS paths), the interning pools used by the
//! route simulation engine to shrink its memory footprint (§4.1.3 of the
//! paper: *"we intern IP addresses, IP prefixes, BGP communities, and more
//! complex routing attributes"*), and the one hasher the workspace's
//! internal tables share.
//!
//! Everything here is `std`-only, deterministic, and free of I/O.

pub mod bgp;
pub mod governor;
pub mod hash;
pub mod headers;
pub mod headerspace;
pub mod intern;
pub mod ip;
pub mod rng;

pub use bgp::{AsPath, Asn, Community};
pub use governor::{Exhaustion, Limit, Outcome, ResourceGovernor};
pub use headers::{Flow, IpProtocol, PortRange, TcpFlags};
pub use headerspace::HeaderSpace;
pub use intern::{InternStats, Interned, Interner};
pub use ip::{Ip, IpRange, Prefix};
pub use rng::Rng;
