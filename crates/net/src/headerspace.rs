//! Header spaces: sets of packets described by independent per-field
//! constraints.
//!
//! A [`HeaderSpace`] is the *conjunctive* fragment of packet-set algebra —
//! each field carries a union of ranges and the space is the product of the
//! fields. It is exactly what one line of an ACL or one NAT match clause can
//! express, and it is the exchange format between configuration structures
//! and the two analysis engines:
//!
//! * the traceroute engine evaluates `HeaderSpace::matches(flow)` concretely;
//! * the BDD engine compiles a `HeaderSpace` to a BDD (conjunction of
//!   per-field disjunctions of range blocks).
//!
//! General packet sets (arbitrary unions, negations) live in the BDD world;
//! keeping this type simple keeps the two engines honestly independent,
//! which is what makes differential testing (§4.3.2) meaningful.

use crate::headers::{Flow, IpProtocol, PortRange, TcpFlags};
use crate::ip::{IpRange, Prefix};
use std::fmt;

/// A set of packets expressed as a product of per-field unions of ranges.
///
/// An empty constraint list for a field means "unconstrained" (the full
/// field domain). `HeaderSpace::default()` therefore denotes *all packets*.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct HeaderSpace {
    /// Allowed source prefixes/ranges (empty = any).
    pub src_ips: Vec<IpRange>,
    /// Allowed destination prefixes/ranges (empty = any).
    pub dst_ips: Vec<IpRange>,
    /// Allowed IP protocols (empty = any).
    pub protocols: Vec<IpProtocol>,
    /// Allowed source port ranges (empty = any). Only consulted for
    /// protocols that carry ports.
    pub src_ports: Vec<PortRange>,
    /// Allowed destination port ranges (empty = any).
    pub dst_ports: Vec<PortRange>,
    /// Allowed ICMP types (empty = any). Only consulted for ICMP.
    pub icmp_types: Vec<u8>,
    /// Allowed ICMP codes (empty = any).
    pub icmp_codes: Vec<u8>,
    /// TCP flags that must be set (all of them). `None` = unconstrained.
    pub tcp_flags_set: Option<TcpFlags>,
    /// TCP flags that must be clear (all of them). `None` = unconstrained.
    pub tcp_flags_unset: Option<TcpFlags>,
    /// Classic `established` keyword: ACK or RST must be set.
    pub established: bool,
}

impl HeaderSpace {
    /// The universe: every packet matches.
    pub fn any() -> HeaderSpace {
        HeaderSpace::default()
    }

    /// Constrains the destination to one prefix (builder style).
    pub fn dst_prefix(mut self, p: Prefix) -> HeaderSpace {
        self.dst_ips.push(IpRange::from_prefix(p));
        self
    }

    /// Constrains the source to one prefix (builder style).
    pub fn src_prefix(mut self, p: Prefix) -> HeaderSpace {
        self.src_ips.push(IpRange::from_prefix(p));
        self
    }

    /// Constrains the protocol (builder style).
    pub fn protocol(mut self, p: IpProtocol) -> HeaderSpace {
        self.protocols.push(p);
        self
    }

    /// Constrains the destination port to one value (builder style).
    pub fn dst_port(mut self, p: u16) -> HeaderSpace {
        self.dst_ports.push(PortRange::single(p));
        self
    }

    /// Does the concrete flow satisfy every field constraint?
    pub fn matches(&self, flow: &Flow) -> bool {
        let in_ranges = |ranges: &[IpRange], ip| ranges.is_empty() || ranges.iter().any(|r| r.contains(ip));
        if !in_ranges(&self.src_ips, flow.src_ip) || !in_ranges(&self.dst_ips, flow.dst_ip) {
            return false;
        }
        if !self.protocols.is_empty() && !self.protocols.contains(&flow.protocol) {
            return false;
        }
        // Port constraints are only meaningful for protocols with ports; a
        // port-constrained clause never matches a portless protocol. This
        // mirrors real ACL semantics where `eq 80` implies tcp/udp.
        let port_constrained = !self.src_ports.is_empty() || !self.dst_ports.is_empty();
        if port_constrained && !flow.protocol.has_ports() {
            return false;
        }
        if flow.protocol.has_ports() {
            let in_ports = |ranges: &[PortRange], p| ranges.is_empty() || ranges.iter().any(|r| r.contains(p));
            if !in_ports(&self.src_ports, flow.src_port) || !in_ports(&self.dst_ports, flow.dst_port) {
                return false;
            }
        }
        let icmp_constrained = !self.icmp_types.is_empty() || !self.icmp_codes.is_empty();
        if icmp_constrained && flow.protocol != IpProtocol::Icmp {
            return false;
        }
        if flow.protocol == IpProtocol::Icmp {
            if !self.icmp_types.is_empty() && !self.icmp_types.contains(&flow.icmp_type) {
                return false;
            }
            if !self.icmp_codes.is_empty() && !self.icmp_codes.contains(&flow.icmp_code) {
                return false;
            }
        }
        let tcp_constrained =
            self.tcp_flags_set.is_some() || self.tcp_flags_unset.is_some() || self.established;
        if tcp_constrained && flow.protocol != IpProtocol::Tcp {
            return false;
        }
        if flow.protocol == IpProtocol::Tcp {
            if let Some(set) = self.tcp_flags_set {
                if !flow.tcp_flags.contains(set) {
                    return false;
                }
            }
            if let Some(unset) = self.tcp_flags_unset {
                if flow.tcp_flags.0 & unset.0 != 0 {
                    return false;
                }
            }
            if self.established && !flow.tcp_flags.is_established() {
                return false;
            }
        }
        true
    }

    /// True when no field carries a constraint (the space is the universe).
    pub fn is_unconstrained(&self) -> bool {
        *self == HeaderSpace::default()
    }

    /// Picks *some* flow inside the space, preferring "likely" values
    /// (§4.4.3: common protocols and applications are prioritized). Returns
    /// `None` when a field's constraint list is non-empty but one of its
    /// entries is impossible to combine (e.g. ports required with an
    /// ICMP-only protocol set).
    pub fn example_flow(&self) -> Option<Flow> {
        let protocol = if self.protocols.is_empty() {
            if self.tcp_flags_set.is_some() || self.established {
                IpProtocol::Tcp
            } else if !self.icmp_types.is_empty() || !self.icmp_codes.is_empty() {
                IpProtocol::Icmp
            } else {
                IpProtocol::Tcp
            }
        } else {
            // Prefer TCP, then UDP, then ICMP, then whatever is first.
            *[IpProtocol::Tcp, IpProtocol::Udp, IpProtocol::Icmp]
                .iter()
                .find(|p| self.protocols.contains(p))
                .unwrap_or(&self.protocols[0])
        };
        let port_constrained = !self.src_ports.is_empty() || !self.dst_ports.is_empty();
        if port_constrained && !protocol.has_ports() {
            return None;
        }
        let src_ip = self.src_ips.first().map(|r| r.start).unwrap_or(crate::ip::Ip::new(10, 0, 0, 1));
        let dst_ip = self.dst_ips.first().map(|r| r.start).unwrap_or(crate::ip::Ip::new(10, 0, 0, 2));
        let dst_port = self
            .dst_ports
            .first()
            .map(|r| r.start)
            .unwrap_or(if protocol == IpProtocol::Tcp { 80 } else { 53 });
        let src_port = self.src_ports.first().map(|r| r.start).unwrap_or(49152);
        let mut flags = self.tcp_flags_set.unwrap_or(TcpFlags::SYN);
        if self.established {
            flags = flags.union(TcpFlags::ACK);
        }
        if let Some(unset) = self.tcp_flags_unset {
            flags = TcpFlags(flags.0 & !unset.0);
        }
        let flow = Flow {
            src_ip,
            dst_ip,
            protocol,
            src_port: if protocol.has_ports() { src_port } else { 0 },
            dst_port: if protocol.has_ports() { dst_port } else { 0 },
            icmp_type: if protocol == IpProtocol::Icmp {
                self.icmp_types.first().copied().unwrap_or(8)
            } else {
                0
            },
            icmp_code: if protocol == IpProtocol::Icmp {
                self.icmp_codes.first().copied().unwrap_or(0)
            } else {
                0
            },
            tcp_flags: if protocol == IpProtocol::Tcp { flags } else { TcpFlags::EMPTY },
        };
        self.matches(&flow).then_some(flow)
    }
}

impl fmt::Display for HeaderSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unconstrained() {
            return write!(f, "any");
        }
        let mut parts: Vec<String> = Vec::new();
        if !self.protocols.is_empty() {
            parts.push(format!(
                "proto={}",
                self.protocols.iter().map(|p| p.to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        let fmt_ips = |ranges: &[IpRange]| {
            ranges
                .iter()
                .map(|r| {
                    if r.start == r.end {
                        r.start.to_string()
                    } else {
                        format!("{}-{}", r.start, r.end)
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        if !self.src_ips.is_empty() {
            parts.push(format!("src={}", fmt_ips(&self.src_ips)));
        }
        if !self.dst_ips.is_empty() {
            parts.push(format!("dst={}", fmt_ips(&self.dst_ips)));
        }
        let fmt_ports = |ranges: &[PortRange]| {
            ranges
                .iter()
                .map(|r| {
                    if r.start == r.end {
                        r.start.to_string()
                    } else {
                        format!("{}-{}", r.start, r.end)
                    }
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        if !self.src_ports.is_empty() {
            parts.push(format!("sport={}", fmt_ports(&self.src_ports)));
        }
        if !self.dst_ports.is_empty() {
            parts.push(format!("dport={}", fmt_ports(&self.dst_ports)));
        }
        if let Some(s) = self.tcp_flags_set {
            parts.push(format!("flags+{s}"));
        }
        if let Some(u) = self.tcp_flags_unset {
            parts.push(format!("flags-{u}"));
        }
        if self.established {
            parts.push("established".into());
        }
        if !self.icmp_types.is_empty() {
            parts.push(format!(
                "icmp-type={}",
                self.icmp_types.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        if !self.icmp_codes.is_empty() {
            parts.push(format!(
                "icmp-code={}",
                self.icmp_codes.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(",")
            ));
        }
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ip;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn any_matches_everything() {
        let hs = HeaderSpace::any();
        assert!(hs.matches(&Flow::tcp(Ip::new(1, 2, 3, 4), 1, Ip::new(4, 3, 2, 1), 2)));
        assert!(hs.matches(&Flow::icmp_echo(Ip::ZERO, Ip::MAX)));
        assert!(hs.is_unconstrained());
        assert_eq!(hs.to_string(), "any");
    }

    #[test]
    fn dst_prefix_constrains() {
        let hs = HeaderSpace::any().dst_prefix(p("10.0.3.0/24"));
        assert!(hs.matches(&Flow::tcp(Ip::new(1, 1, 1, 1), 5, Ip::new(10, 0, 3, 9), 22)));
        assert!(!hs.matches(&Flow::tcp(Ip::new(1, 1, 1, 1), 5, Ip::new(10, 0, 4, 9), 22)));
    }

    #[test]
    fn ports_imply_tcp_udp() {
        let hs = HeaderSpace::any().dst_port(80);
        assert!(hs.matches(&Flow::tcp(Ip::ZERO, 1, Ip::MAX, 80)));
        assert!(!hs.matches(&Flow::tcp(Ip::ZERO, 1, Ip::MAX, 81)));
        // ICMP cannot match a port-constrained space.
        assert!(!hs.matches(&Flow::icmp_echo(Ip::ZERO, Ip::MAX)));
    }

    #[test]
    fn established_semantics() {
        let hs = HeaderSpace {
            established: true,
            ..HeaderSpace::default()
        };
        let syn = Flow::tcp(Ip::ZERO, 1, Ip::MAX, 80);
        assert!(!hs.matches(&syn));
        let mut ack = syn;
        ack.tcp_flags = TcpFlags::ACK;
        assert!(hs.matches(&ack));
        // Non-TCP never matches a flag-constrained space.
        assert!(!hs.matches(&Flow::udp(Ip::ZERO, 1, Ip::MAX, 80)));
    }

    #[test]
    fn flag_unset_constraint() {
        let hs = HeaderSpace {
            tcp_flags_unset: Some(TcpFlags::ACK),
            ..HeaderSpace::default()
        };
        assert!(hs.matches(&Flow::tcp(Ip::ZERO, 1, Ip::MAX, 80))); // SYN only
        let mut f = Flow::tcp(Ip::ZERO, 1, Ip::MAX, 80);
        f.tcp_flags = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(!hs.matches(&f));
    }

    #[test]
    fn icmp_type_constraint() {
        let hs = HeaderSpace {
            icmp_types: vec![8],
            ..HeaderSpace::default()
        };
        assert!(hs.matches(&Flow::icmp_echo(Ip::ZERO, Ip::MAX)));
        assert!(!hs.matches(&Flow::tcp(Ip::ZERO, 1, Ip::MAX, 80)));
    }

    #[test]
    fn example_flow_lands_inside() {
        let hs = HeaderSpace::any()
            .dst_prefix(p("10.9.9.0/24"))
            .protocol(IpProtocol::Udp)
            .dst_port(53);
        let f = hs.example_flow().unwrap();
        assert!(hs.matches(&f));
        assert_eq!(f.protocol, IpProtocol::Udp);
        assert_eq!(f.dst_port, 53);
    }

    #[test]
    fn example_flow_prefers_tcp() {
        let hs = HeaderSpace {
            protocols: vec![IpProtocol::Icmp, IpProtocol::Tcp],
            ..HeaderSpace::default()
        };
        assert_eq!(hs.example_flow().unwrap().protocol, IpProtocol::Tcp);
    }

    #[test]
    fn example_flow_impossible_combination() {
        let hs = HeaderSpace {
            protocols: vec![IpProtocol::Icmp],
            dst_ports: vec![PortRange::single(80)],
            ..HeaderSpace::default()
        };
        assert!(hs.example_flow().is_none());
    }

    #[test]
    fn display_is_compact() {
        let hs = HeaderSpace::any().protocol(IpProtocol::Tcp).dst_prefix(p("10.0.0.0/8")).dst_port(443);
        let s = hs.to_string();
        assert!(s.contains("proto=tcp"));
        assert!(s.contains("dport=443"));
    }
}
