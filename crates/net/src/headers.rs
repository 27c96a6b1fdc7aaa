//! Transport-layer header vocabulary and concrete flows.
//!
//! A [`Flow`] is the concrete-packet counterpart of the symbolic packet sets
//! the BDD engine manipulates: a fully specified header plus a starting
//! location. The traceroute engine (the paper's concrete engine, §4.3.2)
//! consumes flows, and the differential-testing framework converts between
//! flows and BDD models.

use crate::ip::Ip;
use std::fmt;

/// IP protocol numbers used throughout batnet.
///
/// Only the protocols that appear in device configurations get names; any
/// other 8-bit value is representable via [`IpProtocol::Other`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// GRE (47).
    Gre,
    /// ESP (50).
    Esp,
    /// OSPF (89).
    Ospf,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// The wire protocol number.
    pub fn number(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Gre => 47,
            IpProtocol::Esp => 50,
            IpProtocol::Ospf => 89,
            IpProtocol::Other(n) => n,
        }
    }

    /// Canonicalizes a wire number into the named variant when one exists.
    pub fn from_number(n: u8) -> IpProtocol {
        match n {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            47 => IpProtocol::Gre,
            50 => IpProtocol::Esp,
            89 => IpProtocol::Ospf,
            other => IpProtocol::Other(other),
        }
    }

    /// Does this protocol carry TCP/UDP-style port numbers?
    pub fn has_ports(self) -> bool {
        matches!(self, IpProtocol::Tcp | IpProtocol::Udp)
    }

    /// Parses the keyword used in config dialects (`tcp`, `udp`, `icmp`,
    /// `ip` meaning any, or a raw number).
    pub fn parse_keyword(s: &str) -> Option<Option<IpProtocol>> {
        match s {
            "ip" | "any" => Some(None),
            "icmp" => Some(Some(IpProtocol::Icmp)),
            "tcp" => Some(Some(IpProtocol::Tcp)),
            "udp" => Some(Some(IpProtocol::Udp)),
            "gre" => Some(Some(IpProtocol::Gre)),
            "esp" => Some(Some(IpProtocol::Esp)),
            "ospf" => Some(Some(IpProtocol::Ospf)),
            _ => s.parse::<u8>().ok().map(|n| Some(IpProtocol::from_number(n))),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Gre => write!(f, "gre"),
            IpProtocol::Esp => write!(f, "esp"),
            IpProtocol::Ospf => write!(f, "ospf"),
            IpProtocol::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

/// TCP flag bits, in wire order. Stored as a `u8` bitmask.
///
/// The paper's Lesson 4 examples involve firewalls matching on SYN/ACK
/// combinations (established-session heuristics), so flags are first-class
/// in both engines.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG flag.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);

    /// Set union of the two flag sets.
    pub fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// True if every flag in `other` is also set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// The value of bit `i` (0 = FIN, following wire order).
    pub fn bit(self, i: u8) -> bool {
        debug_assert!(i < 8);
        (self.0 >> i) & 1 == 1
    }

    /// "Established" in the classic ACL sense: ACK or RST set.
    pub fn is_established(self) -> bool {
        self.0 & (Self::ACK.0 | Self::RST.0) != 0
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpFlags(")?;
        let names = [
            (Self::FIN, "FIN"),
            (Self::SYN, "SYN"),
            (Self::RST, "RST"),
            (Self::PSH, "PSH"),
            (Self::ACK, "ACK"),
            (Self::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// An inclusive range of 16-bit port numbers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortRange {
    /// Lowest port in the range.
    pub start: u16,
    /// Highest port in the range (inclusive).
    pub end: u16,
}

impl PortRange {
    /// All 65536 ports.
    pub const FULL: PortRange = PortRange { start: 0, end: u16::MAX };

    /// A range containing exactly one port.
    pub fn single(p: u16) -> PortRange {
        PortRange { start: p, end: p }
    }

    /// Creates the range `[start, end]`; panics if reversed (config parsers
    /// validate before constructing).
    pub fn new(start: u16, end: u16) -> PortRange {
        assert!(start <= end, "reversed port range {start}..{end}");
        PortRange { start, end }
    }

    /// Is `p` inside?
    pub fn contains(self, p: u16) -> bool {
        self.start <= p && p <= self.end
    }

    /// Number of ports covered.
    pub fn size(self) -> u32 {
        (self.end as u32) - (self.start as u32) + 1
    }

    /// Intersection, or `None` if disjoint.
    pub fn intersect(self, other: PortRange) -> Option<PortRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start <= end).then_some(PortRange { start, end })
    }

    /// Decompose into maximal aligned power-of-two blocks `(value, prefix
    /// length)` — the port analogue of [`crate::IpRange::to_prefixes`],
    /// used by the BDD encoders.
    pub fn to_masked_blocks(self) -> Vec<(u16, u8)> {
        let mut out = Vec::new();
        let mut cur = self.start as u32;
        let end = self.end as u32;
        while cur <= end {
            let align = if cur == 0 { 16 } else { cur.trailing_zeros().min(16) };
            let span = 32 - (end - cur + 1).leading_zeros() - 1;
            let bits = align.min(span);
            out.push((cur as u16, 16 - bits as u8));
            cur += 1u32 << bits;
        }
        out
    }
}

/// A concrete packet header: the unit of work for the traceroute engine.
///
/// Port fields are meaningful only when `protocol.has_ports()`; ICMP fields
/// only for ICMP. The unused fields are kept at zero so `Flow` equality is
/// well-defined regardless.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Flow {
    /// Source IPv4 address.
    pub src_ip: Ip,
    /// Destination IPv4 address.
    pub dst_ip: Ip,
    /// IP protocol.
    pub protocol: IpProtocol,
    /// TCP/UDP source port (0 when not applicable).
    pub src_port: u16,
    /// TCP/UDP destination port (0 when not applicable).
    pub dst_port: u16,
    /// ICMP type (0 when not applicable).
    pub icmp_type: u8,
    /// ICMP code (0 when not applicable).
    pub icmp_code: u8,
    /// TCP flags (empty when not TCP).
    pub tcp_flags: TcpFlags,
}

impl Flow {
    /// A TCP flow with SYN set — the paper's default "interesting" packet
    /// for reachability examples (§4.4.3 prioritizes common protocols).
    pub fn tcp(src_ip: Ip, src_port: u16, dst_ip: Ip, dst_port: u16) -> Flow {
        Flow {
            src_ip,
            dst_ip,
            protocol: IpProtocol::Tcp,
            src_port,
            dst_port,
            icmp_type: 0,
            icmp_code: 0,
            tcp_flags: TcpFlags::SYN,
        }
    }

    /// A UDP flow.
    pub fn udp(src_ip: Ip, src_port: u16, dst_ip: Ip, dst_port: u16) -> Flow {
        Flow {
            src_ip,
            dst_ip,
            protocol: IpProtocol::Udp,
            src_port,
            dst_port,
            icmp_type: 0,
            icmp_code: 0,
            tcp_flags: TcpFlags::EMPTY,
        }
    }

    /// An ICMP echo request ("ping").
    pub fn icmp_echo(src_ip: Ip, dst_ip: Ip) -> Flow {
        Flow {
            src_ip,
            dst_ip,
            protocol: IpProtocol::Icmp,
            src_port: 0,
            dst_port: 0,
            icmp_type: 8,
            icmp_code: 0,
            tcp_flags: TcpFlags::EMPTY,
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.protocol {
            IpProtocol::Tcp | IpProtocol::Udp => write!(
                f,
                "{} {}:{} -> {}:{}{}",
                self.protocol,
                self.src_ip,
                self.src_port,
                self.dst_ip,
                self.dst_port,
                if self.protocol == IpProtocol::Tcp {
                    format!(" {}", self.tcp_flags)
                } else {
                    String::new()
                }
            ),
            IpProtocol::Icmp => write!(
                f,
                "icmp {} -> {} type {} code {}",
                self.src_ip, self.dst_ip, self.icmp_type, self.icmp_code
            ),
            p => write!(f, "{} {} -> {}", p, self.src_ip, self.dst_ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_numbers_roundtrip() {
        for n in 0..=255u8 {
            assert_eq!(IpProtocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn protocol_keywords() {
        assert_eq!(IpProtocol::parse_keyword("ip"), Some(None));
        assert_eq!(IpProtocol::parse_keyword("tcp"), Some(Some(IpProtocol::Tcp)));
        assert_eq!(
            IpProtocol::parse_keyword("89"),
            Some(Some(IpProtocol::Ospf))
        );
        assert_eq!(IpProtocol::parse_keyword("bogus"), None);
    }

    #[test]
    fn tcp_flags_ops() {
        let f = TcpFlags::SYN.union(TcpFlags::ACK);
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert!(f.is_established());
        assert!(!TcpFlags::SYN.is_established());
        assert!(TcpFlags::RST.is_established());
        assert_eq!(format!("{f}"), "TcpFlags(SYN|ACK)");
        assert_eq!(format!("{}", TcpFlags::EMPTY), "TcpFlags(-)");
    }

    #[test]
    fn tcp_flag_bits() {
        assert!(TcpFlags::FIN.bit(0));
        assert!(TcpFlags::SYN.bit(1));
        assert!(TcpFlags::ACK.bit(4));
        assert!(!TcpFlags::ACK.bit(0));
    }

    #[test]
    fn port_range_blocks_cover_exactly() {
        let r = PortRange::new(1000, 2047);
        let blocks = r.to_masked_blocks();
        let total: u32 = blocks.iter().map(|&(_, len)| 1u32 << (16 - len)).sum();
        assert_eq!(total, r.size());
        // Every block must sit inside the range.
        for &(v, len) in &blocks {
            let size = 1u32 << (16 - len);
            assert!(v as u32 >= r.start as u32);
            assert!(v as u32 + size - 1 <= r.end as u32);
        }
    }

    #[test]
    fn port_range_full() {
        assert_eq!(PortRange::FULL.to_masked_blocks(), vec![(0, 0)]);
        assert_eq!(PortRange::FULL.size(), 65536);
    }

    #[test]
    fn port_range_intersect() {
        let a = PortRange::new(100, 200);
        let b = PortRange::new(150, 300);
        assert_eq!(a.intersect(b), Some(PortRange::new(150, 200)));
        assert_eq!(a.intersect(PortRange::new(201, 300)), None);
    }

    #[test]
    fn flow_display_forms() {
        let f = Flow::udp("1.2.3.4".parse().unwrap(), 53, "5.6.7.8".parse().unwrap(), 5353);
        assert_eq!(f.to_string(), "udp 1.2.3.4:53 -> 5.6.7.8:5353");
        let p = Flow::icmp_echo("1.1.1.1".parse().unwrap(), "2.2.2.2".parse().unwrap());
        assert!(p.to_string().contains("type 8"));
    }
}
