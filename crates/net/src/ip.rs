//! IPv4 addresses, prefixes, and address ranges.
//!
//! The simulation engine touches millions of addresses and prefixes, so both
//! types are `Copy` newtypes over `u32`/`(u32, u8)` with total orderings that
//! are stable across runs (determinism is a design goal — §4.1.2).

use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a host-order `u32`.
///
/// ```
/// use batnet_net::Ip;
/// let ip: Ip = "10.0.3.1".parse().unwrap();
/// assert_eq!(ip.octets(), [10, 0, 3, 1]);
/// assert_eq!(ip.to_string(), "10.0.3.1");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ip(pub u32);

impl Ip {
    /// The unspecified address `0.0.0.0`.
    pub const ZERO: Ip = Ip(0);
    /// The maximum address `255.255.255.255`.
    pub const MAX: Ip = Ip(u32::MAX);

    /// Builds an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ip {
        Ip(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Returns the four dotted-quad octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// Returns the value of bit `i`, where bit 0 is the most significant.
    ///
    /// This is the order in which the BDD engine allocates variables for an
    /// address (most significant bit first, §4.2.2).
    pub const fn bit(self, i: u8) -> bool {
        debug_assert!(i < 32);
        (self.0 >> (31 - i)) & 1 == 1
    }

    /// The address numerically after `self`, saturating at `Ip::MAX`.
    pub const fn saturating_succ(self) -> Ip {
        Ip(self.0.saturating_add(1))
    }
}

impl fmt::Display for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl fmt::Debug for Ip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl From<u32> for Ip {
    fn from(v: u32) -> Ip {
        Ip(v)
    }
}

/// Error returned when parsing an [`Ip`] or [`Prefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Ip {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Ip, AddrParseError> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| AddrParseError(s.to_string()))?;
            // Reject empty / oversized / non-digit parts explicitly so that
            // config-parser error messages point at the right token.
            if part.is_empty() || part.len() > 3 || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(AddrParseError(s.to_string()));
            }
            *slot = part.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Ip::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 prefix (`network/len`), always stored in canonical form: bits
/// below the prefix length are zero.
///
/// ```
/// use batnet_net::{Ip, Prefix};
/// let p: Prefix = "10.0.3.0/24".parse().unwrap();
/// assert!(p.contains("10.0.3.77".parse().unwrap()));
/// assert!(!p.contains("10.0.4.1".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    network: Ip,
    len: u8,
}

impl Prefix {
    /// The default route `0.0.0.0/0`.
    pub const DEFAULT: Prefix = Prefix {
        network: Ip(0),
        len: 0,
    };

    /// Creates a prefix, canonicalizing the network address by masking out
    /// host bits. Lengths above 32 are clamped to 32.
    pub fn new(ip: Ip, len: u8) -> Prefix {
        let len = len.min(32);
        Prefix {
            network: Ip(ip.0 & mask(len)),
            len,
        }
    }

    /// A host prefix (`/32`) for a single address.
    pub fn host(ip: Ip) -> Prefix {
        Prefix::new(ip, 32)
    }

    /// The network address (host bits zero).
    pub fn network(&self) -> Ip {
        self.network
    }

    /// The prefix length in bits (0..=32).
    pub fn len(&self) -> u8 {
        self.len
    }

    /// The highest address covered by this prefix.
    pub fn last_ip(&self) -> Ip {
        Ip(self.network.0 | !mask(self.len))
    }

    /// Number of addresses covered (as u64 so `/0` does not overflow).
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Does the prefix cover `ip`?
    pub fn contains(&self, ip: Ip) -> bool {
        ip.0 & mask(self.len) == self.network.0
    }

    /// Does the prefix cover every address of `other`?
    pub fn contains_prefix(&self, other: &Prefix) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// Do the two prefixes share any address?
    pub fn overlaps(&self, other: &Prefix) -> bool {
        self.contains_prefix(other) || other.contains_prefix(self)
    }

    /// The covering prefix one bit shorter, or `None` for `/0`.
    pub fn parent(&self) -> Option<Prefix> {
        if self.len == 0 {
            None
        } else {
            Some(Prefix::new(self.network, self.len - 1))
        }
    }

    /// The two halves of this prefix, or `None` for a `/32`.
    pub fn children(&self) -> Option<(Prefix, Prefix)> {
        if self.len >= 32 {
            return None;
        }
        let left = Prefix::new(self.network, self.len + 1);
        let right = Prefix::new(Ip(self.network.0 | (1 << (31 - self.len))), self.len + 1);
        Some((left, right))
    }
}

/// Network mask with `len` leading ones.
const fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl FromStr for Prefix {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Prefix, AddrParseError> {
        let (ip, len) = s.split_once('/').ok_or_else(|| AddrParseError(s.to_string()))?;
        let ip: Ip = ip.parse()?;
        let len: u8 = len.parse().map_err(|_| AddrParseError(s.to_string()))?;
        if len > 32 {
            return Err(AddrParseError(s.to_string()));
        }
        Ok(Prefix::new(ip, len))
    }
}

/// Ordering: by network address, then by length (shorter first). This gives
/// a deterministic iteration order for RIB dumps and reports.
impl Ord for Prefix {
    fn cmp(&self, other: &Prefix) -> std::cmp::Ordering {
        (self.network, self.len).cmp(&(other.network, other.len))
    }
}

impl PartialOrd for Prefix {
    fn partial_cmp(&self, other: &Prefix) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An inclusive range of IPv4 addresses, used by NAT pools and by header
/// spaces (a range is not always expressible as a single prefix).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IpRange {
    /// First address in the range.
    pub start: Ip,
    /// Last address in the range (inclusive).
    pub end: Ip,
}

impl IpRange {
    /// A range covering a single address.
    pub fn single(ip: Ip) -> IpRange {
        IpRange { start: ip, end: ip }
    }

    /// The full IPv4 space.
    pub const FULL: IpRange = IpRange {
        start: Ip(0),
        end: Ip(u32::MAX),
    };

    /// The range covered by a prefix.
    pub fn from_prefix(p: Prefix) -> IpRange {
        IpRange {
            start: p.network(),
            end: p.last_ip(),
        }
    }

    /// Is `ip` within the range?
    pub fn contains(&self, ip: Ip) -> bool {
        self.start <= ip && ip <= self.end
    }

    /// Number of addresses in the range.
    pub fn size(&self) -> u64 {
        (self.end.0 as u64) - (self.start.0 as u64) + 1
    }

    /// Intersection of two ranges, or `None` if disjoint.
    pub fn intersect(&self, other: &IpRange) -> Option<IpRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(IpRange { start, end })
        } else {
            None
        }
    }

    /// Decomposes the range into the minimal list of covering prefixes.
    ///
    /// This is how range-based config constructs (NAT pools, Juniper-style
    /// `from address-range`) are lowered to the prefix-based BDD encoders.
    pub fn to_prefixes(&self) -> Vec<Prefix> {
        let mut out = Vec::new();
        let mut cur = self.start.0 as u64;
        let end = self.end.0 as u64;
        while cur <= end {
            // Largest power-of-two block that is aligned at `cur` and does
            // not overshoot `end`.
            let align = if cur == 0 { 32 } else { cur.trailing_zeros().min(32) };
            let span = 64 - (end - cur + 1).leading_zeros() - 1; // floor(log2(len))
            let bits = align.min(span);
            out.push(Prefix::new(Ip(cur as u32), 32 - bits as u8));
            cur += 1u64 << bits;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_roundtrip_and_octets() {
        let ip: Ip = "192.168.1.200".parse().unwrap();
        assert_eq!(ip.octets(), [192, 168, 1, 200]);
        assert_eq!(ip.to_string(), "192.168.1.200");
        assert_eq!("0.0.0.0".parse::<Ip>().unwrap(), Ip::ZERO);
        assert_eq!("255.255.255.255".parse::<Ip>().unwrap(), Ip::MAX);
    }

    #[test]
    fn ip_parse_rejects_garbage() {
        for bad in ["", "1.2.3", "1.2.3.4.5", "1.2.3.256", "1.2.3.x", "1..3.4", "01234.1.1.1"] {
            assert!(bad.parse::<Ip>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn ip_bits_are_msb_first() {
        let ip = Ip::new(0b1000_0000, 0, 0, 1);
        assert!(ip.bit(0));
        assert!(!ip.bit(1));
        assert!(ip.bit(31));
    }

    #[test]
    fn prefix_canonicalizes() {
        let p = Prefix::new("10.1.2.3".parse().unwrap(), 24);
        assert_eq!(p.to_string(), "10.1.2.0/24");
        assert_eq!(p, "10.1.2.0/24".parse().unwrap());
        assert_eq!(p.last_ip().to_string(), "10.1.2.255");
        assert_eq!(p.size(), 256);
    }

    #[test]
    fn prefix_containment() {
        let p24: Prefix = "10.0.3.0/24".parse().unwrap();
        let p26: Prefix = "10.0.3.64/26".parse().unwrap();
        assert!(p24.contains_prefix(&p26));
        assert!(!p26.contains_prefix(&p24));
        assert!(p24.overlaps(&p26));
        let other: Prefix = "10.0.4.0/24".parse().unwrap();
        assert!(!p24.overlaps(&other));
        assert!(Prefix::DEFAULT.contains_prefix(&p24));
    }

    #[test]
    fn prefix_parent_children() {
        let p: Prefix = "10.0.2.0/23".parse().unwrap();
        let (l, r) = p.children().unwrap();
        assert_eq!(l.to_string(), "10.0.2.0/24");
        assert_eq!(r.to_string(), "10.0.3.0/24");
        assert_eq!(l.parent().unwrap(), p);
        assert_eq!(r.parent().unwrap(), p);
        assert!(Prefix::host(Ip::ZERO).children().is_none());
        assert!(Prefix::DEFAULT.parent().is_none());
    }

    #[test]
    fn default_route_size() {
        assert_eq!(Prefix::DEFAULT.size(), 1u64 << 32);
        assert!(Prefix::DEFAULT.contains(Ip::MAX));
    }

    #[test]
    fn range_to_prefixes_exact_cover() {
        let r = IpRange {
            start: "10.0.0.3".parse().unwrap(),
            end: "10.0.0.17".parse().unwrap(),
        };
        let ps = r.to_prefixes();
        // Cover must be exact and disjoint.
        let total: u64 = ps.iter().map(|p| p.size()).sum();
        assert_eq!(total, r.size());
        for p in &ps {
            assert!(r.contains(p.network()) && r.contains(p.last_ip()));
        }
        for (i, a) in ps.iter().enumerate() {
            for b in &ps[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
    }

    #[test]
    fn range_full_space() {
        assert_eq!(IpRange::FULL.to_prefixes(), vec![Prefix::DEFAULT]);
        assert_eq!(IpRange::FULL.size(), 1u64 << 32);
    }

    #[test]
    fn range_intersect() {
        let a = IpRange::from_prefix("10.0.0.0/24".parse().unwrap());
        let b = IpRange {
            start: "10.0.0.128".parse().unwrap(),
            end: "10.0.1.5".parse().unwrap(),
        };
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.start.to_string(), "10.0.0.128");
        assert_eq!(i.end.to_string(), "10.0.0.255");
        let c = IpRange::from_prefix("192.168.0.0/16".parse().unwrap());
        assert!(a.intersect(&c).is_none());
    }
}
