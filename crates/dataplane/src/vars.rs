//! Packet variable layout (§4.2.2).
//!
//! *"We order header fields based on how frequently they are constrained,
//! which leads to this order: Destination IP, Source IP, Destination
//! Port, Source Port, ICMP Code, ICMP Type, IP Protocol, and finally less
//! used fields, such as TCP Flags … Within a field, Batfish orders the
//! bits with the most significant bit first."*
//!
//! The four transformable fields (the 96 bits NAT can rewrite: both IPs
//! and both ports) carry an interleaved primed copy (§4.2.3: *"We
//! interleave the variables for input-output packet pairs since a
//! variable in the output packet tends to closely depend on the
//! corresponding variable of the input packet"*). Zone bits (4, reused
//! across firewalls — *"we have never needed more than four bits"*) are
//! appended, each with a primed partner because zone edges rewrite them.
//!
//! Waypoint bits (§4.2.3: a bit set on the way through a device) follow
//! the zone bits, primed partners included, although no query sets them:
//! the facade and the benchmark build `PacketVars::new(1)`, and keeping
//! the bits keeps that layout's variable count and order, so every BDD
//! over it is unchanged. Sources clear them ([`PacketVars::initial_bits`])
//! and projections drop them ([`PacketVars::project_five_tuple`]).

use batnet_bdd::{Bdd, Cube, NodeId, Transform, VarMap};
use batnet_net::{Flow, HeaderSpace, Ip, IpProtocol, IpRange, PortRange, Prefix, TcpFlags};

/// Reverse-application data for a transform: lets backward propagation
/// compute pre-images. For a relation `R(x, x')`, the pre-image of a set
/// `T` is `∃x'. R(x,x') ∧ T[x→x']`; `up` performs the `x→x'` renaming and
/// `primed_cube` is the quantifier.
#[derive(Clone, Copy, Debug)]
pub struct TransformRev {
    /// Renames each original variable onto its primed partner.
    pub up: VarMap,
    /// Cube of the primed variables.
    pub primed_cube: NodeId,
}

/// Number of transformable bits: dstIP(32) + srcIP(32) + dstPort(16) +
/// srcPort(16).
pub const TRANSFORM_BITS: u32 = 96;
/// Fixed (non-transformable) header bits: ICMP code, ICMP type,
/// protocol, TCP flags.
pub const FIXED_BITS: u32 = 32;
/// Zone bits (orig+primed pairs counted once).
pub const ZONE_BITS: u32 = 4;

/// A header field, for encoder dispatch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Field {
    /// Destination IPv4 address (32 bits, transformable).
    DstIp,
    /// Source IPv4 address (32 bits, transformable).
    SrcIp,
    /// Destination port (16 bits, transformable).
    DstPort,
    /// Source port (16 bits, transformable).
    SrcPort,
    /// ICMP code (8 bits).
    IcmpCode,
    /// ICMP type (8 bits).
    IcmpType,
    /// IP protocol (8 bits).
    Protocol,
    /// TCP flags (8 bits).
    TcpFlags,
}

impl Field {
    /// Field width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Field::DstIp | Field::SrcIp => 32,
            Field::DstPort | Field::SrcPort => 16,
            Field::IcmpCode | Field::IcmpType | Field::Protocol | Field::TcpFlags => 8,
        }
    }

    /// Offset within the transformable block, or `None` for fixed fields.
    fn transform_offset(self) -> Option<u32> {
        match self {
            Field::DstIp => Some(0),
            Field::SrcIp => Some(32),
            Field::DstPort => Some(64),
            Field::SrcPort => Some(80),
            _ => None,
        }
    }

    /// Offset within the fixed block, for fixed fields.
    fn fixed_offset(self) -> Option<u32> {
        match self {
            Field::IcmpCode => Some(0),
            Field::IcmpType => Some(8),
            Field::Protocol => Some(16),
            Field::TcpFlags => Some(24),
            _ => None,
        }
    }
}

/// The packet variable layout plus the registered transform handles.
pub struct PacketVars {
    /// Number of waypoint bit pairs.
    pub waypoint_count: u32,
    /// Total variables in the manager.
    pub num_vars: u32,
    /// Transform: apply a NAT relation over the 96 transformable bits.
    pub nat_transform: Transform,
    /// Transform: rewrite the 4 zone bits.
    pub zone_transform: Transform,
    /// Reverse data for [`PacketVars::nat_transform`].
    pub nat_rev: TransformRev,
    /// Reverse data for [`PacketVars::zone_transform`].
    pub zone_rev: TransformRev,
}

const FIXED_BASE: u32 = 2 * TRANSFORM_BITS; // 192
const ZONE_BASE: u32 = FIXED_BASE + FIXED_BITS; // 224
const WAYPOINT_BASE: u32 = ZONE_BASE + 2 * ZONE_BITS; // 232

impl PacketVars {
    /// Creates the layout and a BDD manager sized for it.
    pub fn new(waypoint_count: u32) -> (Bdd, PacketVars) {
        let num_vars = WAYPOINT_BASE + 2 * waypoint_count;
        let mut bdd = Bdd::new(num_vars);
        // NAT transform: quantify all original transformable bits, rename
        // each primed bit onto its original slot.
        let nat_inputs: Vec<u32> = (0..TRANSFORM_BITS).map(|k| 2 * k).collect();
        let nat_pairs: Vec<(u32, u32)> = (0..TRANSFORM_BITS).map(|k| (2 * k + 1, 2 * k)).collect();
        let nat_transform = bdd.register_transform(&nat_inputs, &nat_pairs);
        // Zone transform: same shape over the 4 zone pairs.
        let zone_inputs: Vec<u32> = (0..ZONE_BITS).map(|z| ZONE_BASE + 2 * z).collect();
        let zone_pairs: Vec<(u32, u32)> = (0..ZONE_BITS)
            .map(|z| (ZONE_BASE + 2 * z + 1, ZONE_BASE + 2 * z))
            .collect();
        let zone_transform = bdd.register_transform(&zone_inputs, &zone_pairs);
        // Reverse data (for backward propagation, §4.2.3's single-device
        // backward walk).
        let nat_up: Vec<(u32, u32)> = (0..TRANSFORM_BITS).map(|k| (2 * k, 2 * k + 1)).collect();
        let nat_primed: Vec<u32> = (0..TRANSFORM_BITS).map(|k| 2 * k + 1).collect();
        let nat_rev = TransformRev {
            up: bdd.register_map(&nat_up),
            primed_cube: bdd.cube_of_vars(&nat_primed),
        };
        let zone_up: Vec<(u32, u32)> = (0..ZONE_BITS)
            .map(|z| (ZONE_BASE + 2 * z, ZONE_BASE + 2 * z + 1))
            .collect();
        let zone_primed: Vec<u32> = (0..ZONE_BITS).map(|z| ZONE_BASE + 2 * z + 1).collect();
        let zone_rev = TransformRev {
            up: bdd.register_map(&zone_up),
            primed_cube: bdd.cube_of_vars(&zone_primed),
        };
        (
            bdd,
            PacketVars {
                waypoint_count,
                num_vars,
                nat_transform,
                zone_transform,
                nat_rev,
                zone_rev,
            },
        )
    }

    /// The pre-image of `set` under a transform's relation `rule`:
    /// the packets whose image under the relation intersects `set`.
    pub fn transform_pre(bdd: &mut Bdd, rev: TransformRev, rule: NodeId, set: NodeId) -> NodeId {
        let shifted = bdd.rename(set, rev.up);
        let conj = bdd.and(rule, shifted);
        bdd.exists(conj, rev.primed_cube)
    }

    /// The variable index of bit `i` (MSB-first) of `field`; primed
    /// selects the output copy for transformable fields.
    pub fn var_of(&self, field: Field, i: u32, primed: bool) -> u32 {
        debug_assert!(i < field.bits());
        if let Some(off) = field.transform_offset() {
            2 * (off + i) + u32::from(primed)
        } else {
            debug_assert!(!primed, "fixed fields have no primed copy");
            // Every non-transformable field has a fixed offset; stay
            // total regardless.
            FIXED_BASE + field.fixed_offset().unwrap_or(0) + i
        }
    }

    /// BDD for `field == value` (unprimed).
    pub fn field_value(&self, bdd: &mut Bdd, field: Field, value: u64) -> NodeId {
        self.field_cube(bdd, field, value, field.bits(), false)
    }

    /// BDD for `field' == value` (primed copy of a transformable field).
    pub fn field_value_primed(&self, bdd: &mut Bdd, field: Field, value: u64) -> NodeId {
        self.field_cube(bdd, field, value, field.bits(), true)
    }

    /// BDD for "the top `fixed` bits of `field` equal those of `value`".
    pub fn field_prefix(&self, bdd: &mut Bdd, field: Field, value: u64, fixed: u32) -> NodeId {
        self.field_cube(bdd, field, value, fixed, false)
    }

    /// The cube pinning the top `fixed` bits of `field` to those of
    /// `value`, built from the last constrained bit upwards: each bit is
    /// one node whose other branch is `FALSE`, so the whole cube costs
    /// `fixed` unique-table probes and never touches an operation cache.
    fn field_cube(&self, bdd: &mut Bdd, field: Field, value: u64, fixed: u32, primed: bool) -> NodeId {
        let bits = field.bits();
        debug_assert!(fixed <= bits);
        let mut acc = NodeId::TRUE;
        for i in (0..fixed).rev() {
            let v = self.var_of(field, i, primed);
            acc = if (value >> (bits - 1 - i)) & 1 == 1 {
                bdd.node(v, NodeId::FALSE, acc)
            } else {
                bdd.node(v, acc, NodeId::FALSE)
            };
        }
        acc
    }

    /// BDD for an IP prefix constraint on `DstIp`/`SrcIp`.
    pub fn ip_prefix(&self, bdd: &mut Bdd, field: Field, p: Prefix) -> NodeId {
        self.field_prefix(bdd, field, p.network().0 as u64, p.len() as u32)
    }

    /// BDD for an inclusive IP range (decomposed into covering prefixes).
    pub fn ip_range(&self, bdd: &mut Bdd, field: Field, r: IpRange) -> NodeId {
        let mut acc = NodeId::FALSE;
        for p in r.to_prefixes() {
            let f = self.ip_prefix(bdd, field, p);
            acc = bdd.or(acc, f);
        }
        acc
    }

    /// BDD for an inclusive port range (decomposed into masked blocks).
    pub fn port_range(&self, bdd: &mut Bdd, field: Field, r: PortRange) -> NodeId {
        let mut acc = NodeId::FALSE;
        for (value, len) in r.to_masked_blocks() {
            let f = self.field_prefix(bdd, field, value as u64, len as u32);
            acc = bdd.or(acc, f);
        }
        acc
    }

    /// BDD for "this TCP flag bit is set". `flag_index` follows wire
    /// order (0 = FIN … 5 = URG); the flags byte is stored MSB-first so
    /// bit index 7−flag.
    pub fn tcp_flag(&self, bdd: &mut Bdd, flag_index: u32) -> NodeId {
        let v = self.var_of(Field::TcpFlags, 7 - flag_index, false);
        bdd.var(v)
    }

    /// Compiles a [`HeaderSpace`] to a BDD — the symbolic counterpart of
    /// `HeaderSpace::matches`, kept deliberately separate from it
    /// (differential testing depends on the two being independent).
    pub fn headerspace(&self, bdd: &mut Bdd, hs: &HeaderSpace) -> NodeId {
        let mut acc = NodeId::TRUE;
        let or_ranges = |bdd: &mut Bdd, this: &Self, field: Field, ranges: &[IpRange]| {
            let mut set = NodeId::FALSE;
            for r in ranges {
                let f = this.ip_range(bdd, field, *r);
                set = bdd.or(set, f);
            }
            set
        };
        if !hs.src_ips.is_empty() {
            let s = or_ranges(bdd, self, Field::SrcIp, &hs.src_ips);
            acc = bdd.and(acc, s);
        }
        if !hs.dst_ips.is_empty() {
            let s = or_ranges(bdd, self, Field::DstIp, &hs.dst_ips);
            acc = bdd.and(acc, s);
        }
        if !hs.protocols.is_empty() {
            let mut set = NodeId::FALSE;
            for p in &hs.protocols {
                let f = self.field_value(bdd, Field::Protocol, p.number() as u64);
                set = bdd.or(set, f);
            }
            acc = bdd.and(acc, set);
        }
        let port_ranges = |bdd: &mut Bdd, this: &Self, field: Field, ranges: &[PortRange]| {
            let mut set = NodeId::FALSE;
            for r in ranges {
                let f = this.port_range(bdd, field, *r);
                set = bdd.or(set, f);
            }
            set
        };
        // Port constraints imply a port-carrying protocol (mirrors the
        // concrete semantics in HeaderSpace::matches).
        if !hs.src_ports.is_empty() || !hs.dst_ports.is_empty() {
            let with_ports = self.ports_protocols(bdd);
            acc = bdd.and(acc, with_ports);
        }
        if !hs.src_ports.is_empty() {
            let s = port_ranges(bdd, self, Field::SrcPort, &hs.src_ports);
            acc = bdd.and(acc, s);
        }
        if !hs.dst_ports.is_empty() {
            let s = port_ranges(bdd, self, Field::DstPort, &hs.dst_ports);
            acc = bdd.and(acc, s);
        }
        // ICMP constraints imply ICMP.
        if !hs.icmp_types.is_empty() || !hs.icmp_codes.is_empty() {
            let icmp = self.field_value(bdd, Field::Protocol, 1);
            acc = bdd.and(acc, icmp);
        }
        if !hs.icmp_types.is_empty() {
            let mut set = NodeId::FALSE;
            for &t in &hs.icmp_types {
                let f = self.field_value(bdd, Field::IcmpType, t as u64);
                set = bdd.or(set, f);
            }
            acc = bdd.and(acc, set);
        }
        if !hs.icmp_codes.is_empty() {
            let mut set = NodeId::FALSE;
            for &c in &hs.icmp_codes {
                let f = self.field_value(bdd, Field::IcmpCode, c as u64);
                set = bdd.or(set, f);
            }
            acc = bdd.and(acc, set);
        }
        // TCP flag constraints imply TCP.
        if hs.tcp_flags_set.is_some() || hs.tcp_flags_unset.is_some() || hs.established {
            let tcp = self.field_value(bdd, Field::Protocol, 6);
            acc = bdd.and(acc, tcp);
        }
        if let Some(set) = hs.tcp_flags_set {
            for i in 0..8 {
                if set.bit(i) {
                    let f = self.tcp_flag(bdd, i as u32);
                    acc = bdd.and(acc, f);
                }
            }
        }
        if let Some(unset) = hs.tcp_flags_unset {
            for i in 0..8 {
                if unset.bit(i) {
                    let f = self.tcp_flag(bdd, i as u32);
                    let nf = bdd.not(f);
                    acc = bdd.and(acc, nf);
                }
            }
        }
        if hs.established {
            // ACK or RST.
            let ack = self.tcp_flag(bdd, 4);
            let rst = self.tcp_flag(bdd, 2);
            let est = bdd.or(ack, rst);
            acc = bdd.and(acc, est);
        }
        acc
    }

    /// The set of packets whose protocol carries ports (TCP ∪ UDP).
    pub fn ports_protocols(&self, bdd: &mut Bdd) -> NodeId {
        let tcp = self.field_value(bdd, Field::Protocol, 6);
        let udp = self.field_value(bdd, Field::Protocol, 17);
        bdd.or(tcp, udp)
    }

    /// The singleton set for a concrete flow (zone/waypoint bits free).
    pub fn flow(&self, bdd: &mut Bdd, f: &Flow) -> NodeId {
        let mut acc = self.field_value(bdd, Field::DstIp, f.dst_ip.0 as u64);
        let s = self.field_value(bdd, Field::SrcIp, f.src_ip.0 as u64);
        acc = bdd.and(acc, s);
        let p = self.field_value(bdd, Field::Protocol, f.protocol.number() as u64);
        acc = bdd.and(acc, p);
        let dp = self.field_value(bdd, Field::DstPort, f.dst_port as u64);
        acc = bdd.and(acc, dp);
        let sp = self.field_value(bdd, Field::SrcPort, f.src_port as u64);
        acc = bdd.and(acc, sp);
        let it = self.field_value(bdd, Field::IcmpType, f.icmp_type as u64);
        acc = bdd.and(acc, it);
        let ic = self.field_value(bdd, Field::IcmpCode, f.icmp_code as u64);
        acc = bdd.and(acc, ic);
        let fl = self.field_value(bdd, Field::TcpFlags, f.tcp_flags.0 as u64);
        bdd.and(acc, fl)
    }

    /// Reads a concrete flow out of a satisfying cube; don't-care bits
    /// resolve to 0, and the §4.4.3 preference for common protocols is
    /// applied by the caller via preference BDDs before picking.
    pub fn cube_to_flow(&self, cube: &Cube) -> Flow {
        let read = |field: Field| -> u64 {
            let bits = field.bits();
            let mut v = 0u64;
            for i in 0..bits {
                v <<= 1;
                if cube.get(self.var_of(field, i, false)) == Some(true) {
                    v |= 1;
                }
            }
            v
        };
        Flow {
            dst_ip: Ip(read(Field::DstIp) as u32),
            src_ip: Ip(read(Field::SrcIp) as u32),
            dst_port: read(Field::DstPort) as u16,
            src_port: read(Field::SrcPort) as u16,
            icmp_type: read(Field::IcmpType) as u8,
            icmp_code: read(Field::IcmpCode) as u8,
            protocol: IpProtocol::from_number(read(Field::Protocol) as u8),
            tcp_flags: TcpFlags(read(Field::TcpFlags) as u8),
        }
    }

    /// Equality relation `field' == field` for one transformable field —
    /// the identity building block of NAT rules.
    pub fn field_identity(&self, bdd: &mut Bdd, field: Field) -> NodeId {
        let mut acc = NodeId::TRUE;
        for i in (0..field.bits()).rev() {
            let o = bdd.var(self.var_of(field, i, false));
            let p = bdd.var(self.var_of(field, i, true));
            let x = bdd.xor(o, p);
            let eq = bdd.not(x);
            acc = bdd.and(acc, eq);
        }
        acc
    }

    /// The zone-bits value test `zone == z` (unprimed).
    pub fn zone_value(&self, bdd: &mut Bdd, z: u32) -> NodeId {
        debug_assert!(z < (1 << ZONE_BITS));
        let mut acc = NodeId::TRUE;
        for b in (0..ZONE_BITS).rev() {
            let bit = (z >> (ZONE_BITS - 1 - b)) & 1 == 1;
            let lit = bdd.literal(ZONE_BASE + 2 * b, bit);
            acc = bdd.and(lit, acc);
        }
        acc
    }

    /// The zone-rewrite rule `zone' == z` (combine with
    /// [`PacketVars::zone_transform`]).
    pub fn zone_set_rule(&self, bdd: &mut Bdd, z: u32) -> NodeId {
        let mut acc = NodeId::TRUE;
        for b in (0..ZONE_BITS).rev() {
            let bit = (z >> (ZONE_BITS - 1 - b)) & 1 == 1;
            let lit = bdd.literal(ZONE_BASE + 2 * b + 1, bit);
            acc = bdd.and(lit, acc);
        }
        acc
    }

    /// The unprimed variable of waypoint bit `w`.
    pub fn waypoint_var(&self, w: u32) -> u32 {
        debug_assert!(w < self.waypoint_count);
        WAYPOINT_BASE + 2 * w
    }

    /// Projects a packet set onto the 5-tuple (both IPs, both ports,
    /// protocol) by existentially quantifying TCP flags, ICMP fields, and
    /// the zone/waypoint bookkeeping bits.
    pub fn project_five_tuple(&self, bdd: &mut Bdd, set: NodeId) -> NodeId {
        let mut vars_to_drop: Vec<u32> = Vec::new();
        for field in [Field::IcmpCode, Field::IcmpType, Field::TcpFlags] {
            for i in 0..field.bits() {
                vars_to_drop.push(self.var_of(field, i, false));
            }
        }
        for z in 0..ZONE_BITS {
            vars_to_drop.push(ZONE_BASE + 2 * z);
        }
        for w in 0..self.waypoint_count {
            vars_to_drop.push(self.waypoint_var(w));
        }
        let cube = bdd.cube_of_vars(&vars_to_drop);
        bdd.exists(set, cube)
    }

    /// The canonical state of the bookkeeping bits at a packet source:
    /// zone 0, all waypoint bits clear. Applied on source-injection edges
    /// so reach sets stay canonical.
    pub fn initial_bits(&self, bdd: &mut Bdd) -> NodeId {
        let mut acc = self.zone_value(bdd, 0);
        for w in 0..self.waypoint_count {
            let v = bdd.nvar(self.waypoint_var(w));
            acc = bdd.and(acc, v);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Bdd, PacketVars) {
        PacketVars::new(2)
    }

    fn eval_flow(bdd: &Bdd, vars: &PacketVars, set: NodeId, f: &Flow) -> bool {
        // Build the full assignment from the flow (zone/waypoints 0).
        let mut a = vec![false; vars.num_vars as usize];
        let write = |a: &mut Vec<bool>, field: Field, value: u64| {
            let bits = field.bits();
            for i in 0..bits {
                a[vars.var_of(field, i, false) as usize] = (value >> (bits - 1 - i)) & 1 == 1;
            }
        };
        write(&mut a, Field::DstIp, f.dst_ip.0 as u64);
        write(&mut a, Field::SrcIp, f.src_ip.0 as u64);
        write(&mut a, Field::DstPort, f.dst_port as u64);
        write(&mut a, Field::SrcPort, f.src_port as u64);
        write(&mut a, Field::IcmpCode, f.icmp_code as u64);
        write(&mut a, Field::IcmpType, f.icmp_type as u64);
        write(&mut a, Field::Protocol, f.protocol.number() as u64);
        write(&mut a, Field::TcpFlags, f.tcp_flags.0 as u64);
        bdd.eval(set, &a)
    }

    #[test]
    fn layout_is_disjoint_and_in_range() {
        let (_, vars) = setup();
        let mut seen = std::collections::BTreeSet::new();
        for field in [
            Field::DstIp,
            Field::SrcIp,
            Field::DstPort,
            Field::SrcPort,
            Field::IcmpCode,
            Field::IcmpType,
            Field::Protocol,
            Field::TcpFlags,
        ] {
            for i in 0..field.bits() {
                let v = vars.var_of(field, i, false);
                assert!(seen.insert(v), "collision at {field:?}[{i}]");
                assert!(v < vars.num_vars);
                if field.transform_offset().is_some() {
                    let p = vars.var_of(field, i, true);
                    assert!(seen.insert(p), "primed collision at {field:?}[{i}]");
                }
            }
        }
        // Paper's frequency order: dst IP vars come first.
        assert_eq!(vars.var_of(Field::DstIp, 0, false), 0);
        assert!(vars.var_of(Field::SrcIp, 0, false) > vars.var_of(Field::DstIp, 31, false));
        assert!(vars.var_of(Field::TcpFlags, 0, false) > vars.var_of(Field::Protocol, 0, false));
        // Interleaving: primed partner is adjacent.
        assert_eq!(
            vars.var_of(Field::DstIp, 7, true),
            vars.var_of(Field::DstIp, 7, false) + 1
        );
    }

    /// The bottom-up cubes are the same nodes as the and-of-literals
    /// construction they replaced: every field, both copies, every
    /// prefix length.
    #[test]
    fn field_cubes_equal_and_of_literals() {
        let (mut bdd, vars) = setup();
        let mut rng = batnet_net::Rng::new(0xC0BE);
        for field in [
            Field::DstIp,
            Field::SrcIp,
            Field::DstPort,
            Field::SrcPort,
            Field::IcmpCode,
            Field::IcmpType,
            Field::Protocol,
            Field::TcpFlags,
        ] {
            let bits = field.bits();
            for primed in [false, true] {
                if primed && field.transform_offset().is_none() {
                    continue;
                }
                for fixed in 0..=bits {
                    let value = rng.next_u64() & ((1 << bits) - 1);
                    let mut expect = NodeId::TRUE;
                    for i in (0..fixed).rev() {
                        let bit = (value >> (bits - 1 - i)) & 1 == 1;
                        let lit = bdd.literal(vars.var_of(field, i, primed), bit);
                        expect = bdd.and(lit, expect);
                    }
                    let cube = vars.field_cube(&mut bdd, field, value, fixed, primed);
                    assert_eq!(cube, expect, "{field:?} primed={primed} /{fixed}");
                    if !primed {
                        assert_eq!(vars.field_prefix(&mut bdd, field, value, fixed), expect);
                    }
                    if fixed == bits {
                        let whole = if primed {
                            vars.field_value_primed(&mut bdd, field, value)
                        } else {
                            vars.field_value(&mut bdd, field, value)
                        };
                        assert_eq!(whole, expect);
                    }
                }
            }
        }
    }

    #[test]
    fn prefix_constraint_matches_flows() {
        let (mut bdd, vars) = setup();
        let p: Prefix = "10.0.3.0/24".parse().unwrap();
        let set = vars.ip_prefix(&mut bdd, Field::DstIp, p);
        let inside = Flow::tcp("1.1.1.1".parse().unwrap(), 1, "10.0.3.77".parse().unwrap(), 80);
        let outside = Flow::tcp("1.1.1.1".parse().unwrap(), 1, "10.0.4.1".parse().unwrap(), 80);
        assert!(eval_flow(&bdd, &vars, set, &inside));
        assert!(!eval_flow(&bdd, &vars, set, &outside));
    }

    #[test]
    fn headerspace_bdd_agrees_with_concrete_matcher() {
        let (mut bdd, vars) = setup();
        // A representative multi-field space.
        let hs = HeaderSpace {
            src_ips: vec![IpRange::from_prefix("10.1.0.0/16".parse().unwrap())],
            dst_ips: vec![IpRange::from_prefix("10.2.0.0/24".parse().unwrap())],
            protocols: vec![IpProtocol::Tcp],
            dst_ports: vec![PortRange::new(80, 90)],
            established: true,
            ..HeaderSpace::default()
        };
        let set = vars.headerspace(&mut bdd, &hs);
        let mk = |src: &str, dst: &str, dport: u16, flags: TcpFlags| {
            let mut f = Flow::tcp(src.parse().unwrap(), 40000, dst.parse().unwrap(), dport);
            f.tcp_flags = flags;
            f
        };
        let cases = vec![
            mk("10.1.5.5", "10.2.0.9", 85, TcpFlags::ACK),
            mk("10.1.5.5", "10.2.0.9", 85, TcpFlags::SYN), // not established
            mk("10.1.5.5", "10.2.0.9", 91, TcpFlags::ACK), // port out of range
            mk("10.9.5.5", "10.2.0.9", 85, TcpFlags::ACK), // src outside
            mk("10.1.5.5", "10.3.0.9", 85, TcpFlags::ACK), // dst outside
        ];
        for f in cases {
            assert_eq!(
                eval_flow(&bdd, &vars, set, &f),
                hs.matches(&f),
                "disagreement on {f}"
            );
        }
        // Port constraints exclude ICMP entirely.
        let icmp = Flow::icmp_echo("10.1.5.5".parse().unwrap(), "10.2.0.9".parse().unwrap());
        assert_eq!(eval_flow(&bdd, &vars, set, &icmp), hs.matches(&icmp));
    }

    #[test]
    fn flow_roundtrip_through_cube() {
        let (mut bdd, vars) = setup();
        let f = Flow::tcp("10.1.2.3".parse().unwrap(), 49152, "10.9.8.7".parse().unwrap(), 443);
        let set = vars.flow(&mut bdd, &f);
        let cube = bdd.pick_cube(set).expect("singleton non-empty");
        let back = vars.cube_to_flow(&cube);
        assert_eq!(back, f);
    }

    #[test]
    fn nat_transform_rewrites_dst_ip() {
        let (mut bdd, vars) = setup();
        // Rule: dst' = 10.0.5.5, everything else identity.
        let mut rule = vars.field_value_primed(&mut bdd, Field::DstIp, u32::from_be_bytes([10, 0, 5, 5]) as u64);
        for f in [Field::SrcIp, Field::DstPort, Field::SrcPort] {
            let id = vars.field_identity(&mut bdd, f);
            rule = bdd.and(rule, id);
        }
        let input = Flow::tcp("1.2.3.4".parse().unwrap(), 1000, "203.0.113.10".parse().unwrap(), 80);
        let set = vars.flow(&mut bdd, &input);
        let out = bdd.transform(set, rule, vars.nat_transform);
        let mut expect = input;
        expect.dst_ip = "10.0.5.5".parse().unwrap();
        assert!(eval_flow(&bdd, &vars, out, &expect));
        assert!(!eval_flow(&bdd, &vars, out, &input), "original dst gone");
        // Fixed fields (protocol) survive untouched.
        let mut wrong_proto = expect;
        wrong_proto.protocol = IpProtocol::Udp;
        assert!(!eval_flow(&bdd, &vars, out, &wrong_proto));
    }

    #[test]
    fn zone_bits_set_and_test() {
        let (mut bdd, vars) = setup();
        let any = NodeId::TRUE;
        let rule = vars.zone_set_rule(&mut bdd, 3);
        let tagged = bdd.transform(any, rule, vars.zone_transform);
        let z3 = vars.zone_value(&mut bdd, 3);
        let z1 = vars.zone_value(&mut bdd, 1);
        assert_eq!(bdd.and(tagged, z3), tagged, "all tagged packets in zone 3");
        assert_eq!(bdd.and(tagged, z1), NodeId::FALSE);
    }

    #[test]
    fn transform_pre_inverts_forward_transform() {
        let (mut bdd, vars) = setup();
        // Rule: dst' = constant, rest identity.
        let target: Ip = "10.0.5.5".parse().unwrap();
        let mut rule = vars.field_value_primed(&mut bdd, Field::DstIp, target.0 as u64);
        for f in [Field::SrcIp, Field::DstPort, Field::SrcPort] {
            let id = vars.field_identity(&mut bdd, f);
            rule = bdd.and(rule, id);
        }
        // Backward: which packets end up at dst == 10.0.5.5, port 80?
        let port80 = vars.field_value(&mut bdd, Field::DstPort, 80);
        let dst = vars.field_value(&mut bdd, Field::DstIp, target.0 as u64);
        let t = bdd.and(port80, dst);
        let pre = PacketVars::transform_pre(&mut bdd, vars.nat_rev, rule, t);
        // Any original destination qualifies (it gets rewritten), but the
        // port (identity) must be 80 pre-image too.
        let f_ok = Flow::tcp("1.1.1.1".parse().unwrap(), 9, "9.9.9.9".parse().unwrap(), 80);
        let f_bad = Flow::tcp("1.1.1.1".parse().unwrap(), 9, "9.9.9.9".parse().unwrap(), 81);
        let b_ok = vars.flow(&mut bdd, &f_ok);
        let b_bad = vars.flow(&mut bdd, &f_bad);
        assert_ne!(bdd.and(pre, b_ok), NodeId::FALSE);
        assert_eq!(bdd.and(pre, b_bad), NodeId::FALSE);
        // Consistency with the forward direction: forward(pre) ⊆ t.
        let fwd = bdd.transform(pre, rule, vars.nat_transform);
        assert!(bdd.implies_true(fwd, t));
    }

    #[test]
    fn initial_bits_pin_bookkeeping_vars() {
        let (mut bdd, vars) = setup();
        let init = vars.initial_bits(&mut bdd);
        let z0 = vars.zone_value(&mut bdd, 0);
        assert!(bdd.implies_true(init, z0));
        let w0 = bdd.var(vars.waypoint_var(0));
        assert_eq!(bdd.and(init, w0), NodeId::FALSE);
    }

    #[test]
    fn additional_vars_budget_matches_paper() {
        // The paper: real networks needed only 0–6 variables beyond the
        // header encoding. Our fixed overhead: 4 zone bits (+primed) and
        // per-waypoint pairs.
        let (_, v0) = PacketVars::new(0);
        let (_, v2) = PacketVars::new(2);
        assert_eq!(v2.num_vars - v0.num_vars, 4, "2 waypoints cost 4 vars");
    }
}
