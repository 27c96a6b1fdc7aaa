//! NAT rules in the VI model.
//!
//! The general device pipeline (§7.2 of the paper) has distinct source-NAT
//! and destination-NAT steps whose placement relative to routing and
//! filtering varies by vendor. The VI model keeps rules in one ordered
//! list; the pipeline decides where each kind fires (dest-NAT before the
//! routing lookup, source-NAT after, matching the most common vendor
//! arrangement, with pre/post filter semantics noted on the pipeline).

use batnet_net::{Flow, HeaderSpace, Ip, IpRange};

/// Which header a rule rewrites.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NatKind {
    /// Rewrite the source address (and optionally source port) — applied on
    /// egress, after the routing lookup.
    Source,
    /// Rewrite the destination address (and optionally destination port) —
    /// applied on ingress, before the routing lookup.
    Destination,
}

/// One NAT rule. Rules are evaluated in configuration order; the first
/// match fires and rewriting stops (per-kind).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NatRule {
    /// Source or destination NAT.
    pub kind: NatKind,
    /// Restrict the rule to packets leaving (source NAT) or entering
    /// (destination NAT) this interface; `None` = any interface.
    pub interface: Option<String>,
    /// Packets the rule applies to.
    pub match_space: HeaderSpace,
    /// Translated address pool. A single-address pool is a classic
    /// static/interface NAT; wider pools model dynamic PAT deterministically
    /// by index-mapping (see [`NatRule::translate`]).
    pub pool: IpRange,
    /// Optional port rewrite: when set, the translated port.
    pub port: Option<u16>,
    /// Original configuration text for annotation.
    pub text: String,
    /// The ACL an IOS `ip nat source list` rule was expanded from.
    pub acl: Option<String>,
}

impl NatRule {
    /// Does the rule match this flow (header component only — the caller
    /// checks the interface restriction)?
    pub fn matches(&self, flow: &Flow) -> bool {
        self.match_space.matches(flow)
    }

    /// The concrete translation the rule applies to `flow`.
    ///
    /// Pool selection is deterministic: the pre-NAT address is index-mapped
    /// into the pool (`addr mod pool_size`). Real PAT devices pick
    /// dynamically, but any *specific* choice is a sound member of the
    /// symbolic relation the BDD engine uses, and determinism keeps the
    /// differential tests meaningful.
    pub fn translate(&self, flow: &Flow) -> Flow {
        let mut out = *flow;
        match self.kind {
            NatKind::Source => {
                out.src_ip = self.pick_pool_ip(flow.src_ip);
                if let Some(p) = self.port {
                    if out.protocol.has_ports() {
                        out.src_port = p;
                    }
                }
            }
            NatKind::Destination => {
                out.dst_ip = self.pick_pool_ip(flow.dst_ip);
                if let Some(p) = self.port {
                    if out.protocol.has_ports() {
                        out.dst_port = p;
                    }
                }
            }
        }
        out
    }

    fn pick_pool_ip(&self, original: Ip) -> Ip {
        let size = self.pool.size();
        let offset = (original.0 as u64) % size;
        Ip((self.pool.start.0 as u64 + offset) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_net::Prefix;

    fn ip(s: &str) -> Ip {
        s.parse().unwrap()
    }

    #[test]
    fn static_source_nat() {
        let rule = NatRule {
            kind: NatKind::Source,
            interface: Some("e1".into()),
            match_space: HeaderSpace::any().src_prefix("10.0.0.0/8".parse::<Prefix>().unwrap()),
            pool: IpRange::single(ip("203.0.113.1")),
            port: None,
            text: "nat source 10/8 -> 203.0.113.1".into(),
            acl: None,
        };
        let f = Flow::tcp(ip("10.1.2.3"), 40000, ip("8.8.8.8"), 443);
        assert!(rule.matches(&f));
        let t = rule.translate(&f);
        assert_eq!(t.src_ip, ip("203.0.113.1"));
        assert_eq!(t.dst_ip, f.dst_ip, "destination untouched by source NAT");
        assert_eq!(t.src_port, 40000);
    }

    #[test]
    fn dest_nat_with_port() {
        let rule = NatRule {
            kind: NatKind::Destination,
            interface: None,
            match_space: HeaderSpace::any().dst_prefix(Prefix::host(ip("203.0.113.10"))).dst_port(80),
            pool: IpRange::single(ip("10.0.5.5")),
            port: Some(8080),
            text: "dnat vip".into(),
            acl: None,
        };
        let f = Flow::tcp(ip("1.2.3.4"), 5555, ip("203.0.113.10"), 80);
        assert!(rule.matches(&f));
        let t = rule.translate(&f);
        assert_eq!(t.dst_ip, ip("10.0.5.5"));
        assert_eq!(t.dst_port, 8080);
        assert_eq!(t.src_ip, f.src_ip);
        // Non-matching port: rule must not match.
        let g = Flow::tcp(ip("1.2.3.4"), 5555, ip("203.0.113.10"), 443);
        assert!(!rule.matches(&g));
    }

    #[test]
    fn pool_mapping_is_deterministic_and_in_pool() {
        let rule = NatRule {
            kind: NatKind::Source,
            interface: None,
            match_space: HeaderSpace::any(),
            pool: IpRange {
                start: ip("203.0.113.0"),
                end: ip("203.0.113.7"),
            },
            port: None,
            text: "pat pool".into(),
            acl: None,
        };
        for host in 0..32u32 {
            let f = Flow::udp(Ip(0x0a000000 + host), 1000, ip("8.8.8.8"), 53);
            let t1 = rule.translate(&f);
            let t2 = rule.translate(&f);
            assert_eq!(t1, t2, "deterministic");
            assert!(rule.pool.contains(t1.src_ip), "stays in pool");
        }
    }
}
