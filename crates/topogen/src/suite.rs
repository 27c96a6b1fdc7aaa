//! The 11-network benchmark suite (the synthetic stand-in for the
//! paper's Table 1), NET1, and the 92-node APT comparison network.

use crate::dc::{fat_tree, leaf_spine, paired_dcs};
use crate::enterprise::{enterprise, EnterpriseSpec};
use crate::wan::wan;
use crate::GeneratedNetwork;

/// NET1: the stand-in for the original paper's evaluation network —
/// an 85-node enterprise (OSPF + iBGP + border transit + ACLs), the
/// feature level the original Batfish supported.
pub fn net1() -> GeneratedNetwork {
    let mut n = enterprise(
        "NET1",
        &EnterpriseSpec {
            cores: 4,
            dists: 8,
            accesses: 70,
            borders: 3,
            firewalls: 0,
            flat_access_percent: 0,
            nat: true,
        },
    );
    n.kind = "enterprise (original-paper network)".into();
    n
}

/// The 92-node network used for the §6.2 APT comparison (the largest
/// network the APT authors studied had 92 nodes; theirs were sparse
/// campus/backbone topologies, so the stand-in is an enterprise rather
/// than a dense leaf–spine). NAT is off: Atomic Predicates does not
/// model packet transformations (the very limitation §4.2 discusses).
pub fn apt92() -> GeneratedNetwork {
    let mut n = enterprise(
        "APT92",
        &EnterpriseSpec {
            cores: 4,
            dists: 8,
            accesses: 77,
            borders: 3,
            firewalls: 0,
            flat_access_percent: 0,
            nat: false,
        },
    );
    n.kind = "enterprise (APT comparison)".into();
    n
}

/// One row of the suite.
pub struct SuiteEntry {
    /// Network id (NET1, N2…N11).
    pub id: &'static str,
    /// Generator.
    pub build: fn() -> GeneratedNetwork,
    /// Nominal size (nodes) for reporting.
    pub nominal_nodes: usize,
}

/// The full 11-network suite, smallest to largest. Node counts span the
/// paper's 75–2735 range.
pub fn suite() -> Vec<SuiteEntry> {
    vec![
        SuiteEntry { id: "N2", build: n2, nominal_nodes: 75 },
        SuiteEntry { id: "NET1", build: net1, nominal_nodes: 85 },
        SuiteEntry { id: "N3", build: n3, nominal_nodes: 120 },
        SuiteEntry { id: "N5", build: n5, nominal_nodes: 160 },
        SuiteEntry { id: "N4", build: n4, nominal_nodes: 250 },
        SuiteEntry { id: "N7", build: n7, nominal_nodes: 310 },
        SuiteEntry { id: "N6", build: n6, nominal_nodes: 500 },
        SuiteEntry { id: "N8", build: n8, nominal_nodes: 650 },
        SuiteEntry { id: "N9", build: n9, nominal_nodes: 1200 },
        SuiteEntry { id: "N10", build: n10, nominal_nodes: 2000 },
        SuiteEntry { id: "N11", build: n11, nominal_nodes: 2735 },
    ]
}

/// Looks a suite network up by id, case-insensitively. The error names
/// the known ids — it is the message every `--net ID` front end prints.
pub fn find(id: &str) -> Result<SuiteEntry, String> {
    let mut all = suite();
    match all.iter().position(|e| e.id.eq_ignore_ascii_case(id)) {
        Some(i) => Ok(all.swap_remove(i)),
        None => {
            let ids: Vec<&str> = all.iter().map(|e| e.id).collect();
            Err(format!("unknown network '{id}' (known: {})", ids.join(", ")))
        }
    }
}

/// N2: small DC, 75 nodes.
pub fn n2() -> GeneratedNetwork {
    leaf_spine("N2", 5, 70)
}

/// N3: campus, 120 nodes, mixed ios+flat dialects, with NAT at the edge.
pub fn n3() -> GeneratedNetwork {
    let mut n = enterprise(
        "N3",
        &EnterpriseSpec {
            cores: 4,
            dists: 10,
            accesses: 104,
            borders: 2,
            firewalls: 0,
            flat_access_percent: 40,
            nat: true,
        },
    );
    n.kind = "campus (ios+flat)".into();
    n
}

/// N4: paired DCs, 250 nodes.
pub fn n4() -> GeneratedNetwork {
    paired_dcs("N4", 4, 120)
}

/// N5: WAN backbone, 160 nodes, junos dialect.
pub fn n5() -> GeneratedNetwork {
    wan("N5", 20, 140)
}

/// N6: mid-size DC, 500 nodes (pod fat-tree).
pub fn n6() -> GeneratedNetwork {
    fat_tree("N6", 4, 8, 4, 58)
}

/// N7: enterprise with zone firewalls, 310 nodes, ios+junos.
pub fn n7() -> GeneratedNetwork {
    enterprise(
        "N7",
        &EnterpriseSpec {
            cores: 4,
            dists: 12,
            accesses: 282,
            borders: 4,
            firewalls: 8,
            flat_access_percent: 0,
            nat: true,
        },
    )
}

/// N8: large campus, 650 nodes.
pub fn n8() -> GeneratedNetwork {
    let mut n = enterprise(
        "N8",
        &EnterpriseSpec {
            cores: 6,
            dists: 24,
            accesses: 616,
            borders: 4,
            firewalls: 0,
            flat_access_percent: 25,
            nat: true,
        },
    );
    n.kind = "large campus".into();
    n
}

/// N9: large DC, ~1200 nodes.
pub fn n9() -> GeneratedNetwork {
    fat_tree("N9", 8, 8, 4, 145)
}

/// N10: mega DC, 2000 nodes.
pub fn n10() -> GeneratedNetwork {
    fat_tree("N10", 8, 24, 4, 79)
}

/// N11: the largest network (paper max: 2735 nodes).
pub fn n11() -> GeneratedNetwork {
    fat_tree("N11", 15, 40, 4, 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_sizes_match_nominal() {
        for entry in suite() {
            // Only build the small ones in unit tests; the harness builds
            // everything.
            if entry.nominal_nodes > 350 {
                continue;
            }
            let net = (entry.build)();
            assert_eq!(
                net.node_count(),
                entry.nominal_nodes,
                "{} node count",
                entry.id
            );
            assert!(net.config_lines() > net.node_count() * 5, "{}", entry.id);
        }
    }

    #[test]
    fn net1_is_85_nodes() {
        let n = net1();
        assert_eq!(n.node_count(), 85);
        let devices = n.parse();
        assert_eq!(devices.len(), 85);
    }

    #[test]
    fn apt92_is_92_nodes() {
        assert_eq!(apt92().node_count(), 92);
    }

    #[test]
    fn big_dc_sizes() {
        // Arithmetic-only checks (no parse) for the big ones.
        assert_eq!(8 + 8 * (4 + 145), n9().node_count());
        assert_eq!(8 + 24 * (4 + 79), n10().node_count());
        assert_eq!(15 + 40 * (4 + 64), n11().node_count());
    }
}
