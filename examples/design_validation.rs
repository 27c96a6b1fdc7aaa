//! Design validation (§5.3): use the analyzer as a *design tool*, before
//! any hardware exists.
//!
//! Two parts, mirroring the paper's use-cases:
//!
//! 1. **New design**: generate a leaf–spine fabric from intent, prove
//!    the design properties (full reachability, ECMP width, no loops)
//!    offline.
//! 2. **Large-scale refactoring**: compress an ACL by deleting its
//!    shadowed (dead) entries, then prove the old and new ACLs are
//!    *semantically identical* with BDDs before rollout.
//!
//! ```sh
//! cargo run --example design_validation
//! ```

use batnet::bdd::NodeId;
use batnet::config::parse_device;
use batnet::dataplane::acl::compile_acl;
use batnet::dataplane::{NodeKind, PacketVars, ReachAnalysis};
use batnet::lint::acl_shadowing;
use batnet::routing::FibAction;
use batnet::Snapshot;
use batnet_topogen::dc::leaf_spine;

fn main() {
    // --- Part 1: validate a brand-new fabric design ----------------------
    let net = leaf_spine("new-fabric", 4, 12);
    println!(
        "design: {} devices, {} config lines (generated from intent)",
        net.node_count(),
        net.config_lines()
    );
    let snapshot = Snapshot::from_configs(net.configs.clone()).with_env(net.env.clone());
    let mut analysis = snapshot.analyze();
    assert!(analysis.dp.convergence.converged);

    // Property 1: every leaf has an ECMP route (one path per spine) to
    // every other leaf's server subnet.
    let mut min_width = usize::MAX;
    for l in 0..12 {
        let leaf = analysis.dp.device(&format!("leaf{l}")).unwrap();
        for other in 0..12 {
            if other == l {
                continue;
            }
            let dst = format!("10.0.{other}.1").parse().unwrap();
            let entry = leaf.fib.lookup(dst).expect("route to every leaf");
            if let FibAction::Forward(hops) = &entry.action {
                min_width = min_width.min(hops.len());
            }
        }
    }
    println!("property: minimum ECMP width across leaf pairs = {min_width} (want 4)");
    assert_eq!(min_width, 4);

    // Property 2: from every interface, no packet only loops, and none is
    // delivered on one ECMP path and dropped on another.
    let starts = analysis
        .graph
        .nodes_where(|k| matches!(k, NodeKind::IfaceSrc(_, _)));
    let a = ReachAnalysis::new(&analysis.graph);
    let answers = a.multipath(&mut analysis.bdd, &analysis.vars, &starts);
    let looping = answers
        .iter()
        .filter(|m| m.only_loops != NodeId::FALSE)
        .count();
    let inconsistent = answers
        .iter()
        .filter(|m| m.inconsistent != NodeId::FALSE)
        .count();
    println!(
        "property: {} starts, {looping} with looping packets, {inconsistent} inconsistent (want 0, 0)",
        starts.len()
    );
    assert_eq!((looping, inconsistent), (0, 0));

    // Property 3: server traffic reaches every server sink.
    let r = a.forward_from_all_sources(&mut analysis.bdd, NodeId::TRUE);
    let sinks = analysis
        .graph
        .nodes_where(|k| matches!(k, NodeKind::DeliveredToSubnet(_, i) if i == "servers"));
    let reached = sinks.iter().filter(|&&s| r.at(s) != NodeId::FALSE).count();
    println!("property: {reached}/{} server sinks reachable", sinks.len());
    assert_eq!(reached, sinks.len());

    // --- Part 2: ACL refactoring ----------------------------------------
    // A grown ACL full of redundant entries (the paper cites compressing
    // large ACLs as a common refactoring).
    let before_text = "hostname fw\n\
        ip access-list extended EDGE\n \
        10 permit tcp 10.0.0.0 0.255.255.255 any eq 443\n \
        20 permit tcp 10.1.0.0 0.0.255.255 any eq 443\n \
        30 permit tcp 10.0.0.0 0.255.255.255 any eq 443\n \
        40 permit udp any any eq 53\n \
        50 permit udp 10.2.0.0 0.0.255.255 any eq 53\n \
        60 deny ip any any\n";
    let before = parse_device("fw", before_text).0;
    let dead = acl_shadowing(&before);
    println!("\nrefactoring: {} shadowed entries found:", dead.len());
    for f in &dead {
        println!("  {f}");
    }
    // The compressed ACL drops the dead lines.
    let after_text = "hostname fw\n\
        ip access-list extended EDGE\n \
        10 permit tcp 10.0.0.0 0.255.255.255 any eq 443\n \
        40 permit udp any any eq 53\n \
        60 deny ip any any\n";
    let after = parse_device("fw", after_text).0;

    // Prove equivalence symbolically: the permit sets must be the same
    // BDD node (canonicity makes this a pointer comparison).
    let (mut bdd, vars) = PacketVars::new(0);
    let a = compile_acl(&mut bdd, &vars, &before.acls["EDGE"]);
    let b = compile_acl(&mut bdd, &vars, &after.acls["EDGE"]);
    println!(
        "refactoring: {} lines -> {} lines, semantics identical = {}",
        before.acls["EDGE"].lines.len(),
        after.acls["EDGE"].lines.len(),
        a.permits == b.permits
    );
    assert_eq!(a.permits, b.permits, "refactor must preserve semantics");
    println!("\ndesign validation: PASS — the design is safe to build");
}
