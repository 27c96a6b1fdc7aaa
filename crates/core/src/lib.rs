//! # batnet — proactive network configuration analysis
//!
//! A from-scratch Rust reproduction of the evolved Batfish architecture
//! described in *"Lessons from the evolution of the Batfish configuration
//! analysis tool"* (SIGCOMM 2023). The pipeline:
//!
//! 1. **Parse** ([`batnet_config`]) — vendor config text → the
//!    vendor-independent model, with diagnostics instead of failures.
//! 2. **Simulate** ([`batnet_routing`]) — imperative, deterministic
//!    control-plane fixed point (colored Gauss–Seidel sweeps, logical
//!    clocks, pull-based RIB deltas, attribute interning) → RIBs + FIBs.
//! 3. **Verify** ([`batnet_dataplane`]) — BDD-based dataflow analysis
//!    over the forwarding graph: reachability, multipath consistency,
//!    loops, NAT, zones, waypoints.
//! 4. **Explain** ([`batnet_traceroute`], [`batnet_queries`]) — concrete
//!    annotated traces, scoped defaults, positive/negative examples.
//!
//! Plus the Lesson-5 configuration analyses ([`batnet_lint`]), the
//! original-architecture baselines for the paper's comparisons
//! ([`batnet_datalog`], [`batnet_baselines`]), and the §4.3 fidelity
//! framework ([`fidelity`]).
//!
//! ```
//! use batnet::Snapshot;
//!
//! let snapshot = Snapshot::from_configs(vec![
//!     ("r1".to_string(),
//!      "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n".to_string()),
//! ]);
//! let analysis = snapshot.analyze();
//! assert!(analysis.dp.convergence.converged);
//! ```

pub mod error;
pub mod fidelity;
pub mod quarantine;
pub mod snapshot;

pub use error::Error;
pub use fidelity::{differential_test, validate as validate_lab, Expectation, FidelityReport};
pub use quarantine::{Quarantine, QuarantineReason, QuarantineStage};
pub use snapshot::{load_dir, Analysis, DirLoad, Snapshot};

// The differential-analysis vocabulary (PR 5): `Snapshot::diff` returns
// these.
pub use batnet_diff::{DiffOptions, SnapshotDiff};

// Fault-tolerance vocabulary shared with the sub-crates.
pub use batnet_net::governor::{Exhaustion, Limit, Outcome, ResourceGovernor};

// Re-export the sub-crates under one roof.
pub use batnet_baselines as baselines;
pub use batnet_bdd as bdd;
pub use batnet_config as config;
pub use batnet_datalog as datalog;
pub use batnet_dataplane as dataplane;
pub use batnet_diff as diff;
pub use batnet_lint as lint;
pub use batnet_net as net;
pub use batnet_obs as obs;
pub use batnet_queries as queries;
pub use batnet_routing as routing;
pub use batnet_traceroute as traceroute;
