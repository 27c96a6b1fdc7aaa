//! # batnet-bdd — a from-scratch binary decision diagram package
//!
//! The paper's Lesson 2: *"BDDs are great for data plane analysis"*. This
//! crate is the substrate under `batnet-dataplane`: reduced ordered BDDs
//! with hash-consing, an ITE/apply core with one fixed-size operation cache,
//! existential quantification, variable renaming, and the **fused transform
//! operation** the paper describes for NAT edges (§4.2.3: *"we implemented an
//! optimized BDD operation to execute these three steps simultaneously"* —
//! intersect with the rule, erase input variables, remap output variables).
//!
//! Design choices, in the spirit of the paper and of robust systems Rust:
//!
//! * **Arena, no garbage collection.** Analyses are snapshot-scoped: a
//!   manager lives for one analysis and is dropped whole. This removes
//!   reference counting from the hot path and makes node ids stable, which
//!   the identity-keyed operation cache exploits (*"we exploit canonicity to
//!   short-circuit full BDD traversals using identity-based operation
//!   caches"*) — and which lets that cache be lossy: whatever it forgets is
//!   recomputed out of nodes that are all still hash-consed.
//! * **No complement edges.** They complicate every operation for a ~2×
//!   size win that does not matter at our scale; simplicity wins.
//! * **Deterministic.** Node ids depend only on the order of `mk` calls,
//!   so a deterministic analysis produces identical diagrams run to run.
//!
//! ```
//! use batnet_bdd::Bdd;
//! let mut bdd = Bdd::new(8);
//! let x0 = bdd.var(0);
//! let x1 = bdd.var(1);
//! let f = bdd.and(x0, x1);
//! let g = bdd.or(x0, x1);
//! assert!(bdd.implies_true(f, g)); // x0∧x1 ⊆ x0∨x1
//! ```

mod manager;
mod ops;
mod sat;

pub use manager::{Bdd, BddStats, NodeId};
pub use ops::{Transform, VarMap};
pub use sat::Cube;
