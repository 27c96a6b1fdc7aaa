//! Resource governance: deadlines, iteration budgets, and node ceilings.
//!
//! A production analyzer must degrade gracefully not just on malformed
//! *input* (Lesson 3) but on pathological *computations*: BGP gadgets that
//! never converge, BDD blowups, fixed points that outlive their usefulness.
//! The [`ResourceGovernor`] is the single mechanism every stage consults:
//! the routing engine checks it between sweeps, and reachability checks it
//! between edge relaxations, polling the node ceiling against the BDD
//! arena it grows. It is handed to each call, never installed into a BDD
//! manager. Forwarding-graph construction is not governed: an upload's
//! governor bounds simulation, and a query's bounds its fixed point. When
//! any limit trips, the stage stops where it is and the pipeline reports
//! an [`Outcome::Partial`] — what was completed, what was abandoned, and
//! exactly which limit was hit — instead of hanging, OOMing, or aborting.
//!
//! The governor is shared (cheap `Clone`, internally an [`Arc`]) so one
//! budget can span a whole call: iterations consumed by a diff's
//! simulations count against the same budget its later layers check.

use batnet_obs::clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which limit a stage ran into.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Limit {
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured budget.
        budget_ms: u64,
    },
    /// The iteration budget (sweeps, relaxations, pulls) ran out.
    Iterations {
        /// The configured budget.
        budget: u64,
    },
    /// The BDD node arena crossed its ceiling.
    BddNodes {
        /// The configured ceiling.
        ceiling: usize,
        /// Arena size when the ceiling tripped.
        reached: usize,
    },
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Limit::Deadline { budget_ms } => write!(f, "deadline ({budget_ms} ms)"),
            Limit::Iterations { budget } => write!(f, "iteration budget ({budget})"),
            Limit::BddNodes { ceiling, reached } => {
                write!(f, "BDD node ceiling ({reached} nodes ≥ {ceiling})")
            }
        }
    }
}

/// A budget exhaustion: which limit tripped and in which pipeline stage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Exhaustion {
    /// The stage that observed the exhaustion (e.g. `"bgp-fixed-point"`,
    /// `"reach-forward"`, `"bdd"`).
    pub stage: String,
    /// The limit that tripped.
    pub limit: Limit,
}

impl std::fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} exhausted in stage {}", self.limit, self.stage)
    }
}

impl std::error::Error for Exhaustion {}

impl Exhaustion {
    /// This trip as run-report partial accounting, with the identifiers
    /// of the work it abandoned.
    pub fn outcome(&self, abandoned: &[String]) -> batnet_obs::report::PartialOutcome {
        batnet_obs::report::PartialOutcome {
            stage: self.stage.clone(),
            limit: self.limit.to_string(),
            abandoned: abandoned.to_vec(),
        }
    }
}

struct Inner {
    /// Absolute deadline, if any.
    deadline: Option<Instant>,
    /// The deadline's original budget (for reporting).
    deadline_budget_ms: u64,
    /// Iteration budget, if any.
    iteration_budget: Option<u64>,
    /// Iterations consumed so far (shared across stages and threads).
    iterations_used: AtomicU64,
    /// BDD node-count ceiling, if any.
    node_ceiling: Option<usize>,
}

/// Shared resource budget for one analysis. See the module docs.
#[derive(Clone)]
pub struct ResourceGovernor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ResourceGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceGovernor")
            .field("deadline", &self.inner.deadline)
            .field("iteration_budget", &self.inner.iteration_budget)
            .field(
                "iterations_used",
                &self.inner.iterations_used.load(Ordering::Relaxed),
            )
            .field("node_ceiling", &self.inner.node_ceiling)
            .finish()
    }
}

impl Default for ResourceGovernor {
    fn default() -> Self {
        ResourceGovernor::unlimited()
    }
}

impl ResourceGovernor {
    fn build(
        deadline: Option<Instant>,
        deadline_budget_ms: u64,
        iteration_budget: Option<u64>,
        node_ceiling: Option<usize>,
    ) -> ResourceGovernor {
        ResourceGovernor {
            inner: Arc::new(Inner {
                deadline,
                deadline_budget_ms,
                iteration_budget,
                iterations_used: AtomicU64::new(0),
                node_ceiling,
            }),
        }
    }

    /// No limits: every check passes. The default for callers that do not
    /// opt in to governance.
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::build(None, 0, None, None)
    }

    /// A governor with only a wall-clock deadline, measured from now.
    pub fn with_deadline(budget: Duration) -> ResourceGovernor {
        ResourceGovernor::build(
            Some(clock::now() + budget),
            budget.as_millis() as u64,
            None,
            None,
        )
    }

    /// A governor with only an iteration budget. Iterations are the
    /// stage's natural unit of repeated work: BGP pulls per node per
    /// sweep, reachability edge relaxations.
    pub fn with_iteration_budget(budget: u64) -> ResourceGovernor {
        ResourceGovernor::build(None, 0, Some(budget), None)
    }

    /// A governor with only a BDD node-count ceiling.
    pub fn with_node_ceiling(ceiling: usize) -> ResourceGovernor {
        ResourceGovernor::build(None, 0, None, Some(ceiling))
    }

    /// Builder: adds an iteration budget.
    pub fn and_iteration_budget(self, budget: u64) -> ResourceGovernor {
        ResourceGovernor::build(
            self.inner.deadline,
            self.inner.deadline_budget_ms,
            Some(budget),
            self.inner.node_ceiling,
        )
    }

    /// Builder: adds a BDD node ceiling.
    pub fn and_node_ceiling(self, ceiling: usize) -> ResourceGovernor {
        ResourceGovernor::build(
            self.inner.deadline,
            self.inner.deadline_budget_ms,
            self.inner.iteration_budget,
            Some(ceiling),
        )
    }

    /// Checks the deadline and the iteration budget (call between units of
    /// work). `Err` carries the stage name and the limit that tripped.
    pub fn check(&self, stage: &str) -> Result<(), Exhaustion> {
        if let Some(deadline) = self.inner.deadline {
            if clock::now() >= deadline {
                return Err(Exhaustion {
                    stage: stage.to_string(),
                    limit: Limit::Deadline {
                        budget_ms: self.inner.deadline_budget_ms,
                    },
                });
            }
        }
        if let Some(budget) = self.inner.iteration_budget {
            if self.inner.iterations_used.load(Ordering::Relaxed) >= budget {
                return Err(Exhaustion {
                    stage: stage.to_string(),
                    limit: Limit::Iterations { budget },
                });
            }
        }
        Ok(())
    }

    /// Consumes `n` iterations, then checks. Safe to call from multiple
    /// threads; consumption is shared.
    pub fn tick(&self, stage: &str, n: u64) -> Result<(), Exhaustion> {
        if self.inner.iteration_budget.is_some() {
            self.inner.iterations_used.fetch_add(n, Ordering::Relaxed);
        }
        self.check(stage)
    }

    /// Checks a BDD arena size against the node ceiling.
    pub fn check_nodes(&self, stage: &str, nodes: usize) -> Result<(), Exhaustion> {
        if let Some(ceiling) = self.inner.node_ceiling {
            if nodes >= ceiling {
                return Err(Exhaustion {
                    stage: stage.to_string(),
                    limit: Limit::BddNodes {
                        ceiling,
                        reached: nodes,
                    },
                });
            }
        }
        Ok(())
    }

    /// Iterations consumed so far.
    pub fn iterations_used(&self) -> u64 {
        self.inner.iterations_used.load(Ordering::Relaxed)
    }
}

/// The result of a governed stage: everything, or an honest partial.
#[derive(Clone, Debug)]
pub enum Outcome<T> {
    /// The stage ran to completion.
    Complete(T),
    /// The stage stopped at its budget.
    Partial {
        /// What *was* computed before the budget tripped. Always usable:
        /// a partial fixed point under-approximates the converged one.
        completed: T,
        /// Machine-readable identifiers of the work abandoned (churning
        /// prefixes, unvisited graph nodes — stage-specific).
        abandoned: Vec<String>,
        /// Which limit tripped, where.
        why: Exhaustion,
    },
}

impl<T> Outcome<T> {
    /// The computed value, complete or not.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) => v,
            Outcome::Partial { completed, .. } => completed,
        }
    }

    /// Consumes the outcome, returning the value either way.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete(v) => v,
            Outcome::Partial { completed, .. } => completed,
        }
    }

    /// Consumes the outcome into the value and, when the budget tripped,
    /// the `(abandoned, why)` accounting.
    pub fn into_parts(self) -> (T, Option<(Vec<String>, Exhaustion)>) {
        match self {
            Outcome::Complete(v) => (v, None),
            Outcome::Partial {
                completed,
                abandoned,
                why,
            } => (completed, Some((abandoned, why))),
        }
    }

    /// Did the stage stop early?
    pub fn is_partial(&self) -> bool {
        matches!(self, Outcome::Partial { .. })
    }

    /// The exhaustion, when partial.
    pub fn why(&self) -> Option<&Exhaustion> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Partial { why, .. } => Some(why),
        }
    }

    /// Maps the carried value, preserving partiality metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Partial {
                completed,
                abandoned,
                why,
            } => Outcome::Partial {
                completed: f(completed),
                abandoned,
                why,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_always_passes() {
        let g = ResourceGovernor::unlimited();
        assert!(g.check("x").is_ok());
        assert!(g.tick("x", 1_000_000).is_ok());
        assert!(g.check_nodes("x", usize::MAX).is_ok());
    }

    #[test]
    fn iteration_budget_trips() {
        let g = ResourceGovernor::with_iteration_budget(10);
        assert!(g.tick("stage", 5).is_ok());
        let err = g.tick("stage", 5).unwrap_err();
        assert_eq!(err.stage, "stage");
        assert_eq!(err.limit, Limit::Iterations { budget: 10 });
        assert_eq!(g.iterations_used(), 10);
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = ResourceGovernor::with_deadline(Duration::ZERO);
        let err = g.check("s").unwrap_err();
        assert!(matches!(err.limit, Limit::Deadline { .. }));
    }

    #[test]
    fn node_ceiling_trips() {
        let g = ResourceGovernor::with_node_ceiling(100);
        assert!(g.check_nodes("bdd", 99).is_ok());
        let err = g.check_nodes("bdd", 100).unwrap_err();
        assert_eq!(
            err.limit,
            Limit::BddNodes {
                ceiling: 100,
                reached: 100
            }
        );
    }

    #[test]
    fn shared_budget_across_clones() {
        let g = ResourceGovernor::with_iteration_budget(10);
        let g2 = g.clone();
        assert!(g.tick("a", 6).is_ok());
        assert!(g2.tick("b", 6).is_err(), "clones share the budget");
    }

    #[test]
    fn outcome_accessors() {
        let c: Outcome<u32> = Outcome::Complete(7);
        assert!(!c.is_partial());
        assert_eq!(*c.value(), 7);
        let p = Outcome::Partial {
            completed: 3u32,
            abandoned: vec!["10.0.0.0/8".into()],
            why: Exhaustion {
                stage: "s".into(),
                limit: Limit::Iterations { budget: 1 },
            },
        };
        assert!(p.is_partial());
        assert_eq!(*p.value(), 3);
        let mapped = p.map(|v| v * 2);
        assert_eq!(mapped.into_value(), 6);
    }

    #[test]
    fn display_forms() {
        let e = Exhaustion {
            stage: "bgp-fixed-point".into(),
            limit: Limit::Deadline { budget_ms: 250 },
        };
        assert_eq!(
            e.to_string(),
            "deadline (250 ms) exhausted in stage bgp-fixed-point"
        );
    }
}
