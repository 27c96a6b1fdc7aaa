//! # batnet-obs — zero-dependency observability
//!
//! The paper's evaluation (§6, Table 2) is built on *per-stage* pipeline
//! measurements, and its Lesson-3 experience is that operators only trust
//! an analyzer that can account for what it did to each input (parse
//! coverage red flags, §4.1). This crate is that accounting layer,
//! in-tree and dependency-free (the workspace is offline):
//!
//! * **Spans** ([`span`]) — RAII wall-clock timing with nesting, cheap
//!   enough to be always-on. Every pipeline stage (`snapshot.parse`,
//!   `route.simulate`, `graph.build`, `reach.*`) opens a span. Work
//!   that fans out to worker threads carries a [`span::SpanContext`]
//!   across, so cross-thread spans keep their logical parent.
//! * **Metrics** ([`metrics`]) — a typed registry of counters, gauges,
//!   and log2-bucketed histograms fed from the stages: parse line
//!   coverage per dialect, routing sweeps and RIB deltas, BDD node
//!   counts and apply-cache hit rates, reach query sizes.
//! * **Events** ([`metrics::event`]) — bridged quarantine reasons and
//!   governor trips, timestamped against the run epoch.
//! * **Run reports** ([`report`]) — one JSON document per run capturing
//!   the span tree, metric snapshot, events, and quarantine/partial
//!   accounting. Every JSON artifact in the workspace is written by one
//!   streaming writer ([`json::Writer`], no serde); the same module
//!   carries a minimal parser so reports can be validated in-tree (the
//!   `obs-validate` bin and the chaos harness).
//! * **Trace export** ([`trace`]) — any span forest renders as Chrome
//!   `trace.json` (Perfetto-loadable) or folded-stack flamegraph text;
//!   the `obs-trace` bin exports run reports, bench files and `/tracez`
//!   dumps after the fact. The exact span forest is the profile: its
//!   folded rendering is self time per path, to the microsecond.
//! * **Memory accounting** ([`mem`]) — a counting global allocator
//!   behind the `alloc-track` feature, with windowed peak/delta
//!   measurement for per-stage memory gauges.
//! * **Structure gate** ([`diff`]) — do two bench files have the same
//!   `bench/network/stage` rows? The `obs-diff` bin is the CI gate
//!   built on it; time is the benchmark's to compare, not this crate's.
//! * **Command lines** ([`flags`]) — the declarative flag tables every
//!   workspace binary parses its arguments with (hosted here, like
//!   [`json`], because this is the one crate they all depend on).
//!
//! The recorder is one value behind one lock (`recorder.rs`): spans in
//! open order, one metric map, one event list, the run epoch. Spans
//! wrap stages and metrics tick once per query or sweep — a dozen spans
//! per answer, about ten recorder calls per served request — so the
//! lock is never contended enough to measure and [`report::capture`] is
//! a clone.
//!
//! All state is process-global and reset with [`reset`]: a *run* is
//! "reset → build snapshot → analyze → [`report::capture`]". `reset`
//! forgets spans still open and requests in flight (safely: their
//! closes become no-ops) — call it only at orchestration points.
//!
//! Timing discipline: a workspace clippy gate disallows
//! `std::time::Instant::now` everywhere else, so all timing flows
//! through [`clock::now`] or spans and is therefore observable. A
//! second gate bans `.lock().unwrap()` in this crate: every recorder
//! lock recovers from poisoning (`PoisonError::into_inner`), because a
//! contained panic in a serve worker must never disable telemetry.

pub mod clock;
pub mod diff;
pub mod flags;
pub mod json;
pub mod mem;
pub mod metrics;
pub(crate) mod recorder;
pub mod report;
pub mod span;
pub mod trace;

pub use clock::now;
pub use mem::{MemStats, MemWindow};
pub use metrics::{counter_add, event, gauge_set, observe};
pub use report::{capture, RunReport};
pub use span::{take_tree, Span, SpanContext};

/// Clears all recorded spans, metrics, and events and restarts the run
/// epoch. Call at the start of a run (harness iteration, chaos run,
/// test). Spans still open across it are forgotten: their closes are
/// no-ops and they parent nothing recorded afterwards.
pub fn reset() {
    recorder::lock().reset();
}
