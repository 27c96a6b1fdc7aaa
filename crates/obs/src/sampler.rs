//! The always-on sampling profiler: periodic snapshots of every live
//! span stack, folded into flamegraph counts.
//!
//! [`RunReport`](crate::report::RunReport) and [`attr`](crate::attr)
//! explain a run *after* it finishes — useless for a long-running
//! `batnet-serve` process, where the question is "where is time going
//! *right now*". The sampler answers it from the recorder itself: at a
//! configurable cadence it takes the recorder's lock, reads the path of
//! the innermost span open on every registered thread
//! (`Recorder::live_paths`) and folds each into a
//! `path → count` map keyed exactly like
//! [`attr::path_totals`](crate::attr::path_totals) (`;`-joined span
//! names). A path is the span's parent chain in the one span list, so a
//! sampled path is always a path the exact attribution also has.
//! Gauges ride along: the heap (via [`mem`](crate::mem)) is read every
//! tick, and the BDD/memory gauges are snapshotted when the profile is
//! taken.
//!
//! Two discipline rules keep the sampler honest:
//!
//! * **Strict accounting.** Every thread visit is a sample and every
//!   sample is recorded (idle threads fold as `(idle)`): a read under
//!   the lock cannot tear and a parent chain has no depth cap, so the
//!   schema's `dropped` and `truncated` keys are 0 by construction and
//!   `samples == recorded` always. The sampler's own wall time is
//!   metered per tick (`overhead_us`). Nothing is silent.
//! * **Read-only.** The sampler never records spans, metrics, or
//!   events — its books live in this module — so a run's `RunReport`
//!   JSON is byte-identical with the sampler on or off. (Chaos
//!   invariant 11 pins this.)
//!
//! [`Sampler::tick`] is the virtual-clock mode: tests drive ticks by
//! hand and get exact sample counts (`ticks × registered threads`).
//! [`SamplerThread`] is the wall-clock mode used by `--profile-hz` and
//! `harness --profile`. [`Sampler::take_profile`] snapshots-and-resets
//! the window and renders the deterministic-schema `batnet-prof/v1`
//! JSON validated by `obs-validate`.

use crate::clock;
use crate::json;
use crate::metrics::MetricValue;
use crate::recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// The folded stack an empty (idle) live stack records as. Idle threads
/// are real samples — hiding them would make busy fractions look
/// inflated — so they fold under a name no span can collide with
/// (span names in this codebase never start with `(`).
pub const IDLE_STACK: &str = "(idle)";

/// One profiling window's accumulation, swapped out wholesale by
/// [`Sampler::take_profile`] so window totals are exactly consistent.
#[derive(Default)]
struct Window {
    /// Folded stack (`;`-joined span names) → occurrences.
    stacks: BTreeMap<String, u64>,
    /// Thread visits, each folded into `stacks` (idle included).
    samples: u64,
    /// Ticks in this window.
    ticks: u64,
    /// Sampler wall time spent in this window, nanoseconds.
    overhead_ns: u64,
    /// Heap bytes at the last tick (0 without the counting allocator).
    heap_last: u64,
    /// Max heap bytes seen at any tick in the window.
    heap_max: u64,
    /// Run-epoch nanoseconds when the window opened.
    started_ns: u64,
}

/// The sampling profiler. Shared (`Arc`) between the driving side
/// (a [`SamplerThread`] or a test calling [`Sampler::tick`]) and the
/// reporting side (`/profilez`, `/metricsz` meta, bench artifacts).
pub struct Sampler {
    /// Configured cadence (ticks per second); informational in
    /// virtual-clock use, where the caller *is* the clock.
    hz: u64,
    window: Mutex<Window>,
    // Lifetime totals, never reset by take_profile: the `/metricsz`
    // meta reads these so operators see cumulative sampler cost.
    samples_total: AtomicU64,
    ticks_total: AtomicU64,
    overhead_ns_total: AtomicU64,
}

/// Cumulative sampler accounting (not reset by window snapshots).
#[derive(Clone, Copy, Debug, Default)]
pub struct SamplerStats {
    /// Thread visits since the sampler started.
    pub samples: u64,
    /// Visits that recorded nothing: always 0 (see the module doc).
    pub dropped: u64,
    /// Ticks since the sampler started.
    pub ticks: u64,
    /// Total sampler wall time, microseconds.
    pub overhead_us: u64,
}

impl Sampler {
    /// A sampler accumulating from "now". `hz` is recorded in profiles
    /// (0 = externally driven / virtual clock).
    pub fn new(hz: u64) -> Sampler {
        Sampler {
            hz,
            window: Mutex::new(Window {
                started_ns: now_ns(),
                ..Window::default()
            }),
            samples_total: AtomicU64::new(0),
            ticks_total: AtomicU64::new(0),
            overhead_ns_total: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Window> {
        // Poison recovery, same contract as every recorder lock: a
        // panicking thread must not take profiling down with it.
        self.window.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// One sampling pass over every registered thread. This is the
    /// whole sampler; the wall-clock thread just calls it on a timer,
    /// and tests call it directly (the virtual clock). Returns the
    /// number of threads visited.
    pub fn tick(&self) -> usize {
        let t0 = clock::now();
        let paths = recorder::lock().live_paths();
        let visited = paths.len();
        let mut w = self.lock();
        for path in paths {
            let path = if path.is_empty() { IDLE_STACK.to_string() } else { path };
            *w.stacks.entry(path).or_insert(0) += 1;
        }
        w.samples += visited as u64;
        let heap = crate::mem::current_bytes();
        w.heap_last = heap;
        w.heap_max = w.heap_max.max(heap);
        w.ticks += 1;
        let spent = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        w.overhead_ns += spent;
        drop(w);
        self.samples_total.fetch_add(visited as u64, Ordering::Relaxed);
        self.ticks_total.fetch_add(1, Ordering::Relaxed);
        self.overhead_ns_total.fetch_add(spent, Ordering::Relaxed);
        visited
    }

    /// Cumulative accounting since construction (windows don't reset
    /// it).
    pub fn stats(&self) -> SamplerStats {
        SamplerStats {
            samples: self.samples_total.load(Ordering::Relaxed),
            dropped: 0,
            ticks: self.ticks_total.load(Ordering::Relaxed),
            overhead_us: self.overhead_ns_total.load(Ordering::Relaxed) / 1_000,
        }
    }

    /// Snapshots the current window as a `batnet-prof/v1` JSON document
    /// and resets the window (the `/profilez` contract: each fetch
    /// reports the interval since the previous fetch). Gauge values
    /// with `bdd.` / `mem.` prefixes are read from the live metric
    /// registry at snapshot time — a read-only walk.
    pub fn take_profile(&self) -> String {
        let now_ns = now_ns();
        let mut w = self.lock();
        let window = std::mem::replace(
            &mut *w,
            Window {
                started_ns: now_ns,
                ..Window::default()
            },
        );
        drop(w);
        render_profile(self.hz, &window, now_ns)
    }
}

/// Nanoseconds since the run epoch.
fn now_ns() -> u64 {
    recorder::lock().run_ns(clock::now())
}

/// Renders one window as the deterministic `batnet-prof/v1` document.
fn render_profile(hz: u64, w: &Window, now_ns: u64) -> String {
    let duration_ms = now_ns.saturating_sub(w.started_ns) as f64 / 1_000_000.0;
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\": 1, \"kind\": \"batnet-prof/v1\", ");
    let _ = write!(out, "\"hz\": {hz}, \"window\": {{\"ticks\": {}, \"duration_ms\": ", w.ticks);
    json::write_f64(&mut out, (duration_ms * 1000.0).round() / 1000.0);
    let _ = write!(
        out,
        "}}, \"sampler\": {{\"samples\": {}, \"recorded\": {}, \"dropped\": 0, \
         \"truncated\": 0, \"overhead_us\": {}}}, ",
        w.samples,
        w.samples,
        w.overhead_ns / 1_000
    );
    out.push_str("\"gauges\": {");
    let mut first = true;
    let mut gauge = |out: &mut String, name: &str, value: f64| {
        if !first {
            out.push_str(", ");
        }
        first = false;
        json::write_str(out, name);
        out.push_str(": ");
        json::write_f64(out, value);
    };
    gauge(&mut out, "heap.current_bytes", w.heap_last as f64);
    gauge(&mut out, "heap.max_bytes", w.heap_max as f64);
    for (name, value) in snapshot_gauges() {
        gauge(&mut out, &name, value);
    }
    out.push_str("}, \"stacks\": [");
    for (i, (stack, count)) in w.stacks.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"stack\": ");
        json::write_str(&mut out, stack);
        let _ = write!(out, ", \"count\": {count}}}");
    }
    out.push_str("]}");
    out
}

/// Current values of the `bdd.*` / `mem.*` gauges — the BDD node/cache
/// and per-stage memory gauges the pipeline publishes — read without
/// mutating anything.
fn snapshot_gauges() -> Vec<(String, f64)> {
    let r = recorder::lock();
    r.metrics
        .iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Gauge(g) if name.starts_with("bdd.") || name.starts_with("mem.") => {
                Some((name.clone(), *g))
            }
            _ => None,
        })
        .collect()
}

/// The folded flamegraph text for a parsed `batnet-prof/v1` document:
/// one `stack count` line per entry, the format `flamegraph.pl` and
/// speedscope ingest (and the same shape `trace::folded` emits for
/// exact captures).
pub fn profile_folded(doc: &json::Value) -> Result<String, String> {
    if doc.get("kind").and_then(json::Value::as_str) != Some("batnet-prof/v1") {
        return Err("not a batnet-prof/v1 document".to_string());
    }
    let mut out = String::new();
    for s in doc.arr("stacks")? {
        let (stack, count) = (s.text("stack")?, s.num("count")?);
        let _ = writeln!(out, "{stack} {}", count as u64);
    }
    Ok(out)
}

/// A wall-clock sampling thread: ticks a shared [`Sampler`] at `hz`
/// until stopped. Dropping the handle stops and joins it.
pub struct SamplerThread {
    sampler: Arc<Sampler>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl SamplerThread {
    /// Starts sampling at `hz` (clamped to [1, 10_000]).
    pub fn spawn(hz: u64) -> SamplerThread {
        let hz = hz.clamp(1, 10_000);
        let sampler = Arc::new(Sampler::new(hz));
        let stop = Arc::new(AtomicBool::new(false));
        let period = Duration::from_nanos(1_000_000_000 / hz);
        let (s, st) = (Arc::clone(&sampler), Arc::clone(&stop));
        let thread = std::thread::Builder::new()
            .name("obs-sampler".to_string())
            .spawn(move || {
                while !st.load(Ordering::Relaxed) {
                    s.tick();
                    std::thread::sleep(period);
                }
            })
            .ok();
        SamplerThread {
            sampler,
            stop,
            thread,
        }
    }

    /// The shared sampler, for `/profilez` and stats reads.
    pub fn sampler(&self) -> Arc<Sampler> {
        Arc::clone(&self.sampler)
    }

    /// Stops the thread and waits for its last tick.
    pub fn stop(mut self) -> Arc<Sampler> {
        self.halt();
        self.sampler()
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SamplerThread {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    #[test]
    fn virtual_clock_samples_are_exact() {
        let _g = crate::span::test_guard();
        crate::reset();
        let _root = Span::enter("pipeline");
        let _child = Span::enter("pipeline.stage");
        let sampler = Sampler::new(0);
        let threads = 1; // this one: `reset` forgot every other
        let ticks = 5;
        for _ in 0..ticks {
            assert_eq!(sampler.tick(), threads);
        }
        let stats = sampler.stats();
        assert_eq!(stats.samples, (ticks * threads) as u64);
        assert_eq!(stats.ticks, ticks as u64);
        let text = sampler.take_profile();
        let doc = json::parse(&text).expect("profile parses");
        crate::report::validate_profile(&doc).expect("profile validates");
        // This thread's stack was pipeline;pipeline.stage at every tick.
        let stacks = doc.get("stacks").and_then(json::Value::as_arr).expect("stacks");
        let ours = stacks
            .iter()
            .find(|s| {
                s.get("stack").and_then(json::Value::as_str)
                    == Some("pipeline;pipeline.stage")
            })
            .expect("our live stack was sampled");
        assert_eq!(
            ours.get("count").and_then(json::Value::as_f64),
            Some(ticks as f64)
        );
    }

    #[test]
    fn take_profile_resets_the_window() {
        let _g = crate::span::test_guard();
        crate::reset();
        let sampler = Sampler::new(97);
        sampler.tick();
        let first = sampler.take_profile();
        let doc = json::parse(&first).expect("parses");
        assert_eq!(
            doc.get("window").and_then(|w| w.get("ticks")).and_then(json::Value::as_f64),
            Some(1.0)
        );
        let second = sampler.take_profile();
        let doc = json::parse(&second).expect("parses");
        crate::report::validate_profile(&doc).expect("empty window still validates");
        assert_eq!(
            doc.get("window").and_then(|w| w.get("ticks")).and_then(json::Value::as_f64),
            Some(0.0)
        );
        // Lifetime stats survive the window reset.
        assert_eq!(sampler.stats().ticks, 1);
    }

    #[test]
    fn idle_stacks_fold_as_idle() {
        let _g = crate::span::test_guard();
        crate::reset();
        // A thread registers by opening a span; with it closed again the
        // thread is idle, not gone.
        drop(Span::enter("done"));
        let sampler = Sampler::new(0);
        sampler.tick();
        let doc = json::parse(&sampler.take_profile()).expect("parses");
        let stacks = doc.get("stacks").and_then(json::Value::as_arr).expect("stacks");
        assert!(
            stacks.iter().any(|s| {
                s.get("stack").and_then(json::Value::as_str) == Some(IDLE_STACK)
            }),
            "an idle thread must still be accounted"
        );
    }

    #[test]
    fn folded_export_matches_stack_counts() {
        let doc = json::parse(
            r#"{"schema": 1, "kind": "batnet-prof/v1", "hz": 99,
                "window": {"ticks": 2, "duration_ms": 20},
                "sampler": {"samples": 2, "recorded": 2, "dropped": 0,
                            "truncated": 0, "overhead_us": 3},
                "gauges": {}, "stacks": [
                  {"stack": "a;b", "count": 1}, {"stack": "a;c", "count": 1}]}"#,
        )
        .expect("parses");
        let folded = profile_folded(&doc).expect("folds");
        assert_eq!(folded, "a;b 1\na;c 1\n");
        assert!(profile_folded(&json::parse("{}").expect("parses")).is_err());
    }

    #[test]
    fn wall_clock_thread_stops_cleanly() {
        let _g = crate::span::test_guard();
        crate::reset();
        let thread = SamplerThread::spawn(1_000);
        std::thread::sleep(Duration::from_millis(20));
        let sampler = thread.stop();
        let stats = sampler.stats();
        assert!(stats.ticks >= 1, "the thread never ticked");
        assert_eq!(
            stats.samples,
            sampler.stats().samples,
            "stopped sampler no longer accumulates"
        );
    }
}
