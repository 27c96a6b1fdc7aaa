//! Concurrency guarantees of the recorder.
//!
//! The contracts every caller leans on, exercised end to end: no lost
//! updates under parallel recording (exact span counts and histogram
//! totals), cross-thread spans parented under their logical
//! `SpanContext` parent in the JSON forest (and exported to a Chrome
//! trace the way `obs-trace` does it), and telemetry that survives a contained panic (serve workers
//! run handlers under `catch_unwind`; a panic mid-record must never
//! poison the recorder for the rest of the process). Then what the
//! single span list guarantees by construction: open order is
//! topological across threads, a reset forgets open spans safely, and
//! `take_tree` partitions.
//!
//! Byte-level stability of single-threaded reports is pinned separately
//! by `tests/golden.rs` against the golden fixture.

use batnet_obs::json::{self, Value};
use batnet_obs::metrics::MetricValue;
use batnet_obs::report::validate_run_report;
use batnet_obs::trace;
use batnet_obs::Span;
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, OnceLock};

/// Serializes the tests in this binary: they all reset global state.
fn guard() -> MutexGuard<'static, ()> {
    static G: OnceLock<Mutex<()>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[test]
fn parallel_recording_loses_nothing() {
    let _g = guard();
    batnet_obs::reset();
    const THREADS: usize = 8;
    const ITERS: u64 = 200;
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let _root = Span::enter("stress.worker");
                for i in 0..ITERS {
                    let _iter = Span::enter("stress.iter");
                    let _step = Span::enter("stress.step");
                    batnet_obs::counter_add("stress.shared", 1);
                    batnet_obs::counter_add(&format!("stress.t{t}"), 1);
                    batnet_obs::observe("stress.hist", i);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress worker");
    }
    let report = batnet_obs::capture();
    // Exact accounting: every span and every metric update was kept,
    // none double-counted.
    assert_eq!(report.span_count("stress.worker"), THREADS);
    assert_eq!(report.span_count("stress.iter"), THREADS * ITERS as usize);
    assert_eq!(report.span_count("stress.step"), THREADS * ITERS as usize);
    assert_eq!(report.spans.len(), THREADS * (1 + 2 * ITERS as usize));
    assert_eq!(
        report.counter("stress.shared"),
        Some(THREADS as u64 * ITERS)
    );
    for t in 0..THREADS {
        assert_eq!(report.counter(&format!("stress.t{t}")), Some(ITERS));
    }
    let Some(MetricValue::Histogram(h)) = report.metrics.get("stress.hist") else {
        panic!("merged histogram missing");
    };
    assert_eq!(h.count, THREADS as u64 * ITERS);
    assert_eq!(h.count, h.buckets.iter().sum::<u64>());
    assert_eq!(h.sum, THREADS as u64 * (0..ITERS).sum::<u64>());
    assert_eq!(report.counter("obs.type-conflicts"), None);
    // Every iter/step span sits under a worker root of its own thread.
    for s in &report.spans {
        match s.name.as_str() {
            "stress.worker" => assert_eq!(s.parent, None),
            _ => {
                let p = s.parent.expect("nested span has a parent");
                assert_eq!(report.spans[p].tid, s.tid, "nesting stays on-thread");
            }
        }
    }
    // The merged report serializes and validates like any other.
    let parsed = json::parse(&report.to_json()).expect("report parses");
    validate_run_report(&parsed).expect("merged report validates");
}

#[test]
fn multithreaded_smoke_parents_across_threads() {
    let _g = guard();
    batnet_obs::reset();
    const WORKERS: usize = 4;
    let root = Span::enter("fanout");
    let ctx = root.context();
    let handles: Vec<_> = (0..WORKERS)
        .map(|i| {
            std::thread::spawn(move || {
                let worker = Span::enter_with_parent(format!("fanout.worker{i}"), ctx);
                let _inner = Span::enter("fanout.step");
                batnet_obs::observe("fanout.latency.us", 10 * (i as u64 + 1));
                drop(_inner);
                drop(worker);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("fanout worker");
    }
    drop(root);
    let report = batnet_obs::capture();
    let parsed = json::parse(&report.to_json()).expect("report parses");
    validate_run_report(&parsed).expect("multi-threaded report validates");

    // JSON forest: one root, all workers (with their steps) nested
    // under it despite recording on other threads.
    let spans = parsed.get("spans").and_then(Value::as_arr).expect("spans");
    assert_eq!(spans.len(), 1, "workers must not appear as extra roots");
    assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("fanout"));
    let kids = spans[0]
        .get("children")
        .and_then(Value::as_arr)
        .expect("children");
    assert_eq!(kids.len(), WORKERS);
    for kid in kids {
        let name = kid.get("name").and_then(Value::as_str).expect("name");
        assert!(name.starts_with("fanout.worker"), "unexpected child {name}");
        let steps = kid.get("children").and_then(Value::as_arr).expect("steps");
        assert_eq!(steps.len(), 1);
        assert_eq!(
            steps[0].get("name").and_then(Value::as_str),
            Some("fanout.step")
        );
    }

    // Chrome trace, rendered the way `obs-trace` ships it (JSON forest
    // → `chrome_trace`): valid, one event per recorded span.
    let forest = trace::forest_from_json(&parsed).expect("forest from JSON");
    let v = json::parse(&trace::chrome_trace(&forest)).expect("trace parses");
    trace::validate_chrome_trace(&v).expect("trace validates");
    let events = v.get("traceEvents").and_then(Value::as_arr).expect("events");
    assert_eq!(events.len(), report.spans.len());
}

#[test]
fn contained_panic_does_not_poison_telemetry() {
    let _g = guard();
    batnet_obs::reset();
    // A handler panics with a span open and metrics recorded — the
    // serve worker catches it; telemetry must keep working after.
    let result = std::panic::catch_unwind(|| {
        let _doomed = Span::enter("request.doomed");
        batnet_obs::counter_add("requests.before-panic", 1);
        panic!("handler blew up");
    });
    assert!(result.is_err(), "the panic must reach catch_unwind");
    // Recording continues on the same thread...
    batnet_obs::counter_add("requests.after-panic", 1);
    let _next = Span::enter("request.next");
    drop(_next);
    // ...and on fresh threads.
    std::thread::spawn(|| batnet_obs::counter_add("requests.after-panic", 1))
        .join()
        .expect("post-panic worker");
    let report = batnet_obs::capture();
    assert_eq!(report.counter("requests.before-panic"), Some(1));
    assert_eq!(report.counter("requests.after-panic"), Some(2));
    // The doomed span closed on unwind (RAII) and still reports.
    assert_eq!(report.span_count("request.doomed"), 1);
    assert!(report.span_ms("request.doomed").is_some(), "closed on unwind");
    let parsed = json::parse(&report.to_json()).expect("report parses");
    validate_run_report(&parsed).expect("post-panic report validates");
}

#[test]
fn open_order_is_topological_across_threads() {
    let _g = guard();
    batnet_obs::reset();
    const THREADS: usize = 8;
    const SPANS: usize = 500;
    let root = Span::enter("topo.root");
    let ctx = root.context();
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut parent = ctx;
                for i in 0..SPANS {
                    // Alternate cross-thread adoption with plain nesting.
                    let outer = Span::enter_with_parent("topo.adopted", parent);
                    let inner = Span::enter("topo.nested");
                    if i % 2 == 0 {
                        parent = inner.context();
                    }
                    drop(inner);
                    drop(outer);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("topo worker");
    }
    drop(root);
    let spans = batnet_obs::capture().spans;
    assert_eq!(spans.len(), 1 + THREADS * SPANS * 2, "every span captured");
    let mut last_start: std::collections::BTreeMap<u64, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            None => assert_eq!(s.name, "topo.root", "only the root is parentless"),
            Some(p) => assert!(p < i, "parent {p} must precede child {i}"),
        }
        assert!(s.dur_ns.is_some(), "every close found its span");
        // Record order is open order: within a thread, starts never go back.
        let last = last_start.entry(s.tid).or_default();
        assert!(s.start_ns >= *last, "open order kept on tid {}", s.tid);
        *last = s.start_ns;
    }
    assert_eq!(last_start.len(), THREADS + 1, "one tid per OS thread");
}

#[test]
fn reset_forgets_spans_still_open_on_another_thread() {
    let _g = guard();
    batnet_obs::reset();
    let (opened, reset_done) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let holder = {
        let (opened, reset_done) = (Arc::clone(&opened), Arc::clone(&reset_done));
        std::thread::spawn(move || {
            let old_root = Span::enter("old.root");
            let old_child = Span::enter("old.child");
            let stale = old_child.context();
            opened.wait();
            reset_done.wait();
            // Closing a forgotten span is a no-op...
            drop(old_child);
            // ...and neither this thread's forgotten stack nor a stale
            // context parents anything recorded after the reset.
            drop(Span::enter("new.plain"));
            drop(Span::enter_with_parent("new.adopted", stale));
            drop(old_root);
        })
    };
    opened.wait();
    batnet_obs::reset();
    reset_done.wait();
    holder.join().expect("holder thread");
    let spans = batnet_obs::capture().spans;
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, ["new.plain", "new.adopted"], "pre-reset spans never resurrect");
    assert!(spans.iter().all(|s| s.parent.is_none() && s.dur_ns.is_some()));
}

#[test]
fn take_tree_partitions_while_other_threads_record() {
    let _g = guard();
    batnet_obs::reset();
    const RECORDERS: usize = 3;
    const BACKGROUND: usize = 400;
    const REQUESTS: usize = 100;
    let background: Vec<_> = (0..RECORDERS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..BACKGROUND {
                    let _outer = Span::enter(format!("bg.{t}.{i}"));
                    let _inner = Span::enter(format!("bg.{t}.{i}.inner"));
                }
            })
        })
        .collect();
    let mut taken: BTreeSet<String> = BTreeSet::new();
    for k in 0..REQUESTS {
        let root = Span::enter(format!("req.{k}"));
        let ctx = root.context();
        drop(Span::enter(format!("req.{k}.local")));
        std::thread::spawn(move || drop(Span::enter_with_parent(format!("req.{k}.remote"), ctx)))
            .join()
            .expect("request helper");
        drop(root);
        let tree = batnet_obs::take_tree(ctx);
        let names: Vec<&str> = tree.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, [format!("req.{k}"), format!("req.{k}.local"), format!("req.{k}.remote")]);
        assert_eq!(tree[0].parent, None);
        assert!(tree[1..].iter().all(|s| s.parent == Some(0)));
        taken.extend(tree.into_iter().map(|s| s.name));
        assert!(batnet_obs::take_tree(ctx).is_empty(), "a tree is taken once");
    }
    for b in background {
        b.join().expect("background recorder");
    }
    let remaining: Vec<String> = batnet_obs::capture().spans.into_iter().map(|s| s.name).collect();
    let remaining_set: BTreeSet<String> = remaining.iter().cloned().collect();
    assert_eq!(remaining.len(), remaining_set.len(), "nothing duplicated");
    assert_eq!(remaining.len(), RECORDERS * BACKGROUND * 2, "nothing else taken");
    assert_eq!(taken.len(), REQUESTS * 3);
    assert!(taken.is_disjoint(&remaining_set));
    assert!(remaining.iter().all(|n| n.starts_with("bg.")));
}
