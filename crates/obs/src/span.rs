//! Lightweight always-on spans: RAII wall-clock timing with nesting.
//!
//! A [`Span`] records one named region of work. Nesting is tracked per
//! thread (a span opened while another is open on the same thread
//! becomes its child), so the pipeline's natural call structure becomes
//! the report's span tree. Cross-thread structure is explicit: a span
//! hands out a cheap, `Send` [`SpanContext`], and a worker thread that
//! opens its span with [`Span::enter_with_parent`] attaches under that
//! logical parent. A worker span opened without a context stays a root
//! of its own tree.
//!
//! Cost model: an open and a close each take the recorder's one lock
//! (`recorder.rs`) for a push or a binary search. Spans wrap
//! *stages* (parse, route, graph build, one reach query, one served
//! request), not inner loops, so the recorder never becomes a hot path.
//! Spans are stored in open order, which is always topological (a
//! parent is open — hence stored — before any child).

use crate::clock;
use crate::recorder;
use std::time::{Duration, Instant};

/// One finished-or-open span as captured.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name, e.g. `route.simulate`.
    pub name: String,
    /// Index of the parent span in the same recording, if nested.
    pub parent: Option<usize>,
    /// Start offset from the run epoch, in nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` while the span is still open.
    pub dur_ns: Option<u64>,
    /// The recording OS thread: a number drawn once per thread from a
    /// process counter, so distinct threads never share one (values are
    /// sparse, not dense from 0). The Chrome-trace exporter renders one
    /// track per value.
    pub tid: u64,
}

/// A cheap, `Send + Copy` handle to an open (or closed) span, used to
/// parent work that continues on another thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
}

/// An open span; closing (drop or [`Span::close`]) records the
/// duration.
pub struct Span {
    id: u64,
    tid: u64,
    start: Instant,
}

impl Span {
    /// Opens a span. The parent is the innermost span still open on
    /// this thread.
    pub fn enter(name: impl Into<String>) -> Span {
        Span::open(name.into(), None)
    }

    /// Opens a span under an explicit parent — the cross-thread form:
    /// capture [`Span::context`] on the spawning thread, move it into
    /// the worker, and the worker's span (and everything nested inside
    /// it on that thread) attaches under the logical parent.
    pub fn enter_with_parent(name: impl Into<String>, ctx: SpanContext) -> Span {
        Span::open(name.into(), Some(ctx.id))
    }

    fn open(name: String, parent: Option<u64>) -> Span {
        let start = clock::now();
        let (id, tid) = recorder::lock().open(name, parent, start);
        Span { id, tid, start }
    }

    /// This span's context: `Copy`, `Send`, and valid until the next
    /// [`crate::reset`] (after which children simply become roots).
    pub fn context(&self) -> SpanContext {
        SpanContext { id: self.id }
    }

    /// Wall clock since this span opened (the span stays open).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the span now and returns its duration. Equivalent to
    /// dropping, but hands the caller the measured time (the bench
    /// harness builds its rows from this).
    pub fn close(self) -> Duration {
        let d = self.start.elapsed();
        drop(self);
        d
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let dur = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        recorder::lock().close(self.id, self.tid, dur);
    }
}

/// Removes the subtree rooted at `ctx` from the recorder and returns it
/// as a self-contained record list (the root's parent becomes `None`).
/// This is how long-running services keep per-request span trees out of
/// the ever-growing global capture: close the request's root span, then
/// take its tree into a bounded ring. A span opened under the tree
/// after the call becomes a root in the next capture.
pub fn take_tree(ctx: SpanContext) -> Vec<SpanRecord> {
    recorder::lock().take_tree(ctx.id)
}

#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    // Serializes tests that reset the global recorder.
    use std::sync::{Mutex, OnceLock};
    static G: OnceLock<Mutex<()>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_spans() -> Vec<SpanRecord> {
        crate::capture().spans
    }

    #[test]
    fn nesting_and_ordering() {
        let _g = test_guard();
        crate::reset();
        {
            let _root = Span::enter("root");
            {
                let _a = Span::enter("a");
            }
            {
                let _b = Span::enter("b");
                let _c = Span::enter("c");
            }
        }
        let spans = snapshot_spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).expect(n);
        let (root, a, b, c) = (by_name("root"), by_name("a"), by_name("b"), by_name("c"));
        assert_eq!(spans[root].parent, None);
        assert_eq!(spans[a].parent, Some(root));
        assert_eq!(spans[b].parent, Some(root));
        assert_eq!(spans[c].parent, Some(b));
        // Records appear in open order and all closed.
        assert!(spans.iter().all(|s| s.dur_ns.is_some()));
        assert!(spans[a].start_ns >= spans[root].start_ns);
        assert!(spans[b].start_ns >= spans[a].start_ns);
        // A single-threaded run records everything on one shard.
        assert!(spans.iter().all(|s| s.tid == spans[root].tid));
        // Children close within (or equal to) the parent's window.
        let end = |i: usize| spans[i].start_ns + spans[i].dur_ns.expect("closed");
        assert!(end(c) <= end(root));
    }

    #[test]
    fn close_returns_duration_and_records() {
        let _g = test_guard();
        crate::reset();
        let s = Span::enter("timed");
        std::thread::sleep(Duration::from_millis(2));
        let d = s.close();
        assert!(d >= Duration::from_millis(2));
        let spans = snapshot_spans();
        assert_eq!(spans.len(), 1);
        let rec = spans[0].dur_ns.expect("closed");
        assert!(rec >= 2_000_000, "recorded {rec}ns");
    }

    #[test]
    fn reset_invalidates_open_spans_safely() {
        let _g = test_guard();
        crate::reset();
        let s = Span::enter("stale");
        crate::reset();
        drop(s); // must not panic or resurrect the record
        assert!(snapshot_spans().is_empty());
    }

    #[test]
    fn worker_thread_spans_without_context_are_roots() {
        let _g = test_guard();
        crate::reset();
        let _root = Span::enter("main-thread");
        std::thread::spawn(|| {
            let _w = Span::enter("worker");
        })
        .join()
        .expect("worker thread");
        let spans = snapshot_spans();
        let w = spans.iter().find(|s| s.name == "worker").expect("worker");
        assert_eq!(w.parent, None, "no context, no inherited parent");
    }

    #[test]
    fn context_parents_across_threads() {
        let _g = test_guard();
        crate::reset();
        let root = Span::enter("orchestrator");
        let ctx = root.context();
        std::thread::spawn(move || {
            let w = Span::enter_with_parent("worker", ctx);
            // Plain nesting continues under the adopted parent.
            let _inner = Span::enter("worker.inner");
            drop(_inner);
            drop(w);
        })
        .join()
        .expect("worker thread");
        drop(root);
        let spans = snapshot_spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).expect(n);
        let (o, w, i) = (
            by_name("orchestrator"),
            by_name("worker"),
            by_name("worker.inner"),
        );
        assert_eq!(spans[w].parent, Some(o), "worker attaches under its context");
        assert_eq!(spans[i].parent, Some(w), "nesting continues on the worker");
        assert_ne!(spans[o].tid, spans[w].tid, "distinct OS threads, distinct tids");
        assert_eq!(spans[w].tid, spans[i].tid);
    }

    #[test]
    fn a_span_closed_on_another_thread_leaves_its_openers_stack() {
        let _g = test_guard();
        crate::reset();
        let moved = Span::enter("moved");
        std::thread::spawn(move || drop(moved)).join().expect("closer");
        let _next = Span::enter("next");
        let spans = snapshot_spans();
        assert!(spans[0].dur_ns.is_some());
        assert_eq!(spans[1].parent, None, "a closed span parents nothing");
    }

    #[test]
    fn take_tree_extracts_and_removes_subtree() {
        let _g = test_guard();
        crate::reset();
        let _stay = Span::enter("background");
        let ctx = {
            let req = Span::enter("request");
            let _child = Span::enter("request.child");
            req.context()
        };
        let tree = take_tree(ctx);
        assert_eq!(tree.len(), 2);
        assert_eq!(tree[0].name, "request");
        assert_eq!(tree[0].parent, None, "extracted root is re-rooted");
        assert_eq!(tree[1].parent, Some(0));
        // The background span stays; the request subtree is gone.
        let left = snapshot_spans();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].name, "background");
        // Taking the same tree again yields nothing.
        assert!(take_tree(ctx).is_empty());
    }
}
