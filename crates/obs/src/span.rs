//! Lightweight always-on spans: RAII wall-clock timing with nesting.
//!
//! A [`Span`] records one named region of work. Nesting is tracked per
//! thread (a span opened while another is open on the same thread
//! becomes its child), so the pipeline's natural call structure becomes
//! the report's span tree. Cross-thread structure is explicit: a span
//! hands out a cheap, `Send` [`SpanContext`], and a worker thread that
//! opens its span with [`Span::enter_with_parent`] attaches under that
//! logical parent even though it records into its own thread's shard.
//! A worker span opened without a context stays a root of its own tree.
//!
//! Cost model: every open and close touches only the calling thread's
//! shard (an uncontended mutex) plus one relaxed atomic fetch for the
//! globally unique open sequence. Spans wrap *stages* (parse, route,
//! graph build, one reach query, one served request), not inner loops,
//! so the recorder never becomes a hot path. The merge that produces a
//! flat [`SpanRecord`] list happens only at capture: records sort by
//! open sequence, which is the single-thread open order and is always
//! topological (a parent is open — hence sequenced — before any child).

use crate::clock;
use crate::shard::{self, Shard};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One finished-or-open span as recorded, after the capture-time merge.
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
    /// The recording OS thread (shard registration order, dense from
    /// 0). The Chrome-trace exporter renders one track per value.
    pub tid: u64,
}

/// One span as stored in its thread's shard: identities are global
/// open-sequence numbers, so cross-thread parent links need no shared
/// index space.
#[derive(Clone, Debug)]
pub(crate) struct SpanSlot {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: Option<u64>,
}

/// The globally unique, monotone open sequence. One relaxed fetch per
/// span open; never reset, so merged order is stable across resets.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // (open-sequence id, interned name id): the id drives parenting,
    // the name id feeds the shard's lock-free stack view for the
    // sampling profiler. A worker's stack may start with frames
    // inherited from its logical parent's thread (id `INHERITED`); they
    // sit below every real frame and leave with the last one.
    static STACK: RefCell<Vec<(u64, u32)>> = const { RefCell::new(Vec::new()) };
}

/// The id of a stack frame that stands for an ancestor span open on
/// another thread. Never a real span id, so it parents nothing and no
/// close matches it.
const INHERITED: u64 = u64::MAX;

/// Publishes the thread's current stack (already borrowed) to `shard`'s
/// seqlock view. Only ever called from the shard's owning thread.
fn publish_stack(shard: &Shard, stack: &[(u64, u32)]) {
    let frames: Vec<u32> = stack.iter().map(|&(_, nid)| nid).collect();
    shard.stack.publish(&frames);
}

/// A cheap, `Send + Copy` handle to an open (or closed) span, used to
/// parent work that continues on another thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanContext {
    id: u64,
    /// The span's `;`-joined path from its root, interned process-wide
    /// (see [`shard::intern_path`]); 0 when unknown.
    path: u32,
}

/// An open span; closing (drop or [`Span::close`]) records the
/// duration.
pub struct Span {
    shard: Arc<Shard>,
    id: u64,
    start: Instant,
}

impl Span {
    /// Opens a span. The parent is the innermost span still open on
    /// this thread.
    pub fn enter(name: impl Into<String>) -> Span {
        let parent = STACK.with(|s| s.borrow().last().map(|&(id, _)| id));
        Span::open(name.into(), parent, "")
    }

    /// Opens a span under an explicit parent — the cross-thread form:
    /// capture [`Span::context`] on the spawning thread, move it into
    /// the worker, and the worker's span (and everything nested inside
    /// it on that thread) attaches under the logical parent.
    ///
    /// On a thread with nothing open (a pool worker), the parent's path
    /// becomes the prefix of this thread's published live stack, so the
    /// sampling profiler files the worker under the stage that spawned
    /// it — the same path [`crate::attr::path_totals`] computes.
    pub fn enter_with_parent(name: impl Into<String>, ctx: SpanContext) -> Span {
        let idle = STACK.with(|s| s.borrow().is_empty());
        let inherited = if idle { shard::path(ctx.path) } else { String::new() };
        Span::open(name.into(), Some(ctx.id), &inherited)
    }

    fn open(name: String, parent: Option<u64>, inherited: &str) -> Span {
        let start = clock::now();
        let start_ns = shard::run_ns(start);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let (shard, frames) = shard::with_local(|s| {
            let mut data = s.lock();
            let mut frames: Vec<(u64, u32)> = inherited
                .split(';')
                .filter(|n| !n.is_empty())
                .map(|n| (INHERITED, s.intern(&mut data, n)))
                .collect();
            frames.push((id, s.intern(&mut data, &name)));
            data.spans.push(SpanSlot {
                id,
                parent,
                name,
                start_ns,
                dur_ns: None,
            });
            drop(data);
            (Arc::clone(s), frames)
        });
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            stack.extend(frames);
            publish_stack(&shard, &stack);
        });
        Span { shard, id, start }
    }

    /// This span's context: `Copy`, `Send`, and valid until the next
    /// [`crate::reset`] (after which children simply become roots).
    /// Carries the span's path when called on the thread that opened it.
    pub fn context(&self) -> SpanContext {
        let frames: Vec<u32> = STACK.with(|s| {
            let stack = s.borrow();
            let depth = stack.iter().position(|&(id, _)| id == self.id).map_or(0, |p| p + 1);
            stack[..depth].iter().map(|&(_, name_id)| name_id).collect()
        });
        SpanContext {
            id: self.id,
            path: shard::intern_path(&self.shard.resolve_path(&frames)),
        }
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
        let dur = self.start.elapsed();
        let mut data = self.shard.lock();
        // Closes are LIFO in practice, so the reverse scan is O(1)-ish;
        // a reset (or a `take_tree`) between enter and drop removes the
        // slot, and the close becomes a no-op instead of resurrecting.
        if let Some(slot) = data.spans.iter_mut().rev().find(|s| s.id == self.id) {
            slot.dur_ns = Some(dur.as_nanos().min(u64::MAX as u128) as u64);
        }
        drop(data);
        let id = self.id;
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(i, _)| i == id) {
                stack.remove(pos);
                if stack.iter().all(|&(i, _)| i == INHERITED) {
                    stack.clear();
                }
                // The stack held our id, so this close runs on the
                // opening thread and `self.shard` is its local shard —
                // the single-writer seqlock invariant holds.
                publish_stack(&self.shard, &stack);
            }
        });
    }
}

/// Merges `(tid, slot)` pairs into the flat, index-parented record list
/// every consumer (report, attr, trace) works on. Sorting by the open
/// sequence makes the order deterministic, topological (parents before
/// children), and — for a single-threaded run — exactly the open order.
fn merge_slots(mut slots: Vec<(u64, SpanSlot)>) -> Vec<SpanRecord> {
    slots.sort_by_key(|(_, s)| s.id);
    let index: std::collections::HashMap<u64, usize> = slots
        .iter()
        .enumerate()
        .map(|(i, (_, s))| (s.id, i))
        .collect();
    slots
        .iter()
        .map(|(tid, s)| SpanRecord {
            name: s.name.clone(),
            parent: s.parent.and_then(|p| index.get(&p).copied()),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            tid: *tid,
        })
        .collect()
}

/// Snapshot of every span recorded since the last reset, merged across
/// all thread shards.
pub(crate) fn snapshot_spans() -> Vec<SpanRecord> {
    let mut slots: Vec<(u64, SpanSlot)> = Vec::new();
    for sh in shard::all() {
        let data = sh.lock();
        slots.extend(data.spans.iter().map(|s| (sh.seq, s.clone())));
    }
    merge_slots(slots)
}

/// Removes the subtree rooted at `ctx` from the recorder and returns it
/// as a self-contained record list (the root's parent becomes `None`).
/// This is how long-running services keep per-request span trees out of
/// the ever-growing global capture: close the request's root span, then
/// take its tree into a bounded ring. Call only after the tree has
/// fully closed; a span still being recorded concurrently into the
/// subtree may be missed (it becomes a root in the next capture).
pub fn take_tree(ctx: SpanContext) -> Vec<SpanRecord> {
    let shards = shard::all();
    // Pass 1: membership. Ids sort topologically, so one forward scan
    // over (id, parent) pairs closes the descendant set.
    let mut pairs: Vec<(u64, Option<u64>)> = Vec::new();
    for sh in &shards {
        let data = sh.lock();
        pairs.extend(data.spans.iter().map(|s| (s.id, s.parent)));
    }
    pairs.sort_unstable_by_key(|&(id, _)| id);
    let mut keep: BTreeSet<u64> = BTreeSet::new();
    for (id, parent) in pairs {
        if id == ctx.id || parent.is_some_and(|p| keep.contains(&p)) {
            keep.insert(id);
        }
    }
    if keep.is_empty() {
        return Vec::new();
    }
    // Pass 2: extraction, one shard at a time.
    let mut taken: Vec<(u64, SpanSlot)> = Vec::new();
    for sh in &shards {
        let mut data = sh.lock();
        if data.spans.iter().all(|s| !keep.contains(&s.id)) {
            continue;
        }
        let mut remaining = Vec::with_capacity(data.spans.len());
        for slot in std::mem::take(&mut data.spans) {
            if keep.contains(&slot.id) {
                taken.push((sh.seq, slot));
            } else {
                remaining.push(slot);
            }
        }
        data.spans = remaining;
    }
    merge_slots(taken)
}

/// Clears the calling thread's nesting stack (part of [`crate::reset`]):
/// spans still open across a reset must not parent post-reset spans.
/// The published stack view is emptied too — but only when this thread
/// already has a shard, and only its own view: other threads' views are
/// single-writer and stale entries there resolve against name tables
/// that survive resets.
pub(crate) fn reset_local_stack() {
    STACK.with(|s| s.borrow_mut().clear());
    shard::try_local(|sh| sh.stack.publish(&[]));
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
    fn worker_publishes_its_logical_parents_path() {
        let _g = test_guard();
        crate::reset();
        // What the sampler would fold for the calling thread right now.
        fn live_path() -> String {
            shard::with_local(|s| match s.stack.read(&mut Vec::new()) {
                shard::StackRead::Ok { frames, .. } => s.resolve_path(&frames),
                shard::StackRead::Torn => "torn".to_string(),
            })
        }
        let _root = Span::enter("pipeline");
        let stage = Span::enter("route.fib");
        let ctx = stage.context();
        std::thread::spawn(move || {
            let w = Span::enter_with_parent("exec.fib", ctx);
            assert_eq!(live_path(), "pipeline;route.fib;exec.fib");
            let inner = Span::enter("fib.device");
            assert_eq!(live_path(), "pipeline;route.fib;exec.fib;fib.device");
            // A fan-out from the worker carries the whole path on.
            let nested = inner.context();
            assert_eq!(shard::path(nested.path), "pipeline;route.fib;exec.fib;fib.device");
            drop(inner);
            drop(w);
            assert_eq!(live_path(), "", "inherited frames leave with the last real one");
        })
        .join()
        .expect("worker thread");
        // The spawning thread's own view never changed shape.
        assert_eq!(live_path(), "pipeline;route.fib");
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
