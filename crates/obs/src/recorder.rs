//! The recorder: everything a run records, one value behind one lock.
//!
//! Spans sit in one list in open order (a span's id is its push order,
//! so the list is sorted by id and a parent always precedes its
//! children), next to one metric map, one event list, the run epoch and
//! — per OS thread that has a span open, keyed by its `tid` — the stack
//! of span ids still open there. A thread's `tid` is drawn once from a
//! process counter; its stack leaves the table when its last open span
//! closes, so threads that come and go (scoped map helpers, one per map
//! call) leave nothing behind. Every recording call takes the
//! one lock for a few map or vector operations. That is cheap because
//! spans wrap *stages*, not inner loops: the yardstick measures 12
//! spans per ≈410 ms `verify-n7` answer and ≈10 recorder calls per
//! served request (≈10³ lock acquisitions a second at 70 req/s).
//!
//! A worker's span names its logical parent by id in this same list, so
//! its path in the captured forest *is* its parent chain, whichever
//! thread recorded it.
//!
//! Ids are never reused — [`Recorder::reset`] carries `next_id` over —
//! so a [`crate::Span`] or [`crate::SpanContext`] from before a reset
//! (or a [`Recorder::take_tree`]) simply finds nothing: its close is a
//! no-op and its children become roots.

use crate::clock;
use crate::metrics::{Event, MetricValue};
use crate::span::SpanRecord;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One span as stored: parent links are ids, not indices, so removing
/// a request's tree never renumbers what stays.
#[derive(Default)]
struct Slot {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    dur_ns: Option<u64>,
    tid: u64,
}

pub(crate) struct Recorder {
    epoch: Instant,
    next_id: u64,
    /// Sorted by id (push order; removal keeps order).
    spans: Vec<Slot>,
    /// `tid` → the ids open on that thread, innermost last; only
    /// threads with a span open have an entry.
    open: BTreeMap<u64, Vec<u64>>,
    pub metrics: BTreeMap<String, MetricValue>,
    pub events: Vec<Event>,
    pub events_dropped: u64,
}

/// The calling OS thread's `tid`: a number drawn once per thread from
/// a process counter, so it is never reused while the process lives.
fn thread_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|tid| *tid)
}

/// Locks the process's recorder, recovering from poisoning: a panic on
/// some thread mid-record must never disable telemetry for the rest of
/// the process (serve workers run under `catch_unwind`).
pub(crate) fn lock() -> MutexGuard<'static, Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER
        .get_or_init(|| Mutex::new(Recorder::starting_at(0)))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

impl Recorder {
    fn starting_at(next_id: u64) -> Recorder {
        Recorder {
            epoch: clock::now(),
            next_id,
            spans: Vec::new(),
            open: BTreeMap::new(),
            metrics: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
        }
    }

    /// Forgets everything recorded and restarts the run epoch.
    pub fn reset(&mut self) {
        *self = Recorder::starting_at(self.next_id);
    }

    /// Nanoseconds from the run epoch to `at`.
    pub fn run_ns(&self, at: Instant) -> u64 {
        let d = at.saturating_duration_since(self.epoch);
        d.as_nanos().min(u64::MAX as u128) as u64
    }

    /// Opens a span on the calling thread, under `parent` or else under
    /// the innermost span open there. Returns its id and the thread's
    /// `tid`.
    pub fn open(&mut self, name: String, parent: Option<u64>, start: Instant) -> (u64, u64) {
        let tid = thread_tid();
        let id = self.next_id;
        self.next_id += 1;
        let stack = self.open.entry(tid).or_default();
        let parent = parent.or(stack.last().copied());
        stack.push(id);
        let start_ns = self.run_ns(start);
        self.spans.push(Slot {
            id,
            parent,
            name,
            start_ns,
            dur_ns: None,
            tid,
        });
        (id, tid)
    }

    /// Closes span `id` of thread `tid`; a no-op for a span a reset or
    /// a `take_tree` already removed.
    pub fn close(&mut self, id: u64, tid: u64, dur_ns: u64) {
        if let Some(stack) = self.open.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&open| open == id) {
                stack.remove(pos);
            }
            if stack.is_empty() {
                self.open.remove(&tid);
            }
        }
        if let Some(i) = self.find(id) {
            self.spans[i].dur_ns = Some(dur_ns);
        }
    }

    fn find(&self, id: u64) -> Option<usize> {
        self.spans.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Every recorded span as the flat, index-parented list all
    /// consumers (report, attr, trace) work on.
    pub fn records(&self) -> Vec<SpanRecord> {
        to_records(&self.spans)
    }

    /// Removes the subtree rooted at `root` and returns it re-rooted.
    /// One forward pass: parents precede children, so a span belongs
    /// exactly when it is the root or its parent already went.
    pub fn take_tree(&mut self, root: u64) -> Vec<SpanRecord> {
        let mut taken: Vec<Slot> = Vec::new();
        self.spans.retain_mut(|s| {
            let goes = s.id == root
                || s.parent
                    .is_some_and(|p| taken.binary_search_by_key(&p, |t| t.id).is_ok());
            if goes {
                taken.push(std::mem::take(s));
            }
            !goes
        });
        to_records(&taken)
    }
}

/// Parent ids become indices into the same slice; a parent outside it
/// (reset away, or left behind by `take_tree`) makes the span a root.
fn to_records(slots: &[Slot]) -> Vec<SpanRecord> {
    slots
        .iter()
        .map(|s| SpanRecord {
            name: s.name.clone(),
            parent: s
                .parent
                .and_then(|p| slots.binary_search_by_key(&p, |t| t.id).ok()),
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            tid: s.tid,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{test_guard, Span};

    #[test]
    fn threads_that_come_and_go_leave_the_thread_table_empty() {
        let _g = test_guard();
        crate::reset();
        for _ in 0..10_000 {
            std::thread::spawn(|| drop(Span::enter("short-lived")))
                .join()
                .expect("short-lived thread");
        }
        assert!(lock().open.is_empty(), "a finished thread kept its entry");
    }
}
