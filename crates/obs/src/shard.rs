//! The sharded recorder backbone: one telemetry shard per OS thread.
//!
//! Every recording call (`Span::enter`/close, `counter_add`, `observe`,
//! `event`) touches only its own thread's shard — an uncontended
//! `Mutex` reached through a `thread_local!` handle — so concurrent
//! workers never serialize on a global lock. The global pieces are all
//! lock-free on the hot path: the run epoch is an atomic nanosecond
//! offset, span identities come from one atomic counter, and the shard
//! registry's mutex is taken only on first use per thread and at
//! capture/reset time.
//!
//! `capture()` performs the deterministic merge: every shard is locked
//! briefly (one at a time), cloned, and the pieces are combined in a
//! stable order — spans by their globally unique open sequence, metrics
//! name-wise (counters sum, histograms add bucket-wise, gauges resolve
//! by write stamp), events by timestamp with shard registration order
//! as the tie-break. A single-threaded run has exactly one shard, so
//! the merge is the identity and reports stay byte-identical with the
//! pre-sharding recorder.
//!
//! Shards are owned by `Arc` from the registry, so a worker thread that
//! exits before capture leaves its recorded data behind for the merge
//! (the thread-local handle only drops its own reference).

use crate::clock;
use crate::metrics::{Event, MetricSlot};
use crate::span::SpanSlot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Everything one thread records between resets.
#[derive(Default)]
pub(crate) struct ShardData {
    /// Spans in open order (closing rewrites `dur_ns` in place).
    pub spans: Vec<SpanSlot>,
    /// This thread's slice of the metrics registry.
    pub metrics: BTreeMap<String, MetricSlot>,
    /// This thread's events, capped per shard.
    pub events: Vec<Event>,
    /// Events beyond the per-shard retention cap.
    pub events_dropped: u64,
    /// Span-name → interned id, consulted under the data lock every
    /// span open already takes. Never cleared on reset: name ids stay
    /// stable for the life of the shard so a sampler snapshot taken
    /// across a reset still resolves.
    pub name_ids: BTreeMap<String, u32>,
}

/// Frames retained in a [`StackView`] snapshot. Deeper stacks publish
/// their depth honestly and truncate the frames; the sampler counts
/// them (`truncated` in the profile) rather than losing them silently.
pub(crate) const STACK_VIEW_FRAMES: usize = 64;

/// Outcome of one lock-free stack read.
pub(crate) enum StackRead {
    /// A consistent snapshot: interned frame ids, root first, plus
    /// whether the live stack was deeper than the view retains.
    Ok { frames: Vec<u32>, truncated: bool },
    /// The writer kept racing the reader past the retry budget. The
    /// sampler accounts this as a dropped sample — never silent.
    Torn,
}

/// A seqlock snapshot of one thread's live open-span stack. The owning
/// thread is the only writer, so publication needs no lock: bump the
/// generation to odd, store the frames (each an interned name id),
/// bump back to even. Readers (the sampler thread) retry while the
/// generation is odd or moves, so the span hot path pays two relaxed
/// `fetch_add`s and a handful of relaxed stores — no shared lock, no
/// waiting on the sampler.
pub(crate) struct StackView {
    generation: AtomicU64,
    depth: AtomicUsize,
    frames: [AtomicU32; STACK_VIEW_FRAMES],
}

impl Default for StackView {
    fn default() -> StackView {
        StackView {
            generation: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

impl StackView {
    /// Publishes the current stack (root first). Called only from the
    /// shard's owning thread — the single-writer seqlock invariant.
    pub fn publish(&self, frames: &[u32]) {
        // Odd generation: snapshot in flight. The acquire half keeps
        // the frame stores from floating above this increment.
        self.generation.fetch_add(1, Ordering::AcqRel);
        self.depth.store(frames.len(), Ordering::Relaxed);
        for (slot, &f) in self.frames.iter().zip(frames) {
            slot.store(f, Ordering::Relaxed);
        }
        // Even again: snapshot complete. Release keeps the stores above.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// One consistent read, bounded retries. Reuses `scratch` so a
    /// steady-state sampler allocates nothing per shard per tick.
    pub fn read(&self, scratch: &mut Vec<u32>) -> StackRead {
        for _ in 0..8 {
            let before = self.generation.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed);
            let take = depth.min(STACK_VIEW_FRAMES);
            scratch.clear();
            for slot in &self.frames[..take] {
                scratch.push(slot.load(Ordering::Relaxed));
            }
            std::sync::atomic::fence(Ordering::Acquire);
            if self.generation.load(Ordering::Relaxed) == before {
                return StackRead::Ok {
                    frames: scratch.clone(),
                    truncated: depth > STACK_VIEW_FRAMES,
                };
            }
        }
        StackRead::Torn
    }
}

/// One thread's shard: its registration sequence (the stable `tid` in
/// merged records and exported traces) plus the data behind an
/// uncontended lock.
pub(crate) struct Shard {
    /// Registration order, dense from 0. The merge and the Chrome-trace
    /// exporter use it as the OS-thread identity.
    pub seq: u64,
    data: Mutex<ShardData>,
    /// Interned-id → span-name table, appended on first use of a name
    /// (under the data lock, so the lock order is always data → names)
    /// and read by the sampler to resolve snapshot frames.
    names: Mutex<Vec<String>>,
    /// The live open-span stack, lock-free-readable.
    pub stack: StackView,
}

impl Shard {
    /// Locks this shard's data, recovering from poisoning: a panic on
    /// some thread mid-record must never disable telemetry for the
    /// rest of the process (serve workers run under `catch_unwind`).
    pub fn lock(&self) -> MutexGuard<'_, ShardData> {
        self.data.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Interns `name` for stack-view frames. Callers already hold the
    /// data lock (span open); the names lock is only taken for a name
    /// this shard has never seen.
    pub fn intern(&self, data: &mut ShardData, name: &str) -> u32 {
        if let Some(&id) = data.name_ids.get(name) {
            return id;
        }
        let mut names = self.names.lock().unwrap_or_else(|e| e.into_inner());
        let id = names.len() as u32;
        names.push(name.to_string());
        drop(names);
        data.name_ids.insert(name.to_string(), id);
        id
    }

    /// Resolves interned frame ids to a `;`-joined span-name path (the
    /// same key shape as `attr::path_totals`). Unknown ids — impossible
    /// unless a snapshot tears undetected — render as `?<id>` rather
    /// than being dropped.
    pub fn resolve_path(&self, frames: &[u32]) -> String {
        let names = self.names.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (i, &f) in frames.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            match names.get(f as usize) {
                Some(n) => out.push_str(n),
                None => {
                    out.push('?');
                    let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{f}"));
                }
            }
        }
        out
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Shard>>> {
    static R: OnceLock<Mutex<Vec<Arc<Shard>>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(Vec::new()))
}

fn registry_lock() -> MutexGuard<'static, Vec<Arc<Shard>>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Process-wide table of `;`-joined span paths, so a `Copy`
/// [`crate::SpanContext`] can carry its span's ancestry to another
/// thread as one integer. Entry 0 is the empty path. The table only
/// grows, and only by the distinct paths work fans out from (a handful
/// per pipeline), so lookup is a linear scan.
fn paths_lock() -> MutexGuard<'static, Vec<String>> {
    static P: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    P.get_or_init(|| Mutex::new(vec![String::new()]))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Interns `path`, returning its stable id.
pub(crate) fn intern_path(path: &str) -> u32 {
    let mut paths = paths_lock();
    let pos = paths.iter().position(|p| p == path).unwrap_or_else(|| {
        paths.push(path.to_string());
        paths.len() - 1
    });
    pos as u32
}

/// The path interned as `id` (empty for an id never handed out).
pub(crate) fn path(id: u32) -> String {
    paths_lock().get(id as usize).cloned().unwrap_or_default()
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Shard>> = const { std::cell::OnceCell::new() };
}

/// Runs `f` on the calling thread's shard, registering it on first use.
pub(crate) fn with_local<R>(f: impl FnOnce(&Arc<Shard>) -> R) -> R {
    LOCAL.with(|cell| {
        let shard = cell.get_or_init(|| {
            let mut reg = registry_lock();
            let shard = Arc::new(Shard {
                seq: reg.len() as u64,
                data: Mutex::new(ShardData::default()),
                names: Mutex::new(Vec::new()),
                stack: StackView::default(),
            });
            reg.push(Arc::clone(&shard));
            shard
        });
        f(shard)
    })
}

/// Runs `f` on the calling thread's shard only if one is already
/// registered — the stack-view reset path uses this so resetting the
/// recorder from a thread that never recorded doesn't mint a shard.
pub(crate) fn try_local<R>(f: impl FnOnce(&Arc<Shard>) -> R) -> Option<R> {
    LOCAL.with(|cell| cell.get().map(f))
}

/// A snapshot of every registered shard, in registration order.
pub(crate) fn all() -> Vec<Arc<Shard>> {
    registry_lock().clone()
}

/// Clears every shard's data (the registry itself is kept: threads stay
/// registered, their next record simply starts a fresh window).
pub(crate) fn reset_all() {
    for shard in all() {
        let mut data = shard.lock();
        data.spans.clear();
        data.metrics.clear();
        data.events.clear();
        data.events_dropped = 0;
    }
}

fn process_epoch() -> Instant {
    static E: OnceLock<Instant> = OnceLock::new();
    *E.get_or_init(clock::now)
}

static RUN_OFFSET_NS: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds from the current run epoch to `at`. Lock-free: the run
/// epoch is an atomic offset from a fixed process epoch.
pub(crate) fn run_ns(at: Instant) -> u64 {
    let since_process = at
        .saturating_duration_since(process_epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    since_process.saturating_sub(RUN_OFFSET_NS.load(Ordering::Relaxed))
}

/// Restarts the run epoch at "now".
pub(crate) fn reset_epoch() {
    let since_process = clock::now()
        .saturating_duration_since(process_epoch())
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    RUN_OFFSET_NS.store(since_process, Ordering::Relaxed);
}
