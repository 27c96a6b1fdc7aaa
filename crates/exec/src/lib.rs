//! `batnet-exec`: the width the pipeline's parallel joints run at, and
//! the one map they run through — helpers spawned with
//! `std::thread::scope` for the length of a call: no resident workers,
//! no queue, no `unsafe`. The three joints that measure a gain at two
//! threads (BGP colour-group sweeps and per-device FIB build in
//! `batnet-routing`, the fixed reach shards in `batnet-dataplane`) each
//! make one [`Pool::map`] (or [`Pool::map_mut`], which is one). The
//! contract they lean on: results come back in input order, placed by
//! the index each claimant took from one atomic cursor; width 1 runs
//! every item inline on the caller, the sequential code path by
//! construction; every item runs before the first panic in input order
//! is re-raised with its payload.

#![forbid(unsafe_code)]

use batnet_obs::SpanContext;
use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The process-wide width; 0 until configured or first read.
static WIDTH: AtomicUsize = AtomicUsize::new(0);

/// The width a `0`/unspecified thread request resolves to: every core
/// the OS reports.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Sets the process-wide width (`0` = all cores). Every later
/// [`current`] outside a [`with_pool`] override maps at this width.
pub fn configure_threads(threads: usize) {
    let width = match threads {
        0 => default_threads(),
        n => n,
    };
    WIDTH.store(width, Relaxed);
}

/// The process-wide pool: the configured width (all cores if never
/// configured) and one shared helper-item counter.
fn global() -> Pool {
    static STEALS: OnceLock<Arc<AtomicU64>> = OnceLock::new();
    if WIDTH.load(Relaxed) == 0 {
        // Resolve the default once; a concurrent configure wins.
        let _ = WIDTH.compare_exchange(0, default_threads(), Relaxed, Relaxed);
    }
    Pool {
        threads: WIDTH.load(Relaxed),
        steals: Arc::clone(STEALS.get_or_init(Arc::default)),
    }
}

thread_local! {
    static OVERRIDE: RefCell<Vec<Pool>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `pool` installed as the calling thread's pool:
/// [`current`] inside `f` (same thread) resolves to it instead of the
/// global pool. Overrides nest and restore on unwind. This is how the
/// determinism tests sweep thread counts inside one process.
pub fn with_pool<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.borrow_mut().pop());
        }
    }
    OVERRIDE.with(|o| o.borrow_mut().push(pool.clone()));
    let _restore = Restore;
    f()
}

/// The pool the calling thread should use: the innermost [`with_pool`]
/// override, else the process-wide pool. Cheap (an `Arc` clone).
pub fn current() -> Pool {
    OVERRIDE
        .with(|o| o.borrow().last().cloned())
        .unwrap_or_else(global)
}

/// Options for one map call.
#[derive(Clone, Copy, Default)]
pub struct MapOptions {
    /// When set, each *helper* thread that runs an item opens one span
    /// with this name under the given context for the rest of its share.
    /// The calling thread opens none: the caller's span already covers it.
    pub span: Option<(&'static str, SpanContext)>,
}

/// A snapshot of pool counters for the benchmark and tests.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Items run by helper threads rather than by the calling thread.
    pub steals: u64,
}

/// A map width. Cheap to clone and holds no threads: each map spawns
/// its helpers and joins them before returning.
#[derive(Clone)]
pub struct Pool {
    threads: usize,
    steals: Arc<AtomicU64>,
}

impl Pool {
    /// A pool of width `threads` (`0` is treated as 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            steals: Arc::default(),
        }
    }

    /// The width: threads a map runs on, the caller included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            steals: self.steals.load(Relaxed),
        }
    }

    /// Maps `f` over `items`, returning results in input order. Every
    /// item runs; then the first panic in input order is re-raised on
    /// the caller, mirroring `std::thread::scope`.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        self.map_opts(items, MapOptions::default(), f)
    }

    /// [`Pool::map`] over items the map may change in place: each item
    /// goes to exactly one call of `f`.
    pub fn map_mut<T: Send, R: Send>(&self, items: &mut [T], f: impl Fn(&mut T) -> R + Sync) -> Vec<R> {
        // One claimant per slot, so no lock is ever contended: it only
        // carries the `&mut` to whichever thread claims the item.
        let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        self.map(&slots, |slot| f(&mut slot.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// [`Pool::map`] with explicit [`MapOptions`] (helper spans).
    pub fn map_opts<T: Sync, R: Send>(
        &self,
        items: &[T],
        opts: MapOptions,
        f: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        // The cursor hands each index out once; it publishes nothing
        // else, because results travel back through `join`.
        let next = AtomicUsize::new(0);
        let claim = |span: Option<(&'static str, SpanContext)>| {
            let (mut done, mut share) = (Vec::new(), None);
            loop {
                let i = next.fetch_add(1, Relaxed);
                let Some(item) = items.get(i) else { break };
                if share.is_none() {
                    share = span.map(|(name, ctx)| batnet_obs::Span::enter_with_parent(name, ctx));
                }
                done.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
            }
            done
        };
        let helpers = self.threads.min(items.len()).saturating_sub(1);
        let mut done = std::thread::scope(|s| {
            // A helper the OS refuses is no error: the caller's own
            // claim loop takes its share.
            let spawn = || std::thread::Builder::new().spawn_scoped(s, || claim(opts.span));
            let spawned: Vec<_> = (0..helpers).filter_map(|_| spawn().ok()).collect();
            let mut done = claim(None);
            for helper in spawned {
                let theirs = helper.join().unwrap_or_else(|p| resume_unwind(p));
                self.steals.fetch_add(theirs.len() as u64, Relaxed);
                done.extend(theirs);
            }
            done
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        let unwrap =
            |(_, r): (usize, std::thread::Result<R>)| r.unwrap_or_else(|p| resume_unwind(p));
        done.into_iter().map(unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Barrier;

    #[test]
    fn map_preserves_input_order_across_widths() {
        for len in [57u64, 3] {
            let items: Vec<u64> = (0..len).collect();
            let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            for threads in [1, 2, 4, 7] {
                let got = Pool::new(threads).map(&items, |x| x * 3 + 1);
                assert_eq!(got, expect, "threads={threads} items={len}");
            }
        }
    }

    #[test]
    fn every_item_runs_then_the_first_panic_in_input_order_is_reraised() {
        let items: Vec<u32> = (0..8).collect();
        for threads in [1, 4] {
            let hits = AtomicUsize::new(0);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                Pool::new(threads).map(&items, |&x| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    assert!(x != 3 && x != 6, "boom at {x}");
                    x
                })
            }))
            .expect_err("item 3 panicked");
            assert_eq!(
                hits.load(Ordering::SeqCst),
                8,
                "threads={threads}: a torn run"
            );
            let detail = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(detail, "boom at 3", "threads={threads}");
        }
    }

    #[test]
    fn map_mut_changes_each_item_once_and_keeps_input_order() {
        for threads in [1, 2, 4] {
            let mut items: Vec<u64> = (0..57).collect();
            let before = Pool::new(threads).map_mut(&mut items, |x| {
                let was = *x;
                *x = was * 3 + 1;
                was
            });
            assert_eq!(before, (0..57).collect::<Vec<u64>>(), "threads={threads}");
            assert!(items.iter().zip(0..).all(|(x, i)| *x == i * 3 + 1), "threads={threads}");
        }
    }

    #[test]
    fn width_one_runs_on_the_caller() {
        let pool = Pool::new(1);
        let caller = std::thread::current().id();
        let ids = pool.map(&[0u8, 1, 2], |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        assert_eq!(pool.stats().steals, 0);
    }

    #[test]
    fn a_map_nested_in_a_map_item_completes() {
        let pool = Pool::new(2);
        let sums = pool.map(&[1u32, 2, 3, 4], |&k| {
            pool.map(&[1u32, 2, 3, 4, 5], |x| x * k)
                .into_iter()
                .sum::<u32>()
        });
        assert_eq!(sums, vec![15, 30, 45, 60]);
    }

    #[test]
    fn steals_count_helper_items_and_helpers_span_under_the_caller() {
        // Two items that each wait for the other's thread: the caller
        // must run one and the one helper the other.
        let pool = Pool::new(2);
        let both = Barrier::new(2);
        let root = batnet_obs::Span::enter("exec.test.root");
        let opts = MapOptions {
            span: Some(("exec.test.helper", root.context())),
        };
        pool.map_opts(&[0u8, 1], opts, |_| {
            both.wait();
        });
        drop(root);
        assert_eq!(pool.stats().steals, 1);
        let spans = batnet_obs::capture().spans;
        let helper: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "exec.test.helper")
            .collect();
        assert_eq!(helper.len(), 1, "one span per helper, none for the caller");
        let parent = helper[0].parent.map(|p| spans[p].name.as_str());
        assert_eq!(parent, Some("exec.test.root"));
    }

    #[test]
    fn with_pool_overrides_current_and_restores() {
        let a = Pool::new(1);
        let b = Pool::new(3);
        assert_eq!(with_pool(&a, || current().threads()), 1);
        let nested = with_pool(&a, || with_pool(&b, || current().threads()));
        assert_eq!(nested, 3);
        assert_eq!(with_pool(&a, || current().threads()), 1);
    }

    #[test]
    fn configure_threads_sets_the_width_current_reads() {
        configure_threads(3);
        assert_eq!(current().threads(), 3);
        configure_threads(0);
        assert_eq!(current().threads(), default_threads());
    }
}
