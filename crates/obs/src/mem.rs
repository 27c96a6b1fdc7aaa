//! Memory accounting: a counting global allocator and windowed
//! peak/delta measurement, plus the two allocator controls a
//! long-running server uses to keep its resident size close to its live
//! data ([`map_large_blocks`], [`release_free_heap`]).
//!
//! Behind the `alloc-track` feature (std-only) this module installs a
//! [`CountingAlloc`] as the global allocator: every allocation and
//! deallocation updates two relaxed atomics (current live bytes and the
//! high-water mark), so the overhead is two uncontended atomic ops per
//! heap call — cheap enough to leave on for the bench harness, which
//! enables the feature. Without the feature every accessor returns 0 and
//! [`MemWindow`] measures nothing, so library code can call these
//! unconditionally.
//!
//! **Caveats** (also in DESIGN.md §5d): the counters are process-global,
//! so a [`MemWindow`] sees allocations from *all* threads, and windows
//! must not nest — [`MemWindow::open`] resets the shared high-water mark,
//! so an inner window would truncate the outer window's peak. The bench
//! harness opens windows only around sequential top-level stages;
//! library code records plain [`current_bytes`] deltas instead.

#[cfg(feature = "alloc-track")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    static CURRENT: AtomicU64 = AtomicU64::new(0);
    static PEAK: AtomicU64 = AtomicU64::new(0);

    fn add(n: usize) {
        let cur = CURRENT.fetch_add(n as u64, Relaxed) + n as u64;
        PEAK.fetch_max(cur, Relaxed);
    }

    fn sub(n: usize) {
        CURRENT.fetch_sub(n as u64, Relaxed);
    }

    /// The counting allocator: delegates to [`System`] and keeps live /
    /// peak byte counts.
    pub struct CountingAlloc;

    // SAFETY: delegates verbatim to `System`; the accounting never
    // touches the returned pointers.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc_zeroed(layout);
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            sub(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                sub(layout.size());
                add(new_size);
            }
            p
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    pub fn current_bytes() -> u64 {
        CURRENT.load(Relaxed)
    }

    pub fn peak_bytes() -> u64 {
        PEAK.load(Relaxed)
    }

    pub fn reset_peak() {
        PEAK.store(CURRENT.load(Relaxed), Relaxed);
    }
}

/// Whether the counting allocator is compiled in.
#[cfg(test)]
fn enabled() -> bool {
    cfg!(feature = "alloc-track")
}

/// Live heap bytes right now (0 without `alloc-track`).
pub fn current_bytes() -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::current_bytes()
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        0
    }
}

/// High-water mark since process start or the last [`reset_peak`]
/// (0 without `alloc-track`).
pub fn peak_bytes() -> u64 {
    #[cfg(feature = "alloc-track")]
    {
        imp::peak_bytes()
    }
    #[cfg(not(feature = "alloc-track"))]
    {
        0
    }
}

/// Restarts the high-water mark at the current live count.
pub fn reset_peak() {
    #[cfg(feature = "alloc-track")]
    imp::reset_peak();
}

/// glibc's allocator controls (`mallopt`, `malloc_trim`). Elsewhere the
/// two functions below do nothing.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    use std::os::raw::c_int;

    extern "C" {
        pub fn mallopt(param: c_int, value: c_int) -> c_int;
        pub fn malloc_trim(pad: usize) -> c_int;
    }

    /// `M_MMAP_THRESHOLD` in `<malloc.h>`.
    pub const M_MMAP_THRESHOLD: c_int = -3;
    /// glibc's own starting threshold (`DEFAULT_MMAP_THRESHOLD_MIN`).
    pub const MMAP_THRESHOLD: c_int = 128 * 1024;
}

/// Keeps the heap from holding on to large freed blocks, for a process
/// that runs analyses one after another for as long as it lives (the
/// server). Allocations of 128 KiB and up then always get their own
/// mapping, and each is unmapped again when it is freed. By default
/// glibc raises that threshold to the size of every such block freed
/// (up to 32 MiB), and later blocks below it come from the arenas and
/// stay there.
/// Call once at start-up; the setting is process-wide.
pub fn map_large_blocks() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` only sets an allocator parameter under the
    // allocator's own lock.
    unsafe {
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, glibc::MMAP_THRESHOLD);
    }
}

/// Hands the heap's free pages back to the kernel. glibc keeps what a
/// thread frees in that thread's arena; a served analysis frees ≈100 MB
/// across whichever arenas its pool helpers drew. Call it after
/// dropping a large transient, never on a hot path.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes each arena's own lock and releases
    // only pages no allocation occupies; live pointers stay valid.
    unsafe {
        glibc::malloc_trim(0);
    }
}

/// Peak/delta numbers for one closed [`MemWindow`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Peak bytes above the window's starting live count.
    pub peak_bytes: u64,
    /// Bytes retained at close minus bytes live at open (negative when
    /// the window freed more than it allocated).
    pub delta_bytes: i64,
}

/// One measurement window over the global counters. Open around a
/// pipeline stage, close to get that stage's peak and retained delta.
/// Windows must be sequential, never nested (see the module docs).
pub struct MemWindow {
    start: u64,
}

impl MemWindow {
    /// Opens a window: resets the high-water mark to the current live
    /// count and remembers it as the baseline.
    pub fn open() -> MemWindow {
        reset_peak();
        MemWindow {
            start: current_bytes(),
        }
    }

    /// Closes the window and returns its peak/delta accounting.
    pub fn close(self) -> MemStats {
        MemStats {
            peak_bytes: peak_bytes().saturating_sub(self.start),
            delta_bytes: current_bytes() as i64 - self.start as i64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_accessors_are_zero_without_feature() {
        if !enabled() {
            assert_eq!(current_bytes(), 0);
            assert_eq!(peak_bytes(), 0);
        }
        reset_peak(); // must be callable either way
    }
}
