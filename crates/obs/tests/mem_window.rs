//! `MemWindow` reads process-global counters, so its one test has this
//! binary to itself: no other test thread allocates or frees inside the
//! window. Run it with `--features alloc-track` to count anything.

use batnet_obs::mem::{MemStats, MemWindow};

#[test]
fn window_accounting_is_consistent() {
    const HELD: usize = 1 << 20;
    const DROPPED: usize = 1 << 23;
    let w = MemWindow::open();
    let held: Vec<u8> = vec![7u8; HELD];
    let dropped: Vec<u8> = vec![9u8; DROPPED];
    drop(dropped);
    let stats = w.close();
    drop(held);
    if cfg!(feature = "alloc-track") {
        // Peak saw both buffers; the delta only the retained one.
        assert!(stats.peak_bytes >= (HELD + DROPPED) as u64, "{stats:?}");
        assert!(stats.delta_bytes >= HELD as i64, "{stats:?}");
        assert!(stats.delta_bytes < DROPPED as i64, "{stats:?}");
    } else {
        assert_eq!(stats, MemStats::default());
    }
}
