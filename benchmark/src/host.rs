//! The host block printed with every run, the calibration kernel, and
//! the process's own memory high-water mark.

use batnet::bdd::{Bdd, NodeId};

/// Pool width of every benchmark process: `min(nproc, 4)`.
pub fn pool_width() -> usize {
    batnet_exec::default_threads().min(4)
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed BDD kernel: 20,000 pseudo-random /20–/28 prefix cubes over 32
/// variables in a fresh manager, OR-ed into 16 buckets that are then
/// combined pairwise with AND, OR and DIFF. Identical work on every
/// call, so a change between two calls is the machine, not the code
/// under test. Returns the median of three runs in milliseconds; raw
/// metrics are never normalised by it.
pub fn calib_ms() -> f64 {
    let runs: Vec<f64> = (0..3).map(|_| calib_kernel_ms()).collect();
    crate::stats::median(&runs)
}

fn calib_kernel_ms() -> f64 {
    let t = batnet::obs::now();
    let mut bdd = Bdd::new(32);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut buckets = [NodeId::FALSE; 16];
    for i in 0..20_000usize {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let value = state >> 32;
        let fixed = 20 + ((state >> 8) % 9) as u32;
        let cube = bdd.prefix_cube(0, 32, value, fixed);
        buckets[i % 16] = bdd.or(buckets[i % 16], cube);
    }
    let mut acc = NodeId::FALSE;
    for pair in buckets.chunks(2) {
        let both = bdd.and(pair[0], pair[1]);
        let either = bdd.or(pair[0], pair[1]);
        let only_one = bdd.diff(either, both);
        acc = bdd.or(acc, only_one);
    }
    std::hint::black_box((acc, bdd.node_count()));
    t.elapsed().as_secs_f64() * 1e3
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One line identifying the machine, the build and the run.
pub fn host_line(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // The driver's checkout is not a git repository: "none" there.
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "none".to_string());
    format!(
        "host: nproc={} cpu=\"{cpu}\" pool_width={} {rustc} commit={commit} seed={seed}",
        batnet_exec::default_threads(),
        pool_width(),
    )
}
