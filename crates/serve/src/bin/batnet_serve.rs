//! batnet-serve: run the analysis service.
//!
//! ```text
//! usage: batnet-serve [OPTIONS]
//!
//! Serve analysis queries over HTTP/1.1 until a client POSTs /admin/shutdown.
//! Exit 0 drained, 1 bind failure, 2 usage error.
//!
//! options:
//!   --addr HOST:PORT    bind address (default 127.0.0.1:0 = ephemeral loopback port)
//!   --threads N         width of the parallel joints (0 or omitted = all cores)
//!   --queue-depth N     accepted-connection queue depth; beyond it, 503 + Retry-After
//!   --io-timeout-ms N   socket read/write timeout, the slow-loris watchdog
//!   --deadline-ms N     governor deadline applied when a request names none
//!   --store-capacity N  warm snapshots held before eviction
//!   --prewarm IDS       comma-separated suite networks analyzed into the store before ready
//!   --trace-ring N      recent request traces retained for GET /tracez (default 256)
//!   --trace-seed N      seed for the deterministic X-Batnet-Trace-Id stream
//!   --access-log        one JSON line per request on stderr
//!   --help              print this help and exit
//! ```
//!
//! Binds, prewarms, prints the address, and serves until a client POSTs
//! `/admin/shutdown`. The end-to-end sequence CI drives against it is
//! `tests/smoke.rs`.

use batnet_obs::flags::{self, Cli, Flag};
use batnet_serve::{AccessLog, ServeConfig};
use std::process::ExitCode;

static CLI: Cli = Cli {
    bin: "batnet-serve",
    about: "Serve analysis queries over HTTP/1.1 until a client POSTs /admin/shutdown.\n\
            Exit 0 drained, 1 bind failure, 2 usage error.",
    positional: "",
    flags: &[
        Flag::text("--addr", "HOST:PORT", "bind address (default 127.0.0.1:0 = ephemeral loopback port)"),
        flags::THREADS,
        Flag::uint("--queue-depth", "accepted-connection queue depth; beyond it, 503 + Retry-After"),
        Flag::uint("--io-timeout-ms", "socket read/write timeout, the slow-loris watchdog"),
        Flag::uint("--deadline-ms", "governor deadline applied when a request names none"),
        Flag::uint("--store-capacity", "warm snapshots held before eviction"),
        Flag::text("--prewarm", "IDS", "comma-separated suite networks analyzed into the store before ready"),
        Flag::uint("--trace-ring", "recent request traces retained for GET /tracez (default 256)"),
        Flag::uint("--trace-seed", "seed for the deterministic X-Batnet-Trace-Id stream"),
        Flag::switch("--access-log", "one JSON line per request on stderr"),
    ],
};

fn main() -> ExitCode {
    CLI.main(|args| {
        batnet_exec::configure_threads(args.num("--threads").unwrap_or(0));
        let d = ServeConfig::default();
        let cfg = ServeConfig {
            addr: args.text("--addr").map_or(d.addr, str::to_string),
            queue_depth: args.num("--queue-depth").unwrap_or(d.queue_depth),
            io_timeout_ms: args.num("--io-timeout-ms").unwrap_or(d.io_timeout_ms),
            default_deadline_ms: args.num("--deadline-ms").unwrap_or(d.default_deadline_ms),
            store_capacity: args.num("--store-capacity").unwrap_or(d.store_capacity),
            prewarm: args.text("--prewarm").map_or(d.prewarm, |ids| {
                ids.split(',').filter(|s| !s.is_empty()).map(str::to_string).collect()
            }),
            trace_ring_capacity: args.num("--trace-ring").unwrap_or(d.trace_ring_capacity),
            trace_seed: args.num("--trace-seed").unwrap_or(d.trace_seed),
            access_log: if args.has("--access-log") { AccessLog::Stderr } else { d.access_log },
            ..d
        };
        Ok(match batnet_serve::spawn(cfg) {
            Ok(handle) => {
                println!("batnet-serve listening on {}", handle.addr());
                handle.join();
                println!("batnet-serve drained");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("batnet-serve: bind failed: {e}");
                ExitCode::FAILURE
            }
        })
    })
}
