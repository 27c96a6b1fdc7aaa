//! batnet-serve: run the analysis service, or drive its smoke sequence.
//!
//! ```text
//! usage: batnet-serve [OPTIONS]
//!
//! Serve analysis queries over HTTP/1.1 until a client POSTs /admin/shutdown.
//! Exit 0 drained (or smoke passed), 1 bind or smoke failure, 2 usage error.
//!
//! options:
//!   --addr HOST:PORT    bind address (default 127.0.0.1:0 = ephemeral loopback port)
//!   --threads N         size of the shared execution pool (0 or omitted = all cores)
//!   --queue-depth N     accepted-connection queue depth; beyond it, 503 + Retry-After
//!   --io-timeout-ms N   socket read/write timeout, the slow-loris watchdog
//!   --deadline-ms N     governor deadline applied when a request names none
//!   --store-capacity N  warm snapshots held before eviction
//!   --prewarm IDS       comma-separated suite networks analyzed into the store before ready
//!   --trace-ring N      recent request traces retained for GET /tracez (default 256)
//!   --trace-seed N      seed for the deterministic X-Batnet-Trace-Id stream
//!   --profile-hz N      sample every live span stack N times a second for GET /profilez (0 = off)
//!   --access-log        one JSON line per request on stderr
//!   --smoke             run the CI end-to-end sequence in-process and exit
//!   --help              print this help and exit
//! ```
//!
//! Without `--smoke`, binds, prewarms, prints the address, and serves
//! until a client POSTs `/admin/shutdown`. With `--smoke`, runs the CI
//! end-to-end sequence in one process — ephemeral port, `/readyz` poll,
//! a real reachability query, a deliberately over-deadline query that
//! must come back `206` partial (not hang), a bad route, a `/tracez`
//! fetch validated against the deterministic seeded trace-id stream
//! (the dump is also written to `target/tracez-smoke.json` for the CI
//! validator), single-trace `/tracez?id=` lookups (retained and
//! never-issued; the evicted case is pinned by the chaos serve sweep),
//! a validator-clean `/profilez` profile when profiling is on (written
//! to `target/profilez-smoke.json`), metrics audit with per-endpoint
//! SLO meta, graceful drain — and exits nonzero on the first deviation.

use batnet_net::Backoff;
use batnet_obs::flags::{self, Cli, Flag};
use batnet_serve::{client, AccessLog, ServeConfig, TraceIds};
use std::process::ExitCode;
use std::time::Duration;

static CLI: Cli = Cli {
    bin: "batnet-serve",
    about: "Serve analysis queries over HTTP/1.1 until a client POSTs /admin/shutdown.\n\
            Exit 0 drained (or smoke passed), 1 bind or smoke failure, 2 usage error.",
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
        Flag::uint("--profile-hz", "sample every live span stack N times a second for GET /profilez (0 = off)"),
        Flag::switch("--access-log", "one JSON line per request on stderr"),
        Flag::switch("--smoke", "run the CI end-to-end sequence in-process and exit"),
    ],
};

fn main() -> ExitCode {
    CLI.main(|args| {
        if !batnet_exec::configure_threads(args.num("--threads").unwrap_or(0)) {
            return Err("--threads: the execution pool is already sized differently".to_string());
        }
        let d = ServeConfig::default();
        let smoke = args.has("--smoke");
        let mut cfg = ServeConfig {
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
            profile_hz: args.num("--profile-hz").unwrap_or(d.profile_hz),
            access_log: if args.has("--access-log") { AccessLog::Stderr } else { d.access_log },
            ..d
        };
        if smoke {
            cfg.addr = "127.0.0.1:0".to_string();
            if cfg.prewarm.is_empty() {
                cfg.prewarm = vec!["N2".to_string()];
            }
            return Ok(match run_smoke(cfg) {
                Ok(()) => {
                    println!("serve-smoke: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("serve-smoke: FAIL: {e}");
                    ExitCode::FAILURE
                }
            });
        }
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

/// The CI smoke sequence. Every step names itself in its error.
fn run_smoke(cfg: ServeConfig) -> Result<(), String> {
    let net = cfg.prewarm[0].clone();
    let seed = cfg.trace_seed;
    let profiling = cfg.profile_hz > 0;
    let handle = batnet_serve::spawn(cfg).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();
    let t = Duration::from_secs(10);
    let step = |name: &str, r: std::io::Result<client::ClientResponse>| {
        r.map_err(|e| format!("{name}: transport: {e}"))
    };
    // Smoke requests are strictly sequential (one connection at a
    // time), so the trace-id stream is fully deterministic: request n
    // carries exactly `TraceIds::nth(seed, n)`.
    let mut issued: u64 = 0;
    let mut check_trace = |r: &client::ClientResponse, name: &str| -> Result<(), String> {
        let got = r
            .header("X-Batnet-Trace-Id")
            .ok_or_else(|| format!("{name}: X-Batnet-Trace-Id header missing"))?;
        let want = TraceIds::nth(seed, issued);
        issued += 1;
        if got != want {
            return Err(format!(
                "{name}: trace id {got:?} is not the expected seeded id {want:?}"
            ));
        }
        Ok(())
    };

    // Liveness, then readiness under retry (the poll the Makefile used
    // to shell-script, in-process).
    let h = step("healthz", client::get(addr, "/healthz", t))?;
    expect(&h, 200, "healthz")?;
    check_trace(&h, "healthz")?;
    let r = step(
        "readyz",
        client::get_with_retry(
            addr,
            "/readyz",
            t,
            Backoff::new(Duration::from_millis(10), Duration::from_millis(200), 20, 7),
        ),
    )?;
    expect(&r, 200, "readyz")?;
    check_trace(&r, "readyz")?;

    // The warm store must hold the prewarmed network.
    let list = step("snapshots", client::get(addr, "/snapshots", t))?;
    expect(&list, 200, "snapshots")?;
    check_trace(&list, "snapshots")?;
    if !list.body_str().contains(&format!("\"name\": \"{net}\"")) {
        return Err(format!("snapshots: {net} not listed: {}", list.body_str()));
    }

    // A real reachability query answers 200 complete.
    let reach = step(
        "reach",
        client::get(
            addr,
            &format!("/query/reach?snapshot={net}&port=80"),
            t,
        ),
    )?;
    expect(&reach, 200, "reach")?;
    check_trace(&reach, "reach")?;
    let reach_id = reach
        .header("X-Batnet-Trace-Id")
        .map(str::to_string)
        .unwrap_or_default();
    if !reach.body_str().contains("\"partial\": null") {
        return Err(format!("reach: expected complete answer: {}", reach.body_str()));
    }

    // A deliberately over-deadline query must come back 206 partial —
    // promptly, with accounting — never hang.
    let partial = step(
        "reach-deadline",
        client::get(
            addr,
            &format!("/query/reach?snapshot={net}&port=80&deadline_ms=0"),
            t,
        ),
    )?;
    expect(&partial, 206, "reach-deadline")?;
    check_trace(&partial, "reach-deadline")?;
    if !partial.body_str().contains("\"stage\":") {
        return Err(format!(
            "reach-deadline: partial accounting missing: {}",
            partial.body_str()
        ));
    }

    // Lint and the run report serve from the same warm snapshot.
    let lint = step("lint", client::get(addr, &format!("/lint?snapshot={net}"), t))?;
    expect(&lint, 200, "lint")?;
    check_trace(&lint, "lint")?;
    let report = step(
        "report",
        client::get(addr, &format!("/report?snapshot={net}"), t),
    )?;
    expect(&report, 200, "report")?;
    check_trace(&report, "report")?;

    // A bad route 404s without disturbing anything — and still traces.
    let missing = step("404", client::get(addr, "/no/such/route", t))?;
    expect(&missing, 404, "404")?;
    check_trace(&missing, "404")?;

    // The recent-trace ring holds every request so far, validator-clean.
    let tracez = step("tracez", client::get(addr, "/tracez", t))?;
    expect(&tracez, 200, "tracez")?;
    check_trace(&tracez, "tracez")?;
    let body = tracez.body_str().to_string();
    let doc = batnet_obs::json::parse(&body).map_err(|e| format!("tracez: bad JSON: {e}"))?;
    batnet_obs::report::validate_tracez(&doc).map_err(|e| format!("tracez: INVALID: {e}"))?;
    if !body.contains(&reach_id) {
        return Err(format!("tracez: reach trace {reach_id} not retained"));
    }
    if !body.contains("\"partial\": true") {
        return Err("tracez: the 206 reach-deadline trace is not marked partial".to_string());
    }
    // Leave the dump where `make serve-smoke` runs the standalone
    // validator over it.
    let _ = std::fs::create_dir_all("target");
    std::fs::write("target/tracez-smoke.json", &body)
        .map_err(|e| format!("tracez: write dump: {e}"))?;

    // Single-trace lookup: a retained id comes back alone,
    // validator-clean; an id outside the issued stream 404s saying
    // "unknown" (the evicted flavor needs ring pressure — the chaos
    // serve sweep pins it).
    let one = step(
        "tracez-id",
        client::get(addr, &format!("/tracez?id={reach_id}"), t),
    )?;
    expect(&one, 200, "tracez-id")?;
    check_trace(&one, "tracez-id")?;
    let doc = batnet_obs::json::parse(one.body_str())
        .map_err(|e| format!("tracez-id: bad JSON: {e}"))?;
    batnet_obs::report::validate_tracez(&doc).map_err(|e| format!("tracez-id: INVALID: {e}"))?;
    match doc.get("traces").and_then(batnet_obs::json::Value::as_arr) {
        Some(traces) if traces.len() == 1 => {}
        _ => return Err("tracez-id: expected exactly one trace".to_string()),
    }
    if !one.body_str().contains(&reach_id) {
        return Err(format!("tracez-id: {reach_id} not in its own lookup"));
    }
    let unknown = step(
        "tracez-unknown",
        client::get(addr, "/tracez?id=ffffffffffffffff", t),
    )?;
    expect(&unknown, 404, "tracez-unknown")?;
    check_trace(&unknown, "tracez-unknown")?;
    if !unknown.body_str().contains("\"reason\": \"unknown\"") {
        return Err(format!(
            "tracez-unknown: 404 body must say the id was never issued: {}",
            unknown.body_str()
        ));
    }

    // Continuous profiling: with --profile-hz the window accumulated
    // since startup (prewarm included) must come back validator-clean
    // and its folded stacks must name real pipeline spans; without it,
    // /profilez is an honest 404.
    let prof = step("profilez", client::get(addr, "/profilez", t))?;
    check_trace(&prof, "profilez")?;
    if profiling {
        expect(&prof, 200, "profilez")?;
        let body = prof.body_str().to_string();
        let doc = batnet_obs::json::parse(&body)
            .map_err(|e| format!("profilez: bad JSON: {e}"))?;
        batnet_obs::report::validate_profile(&doc)
            .map_err(|e| format!("profilez: INVALID: {e}"))?;
        let named_real_span = ["snapshot.parse", "route.simulate", "graph.build", "serve.request"]
            .iter()
            .any(|s| body.contains(s));
        if !named_real_span {
            return Err(format!(
                "profilez: folded stacks name no real pipeline span: {body}"
            ));
        }
        std::fs::write("target/profilez-smoke.json", &body)
            .map_err(|e| format!("profilez: write dump: {e}"))?;
    } else {
        expect(&prof, 404, "profilez")?;
    }

    // The books must balance: requests counted, per-endpoint SLO meta
    // present, zero contained panics.
    let metrics = step("metricsz", client::get(addr, "/metricsz", t))?;
    expect(&metrics, 200, "metricsz")?;
    check_trace(&metrics, "metricsz")?;
    let body = metrics.body_str();
    if !body.contains("serve.requests.total") {
        return Err("metricsz: serve.requests.total missing".to_string());
    }
    for key in ["slo.query.reach.p50_us", "slo.query.reach.p99_us"] {
        if !body.contains(key) {
            return Err(format!("metricsz: per-endpoint SLO meta {key} missing"));
        }
    }
    if body.contains("serve.panics.contained") {
        return Err("metricsz: a panic was contained during smoke".to_string());
    }
    for key in ["exec.workers", "exec.steals", "exec.queue_depth"] {
        if !body.contains(key) {
            return Err(format!("metricsz: execution-pool meta {key} missing"));
        }
    }
    if profiling {
        for key in ["obs.sampler.samples", "obs.sampler.overhead_us"] {
            if !body.contains(key) {
                return Err(format!("metricsz: sampler meta {key} missing"));
            }
        }
    } else if body.contains("obs.sampler.") {
        return Err("metricsz: sampler meta present with profiling off".to_string());
    }

    // Graceful drain: accepted, readiness drops, the process unwinds.
    let bye = step(
        "shutdown",
        client::post(addr, "/admin/shutdown", b"", t),
    )?;
    expect(&bye, 202, "shutdown")?;
    check_trace(&bye, "shutdown")?;
    handle.join();
    Ok(())
}

fn expect(r: &client::ClientResponse, status: u16, step: &str) -> Result<(), String> {
    if r.status == status {
        Ok(())
    } else {
        Err(format!(
            "{step}: expected {status}, got {}: {}",
            r.status,
            r.body_str()
        ))
    }
}
