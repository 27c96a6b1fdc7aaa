//! The service's end-to-end smoke sequence, in one process: ephemeral
//! port, `/readyz` check, a real reachability query, a deliberately
//! over-deadline query that must come back `206` partial (not hang), a
//! bad route, a `/tracez` fetch validated against the deterministic
//! sequential trace-id stream and folded into the exact per-path profile,
//! single-trace `/tracez?id=` lookups (retained and never-issued; the
//! evicted case is pinned by the chaos serve sweep), metrics audit with
//! per-endpoint SLO meta, graceful drain — failing on the first
//! deviation.

use batnet_obs::trace::{folded, forest_from_json};
use batnet_serve::{client, ServeConfig, TraceIds};
use std::time::Duration;

#[test]
fn smoke_sequence() {
    run_smoke().unwrap_or_else(|e| panic!("serve-smoke: {e}"));
}

/// The smoke sequence. Every step names itself in its error.
fn run_smoke() -> Result<(), String> {
    let net = "N2";
    let handle = batnet_serve::spawn(ServeConfig {
        prewarm: vec![net.to_string()],
        ..ServeConfig::default()
    })
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();
    let t = Duration::from_secs(10);
    let step = |name: &str, r: std::io::Result<client::ClientResponse>| {
        r.map_err(|e| format!("{name}: transport: {e}"))
    };
    // Smoke requests are strictly sequential (one connection at a
    // time), so the trace-id stream is fully deterministic: request n
    // carries exactly `TraceIds::nth(n)`.
    let mut issued: u64 = 0;
    let mut check_trace = |r: &client::ClientResponse, name: &str| -> Result<(), String> {
        let got = r
            .header("X-Batnet-Trace-Id")
            .ok_or_else(|| format!("{name}: X-Batnet-Trace-Id header missing"))?;
        let want = TraceIds::nth(issued);
        issued += 1;
        if got != want {
            return Err(format!(
                "{name}: trace id {got:?} is not the expected id {want:?}"
            ));
        }
        Ok(())
    };

    // Liveness, then readiness: `spawn` returns only once ready.
    let h = step("healthz", client::get(addr, "/healthz", t))?;
    expect(&h, 200, "healthz")?;
    check_trace(&h, "healthz")?;
    let r = step("readyz", client::get(addr, "/readyz", t))?;
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
    // The dump is the profile: every retained request's span tree folds
    // into exact self time per path, and a reach query's tree shows the
    // time it spent waiting for the snapshot's BDD lock.
    let mut forest = Vec::new();
    for trace in doc.arr("traces")? {
        forest.extend(forest_from_json(trace).map_err(|e| format!("tracez: forest: {e}"))?);
    }
    let profile = folded(&forest);
    for path in ["serve.request", "serve.request;serve.bdd_lock"] {
        if !profile.lines().any(|l| l.starts_with(&format!("{path} "))) {
            return Err(format!("tracez: folded profile has no {path:?} row:\n{profile}"));
        }
    }

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
    if !body.contains("exec.workers") {
        return Err("metricsz: map-width meta exec.workers missing".to_string());
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
