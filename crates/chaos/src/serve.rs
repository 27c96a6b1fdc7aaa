//! Chaos invariant 8: adversarial clients against a live `batnet-serve`.
//!
//! Invariants 1–7 abuse the *pipeline* with mutated inputs; this module
//! abuses the *service* with hostile bytes on real sockets. For every
//! seed it drives one connection per abuse class against an in-process
//! server — malformed request lines, oversized headers and bodies,
//! duplicate-header floods, uploads truncated mid-body, peers that
//! vanish mid-request, and
//! slow-loris drips that hold a worker hostage — with well-behaved
//! probes interleaved throughout. The contract:
//!
//! * **Zero panics** — `serve.panics.contained` never ticks; abuse is
//!   rejected by the parser and the governor, not by unwinding.
//! * **The listener keeps serving** — every interleaved probe and the
//!   post-abuse health check and reachability query answer normally.
//! * **Every rejection is accounted** — each abuse class lands in its
//!   `serve.rejected.<class>` counter with the exact expected count,
//!   and the books balance: accepted connections equal requests served
//!   plus rejections plus idle closes plus contained panics.
//!
//! Invariant 9 audits the *tracing* books on the same sweep, with a
//! deliberately tiny trace ring so eviction is forced: every
//! well-behaved response carries `X-Batnet-Trace-Id`, every collected
//! id is either retained in `/tracez` (validator-clean) or covered by
//! the eviction counter, a known-evicted id's `/tracez?id=` lookup
//! answers 404 with `"reason": "evicted"` (distinguished from ids the
//! server never issued), and after drain the identity
//! `requests.total == ring retained + evicted` holds exactly — a trace
//! is never silently dropped.

use batnet_net::Rng;
use batnet_serve::{client, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One adversarial client behavior.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbuseClass {
    /// A request line no HTTP parser should accept.
    MalformedLine,
    /// A request line or header far over the parser's line limit.
    OversizedHeader,
    /// More header *lines* than the parser's header-count limit, all
    /// with the same name — duplicates collapse into one map entry, so
    /// only a per-line counter catches this worker-pinning stream.
    HeaderFlood,
    /// A `Content-Length` over the configured body cap.
    OversizedBody,
    /// A well-formed upload whose body stops short of `Content-Length`.
    TruncatedUpload,
    /// A peer that disconnects with a request half-sent.
    MidRequestDisconnect,
    /// A peer that sends a few bytes and then goes silent past the
    /// watchdog timeout.
    SlowLoris,
}

impl AbuseClass {
    /// Every class, in sweep order.
    pub const ALL: [AbuseClass; 7] = [
        AbuseClass::MalformedLine,
        AbuseClass::OversizedHeader,
        AbuseClass::HeaderFlood,
        AbuseClass::OversizedBody,
        AbuseClass::TruncatedUpload,
        AbuseClass::MidRequestDisconnect,
        AbuseClass::SlowLoris,
    ];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            AbuseClass::MalformedLine => "malformed-line",
            AbuseClass::OversizedHeader => "oversized-header",
            AbuseClass::HeaderFlood => "header-flood",
            AbuseClass::OversizedBody => "oversized-body",
            AbuseClass::TruncatedUpload => "truncated-upload",
            AbuseClass::MidRequestDisconnect => "mid-request-disconnect",
            AbuseClass::SlowLoris => "slow-loris",
        }
    }

    /// The `serve.rejected.<class>` counter this abuse must land in.
    pub fn expected_metric(self) -> &'static str {
        match self {
            AbuseClass::MalformedLine => "malformed",
            AbuseClass::OversizedHeader
            | AbuseClass::HeaderFlood
            | AbuseClass::OversizedBody => "too-large",
            AbuseClass::TruncatedUpload | AbuseClass::MidRequestDisconnect => "truncated",
            AbuseClass::SlowLoris => "watchdog",
        }
    }
}

/// What to run.
pub struct ServeChaosConfig {
    /// Seeds to sweep; each seed drives one connection per abuse class.
    pub seeds: Vec<u64>,
    /// Watchdog timeout for the server under test. Short, so slow-loris
    /// verdicts arrive quickly; every slow client costs one such slice.
    pub io_timeout_ms: u64,
}

impl Default for ServeChaosConfig {
    fn default() -> ServeChaosConfig {
        ServeChaosConfig {
            seeds: (1..=5).collect(),
            io_timeout_ms: 300,
        }
    }
}

/// Aggregated sweep outcome.
#[derive(Default)]
pub struct ServeChaosReport {
    /// Adversarial connections driven.
    pub connections: usize,
    /// Well-behaved probes interleaved with the abuse.
    pub probes: usize,
    /// Final `serve.rejected.*` accounting, by class.
    pub rejections: Vec<(String, u64)>,
    /// Parsed requests served (`serve.requests.total` after drain).
    pub requests: u64,
    /// Request traces still retained in the ring after drain.
    pub traces_retained: usize,
    /// Request traces evicted from the (deliberately tiny) ring.
    pub traces_evicted: u64,
    /// Invariant violations (empty = pass).
    pub violations: Vec<String>,
}

impl ServeChaosReport {
    /// Did the service uphold the contract?
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The two-router fixture the well-behaved probes query: small enough
/// to upload and analyze in milliseconds, rich enough that a
/// reachability answer is non-trivial.
fn fixture_upload_body() -> String {
    let configs = [
        (
            "r1",
            "hostname r1\ninterface hosts\n ip address 10.1.0.1/24\ninterface core\n ip address 172.16.0.1/31\nip route 10.2.0.0/24 172.16.0.0\n",
        ),
        (
            "r2",
            "hostname r2\ninterface core\n ip address 172.16.0.0/31\ninterface servers\n ip address 10.2.0.1/24\nip route 10.1.0.0/24 172.16.0.1\n",
        ),
    ];
    batnet_obs::json::Writer::spaced()
        .obj(|w| {
            w.array("configs", |w| {
                for (name, text) in configs {
                    w.obj(|w| {
                        w.field("name", name).field("text", text);
                    });
                }
            });
        })
        .finish()
}

/// Runs the adversarial sweep against a fresh in-process server and
/// checks the invariant-8 and invariant-9 contracts. The metrics window
/// is reset first so the accounting identity is auditable from
/// `/metricsz` alone. The trace ring is sized far below the request
/// count so invariant 9 exercises eviction accounting, not just
/// retention.
pub fn run_serve_chaos(cfg: &ServeChaosConfig) -> ServeChaosReport {
    let mut report = ServeChaosReport::default();
    batnet_obs::reset();
    let handle = match batnet_serve::spawn(ServeConfig {
        queue_depth: 8,
        io_timeout_ms: cfg.io_timeout_ms.max(50),
        max_body_bytes: 64 << 10,
        store_capacity: 4,
        trace_ring_capacity: 4,
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            report
                .violations
                .push(format!("server failed to bind loopback: {e}"));
            return report;
        }
    };
    let addr = handle.addr();
    let t = Duration::from_secs(10);
    // Invariant 9's evidence: the trace id of every well-behaved
    // response we drive, to be matched against the ring later.
    let mut trace_ids: Vec<String> = Vec::new();

    // A known-good snapshot, through the public upload path, so probes
    // exercise a real query.
    match client::post(addr, "/snapshots/chaos", fixture_upload_body().as_bytes(), t) {
        Ok(r) if r.status == 201 => collect_trace_id(&r, "fixture upload", &mut trace_ids, &mut report),
        Ok(r) => report.violations.push(format!(
            "fixture upload: expected 201, got {}: {}",
            r.status,
            r.body_str()
        )),
        Err(e) => report
            .violations
            .push(format!("fixture upload: transport: {e}")),
    }

    // The sweep: per seed, one connection per class, probe between
    // classes. Slow-loris runs last and batched — its connections are
    // answered by the watchdog, one worker slice each.
    for &seed in &cfg.seeds {
        for class in AbuseClass::ALL {
            if class == AbuseClass::SlowLoris {
                continue;
            }
            let mut rng = Rng::new(seed ^ (class as u64).wrapping_mul(0x9E37_79B9));
            if let Err(v) = abuse_once(addr, class, &mut rng, t) {
                report.violations.push(format!("[{} seed={seed}] {v}", class.name()));
            }
            report.connections += 1;
        }
        probe(addr, t, &mut trace_ids, &mut report);
    }
    slow_loris_sweep(addr, cfg, t, &mut report);
    probe(addr, t, &mut trace_ids, &mut report);

    // The listener still serves real work after the abuse.
    match client::get(addr, "/query/reach?snapshot=chaos&port=80", t) {
        Ok(r) if r.status == 200 => {
            collect_trace_id(&r, "post-abuse reach query", &mut trace_ids, &mut report)
        }
        Ok(r) => report.violations.push(format!(
            "post-abuse reach query: expected 200, got {}: {}",
            r.status,
            r.body_str()
        )),
        Err(e) => report
            .violations
            .push(format!("post-abuse reach query: transport: {e}")),
    }

    audit_metrics(addr, cfg, t, &mut trace_ids, &mut report);
    audit_tracez(addr, t, &trace_ids, &mut report);

    // Invariant 9, post-drain: the ring outlives the handle, so the
    // final books are read with zero requests in flight.
    let ring = handle.trace_ring();
    handle.shutdown();
    let (retained, evicted) = ring.stats();
    let requests = match batnet_obs::capture().metrics.get("serve.requests.total") {
        Some(batnet_obs::metrics::MetricValue::Counter(n)) => *n,
        _ => 0,
    };
    report.requests = requests;
    report.traces_retained = retained;
    report.traces_evicted = evicted;
    if requests != retained as u64 + evicted {
        report.violations.push(format!(
            "trace books don't balance: requests.total={requests} but \
             ring retained={retained} + evicted={evicted}"
        ));
    }
    let missing = trace_ids.iter().filter(|id| !ring.contains(id)).count() as u64;
    if missing > evicted {
        report.violations.push(format!(
            "{missing} collected trace id(s) absent from the ring but only \
             {evicted} eviction(s) accounted"
        ));
    }
    report
}

/// Records a well-behaved response's trace id; a missing header is
/// itself an invariant-9 violation.
fn collect_trace_id(
    r: &client::ClientResponse,
    step: &str,
    ids: &mut Vec<String>,
    report: &mut ServeChaosReport,
) {
    match r.header("X-Batnet-Trace-Id") {
        Some(id) => ids.push(id.to_string()),
        None => report
            .violations
            .push(format!("{step}: response missing X-Batnet-Trace-Id")),
    }
}

/// One adversarial connection. Returns `Err` only for harness-side
/// failures (the server refusing to talk at all); the server's verdict
/// is audited later from `/metricsz`.
fn abuse_once(
    addr: SocketAddr,
    class: AbuseClass,
    rng: &mut Rng,
    t: Duration,
) -> Result<(), String> {
    let mut s = TcpStream::connect_timeout(&addr, t).map_err(|e| format!("connect: {e}"))?;
    let _ = s.set_read_timeout(Some(t));
    let _ = s.set_write_timeout(Some(t));
    match class {
        AbuseClass::MalformedLine => {
            let line: &[u8] = *rng.pick(&[
                b"GARBAGE\r\n".as_slice(),
                b"GET\r\n".as_slice(),
                b"FROB /x HTTP/1.1\r\n".as_slice(),
                b"GET /x SMTP/3.0\r\n".as_slice(),
                b"\x16\x03\x01\x02\x00 a b\r\n".as_slice(),
            ]);
            send_then_drain(&mut s, line);
        }
        AbuseClass::OversizedHeader => {
            let n = 4097 + rng.index(4096);
            let junk = "a".repeat(n);
            let payload = if rng.flip() {
                format!("GET /{junk} HTTP/1.1\r\n\r\n")
            } else {
                format!("GET /healthz HTTP/1.1\r\nX-Big: {junk}\r\n\r\n")
            };
            send_then_drain(&mut s, payload.as_bytes());
        }
        AbuseClass::HeaderFlood => {
            // Far more duplicate header lines than the parser admits;
            // the server must answer 431 after its line budget, never
            // read the stream forever.
            let n = 80 + rng.index(64);
            let mut payload = b"GET /healthz HTTP/1.1\r\n".to_vec();
            for _ in 0..n {
                payload.extend_from_slice(b"X-Flood: x\r\n");
            }
            payload.extend_from_slice(b"\r\n");
            send_then_drain(&mut s, &payload);
        }
        AbuseClass::OversizedBody => {
            let declared = (1 << 20) + rng.index(1 << 20);
            let payload = format!(
                "POST /snapshots/huge HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
            );
            send_then_drain(&mut s, payload.as_bytes());
        }
        AbuseClass::TruncatedUpload => {
            let declared = 1024 + rng.index(1024);
            let sent = rng.index(declared.saturating_sub(1));
            let mut payload = format!(
                "POST /snapshots/cut HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n"
            )
            .into_bytes();
            payload.extend(std::iter::repeat(b'x').take(sent));
            let _ = s.write_all(&payload);
            // Drop with the body short: the server must answer 400
            // Truncated, never block waiting for the missing bytes.
        }
        AbuseClass::MidRequestDisconnect => {
            let full = b"GET /query/reach?snapshot=chaos&port=80 HTTP/1.1\r\nAccept: anything\r\n\r\n";
            let cut = 1 + rng.index(full.len() - 2);
            let _ = s.write_all(&full[..cut]);
            // Drop mid-request-line or mid-header; at least one byte was
            // sent, so this is a truncation, not an idle probe.
        }
        AbuseClass::SlowLoris => unreachable!("driven by slow_loris_sweep"),
    }
    Ok(())
}

/// Writes the payload (tolerating the server closing first — an early
/// rejection races our write) and reads the connection to EOF so the
/// server-side verdict is fully delivered before the socket drops.
fn send_then_drain(s: &mut TcpStream, payload: &[u8]) {
    let _ = s.write_all(payload);
    let mut sink = [0u8; 1024];
    while matches!(s.read(&mut sink), Ok(n) if n > 0) {}
}

/// Opens every slow-loris connection up front — more than the worker
/// pool, so some wedge workers while others wait queued — then drains
/// each for its 408 verdict. Every slow client must cost exactly one
/// watchdog slice, never a hung worker.
fn slow_loris_sweep(
    addr: SocketAddr,
    cfg: &ServeChaosConfig,
    t: Duration,
    report: &mut ServeChaosReport,
) {
    let mut held = Vec::new();
    for &seed in &cfg.seeds {
        let mut rng = Rng::new(seed);
        match TcpStream::connect_timeout(&addr, t) {
            Ok(mut s) => {
                let _ = s.set_read_timeout(Some(t));
                let _ = s.set_write_timeout(Some(t));
                let drip = format!("GET /healthz HTTP/1.1\r\nX-Drip: {}", rng.next_u32());
                let _ = s.write_all(drip.as_bytes());
                held.push((seed, s));
                report.connections += 1;
            }
            Err(e) => report
                .violations
                .push(format!("[slow-loris seed={seed}] connect: {e}")),
        }
    }
    for (seed, mut s) in held {
        let mut buf = Vec::new();
        match s.read_to_end(&mut buf) {
            Ok(_) => {
                let text = String::from_utf8_lossy(&buf);
                if !text.starts_with("HTTP/1.1 408") {
                    report.violations.push(format!(
                        "[slow-loris seed={seed}] expected a 408 verdict, got: {}",
                        text.lines().next().unwrap_or("<nothing>")
                    ));
                }
            }
            Err(e) => report
                .violations
                .push(format!("[slow-loris seed={seed}] read verdict: {e}")),
        }
    }
}

/// A well-behaved client interleaved with the abuse: the listener must
/// answer it normally — and trace it — no matter what the adversaries
/// are doing.
fn probe(
    addr: SocketAddr,
    t: Duration,
    trace_ids: &mut Vec<String>,
    report: &mut ServeChaosReport,
) {
    report.probes += 1;
    match client::get(addr, "/healthz", t) {
        Ok(r) if r.status == 200 => {
            let step = format!("interleaved probe #{}", report.probes);
            collect_trace_id(&r, &step, trace_ids, report);
        }
        Ok(r) => report.violations.push(format!(
            "interleaved probe #{}: healthz answered {}",
            report.probes, r.status
        )),
        Err(e) => report.violations.push(format!(
            "interleaved probe #{}: transport: {e}",
            report.probes
        )),
    }
}

/// Audits `/metricsz` for the invariant-8 books: zero contained panics,
/// per-class rejection counts exactly as driven, and the conservation
/// identity `accepted = requests + rejections + idle + panics`.
/// Retries briefly — the last adversarial sockets may still be settling
/// when the first audit request lands.
fn audit_metrics(
    addr: SocketAddr,
    cfg: &ServeChaosConfig,
    t: Duration,
    trace_ids: &mut Vec<String>,
    report: &mut ServeChaosReport,
) {
    // One connection per class per seed, so each counter expects the
    // seed count times the classes that land in it (first-seen order).
    let n = cfg.seeds.len() as u64;
    let mut expected: Vec<(&str, u64)> = Vec::new();
    for class in AbuseClass::ALL {
        let metric = class.expected_metric();
        match expected.iter_mut().find(|(m, _)| *m == metric) {
            Some((_, want)) => *want += n,
            None => expected.push((metric, n)),
        }
    }
    let mut last = String::new();
    for _ in 0..80 {
        let counters = match client::get(addr, "/metricsz", t) {
            Ok(r) if r.status == 200 => match r.json() {
                Ok(v) => {
                    collect_trace_id(&r, "metricsz audit", trace_ids, report);
                    v
                }
                Err(e) => {
                    report
                        .violations
                        .push(format!("metricsz does not parse as JSON: {e}"));
                    return;
                }
            },
            Ok(r) => {
                report
                    .violations
                    .push(format!("metricsz answered {}", r.status));
                return;
            }
            Err(e) => {
                report.violations.push(format!("metricsz: transport: {e}"));
                return;
            }
        };
        let c = |name: &str| -> u64 {
            counters
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|v| v.get("value"))
                .and_then(batnet_obs::json::Value::as_f64)
                .unwrap_or(0.0) as u64
        };
        let panics = c("serve.panics.contained");
        if panics > 0 {
            report
                .violations
                .push(format!("{panics} panic(s) contained during the sweep"));
            return;
        }
        let accepted = c("serve.accepted");
        let accounted = c("serve.requests.total")
            + c("serve.closed.idle")
            + c("serve.rejected.backpressure")
            + expected
                .iter()
                .map(|(class, _)| c(&format!("serve.rejected.{class}")))
                .sum::<u64>();
        let classes_ok = expected
            .iter()
            .all(|(class, want)| c(&format!("serve.rejected.{class}")) == *want);
        if accepted == accounted && classes_ok {
            report.rejections = expected
                .iter()
                .map(|(class, _)| {
                    (class.to_string(), c(&format!("serve.rejected.{class}")))
                })
                .collect();
            return;
        }
        last = format!(
            "accepted={accepted} accounted={accounted}; rejections: {}",
            expected
                .iter()
                .map(|(class, want)| format!(
                    "{class}={} (want {want})",
                    c(&format!("serve.rejected.{class}"))
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    report
        .violations
        .push(format!("metrics never balanced: {last}"));
}

/// Invariant 9, live half: `/tracez` must answer validator-clean, and
/// every trace id we collected must be either retained in the document
/// or covered by its eviction counter. (The exact post-drain identity
/// is checked against the ring itself in [`run_serve_chaos`].)
fn audit_tracez(
    addr: SocketAddr,
    t: Duration,
    trace_ids: &[String],
    report: &mut ServeChaosReport,
) {
    let doc = match client::get(addr, "/tracez", t) {
        Ok(r) if r.status == 200 => match r.json() {
            Ok(v) => v,
            Err(e) => {
                report
                    .violations
                    .push(format!("tracez does not parse as JSON: {e}"));
                return;
            }
        },
        Ok(r) => {
            report.violations.push(format!("tracez answered {}", r.status));
            return;
        }
        Err(e) => {
            report.violations.push(format!("tracez: transport: {e}"));
            return;
        }
    };
    if let Err(e) = batnet_obs::report::validate_tracez(&doc) {
        report.violations.push(format!("tracez INVALID: {e}"));
        return;
    }
    let retained: std::collections::BTreeSet<&str> = doc
        .get("traces")
        .and_then(batnet_obs::json::Value::as_arr)
        .map(|traces| {
            traces
                .iter()
                .filter_map(|tr| {
                    tr.get("trace_id").and_then(batnet_obs::json::Value::as_str)
                })
                .collect()
        })
        .unwrap_or_default();
    let evicted = doc
        .get("evicted")
        .and_then(batnet_obs::json::Value::as_f64)
        .unwrap_or(0.0) as u64;
    let missing = trace_ids
        .iter()
        .filter(|id| !retained.contains(id.as_str()))
        .count() as u64;
    if missing > evicted {
        report.violations.push(format!(
            "tracez: {missing} collected id(s) unretained but only {evicted} \
             eviction(s) accounted"
        ));
    }
    // Lookup half: an id we hold but the ring no longer does must 404
    // as *evicted*, not as never-issued — the ring only moves forward,
    // so an id absent from the dump above stays absent.
    if let Some(gone) = trace_ids.iter().find(|id| !retained.contains(id.as_str())) {
        match client::get(addr, &format!("/tracez?id={gone}"), t) {
            Ok(r) if r.status == 404 => {
                let body = r.body_str();
                if !body.contains("\"reason\": \"evicted\"") {
                    report.violations.push(format!(
                        "tracez lookup of evicted {gone}: 404 body does not \
                         distinguish eviction: {body}"
                    ));
                }
            }
            Ok(r) => report.violations.push(format!(
                "tracez lookup of evicted {gone}: expected 404, got {}",
                r.status
            )),
            Err(e) => report
                .violations
                .push(format!("tracez lookup of evicted id: transport: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short sweep upholds the whole contract: no panics, exact
    /// rejection accounting, the listener alive throughout, and the
    /// trace books balanced through forced ring eviction.
    #[test]
    fn short_adversarial_sweep_passes() {
        let report = run_serve_chaos(&ServeChaosConfig {
            seeds: vec![11, 12],
            io_timeout_ms: 200,
        });
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.connections, 2 * AbuseClass::ALL.len());
        assert!(report.probes >= 3);
        assert!(report
            .rejections
            .iter()
            .all(|(_, n)| *n > 0));
        // Invariant 9 actually exercised eviction, and its identity held
        // (a violation would have tripped the empty-violations assert).
        assert!(report.requests > 0, "no parsed requests counted");
        assert!(
            report.traces_evicted > 0,
            "the tiny ring never evicted — the sweep didn't stress it"
        );
        assert_eq!(
            report.requests,
            report.traces_retained as u64 + report.traces_evicted
        );
    }
}
