//! The service core: listener, admission, shared-pool dispatch,
//! watchdog, graceful drain.
//!
//! The threading model is deliberately boring — one blocking accept
//! loop, one [`Admission`] counter, one dispatch task on the shared
//! [`batnet_exec`] pool per admitted connection (the task owns its
//! socket), socket read timeouts as the slow-loris watchdog — because
//! every piece of it is a named element of the failure model
//! (DESIGN.md §5f):
//!
//! * **Admission control.** The accept loop never waits on a client: with
//!   `queue_depth` admitted connections still waiting for a pool thread
//!   it sheds the next one with `503` + `Retry-After` immediately, so
//!   overload degrades to fast rejections instead of latency collapse.
//! * **Watchdog.** Every accepted socket gets a read timeout before it
//!   reaches a dispatch task; a peer that feeds bytes too slowly costs
//!   one bounded pool slice (`408`), never a wedged worker.
//! * **Panic isolation.** Each request runs under `catch_unwind`; a
//!   handler bug is one `500` and a `serve.panics.contained` tick, not
//!   a dead thread silently shrinking the pool.
//! * **Graceful drain.** Shutdown (signalled by `POST /admin/shutdown`
//!   or [`Handle::shutdown`]) flips `readyz` to 503, stops accepting,
//!   and waits for every admitted connection to be answered.
//!
//! Request handlers run *on* the shared execution pool (the same pool
//! that parallelizes parse, routing sweeps, and reachability — sized
//! once per process, `--threads` on the binaries). A handler whose
//! analysis fans out over the pool nests safely: the pool's help-first
//! join lets the joining task make progress on its own items even when
//! every worker is busy, so serve traffic can never deadlock the
//! analysis it triggers. `/metricsz` lifts the pool's gauges
//! (`exec.workers` / `exec.steals` / `exec.queue_depth`) into its
//! response meta — never into the metric registry, so analysis reports
//! stay byte-identical at every pool width.
//!
//! Every response — including sheds, parse rejections, and the
//! post-panic 500 — carries an `X-Batnet-Trace-Id`. For real requests
//! the id keys a [`TraceEntry`] (queue wait, handler time, the request's
//! span tree extracted via [`batnet_obs::take_tree`]) pushed into the
//! bounded ring behind `GET /tracez`, and one access-log line. Handler
//! latency is also recorded per endpoint
//! (`serve.latency.us.<endpoint>` histograms), so one endpoint's p99
//! regression cannot hide behind a fast-path-dominated aggregate.

use crate::api;
use crate::http::{read_request, Limits, Response};
use crate::store::SnapshotStore;
use crate::tracing::{AccessLog, TraceEntry, TraceIds, TraceRing};
use batnet_obs::Span;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs. The defaults are the committed failure-model
/// numbers: small queue, short watchdog, bounded body.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` = loopback, ephemeral port).
    pub addr: String,
    /// Accepted-connection queue depth; beyond it, 503 + `Retry-After`.
    pub queue_depth: usize,
    /// Socket read/write timeout — the slow-loris watchdog.
    pub io_timeout_ms: u64,
    /// Governor deadline applied when a request names none.
    pub default_deadline_ms: u64,
    /// Ceiling on any requested `deadline_ms`.
    pub max_deadline_ms: u64,
    /// Largest accepted upload body.
    pub max_body_bytes: usize,
    /// Warm snapshots held before eviction.
    pub store_capacity: usize,
    /// Suite network ids analyzed into the store before ready.
    pub prewarm: Vec<String>,
    /// Recent request traces retained for `GET /tracez`.
    pub trace_ring_capacity: usize,
    /// Seed for the deterministic trace-id stream.
    pub trace_seed: u64,
    /// Where per-request access-log lines go (off by default).
    pub access_log: AccessLog,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 32,
            io_timeout_ms: 2_000,
            default_deadline_ms: 10_000,
            max_deadline_ms: 60_000,
            max_body_bytes: 4 << 20,
            store_capacity: 8,
            prewarm: Vec::new(),
            trace_ring_capacity: 256,
            trace_seed: 0,
            access_log: AccessLog::Off,
        }
    }
}

/// Shared liveness flags, visible to handlers (for `readyz` and
/// `/admin/shutdown`) and to the accept loop.
pub(crate) struct ServiceState {
    ready: AtomicBool,
    shutdown: AtomicBool,
    /// Where a connect reaches the listener, to wake its blocking
    /// `accept()` for the drain.
    wake: SocketAddr,
}

impl ServiceState {
    fn new(bound: SocketAddr) -> ServiceState {
        let mut wake = bound;
        if wake.ip().is_unspecified() {
            wake.set_ip(match bound {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        ServiceState {
            ready: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            wake,
        }
    }

    /// Ready = warmed up and not draining.
    pub(crate) fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed) && !self.is_shutting_down()
    }

    /// Flags the server to drain (idempotent). The first call wakes
    /// the accept loop out of its blocking `accept()` with one loopback
    /// connect; the loop re-checks the flag after every accept.
    pub(crate) fn request_shutdown(&self) {
        // Release half pairs with the Acquire load in `is_shutting_down`.
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        }
    }

    /// Has a drain been requested?
    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`Handle::shutdown`] (or POST `/admin/shutdown` and
/// [`Handle::join`]).
pub struct Handle {
    addr: SocketAddr,
    ctx: Arc<DispatchCtx>,
    accept: JoinHandle<()>,
}

impl Handle {
    /// The bound address (real port, even when configured as `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The recent-trace ring, shared — it outlives [`Handle::shutdown`],
    /// so post-drain accounting audits can read the final stats.
    pub fn trace_ring(&self) -> Arc<TraceRing> {
        Arc::clone(&self.ctx.ring)
    }

    /// Requests a drain and waits for the listener and every admitted
    /// connection to finish.
    pub fn shutdown(self) {
        self.ctx.state.request_shutdown();
        self.join();
    }

    /// Waits for the server to stop (a drain must have been requested,
    /// e.g. via `POST /admin/shutdown`). Once the accept loop has exited
    /// nothing is admitted any more, and requests run on pool threads
    /// the service does not own, so waiting [`Admission`] down to idle
    /// is the whole drain.
    pub fn join(self) {
        let _ = self.accept.join();
        self.ctx.admission.wait_idle();
        batnet_obs::event("serve", "drain", "complete");
    }
}

/// The one account of admitted connections: how many wait for a pool
/// thread, how many are being served. It is the backpressure bound
/// (shed at `depth` waiting — bound per-query resources or the service
/// does not scale), the `serve.inflight` gauge, and the drain barrier.
pub(crate) struct Admission {
    depth: usize,
    counts: Mutex<Counts>,
    idle: Condvar,
}

#[derive(Default)]
struct Counts {
    waiting: usize,
    in_flight: usize,
}

impl Admission {
    /// Admits until `depth` connections (minimum 1) are waiting.
    pub(crate) fn new(depth: usize) -> Arc<Admission> {
        Arc::new(Admission {
            depth: depth.max(1),
            counts: Mutex::new(Counts::default()),
            idle: Condvar::new(),
        })
    }

    fn counts(&self) -> MutexGuard<'_, Counts> {
        self.counts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking admission: `None` is the backpressure signal.
    pub(crate) fn try_admit(self: &Arc<Admission>) -> Option<Ticket> {
        let mut c = self.counts();
        if c.waiting >= self.depth {
            return None;
        }
        c.waiting += 1;
        Some(Ticket {
            admission: Arc::clone(self),
            admitted_at: batnet_obs::now(),
            in_flight: false,
        })
    }

    /// Blocks until no admitted connection is waiting or in flight.
    pub(crate) fn wait_idle(&self) {
        let idle = self
            .idle
            .wait_while(self.counts(), |c| c.waiting + c.in_flight > 0);
        drop(idle.unwrap_or_else(PoisonError::into_inner));
    }
}

/// One admitted connection's slot: waiting until [`Ticket::start`], in
/// flight until dropped. Releasing on drop means a task that unwinds —
/// or one the pool never runs — still frees its slot, so the drain
/// barrier holds regardless.
pub(crate) struct Ticket {
    admission: Arc<Admission>,
    admitted_at: Instant,
    in_flight: bool,
}

impl Ticket {
    /// A pool thread picked the connection up: waiting → in flight.
    /// Returns the queue wait in microseconds.
    pub(crate) fn start(&mut self) -> u64 {
        let mut c = self.admission.counts();
        c.waiting -= 1;
        c.in_flight += 1;
        batnet_obs::gauge_set("serve.inflight", c.in_flight as f64);
        drop(c);
        self.in_flight = true;
        self.admitted_at.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut c = self.admission.counts();
        if self.in_flight {
            c.in_flight -= 1;
            batnet_obs::gauge_set("serve.inflight", c.in_flight as f64);
        } else {
            c.waiting -= 1;
        }
        if c.waiting + c.in_flight == 0 {
            self.admission.idle.notify_all();
        }
    }
}

/// Everything a dispatch task needs to serve one connection. Shared
/// (`Arc`) between the handle, the accept loop and every task it spawns.
pub(crate) struct DispatchCtx {
    pub(crate) store: SnapshotStore,
    pub(crate) cfg: ServeConfig,
    pub(crate) state: ServiceState,
    admission: Arc<Admission>,
    limits: Limits,
    pub(crate) ids: TraceIds,
    pub(crate) ring: Arc<TraceRing>,
    /// The shared execution pool requests run on — also the source of
    /// the `exec.*` gauges `/metricsz` lifts into its meta.
    pub(crate) pool: batnet_exec::Pool,
}

/// Binds, prewarms, and starts the accept loop; request handlers run as
/// dispatch tasks on the shared `batnet_exec` pool (captured here via
/// [`batnet_exec::current`], so a test override is honored).
/// Returns once the service is ready.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    let store = SnapshotStore::new(cfg.store_capacity);
    for id in &cfg.prewarm {
        if store.prewarm(id).is_none() {
            batnet_obs::event("serve", "prewarm-miss", id);
        }
    }

    let ctx = Arc::new(DispatchCtx {
        store,
        state: ServiceState::new(addr),
        admission: Admission::new(cfg.queue_depth),
        limits: Limits::default().with_max_body(cfg.max_body_bytes),
        ids: TraceIds::new(cfg.trace_seed),
        ring: Arc::new(TraceRing::new(cfg.trace_ring_capacity)),
        pool: batnet_exec::current(),
        cfg,
    });
    let accept_ctx = Arc::clone(&ctx);
    let accept = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_ctx))?;

    ctx.state.ready.store(true, Ordering::Relaxed);
    batnet_obs::event("serve", "ready", &addr.to_string());
    Ok(Handle { addr, ctx, accept })
}

/// The blocking accept loop: admit (the ticket is stamped with the
/// admission instant, so the dispatch task can account queue wait) and
/// hand the socket to its own dispatch task on the shared pool, or shed
/// with 503 immediately. Checks the shutdown flag after every accept:
/// [`ServiceState::request_shutdown`] connects once to get it here, and
/// that connection (or a client racing the drain) is dropped unserved
/// and uncounted.
fn accept_loop(listener: &TcpListener, ctx: &Arc<DispatchCtx>) {
    let io_timeout = Duration::from_millis(ctx.cfg.io_timeout_ms.max(1));
    loop {
        let accepted = listener.accept();
        if ctx.state.is_shutting_down() {
            break;
        }
        match accepted {
            Ok((mut stream, _)) => {
                // Arm the watchdog before the socket can reach a
                // dispatch task.
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                batnet_obs::counter_add("serve.accepted", 1);
                if let Some(ticket) = ctx.admission.try_admit() {
                    let task_ctx = Arc::clone(ctx);
                    ctx.pool
                        .spawn(move || dispatch_one(&task_ctx, stream, ticket));
                } else {
                    batnet_obs::counter_add("serve.rejected.backpressure", 1);
                    let resp = Response::error(503, "server busy")
                        .with_header("Retry-After", 1)
                        .with_header("X-Batnet-Trace-Id", ctx.ids.next_id());
                    // Best-effort, nonblocking shed: the 503 fits
                    // the socket send buffer when the peer is sane;
                    // a peer that never reads must cost the accept
                    // thread nothing — overload is exactly when
                    // shedding speed matters most. If the write
                    // would block, just close.
                    let _ = stream.set_nonblocking(true);
                    let _ = resp.write_to(&mut stream);
                }
            }
            Err(_) => batnet_obs::counter_add("serve.accept.errors", 1),
        }
    }
    // Drain: no new work; admitted connections still get served.
    batnet_obs::event("serve", "drain", "accept loop stopped");
}

/// One dispatch task: serve the connection it was spawned with. Runs on
/// a shared-pool worker thread; the `catch_unwind` keeps a handler
/// panic to one `500`, so the pool's own backstop never fires for serve
/// traffic. The ticket's slot is released when the task ends.
fn dispatch_one(ctx: &DispatchCtx, stream: TcpStream, mut ticket: Ticket) {
    let queue_wait_us = ticket.start();
    let trace_id = ctx.ids.next_id();
    let started = batnet_obs::now();
    // The handler closure consumes the stream, so clone the socket
    // handle first: after a contained panic the dispatch still owes
    // the client a 500 (and the books a `responses.5xx` tick —
    // `requests.total` was already counted inside the closure).
    let fallback = stream.try_clone().ok();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        serve_connection(ctx, stream, &trace_id, queue_wait_us)
    }));
    if let Err(_panic) = outcome {
        batnet_obs::counter_add("serve.panics.contained", 1);
        batnet_obs::counter_add("serve.responses.5xx", 1);
        if let Some(mut s) = fallback {
            let resp = Response::error(500, "internal error: handler panicked")
                .with_header("X-Batnet-Trace-Id", &trace_id);
            if resp.write_to(&mut s).is_err() {
                batnet_obs::counter_add("serve.write.errors", 1);
            }
        }
    }
    batnet_obs::observe(
        "serve.latency.us",
        started.elapsed().as_micros().min(u64::MAX as u128) as u64,
    );
}

/// One request per connection (`Connection: close`): parse under the
/// limits, dispatch under a traced `serve.request` span, respond with
/// the trace id stamped on. Parse rejections are accounted per class;
/// real requests additionally feed the per-endpoint latency histogram,
/// the trace ring, and the access log — the ring push happens before
/// the response write, so accounting holds even when the client is
/// already gone.
fn serve_connection(ctx: &DispatchCtx, mut stream: TcpStream, trace_id: &str, queue_wait_us: u64) {
    let response = match read_request(&mut stream, &ctx.limits) {
        Ok(None) => {
            // Clean close before a request — a probe or a mid-dial
            // disconnect. Nothing to answer.
            batnet_obs::counter_add("serve.closed.idle", 1);
            return;
        }
        Ok(Some(req)) => {
            batnet_obs::counter_add("serve.requests.total", 1);
            let root = Span::enter("serve.request");
            let span_ctx = root.context();
            let (label, response) = api::handle(&req, ctx);
            let handler_us = root.close().as_micros().min(u64::MAX as u128) as u64;
            batnet_obs::observe(&format!("serve.latency.us.{label}"), handler_us);
            batnet_obs::observe("serve.queue.wait.us", queue_wait_us);
            let entry = TraceEntry {
                trace_id: trace_id.to_string(),
                method: req.method.to_string(),
                path: req.path.clone(),
                status: response.status,
                queue_wait_us,
                handler_us,
                deadline_ms: req
                    .param("deadline_ms")
                    .and_then(|v| v.parse::<u64>().ok())
                    .map(|d| d.min(ctx.cfg.max_deadline_ms)),
                partial: response.status == 206,
                spans: batnet_obs::take_tree(span_ctx),
            };
            ctx.cfg.access_log.emit(&entry);
            ctx.ring.push(entry);
            response
        }
        Err(e) => {
            batnet_obs::counter_add(&format!("serve.rejected.{}", e.metric_class()), 1);
            let resp = Response::error(e.status(), &e.detail());
            if e.status() == 503 {
                resp.with_header("Retry-After", 1)
            } else {
                resp
            }
        }
    };
    let response = response.with_header("X-Batnet-Trace-Id", trace_id);
    batnet_obs::counter_add(
        &format!("serve.responses.{}xx", response.status / 100),
        1,
    );
    if response.write_to(&mut stream).is_err() {
        batnet_obs::counter_add("serve.write.errors", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{OTHER, ROUTES};
    use crate::client;
    use crate::http::{Method, Request};
    use crate::store::tests::two_router_configs;
    use std::sync::mpsc;

    const T: Duration = Duration::from_secs(20);

    /// Two routers, one hop apart, as an upload body.
    fn upload_body() -> String {
        let mut body = String::from("{\"configs\": [");
        for (i, (name, text)) in two_router_configs().iter().enumerate() {
            if i > 0 {
                body.push_str(", ");
            }
            body.push_str("{\"name\": ");
            batnet_obs::json::write_str(&mut body, name);
            body.push_str(", \"text\": ");
            batnet_obs::json::write_str(&mut body, text);
            body.push('}');
        }
        body.push_str("]}");
        body
    }

    fn bare(method: Method, path: &str) -> Request {
        Request {
            method,
            path: path.to_string(),
            query: Vec::new(),
            headers: Default::default(),
            body: Vec::new(),
        }
    }

    #[test]
    fn only_reach_waits_for_a_held_bdd_lock() {
        let handle = spawn(ServeConfig::default()).expect("bind loopback");
        let addr = handle.addr();
        for name in ["a", "b"] {
            let up = client::post(addr, &format!("/snapshots/{name}"), upload_body().as_bytes(), T);
            assert_eq!(up.expect("upload").status, 201);
        }
        // A reach query holds the BDD manager for its whole deadline;
        // everything that only reads the snapshot must answer meanwhile.
        let a = handle.ctx.store.get("a").expect("stored");
        let held = a.bdd.lock().expect("not poisoned");
        for path in [
            "/query/trace?snapshot=a&device=r1&iface=hosts&src=10.1.0.5&dst=10.2.0.5",
            "/lint?snapshot=a",
            "/report?snapshot=a",
            "/diff?snapshot=a&against=b",
            "/diff?snapshot=b&against=a",
            "/snapshots",
            "/snapshots/a",
        ] {
            let r = client::get(addr, path, T).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(r.status, 200, "{path}: {}", r.body_str());
        }
        let again = client::post(addr, "/snapshots/a", upload_body().as_bytes(), T);
        assert_eq!(again.expect("re-upload").status, 201);
        drop(held);
        let reach = client::get(addr, "/query/reach?snapshot=a&port=80", T).expect("reach");
        assert_eq!(reach.status, 200, "{}", reach.body_str());
        handle.shutdown();
    }

    #[test]
    fn admission_sheds_exactly_at_depth_waiting() {
        let adm = Admission::new(2);
        let mut first = adm.try_admit().expect("slot 1");
        let _second = adm.try_admit().expect("slot 2");
        assert!(adm.try_admit().is_none(), "depth waiting: shed");
        // A pool thread picking one up frees a waiting slot; in-flight
        // work is bounded by the pool, not by admission.
        first.start();
        let third = adm.try_admit().expect("slot freed by start");
        assert!(adm.try_admit().is_none());
        drop(third);
        assert!(adm.try_admit().is_some(), "a dropped ticket frees its slot");
    }

    #[test]
    fn wait_idle_returns_only_after_the_last_ticket_ends() {
        let adm = Admission::new(4);
        let mut running = adm.try_admit().expect("admit");
        let waiting = adm.try_admit().expect("admit");
        running.start();
        let released = Arc::new(AtomicBool::new(false));
        let (about_to_wait, go) = mpsc::channel();
        let waiter = {
            let (adm, released) = (Arc::clone(&adm), Arc::clone(&released));
            std::thread::spawn(move || {
                about_to_wait.send(()).expect("test thread alive");
                adm.wait_idle();
                released.load(Ordering::SeqCst)
            })
        };
        go.recv().expect("waiter started");
        drop(waiting);
        released.store(true, Ordering::SeqCst);
        drop(running);
        assert!(waiter.join().expect("waiter"), "woke before the last ticket ended");
    }

    #[test]
    fn a_panicking_task_still_releases_its_slot() {
        let adm = Admission::new(1);
        let mut ticket = adm.try_admit().expect("admit");
        // The production path: the ticket rides a pool task, and the
        // pool's backstop swallows the unwind.
        batnet_exec::current().spawn(move || {
            ticket.start();
            panic!("handler bug below the dispatch frame");
        });
        adm.wait_idle();
        assert!(adm.try_admit().is_some());
    }

    #[test]
    fn overload_sheds_and_drain_waits_for_admitted_work() {
        let cfg = ServeConfig {
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let handle = spawn(cfg).expect("bind loopback");
        let addr = handle.addr();
        // Two admitted connections no pool thread has picked up yet.
        let admitted: Vec<Ticket> = (0..2)
            .map(|_| handle.ctx.admission.try_admit().expect("slot"))
            .collect();
        // The shed is written without reading the request, so a peer
        // that has sent nothing yet sees it whole.
        let mut shed = String::new();
        let mut peer = TcpStream::connect(addr).expect("connect");
        std::io::Read::read_to_string(&mut peer, &mut shed).expect("the shed is still an answer");
        assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
        assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{shed}");
        assert!(shed.contains("\r\nX-Batnet-Trace-Id: "), "{shed}");

        let released = Arc::new(AtomicBool::new(false));
        let drain = {
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                handle.shutdown();
                released.load(Ordering::SeqCst)
            })
        };
        released.store(true, Ordering::SeqCst);
        drop(admitted);
        assert!(drain.join().expect("drain"), "drained past an admitted connection");
    }

    #[test]
    fn routes_resolve_to_themselves_and_labels_are_a_closed_set() {
        let handle = spawn(ServeConfig::default()).expect("bind loopback");
        let addr = handle.addr();
        let request = |method: Method, path: &str| match method {
            Method::Get => client::get(addr, path, T),
            Method::Post => client::post(addr, path, upload_body().as_bytes(), T),
        }
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        let mut asked = vec![OTHER];
        let missing = request(Method::Get, "/no/such/route");
        assert_eq!(missing.status, 404);
        for route in ROUTES.iter().filter(|r| r.label != "admin.shutdown") {
            let path = format!("/{}", route.pattern.join("/").replace('*', "t"));
            request(route.method, &path);
            asked.push(route.label);
            // The table has no row an earlier row shadows, and the
            // label a request is timed under is its own row's.
            assert_eq!(api::handle(&bare(route.method, &path), &handle.ctx).0, route.label);
        }
        let unrouted = bare(Method::Post, "/healthz");
        let (label, response) = api::handle(&unrouted, &handle.ctx);
        assert_eq!((label, response.status), (OTHER, 404));

        // asked ⊆ what /metricsz reports per endpoint ⊆ the closed set
        // (other tests in this process may have asked for more).
        let metrics = request(Method::Get, "/metricsz");
        let reported: Vec<&str> = (metrics.body_str().split('"'))
            .filter_map(|key| key.strip_prefix("slo.")?.strip_suffix(".p50_us"))
            .collect();
        for label in &asked {
            assert!(reported.contains(label), "slo.{label}.p50_us missing");
        }
        for label in &reported {
            let closed = *label == OTHER || ROUTES.iter().any(|r| r.label == *label);
            assert!(closed, "{label} is outside the closed label set");
        }
        handle.shutdown();
    }
}
