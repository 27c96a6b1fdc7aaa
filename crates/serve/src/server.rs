//! The service core: listener, bounded admission queue, dispatch
//! threads, watchdog, graceful drain.
//!
//! The threading model is deliberately boring — one blocking accept
//! loop, one bounded channel of admitted connections, a fixed set of
//! dispatch threads the service owns (one per unit of
//! [`batnet_exec`] width, `--threads` on the binary), each serving one
//! connection at a time, socket read timeouts as the slow-loris
//! watchdog — because every piece of it is a named element of the
//! failure model (DESIGN.md §5f):
//!
//! * **Backpressure.** The accept loop never waits on a client: it
//!   `try_send`s each connection into a channel of `queue_depth` slots,
//!   and when every slot is taken it sheds the connection with `503` +
//!   `Retry-After` immediately, so overload degrades to fast rejections
//!   instead of latency collapse.
//! * **Watchdog.** Every accepted socket gets a read timeout before it
//!   reaches a dispatch thread; a peer that feeds bytes too slowly costs
//!   one bounded slice of a dispatch thread (`408`), never a wedged one.
//! * **Panic isolation.** Each request runs under `catch_unwind`; a
//!   handler bug is one `500` and a `serve.panics.contained` tick, not
//!   a dead dispatch thread.
//! * **Graceful drain.** Shutdown (signalled by `POST /admin/shutdown`
//!   or [`Handle::shutdown`]) flips `readyz` to 503 and stops the accept
//!   loop, which drops the channel's only sender; the dispatch threads
//!   answer every queued connection, find the channel closed and exit,
//!   and [`Handle::join`] joins them.
//!
//! A handler whose analysis fans out runs its maps on scoped helper
//! threads of its own (`batnet_exec::Pool::map`), so serve traffic and
//! the analysis it triggers share no queue and cannot deadlock.
//! `/metricsz` reports that map width as `exec.workers` in its response
//! meta — never in the metric registry, so analysis reports stay
//! byte-identical at every width.
//!
//! Every response — including sheds, parse rejections, and the
//! post-panic 500 — carries an `X-Batnet-Trace-Id`. For real requests
//! the id keys a [`TraceEntry`] (queue wait, handler time, the request's
//! span tree extracted via [`batnet_obs::take_tree`]) pushed into the
//! bounded ring behind `GET /tracez`. Handler
//! latency is also recorded per endpoint
//! (`serve.latency.us.<endpoint>` histograms), so one endpoint's p99
//! regression cannot hide behind a fast-path-dominated aggregate.

use crate::api;
use crate::http::{read_request, Response};
use crate::store::SnapshotStore;
use crate::tracing::{TraceEntry, TraceIds, TraceRing};
use batnet_obs::Span;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
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
    dispatch: Vec<JoinHandle<()>>,
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
    /// e.g. via `POST /admin/shutdown`). The accept loop holds the
    /// queue's only sender, so once it has exited each dispatch thread
    /// serves what is still queued and then finds the queue closed:
    /// joining them is the whole drain.
    pub fn join(self) {
        let _ = self.accept.join();
        for thread in self.dispatch {
            let _ = thread.join();
        }
        batnet_obs::event("serve", "drain", "complete");
    }
}

/// An admitted connection and the instant it was admitted (for the
/// queue-wait account).
type Admitted = (TcpStream, Instant);

/// Everything a dispatch thread needs to serve one connection. Shared
/// (`Arc`) between the handle, the accept loop and every dispatch
/// thread.
pub(crate) struct DispatchCtx {
    pub(crate) store: SnapshotStore,
    pub(crate) cfg: ServeConfig,
    pub(crate) state: ServiceState,
    /// Connections being served right now: the `serve.inflight` gauge.
    inflight: AtomicUsize,
    pub(crate) ids: TraceIds,
    pub(crate) ring: Arc<TraceRing>,
}

/// Binds, prewarms, and starts the accept loop and one dispatch thread
/// per unit of [`batnet_exec::current`] width (so a test override is
/// honored). Returns once the service is ready.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;

    // Uploads and diffs free ≈100 MB each; see `SnapshotStore::insert`.
    batnet_obs::mem::map_large_blocks();
    let store = SnapshotStore::new(cfg.store_capacity);
    for id in &cfg.prewarm {
        if store.prewarm(id).is_none() {
            batnet_obs::event("serve", "prewarm-miss", id);
        }
    }

    let (queue, inbox) = mpsc::sync_channel::<Admitted>(cfg.queue_depth.max(1));
    let inbox = Arc::new(Mutex::new(inbox));
    let ctx = Arc::new(DispatchCtx {
        store,
        state: ServiceState::new(addr),
        inflight: AtomicUsize::new(0),
        ids: TraceIds::default(),
        ring: Arc::new(TraceRing::new(cfg.trace_ring_capacity)),
        cfg,
    });
    let mut dispatch = Vec::new();
    for i in 0..batnet_exec::current().threads() {
        let (ctx, inbox) = (Arc::clone(&ctx), Arc::clone(&inbox));
        dispatch.push(
            std::thread::Builder::new()
                .name(format!("serve-dispatch-{i}"))
                .spawn(move || dispatch_loop(&ctx, &inbox))?,
        );
    }
    let accept_ctx = Arc::clone(&ctx);
    let accept = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_ctx, queue))?;

    ctx.state.ready.store(true, Ordering::Relaxed);
    batnet_obs::event("serve", "ready", &addr.to_string());
    Ok(Handle {
        addr,
        ctx,
        accept,
        dispatch,
    })
}

/// The blocking accept loop: queue the socket (stamped with the
/// admission instant, so the dispatch thread can account queue wait)
/// for the dispatch threads, or — with `queue_depth` connections
/// already waiting — shed it with 503 immediately. Checks the shutdown
/// flag after every accept: [`ServiceState::request_shutdown`] connects
/// once to get it here, and that connection (or a client racing the
/// drain) is dropped unserved and uncounted. Returning drops `queue`,
/// the only sender, which is what lets the dispatch threads finish.
fn accept_loop(listener: &TcpListener, ctx: &DispatchCtx, queue: SyncSender<Admitted>) {
    let io_timeout = Duration::from_millis(ctx.cfg.io_timeout_ms.max(1));
    loop {
        let accepted = listener.accept();
        if ctx.state.is_shutting_down() {
            break;
        }
        match accepted {
            Ok((stream, _)) => {
                // Arm the watchdog before the socket can reach a
                // dispatch thread.
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                batnet_obs::counter_add("serve.accepted", 1);
                if let Err(
                    TrySendError::Full((mut stream, _))
                    | TrySendError::Disconnected((mut stream, _)),
                ) = queue.try_send((stream, batnet_obs::now()))
                {
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
    // Drain: no new work; queued connections still get served.
    batnet_obs::event("serve", "drain", "accept loop stopped");
}

/// One dispatch thread: serve queued connections one at a time until
/// the queue is closed and empty. The inbox lock is held only while
/// waiting for the next connection, never while serving one.
fn dispatch_loop(ctx: &DispatchCtx, inbox: &Mutex<Receiver<Admitted>>) {
    loop {
        let next = inbox.lock().unwrap_or_else(PoisonError::into_inner).recv();
        match next {
            Ok((stream, admitted_at)) => dispatch_one(ctx, stream, admitted_at),
            Err(_) => return,
        }
    }
}

/// Serve one connection. The `catch_unwind` keeps a handler panic to
/// one `500`, so a dispatch thread never dies of one.
fn dispatch_one(ctx: &DispatchCtx, stream: TcpStream, admitted_at: Instant) {
    let queue_wait_us = admitted_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let inflight = ctx.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    batnet_obs::gauge_set("serve.inflight", inflight as f64);
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
    let inflight = ctx.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
    batnet_obs::gauge_set("serve.inflight", inflight as f64);
}

/// One request per connection (`Connection: close`): parse under the
/// limits, dispatch under a traced `serve.request` span, respond with
/// the trace id stamped on. Parse rejections are accounted per class;
/// real requests additionally feed the per-endpoint latency histogram
/// and the trace ring — the ring push happens before
/// the response write, so accounting holds even when the client is
/// already gone.
fn serve_connection(ctx: &DispatchCtx, mut stream: TcpStream, trace_id: &str, queue_wait_us: u64) {
    let response = match read_request(&mut stream, ctx.cfg.max_body_bytes) {
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

    const T: Duration = Duration::from_secs(20);

    /// Two routers, one hop apart, as an upload body.
    fn upload_body() -> String {
        body_of(two_router_configs())
    }

    /// `configs` as an upload body.
    fn body_of(configs: Vec<(String, String)>) -> String {
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

    /// A diff walks a fork of each stored manager, so the arena keeps
    /// only what the upload and reaches put there, and a reach capped at
    /// that arena's size answers the same before and after a diff.
    #[test]
    fn a_diff_leaves_the_stored_managers_as_it_found_them() {
        let handle = spawn(ServeConfig::default()).expect("bind loopback");
        let addr = handle.addr();
        // `b` drops web traffic at r1's host port.
        let acl =
            "ip access-list extended WEB\n 10 deny tcp any any eq 80\n 20 permit ip any any\n";
        let mut filtered = two_router_configs();
        let r1 = &mut filtered[0].1;
        *r1 = r1.replace("10.1.0.1/24\n", "10.1.0.1/24\n ip access-group WEB in\n") + acl;
        for (name, configs) in [("a", two_router_configs()), ("b", filtered)] {
            let body = body_of(configs);
            let up = client::post(addr, &format!("/snapshots/{name}"), body.as_bytes(), T);
            assert_eq!(up.expect("upload").status, 201);
        }
        let reach = |query: &str| {
            let r = client::get(addr, &format!("/query/reach?snapshot=a&port=80{query}"), T);
            let r = r.expect("reach");
            (r.status, r.body_str().to_string())
        };
        let uncapped = reach("");
        assert_eq!(uncapped.0, 200, "{}", uncapped.1);
        let stored = ["a", "b"].map(|name| handle.ctx.store.get(name).expect("stored"));
        let nodes = || {
            stored
                .each_ref()
                .map(|s| s.bdd.lock().expect("not poisoned").node_count())
        };
        let arenas = nodes();
        let capped = format!("&max_bdd_nodes={}", arenas[0] + 1);
        assert_eq!(reach(&capped), uncapped);
        for path in ["/diff?snapshot=a&against=b", "/diff?snapshot=b&against=a"] {
            let d = client::get(addr, path, T).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert_eq!(d.status, 200, "{path}: {}", d.body_str());
            let body = batnet_obs::json::parse(d.body_str()).expect("diff body parses");
            let summary = body.get("report").and_then(|r| r.get("summary"));
            let starts = summary.expect("summary").num("changed_starts");
            assert_eq!(starts, Ok(1.0), "{path}");
        }
        assert_eq!(nodes(), arenas);
        assert_eq!(reach(&capped), uncapped);
        handle.shutdown();
    }

    /// Polls `done` until it holds; fails the test after `T`.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let started = batnet_obs::now();
        while !done() {
            assert!(started.elapsed() < T, "timed out waiting until {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A server of `threads` dispatch threads and two queue slots, with
    /// every dispatch thread holding a silent connection and both slots
    /// holding a connection that sent `request` — proven full by the
    /// next connect reading a whole 503 (the accept loop takes
    /// connections in order, so the two before it are queued). Returns
    /// the handle, the busy connections and the queued ones.
    fn saturated(threads: usize, request: &[u8]) -> (Handle, Vec<TcpStream>, Vec<TcpStream>) {
        let cfg = ServeConfig {
            queue_depth: 2,
            io_timeout_ms: 60_000,
            ..ServeConfig::default()
        };
        let pool = batnet_exec::Pool::new(threads);
        let handle = batnet_exec::with_pool(&pool, || spawn(cfg)).expect("bind loopback");
        let addr = handle.addr();
        let connect = || TcpStream::connect(addr).expect("connect");
        let busy: Vec<TcpStream> = (0..threads).map(|_| connect()).collect();
        wait_until("every dispatch thread holds a connection", || {
            handle.ctx.inflight.load(Ordering::SeqCst) == threads
        });
        let queued: Vec<TcpStream> = (0..2)
            .map(|_| {
                let mut peer = connect();
                std::io::Write::write_all(&mut peer, request).expect("send");
                peer
            })
            .collect();
        // The shed is written without reading the request, so a peer
        // that has sent nothing yet sees it whole.
        let mut shed = String::new();
        std::io::Read::read_to_string(&mut connect(), &mut shed)
            .expect("the shed is still an answer");
        assert!(shed.starts_with("HTTP/1.1 503 "), "{shed}");
        assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{shed}");
        assert!(shed.contains("\r\nX-Batnet-Trace-Id: "), "{shed}");
        (handle, busy, queued)
    }

    #[test]
    fn overload_sheds_once_every_dispatch_thread_and_queue_slot_is_held() {
        let (handle, busy, queued) = saturated(2, b"");
        drop((busy, queued));
        handle.shutdown();
    }

    #[test]
    fn drain_answers_every_queued_connection_before_shutdown_returns() {
        let request = b"GET /healthz HTTP/1.1\r\nHost: batnet\r\nConnection: close\r\n\r\n";
        let (handle, busy, queued) = saturated(1, request);
        let ctx = Arc::clone(&handle.ctx);
        let drain = std::thread::spawn(move || handle.shutdown());
        wait_until("the drain starts", || ctx.state.is_shutting_down());
        drop(busy);
        drain.join().expect("drain");
        for mut peer in queued {
            let mut answer = String::new();
            std::io::Read::read_to_string(&mut peer, &mut answer).expect("answered");
            assert!(
                answer.starts_with("HTTP/1.1 200 "),
                "a queued connection went unanswered: {answer:?}"
            );
        }
    }

    #[test]
    fn a_panicking_handler_still_frees_its_dispatch_thread() {
        let pool = batnet_exec::Pool::new(1);
        let handle =
            batnet_exec::with_pool(&pool, || spawn(ServeConfig::default())).expect("bind loopback");
        let addr = handle.addr();
        let up = client::post(addr, "/snapshots/p", upload_body().as_bytes(), T);
        assert_eq!(up.expect("upload").status, 201);
        // A manager that knows none of the graph's nodes: the reach
        // handler panics on its first BDD operation.
        let p = handle.ctx.store.get("p").expect("stored");
        *p.bdd.lock().expect("not poisoned") = batnet::bdd::Bdd::new(0);
        let reach = client::get(addr, "/query/reach?snapshot=p&port=80", T).expect("reach");
        assert_eq!(reach.status, 500, "{}", reach.body_str());
        // The only dispatch thread survived and answers the next request.
        let next = client::get(addr, "/healthz", T).expect("healthz");
        assert_eq!(next.status, 200);
        handle.shutdown();
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
