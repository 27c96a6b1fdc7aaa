//! The service core: listener, shared-pool dispatch, watchdog, graceful
//! drain.
//!
//! The threading model is deliberately boring — one nonblocking accept
//! loop feeding a [`BoundedQueue`] of connections, one dispatch task on
//! the shared [`batnet_exec`] pool per admitted connection, socket read
//! timeouts as the slow-loris watchdog — because every piece of it is a
//! named element of the failure model (DESIGN.md §5f):
//!
//! * **Admission control.** The accept loop never blocks on a full
//!   queue: it sheds the connection with `503` + `Retry-After`
//!   immediately, so overload degrades to fast rejections instead of
//!   latency collapse.
//! * **Watchdog.** Every accepted socket gets a read timeout before it
//!   reaches a dispatch task; a peer that feeds bytes too slowly costs
//!   one bounded pool slice (`408`), never a wedged worker.
//! * **Panic isolation.** Each request runs under `catch_unwind`; a
//!   handler bug is one `500` and a `serve.panics.contained` tick, not
//!   a dead thread silently shrinking the pool.
//! * **Graceful drain.** Shutdown (signalled by `POST /admin/shutdown`
//!   or [`Handle::shutdown`]) flips `readyz` to 503, stops accepting,
//!   closes the queue, and waits for every in-flight dispatch task to
//!   finish its queued request.
//!
//! Request handlers run *on* the shared execution pool (the same pool
//! that parallelizes parse, routing sweeps, and reachability — sized
//! once per process, `--threads` on the binaries). A handler that fans
//! out its own `parallel_map` nests safely: the pool's help-first join
//! lets the joining task make progress on its own items even when every
//! worker is busy, so serve traffic can never deadlock the analysis it
//! triggers. Admission stays with the bounded queue — the pool sees one
//! task per *admitted* connection, and a drain waits on the dispatch
//! tracker, not on thread joins. `/metricsz` lifts the pool's gauges
//! (`exec.workers` / `exec.steals` / `exec.queue_depth`) into its
//! response meta the same way it lifts sampler accounting — never into
//! the metric registry, so analysis reports stay byte-identical at
//! every pool width.
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
use crate::queue::{BoundedQueue, PushError};
use crate::store::SnapshotStore;
use crate::tracing::{AccessLog, TraceEntry, TraceIds, TraceRing};
use batnet_obs::{Sampler, SamplerThread, Span};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Continuous-profiling cadence in Hz (0 = profiler off). When on,
    /// a sampler thread snapshots every live span stack and
    /// `GET /profilez` serves the accumulated window.
    pub profile_hz: u64,
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
            profile_hz: 0,
        }
    }
}

/// Shared liveness flags, visible to handlers (for `readyz` and
/// `/admin/shutdown`) and to the accept loop.
pub struct ServiceState {
    pub(crate) ready: AtomicBool,
    pub(crate) shutdown: AtomicBool,
}

impl ServiceState {
    fn new() -> ServiceState {
        ServiceState {
            ready: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Ready = warmed up and not draining.
    pub fn is_ready(&self) -> bool {
        self.ready.load(Ordering::Relaxed) && !self.shutdown.load(Ordering::Relaxed)
    }

    /// Flags the server to drain (idempotent).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Has a drain been requested?
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`Handle::shutdown`] (or POST `/admin/shutdown` and
/// [`Handle::join`]).
pub struct Handle {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    store: SnapshotStore,
    ring: Arc<TraceRing>,
    accept: JoinHandle<()>,
    dispatches: Arc<Dispatches>,
    /// The continuous profiler, when `profile_hz > 0`. Held here so the
    /// sampling thread stops (via drop) only after the dispatches drain.
    profiler: Option<SamplerThread>,
}

impl Handle {
    /// The bound address (real port, even when configured as `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The warm store (for in-process seeding in tests and benches).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// The shared liveness flags.
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// The recent-trace ring, shared — it outlives [`Handle::shutdown`],
    /// so post-drain accounting audits can read the final stats.
    pub fn trace_ring(&self) -> Arc<TraceRing> {
        Arc::clone(&self.ring)
    }

    /// The continuous profiler's sampler, when profiling is on — shared,
    /// so post-drain audits can check the accounting balance.
    pub fn sampler(&self) -> Option<Arc<Sampler>> {
        self.profiler.as_ref().map(SamplerThread::sampler)
    }

    /// Requests a drain and waits for the listener and every worker to
    /// finish queued work.
    pub fn shutdown(self) {
        self.state.request_shutdown();
        self.join();
    }

    /// Waits for the server to stop (a drain must have been requested,
    /// e.g. via `POST /admin/shutdown`). The accept loop closes the
    /// queue on exit; every admitted connection has exactly one
    /// dispatch task on the shared pool, so waiting the tracker down to
    /// zero is the whole drain — there are no owned threads to join.
    pub fn join(self) {
        let _ = self.accept.join();
        self.dispatches.wait_idle();
        // Dropping the profiler stops and joins the sampling thread.
        drop(self.profiler);
        batnet_obs::event("serve", "drain", "complete");
    }
}

/// In-flight dispatch accounting: one `begin` per admitted connection
/// (before the task is handed to the pool), one `end` when its dispatch
/// task finishes. A drain waits for zero — the service's requests run
/// on pool threads it does not own, so the tracker *is* the drain
/// barrier.
struct Dispatches {
    pending: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Dispatches {
    fn new() -> Dispatches {
        Dispatches {
            pending: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn begin(&self) {
        self.pending.fetch_add(1, Ordering::SeqCst);
    }

    fn end(&self) {
        // Decrement under the lock so a waiter can't check the count
        // between the decrement and the notify and then sleep forever.
        let _g = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.cv.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut g = self.lock.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while self.pending.load(Ordering::SeqCst) > 0 {
            let (guard, _) = self
                .cv
                .wait_timeout(g, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g = guard;
        }
    }
}

/// Ends the dispatch accounting even if the task unwinds: the pool
/// contains handler panics below this frame, but the drain barrier must
/// hold regardless.
struct DispatchGuard(Arc<Dispatches>);

impl Drop for DispatchGuard {
    fn drop(&mut self) {
        self.0.end();
    }
}

/// Everything a dispatch task needs to serve one connection. Shared
/// (`Arc`) between the accept loop and every task it spawns.
struct DispatchCtx {
    queue: Arc<BoundedQueue<(TcpStream, Instant)>>,
    store: SnapshotStore,
    cfg: ServeConfig,
    state: Arc<ServiceState>,
    inflight: Arc<AtomicU64>,
    limits: Limits,
    ids: Arc<TraceIds>,
    ring: Arc<TraceRing>,
    sampler: Option<Arc<Sampler>>,
    /// The shared execution pool requests run on — also the source of
    /// the `exec.*` gauges `/metricsz` lifts into its meta.
    pool: batnet_exec::Pool,
}

/// Binds, prewarms, and starts the accept loop; request handlers run as
/// dispatch tasks on the shared `batnet_exec` pool (captured here via
/// [`batnet_exec::current`], so a test override is honored).
/// Returns once the service is ready.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<Handle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    // Start the profiler before prewarm, so prewarm's pipeline spans
    // (parse, dpgen, graph…) are already in the first window.
    let profiler = (cfg.profile_hz > 0).then(|| SamplerThread::spawn(cfg.profile_hz));
    let sampler = profiler.as_ref().map(SamplerThread::sampler);

    let store = SnapshotStore::new(cfg.store_capacity);
    for id in &cfg.prewarm {
        if store.prewarm(id).is_none() {
            batnet_obs::event("serve", "prewarm-miss", id);
        }
    }

    let state = Arc::new(ServiceState::new());
    let queue = Arc::new(BoundedQueue::<(TcpStream, Instant)>::new(cfg.queue_depth));
    let inflight = Arc::new(AtomicU64::new(0));
    let limits = Limits::default().with_max_body(cfg.max_body_bytes);
    let ids = Arc::new(TraceIds::new(cfg.trace_seed));
    let ring = Arc::new(TraceRing::new(cfg.trace_ring_capacity));

    let ctx = Arc::new(DispatchCtx {
        queue: Arc::clone(&queue),
        store: store.clone(),
        cfg: cfg.clone(),
        state: Arc::clone(&state),
        inflight: Arc::clone(&inflight),
        limits: limits.clone(),
        ids: Arc::clone(&ids),
        ring: Arc::clone(&ring),
        sampler: sampler.clone(),
        pool: batnet_exec::current(),
    });
    let dispatches = Arc::new(Dispatches::new());

    let accept_ctx = Arc::clone(&ctx);
    let accept_dispatches = Arc::clone(&dispatches);
    let io_timeout = Duration::from_millis(cfg.io_timeout_ms.max(1));
    let accept = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_ctx, &accept_dispatches, io_timeout))?;

    state.ready.store(true, Ordering::Relaxed);
    batnet_obs::event("serve", "ready", &addr.to_string());
    Ok(Handle {
        addr,
        state,
        store,
        ring,
        accept,
        dispatches,
        profiler,
    })
}

/// The nonblocking accept loop: admit into the bounded queue (stamped
/// with the enqueue instant, so dispatch tasks can account queue wait)
/// or shed with 503 immediately. Each admitted connection gets exactly
/// one dispatch task on the shared pool — the task pops *a* queued
/// connection (not necessarily the one whose admission spawned it; the
/// counts are 1:1, so every connection is served and no task blocks).
/// Polls the shutdown flag between accepts.
fn accept_loop(
    listener: &TcpListener,
    ctx: &Arc<DispatchCtx>,
    dispatches: &Arc<Dispatches>,
    io_timeout: Duration,
) {
    let queue = &ctx.queue;
    let state = &ctx.state;
    let ids = &ctx.ids;
    while !state.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _)) => {
                // Arm the watchdog before the socket can reach a
                // dispatch task.
                let _ = stream.set_read_timeout(Some(io_timeout));
                let _ = stream.set_write_timeout(Some(io_timeout));
                batnet_obs::counter_add("serve.accepted", 1);
                match queue.try_push((stream, batnet_obs::now())) {
                    Ok(()) => {
                        dispatches.begin();
                        let guard = DispatchGuard(Arc::clone(dispatches));
                        let task_ctx = Arc::clone(ctx);
                        ctx.pool.spawn(move || {
                            let _guard = guard;
                            dispatch_one(&task_ctx);
                        });
                    }
                    Err((why, (mut stream, _))) => {
                        let detail = match why {
                            PushError::Full => "server busy",
                            PushError::Closed => "draining",
                        };
                        batnet_obs::counter_add("serve.rejected.backpressure", 1);
                        let resp = Response::error(503, detail)
                            .with_header("Retry-After", 1)
                            .with_header("X-Batnet-Trace-Id", ids.next_id());
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
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                batnet_obs::counter_add("serve.accept.errors", 1);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    // Drain: no new work; queued connections still get served.
    queue.close();
    batnet_obs::event("serve", "drain", "accept loop stopped");
}

/// One dispatch task: pop one queued connection and serve it. Runs on a
/// shared-pool worker thread; the `catch_unwind` below the pop keeps a
/// handler panic to one `500`, so the pool's own backstop never fires
/// for serve traffic.
fn dispatch_one(ctx: &DispatchCtx) {
    let Some((stream, enqueued_at)) = ctx.queue.pop() else {
        return;
    };
    let queue_wait_us = enqueued_at.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let trace_id = ctx.ids.next_id();
    let n = ctx.inflight.fetch_add(1, Ordering::Relaxed) + 1;
    batnet_obs::gauge_set("serve.inflight", n as f64);
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
    let n = ctx.inflight.fetch_sub(1, Ordering::Relaxed) - 1;
    batnet_obs::gauge_set("serve.inflight", n as f64);
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
            let label = api::endpoint_label(req.method, &req.path);
            let root = Span::enter("serve.request");
            let span_ctx = root.context();
            let response = api::handle(
                &req,
                &ctx.store,
                &ctx.cfg,
                &ctx.state,
                &ctx.ring,
                ctx.sampler.as_deref(),
                &ctx.ids,
                &ctx.pool,
            );
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
