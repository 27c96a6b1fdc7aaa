//! Endpoint handlers: the service's API surface, one row of [`ROUTES`]
//! per endpoint.
//!
//! Every handler is a pure function from a parsed [`Request`] plus the
//! shared state to a [`Response`] — no I/O, no panics on malformed
//! input (bad parameters are 4xx responses), and every governed
//! operation that trips its budget returns **206 Partial Content**
//! whose JSON body carries the same `{stage, limit, abandoned}`
//! accounting as [`batnet_obs`] run reports. Partiality is a first-class
//! response shape, not an error: what was computed is returned, what
//! was abandoned is named.
//!
//! Locking rule: a stored snapshot is immutable; the BDD manager is the
//! only thing a query locks, and `/query/reach` the only query that
//! needs it.

use crate::http::{Method, Request, Response};
use crate::server::{DispatchCtx, ServeConfig};
use crate::store::StoredSnapshot;
use batnet::traceroute::{StartLocation, Tracer};
use batnet::{Exhaustion, ResourceGovernor};
use batnet_dataplane::{NodeKind, ReachAnalysis};
use batnet_net::{Flow, Prefix};
use batnet_obs::json;
use batnet_obs::metrics::MetricValue;
use batnet_queries::{host_facing_interfaces, QueryContext, ServiceSpec};
use std::sync::Arc;
use std::time::Duration;

/// A handler's answer; `Err` is the early 4xx/5xx exit, so handlers
/// reject bad input with `?`.
type Reply = Result<Response, Response>;

/// One endpoint: what it matches, what it is called in metrics, and the
/// code that answers it.
pub struct Route {
    /// Method.
    pub method: Method,
    /// Path segments; `"*"` matches any one segment, which the handler
    /// receives as its second argument.
    pub pattern: &'static [&'static str],
    /// The stable endpoint label in per-endpoint SLO metric names
    /// (`serve.latency.us.<label>`).
    pub label: &'static str,
    handler: Handler,
}

type Handler = fn(&Request, &str, &DispatchCtx) -> Reply;

const fn route(
    method: Method,
    pattern: &'static [&'static str],
    label: &'static str,
    handler: Handler,
) -> Route {
    Route { method, pattern, label, handler }
}

/// The label of a request no route matches. With [`ROUTES`]' labels it
/// closes the set, so unknown paths cannot mint unbounded metric names.
pub const OTHER: &str = "other";

/// Every endpoint the service answers. A request is resolved against
/// this table once, yielding both its latency label and its handler.
pub static ROUTES: [Route; 13] = [
    route(Method::Get, &["healthz"], "healthz", |_, _, _| Ok(Response::text(200, "ok\n"))),
    route(Method::Get, &["readyz"], "readyz", readyz),
    route(Method::Get, &["metricsz"], "metricsz", metricsz),
    route(Method::Get, &["tracez"], "tracez", tracez),
    route(Method::Get, &["snapshots"], "snapshots.list", list_snapshots),
    route(Method::Post, &["snapshots", "*"], "snapshots.upload", upload),
    route(Method::Get, &["snapshots", "*"], "snapshots.summary", |_, name, ctx| {
        let s = ctx.store.get(name).ok_or_else(|| unknown_snapshot(name))?;
        Ok(Response::json(200, summary_json(&s)))
    }),
    route(Method::Get, &["query", "reach"], "query.reach", query_reach),
    route(Method::Get, &["query", "trace"], "query.trace", query_trace),
    route(Method::Get, &["lint"], "lint", lint),
    route(Method::Get, &["diff"], "diff", diff),
    route(Method::Get, &["report"], "report", |req, _, ctx| {
        Ok(Response::json(200, snapshot(req, ctx)?.report.to_json()))
    }),
    route(Method::Post, &["admin", "shutdown"], "admin.shutdown", |_, _, ctx| {
        ctx.state.request_shutdown();
        batnet_obs::event("serve", "shutdown", "requested");
        Ok(Response::json(202, "{\"draining\": true}\n"))
    }),
];

/// Routes a request: its endpoint label and its response. The caller
/// (the dispatch task) wraps this in `catch_unwind`, so a handler bug
/// becomes one 500, never a dead worker.
pub(crate) fn handle(req: &Request, ctx: &DispatchCtx) -> (&'static str, Response) {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    let route = ROUTES.iter().find(|r| {
        r.method == req.method
            && r.pattern.len() == segments.len()
            && r.pattern.iter().zip(&segments).all(|(p, s)| *p == "*" || p == s)
    });
    match route {
        Some(r) => {
            let star = r.pattern.iter().position(|p| *p == "*");
            let arg = star.map_or("", |i| segments[i]);
            (r.label, (r.handler)(req, arg, ctx).unwrap_or_else(|early| early))
        }
        None => (OTHER, Response::error(404, &format!("no route for {}", req.path))),
    }
}

fn readyz(_: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    if ctx.state.is_ready() {
        Ok(Response::text(200, "ready\n"))
    } else {
        Err(Response::error(503, "draining").with_header("Retry-After", 1))
    }
}

/// `GET /metricsz`: the full captured report, with per-endpoint SLO
/// summaries (`slo.<endpoint>.p50_us` / `.p99_us`, upper bucket edges
/// of the per-endpoint latency histograms) lifted into `meta` so an
/// operator — or the bench harness — reads p50/p99 without re-deriving
/// them from raw buckets. The map width (`exec.workers`) is lifted the
/// same way — *into this response's meta, never into the metric
/// registry* — so captured analysis reports stay byte-identical at
/// every width.
fn metricsz(_: &Request, _: &str, _: &DispatchCtx) -> Reply {
    let mut report = batnet_obs::capture();
    let mut meta = Vec::new();
    for (name, value) in &report.metrics {
        if let (Some(endpoint), MetricValue::Histogram(h)) =
            (name.strip_prefix("serve.latency.us."), value)
        {
            meta.push((format!("slo.{endpoint}.p50_us"), h.percentile_upper(0.5)));
            meta.push((format!("slo.{endpoint}.p99_us"), h.percentile_upper(0.99)));
        }
    }
    let width = batnet_exec::current().threads() as u64;
    meta.push(("exec.workers".to_string(), width));
    report
        .meta
        .extend(meta.into_iter().map(|(k, v)| (k, v.to_string())));
    Ok(Response::json(200, report.to_json()))
}

/// `GET /tracez[?id=<trace-id>]`: the full ring dump, or one retained
/// trace. A miss is a 404 that says *which kind* of miss: an id the
/// server issued but the ring has since evicted, or an id this server
/// never produced — distinguishable in O(1) because trace ids come from
/// an invertible generator ([`crate::TraceIds::was_issued`]).
fn tracez(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let Some(id) = req.param("id") else {
        return Ok(Response::json(200, ctx.ring.render_json()));
    };
    if let Some(doc) = ctx.ring.render_one(id) {
        return Ok(Response::json(200, doc));
    }
    let mut body = String::from("{\"error\": \"trace not retained\", \"trace_id\": ");
    json::write_str(&mut body, id);
    if ctx.ids.was_issued(id) {
        body.push_str(", \"reason\": \"evicted\", \"detail\": \
            \"this server issued the id, but the trace ring has since evicted it; \
             raise --trace-ring to retain more\"}\n");
    } else {
        body.push_str(", \"reason\": \"unknown\", \"detail\": \
            \"this server never issued the id (not in this seed's stream)\"}\n");
    }
    Err(Response::json(404, body))
}

/// Builds the per-request governor: `deadline_ms` (default from config,
/// capped), plus opt-in `max_iterations` / `max_bdd_nodes` budgets —
/// the same [`ResourceGovernor`] the batch CLIs use, so serve and batch
/// share one enforcement mechanism.
fn request_governor(req: &Request, cfg: &ServeConfig) -> Result<ResourceGovernor, Response> {
    fn number<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, Response> {
        req.param(name)
            .map(|v| v.parse().map_err(|_| Response::error(400, &format!("bad {name}: {v:?}"))))
            .transpose()
    }
    let deadline_ms = number::<u64>(req, "deadline_ms")?
        .map_or(cfg.default_deadline_ms, |d| d.min(cfg.max_deadline_ms));
    let mut gov = ResourceGovernor::with_deadline(Duration::from_millis(deadline_ms));
    if let Some(n) = number(req, "max_iterations")? {
        gov = gov.and_iteration_budget(n);
    }
    if let Some(n) = number(req, "max_bdd_nodes")? {
        gov = gov.and_node_ceiling(n);
    }
    Ok(gov)
}

/// Appends `"partial": {...}` (or `"partial": null`) to a JSON object
/// under construction — the `Outcome::Partial` accounting in the shape
/// run reports use.
fn write_partial(out: &mut String, partial: Option<&(Vec<String>, Exhaustion)>) {
    out.push_str("\"partial\": ");
    match partial {
        None => out.push_str("null"),
        Some((abandoned, why)) => {
            out.push_str("{\"stage\": ");
            json::write_str(out, &why.stage);
            out.push_str(", \"limit\": ");
            json::write_str(out, &why.limit.to_string());
            out.push_str(", \"abandoned\": [");
            for (i, a) in abandoned.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::write_str(out, a);
            }
            out.push_str("]}");
        }
    }
}

/// A governed answer: 206 (and a `serve.partial.total` tick) when the
/// budget tripped, `complete` otherwise.
fn governed(complete: u16, partial: bool, body: String) -> Response {
    if partial {
        batnet_obs::counter_add("serve.partial.total", 1);
    }
    Response::json(if partial { 206 } else { complete }, body)
}

fn unknown_snapshot(name: &str) -> Response {
    Response::error(404, &format!("unknown snapshot {name:?}"))
}

/// Resolves the `snapshot` parameter.
fn snapshot(req: &Request, ctx: &DispatchCtx) -> Result<Arc<StoredSnapshot>, Response> {
    let name = req
        .param("snapshot")
        .ok_or_else(|| Response::error(400, "missing snapshot parameter"))?;
    ctx.store.get(name).ok_or_else(|| unknown_snapshot(name))
}

fn list_snapshots(_: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let mut out = String::from("{\"snapshots\": [");
    for (i, s) in ctx.store.list().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        json::write_str(&mut out, &s.name);
        out.push_str(&format!(
            ", \"devices\": {}, \"quarantined\": {}, \"partial\": {}, \"seq\": {}}}",
            s.devices.len(),
            s.snapshot.quarantined.len(),
            s.partial.is_some(),
            s.seq
        ));
    }
    out.push_str("]}\n");
    Ok(Response::json(200, out))
}

/// `POST /snapshots/<name>`: body is `{"configs": [{"name", "text"}…]}`.
fn upload(req: &Request, name: &str, ctx: &DispatchCtx) -> Reply {
    let gov = request_governor(req, &ctx.cfg)?;
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Response::error(400, "body is not UTF-8"))?;
    let parsed =
        json::parse(text).map_err(|e| Response::error(400, &format!("body is not JSON: {e}")))?;
    let list = parsed
        .get("configs")
        .and_then(|c| c.as_arr())
        .ok_or_else(|| Response::error(400, "body must be {\"configs\": [{\"name\", \"text\"}…]}"))?;
    let mut configs = Vec::with_capacity(list.len());
    for item in list {
        match (
            item.get("name").and_then(|v| v.as_str()),
            item.get("text").and_then(|v| v.as_str()),
        ) {
            (Some(n), Some(t)) => configs.push((n.to_string(), t.to_string())),
            _ => return Err(Response::error(400, "each config needs string name and text")),
        }
    }
    let stored = ctx
        .store
        .insert(name, configs, &gov)
        .map_err(|e| Response::error(422, &e.to_string()))?;
    Ok(governed(201, stored.partial.is_some(), summary_json(&stored)))
}

/// The shared upload/summary body: device counts, per-device quarantine
/// accounting with machine-readable reason codes (partial-result
/// semantics: quarantined devices are *reported*, not silently gone),
/// and the partial accounting.
fn summary_json(s: &StoredSnapshot) -> String {
    let mut out = String::from("{\"snapshot\": ");
    json::write_str(&mut out, &s.name);
    out.push_str(&format!(
        ", \"devices\": {}, \"diagnostics\": {}, \"quarantined\": [",
        s.devices.len(),
        s.snapshot.diagnostic_count()
    ));
    for (i, q) in s.snapshot.quarantined.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"device\": ");
        json::write_str(&mut out, &q.device);
        out.push_str(", \"stage\": ");
        json::write_str(&mut out, &q.stage.to_string());
        out.push_str(", \"code\": ");
        json::write_str(&mut out, q.reason.code());
        out.push('}');
    }
    out.push_str("], ");
    write_partial(&mut out, s.partial.as_ref());
    out.push_str("}\n");
    out
}

/// `GET /query/reach?snapshot=S&prefix=P&port=N`: symbolic service
/// reachability from every host-facing interface, under the request's
/// governor. A tripped budget returns 206 with the fixed point computed
/// so far — the honest under-approximation, never a hang.
fn query_reach(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let s = snapshot(req, ctx)?;
    let gov = request_governor(req, &ctx.cfg)?;
    let prefix: Prefix = (req.param("prefix").unwrap_or("0.0.0.0/0").parse())
        .map_err(|e| Response::error(400, &format!("bad prefix: {e}")))?;
    let port: u16 = (req.param("port").unwrap_or("80").parse())
        .map_err(|e| Response::error(400, &format!("bad port: {e}")))?;
    let service = ServiceSpec::tcp(prefix, port);
    // The one lock a query takes. Poisoning cannot happen (a handler
    // panic is caught above the guard's frame), but recover anyway. The
    // wait is a span of its own, so a request queued behind another
    // reach shows it in its `/tracez` tree.
    let waiting = batnet_obs::Span::enter("serve.bdd_lock");
    let mut bdd = s.bdd.lock().unwrap_or_else(|e| e.into_inner());
    drop(waiting);
    let mut q = QueryContext {
        devices: &s.devices,
        dp: &s.dp,
        topo: &s.topo,
        bdd: &mut bdd,
        vars: &s.vars,
        graph: &s.graph,
    };

    // Seed every internal host-facing interface with its scoped sources.
    let traffic = q.service_traffic(&service);
    let mut seeds = Vec::new();
    for h in host_facing_interfaces(q.devices, q.topo).iter().filter(|h| !h.external) {
        let kind = NodeKind::IfaceSrc(h.device.clone(), h.interface.clone());
        let Some(node) = q.graph.node(&kind) else {
            continue;
        };
        let seed = q.seed(h, traffic);
        if seed != batnet::bdd::NodeId::FALSE {
            seeds.push((node, seed));
        }
    }
    // Serve's sink rule is narrower than the query library's: delivery
    // into the service subnet only, not acceptance by a device that owns
    // an address in it.
    let mut sinks = q.service_sinks(&service);
    sinks.retain(|&n| matches!(q.graph.nodes[n], NodeKind::DeliveredToSubnet(..)));

    let (result, partial) = ReachAnalysis::new(q.graph)
        .forward_governed(q.bdd, &seeds, &gov)
        .into_parts();
    let mut delivered = batnet::bdd::NodeId::FALSE;
    for &sk in &sinks {
        delivered = q.bdd.or(delivered, result.at(sk));
    }
    let nodes_reached = result
        .reach
        .iter()
        .filter(|&&n| n != batnet::bdd::NodeId::FALSE)
        .count();

    let mut out = String::from("{\"query\": \"reach\", \"snapshot\": ");
    json::write_str(&mut out, &s.name);
    out.push_str(", \"prefix\": ");
    json::write_str(&mut out, &prefix.to_string());
    out.push_str(&format!(
        ", \"port\": {port}, \"starts\": {}, \"sinks\": {}, \"delivered\": {}, \
         \"nodes_reached\": {nodes_reached}, \"relaxations\": {}, ",
        seeds.len(),
        sinks.len(),
        delivered != batnet::bdd::NodeId::FALSE,
        result.relaxations,
    ));
    write_partial(&mut out, partial.as_ref());
    out.push_str("}\n");
    Ok(governed(200, partial.is_some(), out))
}

/// `GET /query/trace?snapshot=S&device=D&iface=I&src=IP&dst=IP&port=N
/// [&proto=tcp|udp]`: one concrete annotated traceroute.
fn query_trace(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let s = snapshot(req, ctx)?;
    let need = |name: &str| -> Result<&str, Response> {
        req.param(name)
            .ok_or_else(|| Response::error(400, &format!("missing {name} parameter")))
    };
    let (device, iface) = (need("device")?, need("iface")?);
    let parse_ip = |name: &str| -> Result<batnet_net::Ip, Response> {
        need(name)?
            .parse()
            .map_err(|e| Response::error(400, &format!("bad {name}: {e}")))
    };
    let (src, dst) = (parse_ip("src")?, parse_ip("dst")?);
    let port: u16 = (req.param("port").unwrap_or("80").parse())
        .map_err(|e| Response::error(400, &format!("bad port: {e}")))?;
    let flow = match req.param("proto").unwrap_or("tcp") {
        "udp" => Flow::udp(src, 40000, dst, port),
        _ => Flow::tcp(src, 40000, dst, port),
    };
    let known = s
        .devices
        .iter()
        .any(|d| d.name == device && d.interfaces.contains_key(iface));
    if !known {
        return Err(Response::error(404, &format!("no interface {iface:?} on device {device:?}")));
    }
    let trace = Tracer::new(&s.devices, &s.dp, &s.topo)
        .trace(&StartLocation::ingress(device, iface), &flow);
    let mut out = String::from("{\"query\": \"trace\", \"snapshot\": ");
    json::write_str(&mut out, &s.name);
    out.push_str(", \"flow\": ");
    json::write_str(&mut out, &flow.to_string());
    out.push_str(&format!(", \"delivered\": {}, \"trace\": ", trace.any_succeeds()));
    json::write_str(&mut out, &trace.to_string());
    out.push_str("}\n");
    Ok(Response::json(200, out))
}

/// `GET /lint?snapshot=S`: the static-analysis passes over the stored
/// (healthy) devices, governed — a tripped budget abandons the
/// remaining passes and says which.
fn lint(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let s = snapshot(req, ctx)?;
    let gov = request_governor(req, &ctx.cfg)?;
    let (findings, partial) = batnet_lint::run_all_governed(&s.devices, &gov).into_parts();
    let mut out = String::from("{\"query\": \"lint\", \"snapshot\": ");
    json::write_str(&mut out, &s.name);
    out.push_str(&format!(", \"findings\": {}, ", findings.len()));
    write_partial(&mut out, partial.as_ref());
    out.push_str(", \"report\": ");
    out.push_str(&batnet_lint::output::render_json(&s.name, &findings));
    out.push_str("}\n");
    Ok(governed(200, partial.is_some(), out))
}

/// `GET /diff?snapshot=A&against=B`: three-layer differential analysis
/// between two stored snapshots, governed at the layer boundaries.
fn diff(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let gov = request_governor(req, &ctx.cfg)?;
    let (Some(a_name), Some(b_name)) = (req.param("snapshot"), req.param("against")) else {
        return Err(Response::error(400, "diff needs snapshot and against parameters"));
    };
    let (Some(a), Some(b)) = (ctx.store.get(a_name), ctx.store.get(b_name)) else {
        return Err(Response::error(404, "unknown snapshot in snapshot/against"));
    };
    let (d, partial) = batnet_diff::diff_governed(
        &a.snapshot.diff_side(),
        &b.snapshot.diff_side(),
        &batnet::DiffOptions::default(),
        &gov,
    )
    .into_parts();
    let mut out = String::from("{\"query\": \"diff\", \"snapshot\": ");
    json::write_str(&mut out, a_name);
    out.push_str(", \"against\": ");
    json::write_str(&mut out, b_name);
    out.push_str(&format!(
        ", \"empty\": {}, \"changes\": {}, ",
        d.is_empty(),
        d.change_count()
    ));
    write_partial(&mut out, partial.as_ref());
    out.push_str(", \"report\": ");
    out.push_str(&batnet_diff::render_json(&d));
    out.push_str("}\n");
    Ok(governed(200, partial.is_some(), out))
}
