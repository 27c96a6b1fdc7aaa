//! Endpoint handlers: the service's API surface, one row of [`ROUTES`]
//! per endpoint.
//!
//! Every handler is a pure function from a parsed [`Request`] plus the
//! shared state to a [`Response`] — no I/O, no panics on malformed
//! input (bad parameters are 4xx responses), and every governed
//! operation that trips its budget returns **206 Partial Content**
//! whose JSON body carries the `{stage, limit, abandoned}` accounting,
//! written by the same [`report::write_partial`] that run reports use.
//! Partiality is a first-class response shape, not an error: what was
//! computed is returned, what was abandoned is named. Every body is one
//! spaced [`Writer`] object with a trailing newline.
//!
//! Locking rule: a stored snapshot is immutable but for its BDD manager
//! and its diff memo. `/query/reach` locks only the manager, and holds it
//! for one backward walk from the service's sinks. `/diff` locks one
//! side's memo at a time, walks the starts that memo lacks, and only
//! try-locks the manager, to fork it and walk the fork; it builds the
//! side's graph afresh when a reach holds it. So a reach never waits for
//! a diff's walk, and a diff waits only for another diff's walk of the
//! same side, whose answers it then reads.

use crate::http::{Method, Request, Response};
use crate::server::{DispatchCtx, ServeConfig};
use crate::store::StoredSnapshot;
use batnet::bdd::NodeId;
use batnet::traceroute::{StartLocation, Tracer};
use batnet::{Exhaustion, ResourceGovernor};
use batnet_dataplane::{NodeKind, ReachAnalysis};
use batnet_net::{Flow, Prefix};
use batnet_obs::json::{self, Writer};
use batnet_obs::metrics::MetricValue;
use batnet_obs::report;
use batnet_queries::{service_sinks, HostIface, QueryContext, ServiceSpec};
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
        Ok(Response::json(202, body(|w| {
            w.field("draining", true);
        })))
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
/// never produced — distinguishable in O(1) because trace id *n* is
/// just `n` in hex ([`crate::TraceIds::was_issued`]).
fn tracez(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let Some(id) = req.param("id") else {
        return Ok(Response::json(200, ctx.ring.render_json()));
    };
    if let Some(doc) = ctx.ring.render_one(id) {
        return Ok(Response::json(200, doc));
    }
    let (reason, detail) = if ctx.ids.was_issued(id) {
        ("evicted", "this server issued the id, but the trace ring has since evicted it; \
                     raise --trace-ring to retain more")
    } else {
        ("unknown", "this server never issued the id")
    };
    Err(Response::json(404, body(|w| {
        w.field("error", "trace not retained")
            .field("trace_id", id)
            .field("reason", reason)
            .field("detail", detail);
    })))
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

/// A service body: one spaced JSON object, newline-terminated.
fn body(members: impl FnOnce(&mut Writer)) -> String {
    Writer::spaced().obj(members).finish_line()
}

/// Writes a governed answer's `"partial"` member in the run-report shape.
fn write_partial(w: &mut Writer, partial: Option<&(Vec<String>, Exhaustion)>) {
    let outcome = partial.map(|(abandoned, why)| why.outcome(abandoned));
    report::write_partial(w, outcome.as_ref());
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
    Ok(Response::json(200, body(|w| {
        w.array("snapshots", |w| {
            for s in ctx.store.list() {
                w.obj(|w| {
                    w.field("name", &s.name)
                        .field("devices", s.devices.len())
                        .field("quarantined", s.snapshot.quarantined.len())
                        .field("partial", s.partial.is_some())
                        .field("seq", s.seq);
                });
            }
        });
    })))
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
    body(|w| {
        w.field("snapshot", &s.name)
            .field("devices", s.devices.len())
            .field("diagnostics", s.snapshot.diagnostic_count())
            .array("quarantined", |w| {
                for q in &s.snapshot.quarantined {
                    w.obj(|w| {
                        w.field("device", &q.device)
                            .field("stage", q.stage.to_string())
                            .field("code", q.reason.code());
                    });
                }
            });
        write_partial(w, s.partial.as_ref());
    })
}

/// `GET /query/reach?snapshot=S&prefix=P&port=N`: can scoped service
/// traffic from some internal host-facing interface be delivered into the
/// service subnet? One backward walk from the service's sinks answers
/// every start (§4.2.3), under the request's governor. A tripped budget
/// returns 206 with the sets computed so far — the honest
/// under-approximation, never a hang.
fn query_reach(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let s = snapshot(req, ctx)?;
    let gov = request_governor(req, &ctx.cfg)?;
    let prefix: Prefix = (req.param("prefix").unwrap_or("0.0.0.0/0").parse())
        .map_err(|e| Response::error(400, &format!("bad prefix: {e}")))?;
    let port: u16 = (req.param("port").unwrap_or("80").parse())
        .map_err(|e| Response::error(400, &format!("bad port: {e}")))?;
    let (v, partial) = reach_verdict(&s, &ServiceSpec::tcp(prefix, port), &gov);
    let out = body(|w| {
        w.field("query", "reach")
            .field("snapshot", &s.name)
            .field("prefix", prefix.to_string())
            .field("port", port)
            .field("starts", v.starts)
            .field("sinks", v.sinks)
            .field("delivered", v.delivered)
            .field("nodes_reached", v.nodes_reached)
            .field("relaxations", v.relaxations);
        write_partial(w, partial.as_ref());
    });
    Ok(governed(200, partial.is_some(), out))
}

/// What `/query/reach` reports about one service.
struct ReachVerdict {
    /// Internal host-facing starts outside the service subnet whose scoped
    /// seed is non-empty.
    starts: usize,
    /// Delivery sinks into the service subnet.
    sinks: usize,
    /// Some start's seed meets what reaches a sink from it.
    delivered: bool,
    /// Graph nodes from which some packet reaches a sink (backward walk).
    nodes_reached: usize,
    /// Edges the backward walk pulled across.
    relaxations: u64,
}

/// `/query/reach`'s verdict on `service` in `s`, plus the walk's partial
/// accounting when `gov` tripped.
fn reach_verdict(
    s: &StoredSnapshot,
    service: &ServiceSpec,
    gov: &ResourceGovernor,
) -> (ReachVerdict, Option<(Vec<String>, Exhaustion)>) {
    // Everything that needs no BDD work happens before the lock: the
    // start node of every internal host-facing subnet outside the
    // service (`service_reachable`'s start rule), and the sinks. Serve's
    // sink rule is narrower than the query library's: delivery into the
    // service subnet only, not acceptance by a device that owns an
    // address in it.
    let starts: Vec<(&HostIface, usize)> = s
        .host_facing
        .iter()
        .filter(|h| !h.external && !h.subnet.overlaps(&service.prefix))
        .filter_map(|h| {
            let kind = NodeKind::IfaceSrc(h.device.clone(), h.interface.clone());
            s.graph.node(&kind).map(|node| (h, node))
        })
        .collect();
    let mut sinks = service_sinks(&s.graph, &s.devices, service);
    sinks.retain(|&n| matches!(s.graph.nodes[n], NodeKind::DeliveredToSubnet(..)));

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
    let traffic = q.service_traffic(service);
    let seeds: Vec<(usize, NodeId)> = starts
        .into_iter()
        .map(|(h, node)| (node, q.seed(h, traffic)))
        .filter(|&(_, seed)| seed != NodeId::FALSE)
        .collect();
    let (walk, partial) = ReachAnalysis::new(q.graph)
        .backward_from(q.bdd, q.vars, &sinks, gov)
        .into_parts();
    let delivered = seeds
        .iter()
        .any(|&(node, seed)| q.bdd.and(seed, walk.at(node)) != NodeId::FALSE);
    let verdict = ReachVerdict {
        starts: seeds.len(),
        sinks: sinks.len(),
        delivered,
        nodes_reached: walk.reach.iter().filter(|&&n| n != NodeId::FALSE).count(),
        relaxations: walk.relaxations,
    };
    (verdict, partial)
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
    Ok(Response::json(200, body(|w| {
        w.field("query", "trace")
            .field("snapshot", &s.name)
            .field("flow", flow.to_string())
            .field("delivered", trace.any_succeeds())
            .field("trace", trace.to_string());
    })))
}

/// `GET /lint?snapshot=S`: what `batnet-lint` reports (the passes over
/// the healthy devices plus the parse-diagnostic bridge), governed — a
/// tripped budget abandons the remaining passes and says which.
fn lint(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let s = snapshot(req, ctx)?;
    let gov = request_governor(req, &ctx.cfg)?;
    let (findings, partial) =
        batnet_lint::run_network_governed(&s.devices, &s.topo, &s.snapshot.diagnostics, &gov)
            .into_parts();
    let out = body(|w| {
        w.field("query", "lint").field("snapshot", &s.name).field("findings", findings.len());
        write_partial(w, partial.as_ref());
        w.raw("report", &batnet_lint::output::render_json(&s.name, &findings));
    });
    Ok(governed(200, partial.is_some(), out))
}

/// `GET /diff?snapshot=A&against=B`: three-layer differential analysis
/// between two stored snapshots, governed at the layer boundaries. A side
/// whose stored analysis is whole lends the diff its data plane,
/// topology, graph, manager and memo ([`StoredSnapshot::diff_side`]), so
/// it is walked only for the starts no earlier diff of it compared.
fn diff(req: &Request, _: &str, ctx: &DispatchCtx) -> Reply {
    let gov = request_governor(req, &ctx.cfg)?;
    let (Some(a_name), Some(b_name)) = (req.param("snapshot"), req.param("against")) else {
        return Err(Response::error(400, "diff needs snapshot and against parameters"));
    };
    let (Some(a), Some(b)) = (ctx.store.get(a_name), ctx.store.get(b_name)) else {
        return Err(Response::error(404, "unknown snapshot in snapshot/against"));
    };
    let (d, partial) = batnet_diff::diff_governed(
        &a.diff_side(),
        &b.diff_side(),
        &batnet::DiffOptions::default(),
        &gov,
    )
    .into_parts();
    let out = body(|w| {
        w.field("query", "diff")
            .field("snapshot", a_name)
            .field("against", b_name)
            .field("empty", d.is_empty())
            .field("changes", d.change_count());
        write_partial(w, partial.as_ref());
        w.raw("report", &batnet_diff::render_json(&d));
    });
    // The diff's scratch (its comparison manager, any side simulated
    // again) is freed by now; return its pages.
    drop(d);
    batnet_obs::mem::release_free_heap();
    Ok(governed(200, partial.is_some(), out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::two_router_configs;
    use crate::store::SnapshotStore;
    use batnet_net::rng::Rng;

    /// `(starts, sinks, delivered)` as `/query/reach` answered before one
    /// backward walk did: one forward walk from every internal host-facing
    /// start's seed, the union taken at the delivery sinks.
    fn forward_reference(s: &StoredSnapshot, service: &ServiceSpec) -> (usize, usize, bool) {
        let mut sinks = service_sinks(&s.graph, &s.devices, service);
        sinks.retain(|&n| matches!(s.graph.nodes[n], NodeKind::DeliveredToSubnet(..)));
        let mut bdd = s.bdd.lock().expect("not poisoned");
        let mut q = QueryContext {
            devices: &s.devices,
            dp: &s.dp,
            topo: &s.topo,
            bdd: &mut bdd,
            vars: &s.vars,
            graph: &s.graph,
        };
        let traffic = q.service_traffic(service);
        let mut seeds = Vec::new();
        let clients = s.host_facing.iter();
        for h in clients.filter(|h| !h.external && !h.subnet.overlaps(&service.prefix)) {
            let kind = NodeKind::IfaceSrc(h.device.clone(), h.interface.clone());
            let Some(node) = s.graph.node(&kind) else { continue };
            let seed = q.seed(h, traffic);
            if seed != NodeId::FALSE {
                seeds.push((node, seed));
            }
        }
        let r = ReachAnalysis::new(q.graph).forward(q.bdd, &seeds);
        let mut delivered = NodeId::FALSE;
        for &sk in &sinks {
            delivered = q.bdd.or(delivered, r.at(sk));
        }
        (seeds.len(), sinks.len(), delivered != NodeId::FALSE)
    }

    /// N2, NET1 (whose every start's forward cone crosses the border's
    /// source NAT) on seeded questions, and a lab whose ACL admits 443 and
    /// denies 80, so both verdicts occur.
    #[test]
    fn reach_verdict_equals_the_forward_reference() {
        let store = SnapshotStore::new(3);
        let unlimited = ResourceGovernor::unlimited();
        // r2 lets only HTTPS out towards its servers, whichever host
        // port (r1's or its own) the traffic came in by.
        let mut lab = two_router_configs();
        let r2 = &mut lab[1].1;
        *r2 = r2.replace("10.2.0.1/24\n", "10.2.0.1/24\n ip access-group WEB out\n")
            + "ip access-list extended WEB\n 10 permit tcp any any eq 443\n 20 deny ip any any\n";
        let servers: Prefix = "10.2.0.0/24".parse().expect("prefix");
        let mut networks = vec![("lab".to_string(), lab, vec![(servers, 443), (servers, 80)])];
        let mut rng = Rng::new(11);
        for net in [batnet_topogen::suite::n2(), batnet_topogen::suite::net1()] {
            let mut universe: Vec<Prefix> = net
                .parse()
                .iter()
                .flat_map(|d| d.active_interfaces().flat_map(|i| i.connected_prefixes()))
                .collect();
            universe.sort();
            universe.dedup();
            universe.push("0.0.0.0/0".parse().expect("prefix"));
            let questions = (0..10)
                .map(|_| (*rng.pick(&universe), *rng.pick(&[22, 80, 443, 53])))
                .collect();
            networks.push((net.name, net.configs, questions));
        }
        for (name, configs, questions) in networks {
            let s = store.insert(&name, configs, &unlimited).expect("upload");
            assert!(s.partial.is_none(), "{name}");
            let mut verdicts = Vec::new();
            for (prefix, port) in questions {
                let service = ServiceSpec::tcp(prefix, port);
                let (got, partial) = reach_verdict(&s, &service, &unlimited);
                assert!(partial.is_none());
                let want = forward_reference(&s, &service);
                assert_eq!((got.starts, got.sinks, got.delivered), want, "{name} {prefix}:{port}");
                verdicts.push(got.delivered);
            }
            assert!(verdicts.contains(&true), "{name}: nothing delivered");
            if name == "lab" {
                assert_eq!(verdicts, [true, false]);
            }
        }
    }

    /// The servers' own subnet is not a client of their service: with
    /// r1's hosts denied port 80 on the way in, nothing else can reach
    /// r2's servers on it, though their own hosts reach their subnet.
    #[test]
    fn a_start_inside_the_service_subnet_is_no_client() {
        let store = SnapshotStore::new(1);
        let unlimited = ResourceGovernor::unlimited();
        let mut lab = two_router_configs();
        let r1 = &mut lab[0].1;
        *r1 = r1.replace("10.1.0.1/24\n", "10.1.0.1/24\n ip access-group NOWEB in\n")
            + "ip access-list extended NOWEB\n 10 deny tcp any 10.2.0.0/24 eq 80\n 20 permit ip any any\n";
        let s = store.insert("lab", lab, &unlimited).expect("upload");
        let servers: Prefix = "10.2.0.0/24".parse().expect("prefix");
        for (port, delivered) in [(80, false), (443, true)] {
            let service = ServiceSpec::tcp(servers, port);
            let (got, _) = reach_verdict(&s, &service, &unlimited);
            assert_eq!((got.starts, got.delivered), (1, delivered), "port {port}");
            assert_eq!(forward_reference(&s, &service), (got.starts, got.sinks, got.delivered));
        }
    }
}
