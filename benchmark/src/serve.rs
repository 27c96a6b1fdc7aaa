//! `serve-mix-n2`: `batnet_serve::spawn` in-process on loopback. Set-up
//! uploads `base`, `ref0/1`, `cand0/1` (N2 and seeded perturbations of
//! it); then two closed-loop client threads each send a fixed, seeded
//! sequence of requests over real HTTP. Both clients read the shared
//! `base` snapshot; diffs and re-uploads use per-client snapshots, so
//! writes load the CPU and the pool without blocking the reads behind
//! the per-snapshot mutex.

use crate::inputs::{self, PORTS};
use crate::oracle::{self, Facts, Verdict};
use crate::record::Recorder;
use crate::spec::{self, put, put_n, Metrics, Size, TimedRun};
use crate::stats::{max, median, percentile};
use batnet::config::Topology;
use batnet::net::rng::Rng;
use batnet::net::{Flow, Prefix};
use batnet::obs::json::{self, Value};
use batnet::obs::metrics::MetricValue;
use batnet::queries::HostIface;
use batnet_serve::http::percent_encode;
use batnet_serve::{client, ServeConfig};
use batnet_topogen::perturb::{perturb, Scenario};
use batnet_topogen::GeneratedNetwork;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Closed-loop client threads (≤ nproc on the 2-core reference box).
pub const CLIENTS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(60);
const SETUP_REPEATS: usize = 3;

/// Request kinds and their share of each client's sequence, in percent.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Reach,
    Trace,
    Lint,
    Report,
    Diff,
    Healthz,
    Upload,
}

const MIX: [(Kind, usize); 7] = [
    (Kind::Reach, 55),
    (Kind::Trace, 23),
    (Kind::Lint, 7),
    (Kind::Report, 7),
    (Kind::Diff, 2),
    (Kind::Healthz, 2),
    (Kind::Upload, 4),
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Reach => "serve.reach",
            Kind::Trace => "serve.trace",
            Kind::Lint => "serve.lint",
            Kind::Report => "serve.report",
            Kind::Diff => "serve.diff",
            Kind::Healthz => "serve.healthz",
            Kind::Upload => "serve.upload",
        }
    }
}

/// One planned request.
struct Planned {
    kind: Kind,
    target: String,
    /// Upload body (an index into the plan's bodies).
    body: Option<usize>,
    /// For reach: the service asked about.
    service: Option<(Prefix, u16)>,
}

/// Everything generated from the seed before the server exists.
pub struct Plan {
    net: GeneratedNetwork,
    clients: Vec<HostIface>,
    /// Upload bodies: `[0]` is unperturbed N2, the rest are candidates.
    bodies: Vec<String>,
    /// The body set-up uploads as `cand{c}`, before any re-upload.
    initial_candidates: Vec<usize>,
    sequences: Vec<Vec<Planned>>,
}

fn upload_body(configs: &[(String, String)]) -> String {
    let mut body = String::from("{\"configs\": [");
    for (i, (name, text)) in configs.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str("{\"name\": ");
        json::write_str(&mut body, name);
        body.push_str(", \"text\": ");
        json::write_str(&mut body, text);
        body.push('}');
    }
    body.push_str("]}");
    body
}

fn trace_target(from: &HostIface, flow: &Flow) -> String {
    format!(
        "/query/trace?snapshot=base&device={}&iface={}&src={}&dst={}&port={}",
        percent_encode(&from.device),
        percent_encode(&from.interface),
        flow.src_ip,
        flow.dst_ip,
        flow.dst_port,
    )
}

/// Generates the inputs: the network, the candidate perturbations and
/// each client's request sequence. Every seed sends the same number of
/// each kind of request and cycles through the same perturbation
/// scenarios; the seed picks victims, prefixes, ports and the order.
fn plan(seed: u64, per_client: usize) -> Plan {
    let net = batnet_topogen::suite::n2();
    let devices = net.parse();
    let topo = Topology::infer(&devices);
    let clients = inputs::client_ifaces(&devices, &topo);
    let universe = inputs::connected_prefixes(&devices);
    let mut bodies = vec![upload_body(&net.configs)];
    let mut candidate = |k: usize| -> usize {
        let edited = (0..Scenario::ALL.len())
            .find_map(|shift| {
                perturb(
                    &net,
                    Scenario::ALL[(k + shift) % Scenario::ALL.len()],
                    seed.wrapping_add(k as u64),
                )
            })
            .expect("some scenario applies to N2");
        bodies.push(upload_body(&edited.configs));
        bodies.len() - 1
    };

    let mut sequences = Vec::new();
    let mut uploads = 0;
    for c in 0..CLIENTS {
        let mut rng = Rng::new(seed.wrapping_mul(CLIENTS as u64 + 1).wrapping_add(c as u64));
        let mut seq = Vec::with_capacity(per_client);
        // Reach takes the rounding remainder so every sequence has exactly
        // `per_client` requests.
        let others: usize = MIX
            .iter()
            .filter(|m| m.0 != Kind::Reach)
            .map(|m| per_client * m.1 / 100)
            .sum();
        for (kind, share) in MIX {
            let count = if kind == Kind::Reach {
                per_client - others
            } else {
                per_client * share / 100
            };
            for _ in 0..count {
                let mut p = Planned {
                    kind,
                    target: String::new(),
                    body: None,
                    service: None,
                };
                match kind {
                    Kind::Reach => {
                        let (prefix, port) = (*rng.pick(&universe), *rng.pick(&PORTS));
                        p.target = format!(
                            "/query/reach?snapshot=base&prefix={}&port={port}",
                            percent_encode(&prefix.to_string())
                        );
                        p.service = Some((prefix, port));
                    }
                    Kind::Trace => {
                        let from = rng.pick(&clients);
                        let (to, port) = (*rng.pick(&universe), *rng.pick(&PORTS));
                        p.target =
                            trace_target(from, &inputs::client_flow(&mut rng, from, to, port));
                    }
                    Kind::Lint => p.target = "/lint?snapshot=base".to_string(),
                    Kind::Report => p.target = "/report?snapshot=base".to_string(),
                    Kind::Diff => p.target = format!("/diff?snapshot=ref{c}&against=cand{c}"),
                    Kind::Healthz => p.target = "/healthz".to_string(),
                    Kind::Upload => {
                        uploads += 1;
                        p.target = format!("/snapshots/cand{c}");
                        p.body = Some(candidate(uploads));
                    }
                }
                seq.push(p);
            }
        }
        rng.shuffle(&mut seq);
        sequences.push(seq);
    }
    let initial_candidates = (0..CLIENTS).map(|c| candidate(1_000 + c)).collect();
    Plan {
        net,
        clients,
        bodies,
        initial_candidates,
        sequences,
    }
}

/// One completed request as its client saw it.
pub struct Done {
    kind: Kind,
    client: usize,
    start: Instant,
    end: Instant,
    /// 200/201 and a well-formed body.
    ok: bool,
    /// Reach: `(prefix, port, delivered)`.
    reach: Option<(Prefix, u16, bool)>,
    /// Diff: changes reported; lint: findings reported.
    count: Option<u64>,
}

impl Done {
    fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

fn send(addr: SocketAddr, bodies: &[String], p: &Planned, client_id: usize) -> Done {
    let start = batnet::obs::now();
    let response = match p.body {
        Some(b) => client::post(addr, &p.target, bodies[b].as_bytes(), TIMEOUT),
        None => client::get(addr, &p.target, TIMEOUT),
    };
    let end = batnet::obs::now();
    let mut done = Done {
        kind: p.kind,
        client: client_id,
        start,
        end,
        ok: false,
        reach: None,
        count: None,
    };
    let Ok(r) = response else { return done };
    let want = if p.kind == Kind::Upload { 201 } else { 200 };
    if r.status != want {
        return done;
    }
    let doc = r.json().ok();
    let num = |key: &str| {
        doc.as_ref()
            .and_then(|d| d.get(key))
            .and_then(Value::as_f64)
            .map(|v| v as u64)
    };
    match p.kind {
        Kind::Healthz => done.ok = r.body_str() == "ok\n",
        Kind::Reach => {
            let delivered = match doc.as_ref().and_then(|d| d.get("delivered")) {
                Some(Value::Bool(b)) => Some(*b),
                _ => None,
            };
            if let (Some(d), Some((prefix, port))) = (delivered, p.service) {
                done.reach = Some((prefix, port, d));
                done.ok = true;
            }
        }
        Kind::Diff => {
            done.count = num("changes");
            done.ok = done.count.is_some();
        }
        Kind::Lint => {
            done.count = num("findings");
            done.ok = done.count.is_some();
        }
        Kind::Trace | Kind::Report | Kind::Upload => done.ok = doc.is_some(),
    }
    done
}

/// Spawns the server and uploads `base`, `ref{c}`, `cand{c}`.
fn set_up(plan: &Plan) -> Result<batnet_serve::Handle, String> {
    let handle = batnet_serve::spawn(ServeConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let addr = handle.addr();
    let mut uploads = vec![("base".to_string(), 0)];
    for (c, &candidate) in plan.initial_candidates.iter().enumerate() {
        uploads.push((format!("ref{c}"), 0));
        uploads.push((format!("cand{c}"), candidate));
    }
    for (name, body) in uploads {
        let r = client::post(
            addr,
            &format!("/snapshots/{name}"),
            plan.bodies[body].as_bytes(),
            TIMEOUT,
        )
        .map_err(|e| format!("upload {name}: {e}"))?;
        if r.status != 201 {
            return Err(format!(
                "upload {name}: status {}: {}",
                r.status,
                r.body_str()
            ));
        }
    }
    Ok(handle)
}

/// Runs every client's sequence, closed loop, one thread per client.
/// Returns the requests (client by client, in sending order) and the
/// wall time of the whole mix.
fn run_mix(addr: SocketAddr, plan: &Plan) -> (Vec<Done>, f64) {
    let t = batnet::obs::now();
    let per_client: Vec<Vec<Done>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .sequences
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                s.spawn(move || seq.iter().map(|p| send(addr, &plan.bodies, p, c)).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    (per_client.into_iter().flatten().collect(), wall_s)
}

fn times(done: &[Done], kind: Kind) -> Vec<f64> {
    done.iter()
        .filter(|d| d.kind == kind && d.ok)
        .map(Done::ms)
        .collect()
}

/// Requests per client for a run size; at least 50, so that even the
/// 2 % kinds are sent once.
pub fn per_client(size: Size) -> usize {
    size.count(spec::SERVE_REQUESTS_PER_CLIENT, 50)
}

/// The timed run.
pub fn timed(seed: u64, size: Size) -> Result<TimedRun, String> {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((_, handle)) = state.take() {
            let handle: batnet_serve::Handle = handle;
            handle.shutdown();
        }
        batnet::obs::reset();
        let t = batnet::obs::now();
        let plan = plan(seed, per_client(size));
        let handle = set_up(&plan)?;
        setups.push(t.elapsed().as_secs_f64());
        state = Some((plan, handle));
    }
    let (plan, handle) = state.expect("SETUP_REPEATS > 0");
    let addr = handle.addr();
    let (done, wall_s) = run_mix(addr, &plan);

    let mut metrics = Metrics::new();
    put_n(&mut metrics, "setup_s", median(&setups), setups.len());
    let reach = times(&done, Kind::Reach);
    put_n(&mut metrics, "answer_p50_ms", median(&reach), reach.len());
    if let Some(p90) = percentile(&reach, 0.90) {
        put_n(&mut metrics, "answer_p90_ms", p90, reach.len());
    }
    let ok = done.iter().filter(|d| d.ok).count();
    put_n(&mut metrics, "answers_per_s", ok as f64 / wall_s, ok);
    let (write, diff) = (times(&done, Kind::Upload), times(&done, Kind::Diff));
    put_n(&mut metrics, "write_p50_ms", median(&write), write.len());
    put_n(&mut metrics, "diff_p50_ms", median(&diff), diff.len());

    let mut run = TimedRun {
        metrics,
        counts: vec![
            ("serve.requests".into(), done.len() as u64),
            ("diff.changes".into(), sum_counts(&done, Kind::Diff)),
            ("lint.findings".into(), sum_counts(&done, Kind::Lint)),
        ],
        attempted: done.len() as u64,
        failed: (done.len() - ok) as u64,
        verdict: Verdict::default(),
        facts: facts(&plan, &done),
    };
    concrete(addr, &plan, &done, seed, &mut run.verdict);
    handle.shutdown();
    Ok(run)
}

fn sum_counts(done: &[Done], kind: Kind) -> u64 {
    done.iter()
        .filter(|d| d.kind == kind)
        .filter_map(|d| d.count)
        .sum()
}

/// Semantic facts for the expected file.
fn facts(plan: &Plan, done: &[Done]) -> Facts {
    let mut f = Facts::new();
    f.insert("devices".into(), plan.net.node_count().to_string());
    f.insert("lint_findings_per_request".into(), {
        let mut per: Vec<u64> = done
            .iter()
            .filter(|d| d.kind == Kind::Lint)
            .filter_map(|d| d.count)
            .collect();
        per.dedup();
        oracle::list(per)
    });
    for c in 0..CLIENTS {
        let changes = done
            .iter()
            .filter(|d| d.kind == Kind::Diff && d.client == c)
            .filter_map(|d| d.count);
        f.insert(
            format!("seed1.diff_changes_client{c}"),
            oracle::list(changes),
        );
    }
    let delivered = done
        .iter()
        .filter(|d| matches!(d.reach, Some((_, _, true))))
        .count();
    f.insert("seed1.reach_delivered".into(), delivered.to_string());
    f.insert("seed1.requests".into(), done.len().to_string());
    f
}

/// Does some path of a `/query/trace` answer end in a subnet delivery?
/// `/query/reach` counts only `DeliveredToSubnet` sinks, so the trace's
/// own `delivered` flag — which also counts a packet accepted by a
/// device or leaving the network — is wider than the symbolic verdict
/// (a leaf accepts traffic to its own uplink address, say).
fn delivered_to_subnet(trace_doc: &Value) -> Option<bool> {
    let text = trace_doc.get("trace").and_then(Value::as_str)?;
    Some(
        text.lines()
            .any(|l| l.trim_start().starts_with("=> delivered to subnet")),
    )
}

/// Re-checks sampled reach verdicts against the concrete engine behind
/// `/query/trace`: a client flow the tracer delivers to a subnet inside
/// the service prefix means the symbolic answer must have said
/// `delivered`.
fn concrete(addr: SocketAddr, plan: &Plan, done: &[Done], seed: u64, verdict: &mut Verdict) {
    const SAMPLED: usize = 16;
    let mut rng = Rng::new(seed ^ 0x5eed);
    let reaches: Vec<_> = done.iter().filter_map(|d| d.reach).collect();
    let step = (reaches.len() / SAMPLED).max(1);
    for (prefix, port, delivered) in reaches.into_iter().step_by(step) {
        let eligible: Vec<_> = plan
            .clients
            .iter()
            .filter(|h| !h.subnet.overlaps(&prefix))
            .collect();
        if eligible.is_empty() {
            continue;
        }
        let from = *rng.pick(&eligible);
        let flow = inputs::client_flow(&mut rng, from, prefix, port);
        let target = trace_target(from, &flow);
        let traced = client::get(addr, &target, TIMEOUT)
            .ok()
            .and_then(|r| r.json().ok());
        let Some(concrete) = traced.as_ref().and_then(delivered_to_subnet) else {
            verdict.check(false, || format!("oracle trace request failed: {target}"));
            continue;
        };
        verdict.check(!concrete || delivered, || {
            format!(
                "reach {prefix}:{port} says not delivered, yet the tracer delivers {flow} from {}[{}]",
                from.device, from.interface
            )
        });
    }
}

/// The traced pass: the same mix with one span per request, plus the
/// per-endpoint numbers and the server's own counters. Also the probe
/// that gives the other workloads their `serve.*` rows.
pub fn traced(seed: u64, per_client: usize, rec: &mut Recorder) -> Result<Metrics, String> {
    rec.net = "N2";
    batnet::obs::reset();
    let (prepared, _) = rec.span("serve.setup", 0, |_| {
        let plan = plan(seed, per_client);
        set_up(&plan).map(|handle| (plan, handle))
    });
    let (plan, handle) = prepared?;
    let ((done, _), _) = rec.span("serve.mix", 0, |_| run_mix(handle.addr(), &plan));
    for (i, d) in done.iter().enumerate() {
        rec.add(d.kind.name(), i as u32 + 1, d.start, d.end);
    }

    let mut m = Metrics::new();
    let mut p50 = |name: &str, kind: Kind| {
        let t = times(&done, kind);
        put_n(&mut m, name, median(&t), t.len());
    };
    p50("serve.healthz_p50_ms", Kind::Healthz);
    p50("serve.reach_p50_ms", Kind::Reach);
    p50("serve.trace_p50_ms", Kind::Trace);
    p50("serve.lint_p50_ms", Kind::Lint);
    p50("serve.report_p50_ms", Kind::Report);
    p50("serve.write_p50_ms", Kind::Upload);
    p50("serve.diff_p50_ms", Kind::Diff);
    let reach = times(&done, Kind::Reach);
    // Fewer than 100 samples only happens under `--quick`, whose numbers
    // are not recorded: there the tail is the slowest request.
    put_n(
        &mut m,
        "serve.reach_p90_ms",
        percentile(&reach, 0.90).unwrap_or_else(|| max(&reach)),
        reach.len(),
    );
    put_n(&mut m, "serve.reach_max_ms", max(&reach), reach.len());
    let sent: Vec<f64> = plan
        .sequences
        .iter()
        .flatten()
        .filter_map(|p| p.body)
        .map(|b| plan.bodies[b].len() as f64 / 1024.0)
        .collect();
    put_n(&mut m, "serve.upload_body_kb", median(&sent), sent.len());
    put(&mut m, "diff.changes", sum_counts(&done, Kind::Diff) as f64);
    put(
        &mut m,
        "lint.findings",
        sum_counts(&done, Kind::Lint) as f64,
    );

    // The server's own books, read in-process from the recorder that
    // `/metricsz` serves.
    let report = batnet::obs::capture();
    let counter = |pred: &dyn Fn(&str) -> bool| -> f64 {
        report
            .metrics
            .iter()
            .filter(|(name, _)| pred(name))
            .map(|(_, v)| {
                if let MetricValue::Counter(c) = v {
                    *c
                } else {
                    0
                }
            })
            .sum::<u64>() as f64
    };
    put(
        &mut m,
        "serve.rejected",
        counter(&|n| n.starts_with("serve.rejected.")),
    );
    put(
        &mut m,
        "serve.partial_206",
        counter(&|n| n == "serve.partial.total"),
    );
    handle.shutdown();
    Ok(m)
}
