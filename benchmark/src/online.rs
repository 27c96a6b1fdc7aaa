//! `query-warm-net1`: NET1 analysed once in set-up, then a seeded stream
//! of `queries::service_reachable` questions on the one long-lived
//! `Analysis`, from a single closed-loop caller. The BDD manager's unique
//! table and operation caches only grow across the stream.

use crate::inputs::{self, Question};
use crate::oracle::{self, Facts, Verdict};
use crate::record::Recorder;
use crate::spec::{self, put_n, Metrics, Size, TimedRun};
use crate::stats::{median, percentile};
use batnet::net::rng::Rng;
use batnet::queries::{service_reachable, ServiceSpec, Violation};
use batnet::{Analysis, Snapshot};
use batnet_topogen::GeneratedNetwork;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Set-up is cheap here (≈0.15 s), so it runs three times and the
/// median is reported.
const SETUP_REPEATS: usize = 3;

/// Config text → the long-lived analysis, through the facade.
fn analyze(net: &GeneratedNetwork) -> Analysis {
    Snapshot::from_configs(net.configs.clone())
        .with_env(net.env.clone())
        .analyze()
}

/// One asked question.
pub struct Asked {
    pub ms: f64,
    pub starts_checked: usize,
    pub violations: Vec<Violation>,
}

/// Asks every question in order on `analysis`. A question that panics
/// is counted as failed and skipped. With a recorder, each question is
/// one span (answer id = question number, from 1).
pub fn ask_all(
    analysis: &mut Analysis,
    questions: &[Question],
    mut rec: Option<&mut Recorder>,
) -> (Vec<Asked>, u64) {
    let mut asked = Vec::with_capacity(questions.len());
    let mut failed = 0;
    for (i, q) in questions.iter().enumerate() {
        let start = batnet::obs::now();
        let report = catch_unwind(AssertUnwindSafe(|| {
            service_reachable(
                &mut analysis.query_context(),
                &ServiceSpec::tcp(q.prefix, q.port),
            )
        }));
        let end = batnet::obs::now();
        if let Some(rec) = rec.as_deref_mut() {
            rec.add("queries.service_reachable", i as u32 + 1, start, end);
        }
        match report {
            Ok(r) => asked.push(Asked {
                ms: end.duration_since(start).as_secs_f64() * 1e3,
                starts_checked: r.starts_checked,
                violations: r.violations,
            }),
            Err(_) => failed += 1,
        }
    }
    (asked, failed)
}

/// The timed run.
pub fn timed(seed: u64, size: Size) -> TimedRun {
    let n = size.count(spec::QUERY_QUESTIONS, 10);
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take()); // one analysis alive at a time
        batnet::obs::reset();
        let t = batnet::obs::now();
        let net = (inputs::workload_net("query-warm-net1", size.quick).1)();
        state = Some(analyze(&net));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut analysis = state.expect("SETUP_REPEATS > 0");
    let questions = inputs::questions(&inputs::connected_prefixes(&analysis.devices), seed, n);

    let t = batnet::obs::now();
    let (asked, failed) = ask_all(&mut analysis, &questions, None);
    let wall_s = t.elapsed().as_secs_f64();

    let times: Vec<f64> = asked.iter().map(|a| a.ms).collect();
    let mut metrics = Metrics::new();
    put_n(&mut metrics, "setup_s", median(&setups), setups.len());
    put_n(&mut metrics, "answer_p50_ms", median(&times), times.len());
    if let Some(p90) = percentile(&times, 0.90) {
        put_n(&mut metrics, "answer_p90_ms", p90, times.len());
    }
    put_n(
        &mut metrics,
        "answers_per_s",
        asked.len() as f64 / wall_s,
        asked.len(),
    );

    let healthy = analysis.quarantined.is_empty() && analysis.dp.convergence.converged;
    let mut run = TimedRun {
        metrics,
        counts: vec![
            ("bdd.nodes".into(), analysis.bdd.node_count() as u64),
            (
                "bdd.cache_entries".into(),
                analysis.bdd.cache_entries() as u64,
            ),
            (
                "queries.starts_checked".into(),
                asked.iter().map(|a| a.starts_checked as u64).sum(),
            ),
            (
                "queries.violations".into(),
                asked.iter().map(|a| a.violations.len() as u64).sum(),
            ),
        ],
        attempted: n as u64,
        failed: if healthy { failed } else { n as u64 },
        verdict: Verdict::default(),
        facts: facts(&analysis, &asked),
    };
    concrete(&analysis, &questions, &asked, seed, &mut run.verdict);
    run
}

/// Semantic facts for the expected file.
fn facts(analysis: &Analysis, asked: &[Asked]) -> Facts {
    let (nodes, edges) = analysis.graph.size();
    let mut f = Facts::new();
    f.insert("devices".into(), analysis.devices.len().to_string());
    f.insert("routes".into(), analysis.dp.total_routes().to_string());
    f.insert("graph_nodes".into(), nodes.to_string());
    f.insert("graph_edges".into(), edges.to_string());
    f.insert(
        "seed1.questions_violated".into(),
        asked
            .iter()
            .filter(|a| !a.violations.is_empty())
            .count()
            .to_string(),
    );
    f.insert(
        "seed1.violations".into(),
        asked
            .iter()
            .map(|a| a.violations.len())
            .sum::<usize>()
            .to_string(),
    );
    f.insert(
        "seed1.starts_checked".into(),
        asked
            .iter()
            .map(|a| a.starts_checked)
            .sum::<usize>()
            .to_string(),
    );
    f
}

/// Re-checks sampled verdicts with the concrete engine: when a question
/// holds, any client flow to the service must be delivered; a
/// violation's example must not be.
fn concrete(
    analysis: &Analysis,
    questions: &[Question],
    asked: &[Asked],
    seed: u64,
    verdict: &mut Verdict,
) {
    const SAMPLED: usize = 12;
    let clients = inputs::client_ifaces(&analysis.devices, &analysis.topo);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let step = (asked.len() / SAMPLED).max(1);
    for (q, a) in questions.iter().zip(asked).step_by(step) {
        for v in &a.violations {
            let trace = analysis.trace(&v.start.device, &v.start.interface, &v.example);
            verdict.check(!oracle::delivered(&trace), || {
                format!(
                    "service {}:{}: violation example {} is delivered:\n{trace}",
                    q.prefix, q.port, v.example
                )
            });
        }
        if !a.violations.is_empty() {
            continue;
        }
        let eligible: Vec<_> = clients
            .iter()
            .filter(|h| !h.subnet.overlaps(&q.prefix))
            .collect();
        if eligible.is_empty() {
            continue;
        }
        let from = *rng.pick(&eligible);
        let flow = inputs::client_flow(&mut rng, from, q.prefix, q.port);
        let trace = analysis.trace(&from.device, &from.interface, &flow);
        verdict.check(oracle::delivered(&trace), || {
            format!(
                "service {}:{} holds, yet {flow} from {}[{}] is not delivered:\n{trace}",
                q.prefix, q.port, from.device, from.interface
            )
        });
    }
}
