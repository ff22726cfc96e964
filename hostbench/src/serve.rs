//! The serving workload: the seeded three-shape job mix of
//! `ggpu_serve::traffic`, offered open-loop in scheduling rounds to a
//! service on a two-GPU node, with every result checked against the CPU
//! oracles the serving tests use.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use ggpu_genomics::{random_genome, sw_score, GapModel, PairHmm, Simple};
use ggpu_kernels::nvb::FmTables;
use ggpu_kernels::pairhmm::{GAP_EXT_P, GAP_OPEN_P};
use ggpu_kernels::pairwise::{GAP_EXTEND, GAP_OPEN, MATCH, MISMATCH};
use ggpu_serve::traffic::{self, GENOME_LEN, TENANTS};
use ggpu_serve::{
    JobId, JobKind, JobOutcome, JobOutput, OutcomeTag, Priority, ServeConfig, ServeMetrics,
    Service, Tenant,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fingerprint::{self, Ledger, References};
use crate::trace::{self as tr, Tracer};
use crate::{median, medians, percentile, probed, ratio, ProbedClock, Report, Sample};

/// Jobs offered per scheduling round: two thirds of the drain rate of 3
/// workers × batches of 4, so the queue stays short and nothing is shed.
const PER_ROUND: usize = 8;
/// Jobs offered per session: enough that more than ten lie beyond p99.
const JOBS: usize = 1008;
/// Devices in the node.
const DEVICES: usize = 2;
/// Latency limit of `slo_miss_rate`: 1 ms at the 1.5 GHz model clock.
const SLO_CYCLES: u64 = 1_500_000;
/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 9;
/// Rounds between probes inside a session (about a second of host time):
/// a session lasts long enough for the host's speed to change within it.
const PROBE_EVERY_ROUNDS: u64 = 16;
/// Round cap of the drain after the last offer.
const DRAIN_ROUNDS: u64 = 10_000;

/// What a job must return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// Smith–Waterman score.
    Score(i64),
    /// Packed `(score << 32) | pos` FM mapping.
    Mapping(u64),
    /// Pair-HMM log10 likelihood.
    LogLik(f64),
}

/// One offered job and its oracle answer.
#[derive(Debug, Clone)]
pub struct Job {
    /// The request.
    pub kind: JobKind,
    /// The CPU oracle's answer.
    pub expected: Expected,
}

/// How to run the serving workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the reference genome and the job mix.
    pub seed: u64,
    /// Jobs offered per session.
    pub jobs: usize,
    /// Measure at least this long (after one session).
    pub seconds: f64,
    /// Traced run: sessions alternate untraced and traced.
    pub trace: bool,
}

impl Params {
    /// The workload as `BENCHMARK.json` defines it.
    pub fn standard(seed: u64, seconds: f64, trace: bool) -> Self {
        Params {
            seed,
            jobs: JOBS,
            seconds,
            trace,
        }
    }
}

/// The seeded genome every job of `seed` maps against.
pub fn genome(seed: u64) -> Vec<u8> {
    random_genome(GENOME_LEN, &mut StdRng::seed_from_u64(seed))
        .codes()
        .to_vec()
}

/// The service configuration: the traffic module's base geometry (the
/// 4-SM test GPU) on `DEVICES` devices, with the engine pinned. The
/// service itself turns device tracing on for its telemetry.
pub fn config(genome: &[u8]) -> ServeConfig {
    let mut cfg = traffic::base_config(genome);
    cfg.n_devices = DEVICES;
    cfg.gpu = crate::pinned(cfg.gpu);
    cfg
}

/// The CPU oracle's answer for `kind`.
fn oracle(kind: &JobKind, fm: &FmTables) -> Expected {
    match kind {
        JobKind::Pairwise { query, target } => {
            let subst = Simple::new(MATCH, MISMATCH);
            let gaps = GapModel::Affine {
                open: GAP_OPEN,
                extend: GAP_EXTEND,
            };
            Expected::Score(sw_score(query, target, &subst, gaps) as i64)
        }
        JobKind::FmMap { read } => Expected::Mapping(fm.map_read(read)),
        JobKind::PairHmm { read, quals, hap } => Expected::LogLik(
            PairHmm {
                gap_open: GAP_OPEN_P,
                gap_ext: GAP_EXT_P,
            }
            .forward(read, quals, hap),
        ),
    }
}

/// The seeded job mix of `traffic::gen_job`, with oracle answers.
pub fn jobs(seed: u64, genome: &[u8], n: usize) -> Vec<Job> {
    let fm = FmTables::build(genome);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    (0..n)
        .map(|_| {
            let kind = traffic::gen_job(genome, &mut rng);
            let expected = oracle(&kind, &fm);
            Job { kind, expected }
        })
        .collect()
}

/// Whether `got` is the oracle's answer (Pair-HMM to the serving tests'
/// 1e-9 relative tolerance).
fn output_matches(got: &JobOutput, want: &Expected) -> bool {
    match (got, want) {
        (JobOutput::Score(s), Expected::Score(w)) => s == w,
        (JobOutput::Mapping { score, pos }, Expected::Mapping(w)) => {
            ((*score as u64) << 32 | *pos as u64) == *w
        }
        (JobOutput::LogLik(g), Expected::LogLik(w)) => {
            g.is_finite() && (g - w).abs() <= 1e-9 * w.abs().max(1.0)
        }
        _ => false,
    }
}

/// The `ServeMetrics` conservation ledger: every submission was admitted
/// or rejected, and every admitted job reached one terminal outcome.
fn ledger_balances(m: &ServeMetrics) -> bool {
    m.submitted == m.admitted + m.rejected_overload + m.rejected_quota + m.rejected_shape
        && m.admitted == m.completed + m.failed + m.deadline_exceeded + m.shed
}

/// Outcome checks of one session.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Jobs that completed with the oracle's answer.
    pub verified: u64,
    /// Jobs whose output was wrong, or that failed, faulted or overran.
    pub wrong: u64,
    /// Jobs refused at admission or shed.
    pub refused: u64,
    /// Jobs that completed correctly but slower than `SLO_CYCLES`.
    pub slow: u64,
    /// Why each wrong job was wrong.
    pub reasons: Vec<String>,
}

/// Check the outcomes of one session: `admitted[i]` is the id job `i` was
/// admitted under, `e2e` each job's simulated latency by id.
pub fn verify(
    jobs: &[Job],
    admitted: &[Option<JobId>],
    outcomes: &[(JobId, JobOutcome)],
    e2e: &BTreeMap<JobId, u64>,
) -> Verdict {
    let by_id: BTreeMap<JobId, &JobOutcome> = outcomes.iter().map(|(id, o)| (*id, o)).collect();
    let mut v = Verdict::default();
    for (i, (job, id)) in jobs.iter().zip(admitted).enumerate() {
        let Some(id) = id else {
            v.refused += 1;
            continue;
        };
        match by_id.get(id) {
            Some(JobOutcome::Done(out)) if output_matches(out, &job.expected) => {
                v.verified += 1;
                if e2e.get(id).is_none_or(|&c| c > SLO_CYCLES) {
                    v.slow += 1;
                }
            }
            Some(JobOutcome::Shed) => v.refused += 1,
            other => {
                v.wrong += 1;
                v.reasons.push(format!(
                    "job {i} ({id}): {other:?}, expected {:?}",
                    job.expected
                ));
            }
        }
    }
    v
}

/// Per-session measurements.
#[derive(Debug, Default)]
struct Session {
    /// From the first `submit` to the end of `report`, probes excluded.
    time: Sample,
    /// The same span with the probes, which the trace's root span covers.
    span_s: f64,
    verdict: Verdict,
    kernel_cycles: u64,
    issued: u64,
    e2e: Vec<u64>,
    queue_wait: Vec<u64>,
    device_exec: Vec<u64>,
    clock_span: u64,
    batch_fill: f64,
    metrics: ServeMetrics,
    node: Option<ggpu_sim::NodeStats>,
}

/// Run `p` and return its report, with the end-to-end metrics set and,
/// for a traced run, the per-layer metrics too.
pub fn run(p: &Params, refs: &References) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let mut ledger = Ledger::default();
    let genome = genome(p.seed);
    let cfg = config(&genome);
    let mut jobs = Vec::new();
    let mut phase_wall_s = 0.0;

    // Set-up: the seeded inputs with their CPU-oracle answers, and the
    // service, built SETUP_REPS times; `setup_s` is the median.
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS {
        let (built, sample) = probed(|| {
            let root = tracer.enter("bench.setup", rep as u64);
            jobs = tracer.time("bench.inputs", rep as u64, || {
                self::jobs(p.seed, &genome, p.jobs)
            });
            let built = tracer.time("serve.new", rep as u64, || Service::new(cfg.clone()));
            tracer.exit(root);
            built
        });
        setup.push(sample);
        if p.trace {
            phase_wall_s += sample.raw_s;
        }
        if let Err(e) = built {
            report.problems.push(format!("Service::new failed: {e}"));
            return report;
        }
    }

    let mut untraced: Vec<Session> = Vec::new();
    let mut traced: Vec<Session> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(p.seconds).min(crate::MAX_MEASURE);
    for visit in 0usize.. {
        if visit >= 1 {
            let last = untraced.last().map_or(0.0, |s| s.span_s);
            let estimate = Duration::from_secs_f64(if p.trace { 2.0 * last } else { last });
            if start.elapsed() + estimate > budget {
                break;
            }
        }
        for &on in crate::visit_modes(p.trace, visit) {
            tracer.set_on(on);
            let id = (visit * 2) as u64 + on as u64;
            let t0 = Instant::now();
            let root = tracer.enter("bench.setup", id);
            let built = tracer.time("serve.new", id, || Service::new(cfg.clone()));
            tracer.exit(root);
            let wall = t0.elapsed().as_secs_f64();
            let mut svc = match built {
                Ok(svc) => svc,
                Err(e) => {
                    report.problems.push(format!("Service::new failed: {e}"));
                    return report;
                }
            };
            let session = session(&mut svc, &jobs, cfg.max_batch, &mut tracer, id, &mut report);
            if on {
                phase_wall_s += wall + session.span_s;
            }
            let key = format!("seed={}", p.seed);
            if let Some(node) = &session.node {
                let fp = fingerprint::of_serve(node, &session.e2e);
                if let Err(why) = ledger.record(refs, "serve-mix", &key, fp) {
                    report.problems.push(why);
                }
            }
            if on {
                traced.push(session);
            } else {
                untraced.push(session);
            }
        }
    }
    tracer.set_on(p.trace);
    report.fingerprints = ledger.seen().clone();
    report.unreferenced = ledger.unreferenced;

    let Some(first) = untraced.first() else {
        return report;
    };
    let med = |f: &dyn Fn(&Session) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
    let wall_s = med(&|s| s.time.scaled_s);
    let (setup_s, raw_setup_s) = medians(&setup);
    report.set("wall_s", wall_s);
    report.set(
        "sim_cycles_per_s",
        med(&|s| ratio(s.kernel_cycles as f64, s.time.scaled_s)),
    );
    report.set(
        "sim_instrs_per_s",
        med(&|s| ratio(s.issued as f64, s.time.scaled_s)),
    );
    report.set("setup_s", setup_s);
    report.set("peak_rss_mib", crate::peak_rss_mib().unwrap_or(0.0));
    report.set(
        "req_per_s",
        med(&|s| ratio(s.verdict.verified as f64, s.time.scaled_s)),
    );
    report.set("e2e_p50_cycles", percentile(&first.e2e, 50.0) as f64);
    report.set("e2e_p99_cycles", percentile(&first.e2e, 99.0) as f64);
    report.host.insert("raw_wall_s", med(&|s| s.time.raw_s));
    report.host.insert("raw_setup_s", raw_setup_s);

    if p.trace {
        let spans = tracer.spans();
        // Span times are raw; scale per-session figures by the traced
        // sessions' mean probe factor, like the end-to-end times.
        let n_traced = traced.len().max(1) as f64;
        let factor = traced.iter().map(|s| s.time.factor()).sum::<f64>() / n_traced;
        let per_session = |name: &str| tr::total_seconds(spans, name) / n_traced * factor;
        let round_s = per_session("serve.round");
        let drain_s = per_session("serve.drain");
        let t = &traced[0];
        let total = t.node.as_ref().map(|n| n.total()).unwrap_or_default();
        crate::set_component_metrics(&mut report, &total);
        for name in [
            "kernels.build_s",
            "sim.run_s",
            "sim.ns_per_cycle",
            "sim.ns_per_active_cycle",
            "sim.ns_per_instr",
            "sim.ff_skip_frac",
        ] {
            report.set(name, 0.0);
        }
        report.set("node.p2p_bytes", total.host.p2p_bytes_out as f64);
        report.set("node.p2p_cycles", total.host.p2p_cycles as f64);
        let new_ns = tr::durations_ns(spans, "serve.new");
        report.set("serve.new_s", median(&new_ns) / 1e9 * factor);
        report.set("serve.submit_s", per_session("serve.submit"));
        report.set(
            "serve.submit_ns",
            median(&tr::durations_ns(spans, "serve.submit")) * factor,
        );
        report.set("serve.round_s", round_s);
        report.set(
            "serve.round_ns_per_cycle",
            ratio((round_s + drain_s) * 1e9, t.clock_span as f64),
        );
        report.set("serve.drain_s", drain_s);
        report.set("serve.report_s", per_session("serve.report"));
        report.set("serve.batch_fill", t.batch_fill);
        report.set(
            "serve.queue_wait_p50_cycles",
            percentile(&t.queue_wait, 50.0) as f64,
        );
        report.set(
            "serve.device_exec_p50_cycles",
            percentile(&t.device_exec, 50.0) as f64,
        );
        let m = &t.metrics;
        report.set("serve.batches", m.batches_launched as f64);
        report.set("serve.rounds", m.rounds as f64);
        report.set("serve.retries", m.retries as f64);
        report.set("serve.splits", m.splits as f64);
        report.set("serve.stream_resets", m.stream_resets as f64);
        report.set("serve.queue_depth_hwm", m.queue_depth_hwm as f64);
        report.set(
            "error_rate",
            ratio(report.failed as f64, report.attempted as f64),
        );
        let missed = t.verdict.wrong + t.verdict.refused + t.verdict.slow;
        report.set("slo_miss_rate", ratio(missed as f64, p.jobs as f64));
        let traced_wall = median(&traced.iter().map(|s| s.time.scaled_s).collect::<Vec<_>>());
        crate::set_trace_metrics(
            &mut report,
            spans,
            phase_wall_s,
            ratio(traced_wall, wall_s) - 1.0,
        );
        report.spans_json = Some(tracer.to_json());
    }
    report
}

/// One session: offer every job open-loop, `PER_ROUND` before each
/// scheduling round, dropping refusals; drain; collect outcomes and the
/// report. Only the calls into the service are timed.
fn session(
    svc: &mut Service,
    jobs: &[Job],
    max_batch: usize,
    tracer: &mut Tracer,
    id: u64,
    report: &mut Report,
) -> Session {
    let kinds: Vec<JobKind> = jobs.iter().map(|j| j.kind.clone()).collect();
    let mut admitted: Vec<Option<JobId>> = Vec::with_capacity(jobs.len());
    let mut clock = ProbedClock::start();
    let t0 = Instant::now();
    let root = tracer.enter("bench.session", id);
    let mut dead = None;
    let mut rounds = 0u64;
    let mut kinds = kinds.into_iter();
    'offer: loop {
        for _ in 0..PER_ROUND {
            let Some(kind) = kinds.next() else {
                break 'offer;
            };
            let i = admitted.len() as u64;
            let tenant = Tenant(i as u32 % TENANTS);
            let span = tracer.enter("serve.submit", i);
            let r = svc.submit(tenant, Priority(1), None, kind);
            tracer.exit(span);
            admitted.push(r.ok());
        }
        let span = tracer.enter("serve.round", id);
        let r = svc.run_round();
        tracer.exit(span);
        if let Err(e) = r {
            dead = Some(e);
            break;
        }
        rounds += 1;
        if rounds.is_multiple_of(PROBE_EVERY_ROUNDS) {
            clock.split();
        }
    }
    if dead.is_none() {
        let span = tracer.enter("serve.drain", id);
        if let Err(e) = svc.run_until_idle(DRAIN_ROUNDS) {
            dead = Some(e);
        }
        tracer.exit(span);
    }
    let outcomes = tracer.time("serve.take_outcomes", id, || svc.take_outcomes());
    let serve_report = tracer.time("serve.report", id, || svc.report());
    let (metrics, node) = tracer.time("serve.stats", id, || (svc.metrics(), svc.node_stats()));
    let time = clock.stop();
    tracer.exit(root);
    let span_s = t0.elapsed().as_secs_f64();

    report.attempted += jobs.len() as u64;
    if let Some(e) = dead {
        report.failed += jobs.len() as u64;
        report.problems.push(format!("service died: {e}"));
        return Session::default();
    }
    let e2e_by_id: BTreeMap<JobId, u64> = serve_report
        .trails
        .iter()
        .filter(|t| t.outcome == OutcomeTag::Done)
        .map(|t| (t.job, t.e2e))
        .collect();
    let verdict = verify(jobs, &admitted, &outcomes, &e2e_by_id);
    report.failed += verdict.wrong;
    report
        .problems
        .extend(verdict.reasons.iter().take(5).cloned());
    if !ledger_balances(&metrics) {
        report
            .problems
            .push(format!("ServeMetrics ledger does not balance: {metrics:?}"));
    }
    if serve_report.events_dropped != 0 {
        report.problems.push(format!(
            "{} telemetry events dropped",
            serve_report.events_dropped
        ));
    }
    let done = serve_report
        .trails
        .iter()
        .filter(|t| t.outcome == OutcomeTag::Done);
    let cycles = serve_report.events.iter().map(|e| e.cycle);
    let clock_span = cycles.clone().max().unwrap_or(0) - cycles.min().unwrap_or(0);
    let launched: u64 = serve_report.spans.iter().map(|s| s.jobs).sum();
    let slots = (serve_report.spans.len() * max_batch) as u64;
    let total = node.total();
    Session {
        time,
        span_s,
        kernel_cycles: total.host.kernel_cycles,
        issued: total.sm.issued,
        e2e: e2e_by_id.values().copied().collect(),
        queue_wait: done
            .clone()
            .filter_map(|t| t.batch_assign_cycle.map(|c| c - t.submit_cycle))
            .collect(),
        device_exec: done.filter_map(|t| t.device_exec).collect(),
        clock_span,
        batch_fill: ratio(launched as f64, slots as f64),
        metrics,
        node: Some(node),
        verdict,
    }
}
