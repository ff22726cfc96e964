//! Executes benchmark-matrix cells with measurement discipline: warmup
//! runs (discarded) followed by N individually timed iterations, each
//! iteration yielding one sample of the cell's headline metric.
//!
//! The runner is the only module that touches the simulator; everything
//! downstream (`report`, `cmp`, the store) sees only [`Record`]s.

use std::time::Instant;

use ggpu_core::{benchmark, GpuConfig, Scale};
use ggpu_serve::traffic::{self, OfferedLoad};
use ggpu_serve::Service;
use rand::SeedableRng;

use super::matrix::{matrix, scale_tag, Cell, CellKind};
use super::provenance::{self, Provenance};
use super::record::{Direction, EngineAxes, Record};
use super::stats::Summary;

/// Default relative noise bound for wall-clock throughput metrics — the
/// 70%-of-baseline tolerance the old Python CI gate used, carried over
/// as the initial bound until measured noise says otherwise.
pub const THROUGHPUT_REL_BOUND: f64 = 0.30;
/// Relative bound for simulated-cycle latency metrics. These are
/// deterministic (zero measured noise), so the bound only absorbs
/// legitimate code-change drift between baseline refreshes.
pub const LATENCY_REL_BOUND: f64 = 0.25;
/// Seed of the serving benchmark's job mix.
pub const SERVE_SEED: u64 = 42;

/// Options for a matrix run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// CI profile: tiny scale, fewer iterations and load levels.
    pub quick: bool,
    /// Override timed iterations per cell.
    pub iters: Option<u32>,
    /// Override warmup runs per cell.
    pub warmup: Option<u32>,
    /// Only run cells whose id contains this substring.
    pub filter: Option<String>,
}

/// One timed engine run.
#[derive(Debug, Clone, Copy)]
pub struct EngineSample {
    /// Simulated kernel cycles of the run.
    pub cycles: u64,
    /// Cycles elided by idle-cycle fast-forward.
    pub skipped: u64,
    /// Wall-clock seconds of the run.
    pub secs: f64,
}

/// The device configuration engine cells run under: wider than
/// `test_small` so the SM phase dominates.
pub fn engine_gpu_config(axes: &EngineAxes) -> GpuConfig {
    GpuConfig {
        n_sms: 16,
        ..GpuConfig::test_small()
    }
    .with_fast_forward(axes.fast_forward)
    .with_stream_isolation(axes.stream_isolation)
}

/// Run one engine workload once under `axes` and time it. Panics if the
/// workload fails to verify — a wrong answer must never become a
/// throughput record.
pub fn run_engine_once(scale: Scale, abbrev: &str, cdp: bool, axes: &EngineAxes) -> EngineSample {
    let config = engine_gpu_config(axes);
    let b = benchmark(scale, abbrev).expect("workload is registered");
    let t0 = Instant::now();
    let r = b.run(&config, cdp);
    let secs = t0.elapsed().as_secs_f64();
    assert!(r.verified, "probe workload {abbrev} must verify");
    EngineSample {
        cycles: r.kernel_cycles,
        skipped: r.fast_forward_skipped_cycles,
        secs,
    }
}

/// One timed serving run at a fixed offered load.
#[derive(Debug, Clone, Copy)]
pub struct ServeSample {
    /// Conservation-ledger summary after the drain.
    pub summary: traffic::TrafficSummary,
    /// Wall-clock seconds of the run (submission through drain).
    pub secs: f64,
    /// Median end-to-end latency, in device cycles (deterministic).
    pub e2e_p50: u64,
    /// Tail end-to-end latency, in device cycles (deterministic).
    pub e2e_p99: u64,
}

/// Drive a fresh service at `load` once and time it.
pub fn run_serve_once(load: &OfferedLoad, n_devices: usize) -> ServeSample {
    let mut rng = rand::rngs::StdRng::seed_from_u64(load.seed);
    let genome = ggpu_genomics::random_genome(traffic::GENOME_LEN, &mut rng)
        .codes()
        .to_vec();
    let mut cfg = traffic::base_config(&genome);
    cfg.n_devices = n_devices;
    let mut svc = Service::new(cfg).expect("build service");
    let t0 = Instant::now();
    let summary = traffic::drive(&mut svc, &genome, load).expect("device-wide fault");
    let secs = t0.elapsed().as_secs_f64();
    let report = svc.report();
    ServeSample {
        summary,
        secs,
        e2e_p50: report.global.e2e.percentile(50.0),
        e2e_p99: report.global.e2e.percentile(99.0),
    }
}

/// What a metric is called and how it gates, separated from where its
/// samples came from.
struct MetricSpec {
    metric: &'static str,
    unit: &'static str,
    direction: Direction,
    rel_bound: f64,
}

fn mk_record(
    cell: &Cell,
    workload: &str,
    spec: &MetricSpec,
    summary: Summary,
    extra: Vec<(String, f64)>,
    run_id: &str,
    prov: &Provenance,
) -> Record {
    Record {
        id: cell.id.clone(),
        suite: cell.id.split('/').next().unwrap_or("?").to_string(),
        workload: workload.to_string(),
        scale: scale_tag(cell.scale).to_string(),
        metric: spec.metric.to_string(),
        unit: spec.unit.to_string(),
        direction: spec.direction,
        rel_bound: spec.rel_bound,
        summary,
        warmup: cell.warmup,
        axes: cell.axes.clone(),
        extra,
        run_id: run_id.to_string(),
        prov: prov.clone(),
    }
}

fn run_engine_cell(
    cell: &Cell,
    abbrev: &str,
    cdp: bool,
    run_id: &str,
    prov: &Provenance,
) -> Record {
    for _ in 0..cell.warmup {
        run_engine_once(cell.scale, abbrev, cdp, &cell.axes);
    }
    let mut samples = Vec::with_capacity(cell.iters as usize);
    let mut last = None;
    for _ in 0..cell.iters {
        let s = run_engine_once(cell.scale, abbrev, cdp, &cell.axes);
        samples.push(s.cycles as f64 / s.secs.max(1e-9));
        last = Some(s);
    }
    let last = last.expect("at least one iteration");
    let extra = vec![
        ("simulated_cycles".to_string(), last.cycles as f64),
        (
            "fast_forward_skipped_cycles".to_string(),
            last.skipped as f64,
        ),
    ];
    mk_record(
        cell,
        abbrev,
        &MetricSpec {
            metric: "cycles_per_sec",
            unit: "cyc/s",
            direction: Direction::Higher,
            rel_bound: THROUGHPUT_REL_BOUND,
        },
        Summary::of(samples),
        extra,
        run_id,
        prov,
    )
}

fn run_serve_cell(
    cell: &Cell,
    offered_per_round: usize,
    jobs: usize,
    run_id: &str,
    prov: &Provenance,
) -> Vec<Record> {
    let load = OfferedLoad {
        per_round: offered_per_round,
        total_jobs: jobs,
        seed: SERVE_SEED,
    };
    for _ in 0..cell.warmup {
        run_serve_once(&load, cell.axes.n_devices);
    }
    let mut rps = Vec::with_capacity(cell.iters as usize);
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut shed = Vec::new();
    let mut last = None;
    for _ in 0..cell.iters {
        let s = run_serve_once(&load, cell.axes.n_devices);
        rps.push(s.summary.completed as f64 / s.secs.max(1e-9));
        p50.push(s.e2e_p50 as f64);
        p99.push(s.e2e_p99 as f64);
        shed.push(s.summary.shed_rate());
        last = Some(s);
    }
    let last = last.expect("at least one iteration");
    let extra = vec![
        ("offered".to_string(), last.summary.offered as f64),
        ("admitted".to_string(), last.summary.admitted as f64),
        ("completed".to_string(), last.summary.completed as f64),
        ("rejected".to_string(), last.summary.rejected as f64),
        ("shed".to_string(), last.summary.shed as f64),
        ("rounds".to_string(), last.summary.rounds as f64),
    ];
    type SpecRow = (MetricSpec, Vec<f64>, Vec<(String, f64)>);
    let specs: [SpecRow; 4] = [
        (
            MetricSpec {
                metric: "requests_per_sec",
                unit: "req/s",
                direction: Direction::Higher,
                rel_bound: THROUGHPUT_REL_BOUND,
            },
            rps,
            extra.clone(),
        ),
        (
            MetricSpec {
                metric: "e2e_p50_cycles",
                unit: "cycles",
                direction: Direction::Lower,
                rel_bound: LATENCY_REL_BOUND,
            },
            p50,
            Vec::new(),
        ),
        (
            MetricSpec {
                metric: "e2e_p99_cycles",
                unit: "cycles",
                direction: Direction::Lower,
                rel_bound: LATENCY_REL_BOUND,
            },
            p99,
            Vec::new(),
        ),
        (
            MetricSpec {
                metric: "shed_rate",
                unit: "fraction",
                direction: Direction::Info,
                rel_bound: 0.0,
            },
            shed,
            extra,
        ),
    ];
    specs
        .into_iter()
        .map(|(spec, samples, extra)| {
            mk_record(
                cell,
                "traffic",
                &spec,
                Summary::of(samples),
                extra,
                run_id,
                prov,
            )
        })
        .collect()
}

/// Run every matrix cell selected by `opts` and return the records, in
/// matrix order. Progress goes to stderr.
pub fn run_matrix(opts: &RunOptions) -> Vec<Record> {
    let prov = provenance::collect();
    let run_id = provenance::run_id(&prov);
    let mut records = Vec::new();
    let cells: Vec<Cell> = matrix(opts.quick)
        .into_iter()
        .filter(|c| {
            opts.filter
                .as_deref()
                .is_none_or(|needle| c.id.contains(needle))
        })
        .map(|mut c| {
            if let Some(n) = opts.iters {
                c.iters = n.max(1);
            }
            if let Some(w) = opts.warmup {
                c.warmup = w;
            }
            c
        })
        .collect();
    for cell in &cells {
        let t0 = Instant::now();
        match cell.kind {
            CellKind::Engine { abbrev, cdp } => {
                records.push(run_engine_cell(cell, abbrev, cdp, &run_id, &prov));
            }
            CellKind::Serve {
                offered_per_round,
                jobs,
            } => {
                records.extend(run_serve_cell(
                    cell,
                    offered_per_round,
                    jobs,
                    &run_id,
                    &prov,
                ));
            }
        }
        let done = records.last().expect("cell produced records");
        eprintln!(
            "[{}] {} iters (+{} warmup) in {:.1}s — {} {:.1} {}",
            cell.id,
            cell.iters,
            cell.warmup,
            t0.elapsed().as_secs_f64(),
            done.metric,
            done.summary.median,
            done.unit,
        );
    }
    records
}
