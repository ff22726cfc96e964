//! The two paper-suite workloads: each cell is one benchmark of the suite,
//! built through `ggpu_core::benchmark` and simulated with
//! `Benchmark::run`, which checks the device output against the CPU
//! reference.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ggpu_core::{BenchResult, Benchmark, GpuConfig, RunStats, Scale};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fingerprint::{self, Ledger, References};
use crate::trace::Tracer;
use crate::{median, medians, percentile, probed, ratio, Report, Sample};

/// Compute-dense half of the paper suite: DP alignment kernels whose host
/// time is SM execution per active cycle.
const DENSE: [&str; 5] = ["NW", "GG", "GL", "GKSW", "GSG"];
/// Memory-latency-bound, irregular half: fast-forward skips most cycles,
/// and the CDP variants add device-side launches.
const SPARSE: [&str; 5] = ["SW", "STAR", "CLUSTER", "PairHMM", "NvB"];

/// Times the set-up (every benchmark's inputs and CPU references) is
/// repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// One benchmark in one launch mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Benchmark abbreviation (Table III).
    pub abbrev: &'static str,
    /// CUDA dynamic parallelism variant.
    pub cdp: bool,
}

impl Cell {
    /// Fingerprint key: the abbreviation, with `+cdp` for the CDP variant.
    pub fn key(&self) -> String {
        if self.cdp {
            format!("{}+cdp", self.abbrev)
        } else {
            self.abbrev.to_string()
        }
    }
}

/// The cells of a suite workload, or `None` for another workload name.
pub fn cells(workload: &str) -> Option<Vec<Cell>> {
    match workload {
        "suite-dense" => Some(
            DENSE
                .iter()
                .map(|&abbrev| Cell { abbrev, cdp: false })
                .collect(),
        ),
        "suite-sparse" => Some(
            SPARSE
                .iter()
                .flat_map(|&abbrev| [false, true].map(|cdp| Cell { abbrev, cdp }))
                .collect(),
        ),
        _ => None,
    }
}

/// How to run a suite workload.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name (the fingerprint table's first column).
    pub workload: String,
    /// Cells to run.
    pub cells: Vec<Cell>,
    /// Input scale of every benchmark.
    pub scale: Scale,
    /// Device configuration, already pinned.
    pub config: GpuConfig,
    /// Seeds the order the cells run in.
    pub seed: u64,
    /// Measure at least this long (after one full pass).
    pub seconds: f64,
    /// Traced run: every visit runs the cell once untraced and once traced.
    pub trace: bool,
}

/// Seeded permutation of `0..n` (Fisher–Yates).
fn order(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

#[derive(Default)]
struct CellLog {
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    /// Raw `sim.run` seconds of each traced sample, in sample order.
    traced_run_s: Vec<f64>,
    result: Option<BenchResult>,
}

/// Run `p` and return its report, with the end-to-end metrics set and,
/// for a traced run, the per-layer metrics too.
pub fn run(p: &Params, refs: &References) -> Report {
    let mut report = Report::default();
    let mut tracer = Tracer::new(p.trace);
    let mut ledger = Ledger::default();
    let mut phase_wall_s = 0.0;

    // Set-up: look every benchmark up SETUP_REPS times; keep the last set.
    let mut abbrevs: Vec<&'static str> = p.cells.iter().map(|c| c.abbrev).collect();
    abbrevs.dedup();
    let mut setup = Vec::new();
    let mut build_s = Vec::new();
    let mut benches: Vec<Box<dyn Benchmark>> = Vec::new();
    for rep in 0..SETUP_REPS {
        let mut in_build = 0.0;
        let (built, sample) = probed(|| {
            let root = tracer.enter("bench.setup", rep as u64);
            let mut built = Vec::new();
            for (i, &abbrev) in abbrevs.iter().enumerate() {
                let t = Instant::now();
                let b = tracer.time("kernels.build", i as u64, || {
                    ggpu_core::benchmark(p.scale, abbrev)
                });
                in_build += t.elapsed().as_secs_f64();
                match b {
                    Some(b) => built.push(b),
                    None => report.problems.push(format!("unknown benchmark {abbrev}")),
                }
            }
            tracer.exit(root);
            built
        });
        if p.trace {
            phase_wall_s += sample.raw_s;
        }
        build_s.push(in_build * sample.factor());
        setup.push(sample);
        benches = built;
    }
    if benches.len() != abbrevs.len() {
        return report;
    }
    let bench_of = |c: &Cell| {
        let i = abbrevs
            .iter()
            .position(|&a| a == c.abbrev)
            .expect("abbrev listed");
        benches[i].as_ref()
    };

    let n = p.cells.len();
    let order = order(n, p.seed);
    let mut logs: Vec<CellLog> = (0..n).map(|_| CellLog::default()).collect();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(p.seconds).min(crate::MAX_MEASURE);
    for visit in 0.. {
        let (pass, ci) = (visit / n, order[visit % n]);
        if pass >= 1 {
            let last = logs[ci].untraced.last().map_or(0.0, |s| s.raw_s);
            let estimate = Duration::from_secs_f64(if p.trace { 2.0 * last } else { last });
            if start.elapsed() + estimate > budget {
                break;
            }
        }
        for &traced in crate::visit_modes(p.trace, pass) {
            tracer.set_on(traced);
            let cell = p.cells[ci];
            let mut run_s = 0.0;
            let (checked, sample) = probed(|| {
                let root = tracer.enter("bench.cell", ci as u64);
                let t = Instant::now();
                let span = tracer.enter("sim.run", ci as u64);
                let res = catch_unwind(AssertUnwindSafe(|| {
                    bench_of(&cell).run(&p.config, cell.cdp)
                }));
                tracer.exit(span);
                run_s = t.elapsed().as_secs_f64();
                let checked = check_cell(&p.workload, &cell, res, refs, &mut ledger);
                tracer.exit(root);
                checked
            });
            report.attempted += 1;
            match checked {
                Ok(r) => {
                    logs[ci].result.get_or_insert(r);
                }
                Err(why) => {
                    report.failed += 1;
                    report.problems.push(why);
                }
            }
            if traced {
                logs[ci].traced.push(sample);
                logs[ci].traced_run_s.push(run_s);
                phase_wall_s += sample.raw_s;
            } else {
                logs[ci].untraced.push(sample);
            }
        }
    }
    tracer.set_on(p.trace);
    report.fingerprints = ledger.seen().clone();
    report.unreferenced = ledger.unreferenced;

    let results: Vec<&BenchResult> = logs.iter().filter_map(|l| l.result.as_ref()).collect();
    let mut total = RunStats::default();
    for r in &results {
        total.merge(&r.stats);
    }
    let kernel_cycles = total.host.kernel_cycles as f64;
    let skipped: u64 = results.iter().map(|r| r.fast_forward_skipped_cycles).sum();
    let issued = total.sm.issued as f64;
    let latencies: Vec<u64> = results.iter().map(|r| r.stats.total_cycles()).collect();

    // One pass: the sum over cells of each cell's median sample.
    let pass_s = |pick: fn(&CellLog) -> &[Sample]| -> (f64, f64) {
        logs.iter()
            .map(|l| medians(pick(l)))
            .fold((0.0, 0.0), |a, m| (a.0 + m.0, a.1 + m.1))
    };
    let (wall_s, raw_wall_s) = pass_s(|l| &l.untraced);
    let (setup_s, raw_setup_s) = medians(&setup);
    report.set("wall_s", wall_s);
    report.set("sim_cycles_per_s", ratio(kernel_cycles, wall_s));
    report.set("sim_instrs_per_s", ratio(issued, wall_s));
    report.set("setup_s", setup_s);
    report.set("peak_rss_mib", crate::peak_rss_mib().unwrap_or(0.0));
    report.set("req_per_s", ratio(results.len() as f64, wall_s));
    report.set("e2e_p50_cycles", percentile(&latencies, 50.0) as f64);
    report.set("e2e_p99_cycles", percentile(&latencies, 99.0) as f64);
    report.host.insert("raw_wall_s", raw_wall_s);
    report.host.insert("raw_setup_s", raw_setup_s);

    if p.trace {
        let run_s: f64 = logs
            .iter()
            .map(|l| {
                let scaled: Vec<f64> = l
                    .traced
                    .iter()
                    .zip(&l.traced_run_s)
                    .map(|(s, r)| r * s.factor())
                    .collect();
                median(&scaled)
            })
            .sum();
        report.set("kernels.build_s", median(&build_s));
        report.set("sim.run_s", run_s);
        report.set("sim.ns_per_cycle", ratio(run_s * 1e9, kernel_cycles));
        report.set(
            "sim.ns_per_active_cycle",
            ratio(run_s * 1e9, kernel_cycles - skipped as f64),
        );
        report.set("sim.ns_per_instr", ratio(run_s * 1e9, issued));
        report.set("sim.ff_skip_frac", ratio(skipped as f64, kernel_cycles));
        crate::set_component_metrics(&mut report, &total);
        for name in crate::names::PER_LAYER.iter().map(|m| m.0) {
            if name.starts_with("node.") || name.starts_with("serve.") {
                report.set(name, 0.0);
            }
        }
        let failed_frac = ratio(report.failed as f64, report.attempted as f64);
        report.set("error_rate", failed_frac);
        report.set("slo_miss_rate", failed_frac);
        let (traced_s, _) = pass_s(|l| &l.traced);
        crate::set_trace_metrics(
            &mut report,
            tracer.spans(),
            phase_wall_s,
            ratio(traced_s, wall_s) - 1.0,
        );
        report.spans_json = Some(tracer.to_json());
    }
    report
}

/// Check one sample of `cell`: it ran without panicking, matched the CPU
/// reference, used one engine thread, and its fingerprint agrees with the
/// reference and with earlier samples. Returns the result, or why it failed.
pub fn check_cell(
    workload: &str,
    cell: &Cell,
    res: std::thread::Result<BenchResult>,
    refs: &References,
    ledger: &mut Ledger,
) -> Result<BenchResult, String> {
    let key = cell.key();
    let r = res.map_err(|_| format!("{key}: panicked"))?;
    if !r.verified {
        return Err(format!(
            "{key}: device output differs from the CPU reference"
        ));
    }
    if r.sim_threads != 1 {
        return Err(format!(
            "{key}: engine ran {} threads, not 1",
            r.sim_threads
        ));
    }
    ledger.record(refs, workload, &key, fingerprint::of_run_stats(&r.stats))?;
    Ok(r)
}
