//! Host-time benchmark of the Genomics-GPU simulator.
//!
//! Three workloads drive the public APIs of `ggpu-core`, `ggpu-kernels`,
//! `ggpu-sim` and `ggpu-serve`: the compute-dense half of the paper suite,
//! its memory-latency-bound half, and a verified serving mix on a two-GPU
//! node. An untraced run prints the end-to-end metrics of
//! [`names::END_TO_END`]; a traced run records spans around every call the
//! benchmark makes into a layer and prints [`names::PER_LAYER`]. Every
//! output is checked against a CPU oracle and every simulated-statistics
//! fingerprint against `fingerprints.txt`. See `DESIGN.md` for why each
//! workload exists and which metric each layer should move.

#![forbid(unsafe_code)]

pub mod env;
pub mod fingerprint;
pub mod names;
pub mod serve;
pub mod suite;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use ggpu_sim::json::JsonWriter;
use ggpu_sim::{GpuConfig, RunStats, StallReason};

/// Workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["suite-dense", "suite-sparse", "serve-mix"];

/// What [`probe_s`] takes on the reference host (the fast state of a
/// 2-vCPU Xeon VM): host times are scaled to this speed.
pub(crate) const PROBE_REF_S: f64 = 0.003;

/// Time a fixed, simulator-independent probe: random reads and writes over
/// a 1 MiB table plus integer arithmetic, the median of 5 repetitions, in
/// seconds. Neighbours on a shared host change its speed by up to 1.7×
/// over tens of seconds; probing just before and after each sample tracks
/// that drift. The probe lives in the benchmark, so no change to the
/// simulator can make it faster or slower.
pub(crate) fn probe_s() -> f64 {
    const SLOTS: usize = 1 << 17;
    let mut table = vec![0u64; SLOTS];
    let mut times = [0.0; 5];
    for t in &mut times {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        let start = Instant::now();
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize % SLOTS;
            table[i] = table[i].wrapping_add(x);
            acc = acc.wrapping_add(table[i.wrapping_mul(7) % SLOTS]);
            if acc & 1 == 0 {
                acc ^= x;
            }
        }
        std::hint::black_box(acc);
        *t = start.elapsed().as_secs_f64();
    }
    median(&times)
}

/// One host-time sample, as measured and scaled to the reference speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Sample {
    /// Host seconds as measured.
    pub(crate) raw_s: f64,
    /// Each segment's seconds times `PROBE_REF_S` over the mean of the
    /// probes at its two ends, summed.
    pub(crate) scaled_s: f64,
}

impl Sample {
    /// Scaled over raw seconds.
    pub(crate) fn factor(&self) -> f64 {
        ratio(self.scaled_s, self.raw_s)
    }
}

/// A host-time clock split into segments by probes, each segment scaled
/// by the probes at its two ends. Probe time is not counted.
#[derive(Debug)]
pub(crate) struct ProbedClock {
    start: Instant,
    probe: f64,
    sample: Sample,
}

impl ProbedClock {
    /// Probe, then start timing.
    pub(crate) fn start() -> Self {
        let probe = probe_s();
        ProbedClock {
            start: Instant::now(),
            probe,
            sample: Sample::default(),
        }
    }

    /// Close the current segment with a probe and open the next one.
    pub(crate) fn split(&mut self) {
        let raw = self.start.elapsed().as_secs_f64();
        let after = probe_s();
        self.sample.raw_s += raw;
        self.sample.scaled_s += raw * PROBE_REF_S / ((self.probe + after) / 2.0);
        self.probe = after;
        self.start = Instant::now();
    }

    /// Close the last segment.
    pub(crate) fn stop(mut self) -> Sample {
        self.split();
        self.sample
    }
}

/// Run `f` between two probes; returns its output and its host-time sample.
pub(crate) fn probed<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let clock = ProbedClock::start();
    let out = f();
    (out, clock.stop())
}

/// Medians of the scaled and raw seconds of `samples`.
pub(crate) fn medians(samples: &[Sample]) -> (f64, f64) {
    let scaled: Vec<f64> = samples.iter().map(|s| s.scaled_s).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw_s).collect();
    (median(&scaled), median(&raw))
}

/// Whether each sample of a visit is traced: untraced runs take one
/// untraced sample; traced runs take an untraced and a traced sample,
/// alternating which goes first, so that drift does not bias the overhead.
pub(crate) fn visit_modes(trace: bool, visit: usize) -> &'static [bool] {
    match (trace, visit % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    }
}

/// A run stops starting new cells or sessions after measuring this long,
/// so that a long `--seconds` still ends well inside a run's time limit.
pub(crate) const MAX_MEASURE: std::time::Duration = std::time::Duration::from_secs(120);

/// Largest relative gap allowed between summed span self times and the
/// independently measured wall time of the traced phases.
pub const TELESCOPE_TOLERANCE: f64 = 0.01;

/// Pin the engine knobs that change host time but not results: one engine
/// thread, fast-forward on, profiling and tracing off. The library default
/// thread count depends on the host, so an unpinned run measures a
/// different program on every machine.
pub fn pinned(mut cfg: GpuConfig) -> GpuConfig {
    cfg.sim_threads = 1;
    cfg.fast_forward = true;
    cfg.trace = false;
    cfg.trace_cache_fills = false;
    cfg.sample_interval_cycles = 0;
    cfg.sm.attribution = false;
    cfg
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: suite cells run, or requests offered.
    pub attempted: u64,
    /// Operations that were wrong, panicked or faulted.
    pub failed: u64,
    /// Run-level check failures: fingerprint or ledger mismatches,
    /// dropped telemetry, unpinned threads, spans that do not telescope.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// First fingerprint of every cell or session key, for the reference.
    pub fingerprints: BTreeMap<String, u64>,
    /// Keys the committed reference table had no entry for.
    pub unreferenced: Vec<String>,
    /// The traced run's spans as JSON, written out when the run ends.
    pub spans_json: Option<String>,
    /// Unscaled host measurements, printed with the environment stamp.
    pub host: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(names::unit_of(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Process exit code: 0 only when every check passed.
    pub fn exit_code(&self) -> i32 {
        if self.correct() {
            0
        } else {
            1
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `table`, each with its unit. A failed run may stop before setting
    /// every metric; those print as 0.
    ///
    /// # Panics
    ///
    /// Panics if a run that passed every check left a metric unset.
    pub fn result_line(&self, table: &[names::Metric]) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .begin_obj_key("metrics");
        for &(name, unit, _) in table {
            let v = self.values.get(name).copied().unwrap_or_else(|| {
                assert!(!self.correct(), "metric {name} not set");
                0.0
            });
            w.begin_obj_key(name)
                .f64("value", v)
                .str("unit", unit)
                .end_obj();
        }
        w.end_obj().end_obj();
        w.finish()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 when empty.
pub(crate) fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile `p` in `(0, 100]` of `xs`; 0 when empty.
pub(crate) fn percentile(xs: &[u64], p: f64) -> u64 {
    if xs.is_empty() {
        return 0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Set the modelled-component metrics (`sm.*`, `l1.*`, `l2.*`, `dram.*`,
/// `icnt.*` and the launch/transfer counts of `sim.*`) from `s`.
pub(crate) fn set_component_metrics(r: &mut Report, s: &RunStats) {
    r.set("sim.kernel_launches", s.host.kernel_launches as f64);
    r.set("sim.device_launches", s.sm.device_launches as f64);
    r.set("sim.pci_cycles", s.host.pci_cycles as f64);
    r.set("sim.h2d_bytes", s.host.h2d_bytes as f64);
    r.set("sim.d2h_bytes", s.host.d2h_bytes as f64);
    r.set("sm.issued", s.sm.issued as f64);
    r.set("sm.ipc", s.ipc());
    r.set("sm.bank_conflict_cycles", s.sm.bank_conflict_cycles as f64);
    r.set("sm.mean_active_lanes", s.sm.avg_active_lanes());
    for (reason, name) in [
        (StallReason::MemLatency, "sm.stall.mem_latency"),
        (StallReason::ControlHazard, "sm.stall.control_hazard"),
        (StallReason::DataHazard, "sm.stall.data_hazard"),
        (StallReason::Barrier, "sm.stall.barrier"),
        (StallReason::FunctionalDone, "sm.stall.functional_done"),
        (StallReason::Idle, "sm.stall.idle"),
    ] {
        r.set(name, s.sm.stalls.get(reason) as f64);
    }
    for (c, acc, hit) in [
        (&s.l1, "l1.accesses", "l1.hit_rate"),
        (&s.l2, "l2.accesses", "l2.hit_rate"),
    ] {
        let accesses = (c.read_access + c.write_access) as f64;
        r.set(acc, accesses);
        r.set(hit, ratio((c.read_hit + c.write_hit) as f64, accesses));
    }
    r.set("l1.mshr_merged", s.l1.mshr_merged as f64);
    r.set("dram.requests", s.dram.requests as f64);
    r.set(
        "dram.row_hit_rate",
        ratio(s.dram.row_hits as f64, s.dram.requests as f64),
    );
    r.set("dram.utilization", s.dram_utilization());
    let (q, p) = (&s.icnt_req, &s.icnt_rep);
    let packets = (q.packets + p.packets) as f64;
    r.set("icnt.packets", packets);
    r.set("icnt.flits", (q.flits + p.flits) as f64);
    r.set(
        "icnt.avg_latency_cycles",
        ratio((q.total_latency + p.total_latency) as f64, packets),
    );
    r.set("icnt.queueing_cycles", (q.queueing + p.queueing) as f64);
}

/// Set the `trace.*` metrics from the spans of a traced run.
/// `measured_wall_s` is the wall time of every root span, measured around
/// it independently of the tracer; `overhead_frac` compares traced with
/// untraced samples of the same work.
pub(crate) fn set_trace_metrics(
    r: &mut Report,
    spans: &[trace::Span],
    measured_wall_s: f64,
    overhead_frac: f64,
) {
    let by_layer = trace::self_seconds_by_layer(spans);
    for (layer, name) in [
        ("bench", "trace.self_s.bench"),
        ("kernels", "trace.self_s.kernels"),
        ("sim", "trace.self_s.sim"),
        ("serve", "trace.self_s.serve"),
    ] {
        r.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    let unknown: Vec<_> = by_layer
        .keys()
        .filter(|l| !["bench", "kernels", "sim", "serve"].contains(l))
        .collect();
    if !unknown.is_empty() {
        r.problems
            .push(format!("spans of unreported layers: {unknown:?}"));
    }
    let err = trace::telescope_error(spans, measured_wall_s);
    if err > TELESCOPE_TOLERANCE {
        r.problems.push(format!(
            "span self times miss the traced wall time by {:.3}% (tolerance {:.1}%)",
            err * 100.0,
            TELESCOPE_TOLERANCE * 100.0
        ));
    }
    r.set("trace.wall_s", measured_wall_s);
    r.set("trace.telescope_err_frac", err);
    r.set("trace.spans", spans.len() as f64);
    r.set("trace.overhead_frac", overhead_frac);
}

/// Process high-water resident set in MiB, from `/proc/self/status`.
pub(crate) fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
