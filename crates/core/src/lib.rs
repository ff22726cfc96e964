//! # ggpu-core — the Genomics-GPU benchmark suite
//!
//! The public API a downstream user drives the suite through:
//!
//! * [`SuiteRunner`] — run any subset of the ten benchmarks (CDP and
//!   non-CDP) on a configurable simulated GPU and collect [`RunStats`].
//! * [`sram_usage`] — the Figure 6 SRAM-utilization computation from
//!   static kernel resources and the occupancy rules.
//! * [`cpu_baseline`] — wall-clock CPU timings for SW/NW/STAR on matched
//!   workloads (the CPU side of Figure 2).
//! * Re-exports of the benchmark registry, the simulator configuration
//!   space (Tables I and II) and the underlying crates.
//!
//! ```no_run
//! use ggpu_core::{Scale, SuiteRunner};
//!
//! let runner = SuiteRunner::new(Scale::Tiny);
//! for (name, result) in runner.run_all(false) {
//!     println!("{name}: IPC {:.2}", result.stats.ipc());
//!     assert!(result.verified);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::time::Instant;

pub use ggpu_kernels::{all_benchmarks, BenchResult, Benchmark, KernelResources, Scale, Table3Row};
pub use ggpu_sim::{
    chrome_trace_json, json, run_stats_json, CacheStats, DeadlockReport, DeviceFault, DramStats,
    FaultKind, FaultPlan, Gpu, GpuConfig, IntervalSample, KernelPcProfile, KernelRecord,
    LaunchProblem, PartitionUnit, PcCounters, PcProfile, PcProfileRow, ProfileReport, RunStats,
    SimError, SmStats, SmUnit, StallBreakdown, StallReason, TraceBuffer, TraceEvent,
    TraceEventKind, TraceSink, UnitProfile,
};

use ggpu_genomics::{nw_score, sequence_family, sw_score, GapModel, Simple};
use ggpu_sm::SmConfig;

/// Abbreviations of the ten benchmarks in Table III order.
pub const BENCHMARKS: [&str; 10] = [
    "SW", "NW", "STAR", "GG", "GL", "GKSW", "GSG", "CLUSTER", "PairHMM", "NvB",
];

/// Look up one benchmark by its abbreviation.
pub fn benchmark(scale: Scale, abbrev: &str) -> Option<Box<dyn Benchmark>> {
    all_benchmarks(scale)
        .into_iter()
        .find(|b| b.abbrev() == abbrev)
}

/// Convenience driver for running benchmark sets under one configuration.
#[derive(Debug, Clone)]
pub struct SuiteRunner {
    scale: Scale,
    config: GpuConfig,
}

impl SuiteRunner {
    /// Runner at `scale` with the RTX 3070 baseline configuration.
    pub fn new(scale: Scale) -> Self {
        SuiteRunner {
            scale,
            config: GpuConfig::rtx3070(),
        }
    }

    /// Replace the GPU configuration (for the paper's sweeps).
    pub fn with_config(mut self, config: GpuConfig) -> Self {
        self.config = config;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The active scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Run every benchmark; returns `(abbrev, result)` pairs in Table III
    /// order.
    pub fn run_all(&self, cdp: bool) -> Vec<(&'static str, BenchResult)> {
        all_benchmarks(self.scale)
            .iter()
            .map(|b| (b.abbrev(), b.run(&self.config, cdp)))
            .collect()
    }

    /// Run one benchmark by abbreviation.
    ///
    /// # Panics
    ///
    /// Panics if `abbrev` is not one of [`BENCHMARKS`].
    pub fn run_one(&self, abbrev: &str, cdp: bool) -> BenchResult {
        self.try_run_one(abbrev, cdp)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run one benchmark by abbreviation, reporting an unknown abbreviation
    /// as an error instead of panicking.
    pub fn try_run_one(&self, abbrev: &str, cdp: bool) -> Result<BenchResult, UnknownBenchmark> {
        benchmark(self.scale, abbrev)
            .ok_or_else(|| UnknownBenchmark(abbrev.to_string()))
            .map(|b| b.run(&self.config, cdp))
    }
}

/// A benchmark abbreviation that is not in [`BENCHMARKS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBenchmark(pub String);

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown benchmark `{}` (expected one of {})",
            self.0,
            BENCHMARKS.join(", ")
        )
    }
}

impl std::error::Error for UnknownBenchmark {}

/// SRAM utilization of one benchmark (Figure 6): the fraction of each
/// on-chip SRAM structure occupied by the concurrently resident CTAs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramUsage {
    /// Concurrent CTAs per SM under the occupancy rules.
    pub resident_ctas: u32,
    /// Register-file utilization in `[0, 1]`.
    pub registers: f64,
    /// Shared-memory utilization in `[0, 1]`.
    pub shared: f64,
    /// Constant-memory utilization in `[0, 1]` (single image; constant
    /// memory is not replicated per CTA).
    pub constant: f64,
}

/// Compute Figure 6's SRAM utilization for a benchmark under `sm`.
pub fn sram_usage(bench: &dyn Benchmark, sm: &SmConfig) -> SramUsage {
    let r = bench.resources();
    let ctas = sm.max_resident_ctas(r.threads_per_cta, r.regs_per_thread, r.smem_per_cta);
    let regs_used = r.regs_per_thread as u64 * r.threads_per_cta as u64 * ctas as u64;
    let smem_used = r.smem_per_cta as u64 * ctas as u64;
    SramUsage {
        resident_ctas: ctas,
        registers: (regs_used as f64 / sm.registers as f64).min(1.0),
        shared: (smem_used as f64 / sm.smem_bytes as f64).min(1.0),
        constant: (r.cmem_bytes as f64 / 64.0 / 1024.0).min(1.0),
    }
}

/// CPU wall-clock baselines for Figure 2 (SW / NW / STAR on workloads
/// matched to the `Small` GPU benchmarks).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuBaseline {
    /// Seconds for the Smith-Waterman workload.
    pub sw_seconds: f64,
    /// Seconds for the Needleman-Wunsch workload.
    pub nw_seconds: f64,
    /// Seconds for the center-star workload.
    pub star_seconds: f64,
}

/// Time the single-threaded CPU implementations on workloads shaped like
/// the GPU benchmarks at `scale`.
pub fn cpu_baseline(scale: Scale) -> CpuBaseline {
    let (pairs, len, star_n, star_len) = match scale {
        Scale::Tiny => (48usize, 20usize, 10usize, 16usize),
        Scale::Small => (2_560, 28, 20, 24),
        Scale::Paper => (5_120, 64, 48, 48),
    };
    let subst = Simple::new(2, -3);
    let gaps = GapModel::Affine { open: 5, extend: 2 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3131);
    use rand::SeedableRng;
    let seqs = sequence_family(pairs * 2, len, 0.08, 0.0, &mut rng);

    let t0 = Instant::now();
    let mut acc = 0i64;
    for p in 0..pairs {
        acc += sw_score(seqs[2 * p].codes(), seqs[2 * p + 1].codes(), &subst, gaps) as i64;
    }
    let sw_seconds = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    for p in 0..pairs {
        acc += nw_score(seqs[2 * p].codes(), seqs[2 * p + 1].codes(), &subst, gaps) as i64;
    }
    let nw_seconds = t0.elapsed().as_secs_f64();

    let star: Vec<Vec<u8>> = sequence_family(star_n, star_len, 0.06, 0.0, &mut rng)
        .into_iter()
        .map(|s| s.codes().to_vec())
        .collect();
    let t0 = Instant::now();
    let msa = ggpu_genomics::center_star(&star, &subst, gaps);
    let star_seconds = t0.elapsed().as_secs_f64();
    std::hint::black_box((acc, msa.columns()));

    CpuBaseline {
        sw_seconds,
        nw_seconds,
        star_seconds,
    }
}

/// Render a simple aligned text table (used by the `figures` harness).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_benchmarks() {
        let all = all_benchmarks(Scale::Tiny);
        assert_eq!(all.len(), 10);
        let abbrevs: Vec<&str> = all.iter().map(|b| b.abbrev()).collect();
        assert_eq!(abbrevs, BENCHMARKS);
    }

    #[test]
    fn benchmark_lookup() {
        assert!(benchmark(Scale::Tiny, "SW").is_some());
        assert!(benchmark(Scale::Tiny, "PairHMM").is_some());
        assert!(benchmark(Scale::Tiny, "XXX").is_none());
    }

    #[test]
    fn sram_usage_is_sane_for_all() {
        let sm = SmConfig::default();
        for b in all_benchmarks(Scale::Tiny) {
            let u = sram_usage(b.as_ref(), &sm);
            assert!(u.resident_ctas >= 1, "{}", b.abbrev());
            assert!((0.0..=1.0).contains(&u.registers));
            assert!((0.0..=1.0).contains(&u.shared));
            assert!((0.0..=1.0).contains(&u.constant));
            // Table III: shared-memory users actually occupy shared memory.
            if b.table3().shared_memory {
                assert!(u.shared > 0.0, "{} should use smem", b.abbrev());
            }
        }
    }

    #[test]
    fn table3_rows_match_paper_shapes() {
        for b in all_benchmarks(Scale::Tiny) {
            let row = b.table3();
            assert!(row.constant_memory, "{}: all rows use const", row.abbrev);
            assert!(row.grid.0 >= 1 && row.cta.0 >= 32);
        }
        let nvb = benchmark(Scale::Tiny, "NvB").unwrap().table3();
        assert_eq!(nvb.grid, (2048, 1, 1));
        assert_eq!(nvb.cta, (256, 1, 1));
    }

    #[test]
    fn cpu_baseline_produces_positive_times() {
        let b = cpu_baseline(Scale::Tiny);
        assert!(b.sw_seconds > 0.0);
        assert!(b.nw_seconds > 0.0);
        assert!(b.star_seconds > 0.0);
    }

    #[test]
    fn runner_runs_one() {
        let runner = SuiteRunner::new(Scale::Tiny).with_config(GpuConfig::test_small());
        let r = runner.run_one("SW", false);
        assert!(r.verified);
    }

    #[test]
    fn try_run_one_reports_unknown_benchmark() {
        let runner = SuiteRunner::new(Scale::Tiny).with_config(GpuConfig::test_small());
        let e = runner.try_run_one("XXX", false).unwrap_err();
        assert_eq!(e, UnknownBenchmark("XXX".to_string()));
        assert!(e.to_string().contains("unknown benchmark `XXX`"));
        assert!(runner.try_run_one("NW", false).is_ok());
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bench"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(t.contains("bench"));
        assert!(t.lines().count() == 4);
    }
}
