//! # ggpu-kernels — the ten Genomics-GPU benchmarks on the simulator
//!
//! Each benchmark of the paper's Table III is implemented as device kernels
//! in the `ggpu-isa` instruction set plus a host driver, in both non-CDP
//! and CDP (CUDA-Dynamic-Parallelism) variants:
//!
//! | Abbrev | Benchmark | Module |
//! |--------|-----------|--------|
//! | SW | Smith-Waterman local alignment | [`pairwise`] |
//! | NW | Needleman-Wunsch global alignment (shared-memory rows) | [`pairwise`] |
//! | STAR | Center-star multiple sequence alignment | [`star`] |
//! | GG / GL / GKSW / GSG | GASAL2 global / local / KSW-extension / semi-global | [`pairwise`] |
//! | CLUSTER | Greedy incremental alignment-based clustering | [`cluster`] |
//! | PairHMM | Pair-HMM forward algorithm | [`pairhmm`] |
//! | NvB | FM-index read alignment (NvBowtie-style) | [`nvb`] |
//!
//! Every run validates the device results against the CPU reference
//! implementations in `ggpu-genomics` before reporting statistics, so a
//! figure regenerated by `ggpu-bench` is backed by a functionally correct
//! kernel, not just a timing model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cluster;
pub mod dp;
pub mod nvb;
pub mod pairhmm;
pub mod pairwise;
pub mod star;
pub mod traceback;

use ggpu_sim::{GpuConfig, ProfileReport, RunStats};

/// Workload scale: `Tiny` keeps unit tests fast; `Small` is the default
/// for regenerating figures; `Paper` mirrors Table III's published input
/// sizes (slow under simulation — minutes per benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-long unit-test workloads.
    Tiny,
    /// Default figure-generation workloads.
    Small,
    /// Table III shapes (slow).
    Paper,
}

/// Result of one benchmark execution.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// All device/host counters collected during the run.
    pub stats: RunStats,
    /// Kernel-execution cycles (excludes PCI time).
    pub kernel_cycles: u64,
    /// Whether the device output matched the CPU reference.
    pub verified: bool,
    /// Always 1. The cycle engine has no thread setting; the field is kept
    /// only because the frozen `hostbench` harness checks it.
    pub sim_threads: usize,
    /// Simulated cycles the engine elided via idle-cycle fast-forward
    /// ([`ggpu_sim::Gpu::fast_forward_skipped_cycles`]); all counters fully
    /// account for these cycles, so this measures engine efficiency only.
    pub fast_forward_skipped_cycles: u64,
    /// Human-readable summary of what ran.
    pub detail: String,
    /// Time-resolved profile (per-kernel records, interval samples, event
    /// trace), present when the run's [`GpuConfig`] enabled profiling
    /// (tracing and/or interval sampling); `None` otherwise.
    pub profile: Option<Box<ProfileReport>>,
}

/// Static properties printed in Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Full benchmark name.
    pub name: &'static str,
    /// Abbreviation used across the figures.
    pub abbrev: &'static str,
    /// Input description (the paper's dataset, with our substitution).
    pub input: String,
    /// Grid dimensions (paper configuration).
    pub grid: (u32, u32, u32),
    /// CTA dimensions (paper configuration).
    pub cta: (u32, u32, u32),
    /// Whether the kernel uses shared memory.
    pub shared_memory: bool,
    /// Whether the kernel uses constant memory.
    pub constant_memory: bool,
    /// Concurrent CTAs per SM under the baseline configuration.
    pub ctas_per_core: u32,
}

/// Static per-kernel resource usage (what `-Xptxas -v` reports on real
/// hardware), feeding the paper's Figure 6 SRAM-utilization analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per CTA, bytes.
    pub smem_per_cta: u32,
    /// Constant-memory footprint, bytes.
    pub cmem_bytes: u32,
    /// Threads per CTA of the main kernel.
    pub threads_per_cta: u32,
}

/// A runnable Genomics-GPU benchmark.
pub trait Benchmark {
    /// Abbreviation (`SW`, `NW`, ...).
    fn abbrev(&self) -> &'static str;
    /// Full name.
    fn name(&self) -> &'static str;
    /// Table III row.
    fn table3(&self) -> Table3Row;
    /// Static resource usage of the main kernel.
    fn resources(&self) -> KernelResources;
    /// Execute on a fresh simulated GPU and verify against the CPU
    /// reference.
    fn run(&self, config: &GpuConfig, cdp: bool) -> BenchResult;
}

/// All ten benchmarks at `scale`, in Table III order.
pub fn all_benchmarks(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(pairwise::PairwiseBench::sw(scale)),
        Box::new(pairwise::PairwiseBench::nw(scale, true)),
        Box::new(star::StarBench::new(scale)),
        Box::new(pairwise::PairwiseBench::gasal_global(scale)),
        Box::new(pairwise::PairwiseBench::gasal_local(scale)),
        Box::new(pairwise::PairwiseBench::gasal_ksw(scale)),
        Box::new(pairwise::PairwiseBench::gasal_semiglobal(scale)),
        Box::new(cluster::ClusterBench::new(scale)),
        Box::new(pairhmm::PairHmmBench::new(scale, true)),
        Box::new(nvb::NvbBench::new(scale)),
    ]
}
