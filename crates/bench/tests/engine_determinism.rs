//! The engine's determinism contract: two runs of the same work on fresh
//! devices are **bit-identical** — same counters, same per-kernel records,
//! same interval samples, same event trace, same faults — and so are runs
//! with idle-cycle fast-forward on and off.
//!
//! Exercised over real suite benchmarks (including a CDP one, so device-side
//! launches interleave with host grids), over a fault-injection run, where
//! the deadlock report must also be identical, and over a one-CTA grid on
//! the full 78-SM device, where almost every SM takes the idle fast path.

use ggpu_core::{GpuConfig, RunStats, Scale, SuiteRunner};
use ggpu_isa::{KernelBuilder, KernelId, LaunchDims, Operand, Program, Space, Width};
use ggpu_sim::{FaultPlan, Gpu, IntervalSample, KernelRecord, PcProfile, SimError, TraceEvent};

/// Profiling-heavy configuration so the comparison covers every observable
/// surface: counters, per-kernel records, interval samples, and the trace.
fn profiled_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.trace = true;
    cfg.sample_interval_cycles = 512;
    cfg
}

/// Everything observable from one benchmark run.
struct Observed {
    stats: RunStats,
    kernel_cycles: u64,
    kernels: Vec<KernelRecord>,
    samples: Vec<IntervalSample>,
    events: Vec<TraceEvent>,
}

fn run_bench(abbrev: &str, cdp: bool) -> Observed {
    let runner = SuiteRunner::new(Scale::Tiny).with_config(profiled_cfg());
    let r = runner.run_one(abbrev, cdp);
    assert!(r.verified, "{abbrev} must verify");
    let p = *r.profile.expect("profiling was enabled");
    Observed {
        stats: r.stats,
        kernel_cycles: r.kernel_cycles,
        kernels: p.kernels,
        samples: p.samples,
        events: p.events,
    }
}

#[test]
fn suite_benchmarks_are_bit_identical_across_runs() {
    // SW: plain data-parallel DP. NvB: binning + search, different memory
    // shape. STAR with CDP: the orchestrator launches children from the
    // device, so grid spawn/retire ordering is exercised too. Each run
    // builds a fresh device, so no hash-map iteration order or other
    // per-instance state may leak into the results.
    for (abbrev, cdp) in [("SW", false), ("NvB", false), ("STAR", true)] {
        let base = run_bench(abbrev, cdp);
        let other = run_bench(abbrev, cdp);
        assert_eq!(base.stats, other.stats, "{abbrev}: RunStats diverge");
        assert_eq!(
            base.kernel_cycles, other.kernel_cycles,
            "{abbrev}: cycle count diverges"
        );
        assert_eq!(
            base.kernels, other.kernels,
            "{abbrev}: per-kernel records diverge"
        );
        assert_eq!(
            base.samples, other.samples,
            "{abbrev}: interval samples diverge"
        );
        assert_eq!(base.events, other.events, "{abbrev}: event trace diverges");
    }
}

/// Kernel: load through global memory, then store the value back — blocks a
/// warp on the memory path so a dropped reply hangs it.
fn loader_program() -> Program {
    let mut b = KernelBuilder::new("loader");
    let src = b.reg();
    b.ld_param(src, 0);
    let v = b.reg();
    b.ld(Space::Global, Width::B64, v, src, 0);
    b.st(Space::Global, Width::B64, Operand::reg(v), src, 8);
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

fn run_fault_injected() -> (SimError, RunStats, u64) {
    let mut config = GpuConfig::test_small();
    config.watchdog_cycles = 2_000;
    config.fault_plan = FaultPlan {
        drop_reply: Some(0),
        ..FaultPlan::default()
    };
    let mut gpu = Gpu::new(loader_program(), config);
    let buf = gpu.malloc(256);
    let kid = ggpu_isa::KernelId(0);
    let err = gpu
        .try_run_kernel(kid, LaunchDims::linear(4, 64), &[buf.0])
        .expect_err("dropped reply must deadlock");
    (err, gpu.stats(), gpu.cycle())
}

#[test]
fn fault_injection_is_bit_identical_across_runs() {
    let (base_err, base_stats, base_cycle) = run_fault_injected();
    assert!(matches!(base_err, SimError::Deadlock(_)), "{base_err}");
    let (err, stats, cycle) = run_fault_injected();
    assert_eq!(base_err, err, "deadlock report diverges");
    assert_eq!(base_stats, stats, "post-fault stats diverge");
    assert_eq!(base_cycle, cycle, "fault cycle diverges");
}

/// Kernel: sixteen rounds of load, accumulate, exchange through shared
/// memory across a barrier, and store back — memory, barrier, and
/// bank-conflict stalls on one SM while every other SM idles.
fn accumulate_program() -> Program {
    let mut b = KernelBuilder::new("accumulate");
    let smem = b.alloc_smem(256 * 8);
    let base = b.reg();
    b.ld_param(base, 0);
    let tid = b.global_tid();
    let off = b.reg();
    b.ishl(off, tid, Operand::imm(3));
    let addr = b.reg();
    b.iadd(addr, base, Operand::reg(off));
    let acc = b.reg();
    b.mov(acc, Operand::imm(0));
    b.for_range(Operand::imm(0), Operand::imm(16), 1, |b, i| {
        let v = b.reg();
        b.ld(Space::Global, Width::B64, v, Operand::reg(addr), 0);
        b.iadd(acc, acc, Operand::reg(v));
        b.iadd(acc, acc, Operand::reg(i));
        b.st(
            Space::Shared,
            Width::B64,
            Operand::reg(acc),
            Operand::reg(off),
            smem as i64,
        );
        b.bar();
        let peer = b.reg();
        b.ld(
            Space::Shared,
            Width::B64,
            peer,
            Operand::imm(smem as i64),
            0,
        );
        b.iadd(acc, acc, Operand::reg(peer));
        b.st(
            Space::Global,
            Width::B64,
            Operand::reg(acc),
            Operand::reg(addr),
            0,
        );
    });
    b.exit();
    let mut p = Program::new();
    p.add(b.finish());
    p
}

/// Everything observable from the one-CTA run, plus each SM's cycle count.
#[derive(Debug, PartialEq)]
struct IdleHeavy {
    elapsed: u64,
    stats: RunStats,
    pcs: PcProfile,
    kernels: Vec<KernelRecord>,
    events: Vec<TraceEvent>,
    output: Vec<u8>,
    sm_cycles: Vec<u64>,
}

fn run_idle_heavy(fast_forward: bool) -> IdleHeavy {
    let mut cfg = GpuConfig::rtx3070().with_attribution(true);
    cfg.fast_forward = fast_forward;
    cfg.kernel_records = true;
    cfg.trace = true;
    assert_eq!(cfg.n_sms, 78);
    let mut gpu = Gpu::new(accumulate_program(), cfg);
    let buf = gpu.malloc(256 * 8);
    let init: Vec<u8> = (0..256u64).flat_map(|v| (v * 3).to_le_bytes()).collect();
    gpu.memcpy_h2d(buf, &init);
    let elapsed = gpu.run_kernel(KernelId(0), LaunchDims::linear(1, 256), &[buf.0]);
    IdleHeavy {
        elapsed,
        stats: gpu.stats(),
        pcs: gpu.pc_profile().expect("attribution on"),
        kernels: gpu.kernel_records().to_vec(),
        events: gpu.trace_events().to_vec(),
        output: gpu.memcpy_d2h(buf, 256 * 8),
        sm_cycles: gpu
            .unit_profile()
            .sms
            .iter()
            .map(|u| u.stats.cycles)
            .collect(),
    }
}

#[test]
fn idle_heavy_grid_is_bit_identical_across_engine_settings() {
    let base = run_idle_heavy(true);
    assert!(base.stats.sm.issued > 0);
    assert_eq!(base.kernels.len(), 1);
    assert!(!base.events.is_empty());
    assert_eq!(base.sm_cycles.len(), 78);
    assert!(
        base.sm_cycles.iter().all(|&c| c == base.elapsed),
        "every SM, busy or idle, counts every kernel cycle: {:?} vs {}",
        base.sm_cycles,
        base.elapsed
    );
    for fast_forward in [true, false] {
        let other = run_idle_heavy(fast_forward);
        assert!(
            base == other,
            "one-CTA run diverges at fast_forward={fast_forward}"
        );
    }
}
