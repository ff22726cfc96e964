//! The metric catalogue: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` lists the same names; a test
//! keeps the two equal.

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The tag used in `BENCHMARK.json`.
    pub fn tag(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric: name, unit, better direction.
pub type Metric = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// End-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    ("wall_s", "s", Lower),
    ("sim_cycles_per_s", "cycles/s", Higher),
    ("sim_instrs_per_s", "warp-instrs/s", Higher),
    ("setup_s", "s", Lower),
    ("peak_rss_mib", "MiB", Lower),
    ("req_per_s", "req/s", Higher),
    ("e2e_p50_cycles", "cycles", Lower),
    ("e2e_p99_cycles", "cycles", Lower),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    // Workload construction (ggpu-kernels / ggpu-genomics via ggpu-core).
    ("kernels.build_s", "s", Lower),
    // Device simulation around Benchmark::run.
    ("sim.run_s", "s", Lower),
    ("sim.ns_per_cycle", "ns/cycle", Lower),
    ("sim.ns_per_active_cycle", "ns/cycle", Lower),
    ("sim.ns_per_instr", "ns/instr", Lower),
    ("sim.ff_skip_frac", "fraction", Higher),
    ("sim.kernel_launches", "count", Lower),
    ("sim.device_launches", "count", Lower),
    ("sim.pci_cycles", "cycles", Lower),
    ("sim.h2d_bytes", "bytes", Lower),
    ("sim.d2h_bytes", "bytes", Lower),
    // Modelled components, from RunStats.
    ("sm.issued", "count", Lower),
    ("sm.ipc", "instrs/cycle", Higher),
    ("sm.bank_conflict_cycles", "cycles", Lower),
    ("sm.mean_active_lanes", "lanes", Higher),
    ("sm.stall.mem_latency", "cycles", Lower),
    ("sm.stall.control_hazard", "cycles", Lower),
    ("sm.stall.data_hazard", "cycles", Lower),
    ("sm.stall.barrier", "cycles", Lower),
    ("sm.stall.functional_done", "cycles", Lower),
    ("sm.stall.idle", "cycles", Lower),
    ("l1.accesses", "count", Lower),
    ("l1.hit_rate", "fraction", Higher),
    ("l1.mshr_merged", "count", Higher),
    ("l2.accesses", "count", Lower),
    ("l2.hit_rate", "fraction", Higher),
    ("dram.requests", "count", Lower),
    ("dram.row_hit_rate", "fraction", Higher),
    ("dram.utilization", "fraction", Higher),
    ("icnt.packets", "count", Lower),
    ("icnt.flits", "count", Lower),
    ("icnt.avg_latency_cycles", "cycles", Lower),
    ("icnt.queueing_cycles", "cycles", Lower),
    // Multi-GPU node, from Service::node_stats.
    ("node.p2p_bytes", "bytes", Lower),
    ("node.p2p_cycles", "cycles", Lower),
    // Serving layer, spans around its public calls.
    ("serve.new_s", "s", Lower),
    ("serve.submit_s", "s", Lower),
    ("serve.submit_ns", "ns", Lower),
    ("serve.round_s", "s", Lower),
    ("serve.round_ns_per_cycle", "ns/cycle", Lower),
    ("serve.drain_s", "s", Lower),
    ("serve.report_s", "s", Lower),
    ("serve.batch_fill", "fraction", Higher),
    ("serve.queue_wait_p50_cycles", "cycles", Lower),
    ("serve.device_exec_p50_cycles", "cycles", Lower),
    ("serve.batches", "count", Lower),
    ("serve.rounds", "count", Lower),
    ("serve.retries", "count", Lower),
    ("serve.splits", "count", Lower),
    ("serve.stream_resets", "count", Lower),
    ("serve.queue_depth_hwm", "count", Lower),
    // Outcome checks; 0 at a healthy commit, so they carry no bound.
    ("error_rate", "fraction", Lower),
    ("slo_miss_rate", "fraction", Lower),
    // The trace itself.
    ("trace.overhead_frac", "fraction", Lower),
    ("trace.wall_s", "s", Lower),
    ("trace.self_s.bench", "s", Lower),
    ("trace.self_s.kernels", "s", Lower),
    ("trace.self_s.sim", "s", Lower),
    ("trace.self_s.serve", "s", Lower),
    ("trace.telescope_err_frac", "fraction", Lower),
    ("trace.spans", "count", Lower),
];

/// The unit of `name` in either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
}
