//! The whole-GPU device: SM cluster, interconnect, L2 partitions, DRAM
//! channels, CTA dispatcher, CDP runtime, and the host API.
//!
//! This file is the facade: the [`Gpu`] state and its construction,
//! accessors, statistics, and profiling surface. The behaviour lives in
//! focused submodules:
//!
//! * [`engine`] — the per-cycle loop (event delivery, DRAM, SM phase,
//!   commit), `synchronize`, and fault/deadlock handling.
//! * [`launch`] — grid validation/queueing, CTA dispatch, and the CDP
//!   runtime.
//! * [`memcpy`] — host transfers: `malloc`, `memcpy_h2d`/`d2h`, constant
//!   binding, and the PCIe cost model.

mod engine;
mod fastforward;
mod launch;
mod memcpy;

pub use self::launch::LaunchOptions;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ggpu_icnt::{DeliveryQueue, Icnt};
use ggpu_isa::{KernelId, Program};
use ggpu_mem::{Cache, Dram};
use ggpu_sm::{SmCore, SmPorts};

use crate::config::GpuConfig;
use crate::error::SimError;
use crate::memory::DeviceMemory;
use crate::profile::{
    IntervalSample, KernelPcProfile, KernelRecord, PartitionUnit, PcProfile, PcProfileRow,
    ProfileReport, Sampler, SmUnit, UnitProfile,
};
use crate::stats::{HostStats, RunStats};
use crate::trace::{TraceBuffer, TraceEvent, TraceEventKind, TraceSink};

use self::engine::{DramTarget, Ev};
use self::launch::Grid;
use self::memcpy::InboundCopy;

/// Identifier of a host-side stream. Stream 0 is the default stream every
/// [`Gpu::launch`] targets; additional streams come from
/// [`Gpu::create_stream`]. Grids on different streams still execute one at
/// a time (the device arbitrates round-robin between stream queues), but
/// faults are scoped: a guest fault, deadlock, or deadline overrun poisons
/// only the owning stream, and [`Gpu::reset_stream`] recovers it while
/// other streams' results stay bit-identical to a fault-free run (under
/// [`GpuConfig::stream_isolation`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

impl StreamId {
    /// The default stream (CUDA's stream 0).
    pub const DEFAULT: StreamId = StreamId(0);
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream {}", self.0)
    }
}

/// Per-stream host state: the FIFO of queued grid handles and the stream's
/// sticky fault, if any.
#[derive(Debug, Default)]
struct StreamState {
    queue: VecDeque<u64>,
    fault: Option<SimError>,
}

/// One SM "lane": the core plus the port pair all its traffic crosses.
#[derive(Debug)]
struct SmLane {
    core: SmCore,
    ports: SmPorts,
}

/// All SM cores in SM-index order.
fn cores(lanes: &[SmLane]) -> impl Iterator<Item = &SmCore> {
    lanes.iter().map(|l| &l.core)
}

/// Where trace events go. [`SinkSlot::Off`] keeps the disabled path at a
/// single branch per emission site.
#[derive(Debug)]
enum SinkSlot {
    /// Tracing disabled (the default).
    Off,
    /// The built-in in-memory buffer ([`GpuConfig::trace`]).
    Buffer(TraceBuffer),
    /// A user-installed sink ([`Gpu::set_trace_sink`]).
    Custom(Box<dyn TraceSink>),
}

/// The simulated GPU plus its host-side API.
///
/// A typical benchmark host program:
///
/// 1. [`Gpu::new`] with a [`Program`] and [`GpuConfig`],
/// 2. [`Gpu::malloc`] / [`Gpu::memcpy_h2d`] to stage inputs,
/// 3. [`Gpu::launch`] one or more grids, [`Gpu::synchronize`] to run them,
/// 4. [`Gpu::memcpy_d2h`] to fetch results, [`Gpu::stats`] for counters.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    program: Arc<Program>,
    /// One lane per SM: the core plus its port pair. All SM traffic crosses
    /// the ports, so every lane ticks against a read-only view of memory
    /// and its output merges afterwards (see [`engine`]).
    lanes: Vec<SmLane>,
    mem: DeviceMemory,
    l2: Vec<Cache>,
    dram: Vec<Dram>,
    icnt_req: Icnt,
    icnt_rep: Icnt,
    cycle: u64,
    /// In-flight network packets, popped in (time, insertion) order.
    events: DeliveryQueue<Ev>,
    /// Peer-to-peer payloads in flight *towards* this device over the node
    /// fabric, applied to memory in the serial post phase at their exact
    /// arrival cycle ([`crate::GpuNode::try_p2p_copy`] stamps them).
    pending_inbound: DeliveryQueue<InboundCopy>,
    /// Host streams; index 0 is the default stream (the legacy host queue).
    streams: Vec<StreamState>,
    /// Stream whose head grid currently owns the device (armed or running),
    /// `None` between host grids.
    active_stream: Option<usize>,
    /// Round-robin arbitration cursor over `streams`.
    stream_cursor: usize,
    /// Finished host grid awaiting canonical-idle retirement
    /// ([`GpuConfig::stream_isolation`] two-phase drain); `None` otherwise.
    draining: Option<u64>,
    device_queue: VecDeque<u64>,
    grids: HashMap<u64, Grid>,
    next_grid: u64,
    /// Retired local-memory arenas available for reuse, as `(size, base)`.
    /// Exact-size recycling keyed off the launch geometry keeps steady-state
    /// serving at zero allocations per batch (see
    /// [`crate::DeviceMemory::alloc_count`]).
    free_arenas: Vec<(u64, u64)>,
    const_bindings: HashMap<u32, Arc<Vec<u8>>>,
    /// (partition, line) → (sm, req id) entries awaiting an L2 fill.
    l2_waiters: HashMap<(usize, u64), Vec<(usize, u64)>>,
    /// DRAM requests in flight, by channel-unique key.
    dram_inflight: HashMap<u64, DramTarget>,
    next_dram_key: u64,
    dispatch_cursor: usize,
    /// Reused per-cycle scratch for the device-queue dispatch sweep.
    scratch_handles: Vec<u64>,
    host: HostStats,
    /// Sticky device fault (CUDA semantics): once set, every device-touching
    /// API call returns it until [`Gpu::reset_fault`].
    fault: Option<SimError>,
    /// Last cycle at which the forward-progress watchdog observed activity.
    last_progress: u64,
    /// Cycles elided by idle-cycle fast-forward ([`GpuConfig::fast_forward`]).
    /// These cycles are fully accounted in every counter; this tracks how
    /// much simulated time the engine did not have to tick one-by-one.
    fast_forward_skipped_cycles: u64,
    /// Replies sent so far, for deterministic drop-the-Nth injection.
    replies_sent: u64,
    /// PCIe transfers so far (H2D + D2H), for deterministic drop/poison
    /// injection on the memcpy path.
    memcpys_done: u64,
    /// Fault raised during the current cycle's merge (trap or CDP-limit
    /// violation), resolved against the owning stream at the end of
    /// `cycle_post`.
    pending_fault: Option<SimError>,
    /// Where trace events go ([`SinkSlot::Off`] unless tracing is on).
    sink: SinkSlot,
    /// Per-kernel records, in retire order (collected while profiling is
    /// enabled).
    records: Vec<KernelRecord>,
    /// Counter snapshot at the last retire boundary (or stats reset); the
    /// base of the next kernel record's delta.
    record_base: RunStats,
    /// Interval sampler, present only when
    /// [`GpuConfig::sample_interval_cycles`] is non-zero.
    sampler: Option<Sampler>,
}

impl Gpu {
    /// Build a GPU running `program` under `config`.
    pub fn new(program: Program, config: GpuConfig) -> Self {
        program
            .validate()
            .unwrap_or_else(|(name, e)| panic!("kernel `{name}` invalid: {e}"));
        let program = Arc::new(program);
        let lanes = (0..config.n_sms)
            .map(|_| SmLane {
                core: SmCore::new(config.sm, Arc::clone(&program)),
                ports: SmPorts::new(),
            })
            .collect();
        let l2 = (0..config.n_partitions)
            .map(|_| Cache::new(config.l2_slice))
            .collect();
        let dram = (0..config.n_partitions)
            .map(|_| Dram::new(config.dram))
            .collect();
        let icnt_req = Icnt::new(config.icnt, config.n_sms, config.n_partitions);
        let icnt_rep = Icnt::new(config.icnt, config.n_sms, config.n_partitions);
        let mut mem = DeviceMemory::new();
        mem.set_poison(config.fault_plan.poison);
        Gpu {
            lanes,
            mem,
            l2,
            dram,
            icnt_req,
            icnt_rep,
            cycle: 0,
            events: DeliveryQueue::new(),
            pending_inbound: DeliveryQueue::new(),
            streams: vec![StreamState::default()],
            active_stream: None,
            stream_cursor: 0,
            draining: None,
            device_queue: VecDeque::new(),
            grids: HashMap::new(),
            next_grid: 1,
            free_arenas: Vec::new(),
            const_bindings: HashMap::new(),
            l2_waiters: HashMap::new(),
            dram_inflight: HashMap::new(),
            next_dram_key: 0,
            dispatch_cursor: 0,
            scratch_handles: Vec::new(),
            host: HostStats::default(),
            fault: None,
            last_progress: 0,
            fast_forward_skipped_cycles: 0,
            replies_sent: 0,
            memcpys_done: 0,
            pending_fault: None,
            sink: if config.trace {
                SinkSlot::Buffer(TraceBuffer::new(config.trace_capacity))
            } else {
                SinkSlot::Off
            },
            records: Vec::new(),
            record_base: RunStats::default(),
            sampler: (config.sample_interval_cycles > 0)
                .then(|| Sampler::new(config.sample_interval_cycles, config.sample_ring_capacity)),
            config,
            program,
        }
    }

    /// The configuration the GPU was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The program loaded on the device.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Offset all future grid handles by `base` (`next_grid` becomes
    /// `base + 1`). A node calls this once per device at construction (with
    /// `device_index << 40`) so grid handles — the join key between kernel
    /// records, trace events, and serving telemetry — stay unique across
    /// every device in the node. Must be called before the first launch.
    pub fn set_grid_base(&mut self, base: u64) {
        debug_assert_eq!(self.next_grid, 1, "grid base must be set before launches");
        self.next_grid = base + 1;
    }

    /// Simulated cycles elided by idle-cycle fast-forward so far (see
    /// [`GpuConfig::fast_forward`]). Every skipped cycle is fully credited
    /// to the counters, so `stats()` is independent of this value; it
    /// measures engine efficiency, not workload behaviour.
    pub fn fast_forward_skipped_cycles(&self) -> u64 {
        self.fast_forward_skipped_cycles
    }

    /// Functional device memory (for test setup/inspection).
    pub fn memory(&self) -> &DeviceMemory {
        &self.mem
    }

    /// Mutable functional device memory.
    pub fn memory_mut(&mut self) -> &mut DeviceMemory {
        &mut self.mem
    }

    /// The sticky fault the device is currently in, if any. This is the
    /// *device-wide* fault (default-stream semantics); per-stream faults
    /// are reported by [`Gpu::stream_fault`].
    pub fn fault(&self) -> Option<&SimError> {
        self.fault.as_ref()
    }

    /// Clear the sticky fault state and return it. The device was already
    /// halted and drained when the fault was raised, so it is immediately
    /// ready for new launches (memory contents and statistics survive).
    ///
    /// Besides taking the fault, this scrubs recovery-relevant residue the
    /// halt could not know about: the default stream's own fault marker,
    /// CDP pending-launch entries whose grids are gone (drained but never
    /// retired), the watchdog's progress marker (so the next launch starts
    /// its stall count from zero instead of inheriting the hang's), and —
    /// when profiling — the record-delta base (so the next kernel record
    /// does not absorb the killed span's counters).
    pub fn reset_fault(&mut self) -> Option<SimError> {
        let err = self.fault.take();
        self.streams[0].fault = None;
        self.device_queue
            .retain(|h| self.grids.contains_key(h) && !self.grids[h].finished());
        self.last_progress = self.cycle;
        if self.profiling_enabled() {
            self.record_base = self.stats();
        }
        err
    }

    // ---- streams ----------------------------------------------------------

    /// Create a new host stream and return its id. Streams are never
    /// destroyed; a faulted stream is recycled with [`Gpu::reset_stream`].
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(StreamState::default());
        StreamId(self.streams.len() - 1)
    }

    /// Number of streams (including the default stream 0).
    pub fn n_streams(&self) -> usize {
        self.streams.len()
    }

    /// The sticky fault `stream` is in, if any. A faulted stream rejects
    /// new launches and holds no in-flight work (its grids were killed when
    /// the fault was raised); other streams keep running.
    pub fn stream_fault(&self, stream: StreamId) -> Option<&SimError> {
        self.streams.get(stream.0).and_then(|s| s.fault.as_ref())
    }

    /// Grids queued (not yet retired) on `stream`.
    pub fn stream_pending(&self, stream: StreamId) -> usize {
        self.streams.get(stream.0).map_or(0, |s| s.queue.len())
    }

    /// Clear `stream`'s sticky fault and return it, restoring the stream to
    /// a usable state. The stream's in-flight work was already killed when
    /// the fault was raised; queued grids that never started were dropped
    /// with it. Resetting stream 0 also clears the device-wide fault (they
    /// are the same fault — the default stream keeps CUDA's device-sticky
    /// semantics).
    pub fn reset_stream(&mut self, stream: StreamId) -> Option<SimError> {
        if stream.0 == 0 {
            return self.reset_fault();
        }
        self.streams.get_mut(stream.0).and_then(|s| s.fault.take())
    }

    // ---- statistics -------------------------------------------------------

    /// Snapshot all counters.
    pub fn stats(&self) -> RunStats {
        self.stats_over(cores(&self.lanes))
    }

    /// [`Gpu::stats`] over an explicit SM-core iterator, so the engine can
    /// snapshot counters while the lanes are checked out of `self` (e.g.
    /// mid-`synchronize` for per-kernel records and interval samples).
    pub(super) fn stats_over<'a>(&self, cores: impl Iterator<Item = &'a SmCore>) -> RunStats {
        let mut r = RunStats {
            host: self.host,
            icnt_req: *self.icnt_req.stats(),
            icnt_rep: *self.icnt_rep.stats(),
            ..RunStats::default()
        };
        for sm in cores {
            r.sm.merge(sm.stats());
            RunStats::merge_cache(&mut r.l1, sm.l1_stats());
        }
        for l2 in &self.l2 {
            RunStats::merge_cache(&mut r.l2, l2.stats());
        }
        for d in &self.dram {
            RunStats::merge_dram(&mut r.dram, d.stats());
        }
        r
    }

    /// Reset every statistic (not memory contents or cache tags), including
    /// per-kernel records, interval samples, and the trace buffer.
    pub fn reset_stats(&mut self) {
        self.host = HostStats::default();
        self.fast_forward_skipped_cycles = 0;
        for lane in &mut self.lanes {
            let _ = lane.core.take_stats();
            lane.core.reset_cache_stats();
            lane.core.reset_pc_table();
        }
        for l2 in &mut self.l2 {
            l2.reset_stats();
        }
        for d in &mut self.dram {
            d.reset_stats();
        }
        self.icnt_req.reset_stats();
        self.icnt_rep.reset_stats();
        self.records.clear();
        self.record_base = RunStats::default();
        if let Some(s) = &mut self.sampler {
            let interval = s.interval;
            let capacity = s.capacity;
            *s = Sampler::new(interval, capacity);
            s.last_boundary = self.cycle;
        }
        if let SinkSlot::Buffer(b) = &mut self.sink {
            let _ = b.take();
        }
    }

    // ---- profiling --------------------------------------------------------

    /// Whether the profiling layer is collecting anything: a trace sink is
    /// installed, interval sampling is on, per-PC attribution is on, and/or
    /// standalone kernel records are requested
    /// ([`GpuConfig::kernel_records`]). Per-kernel records are collected
    /// exactly while this is true. Profiling never changes simulated timing
    /// or [`Gpu::stats`] — with everything disabled the per-cycle cost is a
    /// single branch.
    pub fn profiling_enabled(&self) -> bool {
        self.trace_on()
            || self.sampler.is_some()
            || self.config.sm.attribution
            || self.config.kernel_records
    }

    /// Install a custom trace sink (replacing the built-in buffer if
    /// [`GpuConfig::trace`] was set). The sink sees every event from now on.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = SinkSlot::Custom(sink);
    }

    /// Per-kernel counter records collected so far, in retire order.
    pub fn kernel_records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Completed interval samples currently in the ring, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &IntervalSample> + '_ {
        self.sampler.iter().flat_map(|s| s.ring.iter())
    }

    /// Samples evicted from the ring so far.
    pub fn samples_dropped(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.dropped)
    }

    /// Events recorded by the built-in trace buffer (empty when tracing is
    /// off or a custom sink is installed).
    pub fn trace_events(&self) -> &[TraceEvent] {
        match &self.sink {
            SinkSlot::Buffer(b) => b.events(),
            _ => &[],
        }
    }

    /// The code axis of attribution: per-PC counters merged across SMs in
    /// SM-index order and symbolicated against the loaded program. `None`
    /// unless the GPU was built with [`ggpu_sm::SmConfig::attribution`].
    pub fn pc_profile(&self) -> Option<PcProfile> {
        let mut merged: Option<ggpu_sm::PcTable> = None;
        for lane in &self.lanes {
            let t = lane.core.pc_table()?;
            match &mut merged {
                Some(m) => m.merge(t),
                None => merged = Some(t.clone()),
            }
        }
        let merged = merged?;
        let kernels = self
            .program
            .iter()
            .map(|(kid, k)| KernelPcProfile {
                kernel_id: kid.0,
                kernel: k.name.clone(),
                rows: merged
                    .kernel(kid)
                    .iter()
                    .enumerate()
                    .map(|(pc, c)| PcProfileRow {
                        pc,
                        instr: k.instrs[pc].to_string(),
                        counters: *c,
                    })
                    .collect(),
            })
            .collect();
        Some(PcProfile {
            kernels,
            unattributed: *merged.unattributed(),
        })
    }

    /// The space axis of attribution: every counter resolved per hardware
    /// unit. Always available — these are the units' own live counters.
    pub fn unit_profile(&self) -> UnitProfile {
        let req_inj = self.icnt_req.injected_per_node();
        let req_del = self.icnt_req.delivered_per_node();
        let rep_inj = self.icnt_rep.injected_per_node();
        let rep_del = self.icnt_rep.delivered_per_node();
        let n_sms = self.config.n_sms;
        let sms = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| SmUnit {
                sm: i,
                stats: lane.core.stats().clone(),
                l1: *lane.core.l1_stats(),
                req_injected: req_inj.get(i).copied().unwrap_or(0),
                rep_delivered: rep_del.get(i).copied().unwrap_or(0),
            })
            .collect();
        let partitions = (0..self.config.n_partitions)
            .map(|p| PartitionUnit {
                partition: p,
                l2: *self.l2[p].stats(),
                dram: *self.dram[p].stats(),
                banks: self.dram[p].bank_stats().to_vec(),
                req_delivered: req_del.get(n_sms + p).copied().unwrap_or(0),
                rep_injected: rep_inj.get(n_sms + p).copied().unwrap_or(0),
            })
            .collect();
        UnitProfile { sms, partitions }
    }

    /// Take everything the profiler has collected as one machine-readable
    /// [`ProfileReport`], leaving the profiler empty (subsequent records and
    /// samples start from the current counter values).
    pub fn take_profile(&mut self) -> ProfileReport {
        self.flush_sample();
        let stats = self.stats();
        let (samples, samples_dropped) = match &mut self.sampler {
            Some(s) => (
                std::mem::take(&mut s.ring).into_iter().collect(),
                std::mem::take(&mut s.dropped),
            ),
            None => (Vec::new(), 0),
        };
        let (events, events_dropped) = match &mut self.sink {
            SinkSlot::Buffer(b) => b.take(),
            _ => (Vec::new(), 0),
        };
        self.record_base = stats.clone();
        ProfileReport {
            stats,
            clock_ghz: self.config.clock_ghz,
            kernels: std::mem::take(&mut self.records),
            samples,
            samples_dropped,
            events,
            events_dropped,
            pc: self.pc_profile(),
            units: self.unit_profile(),
        }
    }

    #[inline]
    fn trace_on(&self) -> bool {
        !matches!(self.sink, SinkSlot::Off)
    }

    /// Hand one event to the installed sink. Callers guard with
    /// [`Gpu::trace_on`] so the disabled path never constructs an event.
    fn emit(&mut self, kind: TraceEventKind) {
        let ev = TraceEvent {
            cycle: self.cycle,
            kind,
        };
        match &mut self.sink {
            SinkSlot::Off => {}
            SinkSlot::Buffer(b) => b.event(&ev),
            SinkSlot::Custom(s) => s.event(&ev),
        }
    }

    /// Display name for a kernel id.
    fn kernel_name(&self, id: KernelId) -> String {
        self.program
            .get(id)
            .map(|k| k.name.clone())
            .unwrap_or_else(|| format!("k{}", id.0))
    }

    /// Close the sampler's partial trailing window (no-op when sampling is
    /// off or no cycles elapsed since the last boundary).
    fn flush_sample(&mut self) {
        if self.sampler.is_some() {
            let snap = self.stats();
            if let Some(s) = &mut self.sampler {
                s.close_window(self.cycle, &snap);
            }
        }
    }

    /// [`Gpu::flush_sample`] while the lanes are checked out of `self`.
    fn flush_sample_with(&mut self, lanes: &[SmLane]) {
        if self.sampler.is_some() {
            let snap = self.stats_over(cores(lanes));
            if let Some(s) = &mut self.sampler {
                s.close_window(self.cycle, &snap);
            }
        }
    }
}
