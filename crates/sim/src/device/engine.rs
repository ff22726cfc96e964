//! The cycle engine: event delivery, DRAM, the SM phase, end-of-cycle
//! commit, `synchronize`, and fault/deadlock handling.
//!
//! One device cycle has three strictly ordered phases:
//!
//! 1. **Pre** ([`Gpu::cycle_pre`]) — due network packets are
//!    delivered (replies into each SM's inbound port, requests into the L2
//!    slices), DRAM channels tick, and CTAs dispatch.
//! 2. **SM** — every lane ticks against a *read-only* view of device
//!    memory, writing only its own core state and its own ports. Stores
//!    and global atomics are deferred to per-SM [`ggpu_sm::MemOp`] logs.
//! 3. **Post** ([`Gpu::cycle_post`]) — each lane's output is drained in
//!    SM-index order: deferred stores/atomics commit to memory, requests
//!    enter the interconnect, CDP launches spawn, completed CTAs retire,
//!    and traps resolve. Because stores were deferred, no SM observed
//!    another's same-cycle store, and commits land in (SM index, issue
//!    order); every modelled result depends on that order.
//!
//! All three phases run on the calling thread, in one loop
//! ([`Gpu::try_synchronize`]). Host parallelism lives one level up, across
//! whole devices ([`crate::NodeConfig::parallel_hosts`]).

use ggpu_mem::{CacheOutcome, LINE_BYTES};
use ggpu_sm::{MemRequest, ReqKind, Trap, WarpReport, WarpWait};

use crate::error::{DeadlockReport, DeviceFault, SimError};
use crate::memory::DeviceMemory;
use crate::trace::TraceEventKind;

use super::{cores, Gpu, SmLane};

/// Absolute backstop on simulated cycles per `synchronize`. The configurable
/// forward-progress watchdog ([`crate::GpuConfig::watchdog_cycles`])
/// normally fires long before this; the backstop only matters if a workload
/// keeps producing token progress (e.g. one instruction every few thousand
/// cycles) forever.
pub(super) const MAX_SYNC_CYCLES: u64 = 2_000_000_000;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Ev {
    /// A request packet arrived at its memory partition.
    L2Arrive {
        sm: usize,
        id: u64,
        addr: u64,
        kind: u8,
    },
    /// A reply packet arrived back at its SM.
    Reply { sm: usize, id: u64 },
}

#[derive(Debug)]
pub(super) enum DramTarget {
    /// Fill an L2 line and answer the waiters registered under it.
    Fill { part: usize, line: u64 },
    /// Pure write traffic; nothing to do on completion.
    Write,
}

impl Gpu {
    /// Whether any work remains on the device.
    pub fn busy(&self) -> bool {
        self.busy_with(&self.lanes)
    }

    pub(super) fn busy_with(&self, lanes: &[SmLane]) -> bool {
        !self.grids.is_empty()
            || !self.events.is_empty()
            || !self.pending_inbound.is_empty()
            || cores(lanes).any(|s| !s.is_idle() || s.has_outstanding())
            || self.dram.iter().any(|d| !d.is_idle())
    }

    /// Run the device until all launched grids complete; returns elapsed
    /// kernel cycles.
    ///
    /// When a warp raises a guest fault, the device drains in-flight work,
    /// enters the (sticky) fault state, and this returns the
    /// [`SimError::DeviceFault`]. When the forward-progress watchdog sees
    /// no activity for [`crate::GpuConfig::watchdog_cycles`] consecutive
    /// cycles, the device is halted the same way and this returns a
    /// [`SimError::Deadlock`] with a per-warp blocked-state report. Either
    /// way the `Gpu` stays usable after [`Gpu::reset_fault`].
    pub fn try_synchronize(&mut self) -> Result<u64, SimError> {
        if let Some(f) = self.fault.clone() {
            return Err(f);
        }
        let start = self.cycle;
        self.last_progress = self.cycle;
        // Check the lanes and memory out of `self` for the duration of the
        // run: the cycle phases borrow them independently of the rest of
        // the device state.
        let mut lanes = std::mem::take(&mut self.lanes);
        let mut mem = std::mem::take(&mut self.mem);
        let result = loop {
            if !self.busy_with(&lanes) {
                break Ok(());
            }
            let (now, device_busy) = self.cycle_pre(&mut lanes);
            for lane in lanes.iter_mut() {
                lane.core.tick(now, &mem, device_busy, &mut lane.ports);
            }
            self.cycle_post(&mut lanes, &mut mem, now);
            if let Some(outcome) = self.sync_check(start, &mut lanes) {
                break outcome;
            }
            if self.config.fast_forward {
                self.try_fast_forward(&mut lanes, start);
            }
        };
        self.lanes = lanes;
        self.mem = mem;
        let elapsed = self.cycle - start;
        self.host.kernel_cycles += elapsed;
        self.flush_sample();
        result.map(|()| elapsed)
    }

    /// Run the device until all launched grids complete; returns elapsed
    /// kernel cycles.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_synchronize`] would return an error (guest
    /// fault or deadlock).
    pub fn synchronize(&mut self) -> u64 {
        self.try_synchronize()
            .unwrap_or_else(|e| panic!("synchronize failed: {e}"))
    }

    /// Post-cycle fault/watchdog check. `Some(Err(..))` ends the run; `None` continues it — including
    /// after a *non-default* stream was killed for a deadline overrun or a
    /// watchdog hang, in which case the remaining streams keep running and
    /// the fault is reported through [`Gpu::stream_fault`].
    pub(super) fn sync_check(
        &mut self,
        start: u64,
        lanes: &mut [SmLane],
    ) -> Option<Result<(), SimError>> {
        if let Some(f) = self.fault.clone() {
            return Some(Err(f));
        }
        // Deadline: the active grid overran its cycle budget (counted from
        // arm). Enforced here, on the watchdog's schedule, so a hung *and*
        // budgeted grid is killed by whichever trips first.
        if let Some(h) = self.active_grid_handle() {
            let expired = self
                .grids
                .get(&h)
                .and_then(|g| g.deadline_at)
                .is_some_and(|dl| self.cycle >= dl);
            if expired {
                let g = &self.grids[&h];
                let err = SimError::DeadlineExceeded {
                    kernel: self.kernel_name(g.kernel),
                    stream: g.stream,
                    budget: g.deadline_budget.unwrap_or(0),
                    cycle: self.cycle,
                };
                self.kill_active_stream(err, lanes);
                if let Some(f) = self.fault.clone() {
                    return Some(Err(f));
                }
                return None;
            }
        }
        let stalled = self.cycle - self.last_progress;
        if stalled >= self.config.watchdog_cycles || self.cycle - start >= MAX_SYNC_CYCLES {
            let err = SimError::Deadlock(Box::new(self.deadlock_report_with(stalled, lanes)));
            if self.trace_on() {
                self.emit(TraceEventKind::Deadlock {
                    stalled_for: stalled,
                    stream: self.active_stream.unwrap_or(0),
                });
            }
            self.kill_active_stream(err.clone(), lanes);
            if self.fault.is_some() {
                return Some(Err(err));
            }
            return None;
        }
        None
    }

    /// Pre-SM phase: deliver due packets, tick DRAM, dispatch CTAs.
    /// Returns `(now, device_busy)` for the SM phase.
    pub(super) fn cycle_pre(&mut self, lanes: &mut [SmLane]) -> (u64, bool) {
        self.cycle += 1;
        let now = self.cycle;

        // 1. Deliver due network events. Replies land in the owning SM's
        // inbound port and are consumed at the start of its tick this same
        // cycle, preserving the pre-port `mem_response(id, now)` timing.
        while let Some(ev) = self.events.pop_due(now) {
            match ev {
                Ev::L2Arrive { sm, id, addr, kind } => self.handle_l2_arrive(sm, id, addr, kind),
                Ev::Reply { sm, id } => lanes[sm].ports.replies.push(id),
            }
        }

        // 2. DRAM channels.
        self.dram_tick();

        // 3. CTA dispatch (children first, then the active host grid).
        self.arm_and_dispatch(lanes);

        (now, self.device_busy_at(now))
    }

    /// Whether, from an idle SM's perspective, the device is mid-kernel at
    /// `now` — drives the `FunctionalDone` stall classification.
    ///
    /// Legacy mode counts every grid in the map (queued host grids
    /// included). Under [`crate::GpuConfig::stream_isolation`] only grids
    /// inside their execution window count — a queued host grid on an
    /// inactive stream is *outside* any window, and a retiring grid's drain
    /// tail is *inside* it — so the classification a grid observes never
    /// depends on what sits queued behind it on other streams.
    pub(super) fn device_busy_at(&self, now: u64) -> bool {
        if self.config.stream_isolation {
            self.draining.is_some()
                || self.grids.values().any(|g| match g.armed_at {
                    None => !g.from_host,
                    Some(t) => now < t || !g.fully_dispatched(),
                })
        } else {
            self.grids
                .values()
                .any(|g| !g.fully_dispatched() || g.armed_at.map(|t| now < t).unwrap_or(true))
        }
    }

    /// Post-SM phase: drain every lane's output in SM-index order
    /// (the deterministic merge), then resolve faults, feed the watchdog,
    /// and sample.
    pub(super) fn cycle_post(&mut self, lanes: &mut [SmLane], mem: &mut DeviceMemory, now: u64) {
        // 3b. Land due peer-to-peer payloads before the SM merge: the DMA
        // write commits at its exact arrival cycle, ahead of any same-cycle
        // SM store, so node-level memory state is deterministic at any host
        // thread count.
        while let Some(copy) = self.pending_inbound.pop_due(now) {
            mem.write_slice(crate::memory::DevicePtr(copy.dst), &copy.bytes);
            self.host.p2p_recvs += 1;
            self.host.p2p_bytes_in += copy.bytes.len() as u64;
            if self.trace_on() {
                self.emit(TraceEventKind::Memcpy {
                    dir: crate::trace::CopyDir::P2P,
                    bytes: copy.bytes.len() as u64,
                    cycles: copy.cycles,
                });
            }
        }

        // 4. Merge the SM outputs. A lane that produced nothing is skipped
        // (most lanes, most cycles, in latency-bound kernels). The others'
        // buffers are swapped out, drained in place (retaining capacity),
        // and swapped back — the steady-state hot path allocates nothing.
        let mut first_trap: Option<(usize, Trap)> = None;
        let mut issued = 0u64;
        for sm in 0..lanes.len() {
            if lanes[sm].ports.out.is_empty() {
                continue;
            }
            let mut out = std::mem::take(&mut lanes[sm].ports.out);
            lanes[sm].core.commit_mem_ops(mem, &mut out.mem_ops);
            for req in out.mem_requests.drain(..) {
                self.route_request(sm, req);
            }
            for l in out.launches.drain(..) {
                self.spawn_child(sm, l, mem);
            }
            for c in out.completed.drain(..) {
                if let Some(g) = self.grids.get_mut(&c.grid_handle) {
                    g.done_ctas += 1;
                    if g.finished() {
                        if g.from_host && self.config.stream_isolation {
                            // Canonical boundary: hold the grid until its
                            // in-flight effects drain (finalized below).
                            self.draining = Some(c.grid_handle);
                        } else {
                            self.grid_done(c.grid_handle, lanes);
                        }
                    }
                }
            }
            for t in out.traps.drain(..) {
                if first_trap.is_none() {
                    first_trap = Some((sm, t));
                }
            }
            issued += out.issued;
            out.issued = 0;
            lanes[sm].ports.out = out;
        }

        // 5. Fault resolution: a CDP-limit fault raised in `spawn_child`
        // (taking precedence, as before) or the first trap of the cycle
        // kills the owning stream's in-flight work. On the default stream
        // this is the legacy device-wide sticky fault; on other streams
        // the device keeps serving its siblings.
        let mut raised = self.pending_fault.take();
        if raised.is_none() {
            if let Some((sm, t)) = first_trap {
                raised = Some(self.fault_from_trap(sm, &t));
                if self.trace_on() {
                    self.emit(TraceEventKind::Fault {
                        kind: t.kind,
                        kernel: self.kernel_name(t.kernel),
                        stream: self.active_stream.unwrap_or(0),
                    });
                }
            }
        }
        if let Some(err) = raised {
            self.kill_active_stream(err, lanes);
            return;
        }

        // 5b. Canonical host-grid retirement (stream isolation): finalize
        // the held grid only once every in-flight effect has drained, so
        // the next grid starts from a translation-invariant device state.
        if let Some(h) = self.draining {
            let drained = self.events.is_empty()
                && self.dram.iter().all(|d| d.is_idle())
                && cores(lanes).all(|c| !c.has_outstanding());
            if drained {
                self.draining = None;
                for d in &mut self.dram {
                    d.close_rows();
                }
                self.grid_done(h, lanes);
            }
        }

        // 6. Forward-progress watchdog bookkeeping. Progress means: an
        // instruction issued, a network packet is still in flight, a P2P
        // payload is inbound over the node fabric, a DRAM channel is
        // working, or a grid is waiting out its launch overhead.
        let progress = issued > 0
            || !self.events.is_empty()
            || !self.pending_inbound.is_empty()
            || self.dram.iter().any(|d| !d.is_idle())
            || self
                .grids
                .values()
                .any(|g| g.armed_at.is_some_and(|t| t > now));
        if progress {
            self.last_progress = now;
        }

        // 7. Interval sampler: close a window at each absolute multiple of
        // the sampling period. One branch when sampling is off.
        if self.config.sample_interval_cycles != 0
            && now.is_multiple_of(self.config.sample_interval_cycles)
        {
            self.flush_sample_with(lanes);
        }
    }

    // ---- network / memory-partition internals -----------------------------

    #[inline]
    fn partition_of(&self, addr: u64) -> usize {
        ((addr / 256) % self.config.n_partitions as u64) as usize
    }

    fn route_request(&mut self, sm: usize, req: MemRequest) {
        let part = self.partition_of(req.addr);
        let bytes = match req.kind {
            ReqKind::Load => 32,
            ReqKind::Store => 8 + LINE_BYTES as u32,
            ReqKind::Atomic => 40,
        };
        let t = self.icnt_req.send(
            self.icnt_req.src_node(sm),
            self.icnt_req.dst_node(part),
            bytes,
            self.cycle,
        );
        let kind = match req.kind {
            ReqKind::Load => 0,
            ReqKind::Store => 1,
            ReqKind::Atomic => 2,
        };
        self.events.push(
            t.max(self.cycle + 1),
            Ev::L2Arrive {
                sm,
                id: req.id,
                addr: req.addr,
                kind,
            },
        );
    }

    fn enqueue_dram(&mut self, part: usize, addr: u64, target: DramTarget) {
        let key = self.next_dram_key;
        self.next_dram_key += 1;
        self.dram_inflight.insert(key, target);
        self.dram[part].enqueue(key, addr, self.cycle);
    }

    fn send_reply(&mut self, part: usize, sm: usize, id: u64, extra_delay: u64) {
        let n = self.replies_sent;
        self.replies_sent += 1;
        if self.config.fault_plan.drop_reply == Some(n) {
            // Injected loss: the waiting warp never unblocks and the
            // watchdog reports the hang.
            return;
        }
        let t = self.icnt_rep.send(
            self.icnt_rep.dst_node(part),
            self.icnt_rep.src_node(sm),
            8 + LINE_BYTES as u32,
            self.cycle + extra_delay,
        );
        self.events
            .push(t.max(self.cycle + 1), Ev::Reply { sm, id });
    }

    fn handle_l2_arrive(&mut self, sm: usize, id: u64, addr: u64, kind: u8) {
        let part = self.partition_of(addr);
        let line = addr / LINE_BYTES;
        match kind {
            // Load or atomic: read path through L2.
            0 | 2 => match self.l2[part].access(addr, false) {
                CacheOutcome::Hit => {
                    self.send_reply(part, sm, id, self.config.l2_latency);
                }
                CacheOutcome::MshrMerged => {
                    self.l2_waiters
                        .entry((part, line))
                        .or_default()
                        .push((sm, id));
                }
                _ => {
                    self.l2_waiters
                        .entry((part, line))
                        .or_default()
                        .push((sm, id));
                    self.enqueue_dram(part, addr, DramTarget::Fill { part, line });
                }
            },
            // Store: write-through L2 (update on hit, stream to DRAM).
            _ => {
                let _ = self.l2[part].access(addr, true);
                self.enqueue_dram(part, addr, DramTarget::Write);
            }
        }
    }

    fn dram_tick(&mut self) {
        for part in 0..self.dram.len() {
            for key in self.dram[part].tick(self.cycle) {
                match self.dram_inflight.remove(&key) {
                    Some(DramTarget::Fill { part, line }) => {
                        self.l2[part].fill(line * LINE_BYTES, false);
                        if self.config.trace_cache_fills && self.trace_on() {
                            self.emit(TraceEventKind::CacheFill {
                                partition: part as u64,
                                addr: line * LINE_BYTES,
                            });
                        }
                        if let Some(waiters) = self.l2_waiters.remove(&(part, line)) {
                            for (sm, id) in waiters {
                                self.send_reply(part, sm, id, 0);
                            }
                        }
                    }
                    Some(DramTarget::Write) | None => {}
                }
            }
        }
    }

    // ---- fault handling ---------------------------------------------------

    /// Compose the host-facing error for a warp trap raised on SM `sm`.
    fn fault_from_trap(&self, sm: usize, t: &Trap) -> SimError {
        let kernel = self
            .program
            .get(t.kernel)
            .map(|k| k.name.clone())
            .unwrap_or_else(|| format!("k{}", t.kernel.0));
        SimError::DeviceFault(Box::new(DeviceFault {
            kind: t.kind,
            kernel,
            stream: self.active_stream.unwrap_or(0),
            sm,
            cta: Some(t.cta_linear),
            warp: Some(t.warp),
            warp_in_cta: Some(t.warp_in_cta),
            lane_mask: Some(t.lane_mask),
            pc: Some(t.pc),
            instr: t.instr.clone(),
            addr: t.addr,
            cycle: self.cycle,
        }))
    }

    /// Kill the active stream after a fault, deadline overrun, or watchdog
    /// hang: mark the stream faulted (mirrored into the device-wide sticky
    /// fault when it is the default stream), abort resident work on every
    /// SM, drop the stream's grids (in-flight and queued alike) and all
    /// in-flight packets, and drain the DRAM channels so the device returns
    /// to a clean idle state. Other streams' *queued* grids have not
    /// started and survive untouched; memory contents, cache tags, and
    /// statistics survive too.
    pub(super) fn kill_active_stream(&mut self, err: SimError, lanes: &mut [SmLane]) {
        let s = self.active_stream.unwrap_or(0);
        self.streams[s].fault = Some(err.clone());
        if s == 0 {
            // The default stream keeps CUDA's device-wide sticky semantics.
            self.fault = Some(err);
        }
        for lane in lanes.iter_mut() {
            lane.core.abort_workload();
        }
        self.events.clear();
        self.device_queue.clear();
        self.grids.retain(|_, g| g.stream != s);
        self.streams[s].queue.clear();
        self.l2_waiters.clear();
        self.dram_inflight.clear();
        for d in &mut self.dram {
            d.clear_overflow();
        }
        // Drain DRAM off the device clock; completions are discarded since
        // their waiters were just aborted. Bounded: one issue per cycle and
        // bounded per-request latency, the cap is never the limiter.
        let mut t = self.cycle;
        let deadline = self.cycle + 1_000_000;
        while self.dram.iter().any(|d| !d.is_idle()) && t < deadline {
            t += 1;
            for d in &mut self.dram {
                let _ = d.tick(t);
            }
        }
        if self.config.stream_isolation {
            // The kill is a canonical boundary like any other: survivors
            // resume from the same device state a fault-free run reaches.
            for d in &mut self.dram {
                d.close_rows();
            }
        }
        self.active_stream = None;
        self.draining = None;
        // Forward progress restarts now. Without this bump a recovered
        // device would inherit the dead stream's stall count and the
        // watchdog could spuriously re-fire on the next grid's first
        // cycles (the stale-progress recovery bug).
        self.last_progress = self.cycle;
        // Scope the killed span out of the next kernel record's delta (the
        // off-clock DRAM drain above included), mirroring a retire
        // boundary; otherwise the first record after recovery absorbs the
        // dead stream's counters.
        if self.profiling_enabled() {
            self.record_base = self.stats_over(cores(lanes));
        }
    }

    /// Snapshot everything a deadlock post-mortem needs. Must run *before*
    /// [`Gpu::kill_active_stream`] wipes the state it describes.
    fn deadlock_report_with(&self, stalled_for: u64, lanes: &[SmLane]) -> DeadlockReport {
        let mut warps: Vec<WarpReport> = Vec::new();
        for (i, sm) in cores(lanes).enumerate() {
            warps.extend(
                sm.warp_report(i)
                    .into_iter()
                    .filter(|w| w.wait != WarpWait::Done),
            );
        }
        DeadlockReport {
            cycle: self.cycle,
            stalled_for,
            stream: self.active_stream.unwrap_or(0),
            warps,
            host_queue: self.streams.iter().map(|s| s.queue.len()).sum(),
            device_queue: self.device_queue.len(),
            events_in_flight: self.events.len(),
            outstanding_requests: cores(lanes).map(|s| s.outstanding_requests()).sum(),
            dram_queued: self.dram.iter().map(|d| d.queue_depth()).sum::<usize>(),
        }
    }
}
