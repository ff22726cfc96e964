//! Grid lifecycle: launch validation and queueing, CTA dispatch across the
//! SM cluster, the CDP (device-side launch) runtime, and grid retirement.

use std::sync::Arc;

use ggpu_isa::{FaultKind, Kernel, KernelId, LaunchDims};
use ggpu_sm::CtaConfig;

use crate::error::{DeviceFault, LaunchProblem, SimError};
use crate::memory::DeviceMemory;
use crate::profile::KernelRecord;
use crate::trace::TraceEventKind;

use super::{cores, Gpu, SmLane, StreamId};

/// Per-launch options for [`Gpu::try_launch_on`]: the target stream and an
/// optional execution deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchOptions {
    /// Stream to enqueue on (defaults to [`StreamId::DEFAULT`]).
    pub stream: StreamId,
    /// Cycle budget counted from when the grid is *armed* (reaches the head
    /// of its stream and finishes its launch-overhead window), so queueing
    /// behind other streams does not consume it. When the budget expires
    /// before the grid retires, the owning stream is killed with
    /// [`SimError::DeadlineExceeded`] — the watchdog machinery enforces it
    /// at the same point it checks forward progress.
    pub deadline: Option<u64>,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            stream: StreamId::DEFAULT,
            deadline: None,
        }
    }
}

#[derive(Debug)]
pub(super) struct Grid {
    pub(super) kernel: KernelId,
    pub(super) dims: LaunchDims,
    pub(super) params: Arc<Vec<u64>>,
    pub(super) const_data: Arc<Vec<u8>>,
    pub(super) local_base: u64,
    pub(super) local_stride: u64,
    pub(super) next_cta: u64,
    pub(super) done_ctas: u64,
    /// `(sm, slot, parent grid handle)` for CDP children.
    pub(super) parent: Option<(usize, usize, u64)>,
    /// Earliest cycle CTAs may dispatch (launch overhead); `None` until the
    /// grid reaches the head of its queue.
    pub(super) armed_at: Option<u64>,
    pub(super) from_host: bool,
    /// Owning stream (0 = default; CDP children inherit the parent's).
    pub(super) stream: usize,
    /// Cycle budget from arm ([`LaunchOptions::deadline`]); `None` = none.
    pub(super) deadline_budget: Option<u64>,
    /// Absolute kill cycle, set when the grid arms.
    pub(super) deadline_at: Option<u64>,
    /// CDP nesting depth: 0 for host grids, parent + 1 for children.
    pub(super) depth: u32,
    /// Cycle at which the grid was enqueued.
    pub(super) launch_cycle: u64,
    /// Cycle at which the first CTA dispatched; `None` until then.
    pub(super) start_cycle: Option<u64>,
}

impl Grid {
    pub(super) fn fully_dispatched(&self) -> bool {
        self.next_cta >= self.dims.num_ctas()
    }
    pub(super) fn finished(&self) -> bool {
        self.fully_dispatched() && self.done_ctas >= self.dims.num_ctas()
    }
}

impl Gpu {
    /// Validate a launch configuration against the program and the SM
    /// resource limits; `Err` carries the specific [`LaunchProblem`].
    fn validate_launch(
        &self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<(), SimError> {
        let k = match self.program.get(kernel) {
            Some(k) => k,
            None => {
                return Err(SimError::InvalidLaunch {
                    kernel: format!("k{}", kernel.0),
                    problem: LaunchProblem::UnknownKernel,
                })
            }
        };
        let invalid = |problem| SimError::InvalidLaunch {
            kernel: k.name.clone(),
            problem,
        };
        let tpc = dims.threads_per_cta();
        if dims.num_ctas() == 0 || tpc == 0 {
            return Err(invalid(LaunchProblem::ZeroDimension));
        }
        let sm = &self.config.sm;
        if tpc > sm.max_threads {
            return Err(invalid(LaunchProblem::TooManyThreads {
                requested: tpc,
                limit: sm.max_threads,
            }));
        }
        let regs = k.regs_per_thread.saturating_mul(tpc);
        if regs > sm.registers {
            return Err(invalid(LaunchProblem::RegistersExceeded {
                requested: regs,
                limit: sm.registers,
            }));
        }
        if k.smem_per_cta > sm.smem_bytes {
            return Err(invalid(LaunchProblem::SharedMemExceeded {
                requested: k.smem_per_cta,
                limit: sm.smem_bytes,
            }));
        }
        let required = k.param_words_required();
        if params.len() < required {
            return Err(invalid(LaunchProblem::ParamCountMismatch {
                required,
                provided: params.len(),
            }));
        }
        Ok(())
    }

    /// Enqueue a grid on the default stream (serialized with prior host
    /// launches) after validating the configuration. Returns the grid
    /// handle.
    pub fn try_launch(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<u64, SimError> {
        self.try_launch_on(kernel, dims, params, LaunchOptions::default())
    }

    /// Enqueue a grid on an explicit stream, optionally with a cycle-budget
    /// deadline (see [`LaunchOptions`]). Grids on one stream serialize in
    /// FIFO order; the device arbitrates round-robin between streams, one
    /// grid at a time. A device-wide sticky fault (default-stream
    /// semantics) rejects every launch; a *stream* fault rejects only
    /// launches onto that stream until [`Gpu::reset_stream`].
    pub fn try_launch_on(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
        opts: LaunchOptions,
    ) -> Result<u64, SimError> {
        if let Some(f) = self.fault.clone() {
            return Err(f);
        }
        let stream = opts.stream.0;
        match self.streams.get(stream) {
            None => {
                return Err(SimError::InvalidLaunch {
                    kernel: self.kernel_name(kernel),
                    problem: LaunchProblem::UnknownStream {
                        requested: stream,
                        streams: self.streams.len(),
                    },
                })
            }
            Some(s) => {
                if let Some(f) = s.fault.clone() {
                    return Err(f);
                }
            }
        }
        self.validate_launch(kernel, dims, params)?;
        let program = Arc::clone(&self.program);
        let k: &Kernel = program.kernel(kernel);
        let (local_base, local_stride) =
            Self::alloc_local_arena(&mut self.mem, &mut self.free_arenas, k, dims);
        let const_data = self
            .const_bindings
            .get(&kernel.0)
            .cloned()
            .unwrap_or_else(|| Arc::new(Vec::new()));
        let handle = self.next_grid;
        self.next_grid += 1;
        self.grids.insert(
            handle,
            Grid {
                kernel,
                dims,
                params: Arc::new(params.to_vec()),
                const_data,
                local_base,
                local_stride,
                next_cta: 0,
                done_ctas: 0,
                parent: None,
                armed_at: None,
                from_host: true,
                stream,
                deadline_budget: opts.deadline,
                deadline_at: None,
                depth: 0,
                launch_cycle: self.cycle,
                start_cycle: None,
            },
        );
        self.streams[stream].queue.push_back(handle);
        self.host.kernel_launches += 1;
        if self.trace_on() {
            self.emit(TraceEventKind::KernelLaunch {
                grid: handle,
                kernel: self.kernel_name(kernel),
                ctas: dims.num_ctas(),
                threads_per_cta: dims.threads_per_cta(),
                stream,
            });
        }
        Ok(handle)
    }

    /// Enqueue a grid on the default stream. Returns the grid handle.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_launch`] would return an error (unknown
    /// kernel, invalid configuration, or a prior sticky fault).
    pub fn launch(&mut self, kernel: KernelId, dims: LaunchDims, params: &[u64]) -> u64 {
        self.try_launch(kernel, dims, params)
            .unwrap_or_else(|e| panic!("launch failed: {e}"))
    }

    /// Convenience: launch one grid and synchronize.
    pub fn try_run_kernel(
        &mut self,
        kernel: KernelId,
        dims: LaunchDims,
        params: &[u64],
    ) -> Result<u64, SimError> {
        self.try_launch(kernel, dims, params)?;
        self.try_synchronize()
    }

    /// Convenience: launch one grid and synchronize.
    ///
    /// # Panics
    ///
    /// Panics where [`Gpu::try_run_kernel`] would return an error.
    pub fn run_kernel(&mut self, kernel: KernelId, dims: LaunchDims, params: &[u64]) -> u64 {
        self.try_run_kernel(kernel, dims, params)
            .unwrap_or_else(|e| panic!("kernel failed: {e}"))
    }

    // ---- dispatch ---------------------------------------------------------

    pub(super) fn arm_and_dispatch(&mut self, lanes: &mut [SmLane]) {
        // CDP children dispatch immediately (after their overhead window).
        // The handle list is copied into reused scratch so the sweep does
        // not allocate per cycle.
        let mut handles = std::mem::take(&mut self.scratch_handles);
        handles.clear();
        handles.extend(self.device_queue.iter().copied());
        for &h in &handles {
            self.dispatch_grid(h, lanes);
        }
        self.scratch_handles = handles;
        self.device_queue.retain(|h| {
            self.grids
                .get(h)
                .map(|g| !g.fully_dispatched())
                .unwrap_or(false)
        });

        // Host grids: one grid owns the device at a time. With a single
        // stream this degenerates to the legacy behaviour (the head of the
        // default stream runs); with several, the device round-robins
        // between non-faulted streams with queued work, switching only at
        // grid boundaries. Nothing activates while a finished grid is still
        // draining (stream-isolation two-phase retirement).
        if self.active_stream.is_none() && self.draining.is_none() {
            let n = self.streams.len();
            for i in 0..n {
                let s = (self.stream_cursor + i) % n;
                if self.streams[s].fault.is_none() && !self.streams[s].queue.is_empty() {
                    self.active_stream = Some(s);
                    self.stream_cursor = (s + 1) % n;
                    break;
                }
            }
        }
        if let Some(s) = self.active_stream {
            let head = *self.streams[s].queue.front().expect("active stream head");
            let arm = {
                let g = self.grids.get_mut(&head).expect("head grid exists");
                if g.armed_at.is_none() {
                    let armed = self.cycle + self.config.kernel_launch_overhead;
                    g.armed_at = Some(armed);
                    g.deadline_at = g.deadline_budget.map(|b| armed.saturating_add(b));
                    true
                } else {
                    false
                }
            };
            if arm {
                if self.config.flush_between_kernels {
                    for lane in lanes.iter_mut() {
                        lane.core.flush_caches();
                    }
                    for l2 in &mut self.l2 {
                        l2.flush();
                    }
                }
                if self.config.stream_isolation {
                    // Canonical boundary: scheduler and dispatch cursors
                    // restart so intra-grid decisions never depend on where
                    // the previous grid left them.
                    self.dispatch_cursor = 0;
                    for lane in lanes.iter_mut() {
                        lane.core.reset_schedulers();
                    }
                }
            }
            self.dispatch_grid(head, lanes);
        }
    }

    /// The handle of the grid currently owning the device (the active
    /// stream's head), if any.
    pub(super) fn active_grid_handle(&self) -> Option<u64> {
        self.active_stream
            .and_then(|s| self.streams[s].queue.front().copied())
    }

    fn dispatch_grid(&mut self, handle: u64, lanes: &mut [SmLane]) {
        let (kernel_id, dims, params, const_data, local_base, local_stride, mut next_cta) = {
            let g = match self.grids.get(&handle) {
                Some(g) => g,
                None => return,
            };
            if g.armed_at.map(|t| self.cycle < t).unwrap_or(true) || g.fully_dispatched() {
                return;
            }
            (
                g.kernel,
                g.dims,
                Arc::clone(&g.params),
                Arc::clone(&g.const_data),
                g.local_base,
                g.local_stride,
                g.next_cta,
            )
        };
        let total = dims.num_ctas();
        let n_sms = lanes.len();
        let mut failures = 0;
        while next_cta < total && failures < n_sms {
            let sm = self.dispatch_cursor % n_sms;
            self.dispatch_cursor += 1;
            let cfg = CtaConfig {
                kernel_id,
                grid_handle: handle,
                cta_linear: next_cta,
                dims,
                params: Arc::clone(&params),
                const_data: Arc::clone(&const_data),
                local_base,
                local_stride,
            };
            if lanes[sm].core.try_launch_cta(cfg) {
                next_cta += 1;
                failures = 0;
            } else {
                failures += 1;
            }
        }
        let mut started = None;
        if let Some(g) = self.grids.get_mut(&handle) {
            g.next_cta = next_cta;
            if g.start_cycle.is_none() && next_cta > 0 {
                g.start_cycle = Some(self.cycle);
                started = Some(g.stream);
            }
        }
        if let Some(stream) = started {
            if self.trace_on() {
                self.emit(TraceEventKind::KernelStart {
                    grid: handle,
                    stream,
                });
            }
        }
    }

    /// Allocate a grid's local-memory arena, returning `(base, stride)`.
    ///
    /// The per-thread stride is rounded up to 8 bytes and the arena is sized
    /// in whole warps: the warp-interleaved layout places same-granule
    /// accesses of all 32 lanes adjacently, so an unaligned stride (or a
    /// partial final warp) would otherwise reach past the allocation and
    /// trip the architectural bounds check.
    ///
    /// Retired arenas are recycled by exact size: a steady-state serving
    /// harness allocates each launch geometry's arena once, then reuses it
    /// forever (the allocation count stays flat across shape changes). A
    /// recycled arena is zero-filled so a reused span is bit-identical to a
    /// fresh allocation — local memory is functionally uninitialized, and
    /// fresh allocations read as zero.
    fn alloc_local_arena(
        mem: &mut DeviceMemory,
        free_arenas: &mut Vec<(u64, u64)>,
        k: &Kernel,
        dims: LaunchDims,
    ) -> (u64, u64) {
        let local_stride = (k.local_bytes_per_thread as u64).next_multiple_of(8);
        if local_stride == 0 {
            return (0, 0);
        }
        let warp_slots = dims.num_ctas() * dims.warps_per_cta() as u64;
        let size = local_stride * warp_slots * ggpu_isa::WARP_SIZE as u64;
        if let Some(i) = free_arenas.iter().position(|&(s, _)| s == size) {
            let (_, base) = free_arenas.swap_remove(i);
            mem.write_slice(crate::memory::DevicePtr(base), &vec![0u8; size as usize]);
            return (base, local_stride);
        }
        (mem.alloc(size).0, local_stride)
    }

    // ---- CDP runtime ------------------------------------------------------

    /// Process a device-side launch emitted by SM `parent_sm` during the
    /// current cycle's SM phase (runs in the post-phase merge, so children
    /// enqueue in deterministic SM-index order).
    pub(super) fn spawn_child(
        &mut self,
        parent_sm: usize,
        l: ggpu_sm::DeviceLaunch,
        mem: &mut DeviceMemory,
    ) {
        if self.fault.is_some() || self.pending_fault.is_some() {
            return;
        }
        let parent = self.grids.get(&l.parent_grid);
        let stream = parent.map(|g| g.stream).unwrap_or(0);
        let depth = parent.map(|g| g.depth).unwrap_or(0) + 1;
        let forced_full = self
            .config
            .fault_plan
            .cdp_full_at
            .is_some_and(|c| self.cycle >= c);
        let queue_full = forced_full || self.device_queue.len() >= self.config.cdp_queue_limit;
        let too_deep = depth > self.config.cdp_max_depth;
        if queue_full || too_deep {
            let kind = if queue_full {
                FaultKind::CdpQueueOverflow
            } else {
                FaultKind::CdpNestingExceeded
            };
            let kernel = parent
                .map(|g| g.kernel)
                .and_then(|k| self.program.get(k))
                .map(|k| k.name.clone())
                .unwrap_or_else(|| "?".to_string());
            self.pending_fault = Some(SimError::DeviceFault(Box::new(DeviceFault {
                kind,
                kernel: kernel.clone(),
                stream,
                sm: parent_sm,
                cta: None,
                warp: None,
                warp_in_cta: None,
                lane_mask: None,
                pc: None,
                instr: format!("launch k{} grid {} block {}", l.kernel, l.grid_x, l.block_x),
                addr: None,
                cycle: self.cycle,
            })));
            if self.trace_on() {
                self.emit(TraceEventKind::Fault {
                    kind,
                    kernel,
                    stream,
                });
            }
            return;
        }
        let kernel = KernelId(l.kernel);
        let program = Arc::clone(&self.program);
        let k = match program.get(kernel) {
            Some(k) => k,
            None => return,
        };
        let dims = LaunchDims::linear(l.grid_x, l.block_x);
        let (local_base, local_stride) =
            Self::alloc_local_arena(mem, &mut self.free_arenas, k, dims);
        let const_data = self
            .const_bindings
            .get(&l.kernel)
            .cloned()
            .unwrap_or_else(|| Arc::new(Vec::new()));
        let handle = self.next_grid;
        self.next_grid += 1;
        self.grids.insert(
            handle,
            Grid {
                kernel,
                dims,
                params: Arc::new(l.params),
                const_data,
                local_base,
                local_stride,
                next_cta: 0,
                done_ctas: 0,
                parent: Some((parent_sm, l.parent_slot, l.parent_grid)),
                armed_at: Some(self.cycle + self.config.cdp_launch_overhead),
                from_host: false,
                stream,
                deadline_budget: None,
                deadline_at: None,
                depth,
                launch_cycle: self.cycle,
                start_cycle: None,
            },
        );
        self.device_queue.push_back(handle);
        if self.trace_on() {
            self.emit(TraceEventKind::CdpEnqueue {
                grid: handle,
                kernel: self.kernel_name(kernel),
                parent: l.parent_grid,
                depth,
                ctas: dims.num_ctas(),
                threads_per_cta: dims.threads_per_cta(),
                stream,
            });
        }
    }

    // ---- retirement -------------------------------------------------------

    pub(super) fn grid_done(&mut self, handle: u64, lanes: &mut [SmLane]) {
        let grid = match self.grids.remove(&handle) {
            Some(g) => g,
            None => return,
        };
        if grid.local_stride != 0 {
            // Return the retired grid's local arena to the exact-size free
            // list so the next launch with the same geometry reuses it.
            let warp_slots = grid.dims.num_ctas() * grid.dims.warps_per_cta() as u64;
            let size = grid.local_stride * warp_slots * ggpu_isa::WARP_SIZE as u64;
            self.free_arenas.push((size, grid.local_base));
        }
        if self.profiling_enabled() {
            // Per-kernel counter scoping by retire interval: this record's
            // delta covers everything since the previous retire boundary, so
            // record deltas telescope to the run totals.
            let snap = self.stats_over(cores(lanes));
            let delta = snap.delta_since(&self.record_base);
            self.record_base = snap;
            self.records.push(KernelRecord {
                grid: handle,
                kernel: self.kernel_name(grid.kernel),
                kernel_id: grid.kernel.0,
                ctas: grid.dims.num_ctas(),
                threads_per_cta: grid.dims.threads_per_cta(),
                parent: grid.parent.map(|(_, _, p)| p),
                depth: grid.depth,
                stream: grid.stream,
                launch_cycle: grid.launch_cycle,
                start_cycle: grid.start_cycle.unwrap_or(grid.launch_cycle),
                retire_cycle: self.cycle,
                stats: delta,
            });
        }
        if self.trace_on() {
            self.emit(TraceEventKind::KernelRetire {
                grid: handle,
                stream: grid.stream,
            });
        }
        if let Some((sm, slot, parent_handle)) = grid.parent {
            lanes[sm].core.child_grid_done(slot, Some(parent_handle));
            if self.trace_on() {
                self.emit(TraceEventKind::CdpDrain {
                    parent: parent_handle,
                    child: handle,
                });
            }
        }
        if grid.from_host {
            let s = grid.stream;
            debug_assert_eq!(self.streams[s].queue.front(), Some(&handle));
            self.streams[s].queue.pop_front();
            debug_assert_eq!(self.active_stream, Some(s));
            self.active_stream = None;
        }
    }
}
