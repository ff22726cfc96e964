//! The SM-sharded multi-threaded executor behind
//! [`crate::GpuConfig::sim_threads`], plus the lane/shard plumbing shared
//! with the single-threaded path.
//!
//! # Why this is deterministic
//!
//! Only the SM phase of a cycle runs concurrently, and during it every lane
//! touches exclusively its own core and ports while reading device memory
//! through an immutable snapshot (stores and global atomics are deferred to
//! per-SM [`ggpu_sm::MemOp`] logs). The serial pre/post phases — which do
//! all the cross-SM merging — always run on one thread, in SM-index order.
//! Scheduling can therefore change *when* a lane computes its output, never
//! *what* the output is or the order it is merged in, so every counter,
//! profile, and trace is bit-identical for any thread count.
//!
//! # Shape
//!
//! `synchronize` with `sim_threads = N > 1` splits the lanes into N
//! contiguous shards. Worker threads (spawned once per `synchronize`, not
//! per cycle) own shards `1..N`; the main thread runs the serial sections
//! and ticks shard 0 itself. Two barriers fence each **epoch** — one
//! active cycle plus the dead span fast-forwarded behind it (see
//! [`super::fastforward`]), which the main thread retires inside the
//! post-phase while the workers are parked:
//!
//! ```text
//! main:    [busy? pre-phase]  A  [tick shard 0]  B  [post-phase, checks,
//!                                                    fast-forward span]
//! worker:                     A  [tick shard i]  B
//! ```
//!
//! Shards live in `Mutex`es and memory in an `RwLock` purely to satisfy the
//! compiler's aliasing rules; the barriers already order every access, so
//! no lock is ever contended.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock};

use ggpu_sm::{SmCore, SmPorts};

use crate::error::SimError;
use crate::memory::DeviceMemory;

use super::Gpu;

/// One SM "lane": the core plus the port pair all its traffic crosses.
#[derive(Debug)]
pub(super) struct SmLane {
    pub(super) core: SmCore,
    pub(super) ports: SmPorts,
}

/// Uniform indexed access over lane storage, whether the lanes sit in one
/// contiguous vector (serial path) or are split across locked shards
/// (parallel path). Global SM index `i` maps to `shards[i / chunk][i %
/// chunk]`, which is exact because every shard except the last holds
/// exactly `chunk` lanes.
pub(super) struct LaneSet<'a> {
    shards: Vec<&'a mut [SmLane]>,
    chunk: usize,
}

impl<'a> LaneSet<'a> {
    /// The serial case: all lanes in one slice.
    pub(super) fn single(lanes: &'a mut [SmLane]) -> Self {
        let chunk = lanes.len().max(1);
        LaneSet {
            shards: vec![lanes],
            chunk,
        }
    }

    /// The parallel case: one slice per locked shard, each of `chunk` lanes
    /// (except possibly the last).
    fn from_guards<'g>(guards: &'a mut [MutexGuard<'g, Vec<SmLane>>], chunk: usize) -> Self {
        LaneSet {
            shards: guards.iter_mut().map(|g| g.as_mut_slice()).collect(),
            chunk,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// The lane at global SM index `i`.
    #[inline]
    pub(super) fn get_mut(&mut self, i: usize) -> &mut SmLane {
        if self.shards.len() == 1 {
            &mut self.shards[0][i]
        } else {
            &mut self.shards[i / self.chunk][i % self.chunk]
        }
    }

    /// All SM cores in SM-index order.
    pub(super) fn cores(&self) -> impl Iterator<Item = &SmCore> {
        self.shards.iter().flat_map(|s| s.iter()).map(|l| &l.core)
    }

    /// All lanes in SM-index order.
    pub(super) fn iter_mut(&mut self) -> impl Iterator<Item = &mut SmLane> + use<'_, 'a> {
        self.shards.iter_mut().flat_map(|s| s.iter_mut())
    }
}

/// Sense-reversing barrier. Spins briefly then yields, so it stays correct
/// and cheap even when the host has fewer cores than participants.
struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
    /// Spin briefly before yielding only when the host actually has a core
    /// per participant; on an oversubscribed host spinning just burns the
    /// quantum the other threads need.
    spin: bool,
}

impl SpinBarrier {
    fn new(total: usize) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
            spin: cores >= total,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if self.spin && spins < 100 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Per-cycle values the serial pre-phase publishes to the workers.
struct CycleCtrl {
    now: AtomicU64,
    device_busy: AtomicBool,
    stop: AtomicBool,
}

impl Gpu {
    /// The multi-threaded `synchronize` loop: same phase composition as
    /// [`Gpu::sync_serial`], with the SM phase fanned out across shards.
    pub(super) fn sync_parallel(
        &mut self,
        start: u64,
        threads: usize,
        lanes: &mut Vec<SmLane>,
        mem: &mut DeviceMemory,
    ) -> Result<(), SimError> {
        let n = lanes.len();
        let chunk = n.div_ceil(threads);
        let mut shards: Vec<Mutex<Vec<SmLane>>> = Vec::with_capacity(threads);
        {
            let mut drain = lanes.drain(..);
            loop {
                let shard: Vec<SmLane> = drain.by_ref().take(chunk).collect();
                if shard.is_empty() {
                    break;
                }
                shards.push(Mutex::new(shard));
            }
        }
        let barrier = SpinBarrier::new(shards.len());
        let ctrl = CycleCtrl {
            now: AtomicU64::new(0),
            device_busy: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        };
        let mem_lock = RwLock::new(std::mem::take(mem));

        let mut result: Result<(), SimError> = Ok(());
        std::thread::scope(|scope| {
            for shard in &shards[1..] {
                let barrier = &barrier;
                let ctrl = &ctrl;
                let mem_lock = &mem_lock;
                scope.spawn(move || worker_loop(shard, barrier, ctrl, mem_lock));
            }
            loop {
                // Serial pre-phase under all locks (uncontended: the
                // workers are parked at barrier A).
                {
                    let mut guards: Vec<MutexGuard<'_, Vec<SmLane>>> = shards
                        .iter()
                        .map(|s| s.lock().expect("shard lock poisoned"))
                        .collect();
                    let mut ls = LaneSet::from_guards(&mut guards, chunk);
                    if !self.busy_with(&ls) {
                        ctrl.stop.store(true, Ordering::Release);
                    } else {
                        let (now, device_busy) = self.cycle_pre(&mut ls);
                        ctrl.now.store(now, Ordering::Release);
                        ctrl.device_busy.store(device_busy, Ordering::Release);
                    }
                }
                barrier.wait(); // A: shards released to their owners.
                if ctrl.stop.load(Ordering::Acquire) {
                    break;
                }
                // SM phase: this thread owns shard 0.
                {
                    let mut shard = shards[0].lock().expect("shard lock poisoned");
                    let gmem = mem_lock.read().expect("memory lock poisoned");
                    let now = ctrl.now.load(Ordering::Acquire);
                    let device_busy = ctrl.device_busy.load(Ordering::Acquire);
                    for lane in shard.iter_mut() {
                        lane.core.tick(now, &*gmem, device_busy, &mut lane.ports);
                    }
                }
                barrier.wait(); // B: every shard has ticked.
                                // Serial post-phase under all locks again.
                let stop = {
                    let mut guards: Vec<MutexGuard<'_, Vec<SmLane>>> = shards
                        .iter()
                        .map(|s| s.lock().expect("shard lock poisoned"))
                        .collect();
                    let mut ls = LaneSet::from_guards(&mut guards, chunk);
                    let mut gmem = mem_lock.write().expect("memory lock poisoned");
                    let now = self.cycle;
                    self.cycle_post(&mut ls, &mut gmem, now);
                    match self.sync_check(start, &mut ls) {
                        Some(outcome) => {
                            result = outcome;
                            true
                        }
                        None => {
                            // Epoch batching: fast-forward the dead span
                            // behind this cycle here, on the serial thread,
                            // while the workers are parked at barrier A —
                            // the next barrier pair then fences a whole
                            // epoch (one active cycle plus its dead span)
                            // instead of a single cycle.
                            if self.config.fast_forward {
                                self.try_fast_forward(&mut ls, start);
                            }
                            false
                        }
                    }
                };
                if stop {
                    ctrl.stop.store(true, Ordering::Release);
                    barrier.wait(); // The workers' next A; they exit.
                    break;
                }
            }
        });

        for shard in shards {
            lanes.append(&mut shard.into_inner().expect("shard lock poisoned"));
        }
        *mem = mem_lock.into_inner().expect("memory lock poisoned");
        result
    }
}

/// Body of one worker thread: tick the owned shard between the barriers,
/// every cycle, until the main thread raises `stop`.
fn worker_loop(
    shard: &Mutex<Vec<SmLane>>,
    barrier: &SpinBarrier,
    ctrl: &CycleCtrl,
    mem_lock: &RwLock<DeviceMemory>,
) {
    loop {
        barrier.wait(); // A
        if ctrl.stop.load(Ordering::Acquire) {
            return;
        }
        {
            let mut shard = shard.lock().expect("shard lock poisoned");
            let gmem = mem_lock.read().expect("memory lock poisoned");
            let now = ctrl.now.load(Ordering::Acquire);
            let device_busy = ctrl.device_busy.load(Ordering::Acquire);
            for lane in shard.iter_mut() {
                lane.core.tick(now, &*gmem, device_busy, &mut lane.ports);
            }
        }
        barrier.wait(); // B
    }
}
