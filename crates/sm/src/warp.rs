//! Warp execution context: SIMT reconvergence stack, per-lane registers,
//! and scoreboard timing state.

use ggpu_isa::{Reg, WARP_SIZE};

/// Full warp mask (all 32 lanes active).
pub const FULL_MASK: u32 = u32::MAX;

/// Sentinel reconvergence PC for the base SIMT entry (never popped).
pub const NO_RECONV: usize = usize::MAX;

/// One entry of the SIMT reconvergence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtEntry {
    /// Next PC for this execution path.
    pub pc: usize,
    /// Reconvergence PC (immediate post-dominator); the entry pops when
    /// `pc == rpc`.
    pub rpc: usize,
    /// Active lanes on this path.
    pub mask: u32,
}

/// What a warp is parked on, if anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpBlock {
    /// Runnable.
    None,
    /// Waiting at a CTA barrier.
    Barrier,
    /// Waiting for child kernels (`cudaDeviceSynchronize`).
    Dsync,
    /// Raised a guest fault; permanently parked until the device resets.
    Trapped,
}

/// Why a warp most recently could not issue (for stall classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Ready to issue.
    Ready,
    /// Waiting on an outstanding memory load.
    Memory,
    /// In a post-branch control-hazard window.
    Control,
    /// Waiting on an ALU result.
    Data,
    /// Parked at a barrier or device sync.
    Sync,
}

/// A warp's architectural and micro-architectural state.
#[derive(Debug, Clone)]
pub struct Warp {
    /// SIMT stack; the top entry is the executing path.
    pub stack: Vec<SimtEntry>,
    /// Per-lane registers, laid out `reg * 32 + lane`.
    pub regs: Vec<u64>,
    /// Cycle at which each register's value is available (RAW timing).
    pub reg_ready: Vec<u64>,
    /// Outstanding memory fills targeting each register.
    pub reg_pending: Vec<u16>,
    /// Earliest cycle this warp may issue again.
    pub next_issue_at: u64,
    /// Whether the post-issue window is a control hazard (vs data).
    pub issue_block_is_control: bool,
    /// Barrier / device-sync parking.
    pub block: WarpBlock,
    /// Warp has executed `Exit`.
    pub done: bool,
    /// Index of the owning CTA slot on the SM.
    pub cta_slot: usize,
    /// Warp index within its CTA.
    pub warp_in_cta: u32,
    /// Monotonic age for GTO/OLD scheduling (smaller = older).
    pub age: u64,
}

impl Warp {
    /// Create a warp starting at PC 0 with `active` initial lanes.
    pub fn new(
        regs_per_thread: u32,
        active: u32,
        cta_slot: usize,
        warp_in_cta: u32,
        age: u64,
    ) -> Self {
        let n = regs_per_thread.max(1) as usize;
        Warp {
            stack: vec![SimtEntry {
                pc: 0,
                rpc: NO_RECONV,
                mask: active,
            }],
            regs: vec![0; n * WARP_SIZE],
            reg_ready: vec![0; n],
            reg_pending: vec![0; n],
            next_issue_at: 0,
            issue_block_is_control: false,
            block: WarpBlock::None,
            done: false,
            cta_slot,
            warp_in_cta,
            age,
        }
    }

    /// Pop reconverged SIMT entries, returning the current entry. `None`
    /// when the stack would underflow (warp must be `done`).
    pub fn reconverge(&mut self) -> Option<SimtEntry> {
        while let Some(top) = self.stack.last() {
            if top.pc == top.rpc {
                self.stack.pop();
            } else {
                return Some(*top);
            }
        }
        None
    }

    /// Active mask of the current path (0 when done/underflowed).
    pub fn active_mask(&mut self) -> u32 {
        self.reconverge().map(|e| e.mask).unwrap_or(0)
    }

    /// Read register `r` in `lane`.
    #[inline]
    pub fn read(&self, r: Reg, lane: usize) -> u64 {
        self.regs[r.0 as usize * WARP_SIZE + lane]
    }

    /// Write register `r` in `lane`.
    #[inline]
    pub fn write(&mut self, r: Reg, lane: usize, v: u64) {
        self.regs[r.0 as usize * WARP_SIZE + lane] = v;
    }

    /// Advance the current path's PC by one instruction.
    pub fn advance_pc(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            top.pc += 1;
        }
    }

    /// Apply a (possibly divergent) branch outcome.
    ///
    /// `taken` is the set of active lanes taking the branch; the current
    /// entry's mask minus `taken` falls through. On divergence the current
    /// entry becomes the reconvergence continuation and both paths are
    /// pushed (taken executes first).
    pub fn branch(&mut self, taken: u32, target: usize, fallthrough: usize, reconv: usize) {
        let top = self.stack.last_mut().expect("branch on empty SIMT stack");
        let mask = top.mask;
        let taken = taken & mask;
        let not_taken = mask & !taken;
        if taken == 0 {
            top.pc = fallthrough;
        } else if not_taken == 0 {
            top.pc = target;
        } else {
            top.pc = reconv;
            self.stack.push(SimtEntry {
                pc: fallthrough,
                rpc: reconv,
                mask: not_taken,
            });
            self.stack.push(SimtEntry {
                pc: target,
                rpc: reconv,
                mask: taken,
            });
        }
    }

    /// Whether register timing permits reading `r` at `now`.
    #[inline]
    pub fn reg_ok(&self, r: Reg, now: u64) -> bool {
        let i = r.0 as usize;
        self.reg_pending[i] == 0 && self.reg_ready[i] <= now
    }

    /// Classify readiness at `now` given the instruction's registers.
    pub fn wait_kind(&self, srcs: &[Option<Reg>; 3], dst: Option<Reg>, now: u64) -> WaitKind {
        if self.block != WarpBlock::None {
            return WaitKind::Sync;
        }
        if self.next_issue_at > now {
            return if self.issue_block_is_control {
                WaitKind::Control
            } else {
                WaitKind::Data
            };
        }
        let mut data = false;
        for r in srcs.iter().flatten().copied().chain(dst) {
            let i = r.0 as usize;
            if self.reg_pending[i] > 0 {
                return WaitKind::Memory;
            }
            if self.reg_ready[i] > now {
                data = true;
            }
        }
        if data {
            WaitKind::Data
        } else {
            WaitKind::Ready
        }
    }
}

/// Build a mask with the lowest `n` lanes set.
pub fn lane_mask(n: u32) -> u32 {
    if n >= WARP_SIZE as u32 {
        FULL_MASK
    } else {
        (1u32 << n) - 1
    }
}

/// Iterate over set lanes of a mask, in ascending order.
///
/// Walks the set bits directly, so the cost is one step per active lane
/// rather than one per warp slot.
#[inline]
pub fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// The original filter-based [`lanes`], kept as the oracle for the
/// set-bit walk.
#[cfg(test)]
pub(crate) fn lanes_oracle(mask: u32) -> impl Iterator<Item = usize> {
    (0..WARP_SIZE).filter(move |l| mask & (1 << l) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(32), FULL_MASK);
        assert_eq!(lane_mask(5), 0b11111);
    }

    #[test]
    fn register_read_write_per_lane() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        w.write(Reg(2), 7, 42);
        assert_eq!(w.read(Reg(2), 7), 42);
        assert_eq!(w.read(Reg(2), 6), 0);
    }

    #[test]
    fn uniform_branch_no_divergence() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(FULL_MASK, 10, 1, 20);
        assert_eq!(w.stack.len(), 1);
        assert_eq!(w.reconverge().unwrap().pc, 10);

        let mut w2 = Warp::new(1, FULL_MASK, 0, 0, 0);
        w2.branch(0, 10, 1, 20);
        assert_eq!(w2.reconverge().unwrap().pc, 1);
    }

    #[test]
    fn divergent_branch_pushes_both_paths_taken_first() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFFFF, 10, 1, 20);
        assert_eq!(w.stack.len(), 3);
        let top = w.reconverge().unwrap();
        assert_eq!(top.pc, 10);
        assert_eq!(top.mask, 0xFFFF);
        assert_eq!(top.rpc, 20);
        // The continuation entry waits at the reconvergence point.
        assert_eq!(w.stack[0].pc, 20);
        assert_eq!(w.stack[0].mask, FULL_MASK);
    }

    #[test]
    fn reconvergence_pops_and_restores_full_mask() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFF, 10, 1, 20);
        // Taken path runs to the reconvergence point.
        w.stack.last_mut().unwrap().pc = 20;
        let e = w.reconverge().unwrap();
        assert_eq!(e.pc, 1, "fallthrough path executes next");
        assert_eq!(e.mask, FULL_MASK & !0xFF);
        // Fallthrough path reaches reconvergence too.
        w.stack.last_mut().unwrap().pc = 20;
        let e = w.reconverge().unwrap();
        assert_eq!(e.pc, 20);
        assert_eq!(e.mask, FULL_MASK, "full mask restored after reconvergence");
    }

    #[test]
    fn nested_divergence() {
        let mut w = Warp::new(1, FULL_MASK, 0, 0, 0);
        w.branch(0xFFFF, 10, 1, 100); // outer
        w.branch(0xF, 30, 11, 50); // inner, within taken path
        let top = w.reconverge().unwrap();
        assert_eq!(top.pc, 30);
        assert_eq!(top.mask, 0xF);
        assert_eq!(top.rpc, 50);
        assert_eq!(w.stack.len(), 5);
    }

    #[test]
    fn wait_kinds() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        let srcs = [Some(Reg(1)), None, None];
        assert_eq!(w.wait_kind(&srcs, Some(Reg(0)), 10), WaitKind::Ready);

        w.reg_pending[1] = 1;
        assert_eq!(w.wait_kind(&srcs, Some(Reg(0)), 10), WaitKind::Memory);
        w.reg_pending[1] = 0;

        w.reg_ready[1] = 20;
        assert_eq!(w.wait_kind(&srcs, Some(Reg(0)), 10), WaitKind::Data);
        assert_eq!(w.wait_kind(&srcs, Some(Reg(0)), 20), WaitKind::Ready);

        w.next_issue_at = 30;
        w.issue_block_is_control = true;
        assert_eq!(w.wait_kind(&srcs, None, 25), WaitKind::Control);

        w.block = WarpBlock::Barrier;
        assert_eq!(w.wait_kind(&srcs, None, 25), WaitKind::Sync);
    }

    #[test]
    fn pending_dst_blocks_as_memory() {
        let mut w = Warp::new(4, FULL_MASK, 0, 0, 0);
        w.reg_pending[0] = 2;
        assert_eq!(
            w.wait_kind(&[None, None, None], Some(Reg(0)), 0),
            WaitKind::Memory
        );
    }

    #[test]
    fn lanes_iterator() {
        assert_eq!(lanes(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(lanes(0).count(), 0);
        assert_eq!(lanes(FULL_MASK).count(), 32);
    }

    #[test]
    fn lanes_matches_oracle_on_random_masks() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let edges = [0, 1, 1 << 31, 0x8000_0001, 0x5555_5555, FULL_MASK];
        let random = (0..10_000).map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        });
        for mask in edges.into_iter().chain(random) {
            assert_eq!(
                lanes(mask).collect::<Vec<_>>(),
                lanes_oracle(mask).collect::<Vec<_>>(),
                "mask {mask:#x}"
            );
        }
    }
}
