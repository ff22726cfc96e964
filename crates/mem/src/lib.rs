//! # ggpu-mem — cache hierarchy and DRAM models
//!
//! Timing models for the Genomics-GPU simulator's memory system:
//!
//! * [`Cache`] — a set-associative, LRU cache with MSHRs, used for the
//!   per-SM L1 data cache, the constant cache, the texture cache, and the
//!   per-partition L2 slices. Configurations mirror Table I of the paper
//!   (e.g. `128KB, 256-way, 128B lines` for L1).
//! * [`Dram`] — a multi-bank DRAM channel with open-row tracking and three
//!   schedulers ([`DramScheduler::FrFcfs`], [`DramScheduler::Fifo`],
//!   [`DramScheduler::OoO`]) matching the paper's Figure 16 sweep, plus the
//!   efficiency/utilization counters behind Figures 17 and 18.
//!
//! These models are *timing only*: functional data lives in the simulator's
//! flat memory image. A cache tracks tags, an MSHR merges outstanding
//! misses, and DRAM returns completion timestamps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod cache;
mod dram;

pub use cache::{Cache, CacheConfig, CacheOutcome, CacheStats, WritePolicy};
pub use dram::{Dram, DramConfig, DramScheduler, DramStats};

/// Line size shared by every cache level, per Table I (128-byte lines).
pub const LINE_BYTES: u64 = 128;

/// Memory-transaction granularity of coalesced accesses (one 32-byte
/// sector), matching NVIDIA's 32B sectors.
pub const SECTOR_BYTES: u64 = 32;
