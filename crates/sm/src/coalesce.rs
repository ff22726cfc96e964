//! Memory-access coalescing and shared-memory bank-conflict analysis.

use ggpu_isa::WARP_SIZE;
use ggpu_mem::LINE_BYTES;

use crate::warp::lanes;

/// Number of shared-memory banks (4-byte interleave), as on real SMs.
pub const SMEM_BANKS: usize = 32;

/// Coalesce the active lanes' byte addresses into the set of distinct
/// 128-byte line transactions they touch, written into `out` (deduplicated,
/// order of first touch).
///
/// A fully coalesced warp access (32 consecutive 4-byte words) produces one
/// transaction; a strided access can produce up to 32.
pub fn coalesce_lines(addrs: &[u64; WARP_SIZE], mask: u32, width: u64, out: &mut Vec<u64>) {
    out.clear();
    for lane in lanes(mask) {
        let first = addrs[lane] / LINE_BYTES;
        let last = (addrs[lane] + width - 1) / LINE_BYTES;
        for line in first..=last {
            if !out.contains(&line) {
                out.push(line);
            }
        }
    }
}

/// Shared-memory bank-conflict degree: the maximum number of *distinct*
/// words that map to the same bank across the active lanes. Lanes reading
/// the same word broadcast (no conflict). The access serializes over
/// `degree` cycles; a conflict-free access has degree 1.
///
/// Allocation-free: the active lanes' words are sorted on the stack so
/// duplicates (broadcasts) sit next to each other, then each distinct word
/// is counted once against its bank.
pub fn bank_conflict_degree(addrs: &[u64; WARP_SIZE], mask: u32) -> u32 {
    let mut words = [0u64; WARP_SIZE];
    let mut n = 0;
    for lane in lanes(mask) {
        words[n] = addrs[lane] / 4;
        n += 1;
    }
    let words = &mut words[..n];
    words.sort_unstable();
    let mut per_bank = [0u32; SMEM_BANKS];
    let mut degree = 1;
    for (i, &word) in words.iter().enumerate() {
        if i > 0 && words[i - 1] == word {
            continue;
        }
        let count = &mut per_bank[(word % SMEM_BANKS as u64) as usize];
        *count += 1;
        degree = degree.max(*count);
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{lanes_oracle, FULL_MASK};

    /// The original allocating formulation, kept as the oracle for the
    /// stack-only [`bank_conflict_degree`].
    fn bank_conflict_degree_oracle(addrs: &[u64; WARP_SIZE], mask: u32) -> u32 {
        let mut per_bank: [Vec<u64>; SMEM_BANKS] = Default::default();
        for lane in lanes_oracle(mask) {
            let word = addrs[lane] / 4;
            let bank = (word % SMEM_BANKS as u64) as usize;
            if !per_bank[bank].contains(&word) {
                per_bank[bank].push(word);
            }
        }
        per_bank
            .iter()
            .map(|v| v.len() as u32)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// SplitMix64: a seeded, dependency-free source of test inputs.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random lane addresses drawn from a handful of shapes: small word
    /// indices (frequent broadcasts and conflicts), a power-of-two stride,
    /// a base straddling a 128-byte line, and full-range values.
    fn random_addrs(state: &mut u64) -> [u64; WARP_SIZE] {
        let shape = splitmix(state) % 4;
        let base = splitmix(state) % 4096;
        let stride = 1u64 << (splitmix(state) % 8);
        let mut a = [0u64; WARP_SIZE];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = match shape {
                0 => (splitmix(state) % 64) * 4,
                1 => base * 4 + i as u64 * stride * 4,
                2 => 124 + i as u64 * 4 + (splitmix(state) % 3) * 128,
                _ => splitmix(state),
            };
        }
        a
    }

    #[test]
    fn bank_conflict_degree_matches_oracle_on_random_inputs() {
        let mut state = 0x5eed_u64;
        for _ in 0..20_000 {
            let addrs = random_addrs(&mut state);
            let mask = match splitmix(&mut state) % 4 {
                0 => FULL_MASK,
                1 => 0,
                _ => splitmix(&mut state) as u32,
            };
            assert_eq!(
                bank_conflict_degree(&addrs, mask),
                bank_conflict_degree_oracle(&addrs, mask),
                "addrs {addrs:?} mask {mask:#x}"
            );
        }
    }

    #[test]
    fn bank_conflict_degree_matches_oracle_on_edge_cases() {
        let broadcast = [64u64; WARP_SIZE];
        let one_bank = seq_addrs(0, 128);
        let straddle = seq_addrs(124, 4);
        let pairs = seq_addrs(0, 8);
        for addrs in [broadcast, one_bank, straddle, pairs] {
            for mask in [0, 1, 0b11, 0x8000_0001, 0xffff, FULL_MASK] {
                assert_eq!(
                    bank_conflict_degree(&addrs, mask),
                    bank_conflict_degree_oracle(&addrs, mask),
                    "addrs {addrs:?} mask {mask:#x}"
                );
            }
        }
    }

    fn seq_addrs(base: u64, stride: u64) -> [u64; WARP_SIZE] {
        let mut a = [0; WARP_SIZE];
        for (i, slot) in a.iter_mut().enumerate() {
            *slot = base + i as u64 * stride;
        }
        a
    }

    #[test]
    fn fully_coalesced_is_one_line() {
        let addrs = seq_addrs(0, 4);
        let mut out = Vec::new();
        coalesce_lines(&addrs, FULL_MASK, 4, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn stride_128_is_32_lines() {
        let addrs = seq_addrs(0, 128);
        let mut out = Vec::new();
        coalesce_lines(&addrs, FULL_MASK, 4, &mut out);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn inactive_lanes_ignored() {
        let addrs = seq_addrs(0, 128);
        let mut out = Vec::new();
        coalesce_lines(&addrs, 0b11, 4, &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut addrs = [0u64; WARP_SIZE];
        addrs[0] = 124; // 8-byte access crosses the 128B boundary
        let mut out = Vec::new();
        coalesce_lines(&addrs, 0b1, 8, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn conflict_free_unit_stride() {
        let addrs = seq_addrs(0, 4);
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 1);
    }

    #[test]
    fn broadcast_is_conflict_free() {
        let addrs = [64u64; WARP_SIZE];
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 1);
    }

    #[test]
    fn stride_two_words_gives_two_way_conflict() {
        let addrs = seq_addrs(0, 8); // every other bank, two words per bank
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 2);
    }

    #[test]
    fn stride_32_words_is_fully_serialized() {
        let addrs = seq_addrs(0, 128); // all lanes hit bank 0
        assert_eq!(bank_conflict_degree(&addrs, FULL_MASK), 32);
    }

    #[test]
    fn empty_mask_degree_one() {
        let addrs = seq_addrs(0, 4);
        assert_eq!(bank_conflict_degree(&addrs, 0), 1);
    }
}
