//! Simulated-statistics fingerprints and the committed reference table.
//!
//! A fingerprint is FNV-1a over the `Debug` rendering of the simulated
//! counters. Host-side engine facts (fast-forward skipped cycles, resolved
//! thread count) live outside `RunStats` and are not hashed, so a change
//! that only makes the simulator faster must leave every fingerprint
//! unchanged.

use std::collections::BTreeMap;

use ggpu_sim::{NodeStats, RunStats};

/// The reference table committed next to the benchmark.
const COMMITTED: &str = include_str!("../fingerprints.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fingerprint of one suite cell's counters.
pub fn of_run_stats(stats: &RunStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Fingerprint of a serving session: every device's counters, the fabric
/// counters, and each job's end-to-end latency in job order.
pub fn of_serve(node: &NodeStats, e2e_by_job: &[u64]) -> u64 {
    fnv1a(format!("{node:?}|{e2e_by_job:?}").as_bytes())
}

/// Outcome of checking one fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal to the reference.
    Match,
    /// The table holds no entry for this key.
    NoReference,
    /// Differs from the reference.
    Mismatch {
        /// The committed value.
        expected: u64,
    },
}

/// Reference fingerprints keyed by `(workload, key)`.
///
/// The text format is one entry per line, `workload key hex`, with `#`
/// comments. Suite keys are cell names (`SW`, `SW+cdp`); serve keys are
/// `seed=<n>`, since the job mix depends on the seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References(BTreeMap<(String, String), u64>);

impl References {
    /// Parse the text format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let parts: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, hex] = parts[..] else {
                return Err(format!("line {}: expected `workload key hex`", n + 1));
            };
            let v = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("line {}: bad fingerprint `{hex}`: {e}", n + 1))?;
            map.insert((workload.to_string(), key.to_string()), v);
        }
        Ok(References(map))
    }

    /// The committed table.
    ///
    /// # Panics
    ///
    /// Panics if the committed file does not parse, which a test prevents.
    pub fn committed() -> Self {
        Self::parse(COMMITTED).expect("fingerprints.txt parses")
    }

    /// Compare `value` with the reference for `(workload, key)`.
    pub fn check(&self, workload: &str, key: &str, value: u64) -> Verdict {
        match self.0.get(&(workload.to_string(), key.to_string())) {
            None => Verdict::NoReference,
            Some(&v) if v == value => Verdict::Match,
            Some(&v) => Verdict::Mismatch { expected: v },
        }
    }

    /// Set (or replace) an entry.
    pub fn insert(&mut self, workload: &str, key: &str, value: u64) {
        self.0
            .insert((workload.to_string(), key.to_string()), value);
    }

    /// Render in the text format, sorted by workload and key.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Simulated-statistics fingerprints: workload key fnv1a64.\n\
             # Regenerate with `--write-reference` only for a change that is\n\
             # meant to alter the modelled machine.\n",
        );
        for ((w, k), v) in &self.0 {
            out.push_str(&format!("{w} {k} {v:016x}\n"));
        }
        out
    }
}

/// Fingerprints seen during one run: the first value for a key is checked
/// against the references, later ones must repeat it.
#[derive(Debug, Default)]
pub struct Ledger {
    seen: BTreeMap<String, u64>,
    /// Keys the reference table had no entry for.
    pub unreferenced: Vec<String>,
}

impl Ledger {
    /// Record `value` for `key`; returns a description of the disagreement
    /// when it differs from an earlier repetition or from the reference.
    pub fn record(
        &mut self,
        refs: &References,
        workload: &str,
        key: &str,
        value: u64,
    ) -> Result<(), String> {
        if let Some(&first) = self.seen.get(key) {
            return if first == value {
                Ok(())
            } else {
                Err(format!(
                    "{workload} {key}: fingerprint {value:016x} differs from this run's earlier {first:016x}"
                ))
            };
        }
        self.seen.insert(key.to_string(), value);
        match refs.check(workload, key, value) {
            Verdict::Match => Ok(()),
            Verdict::NoReference => {
                self.unreferenced.push(key.to_string());
                Ok(())
            }
            Verdict::Mismatch { expected } => Err(format!(
                "{workload} {key}: fingerprint {value:016x} differs from the committed {expected:016x}"
            )),
        }
    }

    /// Every key seen with its first value.
    pub fn seen(&self) -> &BTreeMap<String, u64> {
        &self.seen
    }
}
