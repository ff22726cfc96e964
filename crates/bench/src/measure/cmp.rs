//! Noise-aware regression diffing between two record sets.
//!
//! For every gated cell present in both sets, the detector compares
//! medians under a per-cell noise bound:
//!
//! ```text
//! bound = max(rel_bound, 3 × (rel_mad_baseline + rel_mad_new))
//! ```
//!
//! `rel_bound` is the configured minimum (30% for wall-clock throughput
//! — the old CI gate's 70%-of-baseline rule — and 25% for deterministic
//! cycle latencies); the MAD term widens it when either measurement was
//! actually noisy, so a jittery host cannot produce a phantom
//! regression that a quiet host would not. A change beyond the bound in
//! the *bad* direction is a regression; beyond it in the good direction
//! is reported as an improvement (worth refreshing the baseline).

use std::fmt::Write as _;

use ggpu_core::render_table;

use super::record::{newest_per_cell, Direction, Record};

/// How many MADs of combined spread count as "could be noise".
pub const MAD_WIDENING: f64 = 3.0;

/// Verdict for one compared cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the noise bound.
    Unchanged,
    /// Better than the noise bound allows by chance.
    Improved,
    /// Worse than the noise bound allows — fails the gate.
    Regressed,
    /// Present only in the new set (first measurement of a cell).
    NewOnly,
    /// Present only in the baseline (cell not measured this run).
    BaselineOnly,
    /// Informational metric; never gated.
    Info,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Unchanged => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::NewOnly => "new",
            Verdict::BaselineOnly => "unmeasured",
            Verdict::Info => "info",
        }
    }

    /// Whether this verdict fails the gate.
    pub fn fails(self) -> bool {
        self == Verdict::Regressed
    }
}

/// One compared cell.
#[derive(Debug, Clone)]
pub struct CmpRow {
    /// Cell id.
    pub id: String,
    /// Metric name.
    pub metric: String,
    /// Unit of both medians.
    pub unit: String,
    /// Baseline median, when the cell exists there.
    pub base_median: Option<f64>,
    /// New median, when the cell was measured this run.
    pub new_median: Option<f64>,
    /// new/baseline ratio, when both exist and baseline is nonzero.
    pub ratio: Option<f64>,
    /// The noise bound the comparison used.
    pub bound: f64,
    /// Outcome.
    pub verdict: Verdict,
}

/// The full diff of two record sets.
#[derive(Debug, Clone)]
pub struct CmpReport {
    /// One row per `(id, metric)` key in either set, sorted by id.
    pub rows: Vec<CmpRow>,
}

impl CmpReport {
    /// Number of gate-failing rows.
    pub fn failures(&self) -> usize {
        self.rows.iter().filter(|r| r.verdict.fails()).count()
    }

    /// Render the diff as a table plus a one-line summary.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    r.metric.clone(),
                    r.base_median.map(|v| format!("{v:.1}")).unwrap_or_default(),
                    r.new_median.map(|v| format!("{v:.1}")).unwrap_or_default(),
                    r.ratio.map(|v| format!("{v:.3}")).unwrap_or_default(),
                    format!("{:.3}", r.bound),
                    r.verdict.tag().to_string(),
                ]
            })
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            render_table(
                &["cell", "metric", "baseline", "new", "ratio", "bound", "verdict"],
                &rows
            )
        );
        let fails = self.failures();
        let improved = self
            .rows
            .iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .count();
        let _ = writeln!(
            out,
            "cmp: {} cells compared, {} regressions, {} improvements",
            self.rows.len(),
            fails,
            improved
        );
        out
    }
}

fn rel_mad(median: f64, mad: f64) -> f64 {
    if median.abs() < f64::EPSILON {
        0.0
    } else {
        mad / median.abs()
    }
}

fn compare_pair(base: &Record, new: &Record) -> CmpRow {
    let bound = new.rel_bound.max(
        MAD_WIDENING
            * (rel_mad(base.summary.median, base.summary.mad)
                + rel_mad(new.summary.median, new.summary.mad)),
    );
    let ratio = if base.summary.median.abs() > f64::EPSILON {
        Some(new.summary.median / base.summary.median)
    } else {
        None
    };
    let verdict = if new.direction == Direction::Info {
        Verdict::Info
    } else {
        match (new.direction, ratio) {
            (Direction::Higher, Some(r)) if r < 1.0 - bound => Verdict::Regressed,
            (Direction::Higher, Some(r)) if r > 1.0 + bound => Verdict::Improved,
            (Direction::Lower, Some(r)) if r > 1.0 + bound => Verdict::Regressed,
            (Direction::Lower, Some(r)) if r < 1.0 - bound => Verdict::Improved,
            _ => Verdict::Unchanged,
        }
    };
    CmpRow {
        id: new.id.clone(),
        metric: new.metric.clone(),
        unit: new.unit.clone(),
        base_median: Some(base.summary.median),
        new_median: Some(new.summary.median),
        ratio,
        bound,
        verdict,
    }
}

fn unmatched(r: &Record, verdict: Verdict) -> CmpRow {
    let (base_median, new_median) = if verdict == Verdict::BaselineOnly {
        (Some(r.summary.median), None)
    } else {
        (None, Some(r.summary.median))
    };
    CmpRow {
        id: r.id.clone(),
        metric: r.metric.clone(),
        unit: r.unit.clone(),
        base_median,
        new_median,
        ratio: None,
        bound: r.rel_bound,
        verdict,
    }
}

/// Diff `new` against `baseline`. Both sides are first collapsed to the
/// newest record per `(id, metric)` cell, so whole-store inputs work.
pub fn compare(baseline: &[Record], new: &[Record]) -> CmpReport {
    let base = newest_per_cell(baseline);
    let new = newest_per_cell(new);
    let mut rows = Vec::new();
    for n in &new {
        match base.iter().find(|b| b.id == n.id && b.metric == n.metric) {
            Some(b) => rows.push(compare_pair(b, n)),
            None => rows.push(unmatched(n, Verdict::NewOnly)),
        }
    }
    for b in &base {
        if !new.iter().any(|n| n.id == b.id && n.metric == b.metric) {
            rows.push(unmatched(b, Verdict::BaselineOnly));
        }
    }
    rows.sort_by(|a, b| a.id.cmp(&b.id).then(a.metric.cmp(&b.metric)));
    CmpReport { rows }
}
