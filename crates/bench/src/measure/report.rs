//! Ranked comparison tables over a record set.
//!
//! `report` collapses the (multi-run) store to the newest record per
//! cell and renders per-suite tables: engine configurations ranked by
//! throughput with speedup ratios against the best, and the serving
//! load sweep with shed rates and latency percentiles. Rendering is a
//! pure function of the records — byte-identical across invocations on
//! the same store — so its output can be diffed, committed, and tested.

use std::fmt::Write as _;

use ggpu_core::render_table;

use super::record::{newest_per_cell, Record};

fn fmt_rate(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn engine_section(out: &mut String, records: &[Record]) {
    let mut cells: Vec<&Record> = records
        .iter()
        .filter(|r| r.suite == "engine" && r.metric == "cycles_per_sec")
        .collect();
    if cells.is_empty() {
        return;
    }
    // Rank within (scale, workload): fastest configuration first.
    cells.sort_by(|a, b| {
        (&a.scale, &a.workload)
            .cmp(&(&b.scale, &b.workload))
            .then(
                b.summary
                    .median
                    .partial_cmp(&a.summary.median)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.id.cmp(&b.id))
    });
    let mut rows = Vec::new();
    let mut group: Option<(String, String)> = None;
    let mut best = 0.0f64;
    for r in &cells {
        let key = (r.scale.clone(), r.workload.clone());
        if group.as_ref() != Some(&key) {
            group = Some(key);
            best = r.summary.median;
        }
        let ratio = if r.summary.median > 0.0 {
            best / r.summary.median
        } else {
            0.0
        };
        let skipped = r
            .extra
            .iter()
            .find(|(k, _)| k == "fast_forward_skipped_cycles")
            .map(|(_, v)| format!("{v:.0}"))
            .unwrap_or_default();
        rows.push(vec![
            r.workload.clone(),
            r.scale.clone(),
            r.axes.label(),
            fmt_rate(r.summary.median),
            fmt_rate(r.summary.mad),
            format!("{ratio:.2}"),
            r.summary.samples.len().to_string(),
            skipped,
        ]);
    }
    let _ = writeln!(
        out,
        "== engine throughput (ranked per workload; ratio = best/this)"
    );
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "workload",
                "scale",
                "config",
                "median cyc/s",
                "mad",
                "ratio",
                "n",
                "ff_skipped",
            ],
            &rows
        )
    );
}

fn serve_section(out: &mut String, records: &[Record]) {
    let mut ids: Vec<&Record> = records
        .iter()
        .filter(|r| r.suite == "serve" && r.metric == "requests_per_sec")
        .collect();
    if ids.is_empty() {
        return;
    }
    ids.sort_by(|a, b| {
        (&a.scale, a.axes.n_devices)
            .cmp(&(&b.scale, b.axes.n_devices))
            .then(a.id.len().cmp(&b.id.len()))
            .then(a.id.cmp(&b.id))
    });
    let metric_of = |id: &str, metric: &str| {
        records
            .iter()
            .find(|r| r.id == id && r.metric == metric)
            .map(|r| r.summary.median)
    };
    let rows: Vec<Vec<String>> = ids
        .iter()
        .map(|r| {
            let offered = r
                .extra
                .iter()
                .find(|(k, _)| k == "offered")
                .map(|(_, v)| format!("{v:.0}"))
                .unwrap_or_default();
            vec![
                r.id.clone(),
                r.axes.n_devices.to_string(),
                offered,
                fmt_rate(r.summary.median),
                fmt_rate(r.summary.mad),
                metric_of(&r.id, "shed_rate")
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_default(),
                metric_of(&r.id, "e2e_p50_cycles")
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_default(),
                metric_of(&r.id, "e2e_p99_cycles")
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    let _ = writeln!(out, "== serving sustained traffic (offered-load sweep)");
    let _ = writeln!(
        out,
        "{}",
        render_table(
            &[
                "cell",
                "devices",
                "offered",
                "median req/s",
                "mad",
                "shed_rate",
                "p50 e2e cyc",
                "p99 e2e cyc",
            ],
            &rows
        )
    );
}

/// Render the full ranked report for `records` (any mix of runs; the
/// newest record per cell wins). Deterministic for a given input.
pub fn render(records: &[Record]) -> String {
    let newest = newest_per_cell(records);
    let mut out = String::new();
    let superseded = records.len() - newest.len();
    let _ = writeln!(
        out,
        "{} records ({} current cells, {} superseded by newer runs)\n",
        records.len(),
        newest.len(),
        superseded
    );
    engine_section(&mut out, &newest);
    serve_section(&mut out, &newest);
    out
}
