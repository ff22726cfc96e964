//! `ggpu-bench` — the performance-measurement CLI.
//!
//! ```text
//! ggpu-bench run    [--quick] [--iters N] [--warmup N] [--filter S] [--no-append]
//! ggpu-bench report [--store FILE] [--filter S]
//! ggpu-bench cmp    [--baseline PATH] [--new FILE]
//! ggpu-bench cmp    BASELINE.jsonl NEW.jsonl
//! ```
//!
//! * `run` executes the declarative benchmark matrix (engine throughput
//!   over fast-forward/stream-isolation plus the
//!   sustained-traffic serving sweep), measures every cell as warmup +
//!   N timed iterations, and **appends** one provenance-stamped JSONL
//!   record per measurement to `results/records/measurements.jsonl`.
//!   `--quick` is the CI profile (tiny scale, fewer iterations).
//! * `report` renders ranked comparison tables (throughput per engine
//!   configuration with ratios against the best, the serving load
//!   sweep) from the store. Output is deterministic for a given store.
//! * `cmp` diffs two record sets under per-cell noise bounds and exits
//!   non-zero on any regression — this is the CI perf gate. With
//!   `--baseline <dir>` (default `results/records`), the latest run in
//!   `measurements.jsonl` is compared against the committed
//!   `baseline.jsonl`; two positional files compare those instead.
//!
//! `GGPU_RESULTS_DIR` relocates `results/` for all subcommands.

use std::path::{Path, PathBuf};

use ggpu_bench::measure::{cmp, record, report, runner};
use ggpu_bench::records_dir;

fn usage() -> ! {
    eprintln!(
        "usage: ggpu-bench run    [--quick] [--iters N] [--warmup N] [--filter S] [--no-append]\n\
         \u{20}      ggpu-bench report [--store FILE] [--filter S]\n\
         \u{20}      ggpu-bench cmp    [--baseline PATH] [--new FILE] | cmp BASE.jsonl NEW.jsonl"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("ggpu-bench: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("cmp") => cmd_cmp(&args[1..]),
        _ => usage(),
    }
}

fn measurements_path() -> PathBuf {
    records_dir().join("measurements.jsonl")
}

fn cmd_run(args: &[String]) {
    let mut opts = runner::RunOptions::default();
    let mut append = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--iters" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 1 => opts.iters = Some(n),
                _ => usage(),
            },
            "--warmup" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.warmup = Some(n),
                _ => usage(),
            },
            "--filter" => match it.next() {
                Some(s) if !s.is_empty() => opts.filter = Some(s.clone()),
                _ => usage(),
            },
            "--no-append" => append = false,
            _ => usage(),
        }
    }
    let records = runner::run_matrix(&opts);
    if records.is_empty() {
        fail("no matrix cells matched the filter");
    }
    let prov = &records[0].prov;
    println!(
        "run {}: {} records ({}, rustc {}, host parallelism {}{})",
        records[0].run_id,
        records.len(),
        &prov.git_commit[..prov.git_commit.len().min(12)],
        prov.rustc,
        prov.host_parallelism,
        if prov.git_dirty { ", DIRTY TREE" } else { "" },
    );
    print!("{}", report::render(&records));
    if append {
        let path = measurements_path();
        if let Err(e) = record::append(&path, &records) {
            fail(&format!("cannot append to {}: {e}", path.display()));
        }
        println!("[appended {} records to {}]", records.len(), path.display());
    } else {
        println!("[--no-append: store untouched]");
    }
}

fn load_or_fail(path: &Path) -> Vec<record::Record> {
    match record::load(path) {
        Ok(r) if r.is_empty() => fail(&format!("{} holds no records", path.display())),
        Ok(r) => r,
        Err(e) => fail(&e),
    }
}

fn cmd_report(args: &[String]) {
    let mut store = measurements_path();
    let mut filter: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => match it.next() {
                Some(p) => store = PathBuf::from(p),
                None => usage(),
            },
            "--filter" => match it.next() {
                Some(s) if !s.is_empty() => filter = Some(s.clone()),
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let mut records = load_or_fail(&store);
    if let Some(needle) = &filter {
        records.retain(|r| r.id.contains(needle.as_str()));
    }
    print!("{}", report::render(&records));
}

fn cmd_cmp(args: &[String]) {
    let mut baseline_opt: Option<PathBuf> = None;
    let mut new_opt: Option<PathBuf> = None;
    let mut positional: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => match it.next() {
                Some(p) => baseline_opt = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--new" => match it.next() {
                Some(p) => new_opt = Some(PathBuf::from(p)),
                None => usage(),
            },
            p if !p.starts_with('-') => positional.push(PathBuf::from(p)),
            _ => usage(),
        }
    }
    let (baseline, new) = match (positional.len(), baseline_opt, new_opt) {
        // Two explicit record sets.
        (2, None, None) => (load_or_fail(&positional[0]), load_or_fail(&positional[1])),
        // Store mode: committed baseline vs the latest appended run.
        (0, baseline, new) => {
            let base_path = baseline.unwrap_or_else(records_dir);
            let base_file = if base_path.is_dir() {
                base_path.join("baseline.jsonl")
            } else {
                base_path
            };
            let new_file = new.unwrap_or_else(measurements_path);
            let latest = record::latest_run(&load_or_fail(&new_file));
            println!(
                "comparing latest run `{}` in {} against {}",
                latest.first().map(|r| r.run_id.as_str()).unwrap_or("?"),
                new_file.display(),
                base_file.display()
            );
            (load_or_fail(&base_file), latest)
        }
        _ => usage(),
    };
    let diff = cmp::compare(&baseline, &new);
    print!("{}", diff.render());
    if diff.failures() > 0 {
        eprintln!(
            "ggpu-bench cmp: {} regression(s) beyond noise bounds",
            diff.failures()
        );
        std::process::exit(1);
    }
}
