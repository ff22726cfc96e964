//! The result-producing binaries, run end to end with the arguments the
//! docs give, each writing into its own scratch `GGPU_RESULTS_DIR`.
//!
//! Two kinds of check live here:
//!
//! * **Shape** — what a reader of the exports relies on: the serving
//!   trace has a host process and a device process with request and
//!   kernel slices, the scaling smoke run covers every workload at every
//!   device count over the fabric, every CSV is rectangular with the
//!   expected number of rows, and `ggpu-prof diff` reports zero changes
//!   for a self-diff and some for CDP vs non-CDP.
//! * **Freshness** — the deterministic artifacts committed under
//!   `results/` must be exactly what the code produces today, so a model
//!   change cannot leave them stale.
//!
//! Invariants the binaries enforce themselves (serving conservation and
//! histogram telescoping in `ggpu-stat`, merge and telescoping in
//! `ggpu-scale`, parse-before-write in `write_json_doc`, rectangular
//! tables in `write_csv`) show up here as a zero exit status.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use ggpu_core::json::Json;

/// An empty scratch results directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ggpu-exports-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch results dir");
    dir
}

/// Run `bin` with `args` writing into `dir`; panics unless it exits 0.
/// Returns its stdout.
fn run(bin: &str, args: &[&str], dir: &Path) -> String {
    let out = Command::new(bin)
        .args(args)
        .env("GGPU_RESULTS_DIR", dir)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {bin}: {e}"));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{bin} {args:?} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn committed(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file)
}

/// Every file in `files` under `dir` is byte-identical to its committed copy.
fn assert_fresh(dir: &Path, files: &[&str]) {
    for f in files {
        let fresh = std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("fresh {f}: {e}"));
        let old = std::fs::read(committed(f)).unwrap_or_else(|e| panic!("committed {f}: {e}"));
        assert!(
            fresh == old,
            "results/{f} is stale: regenerate it with the command in results/README.md"
        );
    }
}

fn json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{} is not JSON: {e}", path.display()))
}

/// Parse a CSV file (RFC 4180 quoting) and assert it is rectangular.
fn csv(path: &Path) -> Vec<Vec<String>> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut rows = Vec::new();
    let (mut row, mut cell) = (Vec::new(), String::new());
    let (mut quoted, mut chars) = (false, text.chars().peekable());
    while let Some(c) = chars.next() {
        match (quoted, c) {
            (true, '"') if chars.peek() == Some(&'"') => {
                chars.next();
                cell.push('"');
            }
            (_, '"') => quoted = !quoted,
            (false, ',') => row.push(std::mem::take(&mut cell)),
            (false, '\n') => {
                row.push(std::mem::take(&mut cell));
                rows.push(std::mem::take(&mut row));
            }
            (_, c) => cell.push(c),
        }
    }
    assert!(
        !quoted && row.is_empty() && cell.is_empty(),
        "{}: unterminated",
        path.display()
    );
    let width = rows.first().map_or(0, Vec::len);
    assert!(
        rows.iter().all(|r| r.len() == width),
        "{} is ragged",
        path.display()
    );
    rows
}

fn arr<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    v.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("missing array `{key}`"))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}`"))
}

fn u64_of(v: &Json, key: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer `{key}`"))
}

fn pids(events: &[Json]) -> BTreeSet<u64> {
    events.iter().map(|e| u64_of(e, "pid")).collect()
}

#[test]
fn serving_soak_is_fresh_and_joins_host_and_device() {
    let dir = scratch("stat");
    let stat = env!("CARGO_BIN_EXE_ggpu-stat");
    run(
        stat,
        &["faults", "--jobs", "36", "--tag", "soak", "--trace"],
        &dir,
    );
    assert_fresh(
        &dir,
        &[
            "serve_soak.json",
            "serve_soak_latency.csv",
            "serve_soak_requests.csv",
            "serve_soak_trace.json",
        ],
    );

    let trace = json(&dir.join("serve_soak_trace.json"));
    let events = arr(&trace, "traceEvents");
    assert_eq!(pids(events), BTreeSet::from([0, 1]), "host + device rows");
    let names: Vec<&str> = events.iter().map(|e| str_of(e, "name")).collect();
    assert!(
        names.iter().any(|n| n.starts_with("job ")),
        "no request slices"
    );
    assert!(names.iter().any(|n| n.contains('#')), "no kernel slices");

    let report = json(&dir.join("serve_soak.json"));
    let requests = arr(report.get("report").expect("report"), "requests").len();
    assert!(requests > 0);
    assert_eq!(
        csv(&dir.join("serve_soak_requests.csv")).len(),
        1 + requests
    );
    assert!(csv(&dir.join("serve_soak_latency.csv")).len() > 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scaling_smoke_shards_every_workload_over_the_fabric() {
    let dir = scratch("scale");
    let scale = env!("CARGO_BIN_EXE_ggpu-scale");
    let args = [
        "--jobs",
        "32",
        "--devices",
        "1,2",
        "--trace",
        "--tag",
        "smoke",
    ];
    run(scale, &args, &dir);

    let doc = json(&dir.join("scaling_smoke.json"));
    let workloads = arr(&doc, "workloads");
    let tags: BTreeSet<&str> = workloads.iter().map(|w| str_of(w, "workload")).collect();
    assert_eq!(tags, BTreeSet::from(["sw", "fm", "phmm"]));
    for w in workloads {
        let name = str_of(w, "workload");
        let class = str_of(w, "class");
        assert!(
            matches!(class, "fabric_bound" | "compute_bound"),
            "{name}: {class}"
        );
        let points = arr(w, "points");
        let devices: Vec<u64> = points.iter().map(|p| u64_of(p, "devices")).collect();
        assert_eq!(devices, [1, 2], "{name}: device points");
        let wide = &points[1];
        assert_eq!(arr(wide, "per_device_cycles").len(), 2, "{name}");
        assert!(
            u64_of(wide, "p2p_bytes") > 0,
            "{name}: sharding must use the fabric"
        );
    }

    let trace = json(&dir.join("scaling_trace.json"));
    let events = arr(&trace, "traceEvents");
    assert_eq!(
        pids(events),
        BTreeSet::from([0, 1]),
        "one process per device"
    );
    assert!(events
        .iter()
        .any(|e| str_of(e, "ph") == "X" && str_of(e, "name").contains('#')));
    assert!(events.iter().any(|e| str_of(e, "ph") == "M"));

    // Header plus 3 workloads x 2 device counts.
    assert_eq!(csv(&dir.join("scaling_smoke.csv")).len(), 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn attribution_profile_is_fresh_and_diffs() {
    let dir = scratch("prof");
    let prof = env!("CARGO_BIN_EXE_ggpu-prof");
    run(prof, &["SW", "--scale", "tiny"], &dir);
    assert_fresh(
        &dir,
        &[
            "prof_sw.json",
            "prof_sw_sm.csv",
            "prof_sw_mem.csv",
            "prof_sw_banks.csv",
        ],
    );

    run(prof, &["SW", "--scale", "tiny", "--cdp"], &dir);
    let cdp = dir.join("prof_sw_cdp.json");
    json(&cdp);
    for f in [
        "prof_sw_cdp_sm.csv",
        "prof_sw_cdp_mem.csv",
        "prof_sw_cdp_banks.csv",
    ] {
        assert!(csv(&dir.join(f)).len() > 1, "{f}: no data rows");
    }

    let stats = committed("profiling_stats.json");
    let stats = stats.to_str().expect("utf-8 path");
    let self_diff = run(prof, &["diff", stats, stats], &dir);
    assert!(self_diff.contains(", 0 changed"), "{self_diff}");
    let base = dir.join("prof_sw.json");
    let base = base.to_str().expect("utf-8 path");
    let cdp = cdp.to_str().expect("utf-8 path");
    let cdp_diff = run(prof, &["diff", base, cdp, "--limit", "10"], &dir);
    assert!(cdp_diff.contains(" changed"), "{cdp_diff}");
    assert!(!cdp_diff.contains(", 0 changed"), "{cdp_diff}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table3_is_fresh() {
    let dir = scratch("table3");
    run(
        env!("CARGO_BIN_EXE_figures"),
        &["table3", "--scale", "small"],
        &dir,
    );
    assert_fresh(&dir, &["table3.csv"]);
    // Header plus the ten benchmarks.
    assert_eq!(csv(&dir.join("table3.csv")).len(), 11);
    let _ = std::fs::remove_dir_all(&dir);
}
