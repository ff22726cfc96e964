//! Integration tests for the `measure` subsystem: the JSONL record
//! store round-trip, the noise-aware regression detector, and report
//! determinism.

use std::path::PathBuf;

use ggpu_bench::measure::cmp::{self, Verdict};
use ggpu_bench::measure::provenance::Provenance;
use ggpu_bench::measure::record::{self, Direction, EngineAxes, Record};
use ggpu_bench::measure::report;
use ggpu_bench::measure::stats::Summary;

fn prov(unix_time: u64) -> Provenance {
    Provenance {
        git_commit: "0123456789abcdef0123456789abcdef01234567".to_string(),
        git_dirty: false,
        rustc: "rustc 1.95.0".to_string(),
        host_parallelism: 8,
        unix_time,
    }
}

fn mk(id: &str, metric: &str, samples: Vec<f64>, run_id: &str, unix_time: u64) -> Record {
    Record {
        id: id.to_string(),
        suite: id.split('/').next().unwrap_or("engine").to_string(),
        workload: "SW".to_string(),
        scale: "tiny".to_string(),
        metric: metric.to_string(),
        unit: "cyc/s".to_string(),
        direction: Direction::Higher,
        rel_bound: 0.30,
        summary: Summary::of(samples),
        warmup: 1,
        axes: EngineAxes::base(),
        extra: vec![("simulated_cycles".to_string(), 4096.0)],
        run_id: run_id.to_string(),
        prov: prov(unix_time),
    }
}

fn tmp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ggpu-measure-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.join("records").join("measurements.jsonl")
}

#[test]
fn jsonl_round_trip_preserves_every_field() {
    let mut r = mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![10.0, 11.0, 12.0],
        "abc-1",
        100,
    );
    r.direction = Direction::Lower;
    r.prov.git_dirty = true;
    r.axes = EngineAxes {
        fast_forward: false,
        n_devices: 2,
        stream_isolation: true,
    };
    let line = r.to_json_line();
    let back = Record::from_json_line(&line).expect("parse own serialization");
    assert_eq!(back, r);
    // Provenance fields survive the trip — that is what makes a record
    // attributable after the fact.
    assert_eq!(back.prov.git_commit, r.prov.git_commit);
    assert!(back.prov.git_dirty);
    assert_eq!(back.prov.rustc, "rustc 1.95.0");
    assert_eq!(back.prov.host_parallelism, 8);
    assert_eq!(back.prov.unix_time, 100);
}

#[test]
fn store_append_is_append_only_and_loads_in_order() {
    let path = tmp_store("append");
    let a = mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![10.0],
        "run-a",
        100,
    );
    let b = mk(
        "engine/NvB/tiny/ff",
        "cycles_per_sec",
        vec![20.0],
        "run-a",
        100,
    );
    record::append(&path, std::slice::from_ref(&a)).expect("first append creates dirs");
    record::append(&path, std::slice::from_ref(&b)).expect("second append extends");
    let loaded = record::load(&path).expect("load store");
    assert_eq!(loaded, vec![a, b], "file order is append order");
}

#[test]
fn tampered_line_is_rejected_on_load() {
    let r = mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![10.0],
        "run-a",
        100,
    );
    // Flip a cell-identity field without recomputing config_hash, as a
    // hand edit would.
    let line = r
        .to_json_line()
        .replace("\"scale\":\"tiny\"", "\"scale\":\"small\"");
    let err = Record::from_json_line(&line).unwrap_err();
    assert!(err.contains("config_hash mismatch"), "got: {err}");
}

#[test]
fn latest_run_picks_newest_run_id() {
    let old = mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![10.0],
        "run-old",
        100,
    );
    let new1 = mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![11.0],
        "run-new",
        200,
    );
    let new2 = mk(
        "engine/NvB/tiny/ff",
        "cycles_per_sec",
        vec![21.0],
        "run-new",
        200,
    );
    let latest = record::latest_run(&[old, new1.clone(), new2.clone()]);
    assert_eq!(latest, vec![new1, new2]);
}

#[test]
fn cmp_passes_identical_and_within_noise_sets() {
    let base = vec![
        mk(
            "engine/SW/tiny/ff",
            "cycles_per_sec",
            vec![100.0, 101.0],
            "b",
            100,
        ),
        mk(
            "engine/NvB/tiny/ff",
            "cycles_per_sec",
            vec![200.0, 201.0],
            "b",
            100,
        ),
    ];
    // Identical.
    let diff = cmp::compare(&base, &base);
    assert_eq!(diff.failures(), 0);
    assert!(diff.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
    // Within the 30% noise bound (a 10% dip).
    let new = vec![
        mk(
            "engine/SW/tiny/ff",
            "cycles_per_sec",
            vec![90.0, 91.0],
            "n",
            200,
        ),
        mk(
            "engine/NvB/tiny/ff",
            "cycles_per_sec",
            vec![190.0, 191.0],
            "n",
            200,
        ),
    ];
    let diff = cmp::compare(&base, &new);
    assert_eq!(diff.failures(), 0, "{}", diff.render());
}

#[test]
fn cmp_flags_regression_beyond_noise_bound() {
    let base = vec![mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![100.0, 100.0, 100.0],
        "b",
        100,
    )];
    // A 50% throughput drop is far past the 30% bound, and the samples
    // are tight so MAD widening cannot excuse it.
    let new = vec![mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![50.0, 50.0, 50.0],
        "n",
        200,
    )];
    let diff = cmp::compare(&base, &new);
    assert_eq!(diff.failures(), 1, "{}", diff.render());
    assert_eq!(diff.rows[0].verdict, Verdict::Regressed);
    // The same drop on a lower-is-better metric is an improvement.
    let mut base_lat = base.clone();
    let mut new_lat = new.clone();
    base_lat[0].direction = Direction::Lower;
    base_lat[0].metric = "e2e_p50_cycles".to_string();
    new_lat[0].direction = Direction::Lower;
    new_lat[0].metric = "e2e_p50_cycles".to_string();
    let diff = cmp::compare(&base_lat, &new_lat);
    assert_eq!(diff.failures(), 0);
    assert_eq!(diff.rows[0].verdict, Verdict::Improved);
}

#[test]
fn cmp_noise_bound_widens_with_measured_mad() {
    // A 40% dip would normally regress (bound 0.30), but the baseline
    // samples are so scattered that 3×(rel MADs) exceeds the gap — the
    // detector must not call noise a regression.
    let base = vec![mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![60.0, 100.0, 140.0],
        "b",
        100,
    )];
    let new = vec![mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![60.0, 60.0, 60.0],
        "n",
        200,
    )];
    let diff = cmp::compare(&base, &new);
    assert_eq!(diff.failures(), 0, "{}", diff.render());
    assert!(diff.rows[0].bound > 0.30, "MAD must widen the bound");
}

#[test]
fn cmp_info_metrics_never_gate() {
    let mut base = mk("serve/tiny/load6/ff", "shed_rate", vec![0.0], "b", 100);
    let mut new = mk("serve/tiny/load6/ff", "shed_rate", vec![0.9], "n", 200);
    base.direction = Direction::Info;
    new.direction = Direction::Info;
    let diff = cmp::compare(&[base], &[new]);
    assert_eq!(diff.failures(), 0);
    assert_eq!(diff.rows[0].verdict, Verdict::Info);
}

#[test]
fn cmp_collapses_multi_run_stores_to_newest_cell() {
    // The store holds an old slow run and a new fast one; cmp must use
    // the newest per cell, so no regression fires.
    let store = vec![
        mk(
            "engine/SW/tiny/ff",
            "cycles_per_sec",
            vec![50.0],
            "run-old",
            100,
        ),
        mk(
            "engine/SW/tiny/ff",
            "cycles_per_sec",
            vec![100.0],
            "run-new",
            200,
        ),
    ];
    let base = vec![mk(
        "engine/SW/tiny/ff",
        "cycles_per_sec",
        vec![100.0],
        "b",
        50,
    )];
    let diff = cmp::compare(&base, &store);
    assert_eq!(diff.failures(), 0, "{}", diff.render());
}

#[test]
fn report_is_byte_identical_across_invocations() {
    let records = vec![
        mk(
            "engine/SW/tiny/ff",
            "cycles_per_sec",
            vec![100.0, 110.0],
            "a",
            100,
        ),
        mk(
            "engine/SW/tiny/noff",
            "cycles_per_sec",
            vec![300.0, 310.0],
            "a",
            100,
        ),
        mk(
            "engine/NvB/tiny/ff",
            "cycles_per_sec",
            vec![200.0],
            "a",
            100,
        ),
        {
            let mut r = mk(
                "serve/tiny/load6/ff",
                "requests_per_sec",
                vec![40.0],
                "a",
                100,
            );
            r.suite = "serve".to_string();
            r.extra = vec![("offered".to_string(), 24.0)];
            r
        },
    ];
    let first = report::render(&records);
    for _ in 0..3 {
        assert_eq!(report::render(&records), first);
    }
    // Sanity on content: ranked engine table and serve sweep present.
    assert!(first.contains("== engine throughput"));
    assert!(first.contains("== serving sustained traffic"));
    assert!(first.contains("engine/SW") || first.contains("SW"));
}
