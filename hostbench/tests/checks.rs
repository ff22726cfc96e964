//! The benchmark's own checks: wrong outputs and fingerprint drift fail a
//! run, the printed metric names are the ones `BENCHMARK.json` declares,
//! and span self times telescope to the traced wall time.

use std::collections::BTreeMap;

use ggpu_core::{GpuConfig, Scale};
use ggpu_serve::{Priority, Service, Tenant};
use ggpu_sim::json::Json;
use hostbench::fingerprint::{self, Ledger, References};
use hostbench::names::{self, Metric};
use hostbench::trace::{self, Tracer};
use hostbench::{serve, suite, Report};

fn tiny_suite(trace: bool) -> suite::Params {
    suite::Params {
        workload: "test".into(),
        cells: vec![suite::Cell {
            abbrev: "SW",
            cdp: false,
        }],
        scale: Scale::Tiny,
        config: hostbench::pinned(GpuConfig::test_small()),
        seed: 0,
        seconds: 0.0,
        trace,
    }
}

fn small_serve(trace: bool) -> serve::Params {
    serve::Params {
        seed: 3,
        jobs: 48,
        seconds: 0.0,
        trace,
    }
}

fn metric_keys(line: &str) -> Vec<String> {
    let doc = Json::parse(line).expect("result line is JSON");
    match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn table_names(table: &[Metric]) -> Vec<String> {
    table.iter().map(|m| m.0.to_string()).collect()
}

#[test]
fn corrupted_expected_output_counts_as_error_and_fails_the_run() {
    let p = small_serve(false);
    let genome = serve::genome(p.seed);
    let mut jobs = serve::jobs(p.seed, &genome, 12);
    let mut svc = Service::new(serve::config(&genome)).expect("service builds");
    let admitted: Vec<_> = jobs
        .iter()
        .map(|j| {
            svc.submit(Tenant(0), Priority(1), None, j.kind.clone())
                .ok()
        })
        .collect();
    svc.run_until_idle(100).expect("device stays up");
    let outcomes = svc.take_outcomes();
    let e2e: BTreeMap<_, _> = svc.report().trails.iter().map(|t| (t.job, t.e2e)).collect();

    let clean = serve::verify(&jobs, &admitted, &outcomes, &e2e);
    assert_eq!((clean.verified, clean.wrong), (12, 0));

    jobs[5].expected = match jobs[5].expected {
        serve::Expected::Score(s) => serve::Expected::Score(s + 1),
        serve::Expected::Mapping(m) => serve::Expected::Mapping(m ^ 1),
        serve::Expected::LogLik(l) => serve::Expected::LogLik(l * 1.5 + 1.0),
    };
    let v = serve::verify(&jobs, &admitted, &outcomes, &e2e);
    assert_eq!((v.verified, v.wrong), (11, 1));

    let mut report = Report {
        attempted: 12,
        failed: v.wrong,
        ..Report::default()
    };
    report.set("error_rate", v.wrong as f64 / 12.0);
    assert!(!report.correct());
    assert_ne!(report.exit_code(), 0);
    assert!(report.result_line(&[]).contains("\"correct\":false"));
}

#[test]
fn unverified_suite_cell_is_a_failure() {
    let p = tiny_suite(false);
    let bench = ggpu_core::benchmark(p.scale, "SW").expect("SW exists");
    let mut r = bench.run(&p.config, false);
    r.verified = false;
    let mut ledger = Ledger::default();
    let why = suite::check_cell(
        "test",
        &p.cells[0],
        Ok(r),
        &References::default(),
        &mut ledger,
    )
    .expect_err("an unverified cell fails");
    assert!(why.contains("CPU reference"), "{why}");
}

#[test]
fn fingerprint_mismatch_is_detected() {
    let p = tiny_suite(false);
    let bench = ggpu_core::benchmark(p.scale, "SW").expect("SW exists");
    let r = bench.run(&p.config, false);
    let fp = fingerprint::of_run_stats(&r.stats);

    // Any counter moving changes the fingerprint.
    let mut moved = r.stats.clone();
    moved.l2.read_hit += 1;
    assert_ne!(fingerprint::of_run_stats(&moved), fp);

    // A reference that disagrees fails the cell.
    let mut refs = References::default();
    refs.insert("test", "SW", fp ^ 1);
    let mut ledger = Ledger::default();
    let why = suite::check_cell("test", &p.cells[0], Ok(r.clone()), &refs, &mut ledger)
        .expect_err("mismatch detected");
    assert!(why.contains("committed"), "{why}");

    // The matching reference passes, and a later repetition must agree.
    refs.insert("test", "SW", fp);
    let mut ledger = Ledger::default();
    assert!(suite::check_cell("test", &p.cells[0], Ok(r.clone()), &refs, &mut ledger).is_ok());
    let mut again = r;
    again.stats.sm.issued += 1;
    let why = suite::check_cell("test", &p.cells[0], Ok(again), &refs, &mut ledger)
        .expect_err("repetition disagreement detected");
    assert!(why.contains("earlier"), "{why}");
}

#[test]
fn committed_fingerprints_parse_and_cover_the_suites() {
    let refs = References::committed();
    assert_eq!(References::parse(&refs.render()).expect("round trip"), refs);
    for w in ["suite-dense", "suite-sparse"] {
        for c in suite::cells(w).expect("suite workload") {
            assert_ne!(
                refs.check(w, &c.key(), 0),
                fingerprint::Verdict::NoReference,
                "{w} {} has no reference",
                c.key()
            );
        }
    }
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let declared = |key: &str| -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let ours = |table: &[Metric]| -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.tag().to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(names::END_TO_END));
    assert_eq!(declared("per_layer"), ours(names::PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads, hostbench::WORKLOADS);

    // Both kinds of workload print exactly those names, untraced and traced.
    for report in [
        suite::run(&tiny_suite(true), &References::default()),
        serve::run(&small_serve(true), &References::default()),
    ] {
        assert!(report.correct(), "{:?}", report.problems);
        assert_eq!(
            metric_keys(&report.result_line(names::END_TO_END)),
            table_names(names::END_TO_END)
        );
        assert_eq!(
            metric_keys(&report.result_line(names::PER_LAYER)),
            table_names(names::PER_LAYER)
        );
    }
}

#[test]
fn spans_telescope() {
    let mut t = Tracer::new(true);
    let root = t.enter("bench.cell", 0);
    for i in 0..3 {
        t.time("sim.run", i, || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        let outer = t.enter("serve.round", i);
        t.time("serve.submit", i, || {
            std::hint::black_box((0..5_000u64).product::<u64>())
        });
        t.exit(outer);
    }
    t.exit(root);
    let spans = t.spans();
    let self_ns = trace::self_times_ns(spans);
    assert_eq!(self_ns.iter().sum::<u64>(), spans[0].duration_ns());
    let by_layer = trace::self_seconds_by_layer(spans);
    assert_eq!(
        by_layer.keys().copied().collect::<Vec<_>>(),
        ["bench", "serve", "sim"]
    );
    assert!(trace::telescope_error(spans, spans[0].duration_ns() as f64 / 1e9) < 1e-12);

    // Off, the tracer records nothing.
    let mut off = Tracer::new(false);
    let s = off.enter("bench.cell", 0);
    off.exit(s);
    assert!(off.spans().is_empty());

    // A whole traced run telescopes against its independently timed wall.
    for report in [
        suite::run(&tiny_suite(true), &References::default()),
        serve::run(&small_serve(true), &References::default()),
    ] {
        let err = report.values["trace.telescope_err_frac"];
        assert!(
            err <= hostbench::TELESCOPE_TOLERANCE,
            "telescope error {err}"
        );
        assert!(report.values["trace.spans"] > 0.0);
    }
}
