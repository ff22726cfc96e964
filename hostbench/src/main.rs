//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and the metrics: the end-to-end set
//! untraced, the per-layer set traced. The line before it is the
//! environment stamp. A traced run also writes its spans to
//! `out/trace-<workload>-seed<n>.json` under the package directory.
//! `--write-reference` records this run's fingerprints in
//! `fingerprints.txt`, for a change meant to alter the modelled machine.
//! Exits 1 when any check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use ggpu_core::{GpuConfig, Scale};
use hostbench::env::Stamp;
use hostbench::fingerprint::References;
use hostbench::{names, serve, suite, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut write_reference = false;
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !hostbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {:?})",
            hostbench::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        write_reference,
    })
}

fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn write_reference(workload: &str, report: &Report) -> std::io::Result<()> {
    let path = package_dir().join("fingerprints.txt");
    let text = std::fs::read_to_string(&path)?;
    let mut refs = References::parse(&text)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    for (key, &value) in &report.fingerprints {
        refs.insert(workload, key, value);
    }
    std::fs::write(&path, refs.render())
}

fn write_spans(args: &Args, stamp: &Stamp, spans_json: &str) -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let doc = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"env\":{},\"spans\":{}}}\n",
        args.workload,
        args.seed,
        stamp.to_json(),
        spans_json
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let refs = References::committed();
    let (mut report, engine_threads) = match suite::cells(&args.workload) {
        Some(cells) => {
            let p = suite::Params {
                workload: args.workload.clone(),
                cells,
                scale: Scale::Small,
                config: hostbench::pinned(GpuConfig::rtx3070()),
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            };
            (suite::run(&p, &refs), p.config.resolved_sim_threads())
        }
        None => {
            let p = serve::Params::standard(args.seed, args.seconds, args.trace);
            let threads = serve::config(&[]).gpu.resolved_sim_threads();
            (serve::run(&p, &refs), threads)
        }
    };
    if args.write_reference {
        match write_reference(&args.workload, &report) {
            Ok(()) => eprintln!("hostbench: fingerprints.txt updated"),
            Err(e) => report
                .problems
                .push(format!("cannot update fingerprints.txt: {e}")),
        }
    } else if !report.unreferenced.is_empty() {
        // The suites run fixed inputs, so their reference must exist. The
        // serving mix depends on the seed; an unlisted seed is still checked
        // for agreement between this run's sessions.
        let msg = format!("no committed fingerprint for {:?}", report.unreferenced);
        if args.workload == "serve-mix" {
            eprintln!("hostbench: note: {msg}");
        } else {
            report.problems.push(msg);
        }
    }

    let dir = package_dir();
    let stamp = Stamp::collect(dir.parent().unwrap_or(&dir), engine_threads);
    if let Some(spans) = &report.spans_json {
        match write_spans(&args, &stamp, spans) {
            Ok(path) => eprintln!("hostbench: spans written to {}", path.display()),
            Err(e) => report.problems.push(format!("cannot write spans: {e}")),
        }
    }
    for p in &report.problems {
        eprintln!("hostbench: FAIL: {p}");
    }
    let mut host = ggpu_sim::json::JsonWriter::new();
    host.begin_obj();
    for (k, v) in &report.host {
        host.f64(k, *v);
    }
    host.end_obj();
    println!("{{\"env\":{},\"host\":{}}}", stamp.to_json(), host.finish());
    let table = if args.trace {
        names::PER_LAYER
    } else {
        names::END_TO_END
    };
    println!("{}", report.result_line(table));
    ExitCode::from(report.exit_code() as u8)
}
