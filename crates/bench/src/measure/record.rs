//! The measurement record and its append-only JSONL store.
//!
//! One line of `results/records/measurements.jsonl` is one [`Record`]:
//! a single metric of a single benchmark-matrix cell, summarized over
//! its timed iterations and stamped with full provenance. The store is
//! **append-only** — `ggpu-bench run` only ever adds lines — so the file
//! accumulates the engine's performance trajectory commit over commit
//! instead of being overwritten.
//!
//! `results/records/baseline.jsonl` holds the curated record set the CI
//! regression gate compares against (same format, one blessed run).

use std::io::Write as _;
use std::path::Path;

use ggpu_core::json::{Json, JsonWriter};

use super::provenance::Provenance;
use super::stats::Summary;

/// Store-format version, bumped on incompatible record changes.
pub const SCHEMA_VERSION: u64 = 2;

/// Which way "better" points for a metric, which is what makes a diff a
/// *regression* rather than a mere change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (throughput); gated.
    Higher,
    /// Smaller is better (latency); gated.
    Lower,
    /// Contextual only (e.g. shed rate at a deliberately saturating
    /// load); never gates CI.
    Info,
}

impl Direction {
    /// Stable serialization tag.
    pub fn tag(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
            Direction::Info => "info",
        }
    }

    /// Parse a serialized tag.
    pub fn parse(s: &str) -> Result<Direction, String> {
        match s {
            "higher" => Ok(Direction::Higher),
            "lower" => Ok(Direction::Lower),
            "info" => Ok(Direction::Info),
            other => Err(format!("unknown direction `{other}`")),
        }
    }
}

/// The engine-configuration axes of the benchmark matrix. Every record
/// carries the full axis vector so record sets from different matrices
/// stay comparable cell-by-cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineAxes {
    /// Idle-cycle fast-forward on/off.
    pub fast_forward: bool,
    /// Devices in the node (serving cells shard across them).
    pub n_devices: usize,
    /// Canonical per-kernel stream boundaries on/off.
    pub stream_isolation: bool,
}

impl EngineAxes {
    /// The single-device, fast-forward-on default cell.
    pub fn base() -> EngineAxes {
        EngineAxes {
            fast_forward: true,
            n_devices: 1,
            stream_isolation: false,
        }
    }

    /// Compact human-readable label, also part of the cell id:
    /// `ff`, `noff`, `ff+iso`, `ff/d2`.
    pub fn label(&self) -> String {
        let mut s = String::from(if self.fast_forward { "ff" } else { "noff" });
        if self.stream_isolation {
            s.push_str("+iso");
        }
        if self.n_devices > 1 {
            s.push_str(&format!("/d{}", self.n_devices));
        }
        s
    }
}

/// FNV-1a 64-bit, the same dependency-free hash the rest of the suite
/// hand-rolls where it needs one.
fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One measurement: a single metric of a single matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Cell id, e.g. `engine/SW/tiny/ff` or `serve/tiny/load6/ff`.
    pub id: String,
    /// Benchmark family: `engine` or `serve`.
    pub suite: String,
    /// Workload within the family (`SW`, `NvB`, `STAR`, `traffic`).
    pub workload: String,
    /// Input scale (`tiny`/`small`/`paper`).
    pub scale: String,
    /// Metric name (`cycles_per_sec`, `requests_per_sec`, ...).
    pub metric: String,
    /// Unit the samples are in.
    pub unit: String,
    /// Gate direction.
    pub direction: Direction,
    /// Configured minimum noise bound (relative). The detector widens it
    /// by the measured noise but never tightens below this.
    pub rel_bound: f64,
    /// Summarized timed iterations.
    pub summary: Summary,
    /// Warmup runs discarded before sampling.
    pub warmup: u32,
    /// Engine-configuration axes of the cell.
    pub axes: EngineAxes,
    /// Auxiliary deterministic counters (simulated cycles, skipped
    /// cycles, shed counts, ...), for reading — not gating.
    pub extra: Vec<(String, f64)>,
    /// Identifier shared by all records of one `run` invocation.
    pub run_id: String,
    /// Measurement-environment stamp.
    pub prov: Provenance,
}

impl Record {
    /// Hash of everything that defines the cell (id, metric, axes, and
    /// scale), so two records are comparable iff their hashes match.
    pub fn config_hash(&self) -> String {
        let canon = format!(
            "{}|{}|{}|{}|ff={},devices={},iso={}",
            self.id,
            self.metric,
            self.scale,
            self.workload,
            self.axes.fast_forward,
            self.axes.n_devices,
            self.axes.stream_isolation,
        );
        format!("{:016x}", fnv1a64(&canon))
    }

    /// Serialize as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .u64("schema", SCHEMA_VERSION)
            .str("id", &self.id)
            .str("suite", &self.suite)
            .str("workload", &self.workload)
            .str("scale", &self.scale)
            .str("metric", &self.metric)
            .str("unit", &self.unit)
            .str("direction", self.direction.tag())
            .f64("rel_bound", self.rel_bound)
            .f64("median", self.summary.median)
            .f64("mad", self.summary.mad)
            .begin_arr_key("samples");
        for s in &self.summary.samples {
            w.elem_f64(*s);
        }
        w.end_arr()
            .u64("warmup", self.warmup as u64)
            .begin_obj_key("config")
            .bool("fast_forward", self.axes.fast_forward)
            .u64("n_devices", self.axes.n_devices as u64)
            .bool("stream_isolation", self.axes.stream_isolation)
            .end_obj()
            .str("config_hash", &self.config_hash())
            .begin_obj_key("extra");
        for (k, v) in &self.extra {
            w.f64(k, *v);
        }
        w.end_obj()
            .str("run_id", &self.run_id)
            .str("git_commit", &self.prov.git_commit)
            .bool("git_dirty", self.prov.git_dirty)
            .str("rustc", &self.prov.rustc)
            .u64("host_parallelism", self.prov.host_parallelism)
            .u64("unix_time", self.prov.unix_time)
            .end_obj();
        w.finish()
    }

    /// Parse one JSONL line back into a record.
    pub fn from_json_line(line: &str) -> Result<Record, String> {
        let v = Json::parse(line).map_err(|e| format!("bad record JSON: {e}"))?;
        let schema = req_u64(&v, "schema")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "record schema {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let cfg = v.get("config").ok_or("missing `config`")?;
        let axes = EngineAxes {
            fast_forward: req_bool(cfg, "fast_forward")?,
            n_devices: req_u64(cfg, "n_devices")? as usize,
            stream_isolation: req_bool(cfg, "stream_isolation")?,
        };
        let samples = v
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("missing `samples`")?
            .iter()
            .map(|s| s.as_f64().ok_or("non-numeric sample"))
            .collect::<Result<Vec<f64>, _>>()?;
        let extra = match v.get("extra") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(k, ev)| ev.as_f64().map(|x| (k.clone(), x)).ok_or("bad extra"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        let rec = Record {
            id: req_str(&v, "id")?,
            suite: req_str(&v, "suite")?,
            workload: req_str(&v, "workload")?,
            scale: req_str(&v, "scale")?,
            metric: req_str(&v, "metric")?,
            unit: req_str(&v, "unit")?,
            direction: Direction::parse(&req_str(&v, "direction")?)?,
            rel_bound: req_f64(&v, "rel_bound")?,
            summary: Summary {
                median: req_f64(&v, "median")?,
                mad: req_f64(&v, "mad")?,
                samples,
            },
            warmup: req_u64(&v, "warmup")? as u32,
            axes,
            extra,
            run_id: req_str(&v, "run_id")?,
            prov: Provenance {
                git_commit: req_str(&v, "git_commit")?,
                git_dirty: req_bool(&v, "git_dirty")?,
                rustc: req_str(&v, "rustc")?,
                host_parallelism: req_u64(&v, "host_parallelism")?,
                unix_time: req_u64(&v, "unix_time")?,
            },
        };
        // The hash rides along for external tooling; verify it matches
        // the fields so a hand-edited line cannot masquerade as a
        // comparable cell.
        let stored = req_str(&v, "config_hash")?;
        if stored != rec.config_hash() {
            return Err(format!(
                "config_hash mismatch for `{}`: stored {stored}, computed {}",
                rec.id,
                rec.config_hash()
            ));
        }
        Ok(rec)
    }
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing integer `{key}`"))
}

fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number `{key}`"))
}

fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

// ---- the store -------------------------------------------------------------

/// Append `records` as JSONL lines to `path`, creating parent
/// directories as needed. Existing content is never rewritten.
pub fn append(path: &Path, records: &[Record]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut buf = String::new();
    for r in records {
        buf.push_str(&r.to_json_line());
        buf.push('\n');
    }
    f.write_all(buf.as_bytes())
}

/// Load every record in a JSONL file, in file order. Blank lines are
/// skipped; a malformed line is an error (a corrupt store should fail
/// loudly, not silently drop history).
pub fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            Record::from_json_line(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?,
        );
    }
    Ok(out)
}

/// The records of the most recent run in a (possibly multi-run) set:
/// the run containing the record with the largest `unix_time`
/// (`run_id` breaks ties deterministically).
pub fn latest_run(records: &[Record]) -> Vec<Record> {
    let Some(newest) = records
        .iter()
        .max_by(|a, b| (a.prov.unix_time, &a.run_id).cmp(&(b.prov.unix_time, &b.run_id)))
        .map(|r| r.run_id.clone())
    else {
        return Vec::new();
    };
    records
        .iter()
        .filter(|r| r.run_id == newest)
        .cloned()
        .collect()
}

/// Collapse a multi-run set to the newest record per `(id, metric)` key
/// — what `report` tables and `cmp` sides operate on.
pub fn newest_per_cell(records: &[Record]) -> Vec<Record> {
    let mut newest: Vec<Record> = Vec::new();
    for r in records {
        match newest
            .iter_mut()
            .find(|n| n.id == r.id && n.metric == r.metric)
        {
            // Later lines win ties: the store is append-only, so file
            // order is measurement order.
            Some(n) if n.prov.unix_time <= r.prov.unix_time => *n = r.clone(),
            Some(_) => {}
            None => newest.push(r.clone()),
        }
    }
    newest
}
