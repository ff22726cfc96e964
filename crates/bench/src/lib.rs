//! # ggpu-bench — the Genomics-GPU figure/table regeneration harness
//!
//! The [`figures`] module regenerates every table (I-III) and figure
//! (2-22) of the paper; the `figures` binary exposes them as subcommands:
//!
//! ```text
//! cargo run --release -p ggpu-bench --bin figures -- all --scale small
//! cargo run --release -p ggpu-bench --bin figures -- fig12 fig13 fig14
//! ```
//!
//! The [`measure`] module is the engine's own performance-measurement
//! pipeline (declarative benchmark matrix, append-only record store
//! with provenance, noise-aware regression diffing), fronted by the
//! `ggpu-bench` binary:
//!
//! ```text
//! cargo run --release -p ggpu-bench --bin ggpu-bench -- run --quick
//! cargo run --release -p ggpu-bench --bin ggpu-bench -- report
//! cargo run --release -p ggpu-bench --bin ggpu-bench -- cmp --baseline results/records
//! ```
//!
//! Criterion microbenchmarks of the CPU substrate live under `benches/`.

#![forbid(unsafe_code)]

pub mod figures;
pub mod measure;

use std::path::PathBuf;

use ggpu_core::json::Json;

/// Directory machine-readable outputs (CSV/JSON/records) land in.
///
/// `GGPU_RESULTS_DIR` overrides; the default is the workspace-root
/// `results/` directory, resolved against the compiled-in crate path so
/// every binary and bench agrees on one location regardless of the
/// invocation cwd. This is the single copy of a resolution that used to
/// be duplicated across five tools.
pub fn results_dir() -> PathBuf {
    std::env::var_os("GGPU_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"))
}

/// The append-only measurement store, `<results_dir()>/records/`.
pub fn records_dir() -> PathBuf {
    results_dir().join("records")
}

/// Write `doc` to `<results_dir()>/<name>.json` after checking it parses,
/// so every emitted file is machine-readable by construction. Failures
/// warn on stderr and return `None`; a malformed document writes nothing.
pub fn write_json_doc(name: &str, doc: &str) -> Option<PathBuf> {
    if let Err(e) = Json::parse(doc) {
        eprintln!("warning: {name}.json failed self-validation: {e}");
        return None;
    }
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::write(&path, doc) {
        Ok(()) => {
            println!("[wrote {}]", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_json_doc_is_not_written() {
        let name = "write_json_doc_malformed_probe";
        assert_eq!(write_json_doc(name, "{\"a\": [1, 2"), None);
        assert!(!results_dir().join(format!("{name}.json")).exists());
    }
}
