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
    write_result(&format!("{name}.json"), doc)
}

/// Write one table to `<results_dir()>/<name>.csv`, quoting any cell that
/// holds a comma, quote or newline. Like [`write_json_doc`], failures warn
/// on stderr and return `None`, and a ragged table (a row whose width
/// differs from the header's) writes nothing.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Option<PathBuf> {
    if let Some(i) = rows.iter().position(|r| r.len() != headers.len()) {
        eprintln!(
            "warning: {name}.csv row {i} has {} cells, header has {}",
            rows[i].len(),
            headers.len()
        );
        return None;
    }
    fn line<'a>(cells: impl Iterator<Item = &'a str>) -> String {
        let cells: Vec<String> = cells
            .map(|c| {
                if c.contains([',', '"', '\n']) {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.to_string()
                }
            })
            .collect();
        cells.join(",") + "\n"
    }
    let mut out = line(headers.iter().copied());
    for row in rows {
        out.push_str(&line(row.iter().map(String::as_str)));
    }
    write_result(&format!("{name}.csv"), &out)
}

/// Write `contents` to `<results_dir()>/<file>`, creating the directory.
fn write_result(file: &str, contents: &str) -> Option<PathBuf> {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(file);
    match std::fs::write(&path, contents) {
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

    #[test]
    fn csv_cells_holding_a_delimiter_quote_or_newline_are_quoted() {
        let name = "write_csv_quoting_probe";
        let rows = vec![
            vec!["a,b".to_string(), "say \"hi\"".to_string()],
            vec!["two\nlines".to_string(), "plain".to_string()],
        ];
        let path = write_csv(name, &["x", "y,z"], &rows).expect("written");
        let text = std::fs::read_to_string(&path).expect("readable");
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            "x,\"y,z\"\n\"a,b\",\"say \"\"hi\"\"\"\n\"two\nlines\",plain\n"
        );
    }

    #[test]
    fn ragged_csv_is_not_written() {
        let name = "write_csv_ragged_probe";
        let rows = vec![
            vec!["1".to_string(), "2".to_string()],
            vec!["3".to_string()],
        ];
        assert_eq!(write_csv(name, &["a", "b"], &rows), None);
        assert!(!results_dir().join(format!("{name}.csv")).exists());
    }
}
