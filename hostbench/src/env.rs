//! The environment stamp printed with every run.

use std::path::Path;
use std::process::Command;

use ggpu_sim::json::JsonWriter;

/// Where and how a run was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub git_commit: String,
    /// Whether the checkout had uncommitted changes; `None` outside git.
    pub git_dirty: Option<bool>,
    /// `rustc -V` on `PATH`, or `unknown`.
    pub rustc: String,
    /// Host parallelism (`nproc`).
    pub nproc: usize,
    /// Engine threads every simulated GPU of the run resolved to.
    pub engine_threads: usize,
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn git(root: &Path, args: &[&str]) -> Option<String> {
    let mut cmd = Command::new("git");
    cmd.arg("-C").arg(root).args(args);
    // Stop git's repository search at the checkout, so a checkout that is
    // not a repository reads as `unknown` instead of finding a parent's.
    if let Some(parent) = root.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    stdout_of(&mut cmd)
}

impl Stamp {
    /// Collect the stamp for the checkout at `root`.
    pub fn collect(root: &Path, engine_threads: usize) -> Stamp {
        let git_commit = git(root, &["rev-parse", "HEAD"]);
        let git_dirty = git_commit
            .as_ref()
            .and_then(|_| git(root, &["status", "--porcelain"]))
            .map(|s| !s.is_empty());
        Stamp {
            git_commit: git_commit.unwrap_or_else(|| "unknown".into()),
            git_dirty,
            rustc: stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            engine_threads,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj()
            .str("git_commit", &self.git_commit)
            .str(
                "git_dirty",
                match self.git_dirty {
                    Some(true) => "true",
                    Some(false) => "false",
                    None => "unknown",
                },
            )
            .str("rustc", &self.rustc)
            .u64("nproc", self.nproc as u64)
            .u64("engine_threads", self.engine_threads as u64)
            .end_obj();
        w.finish()
    }
}
