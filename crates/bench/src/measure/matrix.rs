//! The declarative benchmark matrix: `workload × scale × engine config`.
//!
//! Cells are *data*, not code — the runner executes whatever the matrix
//! declares, so adding a workload, an engine setting, or a load level is a
//! one-line change here and every downstream consumer (`run`, `report`,
//! `cmp`, CI) picks it up. Two suites:
//!
//! * **engine** — raw cycle-engine throughput on the PR-5 probe
//!   workloads (SW plain DP, NvB FM-index, STAR with CDP), swept over
//!   fast-forward on/off and stream-isolation.
//! * **serve** — sustained-traffic serving throughput: the seeded job
//!   mix offered to [`ggpu_serve::Service`] at a fixed per-round load,
//!   swept over load level and device count (multi-GPU scaling of the
//!   serving path).

use ggpu_core::Scale;

use super::record::EngineAxes;

/// `(abbrev, cdp)` engine probe workloads — the same trio the PR 5
/// throughput bench established: plain data-parallel DP, FM-index
/// binning + search, and CDP device-side launches.
pub const ENGINE_WORKLOADS: [(&str, bool); 3] = [("SW", false), ("NvB", false), ("STAR", true)];

/// What a cell runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellKind {
    /// One suite benchmark, timed end to end.
    Engine {
        /// Benchmark abbreviation (`SW`, `NvB`, `STAR`).
        abbrev: &'static str,
        /// Run the CDP variant.
        cdp: bool,
    },
    /// The sustained-traffic serving benchmark at one offered load.
    Serve {
        /// Jobs offered per scheduling round; admission rejections are
        /// dropped (not re-offered), so this is a true offered load.
        offered_per_round: usize,
        /// Total jobs offered over the run.
        jobs: usize,
    },
}

/// One benchmark-matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Stable cell id (`engine/SW/tiny/ff`, `serve/tiny/load6/ff`).
    pub id: String,
    /// What to run.
    pub kind: CellKind,
    /// Input scale.
    pub scale: Scale,
    /// Engine-configuration axes.
    pub axes: EngineAxes,
    /// Timed iterations per cell.
    pub iters: u32,
    /// Discarded warmup runs per cell.
    pub warmup: u32,
}

/// Render a scale the way record files spell it.
pub fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    }
}

fn engine_cell(
    abbrev: &'static str,
    cdp: bool,
    scale: Scale,
    axes: EngineAxes,
    iters: u32,
) -> Cell {
    Cell {
        id: format!("engine/{abbrev}/{}/{}", scale_tag(scale), axes.label()),
        kind: CellKind::Engine { abbrev, cdp },
        scale,
        axes,
        iters,
        warmup: 1,
    }
}

fn serve_cell(load: usize, jobs: usize, devices: usize, scale: Scale, iters: u32) -> Cell {
    let axes = EngineAxes {
        n_devices: devices,
        ..EngineAxes::base()
    };
    Cell {
        id: format!("serve/{}/load{load}/{}", scale_tag(scale), axes.label()),
        kind: CellKind::Serve {
            offered_per_round: load,
            jobs,
        },
        scale,
        axes,
        iters,
        warmup: 1,
    }
}

/// The full benchmark matrix. `quick` is the CI profile: tiny scale and
/// fewer iterations/loads, but the same axes, so quick records remain
/// cell-comparable with the committed quick baseline.
pub fn matrix(quick: bool) -> Vec<Cell> {
    let scale = if quick { Scale::Tiny } else { Scale::Small };
    let engine_iters = if quick { 2 } else { 5 };
    let serve_iters = if quick { 2 } else { 3 };
    let mut cells = Vec::new();

    // Engine suite: every probe workload with fast-forward, plus a
    // fast-forward-off point quantifying what the skipper buys.
    for (abbrev, cdp) in ENGINE_WORKLOADS {
        for axes in [
            EngineAxes::base(),
            EngineAxes {
                fast_forward: false,
                ..EngineAxes::base()
            },
        ] {
            cells.push(engine_cell(abbrev, cdp, scale, axes, engine_iters));
        }
    }
    // One stream-isolation point: canonical per-kernel boundaries cost
    // a two-phase drain per kernel; this cell keeps that cost measured.
    cells.push(engine_cell(
        "SW",
        false,
        scale,
        EngineAxes {
            stream_isolation: true,
            ..EngineAxes::base()
        },
        engine_iters,
    ));

    // Serve suite: offered load sweep × device count. Loads are chosen
    // around the service's drain rate (3 workers × batches of 4) so the
    // top level saturates — the shed path is part of what is measured.
    let (loads, devices, jobs): (&[usize], &[usize], usize) = if quick {
        (&[2, 6], &[1], 24)
    } else {
        (&[2, 6, 24], &[1, 2], 96)
    };
    for &d in devices {
        for &load in loads {
            cells.push(serve_cell(load, jobs, d, scale, serve_iters));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_ids_are_unique() {
        for quick in [true, false] {
            let m = matrix(quick);
            let mut ids: Vec<&str> = m.iter().map(|c| c.id.as_str()).collect();
            ids.sort_unstable();
            let n = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), n, "duplicate cell ids in matrix");
        }
    }

    #[test]
    fn quick_matrix_covers_all_engine_workloads() {
        let m = matrix(true);
        for (abbrev, _) in ENGINE_WORKLOADS {
            assert!(
                m.iter()
                    .any(|c| matches!(c.kind, CellKind::Engine { abbrev: a, .. } if a == abbrev)),
                "quick matrix must cover {abbrev}"
            );
        }
        assert!(m.iter().any(|c| matches!(c.kind, CellKind::Serve { .. })));
    }
}
