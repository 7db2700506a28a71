//! Trace capture for `gpu-lint`: replay the cells of an experiment-table
//! row ([`crate::experiments::TABLE`]) on fresh, tracing-enabled devices
//! and hand back each cell's drained event stream.
//!
//! Cells here are *observation* runs of the very cell descriptions the
//! grid schedules: every cell gets its own devices — lane cells too — so
//! its trace is a self-contained buffer-lifetime story (all allocations
//! and frees inside one window), which is what the lint passes analyse.
//! Simulated timings therefore differ from the grid's accumulated-state
//! lanes — that is fine, no sample from this path is ever emitted; the
//! measurement path ([`crate::grid::run`]) is untouched.

use std::sync::Arc;

use crate::experiments::emitting_row;
pub use crate::experiments::EXPERIMENTS;
use crate::grid::GridConfig;

/// One experiment cell's captured device trace.
pub struct TracedCell {
    /// `experiment/backend` label (E17 cells include the fault rate).
    pub label: String,
    /// The cell's drained trace, in recording order.
    pub trace: Vec<gpu_sim::TraceEvent>,
}

impl std::fmt::Debug for TracedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TracedCell({}, {} events)", self.label, self.trace.len())
    }
}

/// A complete-coverage configuration small enough for the lint gate:
/// every sweep keeps its structure (multiple sizes, selectivities, fault
/// rates) at row counts that replay in seconds.
pub fn lint_config() -> GridConfig {
    GridConfig {
        sizes: vec![1 << 12, 1 << 14],
        sels: vec![0.25, 0.75],
        e4_n: 1 << 12,
        groups: vec![16, 256],
        e6_n: 1 << 12,
        join_sizes: vec![1 << 10],
        e9_n: 1 << 12,
        e9_preds: vec![1, 3],
        validate_sf: 0.001,
        sfs: vec![0.001],
        e13_sf: 0.002,
        e15_n: 1 << 12,
        e17_sf: 0.001,
        e17_rates: vec![0, 50],
        e19_sf: 0.001,
        e19_rates: vec![0, 50],
        e20_sizes: vec![1 << 12, 1 << 14],
        e21_sizes: vec![1 << 12],
        e21_join_sizes: vec![1 << 10],
        a1_n: 1 << 12,
        a2_ks: vec![1, 4],
        a2_n: 1 << 12,
        a3_n: 1 << 12,
        a4_n: 1 << 12,
        a4_sels: vec![0.25, 0.75],
    }
}

/// Findings that are **by design** in the golden experiment grid, each
/// with the why. Keep this table minimal: a new entry needs the same
/// scrutiny as an `#[allow]` in source.
pub fn golden_waivers() -> Vec<gpu_lint::Waiver> {
    vec![
        // E5a sorts keys only, but stages the full (key, value) dataset
        // because the transfer-inclusive metric prices moving both
        // columns, as the paper does — the value column is consumed by
        // the metric, not by a kernel.
        gpu_lint::Waiver::new(
            "E5a/",
            gpu_lint::Rule::DeadHostToDevice,
            "keys-only sort stages the value column for the transfer-inclusive metric",
        ),
    ]
}

/// Run one experiment's cells (see [`EXPERIMENTS`]) on fresh traced
/// devices and return each cell's trace, labelled `id/cell` — a cell
/// that also builds a replica device yields a second `…/replica` trace.
///
/// # Panics
/// On an unknown experiment id.
pub fn traced_experiment(cfg: &GridConfig, exp: &str) -> Vec<TracedCell> {
    let (_, row) = emitting_row(exp);
    let mut traced = Vec::new();
    for cell in row.cells(&Arc::new(cfg.clone())) {
        let label = format!("{exp}/{}", cell.label);
        for (suffix, trace) in cell.run(None, true).1 {
            traced.push(TracedCell {
                label: format!("{label}{suffix}"),
                trace,
            });
        }
    }
    traced
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_cells_capture_balanced_buffer_stories() {
        let cfg = lint_config();
        let cells = traced_experiment(&cfg, "E3");
        assert_eq!(cells.len(), 4, "one cell per backend");
        for cell in &cells {
            assert!(!cell.trace.is_empty(), "{}: empty trace", cell.label);
            let allocs = cell
                .trace
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        gpu_sim::TraceKind::Alloc { .. } | gpu_sim::TraceKind::PoolAlloc { .. }
                    )
                })
                .count();
            let frees = cell
                .trace
                .iter()
                .filter(|e| matches!(e.kind, gpu_sim::TraceKind::Free { .. }))
                .count();
            assert_eq!(allocs, frees, "{}: unbalanced lifetimes", cell.label);
        }
    }

    /// Every lint target the replay produced at [`lint_config`] when the
    /// cells were a hand-written `match` (PR 14), in `gpu_lint`'s order.
    const LINT_LABELS: &str = "
E3/ArrayFire E3/Boost.Compute E3/Thrust E3/Handwritten E4/ArrayFire E4/Boost.Compute
E4/Thrust E4/Handwritten E5a/ArrayFire E5a/Boost.Compute E5a/Thrust E5a/Handwritten
E5b/ArrayFire E5b/Boost.Compute E5b/Thrust E5b/Handwritten E6/ArrayFire E6/Boost.Compute
E6/Thrust E6/Handwritten E7/ArrayFire E7/Boost.Compute E7/Thrust E7/Handwritten
E8/ArrayFire E8/Boost.Compute E8/Thrust E8/Handwritten E9a/ArrayFire E9a/Boost.Compute
E9a/Thrust E9a/Handwritten E9b/ArrayFire E9b/Boost.Compute E9b/Thrust E9b/Handwritten
E10/ArrayFire E10/Boost.Compute E10/Thrust E10/Handwritten E11/ArrayFire
E11/Boost.Compute E11/Thrust E11/Handwritten E12/ArrayFire E12/Boost.Compute E12/Thrust
E12/Handwritten E13/ArrayFire E13/Boost.Compute E13/Thrust E13/Handwritten E14/ArrayFire
E14/Boost.Compute E14/Thrust E14/Handwritten E15/ArrayFire E15/Boost.Compute E15/Thrust
E15/Handwritten E17/r0/ArrayFire E17/r0/Boost.Compute E17/r0/Thrust E17/r0/Handwritten
E17/r50/ArrayFire E17/r50/Boost.Compute E17/r50/Thrust E17/r50/Handwritten
E19/r0/retry/ArrayFire E19/r0/retry/Boost.Compute E19/r0/retry/Thrust
E19/r0/retry/Handwritten E19/r0/partition/ArrayFire E19/r0/partition/Boost.Compute
E19/r0/partition/Thrust E19/r0/partition/Handwritten E19/r0/fallback/ArrayFire
E19/r0/fallback/ArrayFire/replica E19/r0/fallback/Boost.Compute
E19/r0/fallback/Boost.Compute/replica E19/r0/fallback/Thrust
E19/r0/fallback/Thrust/replica E19/r0/fallback/Handwritten
E19/r0/fallback/Handwritten/replica E19/r50/retry/ArrayFire E19/r50/retry/Boost.Compute
E19/r50/retry/Thrust E19/r50/retry/Handwritten E19/r50/partition/ArrayFire
E19/r50/partition/Boost.Compute E19/r50/partition/Thrust E19/r50/partition/Handwritten
E19/r50/fallback/ArrayFire E19/r50/fallback/ArrayFire/replica
E19/r50/fallback/Boost.Compute E19/r50/fallback/Boost.Compute/replica
E19/r50/fallback/Thrust E19/r50/fallback/Thrust/replica E19/r50/fallback/Handwritten
E19/r50/fallback/Handwritten/replica E20/ArrayFire E20/Boost.Compute E20/Thrust
E20/Handwritten E21/n4096/ArrayFire/composed E21/n4096/ArrayFire/fused
E21/n4096/Boost.Compute/composed E21/n4096/Boost.Compute/fused E21/n4096/Thrust/composed
E21/n4096/Thrust/fused E21/n4096/Handwritten/composed E21/n4096/Handwritten/fused
E21/j1024/Hash E21/j1024/Merge E21/j1024/NestedLoops A1/ArrayFire A1/Boost.Compute
A1/Thrust A1/Handwritten A2/k1/ArrayFire A2/k1/Thrust A2/k4/ArrayFire A2/k4/Thrust
A3/ArrayFire A3/Boost.Compute A3/Thrust A3/Handwritten A4/Thrust
";

    #[test]
    fn the_replay_yields_the_committed_lint_targets() {
        let cfg = lint_config();
        let got: Vec<String> = EXPERIMENTS
            .iter()
            .flat_map(|exp| traced_experiment(&cfg, exp))
            .map(|cell| cell.label)
            .collect();
        let want: Vec<&str> = LINT_LABELS.split_whitespace().collect();
        assert_eq!(want.len(), 128);
        assert_eq!(got, want);
    }

    #[test]
    fn tracing_never_perturbs_measurements() {
        // The same cells, traced and untraced, must produce identical
        // samples: analysis is observation-only. A3 runs on fresh
        // backends, A2 on bare devices.
        let cfg = Arc::new(lint_config());
        for id in ["A2", "A3"] {
            let (_, row) = emitting_row(id);
            let csv = |traced: bool| {
                let (outs, traces): (Vec<_>, Vec<_>) = row
                    .cells(&cfg)
                    .into_iter()
                    .map(|cell| cell.run(None, traced))
                    .unzip();
                let recorded = traces.iter().flatten().all(|(_, t)| !t.is_empty());
                assert_eq!(recorded, traced, "{id}: traces recorded iff asked for");
                row.assemble(&cfg, outs)[0].to_csv()
            };
            assert_eq!(csv(false), csv(true), "{id}");
        }
    }
}
