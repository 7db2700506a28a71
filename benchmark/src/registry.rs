//! Every workload and metric the harness reports, by name.
//!
//! `BENCHMARK.json` at the repository root is generated from this table
//! (`harness --emit-benchmark-json`) and a unit test keeps the two equal.

use crate::json::Value;

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;

/// The seed the committed `expected/*.sim.json` goldens were taken at.
pub const DEFAULT_SEED: u64 = 1;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed passes of a run of [`RUN_SECONDS`]: a fixed count, sized so
    /// that they take about that long on the development box in a quiet
    /// hour (`SPREAD.md`), never derived from how fast the code runs.
    pub passes: usize,
    /// Times set-up is repeated in each of a run's two rounds, before and
    /// after the timed region; sized so that both together take about a
    /// second, or a third of one where a set-up takes milliseconds.
    pub setup_repeats: usize,
}

impl WorkloadDef {
    /// Timed passes of a run of `seconds`: the count scales with the
    /// measuring time asked for and with nothing that is measured.
    pub fn passes_for(&self, seconds: f64) -> usize {
        let scaled = self.passes as f64 * seconds / RUN_SECONDS as f64;
        (scaled.round() as usize).max(1)
    }
}

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub static WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "grid_full",
        why:
            "The all_experiments paper regeneration on min(nproc, 4) grid workers: the only run \
              where sched, workload::cache, datagen and the fresh-device fault cells all take part.",
        // One cold regeneration is what `all_experiments` costs; a second
        // one in the same process would find caches and free lists warm.
        passes: 1,
        setup_repeats: 3,
    },
    WorkloadDef {
        name: "ops_scan",
        why: "4 backends x 10 operators (+2 data shapes) on 2^20 resident rows: kernel bodies, \
              hostexec and hostalloc do the work and the planner none; roadmap E's target.",
        passes: 10,
        setup_repeats: 4,
    },
    WorkloadDef {
        name: "queries_plan",
        why: "Six TPC-H queries at SF 0.002 in 3 planner modes: overhead-bound, so optimizer, \
              costing, physical and per-launch bookkeeping dominate; roadmap B/C's target.",
        passes: 24,
        setup_repeats: 50,
    },
    WorkloadDef {
        name: "queries_scan",
        why: "The same queries at SF 0.05: throughput-bound planned path where planning is \
              under 1 %; a planner change must not move it, a kernel change must.",
        passes: 28,
        setup_repeats: 5,
    },
    WorkloadDef {
        name: "queries_faulted",
        why: "Q1/Q6 through retry, partition and fallback recovery at 0 and 50 permille faults: \
              a plain-path gain that costs recovery shows here and nowhere else.",
        passes: 20,
        setup_repeats: 25,
    },
];

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median; end-to-end only.
    pub bound: Option<f64>,
    pub about: &'static str,
}

fn e2e(
    name: &str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
        about,
    }
}

fn layer(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
        about,
    }
}

/// Metrics a user of the system sees; every workload reports all of them,
/// none is ever 0 and no two carry the same quantity. The bounds come from
/// the measured rows of `SPREAD.md`.
///
/// Latency percentiles and rates are not here. A run is a fixed batch, so
/// calls per second and rows per second are schedule constants divided by
/// `wall_s` (printed as notes), and `grid_full` makes one call, whose
/// latency is `wall_s` again: the percentiles are `call.*` per layer.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        e2e("setup_s", "s", "lower", 0.25,
            "datagen + framework + uploads before the timed region; median of a fixed number of repeats, half before it and half after"),
        e2e("wall_s", "s", "lower", 0.25,
            "host seconds inside the timed calls of the run's fixed number of passes, per pass (mean: every pass counts)"),
        e2e("cpu_s", "s", "lower", 0.25,
            "user+sys CPU seconds (/proc/self/stat) over the same passes, answer checks included, per pass"),
        e2e("peak_rss_mb", "MiB", "lower", 0.20,
            "peak resident set size (VmHWM) of the workload's process"),
    ]
}

/// Operators timed per backend on `ops_scan`, in schedule order. The last
/// two are data shapes of `sort` and `grouped_sum`.
pub const OPS: [&str; 12] = [
    "selection",
    "selection_multi",
    "sort",
    "sort_by_key",
    "grouped_sum",
    "reduction",
    "prefix_sum",
    "product",
    "join",
    "fused_filter_agg",
    "sort_sorted",
    "grouped_sum_distinct",
];

/// `(metric prefix, framework name)` of the four paper backends.
pub const BACKENDS: [(&str, &str); 4] = [
    ("arrayfire", "ArrayFire"),
    ("boost", "Boost.Compute"),
    ("thrust", "Thrust"),
    ("handwritten", "Handwritten"),
];

/// Grid sections reported on their own; the rest sum into `grid.other_ms`.
pub const GRID_SECTIONS: [&str; 8] = ["E3", "E5a", "E5b", "E6", "E7", "E14", "E15", "A2"];

/// Metrics of single layers, from the traced run. A metric prints 0 on a
/// workload that does not exercise its layer.
pub fn per_layer() -> Vec<MetricDef> {
    let mut m = vec![
        // tpch_gen / workload — set-up cost.
        layer(
            "tpch_gen.generate_ms",
            "ms",
            "lower",
            "tpch::generate_seeded at the workload's scale factor",
        ),
        layer(
            "tpch_gen.rows_per_s",
            "1/s",
            "higher",
            "lineitem rows generated per host second",
        ),
        layer(
            "workload.gen_ms",
            "ms",
            "lower",
            "uniform_u32 + uniform_f64 + zipf_keys + fk_join + selectivity_column at 2^20 rows",
        ),
        // hostexec — probes on 2^21 rows.
        layer(
            "hostexec.sort_keys_ns_per_row",
            "ns",
            "lower",
            "sort_keys on uniform u32 keys",
        ),
        layer(
            "hostexec.sort_pairs_ns_per_row",
            "ns",
            "lower",
            "sort_pairs on (u32, f64) pairs",
        ),
        layer(
            "hostexec.sort_keys_lowentropy_ns_per_row",
            "ns",
            "lower",
            "sort_keys on keys below 256 (radix passes can skip)",
        ),
        layer(
            "hostexec.par_map_ns_per_row",
            "ns",
            "lower",
            "par_map_vec of one multiply per row",
        ),
        layer(
            "hostexec.par_dispatch_us",
            "us",
            "lower",
            "par_chunks with an empty body: cost of one parallel region",
        ),
        // hostalloc — process-wide counters over the timed region.
        layer(
            "hostalloc.hits",
            "count",
            "higher",
            "large blocks served from the free lists, per pass",
        ),
        layer(
            "hostalloc.misses",
            "count",
            "lower",
            "large blocks that went to the system allocator, per pass",
        ),
        layer(
            "hostalloc.evictions",
            "count",
            "lower",
            "freed blocks a full bucket returned to the system, per pass",
        ),
        layer(
            "hostalloc.large_alloc_us",
            "us",
            "lower",
            "allocate, touch and drop one 32 MiB Vec",
        ),
        // device — gpu_sim::device / pool / trace / stats.
        layer(
            "device.charge_kernel_ns",
            "ns",
            "lower",
            "host cost of one Device::charge_kernel",
        ),
        layer(
            "device.charge_kernel_traced_ns",
            "ns",
            "lower",
            "the same with set_tracing(true)",
        ),
        layer(
            "device.alloc_free_ns",
            "ns",
            "lower",
            "host cost of one 1 MiB alloc + drop on a warm pool",
        ),
        layer(
            "device.htod_gb_per_s",
            "GB/s",
            "higher",
            "host throughput of Device::htod on 32 MiB",
        ),
        layer(
            "device.dtoh_gb_per_s",
            "GB/s",
            "higher",
            "host throughput of Device::dtoh on 32 MiB",
        ),
        layer(
            "device.launches",
            "count",
            "lower",
            "simulated kernel launches per pass",
        ),
        layer(
            "device.host_ns_per_launch",
            "ns",
            "lower",
            "host time in timed calls / simulated launches",
        ),
        layer(
            "device.pool_hit_ratio",
            "ratio",
            "higher",
            "simulated pool hits / (hits + driver allocations), per pass",
        ),
        layer(
            "device.trace_events",
            "count",
            "lower",
            "gpu_sim::trace events one traced query records",
        ),
        // sim — the modelled device, exact.
        layer(
            "sim.total_ns",
            "sim_ns",
            "lower",
            "simulated device ns of the timed calls of one pass (the paper's clock)",
        ),
        layer(
            "sim.kernel_ns",
            "sim_ns",
            "lower",
            "simulated kernel execution ns per pass",
        ),
        layer(
            "sim.jit_ns",
            "sim_ns",
            "lower",
            "simulated JIT compile ns per pass",
        ),
        layer(
            "sim.transfer_bytes",
            "B",
            "lower",
            "simulated PCIe bytes per pass",
        ),
        layer(
            "sim.kernel_bytes",
            "B",
            "lower",
            "simulated global-memory bytes per pass",
        ),
        layer(
            "sim.allocs",
            "count",
            "lower",
            "simulated driver allocations (pool misses) per pass",
        ),
        layer(
            "sim.mem_peak_bytes",
            "B",
            "lower",
            "largest simulated device footprint of any device",
        ),
        layer(
            "sim.mismatches",
            "count",
            "lower",
            "cells whose simulated (ns, launches, bytes) differ from the golden or between passes",
        ),
    ];
    for (prefix, _) in BACKENDS {
        for op in OPS {
            m.push(layer(
                format!("{prefix}.{op}_ns_per_row"),
                "ns",
                "lower",
                "host ns per input row of the operator at 2^20 rows; median over passes",
            ));
        }
        m.push(layer(
            format!("{prefix}.op_fixed_us"),
            "us",
            "lower",
            "mean host latency of the ten operators at 4096 rows: the per-call cost",
        ));
    }
    m.extend([
        // optimizer / costing.
        layer(
            "optimizer.optimize_us",
            "us",
            "lower",
            "optimizer::optimize over the six logical plans, per plan",
        ),
        layer(
            "optimizer.plan_heuristic_us",
            "us",
            "lower",
            "plan_with(PlannerOptions::default()), per plan",
        ),
        layer(
            "optimizer.plan_fusion_us",
            "us",
            "lower",
            "plan_with(FusionPolicy::on()), per plan",
        ),
        layer(
            "optimizer.plan_costing_us",
            "us",
            "lower",
            "plan_with(CostingOptions), per plan",
        ),
        layer(
            "optimizer.plan_traced_us",
            "us",
            "lower",
            "plan_traced (certificates on), per plan",
        ),
        layer(
            "costing.cost_plan_us",
            "us",
            "lower",
            "CostModel::cost_plan, per plan",
        ),
        layer(
            "costing.pred_error_pct",
            "%",
            "lower",
            "max |predicted - simulated| / simulated over the queries (coster vs simulator)",
        ),
        // physical.
        layer(
            "physical.execute_us",
            "us",
            "lower",
            "median PhysicalPlan::execute span",
        ),
        layer(
            "physical.explain_us",
            "us",
            "lower",
            "PhysicalPlan::explain, per plan",
        ),
        layer(
            "physical.steps",
            "count",
            "lower",
            "plan steps executed per pass",
        ),
        layer(
            "physical.host_us_per_step",
            "us",
            "lower",
            "interpreter self time / steps",
        ),
        // resilient_plan / resilient.
        layer(
            "resilient_plan.wrap_overhead_pct",
            "%",
            "lower",
            "executor at 0 permille vs bare PhysicalPlan::execute",
        ),
        layer(
            "resilient_plan.retries",
            "count",
            "lower",
            "step retries per pass",
        ),
        layer(
            "resilient_plan.partitions",
            "count",
            "lower",
            "plan partitionings per pass",
        ),
        layer(
            "resilient_plan.fallbacks",
            "count",
            "lower",
            "lane fallbacks per pass",
        ),
        layer(
            "resilient_plan.useful_step_ratio",
            "ratio",
            "higher",
            "steps completed / steps attempted (completed + retried)",
        ),
        layer(
            "resilient.execute_us",
            "us",
            "lower",
            "median Q6 through core::resilient::ResilientBackend",
        ),
        // sched / grid.
        layer("sched.busy_s", "s", "lower", "summed cell time of the grid"),
        layer(
            "sched.efficiency",
            "ratio",
            "higher",
            "busy / (wall x jobs)",
        ),
        layer("sched.cells", "count", "higher", "grid cells executed"),
        layer(
            "sched.critical_lane_s",
            "s",
            "lower",
            "longest backend lane's summed cell time",
        ),
    ]);
    for s in GRID_SECTIONS {
        m.push(layer(
            format!("grid.{s}_ms"),
            "ms",
            "lower",
            "summed cell time of the experiment",
        ));
    }
    m.extend([
        layer(
            "grid.other_ms",
            "ms",
            "lower",
            "summed cell time of every other experiment",
        ),
        // gpu_lint.
        layer(
            "gpu_lint.translation_ms",
            "ms",
            "lower",
            "plan_lint::translation_reports",
        ),
        layer(
            "gpu_lint.trace_replay_ms",
            "ms",
            "lower",
            "traced::traced_experiment + lint_trace over the lint grid",
        ),
        layer("gpu_lint.targets", "count", "higher", "targets linted"),
        layer("gpu_lint.errors", "count", "lower", "error diagnostics"),
        // Span accounting of the traced passes.
        layer(
            "self.backend_pct",
            "%",
            "lower",
            "kernel-body self time (GpuBackend calls) / traced pass wall",
        ),
        layer(
            "self.planner_pct",
            "%",
            "lower",
            "optimizer + costing self time / traced pass wall",
        ),
        layer(
            "self.physical_pct",
            "%",
            "lower",
            "plan interpreter self time / traced pass wall",
        ),
        layer(
            "self.resilient_pct",
            "%",
            "lower",
            "recovery executor self time / traced pass wall",
        ),
        layer(
            "self.harness_pct",
            "%",
            "lower",
            "harness self time (loop, bindings, answer checks) / traced pass wall",
        ),
        layer(
            "self.attributed_pct",
            "%",
            "higher",
            "sum of all layer self times / traced pass wall",
        ),
        layer(
            "harness.trace_overhead_pct",
            "%",
            "lower",
            "traced vs untraced wall_s of the same run",
        ),
        layer(
            "call.p50_us",
            "us",
            "lower",
            "median host latency of one call, planning included, over every call of the untraced passes",
        ),
        layer(
            "call.tail_us",
            "us",
            "lower",
            "latency at the highest percentile (<= p99.9) with >= 10 of those calls beyond it",
        ),
        layer(
            "call.samples",
            "count",
            "higher",
            "calls behind the two latency percentiles",
        ),
        layer(
            "call.tail_level",
            "%",
            "higher",
            "percentile call.tail_us is read at",
        ),
    ]);
    m
}

/// The end-to-end metric a per-layer metric should move, and on which
/// workload; `BENCHMARK.json` has no field for it, so `--list` prints it.
pub fn moves(name: &str) -> &'static str {
    let (layer, rest) = name.split_once('.').unwrap_or((name, ""));
    match (layer, rest) {
        ("tpch_gen" | "workload", _) => "setup_s on queries_*, ops_scan; wall_s on grid_full",
        ("hostexec", "par_dispatch_us") => "wall_s on queries_plan; none on ops_scan",
        ("hostexec", _) => "wall_s, cpu_s on ops_scan, queries_scan, grid_full",
        ("hostalloc", _) => {
            "wall_s, peak_rss_mb on ops_scan, queries_scan, grid_full; none on queries_plan"
        }
        ("device", "htod_gb_per_s" | "dtoh_gb_per_s") => "setup_s on queries_scan",
        ("device", _) => "wall_s on queries_plan; none on ops_scan",
        ("sim", _) => "none on the host clock; a host-speed change leaves it identical",
        ("arrayfire" | "boost" | "thrust" | "handwritten", "op_fixed_us") => {
            "wall_s on queries_plan; none on ops_scan"
        }
        ("arrayfire" | "boost" | "thrust" | "handwritten", _) => {
            "wall_s, cpu_s on ops_scan, queries_scan, grid_full; none on queries_plan"
        }
        ("optimizer" | "costing", _) => {
            "wall_s on queries_plan; under 1 % on queries_scan; none on ops_scan"
        }
        ("physical", _) => "wall_s on queries_plan",
        ("resilient_plan" | "resilient", _) => "wall_s on queries_faulted only",
        ("sched" | "grid", _) => "wall_s, cpu_s on grid_full",
        ("gpu_lint", _) => "none; tracked as a line of its own",
        ("call", _) => "wall_s of the same workload, which is the sum of its calls",
        ("self" | "harness", _) => "none; accounting of the traced run",
        _ => "",
    }
}

fn metric_json(m: &MetricDef) -> Value {
    let mut fields = vec![
        ("name", Value::Str(m.name.clone())),
        ("unit", Value::Str(m.unit.to_string())),
        ("better", Value::Str(m.better.to_string())),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Value::Num(b)));
    }
    Value::obj(fields)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![
                Value::Str("bash".into()),
                Value::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Value::Arr(vec![Value::Str("benchmark".into())])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::obj([
                            ("name", Value::Str(w.name.to_string())),
                            ("why", Value::Str(w.why.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(end_to_end().iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        let (e, l) = (end_to_end(), per_layer());
        assert!((1..=16).contains(&e.len()));
        assert!(
            (1..=128).contains(&l.len()),
            "{} per-layer metrics",
            l.len()
        );
        let mut seen = BTreeSet::new();
        for m in e.iter().chain(&l) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &e {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        for w in &WORKLOADS {
            assert!(
                valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        for m in per_layer() {
            assert!(!moves(&m.name).is_empty(), "{}", m.name);
        }
    }

    #[test]
    fn pass_count_follows_the_seconds_asked_for_and_nothing_else() {
        let w = workload("queries_plan").unwrap();
        assert_eq!(w.passes_for(RUN_SECONDS as f64), w.passes);
        assert_eq!(w.passes_for(RUN_SECONDS as f64 / 2.0), w.passes / 2);
        assert_eq!(w.passes_for(0.0), 1);
        assert_eq!(
            workload("grid_full")
                .unwrap()
                .passes_for(RUN_SECONDS as f64),
            1
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `harness --emit-benchmark-json`"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
