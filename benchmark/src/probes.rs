//! Layer probes: fixed-size calls into one layer's public functions,
//! timed from outside. Each runs in the traced run of the workload whose
//! end-to-end metrics the layer should move (README, "How the metrics
//! interact"), after that workload's passes, with span recording off.
//! Iteration counts are fixed; results are medians.

use crate::tpch_bind::{self, Uploaded, QUERIES};
use crate::workload::queries::planner_options;
use crate::workload::{probe_us, timed, LayerMetrics};
use gpu_sim::{hostexec, Device, KernelCost};
use proto_core::costing::{CostModel, TableStats};
use proto_core::framework::Framework;
use proto_core::logical::LogicalPlan;
use proto_core::optimizer::{self, CostingOptions, PlannerOptions};
use proto_core::physical::PhysicalPlan;
use proto_core::resilient_plan::ResilientPlanExecutor;
use proto_core::workload as gen;
use std::hint::black_box;
use tpch::Database;

const PROBE_ROWS: usize = 1 << 21;

/// `hostexec`: radix sorts, one parallel map, one empty parallel region.
pub fn hostexec(out: &mut LayerMetrics) {
    let keys = gen::uniform_u32(PROBE_ROWS, u32::MAX, gen::SEED);
    let vals = gen::uniform_f64(PROBE_ROWS, gen::SEED);
    let low: Vec<u32> = keys.iter().map(|k| k % 256).collect();
    let per_row = |us: f64| us * 1e3 / PROBE_ROWS as f64;
    // Each repetition sorts a fresh copy; the copy is made outside the timer.
    let sort_us = |input: &[u32]| {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let mut k = input.to_vec();
                timed(|| hostexec::sort_keys(black_box(&mut k))).1
            })
            .collect();
        crate::stat::median(&times)
    };
    out.insert(
        "hostexec.sort_keys_ns_per_row".into(),
        per_row(sort_us(&keys)),
    );
    out.insert(
        "hostexec.sort_keys_lowentropy_ns_per_row".into(),
        per_row(sort_us(&low)),
    );
    let pairs: Vec<f64> = (0..5)
        .map(|_| {
            let (mut k, mut v) = (keys.clone(), vals.clone());
            timed(|| hostexec::sort_pairs(black_box(&mut k), black_box(&mut v))).1
        })
        .collect();
    out.insert(
        "hostexec.sort_pairs_ns_per_row".into(),
        per_row(crate::stat::median(&pairs)),
    );
    let map_us = probe_us(9, || {
        black_box(hostexec::par_map_vec(PROBE_ROWS, |i| vals[i] * 1.5));
    });
    out.insert("hostexec.par_map_ns_per_row".into(), per_row(map_us));
    // Four chunks, so the region really fans out to the worker threads.
    let region = 4 * hostexec::PAR_CHUNK;
    out.insert(
        "hostexec.par_dispatch_us".into(),
        probe_us(200, || {
            hostexec::par_chunks(region, 0, |r| {
                black_box(r);
            })
        }),
    );
}

/// `hostalloc`: one large block through the recycling allocator.
pub fn hostalloc_large(out: &mut LayerMetrics) {
    let us = probe_us(20, || {
        let mut v = vec![0u8; 32 << 20];
        // One write per page, so the pages are really there.
        v.iter_mut().step_by(4096).for_each(|b| *b = 1);
        black_box(&v);
    });
    out.insert("hostalloc.large_alloc_us".into(), us);
}

/// `gpu_sim::device`: bookkeeping cost of a launch and of an allocation.
pub fn device(out: &mut LayerMetrics) {
    const CALLS: usize = 10_000;
    let dev = Device::with_defaults();
    let cost = KernelCost::map::<u32, u32>(1 << 16);
    let per_call_ns = |dev: &Device| {
        probe_us(5, || {
            for _ in 0..CALLS {
                black_box(dev.charge_kernel("probe", cost));
            }
        }) * 1e3
            / CALLS as f64
    };
    out.insert("device.charge_kernel_ns".into(), per_call_ns(&dev));
    dev.set_tracing(true);
    let traced = per_call_ns(&dev);
    dev.set_tracing(false);
    dev.take_trace();
    out.insert("device.charge_kernel_traced_ns".into(), traced);
    let alloc = probe_us(5, || {
        for _ in 0..1_000 {
            black_box(dev.alloc::<u8>(1 << 20).expect("1 MiB fits"));
        }
    });
    out.insert("device.alloc_free_ns".into(), alloc * 1e3 / 1_000.0);
}

/// `gpu_sim::device`: host throughput of the transfer paths.
pub fn transfers(out: &mut LayerMetrics) {
    let dev = Device::with_defaults();
    let host = vec![1u8; 32 << 20];
    let gb = host.len() as f64 / 1e9;
    let up = probe_us(9, || {
        black_box(dev.htod(&host).expect("upload fits"));
    });
    out.insert("device.htod_gb_per_s".into(), gb / (up / 1e6));
    let buf = dev.htod(&host).expect("upload fits");
    let down = probe_us(9, || {
        black_box(dev.dtoh(&buf).expect("download"));
    });
    out.insert("device.dtoh_gb_per_s".into(), gb / (down / 1e6));
}

/// Resident base columns and the default plan of `query` on a fresh
/// backend `name`.
fn fresh_query(
    name: &str,
    query: &str,
    opts: &PlannerOptions,
    db: &Database,
) -> Option<(
    Box<dyn proto_core::backend::GpuBackend>,
    PhysicalPlan,
    Uploaded,
)> {
    let b = Framework::single_backend(&bench::paper_device(), name);
    let plan = optimizer::plan_with(query, &tpch_bind::logical(query), b.as_ref(), opts).ok()?;
    let mut up = Uploaded::default();
    up.extend(b.as_ref(), db, plan.base_columns()).ok()?;
    Some((b, plan, up))
}

/// `gpu_sim::trace`: events one traced Q1 execution records.
pub fn device_trace_events(db: &Database, out: &mut LayerMetrics) {
    let (b, plan, up) =
        fresh_query("Thrust", "Q1", &PlannerOptions::default(), db).expect("Q1 plans on Thrust");
    b.device().set_tracing(true);
    plan.execute(b.as_ref(), &up.bindings(&plan))
        .expect("Q1 executes");
    out.insert(
        "device.trace_events".into(),
        b.device().take_trace().len() as f64,
    );
}

/// `optimizer`, `costing`, `physical::explain`: per-plan host time over
/// every (backend, query) pair the backend can plan.
pub fn planner(fw: &Framework, logical: &[LogicalPlan], out: &mut LayerMetrics) {
    let pairs: Vec<(usize, usize)> = (0..fw.backends().len())
        .flat_map(|bi| (0..QUERIES.len()).map(move |qi| (bi, qi)))
        .filter(|&(bi, qi)| {
            optimizer::plan(QUERIES[qi], &logical[qi], fw.backends()[bi].as_ref()).is_ok()
        })
        .collect();
    let per_plan = |us: f64| us / pairs.len() as f64;
    let opt = probe_us(20, || {
        for l in logical {
            black_box(optimizer::optimize(l));
        }
    });
    out.insert("optimizer.optimize_us".into(), opt / logical.len() as f64);
    for (mode, metric) in [(0, "heuristic"), (1, "fusion"), (2, "costing")] {
        let opts = planner_options(mode);
        let us = probe_us(20, || {
            for &(bi, qi) in &pairs {
                let b = fw.backends()[bi].as_ref();
                black_box(
                    optimizer::plan_with(QUERIES[qi], &logical[qi], b, &opts).expect("plans"),
                );
            }
        });
        out.insert(format!("optimizer.plan_{metric}_us"), per_plan(us));
    }
    let opts = PlannerOptions::default();
    let traced = probe_us(20, || {
        for &(bi, qi) in &pairs {
            let b = fw.backends()[bi].as_ref();
            black_box(optimizer::plan_traced(QUERIES[qi], &logical[qi], b, &opts).expect("plans"));
        }
    });
    out.insert("optimizer.plan_traced_us".into(), per_plan(traced));

    let plans: Vec<PhysicalPlan> = pairs
        .iter()
        .map(|&(bi, qi)| {
            optimizer::plan(QUERIES[qi], &logical[qi], fw.backends()[bi].as_ref()).expect("plans")
        })
        .collect();
    let model = CostModel::new(&bench::paper_device(), &TableStats::new());
    let cost = probe_us(20, || {
        for p in &plans {
            black_box(model.cost_plan(p));
        }
    });
    out.insert("costing.cost_plan_us".into(), per_plan(cost));
    let explain = probe_us(20, || {
        for p in &plans {
            black_box(p.explain());
        }
    });
    out.insert("physical.explain_us".into(), per_plan(explain));
}

/// `costing`: the coster's cold-run prediction against the simulator, at
/// true table sizes and default selectivities, on fresh devices. This is
/// coster-vs-simulator; the simulator itself is unvalidated (README).
pub fn cost_error(db: &Database, out: &mut LayerMetrics) {
    let stats = [
        "lineitem", "orders", "customer", "nation", "supplier", "part",
    ]
    .iter()
    .fold(TableStats::new(), |s, t| {
        s.with_rows(t, tpch_bind::table_rows(db, t) as usize)
    });
    let opts = PlannerOptions {
        costing: Some(CostingOptions::new(&bench::paper_device(), stats)),
        ..PlannerOptions::default()
    };
    let mut worst: f64 = 0.0;
    for (_, name) in crate::registry::BACKENDS {
        for query in QUERIES {
            let Some((b, plan, up)) = fresh_query(name, query, &opts, db) else {
                continue;
            };
            let predicted = plan
                .cost_report()
                .expect("costed plans carry a report")
                .cold_ns();
            let dev = b.device();
            let t0 = dev.now();
            plan.execute(b.as_ref(), &up.bindings(&plan))
                .expect("executes");
            let simulated = (dev.now() - t0).as_nanos();
            worst = worst.max((predicted as f64 - simulated as f64).abs() / simulated as f64);
        }
    }
    out.insert("costing.pred_error_pct".into(), worst * 100.0);
}

/// `tpch::gen`: one generation at the workload's scale factor.
pub fn tpch_gen(sf: f64, out: &mut LayerMetrics) {
    let mut rows = 0;
    let us = probe_us(3, || {
        rows = black_box(tpch::generate_seeded(sf, tpch::gen::SEED))
            .lineitem
            .len();
    });
    out.insert("tpch_gen.generate_ms".into(), us / 1e3);
    out.insert("tpch_gen.rows_per_s".into(), rows as f64 / (us / 1e6));
}

/// `core::workload`: the five generators the grid's operator cells use.
pub fn workload_gen(out: &mut LayerMetrics) {
    const N: usize = 1 << 20;
    let us = probe_us(3, || {
        black_box(gen::uniform_u32(N, 1 << 20, gen::SEED));
        black_box(gen::uniform_f64(N, gen::SEED));
        black_box(gen::zipf_keys(N, 4096, 0.5, gen::SEED));
        black_box(gen::fk_join(N, N, gen::SEED));
        black_box(gen::selectivity_column(N, 0.5, gen::SEED));
    });
    out.insert("workload.gen_ms".into(), us / 1e3);
}

/// `gpu_lint`: translation validation and trace replay over the lint grid
/// — ROADMAP's "lint wall time as its own line".
pub fn gpu_lint(out: &mut LayerMetrics) {
    let (translation, us) = timed(bench::plan_lint::translation_reports);
    out.insert("gpu_lint.translation_ms".into(), us / 1e3);
    let cfg = bench::traced::lint_config();
    let waivers = bench::traced::golden_waivers();
    let (mut reports, us) = timed(|| {
        let mut reports = Vec::new();
        for exp in bench::traced::EXPERIMENTS {
            for cell in bench::traced::traced_experiment(&cfg, exp) {
                let mut report = gpu_lint::lint_trace(&cell.label, &cell.trace);
                report.waive(&waivers);
                reports.push(report);
            }
        }
        reports
    });
    out.insert("gpu_lint.trace_replay_ms".into(), us / 1e3);
    reports.extend(translation);
    out.insert("gpu_lint.targets".into(), reports.len() as f64);
    out.insert(
        "gpu_lint.errors".into(),
        reports.iter().map(|r| r.errors()).sum::<usize>() as f64,
    );
}

/// `resilient_plan`: the executor with no faults against the bare
/// interpreter, same plan, same resident columns.
pub fn wrap_overhead(db: &Database, out: &mut LayerMetrics) {
    let (b, plan, up) = fresh_query("Handwritten", "Q1", &PlannerOptions::default(), db)
        .expect("Q1 plans on Handwritten");
    let binds = up.bindings(&plan);
    let exec = ResilientPlanExecutor::default();
    let bare = probe_us(30, || {
        black_box(plan.execute(b.as_ref(), &binds).expect("executes"));
    });
    let wrapped = probe_us(30, || {
        black_box(exec.execute(b.as_ref(), &plan, &binds).expect("executes"));
    });
    out.insert(
        "resilient_plan.wrap_overhead_pct".into(),
        (wrapped / bare - 1.0) * 100.0,
    );
}
