//! `queries_faulted` — Q1 and Q6 through the recovery layers.
//!
//! The same executor and kernels as the plain planned path, driven through
//! checkpoint / retry / partition / fallback: `ResilientPlanExecutor` in
//! E19's three modes at 0 and 50 permille injected faults, plus Q6 through
//! the operator-level `core::resilient::ResilientBackend` (E17's shape).
//! Every cell runs on fresh devices, as E17/E19 do, so a pass is the same
//! work every time. A plain-path gain that costs recovery, or a merge of
//! `resilient` into `resilient_plan`, shows here and nowhere else.

use super::{timed, Call, Config, LayerMetrics, PassOut, SimMark, Workload};
use crate::registry::BACKENDS;
use crate::tracing_backend::TracingBackend;
use crate::{probes, span, stat};
use gpu_sim::{FaultPlan, Result};
use proto_core::backend::GpuBackend;
use proto_core::framework::Framework;
use proto_core::resilient::RetryPolicy;
use proto_core::resilient_plan::{PlanRecovery, ResilientPlanExecutor};
use proto_core::workload::SEED;
use tpch::queries::close;
use tpch::queries::q1::{self, Q1Data, Q1Row};
use tpch::queries::q6::{self, Q6Data};
use tpch::Database;

const SCALE_FACTOR: f64 = 0.01;
const RATES_PERMILLE: [u64; 2] = [0, 50];
/// E19's three executor configurations, then E17's operator-level wrapper.
const MODES: [&str; 4] = ["retry", "partition", "fallback", "operator"];
/// Executions per cell and pass.
const ITERATIONS: usize = 3;

/// As in E17/E19: backoff is simulated time, so a deep budget is cheap and
/// no query ever runs out of retries.
fn deep_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 60,
        ..RetryPolicy::default()
    }
}

fn executor(mode: &str, db: &Database) -> ResilientPlanExecutor {
    let recovery = match mode {
        "retry" => PlanRecovery {
            retry: deep_retry(),
            ..PlanRecovery::default()
        },
        // About four partitions, by E19's sizing argument.
        "partition" => PlanRecovery {
            retry: deep_retry(),
            mem_budget_bytes: Some(db.lineitem.len() as u64 * 80),
            ..PlanRecovery::default()
        },
        // No in-place retry: the first fault kills the lane and the
        // fault-free replica resumes from the last checkpoint.
        "fallback" => PlanRecovery {
            retry: RetryPolicy::no_retry(),
            ..PlanRecovery::default()
        },
        other => unreachable!("no plan executor for mode {other}"),
    };
    ResilientPlanExecutor::new(recovery)
}

#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Q1(Vec<Q1Row>),
    Q6(f64),
}

impl Answer {
    fn close_to(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Q6(a), Answer::Q6(b)) => close(*a, *b),
            (Answer::Q1(a), Answer::Q1(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        (x.returnflag, x.linestatus, x.count)
                            == (y.returnflag, y.linestatus, y.count)
                            && close(x.sum_qty, y.sum_qty)
                            && close(x.sum_base_price, y.sum_base_price)
                            && close(x.sum_disc_price, y.sum_disc_price)
                            && close(x.sum_charge, y.sum_charge)
                            && close(x.avg_disc, y.avg_disc)
                    })
            }
            _ => false,
        }
    }
}

struct Cell {
    backend: usize,
    /// `"Q1"` or `"Q6"`.
    query: &'static str,
    mode: &'static str,
    permille: u64,
}

/// Resident working sets of one cell: the primary's and, in fallback
/// mode, the replica's. Q1's partition mode stages every chunk from the
/// host, so it uploads nothing.
enum Data {
    Q1(Option<Q1Data>, Option<Q1Data>),
    Q6(Q6Data, Option<Q6Data>),
}

/// Fresh devices, resident data and executor of one cell.
struct Rig {
    primary: Box<dyn GpuBackend>,
    spare: Option<Box<dyn GpuBackend>>,
    data: Data,
    exec: ResilientPlanExecutor,
}

impl Rig {
    fn build(cell: &Cell, db: &Database) -> Rig {
        let spec = bench::paper_device();
        let name = BACKENDS[cell.backend].1;
        let operator = cell.mode == "operator";
        let primary = if operator {
            Framework::single_backend_resilient(&spec, name, deep_retry())
        } else {
            Framework::single_backend(&spec, name)
        };
        // The replica is the same backend on its own fault-free device,
        // so a fallback's answer stays bit-identical.
        let spare = (cell.mode == "fallback").then(|| Framework::single_backend(&spec, name));
        let install = || {
            if cell.permille > 0 {
                primary.device().install_fault_plan(FaultPlan::uniform(
                    SEED ^ (31 * cell.permille),
                    cell.permille as f64 / 1000.0,
                ));
            }
        };
        // E17 injects during the upload too (the wrapper retries it);
        // E19 uploads first.
        if operator {
            install();
        }
        let data = if cell.query == "Q1" {
            let up = |b: &dyn GpuBackend| Q1Data::upload(b, db).expect("upload Q1");
            Data::Q1(
                (cell.mode != "partition").then(|| up(primary.as_ref())),
                spare.as_deref().map(up),
            )
        } else {
            let up = |b: &dyn GpuBackend| Q6Data::upload(b, db).expect("upload Q6");
            Data::Q6(up(primary.as_ref()), spare.as_deref().map(up))
        };
        if !operator {
            install();
        }
        let exec = if operator {
            ResilientPlanExecutor::default()
        } else {
            executor(cell.mode, db)
        };
        Rig {
            primary,
            spare,
            data,
            exec,
        }
    }

    /// One timed call.
    fn execute(&self, mode: &str, db: &Database) -> Result<Answer> {
        let (tb, tsb);
        let (b, sb): (&dyn GpuBackend, Option<&dyn GpuBackend>) = if span::enabled() {
            tb = TracingBackend(self.primary.as_ref());
            tsb = self.spare.as_deref().map(TracingBackend);
            (&tb, tsb.as_ref().map(|t| t as &dyn GpuBackend))
        } else {
            (self.primary.as_ref(), self.spare.as_deref())
        };
        let exec = &self.exec;
        match (&self.data, mode) {
            (Data::Q1(Some(d), _), "retry") => d.execute_with(b, exec).map(Answer::Q1),
            (Data::Q1(None, _), "partition") => {
                Q1Data::execute_budgeted(b, exec, db).map(Answer::Q1)
            }
            (Data::Q1(Some(d), Some(sd)), "fallback") => d
                .execute_with_fallback(b, (sd, sb.expect("fallback has a replica")), exec)
                .map(Answer::Q1),
            (Data::Q6(d, _), "retry") => d.execute_with(b, exec).map(Answer::Q6),
            (Data::Q6(d, _), "partition") => d.execute_partitioned(b, exec, db).map(Answer::Q6),
            (Data::Q6(d, Some(sd)), "fallback") => d
                .execute_with_fallback(b, (sd, sb.expect("fallback has a replica")), exec)
                .map(Answer::Q6),
            (Data::Q6(d, _), "operator") => d.execute(b).map(Answer::Q6),
            _ => unreachable!("no cell runs {mode} on this data"),
        }
    }
}

pub struct QueriesFaulted {
    db: Database,
    refs: [Answer; 2],
    schedule: Vec<Cell>,
    cells: Vec<String>,
    /// Plan steps one fault-free pass executes (the schedule is fixed).
    steps_per_pass: u64,
}

impl QueriesFaulted {
    pub fn setup(cfg: &Config) -> QueriesFaulted {
        let db = super::queries::database(SCALE_FACTOR, cfg.seed);
        let refs = [
            Answer::Q1(q1::reference(&db)),
            Answer::Q6(q6::reference(&db)),
        ];
        let spec = bench::paper_device();
        let mut steps_per_pass = 0;
        let mut schedule = Vec::new();
        let mut cells = Vec::new();
        for (bi, (prefix, name)) in BACKENDS.iter().enumerate() {
            let b = Framework::single_backend(&spec, name);
            let plan_steps = |p: Result<proto_core::physical::PhysicalPlan>| {
                p.expect("Q1/Q6 plan on every backend").steps().len() as u64
            };
            let steps = [
                plan_steps(q1::physical_plan(b.as_ref())),
                plan_steps(q6::physical_plan(b.as_ref())),
            ];
            for query in ["Q1", "Q6"] {
                for mode in MODES {
                    // E17 wraps Q6 only.
                    if mode == "operator" && query == "Q1" {
                        continue;
                    }
                    for permille in RATES_PERMILLE {
                        schedule.push(Cell {
                            backend: bi,
                            query,
                            mode,
                            permille,
                        });
                        cells.push(format!("{query}/{prefix}/{mode}/r{permille}"));
                        steps_per_pass += ITERATIONS as u64 * steps[usize::from(query == "Q6")];
                    }
                }
            }
        }
        QueriesFaulted {
            db,
            refs,
            schedule,
            cells,
            steps_per_pass,
        }
    }

    /// Run one cell on fresh devices; returns its simulated outcome.
    fn run_cell(&self, ci: usize, out: &mut PassOut, baseline: &mut Option<Answer>) -> String {
        let cell = &self.schedule[ci];
        let db = &self.db;
        let rig = span::scope("harness", "cell_setup", || Rig::build(cell, db));
        let dev = rig.primary.device();
        let mark = SimMark::take(&dev);
        let mut sim_ns = 0;
        let layer = if cell.mode == "operator" {
            "resilient"
        } else {
            "resilient_plan"
        };
        for _ in 0..ITERATIONS {
            let t0 = dev.now();
            let (res, us) = span::scope(layer, cell.mode, || timed(|| rig.execute(cell.mode, db)));
            sim_ns += (dev.now() - t0).as_nanos();
            out.calls.push(Call {
                cell: ci as u32,
                us,
            });
            out.rows += db.lineitem.len() as u64;
            let reference = &self.refs[usize::from(cell.query == "Q6")];
            // Retry, fallback and the operator wrapper replay the exact
            // operator sequence, so they must reproduce the backend's
            // fault-free answer bit for bit; partitioning reassociates
            // the sums and is held to the reference's tolerance only.
            let ok = res.is_ok_and(|answer| {
                let ok = answer.close_to(reference)
                    && (cell.mode == "partition"
                        || baseline.as_ref().is_none_or(|base| *base == answer));
                if cell.mode == "retry" && cell.permille == 0 {
                    *baseline = Some(answer);
                }
                ok
            });
            out.failed += u64::from(!ok);
        }
        out.sim_ns += sim_ns;
        let sim = mark.cell(&dev, sim_ns);
        out.dev.add(&dev.stats());
        if let Some(s) = &rig.spare {
            out.dev.add(&s.device().stats());
        }
        sim
    }
}

impl Workload for QueriesFaulted {
    fn cells(&self) -> &[String] {
        &self.cells
    }

    /// Every cell builds fresh devices, so there is no state to warm.
    fn warm_up(&self) -> bool {
        false
    }

    fn pass(&mut self) -> PassOut {
        let mut out = PassOut::default();
        let mut baseline = None;
        for ci in 0..self.schedule.len() {
            let cell = &self.schedule[ci];
            if cell.mode == "retry" && cell.permille == 0 {
                baseline = None;
            }
            let sim = self.run_cell(ci, &mut out, &mut baseline);
            out.sim_cells.push(sim);
        }
        out
    }

    fn plan_steps_per_pass(&self) -> u64 {
        self.steps_per_pass
    }

    fn layer_metrics(&mut self, passes: &[&PassOut], out: &mut LayerMetrics) {
        let dev = passes.first().map(|p| p.dev).unwrap_or_default();
        out.insert("resilient_plan.retries".into(), dev.retries as f64);
        out.insert("resilient_plan.partitions".into(), dev.partitions as f64);
        out.insert("resilient_plan.fallbacks".into(), dev.fallbacks as f64);
        // Every injected fault costs one step attempt that produced nothing.
        let done = self.steps_per_pass as f64;
        out.insert(
            "resilient_plan.useful_step_ratio".into(),
            done / (done + dev.faults as f64),
        );
        let operator: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.calls.iter())
            .filter(|c| self.schedule[c.cell as usize].mode == "operator")
            .map(|c| c.us)
            .collect();
        out.insert("resilient.execute_us".into(), stat::median(&operator));
        probes::wrap_overhead(&self.db, out);
    }
}
