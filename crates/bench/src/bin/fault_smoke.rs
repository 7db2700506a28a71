//! Gating fault-recovery smoke test: TPC-H Q1 and Q6 on every paper
//! backend under a high uniform fault rate, routed through the
//! resilient plan executor.
//!
//! ```text
//! GPU_SIM_FAULT_RATE=0.2 fault_smoke
//! ```
//!
//! For each backend the queries run twice on fresh devices: once
//! fault-free and once with `FaultPlan::uniform` at the configured rate
//! (default 0.2 — every fifth site call faults; a value that is not a
//! number in `[0, 1]` exits 2 with a message) installed after the
//! working set is staged. The faulted run must (a) produce answers
//! bit-identical to the clean run and (b) actually observe injected
//! faults and recoveries, so a silently disabled fault plan cannot pass.
//! Any mismatch exits non-zero; this job gates. It takes no arguments:
//! any argument is one stderr line and exit code 2 before anything runs.

use proto_core::backend::GpuBackend;
use proto_core::framework::Framework;
use proto_core::resilient::RetryPolicy;
use proto_core::resilient_plan::{PlanRecovery, ResilientPlanExecutor};
use std::process::ExitCode;
use tpch::queries::q1::{Q1Data, Q1Row};
use tpch::queries::q6::Q6Data;

const SF: f64 = 0.01;

/// Run Q1 then Q6 on a fresh `name` backend, optionally installing a
/// uniform fault plan (seeded deterministically) once uploads are done.
/// Returns the answers plus the recovery actions the device observed.
fn run_pair(name: &str, rate: f64) -> (Vec<Q1Row>, f64, u64) {
    let db = tpch::cached(SF);
    let b = Framework::single_backend(&bench::paper_device(), name);
    let b: &dyn GpuBackend = b.as_ref();
    // Backoff is simulated time, so a deep ladder costs no host time.
    // At rate 0.2 every site *call* inside a step can fault, and a
    // multi-kernel step (a radix sort pass chain, say) only completes
    // when every call in the attempt survives — that can take hundreds
    // of replays, hence the very deep ladder.
    let exec = ResilientPlanExecutor::new(PlanRecovery {
        retry: RetryPolicy {
            max_retries: 10_000,
        },
        ..PlanRecovery::default()
    });
    let q1 = Q1Data::upload(b, &db).expect("Q1 upload");
    let q6 = Q6Data::upload(b, &db).expect("Q6 upload");
    if rate > 0.0 {
        b.device().install_fault_plan(gpu_sim::FaultPlan::uniform(
            proto_core::workload::SEED ^ 0x519,
            rate,
        ));
    }
    let rows = q1.execute_with(b, &exec).expect("Q1 under faults");
    let revenue = q6.execute_with(b, &exec).expect("Q6 under faults");
    let st = b.device().stats();
    let recoveries = st.faults_injected + st.retries;
    q6.free(b).expect("free Q6");
    q1.free(b).expect("free Q1");
    (rows, revenue, recoveries)
}

fn main() -> ExitCode {
    bench::report::parse_args("fault_smoke", &[]);
    let rate = match std::env::var("GPU_SIM_FAULT_RATE") {
        Err(_) => 0.2,
        Ok(v) => match v.trim().parse::<f64>() {
            Ok(rate) if (0.0..=1.0).contains(&rate) => rate,
            _ => {
                eprintln!("bad GPU_SIM_FAULT_RATE value `{v}` (expected a number in [0, 1])");
                return ExitCode::from(2);
            }
        },
    };
    let mut failures = 0u32;
    for name in proto_core::backends::PAPER_BACKENDS {
        let (clean_rows, clean_rev, _) = run_pair(name, 0.0);
        let (rows, rev, recoveries) = run_pair(name, rate);
        let rows_ok = rows == clean_rows;
        let rev_ok = rev.to_bits() == clean_rev.to_bits();
        let recovered = rate == 0.0 || recoveries > 0;
        if rows_ok && rev_ok && recovered {
            println!(
                "ok   {name}: Q1+Q6 bit-identical at rate {rate} ({recoveries} recovery actions)"
            );
        } else {
            failures += 1;
            println!(
                "FAIL {name}: q1_match={rows_ok} q6_match={rev_ok} recoveries={recoveries} \
                 (rate {rate})"
            );
        }
    }
    if failures == 0 {
        println!("fault smoke passed: all backends recover to bit-identical answers");
        ExitCode::SUCCESS
    } else {
        println!("fault smoke FAILED on {failures} backend(s)");
        ExitCode::FAILURE
    }
}
