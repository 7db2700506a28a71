//! Fault-injection acceptance tests: with transient faults injected at
//! every allocation / transfer / launch site, resilient execution must
//! complete TPC-H queries on every backend with answers identical to the
//! fault-free run — and must cost exactly nothing when no faults fire.

use gpu_proto_db::core::backend::GpuBackend;
use gpu_proto_db::core::backends::PAPER_BACKENDS;
use gpu_proto_db::core::framework::Framework;
use gpu_proto_db::core::prelude::*;
use gpu_proto_db::sim::{DeviceSpec, DeviceStats, FaultPlan, FaultSite, SimError};
use gpu_proto_db::tpch::{
    self, queries::q1::Q1Data, queries::q14::Q14Data, queries::q3::Q3Data, queries::q4::Q4Data,
    queries::q5::Q5Data, queries::q6::Q6Data, Database,
};
use proptest::prelude::*;

/// A retry budget sized for fused pipelines: a backend's Q6 override runs
/// a ~17-fault-site kernel chain as a single retry scope, so at a 5–10%
/// per-site rate most attempts fail and recovery needs patience. Backoff
/// is charged to the simulated clock, so patience costs no wall time.
fn deep_policy() -> RetryPolicy {
    RetryPolicy { max_retries: 60 }
}

/// The paper configuration with every backend retrying under
/// [`deep_policy`], each on its own fresh device.
fn resilient_setup() -> Framework {
    let mut fw = Framework::new();
    for name in PAPER_BACKENDS {
        fw.register(Framework::single_backend_resilient(
            &DeviceSpec::gtx1080(),
            name,
            deep_policy(),
        ));
    }
    fw
}

/// Trace every backend's device from here on (call on a fresh framework).
fn trace_all(fw: &Framework) {
    for b in fw.backends() {
        b.device().set_tracing(true);
    }
}

/// The device's counters are the fold of the events it traced since its
/// creation — faults and recovery notes included.
fn assert_stats_are_the_fold(b: &dyn GpuBackend) {
    let dev = b.device();
    let counters = DeviceStats {
        mem_in_use: 0,
        mem_peak: 0,
        ..dev.stats()
    };
    let folded = DeviceStats::from_trace(&dev.take_trace());
    assert_eq!(folded, counters, "{}", b.name());
}

#[test]
fn q6_survives_five_percent_faults_with_identical_answers() {
    let db = tpch::generate(0.002);
    // Fault-free reference answers, per backend (summation order differs
    // between backends, so each is its own baseline).
    let clean = gpu_proto_db::paper_setup();
    let mut expect = std::collections::HashMap::new();
    for b in clean.backends() {
        let data = Q6Data::upload(b.as_ref(), &db).unwrap();
        expect.insert(b.name(), data.execute(b.as_ref()).unwrap());
        data.free(b.as_ref()).unwrap();
    }

    let fw = resilient_setup();
    let (mut total_faults, mut total_retries) = (0, 0);
    for b in fw.backends() {
        b.device()
            .install_fault_plan(FaultPlan::uniform(0xFA11, 0.05));
        let data = Q6Data::upload(b.as_ref(), &db).unwrap();
        let got = data.execute(b.as_ref()).unwrap();
        data.free(b.as_ref()).unwrap();
        assert_eq!(
            got.to_bits(),
            expect[b.name()].to_bits(),
            "{}: faults changed the Q6 answer",
            b.name()
        );
        // A fused backend makes only ~a dozen fault draws at this scale,
        // so a zero-fault run is legitimate per backend — but not across
        // all four.
        let stats = b.device().stats();
        total_faults += stats.faults_injected;
        total_retries += stats.retries;
    }
    assert!(total_faults > 0, "5% faults must fire somewhere");
    assert!(total_retries > 0, "5% faults must force retries somewhere");
}

#[test]
fn q1_survives_five_percent_faults_with_identical_answers() {
    let db = tpch::generate(0.002);
    let clean = gpu_proto_db::paper_setup();
    let mut expect = std::collections::HashMap::new();
    for b in clean.backends() {
        let data = Q1Data::upload(b.as_ref(), &db).unwrap();
        expect.insert(b.name(), data.execute(b.as_ref()).unwrap());
        data.free(b.as_ref()).unwrap();
    }

    let fw = resilient_setup();
    let mut total_faults = 0;
    for b in fw.backends() {
        b.device()
            .install_fault_plan(FaultPlan::uniform(0x51AB, 0.05));
        let data = Q1Data::upload(b.as_ref(), &db).unwrap();
        let got = data.execute(b.as_ref()).unwrap();
        data.free(b.as_ref()).unwrap();
        assert_eq!(
            got,
            expect[b.name()],
            "{}: faults changed Q1 rows",
            b.name()
        );
        total_faults += b.device().stats().faults_injected;
    }
    assert!(total_faults > 0, "5% faults must fire somewhere");
}

#[test]
fn resilient_wrapper_is_free_without_faults() {
    let db = tpch::generate(0.002);
    let timeline = |fw: &Framework| -> Vec<(&'static str, u64)> {
        fw.backends()
            .iter()
            .map(|b| {
                let data = Q6Data::upload(b.as_ref(), &db).unwrap();
                data.execute(b.as_ref()).unwrap();
                data.free(b.as_ref()).unwrap();
                (b.name(), b.device().now().as_nanos())
            })
            .collect()
    };
    let plain = timeline(&gpu_proto_db::paper_setup());
    let resilient = timeline(&resilient_setup());
    assert_eq!(
        plain, resilient,
        "wrapper must add zero simulated time at fault rate 0"
    );
}

/// Run all six planner-routed TPC-H queries through one resilient plan
/// executor, returning each answer as a debug rendering (`None` where
/// the backend cannot plan the query — ArrayFire lacks the join algos
/// Q3/Q4/Q5 lower to). Panics on any error that is not a clean
/// `Unsupported` plan rejection.
fn plan_all_six(
    b: &dyn GpuBackend,
    db: &Database,
    exec: &ResilientPlanExecutor,
    fault: Option<FaultPlan>,
) -> [Option<String>; 6] {
    fn wrap<T: std::fmt::Debug>(name: &str, r: Result<T, SimError>) -> Option<String> {
        match r {
            Ok(v) => Some(format!("{v:?}")),
            Err(SimError::Unsupported(_)) => None,
            Err(e) => panic!("{name}: unexpected failure {e}"),
        }
    }
    let q1 = Q1Data::upload(b, db).unwrap();
    let q3 = Q3Data::upload(b, db).unwrap();
    let q4 = Q4Data::upload(b, db).unwrap();
    let q5 = Q5Data::upload(b, db).unwrap();
    let q6 = Q6Data::upload(b, db).unwrap();
    let q14 = Q14Data::upload(b, db).unwrap();
    // Faults start once the working sets are staged: uploads are
    // outside the plan executor's recovery scope.
    if let Some(fp) = fault {
        b.device().install_fault_plan(fp);
    }
    let out = [
        wrap("Q1", q1.execute_with(b, exec)),
        wrap("Q3", q3.execute_with(b, exec)),
        wrap("Q4", q4.execute_with(b, exec)),
        wrap("Q5", q5.execute_with(b, exec)),
        wrap("Q6", q6.execute_with(b, exec)),
        wrap("Q14", q14.execute_with(b, exec)),
    ];
    q14.free(b).unwrap();
    q6.free(b).unwrap();
    q5.free(b).unwrap();
    q4.free(b).unwrap();
    q3.free(b).unwrap();
    q1.free(b).unwrap();
    out
}

#[test]
fn all_six_planner_queries_survive_plan_level_faults_on_every_backend() {
    let db = tpch::generate(0.002);
    // (backend, six answers, recovery actions) per backend, on fresh
    // devices; fault plans install after the working sets are staged.
    let answers = |rate: f64| -> Vec<(String, [Option<String>; 6], u64)> {
        let fw = gpu_proto_db::paper_setup();
        trace_all(&fw);
        fw.backends()
            .iter()
            .map(|b| {
                let exec = ResilientPlanExecutor::new(PlanRecovery {
                    retry: deep_policy(),
                    ..PlanRecovery::default()
                });
                let fp = (rate > 0.0).then(|| FaultPlan::uniform(0x6E19, rate));
                let six = plan_all_six(b.as_ref(), &db, &exec, fp);
                assert_stats_are_the_fold(b.as_ref());
                let st = b.device().stats();
                (b.name().to_string(), six, st.faults_injected + st.retries)
            })
            .collect()
    };
    let clean = answers(0.0);
    let faulty = answers(0.05);
    // Identical seeds replay the identical recovery story, counters
    // included.
    assert_eq!(faulty, answers(0.05), "seed replay must be bit-identical");
    let mut recoveries = 0;
    for ((name, want, _), (_, got, r)) in clean.iter().zip(&faulty) {
        assert_eq!(got, want, "{name}: plan-level faults changed an answer");
        recoveries += r;
    }
    assert!(recoveries > 0, "5% faults must force recoveries somewhere");
}

#[test]
fn partitioned_execution_matches_whole_plan_answers() {
    let db = tpch::generate(0.002);
    let rows = db.lineitem.len() as u64;
    let approx = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let fw = gpu_proto_db::paper_setup();
    trace_all(&fw);
    for b in fw.backends() {
        let b = b.as_ref();
        let whole = ResilientPlanExecutor::default();
        // ~4-way split of Q1's 40 B/row partition source (the executor
        // budgets 8x slack per staged row).
        let parts = ResilientPlanExecutor::new(PlanRecovery {
            mem_budget_bytes: Some(rows * 80),
            ..PlanRecovery::default()
        });
        let q1 = Q1Data::upload(b, &db).unwrap();
        let expect = q1.execute_with(b, &whole).unwrap();
        let got = q1.execute_partitioned(b, &parts, &db).unwrap();
        q1.free(b).unwrap();
        assert_eq!(got.len(), expect.len(), "{}: Q1 group count", b.name());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!((g.returnflag, g.linestatus), (e.returnflag, e.linestatus));
            assert!(
                approx(g.sum_qty, e.sum_qty)
                    && approx(g.sum_base_price, e.sum_base_price)
                    && approx(g.sum_disc_price, e.sum_disc_price)
                    && approx(g.sum_charge, e.sum_charge)
                    && approx(g.avg_qty, e.avg_qty)
                    && approx(g.avg_price, e.avg_price)
                    && approx(g.avg_disc, e.avg_disc)
                    && g.count == e.count,
                "{}: Q1 partitioned aggregates diverged",
                b.name()
            );
        }
        let q6 = Q6Data::upload(b, &db).unwrap();
        let expect = q6.execute_with(b, &whole).unwrap();
        let got = q6.execute_partitioned(b, &parts, &db).unwrap();
        q6.free(b).unwrap();
        assert!(approx(got, expect), "{}: Q6 partitioned revenue", b.name());
        let mut partitioned = 2;
        let q14 = Q14Data::upload(b, &db).unwrap();
        match q14.execute_with(b, &whole) {
            Ok(expect) => {
                let got = q14.execute_partitioned(b, &parts, &db).unwrap();
                assert!(approx(got, expect), "{}: Q14 partitioned ratio", b.name());
                partitioned += 1;
            }
            // ArrayFire cannot plan Q14's join (no join algorithm).
            Err(SimError::Unsupported(_)) => {}
            Err(e) => panic!("{}: Q14 failed: {e}", b.name()),
        }
        q14.free(b).unwrap();
        assert!(
            b.device().stats().plan_partitions >= partitioned,
            "{}: every partition-safe query must actually partition",
            b.name()
        );
        assert_stats_are_the_fold(b);
    }
}

#[test]
fn plan_fallback_chain_replays_on_the_spare_backend() {
    // A library lane with no in-place retries dies on its first
    // transient; the handwritten spare must complete the plan and the
    // answer must be the spare's own bit-exact result (the lowerings
    // differ, so no checkpoint transfers between these lanes) — for the
    // scalar aggregate (Q6) and the grouped one (Q1) alike.
    let db = tpch::generate(0.002);
    let spec = DeviceSpec::gtx1080();
    let fw = Framework::with_all_backends(&spec);
    let hw = fw.backend("Handwritten").unwrap();
    let hw_clean = {
        let q6 = Q6Data::upload(hw, &db).unwrap();
        let q1 = Q1Data::upload(hw, &db).unwrap();
        let v = (q6.execute(hw).unwrap(), q1.execute(hw).unwrap());
        q1.free(hw).unwrap();
        q6.free(hw).unwrap();
        v
    };
    for primary in ["Thrust", "Boost.Compute", "ArrayFire"] {
        let fw = Framework::with_all_backends(&spec);
        trace_all(&fw);
        let lib = fw.backend(primary).unwrap();
        let spare = fw.backend("Handwritten").unwrap();
        let exec = ResilientPlanExecutor::new(PlanRecovery {
            retry: RetryPolicy::no_retry(),
            ..PlanRecovery::default()
        });
        let q6 = Q6Data::upload(lib, &db).unwrap();
        let q1 = Q1Data::upload(lib, &db).unwrap();
        let spare_q6 = Q6Data::upload(spare, &db).unwrap();
        let spare_q1 = Q1Data::upload(spare, &db).unwrap();
        lib.device().install_fault_plan(FaultPlan::uniform(3, 0.2));
        let got = (
            q6.execute_with_fallback(lib, (&spare_q6, spare), &exec)
                .unwrap(),
            q1.execute_with_fallback(lib, (&spare_q1, spare), &exec)
                .unwrap(),
        );
        spare_q1.free(spare).unwrap();
        spare_q6.free(spare).unwrap();
        q1.free(lib).unwrap();
        q6.free(lib).unwrap();
        assert_eq!(
            got.0.to_bits(),
            hw_clean.0.to_bits(),
            "{primary}: fallback Q6 must be the handwritten result"
        );
        assert_eq!(
            got.1, hw_clean.1,
            "{primary}: fallback Q1 must be the handwritten rows"
        );
        assert_eq!(
            spare.device().stats().fallbacks,
            2,
            "{primary}: exactly one fallback to the spare per query"
        );
        assert_stats_are_the_fold(lib);
        assert_stats_are_the_fold(spare);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Identical seeds replay byte-identical fault schedules at every
    /// site, and two identically-seeded runs of the same faulty workload
    /// land on identical simulated clocks — through the operator-level
    /// wrapper and through a plan-level library → handwritten fallback
    /// chain, whose answer is bit-equal to the fault-free answer of
    /// whichever lane completed it.
    #[test]
    fn fault_schedules_replay_bit_for_bit(
        seed in any::<u64>(),
        rate_permille in 0u64..300,
    ) {
        let rate = rate_permille as f64 / 1000.0;
        let plan = FaultPlan::uniform(seed, rate);
        for site in FaultSite::ALL {
            prop_assert_eq!(
                plan.schedule(site, 256),
                FaultPlan::uniform(seed, rate).schedule(site, 256)
            );
        }
        let run = || {
            let dev = gpu_proto_db::sim::Device::with_defaults();
            dev.install_fault_plan(FaultPlan::uniform(seed, rate));
            let b = ResilientBackend::with_policy(
                Box::new(gpu_proto_db::core::backends::ThrustBackend::new(&dev)),
                deep_policy(),
            );
            let data: Vec<u32> = (0..2048).map(|i| i * 37 % 1000).collect();
            let col = b.upload_u32(&data).unwrap();
            let ids = b.selection(&col, CmpOp::Ge, 500.0).unwrap();
            let host = b.download_u32(&ids).unwrap();
            let stats = dev.stats();
            (host, stats.retries, stats.faults_injected, dev.now().as_nanos())
        };
        prop_assert_eq!(run(), run());

        // A library lane that may not retry in place, under the seeded
        // plan, with a healthy handwritten spare behind it.
        let db = tpch::generate(0.001);
        let primary = ["Thrust", "Boost.Compute", "ArrayFire"][(seed % 3) as usize];
        let q6_on = |name: &str, fault: Option<FaultPlan>| {
            let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
            let lib = fw.backend(name).unwrap();
            let spare = fw.backend("Handwritten").unwrap();
            let exec = ResilientPlanExecutor::new(PlanRecovery {
                retry: RetryPolicy::no_retry(),
                ..PlanRecovery::default()
            });
            let data = Q6Data::upload(lib, &db).unwrap();
            let spare_data = Q6Data::upload(spare, &db).unwrap();
            if let Some(fp) = fault {
                lib.device().install_fault_plan(fp);
            }
            let got = data
                .execute_with_fallback(lib, (&spare_data, spare), &exec)
                .unwrap();
            spare_data.free(spare).unwrap();
            data.free(lib).unwrap();
            (
                got.to_bits(),
                spare.device().stats().fallbacks,
                lib.device().now().as_nanos(),
                spare.device().now().as_nanos(),
            )
        };
        let faulted = q6_on(primary, Some(FaultPlan::uniform(seed, rate)));
        prop_assert_eq!(faulted, q6_on(primary, Some(FaultPlan::uniform(seed, rate))));
        let finisher = if faulted.1 == 0 { primary } else { "Handwritten" };
        prop_assert_eq!(faulted.0, q6_on(finisher, None).0, "{} → {}", primary, finisher);
    }
}
