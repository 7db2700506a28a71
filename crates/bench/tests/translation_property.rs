//! Property test for the GL7xx translation validator: every random
//! filter → aggregate chain (the [`bench::plangen`] grammar the fusion
//! suite also draws from), compiled through `plan_traced` under every
//! planner mode on every paper backend, must (a) validate clean — the
//! rewrite trace proves the compiled plan equivalent to the logical
//! tree — and (b) produce bit-identical answers across all modes and
//! backends, so the validator's "equivalent" verdict is corroborated by
//! the executed results themselves. Each chain is also planned with a
//! scalar `COUNT(*)` next to its sums — the `AVG` shape the `AggQuery`
//! front-end declares — with and without its filter; those plans must
//! lint GL4xx-clean and count the same rows in every mode on every
//! backend.

use bench::plangen::{random_chain, Rng, SEEDS};
use proto_core::costing::TableStats;
use proto_core::logical::{AggExpr, LogicalPlan};
use proto_core::optimizer::{self, CostingOptions, FusionPolicy, PlannerOptions};
use proto_core::physical::PlanBindings;
use proto_core::workload;

const N: usize = 4096;

/// `chain` with a scalar `n = COUNT(*)` appended to its aggregates and,
/// when `filtered` is false, its filter removed.
fn counted(chain: &LogicalPlan, filtered: bool) -> LogicalPlan {
    let LogicalPlan::Aggregate { input, aggs, .. } = chain else {
        unreachable!("chains end in an Aggregate")
    };
    let input = match input.as_ref() {
        LogicalPlan::Filter { input, .. } if !filtered => input.as_ref(),
        other => other,
    };
    let mut aggs: Vec<(&str, AggExpr)> =
        aggs.iter().map(|(n, a)| (n.as_str(), a.clone())).collect();
    aggs.push(("n", AggExpr::Count));
    input.clone().aggregate(None, aggs)
}

#[test]
fn random_chains_validate_and_agree_under_every_planner_mode() {
    let key_domain: u32 = 1 << 20; // workload::selectivity_column's domain
    let (keys, _) = workload::cache::selectivity_column(N, 0.5, workload::SEED ^ 60);
    let a_vals = workload::cache::uniform_f64(N, workload::SEED ^ 61);
    let b_vals = workload::cache::uniform_f64(N, workload::SEED ^ 62);
    let c_vals = workload::cache::uniform_f64(N, workload::SEED ^ 63);
    let spec = bench::paper_device();
    let fw = bench::paper_framework();
    let modes: [(&str, PlannerOptions); 3] = [
        ("heuristic", PlannerOptions::default()),
        (
            "fusion",
            PlannerOptions {
                fusion: FusionPolicy { threshold: Some(0) },
                ..PlannerOptions::default()
            },
        ),
        (
            "costing",
            PlannerOptions {
                costing: Some(CostingOptions::new(&spec, TableStats::new())),
                ..PlannerOptions::default()
            },
        ),
    ];
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let logical = random_chain(&mut rng, key_domain);
        let names: Vec<String> = match &logical {
            LogicalPlan::Aggregate { aggs, .. } => aggs.iter().map(|(n, _)| n.clone()).collect(),
            _ => unreachable!("chains end in an Aggregate"),
        };
        let mut reference: Option<Vec<u64>> = None;
        let mut survivors: Option<f64> = None;
        for (mode, opts) in &modes {
            for b in fw.backends() {
                let b = b.as_ref();
                let (plan, traces) = optimizer::plan_traced("prop", &logical, b, opts)
                    .unwrap_or_else(|e| {
                        panic!(
                            "seed {seed} {mode} on {}: {e:?}\n{}",
                            b.name(),
                            logical.render()
                        )
                    });
                let view = gpu_lint::phys_view(&plan, optimizer::supported_joins(b));
                let report = gpu_lint::lint_translation(
                    format!("prop({seed}/{mode}/{})", b.name()),
                    &traces,
                    &view,
                );
                assert!(
                    report.is_clean(),
                    "seed {seed} {mode} on {} does not validate:\n{}\n{}",
                    b.name(),
                    report.render(),
                    logical.render()
                );
                let ck = b.upload_u32(&keys).unwrap();
                let ca = b.upload_f64(&a_vals).unwrap();
                let cb = b.upload_f64(&b_vals).unwrap();
                let cc = b.upload_f64(&c_vals).unwrap();
                let mut binds = PlanBindings::new();
                binds
                    .bind("t.key", &ck)
                    .bind("t.a", &ca)
                    .bind("t.b", &cb)
                    .bind("t.c", &cc);
                let out = plan.execute(b, &binds).unwrap();
                let bits: Vec<u64> = names
                    .iter()
                    .map(|n| out.scalar(n).unwrap().to_bits())
                    .collect();
                match &reference {
                    None => reference = Some(bits),
                    Some(want) => assert_eq!(
                        want,
                        &bits,
                        "seed {seed} {mode} on {} changed an answer\n{}",
                        b.name(),
                        logical.render()
                    ),
                }
                for filtered in [true, false] {
                    let tree = counted(&logical, filtered);
                    let plan = optimizer::plan_with("prop-count", &tree, b, opts).unwrap();
                    let view = gpu_lint::phys_view(&plan, Vec::new());
                    let report = gpu_lint::lint_physical_plan("prop-count", &view);
                    assert!(
                        report.is_clean(),
                        "seed {seed} {mode} on {}:\n{}\n{}",
                        b.name(),
                        report.render(),
                        plan.explain()
                    );
                    let out = plan.execute(b, &binds).unwrap();
                    let n = out.scalar("n").unwrap();
                    let want = if filtered {
                        // The sums next to the count are the chain's own.
                        let sums: Vec<u64> = names
                            .iter()
                            .map(|s| out.scalar(s).unwrap().to_bits())
                            .collect();
                        assert_eq!(Some(&sums), reference.as_ref(), "seed {seed} {mode}");
                        *survivors.get_or_insert(n)
                    } else {
                        N as f64
                    };
                    assert_eq!(n, want, "seed {seed} {mode} on {}", b.name());
                }
                for c in [ck, ca, cb, cc] {
                    b.free(c).unwrap();
                }
            }
        }
    }
}
