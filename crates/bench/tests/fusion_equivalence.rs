//! Property test for the scalar fusion site: randomized filter →
//! aggregate chains, compiled with the default options, with fusion at
//! threshold 0 (the single-pass kernel always dispatches) and with
//! fusion at `usize::MAX` (the `FusedFilterAgg` step runs its composed
//! realisation), must produce bit-identical answers on every paper
//! backend.
//!
//! The expression grammar mirrors what both lowerings accept — products
//! of columns, affine column maps and comparison masks (column±column
//! sums are outside the Table-II operator set and excluded) — so every
//! generated chain takes the real unfused path and the real
//! single-pass `FusedFilterAgg` kernel. Under the default options
//! Q6-shaped chains (exactly one `SUM(col · col)`) take the
//! `FilterSumProduct` fast path, and nothing else does. The generator
//! itself lives in [`bench::plangen`], shared with the translation
//! property suite.

use bench::plangen::{q6_shaped_chain, random_chain, Rng, SEEDS};
use proto_core::logical::{AggExpr, LogicalPlan};
use proto_core::optimizer::{plan_with, FusionPolicy, PlannerOptions};
use proto_core::physical::{PlanBindings, Step};
use proto_core::plan::Expr;
use proto_core::workload;

const N: usize = 4096;

/// The three planner configurations, by fusion threshold: the default
/// (fusion off), always fused, and fused steps that always run
/// composed.
const CONFIGS: [(&str, Option<usize>); 3] = [
    ("default", None),
    ("fused at 0", Some(0)),
    ("fused at usize::MAX", Some(usize::MAX)),
];

/// Exactly one `SUM(col · col)` aggregate — what the fast path accepts.
fn is_q6_shaped(logical: &LogicalPlan) -> bool {
    let LogicalPlan::Aggregate { aggs, .. } = logical else {
        return false;
    };
    let [(_, AggExpr::Sum(Expr::Mul(a, b)))] = aggs.as_slice() else {
        return false;
    };
    matches!((a.as_ref(), b.as_ref()), (Expr::Col(_), Expr::Col(_)))
}

#[test]
fn random_chains_are_bit_equal_across_planner_configurations_on_every_backend() {
    let key_domain: u32 = 1 << 20; // workload::selectivity_column's domain
    let (keys, _) = workload::cache::selectivity_column(N, 0.5, workload::SEED ^ 60);
    let a_vals = workload::cache::uniform_f64(N, workload::SEED ^ 61);
    let b_vals = workload::cache::uniform_f64(N, workload::SEED ^ 62);
    let c_vals = workload::cache::uniform_f64(N, workload::SEED ^ 63);
    let fw = bench::paper_framework();
    let chains = SEEDS.iter().flat_map(|&seed| {
        [
            (seed, random_chain(&mut Rng::new(seed), key_domain)),
            (seed, q6_shaped_chain(&mut Rng::new(seed), key_domain)),
        ]
    });
    let mut fast_paths_taken = 0;
    for (seed, logical) in chains {
        let names: Vec<String> = match &logical {
            LogicalPlan::Aggregate { aggs, .. } => aggs.iter().map(|(n, _)| n.clone()).collect(),
            _ => unreachable!("chains end in an Aggregate"),
        };
        let q6_shaped = is_q6_shaped(&logical);
        for b in fw.backends() {
            let b = b.as_ref();
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
            let mut answers: Vec<Vec<u64>> = Vec::new();
            for (config, threshold) in CONFIGS {
                let opts = PlannerOptions {
                    fusion: FusionPolicy { threshold },
                    costing: None,
                };
                let plan = plan_with("prop", &logical, b, &opts).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} {config} on {}: {e:?}\n{}",
                        b.name(),
                        logical.render()
                    )
                });
                let count =
                    |pick: fn(&Step) -> bool| plan.steps().iter().filter(|s| pick(s)).count();
                let fused_steps = count(|s| matches!(s, Step::FusedFilterAgg { .. }));
                let fast_path_steps = count(|s| matches!(s, Step::FilterSumProduct { .. }));
                assert_eq!(
                    (fused_steps > 0, fast_path_steps),
                    (
                        threshold.is_some(),
                        usize::from(threshold.is_none() && q6_shaped)
                    ),
                    "seed {seed} {config} on {}:\n{}",
                    b.name(),
                    plan.explain()
                );
                fast_paths_taken += fast_path_steps;
                let out = plan.execute(b, &binds).unwrap();
                answers.push(
                    names
                        .iter()
                        .map(|n| out.scalar(n).unwrap().to_bits())
                        .collect(),
                );
            }
            for (config, answer) in CONFIGS.iter().zip(&answers).skip(1) {
                assert_eq!(
                    &answers[0],
                    answer,
                    "seed {seed} on {}: the {} configuration changed an answer\n{}",
                    b.name(),
                    config.0,
                    logical.render()
                );
            }
            for c in [ck, ca, cb, cc] {
                b.free(c).unwrap();
            }
        }
    }
    assert!(
        fast_paths_taken >= SEEDS.len() * fw.backends().len(),
        "every Q6-shaped chain takes the fast path on every backend"
    );
}
