//! Property test for the planner's lowering of filter → aggregate
//! chains: randomized chains, compiled with the default options, with
//! fusion at threshold 0 (the single-pass kernel always dispatches),
//! with fusion at `usize::MAX` (the `FusedFilterAgg` step runs its
//! composed realisation) and by the cost-based planner, must produce
//! bit-identical answers in every configuration on every paper backend.
//! Each chain is also planned with a scalar `COUNT(*)` next to its sums
//! — how a caller declares `AVG`, dividing the two on the host — with
//! and without its filter; those plans must count the same rows everywhere.
//!
//! The expression grammar mirrors what both lowerings accept — products
//! of columns, affine column maps and comparison masks (column±column
//! sums are outside the Table-II operator set and excluded) — so every
//! generated chain takes the real unfused path and the real
//! single-pass `FusedFilterAgg` kernel. Under the default options
//! Q6-shaped chains (exactly one `SUM(col · col)`) take the
//! `FilterSumProduct` fast path, and nothing else does. The generator
//! itself lives in [`bench::plangen`].

use bench::plangen::{q6_shaped_chain, random_chain, Rng, SEEDS};
use proto_core::costing::TableStats;
use proto_core::logical::{AggExpr, Expr, LogicalPlan};
use proto_core::optimizer::{plan_with, CostingOptions, FusionPolicy, PlannerOptions};
use proto_core::physical::{PlanBindings, Step};
use proto_core::workload;

const N: usize = 4096;

/// The three fusion configurations, by fusion threshold: the default
/// (fusion off), always fused, and fused steps that always run
/// composed. The cost-based planner, which picks fused or composed per
/// chain itself, runs after them.
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
fn random_chains_are_bit_equal_across_planner_configurations_on_every_backend() {
    let key_domain: u32 = 1 << 20; // workload::selectivity_column's domain
    let (keys, _) = workload::cache::selectivity_column(N, 0.5, workload::SEED ^ 60);
    let a_vals = workload::cache::uniform_f64(N, workload::SEED ^ 61);
    let b_vals = workload::cache::uniform_f64(N, workload::SEED ^ 62);
    let c_vals = workload::cache::uniform_f64(N, workload::SEED ^ 63);
    let fw = bench::paper_framework();
    let costing = PlannerOptions {
        costing: Some(CostingOptions::new(
            &bench::paper_device(),
            TableStats::new(),
        )),
        ..PlannerOptions::default()
    };
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
        let mut reference: Option<(String, Vec<u64>)> = None;
        let mut survivors: Option<f64> = None;
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
            let configs = CONFIGS
                .iter()
                .map(|&(config, threshold)| {
                    let opts = PlannerOptions {
                        fusion: FusionPolicy { threshold },
                        costing: None,
                    };
                    (config, opts)
                })
                .chain([("costing", costing.clone())]);
            let mut answers: Vec<(&str, Vec<u64>)> = Vec::new();
            for (config, opts) in configs {
                let plan = plan_with("prop", &logical, b, &opts).unwrap_or_else(|e| {
                    panic!(
                        "seed {seed} {config} on {}: {e:?}\n{}",
                        b.name(),
                        logical.render()
                    )
                });
                if opts.costing.is_none() {
                    let threshold = opts.fusion.threshold;
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
                }
                let out = plan.execute(b, &binds).unwrap();
                let bits: Vec<u64> = names
                    .iter()
                    .map(|n| out.scalar(n).unwrap().to_bits())
                    .collect();
                for filtered in [true, false] {
                    let tree = counted(&logical, filtered);
                    let plan = plan_with("prop-count", &tree, b, &opts).unwrap();
                    let out = plan.execute(b, &binds).unwrap();
                    let n = out.scalar("n").unwrap();
                    let want = if filtered {
                        // The sums next to the count are the chain's own.
                        let sums: Vec<u64> = names
                            .iter()
                            .map(|s| out.scalar(s).unwrap().to_bits())
                            .collect();
                        assert_eq!(sums, bits, "seed {seed} {config}");
                        *survivors.get_or_insert(n)
                    } else {
                        N as f64
                    };
                    assert_eq!(n, want, "seed {seed} {config} on {}", b.name());
                }
                answers.push((config, bits));
            }
            for (config, answer) in &answers[1..] {
                assert_eq!(
                    &answers[0].1,
                    answer,
                    "seed {seed} on {}: the {config} configuration changed an answer\n{}",
                    b.name(),
                    logical.render()
                );
            }
            match &reference {
                None => reference = Some((b.name().to_string(), answers[0].1.clone())),
                Some((first, want)) => assert_eq!(
                    want,
                    &answers[0].1,
                    "seed {seed}: {} disagrees with {first}\n{}",
                    b.name(),
                    logical.render()
                ),
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
