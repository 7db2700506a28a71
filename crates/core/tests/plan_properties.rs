//! Property tests for the declarative query layer: arbitrary expressions
//! and predicates must compute exactly what a host interpreter computes,
//! on every backend.

use proptest::prelude::*;
use proto_core::plan::{Agg, AggQuery, Bindings, Expr, Predicate};
use proto_core::prelude::*;

/// A random expression over columns "a", "b" and literals, kept within
/// the supported lowering (no column±column adds).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf =
        prop_oneof![
            Just(Expr::col("a")),
            Just(Expr::col("b")),
            (-8.0..8.0f64).prop_map(Expr::lit),
            (prop_oneof![Just("a"), Just("b")], cmp, -8.0..8.0f64)
                .prop_map(|(c, op, lit)| Expr::Mask(c.to_string(), op, lit)),
        ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), -8.0..8.0f64).prop_map(|(e, c)| e + Expr::lit(c)),
            (inner.clone(), -8.0..8.0f64).prop_map(|(e, c)| Expr::lit(c) - e),
            (inner.clone(), -4.0..4.0f64).prop_map(|(e, c)| e * Expr::lit(c)),
            (inner.clone(), inner).prop_map(|(x, y)| x * y),
        ]
    })
}

/// Evaluate an expression on the host for row `i`.
fn eval_host(e: &Expr, a: &[f64], b: &[f64], i: usize) -> f64 {
    match e {
        Expr::Col(name) => match name.as_str() {
            "a" => a[i],
            "b" => b[i],
            other => panic!("unknown column {other}"),
        },
        Expr::Lit(v) => *v,
        Expr::Add(x, y) => eval_host(x, a, b, i) + eval_host(y, a, b, i),
        Expr::Sub(x, y) => eval_host(x, a, b, i) - eval_host(y, a, b, i),
        Expr::Mul(x, y) => eval_host(x, a, b, i) * eval_host(y, a, b, i),
        Expr::Mask(name, cmp, lit) => {
            let v = match name.as_str() {
                "a" => a[i],
                "b" => b[i],
                other => panic!("unknown column {other}"),
            };
            let hit = match cmp {
                CmpOp::Lt => v < *lit,
                CmpOp::Le => v <= *lit,
                CmpOp::Gt => v > *lit,
                CmpOp::Ge => v >= *lit,
                CmpOp::Eq => v == *lit,
                CmpOp::Ne => v != *lit,
            };
            if hit {
                1.0
            } else {
                0.0
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SUM, COUNT and AVG of an arbitrary expression equal the host
    /// interpreter on every backend — under the generated filter, with no
    /// filter and with a filter nothing survives, over the generated rows
    /// and over an empty table.
    #[test]
    fn sum_of_arbitrary_expressions(
        expr in arb_expr(),
        rows in prop::collection::vec((-10.0..10.0f64, -10.0..10.0f64, 0u32..100), 1..60),
        threshold in 0u32..100,
    ) {
        let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
        for rows in [&rows[..], &[]] {
            let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
            let b: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let keys: Vec<u32> = rows.iter().map(|r| r.2).collect();
            for backend in fw.backends() {
                let mut binding = Bindings::new(backend.as_ref());
                binding.bind_f64("a", &a).unwrap();
                binding.bind_f64("b", &b).unwrap();
                binding.bind_u32("k", &keys).unwrap();
                for filter in [Some(threshold), None, Some(0)] {
                    let live = (0..rows.len()).filter(|&i| filter.is_none_or(|t| keys[i] < t));
                    let vals: Vec<f64> = live.map(|i| eval_host(&expr, &a, &b, i)).collect();
                    let (sum, n) = (vals.iter().sum::<f64>(), vals.len() as f64);
                    let avg = if vals.is_empty() { 0.0 } else { sum / n };
                    for (agg, expect) in [
                        (Agg::Sum(expr.clone()), sum),
                        (Agg::Count, n),
                        (Agg::Avg(expr.clone()), avg),
                    ] {
                        let mut q = AggQuery::new(agg.clone());
                        if let Some(t) = filter {
                            q = q.filter(Predicate::cmp("k", CmpOp::Lt, t as f64));
                        }
                        let got = q.execute(&binding).unwrap().scalar().unwrap();
                        let tol = 1e-9 * expect.abs().max(1.0);
                        prop_assert!(
                            (got - expect).abs() <= tol,
                            "{}: {got} vs {expect} for {agg:?} WHERE k < {filter:?} over {} rows",
                            backend.name(),
                            rows.len()
                        );
                    }
                }
            }
        }
    }

    /// A query frees every device column it creates — `live_buffers` is
    /// back at its pre-call value after each shape of query and after each
    /// planning error, on every backend — so memory accounting returns to
    /// the pre-query level once the bindings drop.
    #[test]
    fn queries_do_not_leak_columns(
        rows in prop::collection::vec((-10.0..10.0f64, 0u32..50), 1..50),
    ) {
        let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let k: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let value = Expr::col("a") * Expr::lit(2.0);
        let aggs = [Agg::Sum(value.clone()), Agg::Count, Agg::Avg(value)];
        let bad = [
            AggQuery::new(Agg::Sum(Expr::col("missing")))
                .filter(Predicate::cmp("k", CmpOp::Lt, 25.0)),
            AggQuery::new(Agg::Sum(Expr::col("a") + Expr::col("a"))),
            AggQuery::new(Agg::Count).filter(Predicate::Or(vec![
                Predicate::col_cmp("k", CmpOp::Lt, "k"),
                Predicate::cmp("a", CmpOp::Gt, 0.0),
            ])),
            AggQuery::new(Agg::Count).filter(Predicate::And(vec![
                Predicate::col_cmp("k", CmpOp::Lt, "k"),
                Predicate::cmp("a", CmpOp::Gt, 0.0),
            ])),
        ];
        let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
        for backend in fw.backends() {
            let dev = backend.device();
            let unbound = dev.live_buffers();
            {
                let mut binding = Bindings::new(backend.as_ref());
                binding.bind_f64("a", &a).unwrap();
                binding.bind_u32("k", &k).unwrap();
                let bound = dev.live_buffers();
                for agg in &aggs {
                    for filtered in [true, false] {
                        for grouped in [true, false] {
                            let mut q = AggQuery::new(agg.clone());
                            if filtered {
                                q = q.filter(Predicate::cmp("k", CmpOp::Lt, 25.0));
                            }
                            if grouped {
                                q = q.group_by("k");
                            }
                            q.execute(&binding).unwrap();
                            prop_assert_eq!(dev.live_buffers(), bound, "{}: {q:?}", backend.name());
                        }
                    }
                }
                for q in &bad {
                    prop_assert!(q.execute(&binding).is_err(), "{q:?}");
                    prop_assert_eq!(dev.live_buffers(), bound, "{}: {q:?}", backend.name());
                }
            }
            prop_assert_eq!(dev.live_buffers(), unbound, "{}", backend.name());
            // All buffers went back to the pool: a fresh identical binding
            // reuses the cached blocks without growing the reservation.
            let reserved = dev.mem_in_use();
            {
                let mut binding = Bindings::new(backend.as_ref());
                binding.bind_f64("a", &a).unwrap();
                binding.bind_u32("k", &k).unwrap();
            }
            prop_assert_eq!(dev.mem_in_use(), reserved, "{}", backend.name());
        }
    }
}
