//! Property tests for a query declared as a one-scan [`LogicalPlan`]
//! (scan → filter → aggregate, optionally grouped) and compiled by
//! `optimizer::plan`: arbitrary expressions and predicates must compute
//! exactly what a host interpreter computes, on every backend, and a
//! query must free every device column it creates.

use gpu_sim::Result;
use proptest::prelude::*;
use proto_core::optimizer;
use proto_core::prelude::*;

/// A random expression over columns `t.a`, `t.b` and literals, kept
/// within the supported lowering (no column±column adds).
fn arb_expr() -> impl Strategy<Value = Expr> {
    let cmp = prop_oneof![
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    let leaf = prop_oneof![
        Just(Expr::col("t.a")),
        Just(Expr::col("t.b")),
        (-8.0..8.0f64).prop_map(Expr::lit),
        (prop_oneof![Just("t.a"), Just("t.b")], cmp, -8.0..8.0f64)
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
    let col = |name: &str| match name {
        "t.a" => a[i],
        "t.b" => b[i],
        other => panic!("unknown column {other}"),
    };
    match e {
        Expr::Col(name) => col(name),
        Expr::Lit(v) => *v,
        Expr::Add(x, y) => eval_host(x, a, b, i) + eval_host(y, a, b, i),
        Expr::Sub(x, y) => eval_host(x, a, b, i) - eval_host(y, a, b, i),
        Expr::Mul(x, y) => eval_host(x, a, b, i) * eval_host(y, a, b, i),
        Expr::Mask(name, cmp, lit) => {
            let v = col(name);
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

/// `SELECT aggs FROM t [WHERE filter] [GROUP BY t.k]` over the table
/// [`Table`] uploads.
fn query(aggs: &[(&str, AggExpr)], filter: Option<Predicate>, grouped: bool) -> LogicalPlan {
    let mut plan = LogicalPlan::scan(
        "t",
        vec![
            ColumnDecl::f64("a"),
            ColumnDecl::f64("b"),
            ColumnDecl::u32("k"),
        ],
    );
    if let Some(pred) = filter {
        plan = plan.filter(pred);
    }
    plan.aggregate(grouped.then_some("t.k"), aggs.to_vec())
}

/// How a value is read from a scalar query's output.
type Read = fn(&PlanOutput) -> f64;

/// `SUM(e)`, `COUNT(*)` and `AVG(e)`, each with how its value is read.
/// `AVG(e)` is declared as `SUM(e)` next to `COUNT(*)` and divided on the
/// host; an empty input averages to 0, not NaN.
fn agg_shapes(e: &Expr) -> [(Vec<(&'static str, AggExpr)>, Read); 3] {
    let sum = ("sum", AggExpr::Sum(e.clone()));
    let count = ("count", AggExpr::Count);
    let avg: Read = |out| {
        let n = out.scalar("count").unwrap();
        if n == 0.0 {
            0.0
        } else {
            out.scalar("sum").unwrap() / n
        }
    };
    [
        (vec![sum.clone()], |out| out.scalar("sum").unwrap()),
        (vec![count.clone()], |out| out.scalar("count").unwrap()),
        (vec![sum, count], avg),
    ]
}

/// Columns `t.a`, `t.b` (`f64`) and `t.k` (`u32`) uploaded to one
/// backend; dropping it frees them.
struct Table<'a> {
    backend: &'a dyn GpuBackend,
    cols: Vec<(&'static str, Col)>,
}

impl<'a> Table<'a> {
    fn upload(backend: &'a dyn GpuBackend, a: &[f64], b: &[f64], k: &[u32]) -> Self {
        let cols = vec![
            ("t.a", backend.upload_f64(a).unwrap()),
            ("t.b", backend.upload_f64(b).unwrap()),
            ("t.k", backend.upload_u32(k).unwrap()),
        ];
        Table { backend, cols }
    }

    /// Plan `logical` on the table's backend and execute it.
    fn run(&self, logical: &LogicalPlan) -> Result<PlanOutput> {
        let plan = optimizer::plan("t", logical, self.backend)?;
        let mut binds = PlanBindings::new();
        for (name, col) in &self.cols {
            binds.bind(name, col);
        }
        plan.execute(self.backend, &binds)
    }
}

impl Drop for Table<'_> {
    fn drop(&mut self) {
        for (_, col) in self.cols.drain(..) {
            let _ = self.backend.free(col);
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
                let table = Table::upload(backend.as_ref(), &a, &b, &keys);
                for filter in [Some(threshold), None, Some(0)] {
                    let live = (0..rows.len()).filter(|&i| filter.is_none_or(|t| keys[i] < t));
                    let vals: Vec<f64> = live.map(|i| eval_host(&expr, &a, &b, i)).collect();
                    let (sum, n) = (vals.iter().sum::<f64>(), vals.len() as f64);
                    let avg = if vals.is_empty() { 0.0 } else { sum / n };
                    let pred = filter.map(|t| Predicate::cmp("t.k", CmpOp::Lt, t as f64));
                    for ((aggs, read), expect) in agg_shapes(&expr).into_iter().zip([sum, n, avg]) {
                        let logical = query(&aggs, pred.clone(), false);
                        let got = read(&table.run(&logical).unwrap());
                        let tol = 1e-9 * expect.abs().max(1.0);
                        prop_assert!(
                            (got - expect).abs() <= tol,
                            "{}: {got} vs {expect} over {} rows for\n{}",
                            backend.name(),
                            rows.len(),
                            logical.render()
                        );
                    }
                }
            }
        }
    }

    /// A query frees every device column it creates — `live_buffers` is
    /// back at its pre-call value after each shape of query and after each
    /// planning or execution error, on every backend — so memory
    /// accounting returns to the pre-query level once the table drops.
    #[test]
    fn queries_do_not_leak_columns(
        rows in prop::collection::vec((-10.0..10.0f64, 0u32..50), 1..50),
    ) {
        let a: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let k: Vec<u32> = rows.iter().map(|r| r.1).collect();
        let value = Expr::col("t.a") * Expr::lit(2.0);
        let k_lt = Predicate::cmp("t.k", CmpOp::Lt, 25.0);
        let k_lt_k = Predicate::col_cmp("t.k", CmpOp::Lt, "t.k");
        let a_gt = Predicate::cmp("t.a", CmpOp::Gt, 0.0);
        let count = [("count", AggExpr::Count)];
        let bad = [
            query(&[("sum", AggExpr::Sum(Expr::col("t.missing")))], Some(k_lt.clone()), false),
            query(&[("sum", AggExpr::Sum(Expr::col("t.a") + Expr::col("t.a")))], None, false),
            query(&count, Some(Predicate::Or(vec![k_lt_k.clone(), a_gt.clone()])), false),
            query(&count, Some(Predicate::And(vec![k_lt_k, a_gt])), false),
        ];
        let fw = Framework::with_all_backends(&gpu_sim::DeviceSpec::gtx1080());
        for backend in fw.backends() {
            let dev = backend.device();
            let unbound = dev.live_buffers();
            {
                let table = Table::upload(backend.as_ref(), &a, &a, &k);
                let bound = dev.live_buffers();
                for (aggs, _) in agg_shapes(&value) {
                    for filter in [Some(k_lt.clone()), None] {
                        for grouped in [true, false] {
                            let logical = query(&aggs, filter.clone(), grouped);
                            table.run(&logical).unwrap();
                            prop_assert_eq!(
                                dev.live_buffers(), bound, "{}: {}", backend.name(), logical.render()
                            );
                        }
                    }
                }
                for logical in &bad {
                    prop_assert!(table.run(logical).is_err(), "{}", logical.render());
                    prop_assert_eq!(
                        dev.live_buffers(), bound, "{}: {}", backend.name(), logical.render()
                    );
                }
            }
            prop_assert_eq!(dev.live_buffers(), unbound, "{}", backend.name());
            // All buffers went back to the pool: a fresh identical table
            // reuses the cached blocks without growing the reservation.
            let reserved = dev.mem_in_use();
            drop(Table::upload(backend.as_ref(), &a, &a, &k));
            prop_assert_eq!(dev.mem_in_use(), reserved, "{}", backend.name());
        }
    }
}
