//! Rapid prototyping with the declarative query layer.
//!
//! Declare TPC-H Q6 once as a [`LogicalPlan`], run it on every plugged-in
//! library, and print each backend's `EXPLAIN` — the logical tree the
//! query declares and the physical plan the one planner compiles for
//! that library. The same declarative query lowers to very different
//! library call sequences, which is the paper's usability/usefulness
//! trade-off made visible.
//!
//! ```sh
//! cargo run --release --example declarative_query
//! ```

use gpu_proto_db::core::optimizer;
use gpu_proto_db::core::prelude::*;
use gpu_proto_db::core::runner::fmt_duration;
use gpu_proto_db::tpch;
use gpu_proto_db::tpch::dates::date;

fn main() {
    let db = tpch::generate(0.01);
    let li = &db.lineitem;
    let lineitem = LogicalPlan::scan(
        "lineitem",
        vec![
            ColumnDecl::f64("extendedprice"),
            ColumnDecl::f64("discount"),
            ColumnDecl::f64("quantity"),
            ColumnDecl::u32("shipdate"),
            ColumnDecl::u32("returnflag"),
        ],
    );

    // SELECT SUM(extendedprice * discount) AS revenue FROM lineitem
    // WHERE shipdate ∈ [1994, 1995) AND discount ∈ [0.05, 0.07] AND qty < 24
    let q6 = lineitem
        .clone()
        .filter(Predicate::And(vec![
            Predicate::cmp("lineitem.shipdate", CmpOp::Ge, date(1994, 1, 1) as f64),
            Predicate::cmp("lineitem.shipdate", CmpOp::Lt, date(1995, 1, 1) as f64),
            Predicate::cmp("lineitem.discount", CmpOp::Ge, 0.045),
            Predicate::cmp("lineitem.discount", CmpOp::Le, 0.075),
            Predicate::cmp("lineitem.quantity", CmpOp::Lt, 24.0),
        ]))
        .aggregate(
            None,
            vec![(
                "revenue",
                AggExpr::Sum(Expr::col("lineitem.extendedprice") * Expr::col("lineitem.discount")),
            )],
        );

    // And a grouped query: revenue by return flag.
    let by_flag = lineitem.aggregate(
        Some("lineitem.returnflag"),
        vec![(
            "revenue",
            AggExpr::Sum(
                Expr::col("lineitem.extendedprice")
                    * (Expr::lit(1.0) - Expr::col("lineitem.discount")),
            ),
        )],
    );

    let reference = tpch::queries::q6::reference(&db);
    println!("reference Q6 revenue: {reference:.2}\n");

    let fw = gpu_proto_db::paper_setup();
    for backend in fw.backends() {
        let b = backend.as_ref();
        let cols = [
            ("lineitem.extendedprice", b.upload_f64(&li.extendedprice)),
            ("lineitem.discount", b.upload_f64(&li.discount)),
            ("lineitem.quantity", b.upload_f64(&li.quantity)),
            ("lineitem.shipdate", b.upload_u32(&li.shipdate)),
            ("lineitem.returnflag", b.upload_u32(&li.returnflag)),
        ]
        .map(|(name, col)| (name, col.unwrap()));
        let mut binds = PlanBindings::new();
        for (name, col) in &cols {
            binds.bind(name, col);
        }

        let plan = optimizer::plan("Q6", &q6, b).unwrap();
        println!("{}{}", q6.render(), plan.explain());

        // Warm-up, then measure.
        let revenue = plan.execute(b, &binds).unwrap().scalar("revenue").unwrap();
        assert!((revenue - reference).abs() / reference < 1e-9);
        let dev = b.device();
        let (_, t) = dev.time(|| plan.execute(b, &binds).unwrap());
        println!("  Q6: {}\n", fmt_duration(t.as_nanos()));

        let grouped = optimizer::plan("revenue by flag", &by_flag, b).unwrap();
        let out = grouped.execute(b, &binds).unwrap();
        println!("  revenue by l_returnflag:");
        let rows = out.u32s("keys").unwrap().iter();
        for (code, revenue) in rows.zip(out.f64s("revenue").unwrap()) {
            println!(
                "    {}: {:.2}",
                tpch::schema::RETURNFLAGS[*code as usize],
                revenue
            );
        }
        println!();
        for (_, col) in cols {
            b.free(col).unwrap();
        }
    }
}
