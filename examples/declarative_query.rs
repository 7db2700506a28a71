//! Rapid prototyping with the declarative query layer.
//!
//! Express TPC-H Q6 once as an [`AggQuery`], run it on every plugged-in
//! library, and print each backend's `EXPLAIN` — the logical tree the
//! query declares and the physical plan the one planner compiles for
//! that library. The same declarative query lowers to very different
//! library call sequences, which is the paper's usability/usefulness
//! trade-off made visible.
//!
//! ```sh
//! cargo run --release --example declarative_query
//! ```

use gpu_proto_db::core::prelude::*;
use gpu_proto_db::core::runner::fmt_duration;
use gpu_proto_db::tpch;
use gpu_proto_db::tpch::dates::date;

fn main() {
    let db = tpch::generate(0.01);
    let li = &db.lineitem;
    let shipdate_f64: Vec<f64> = li.shipdate.iter().map(|&d| d as f64).collect();

    // SELECT SUM(extendedprice * discount) FROM lineitem
    // WHERE shipdate ∈ [1994, 1995) AND discount ∈ [0.05, 0.07] AND qty < 24
    let q6 = AggQuery::new(Agg::Sum(Expr::col("extendedprice") * Expr::col("discount"))).filter(
        Predicate::And(vec![
            Predicate::cmp("shipdate", CmpOp::Ge, date(1994, 1, 1) as f64),
            Predicate::cmp("shipdate", CmpOp::Lt, date(1995, 1, 1) as f64),
            Predicate::cmp("discount", CmpOp::Ge, 0.045),
            Predicate::cmp("discount", CmpOp::Le, 0.075),
            Predicate::cmp("quantity", CmpOp::Lt, 24.0),
        ]),
    );

    // And a grouped query: revenue by return flag.
    let by_flag = AggQuery::new(Agg::Sum(
        Expr::col("extendedprice") * (Expr::lit(1.0) - Expr::col("discount")),
    ))
    .group_by("returnflag");

    let reference = tpch::queries::q6::reference(&db);
    println!("reference Q6 revenue: {reference:.2}\n");

    let fw = gpu_proto_db::paper_setup();
    for backend in fw.backends() {
        let b = backend.as_ref();
        let mut binding = Bindings::new(b);
        binding
            .bind_f64("extendedprice", &li.extendedprice)
            .unwrap();
        binding.bind_f64("discount", &li.discount).unwrap();
        binding.bind_f64("quantity", &li.quantity).unwrap();
        binding.bind_f64("shipdate", &shipdate_f64).unwrap();
        binding.bind_u32("returnflag", &li.returnflag).unwrap();
        println!("{}", q6.explain(&binding).unwrap());

        // Warm-up, then measure.
        let r = q6.execute(&binding).unwrap();
        assert!((r.scalar().unwrap() - reference).abs() / reference < 1e-9);
        let dev = b.device();
        let (_, t) = dev.time(|| q6.execute(&binding).unwrap());
        println!("  Q6 via AggQuery: {}\n", fmt_duration(t.as_nanos()));

        let grouped = by_flag.execute(&binding).unwrap();
        let rows = grouped.grouped().unwrap();
        println!("  revenue by l_returnflag:");
        for (code, revenue) in rows {
            println!(
                "    {}: {:.2}",
                tpch::schema::RETURNFLAGS[*code as usize],
                revenue
            );
        }
        println!();
    }
}
