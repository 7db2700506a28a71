//! `Database::column` must answer every base column the six logical
//! plans scan, with the dtype the scan declares: `QueryData::upload` and
//! the partition sources are built from nothing else.

use proto_core::backend::ColType;
use proto_core::logical::LogicalPlan;
use proto_core::resilient_plan::HostCol;
use tpch::queries::{q1, q14, LOGICAL_PLANS};

#[test]
fn the_schema_lookup_covers_every_plan_column_with_the_declared_dtype() {
    let db = tpch::generate(0.001);
    let plans = LOGICAL_PLANS.map(|(_, logical)| logical());
    for (name, dtype) in plans.iter().flat_map(LogicalPlan::scan_columns) {
        let (host, rows) = match db.column(&name) {
            Some(HostCol::U32(v)) => (ColType::U32, v.len()),
            Some(HostCol::F64(v)) => (ColType::F64, v.len()),
            None => panic!("`{name}` has no host column"),
        };
        assert_eq!(host, dtype, "{name}");
        assert!(rows > 0, "{name}");
    }
    assert!(db.column("lineitem.comment").is_none());
}

#[test]
fn partition_sources_hold_exactly_the_scanned_lineitem_columns() {
    let db = tpch::generate(0.001);
    let src = q14::Q14Data::partition_source(&db);
    assert!(src.contains("lineitem.partkey") && !src.contains("part.partkey"));
    assert_eq!(src.rows().unwrap(), db.lineitem.len());
    let src = q1::Q1Data::partition_source(&db);
    assert!(src.contains("lineitem.groupkey") && !src.contains("lineitem.partkey"));
    assert_eq!(src.rows().unwrap(), db.lineitem.len());
}
