//! `Database::column` must answer every base column the six logical
//! plans scan, with the dtype the scan declares: `QueryData::upload` and
//! the partition sources are built from nothing else. A budgeted run
//! needs an executor with a memory budget and refuses one without it
//! before any device work.

use gpu_sim::{DeviceSpec, SimError};
use proto_core::backend::ColType;
use proto_core::backends::PAPER_BACKENDS;
use proto_core::framework::Framework;
use proto_core::logical::LogicalPlan;
use proto_core::resilient_plan::{HostCol, ResilientPlanExecutor};
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

#[test]
fn budgeted_execution_without_a_budget_is_refused_before_any_device_work() {
    let db = tpch::generate(0.001);
    let exec = ResilientPlanExecutor::default();
    for name in PAPER_BACKENDS {
        let b = Framework::single_backend(&DeviceSpec::gtx1080(), name);
        let dev = b.device();
        let t0 = dev.now();
        let err = q1::Q1Data::execute_budgeted(b.as_ref(), &exec, &db).unwrap_err();
        assert!(
            matches!(&err, SimError::Unsupported(m) if m.contains("mem_budget_bytes")),
            "{name}: {err}"
        );
        assert_eq!(dev.live_buffers(), 0, "{name}");
        assert_eq!(dev.now(), t0, "{name}");
    }
}
