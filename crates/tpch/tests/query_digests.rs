//! Query-digest golden: every TPC-H query × every paper backend × SF
//! {0.001, 0.01}, run through `QueryData::execute` on a fresh tracing
//! device.
//!
//! One line per cell records what the execution did: its simulated
//! nanoseconds and kernel launches, the buffers still live after the
//! working set is freed, an FNV-64 of the answer's bits (or of the error
//! text) and an FNV-64 of the device trace it recorded. A moved `Free`,
//! an extra launch or a changed answer on any query path shows up here —
//! regenerate with `UPDATE_GOLDEN=1 cargo test -p tpch --test
//! query_digests` only when a query's execution is meant to change.

use gpu_sim::DeviceSpec;
use proto_core::prelude::*;
use tpch::queries::{q1, q14, q3, q4, q5, q6, Query, QueryData};
use tpch::Database;

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(self, bytes: &[u8]) -> Fnv {
        Fnv(bytes.iter().fold(self.0, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        }))
    }
}

/// The bits of an answer, fed into a digest.
trait Bits {
    fn digest(&self, h: Fnv) -> Fnv;
}

impl Bits for u32 {
    fn digest(&self, h: Fnv) -> Fnv {
        h.bytes(&self.to_le_bytes())
    }
}

impl Bits for u64 {
    fn digest(&self, h: Fnv) -> Fnv {
        h.bytes(&self.to_le_bytes())
    }
}

impl Bits for f64 {
    fn digest(&self, h: Fnv) -> Fnv {
        h.bytes(&self.to_bits().to_le_bytes())
    }
}

impl<T: Bits> Bits for Vec<T> {
    fn digest(&self, h: Fnv) -> Fnv {
        let h = (self.len() as u64).digest(h);
        self.iter().fold(h, |h, row| row.digest(h))
    }
}

macro_rules! row_bits {
    ($($row:ty { $($field:ident),* })*) => {$(
        impl Bits for $row {
            fn digest(&self, h: Fnv) -> Fnv {
                $(let h = self.$field.digest(h);)*
                h
            }
        }
    )*};
}

row_bits! {
    q1::Q1Row {
        returnflag, linestatus, sum_qty, sum_base_price, sum_disc_price,
        sum_charge, avg_qty, avg_price, avg_disc, count
    }
    q3::Q3Row { orderkey, revenue, orderdate, shippriority }
    q4::Q4Row { priority, order_count }
    q5::Q5Row { nationkey, revenue }
}

/// One cell's digest line: upload, trace one `execute`, free.
fn cell<Q: Query>(b: &dyn GpuBackend, db: &Database) -> String
where
    Q::Answer: Bits,
{
    let dev = b.device();
    let data = QueryData::<Q>::upload(b, db).unwrap();
    dev.set_tracing(true);
    let (t0, launches) = (dev.now(), dev.stats().total_launches());
    let answer = data.execute(b);
    let sim_ns = (dev.now() - t0).as_nanos();
    let launches = dev.stats().total_launches() - launches;
    let trace = dev.take_trace();
    data.free(b).unwrap();
    let answer = match answer {
        Ok(a) => format!("{:016x}", a.digest(Fnv::new()).0),
        Err(e) => format!(
            "error:{:016x}",
            Fnv::new().bytes(e.to_string().as_bytes()).0
        ),
    };
    let trace = trace
        .iter()
        .fold(Fnv::new(), |h, e| h.bytes(format!("{e:?}").as_bytes()));
    format!(
        "sim_ns={sim_ns} launches={launches} live={} answer={answer} trace={:016x}",
        dev.live_buffers(),
        trace.0
    )
}

/// One query's lines: every scale factor × every paper backend, each on
/// a fresh device.
fn lines<Q: Query>(dbs: &[(f64, Database)]) -> String
where
    Q::Answer: Bits,
{
    let mut doc = String::new();
    for (sf, db) in dbs {
        for name in ["Thrust", "Boost.Compute", "ArrayFire", "Handwritten"] {
            let b = Framework::single_backend(&DeviceSpec::gtx1080(), name);
            let line = cell::<Q>(b.as_ref(), db);
            doc.push_str(&format!("{} sf={sf} {name}: {line}\n", Q::NAME));
        }
    }
    doc
}

fn snapshot() -> String {
    let dbs = [0.001, 0.01].map(|sf| (sf, tpch::generate(sf)));
    [
        lines::<q1::Q1>(&dbs),
        lines::<q3::Q3>(&dbs),
        lines::<q4::Q4>(&dbs),
        lines::<q5::Q5>(&dbs),
        lines::<q6::Q6>(&dbs),
        lines::<q14::Q14>(&dbs),
    ]
    .concat()
}

#[test]
fn every_query_backend_and_scale_matches_the_digest_golden() {
    let got = snapshot();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/query_digests.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        got, want,
        "query execution drifted from tests/golden/query_digests.txt"
    );
}
