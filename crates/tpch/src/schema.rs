//! Columnar TPC-H schema.
//!
//! GPUs process analytical queries column-at-a-time (§III-B), so tables
//! are structs of column vectors. Keys and encoded categoricals are `u32`,
//! measures are `f64`, dates are day numbers (see [`crate::dates`]).
//! Text columns the benchmark queries never touch are omitted; categorical
//! text (flags, status, priority, segment) is dictionary-encoded.
//!
//! Each column is a [`Column`]: one `Arc`'d `Vec`, published to the
//! simulator's upload table when it is built ([`gpu_sim::publish`]), so
//! every upload of it — to any backend, by any query — shares the
//! database's own copy instead of holding another (DESIGN.md §5,
//! "Reservations").

use gpu_sim::DeviceCopy;
use proto_core::resilient_plan::HostCol;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A table column: its values in one shared `Vec` that uploads of the
/// column share as their host storage. It reads as the `Vec` it holds; a
/// write goes through `Arc::make_mut`, so it copies the column first while
/// an upload shares it, and the copy is not published.
#[derive(Clone, PartialEq)]
pub struct Column<T>(Arc<Vec<T>>);

impl<T: DeviceCopy> From<Vec<T>> for Column<T> {
    /// Wrap `values` and publish them, once.
    fn from(values: Vec<T>) -> Self {
        Column(gpu_sim::publish(values))
    }
}

impl<T: DeviceCopy> FromIterator<T> for Column<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<T>>().into()
    }
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column(Arc::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> Deref for Column<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Clone> DerefMut for Column<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        Arc::make_mut(&mut self.0)
    }
}

impl<'a, T> IntoIterator for &'a Column<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// `LINEITEM` — the fact table.
#[derive(Debug, Default, Clone)]
pub struct Lineitem {
    /// FK to orders.
    pub orderkey: Column<u32>,
    /// FK to part.
    pub partkey: Column<u32>,
    /// FK to supplier.
    pub suppkey: Column<u32>,
    /// Line number within the order (1..=7).
    pub linenumber: Column<u32>,
    /// Quantity, 1..=50.
    pub quantity: Column<f64>,
    /// Extended price.
    pub extendedprice: Column<f64>,
    /// Discount, 0.00..=0.10.
    pub discount: Column<f64>,
    /// Tax, 0.00..=0.08.
    pub tax: Column<f64>,
    /// Return flag, dictionary-encoded (see [`RETURNFLAGS`]).
    pub returnflag: Column<u32>,
    /// Line status, dictionary-encoded (see [`LINESTATUSES`]).
    pub linestatus: Column<u32>,
    /// Ship date (day number).
    pub shipdate: Column<u32>,
    /// Commit date (day number).
    pub commitdate: Column<u32>,
    /// Receipt date (day number).
    pub receiptdate: Column<u32>,
    /// Q1's composite group key, `returnflag · 2 + linestatus`: not a
    /// TPC-H column, but an encoding fixed per table, so it is stored once
    /// and every upload and partition source shares it.
    pub groupkey: Column<u32>,
}

/// `ORDERS`.
#[derive(Debug, Default, Clone)]
pub struct Orders {
    /// Primary key.
    pub orderkey: Column<u32>,
    /// FK to customer.
    pub custkey: Column<u32>,
    /// Total price.
    pub totalprice: Column<f64>,
    /// Order date (day number).
    pub orderdate: Column<u32>,
    /// Order priority, dictionary-encoded (see [`PRIORITIES`]).
    pub orderpriority: Column<u32>,
    /// Ship priority (always 0 in dbgen).
    pub shippriority: Column<u32>,
}

/// `CUSTOMER`.
#[derive(Debug, Default, Clone)]
pub struct Customer {
    /// Primary key.
    pub custkey: Column<u32>,
    /// FK to nation.
    pub nationkey: Column<u32>,
    /// Account balance.
    pub acctbal: Column<f64>,
    /// Market segment, dictionary-encoded (see [`SEGMENTS`]).
    pub mktsegment: Column<u32>,
}

/// `PART`.
#[derive(Debug, Default, Clone)]
pub struct Part {
    /// Primary key.
    pub partkey: Column<u32>,
    /// Retail price.
    pub retailprice: Column<f64>,
    /// Size, 1..=50.
    pub size: Column<u32>,
}

/// `SUPPLIER`.
#[derive(Debug, Default, Clone)]
pub struct Supplier {
    /// Primary key.
    pub suppkey: Column<u32>,
    /// FK to nation.
    pub nationkey: Column<u32>,
    /// Account balance.
    pub acctbal: Column<f64>,
}

/// `PARTSUPP`.
#[derive(Debug, Default, Clone)]
pub struct PartSupp {
    /// FK to part.
    pub partkey: Column<u32>,
    /// FK to supplier.
    pub suppkey: Column<u32>,
    /// Available quantity.
    pub availqty: Column<u32>,
    /// Supply cost.
    pub supplycost: Column<f64>,
}

/// `NATION` (fixed 25 rows).
#[derive(Debug, Default, Clone)]
pub struct Nation {
    /// Primary key 0..25.
    pub nationkey: Column<u32>,
    /// FK to region.
    pub regionkey: Column<u32>,
}

/// `REGION` (fixed 5 rows).
#[derive(Debug, Default, Clone)]
pub struct Region {
    /// Primary key 0..5.
    pub regionkey: Column<u32>,
}

/// Dictionary for `l_returnflag`.
pub const RETURNFLAGS: [&str; 3] = ["A", "N", "R"];
/// Dictionary for `l_linestatus`.
pub const LINESTATUSES: [&str; 2] = ["F", "O"];
/// Dictionary for `o_orderpriority`.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Dictionary for `c_mktsegment`.
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
/// The 25 TPC-H nations, indexed by `nationkey` (spec order).
pub const NATIONS: [&str; 25] = [
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
/// The 5 TPC-H regions, indexed by `regionkey`.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// The whole generated database.
#[derive(Debug, Default, Clone)]
pub struct Database {
    /// Scale factor it was generated at.
    pub scale_factor: f64,
    /// LINEITEM table.
    pub lineitem: Lineitem,
    /// ORDERS table.
    pub orders: Orders,
    /// CUSTOMER table.
    pub customer: Customer,
    /// PART table.
    pub part: Part,
    /// SUPPLIER table.
    pub supplier: Supplier,
    /// PARTSUPP table.
    pub partsupp: PartSupp,
    /// NATION table.
    pub nation: Nation,
    /// REGION table.
    pub region: Region,
}

impl Lineitem {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

impl Orders {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.orderkey.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.orderkey.is_empty()
    }
}

impl Customer {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.custkey.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.custkey.is_empty()
    }
}

impl Database {
    /// The host column behind a plan's qualified base-column name
    /// (`table.column`), for every column the studied queries scan;
    /// `None` for any other name.
    pub fn column(&self, name: &str) -> Option<HostCol<'_>> {
        let (u, f) = (HostCol::U32, HostCol::F64);
        let (li, o, c) = (&self.lineitem, &self.orders, &self.customer);
        Some(match name {
            "lineitem.orderkey" => u(&li.orderkey),
            "lineitem.partkey" => u(&li.partkey),
            "lineitem.suppkey" => u(&li.suppkey),
            "lineitem.quantity" => f(&li.quantity),
            "lineitem.extendedprice" => f(&li.extendedprice),
            "lineitem.discount" => f(&li.discount),
            "lineitem.tax" => f(&li.tax),
            "lineitem.shipdate" => u(&li.shipdate),
            "lineitem.commitdate" => u(&li.commitdate),
            "lineitem.receiptdate" => u(&li.receiptdate),
            "lineitem.groupkey" => u(&li.groupkey),
            "orders.orderkey" => u(&o.orderkey),
            "orders.custkey" => u(&o.custkey),
            "orders.orderdate" => u(&o.orderdate),
            "orders.orderpriority" => u(&o.orderpriority),
            "customer.custkey" => u(&c.custkey),
            "customer.nationkey" => u(&c.nationkey),
            "customer.mktsegment" => u(&c.mktsegment),
            "part.partkey" => u(&self.part.partkey),
            "part.size" => u(&self.part.size),
            "supplier.suppkey" => u(&self.supplier.suppkey),
            "supplier.nationkey" => u(&self.supplier.nationkey),
            "nation.nationkey" => u(&self.nation.nationkey),
            "nation.regionkey" => u(&self.nation.regionkey),
            _ => return None,
        })
    }
}

/// Q1's group key encoding: `returnflag · 2 + linestatus` (6 live
/// groups).
pub(crate) fn group_key(rf: u32, ls: u32) -> u32 {
    rf * 2 + ls
}

/// Dictionary index of a segment name.
pub(crate) fn segment_code(name: &str) -> Option<u32> {
    SEGMENTS.iter().position(|&s| s == name).map(|i| i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_codes() {
        assert_eq!(segment_code("BUILDING"), Some(1));
        assert_eq!(segment_code("MACHINERY"), Some(4));
        assert_eq!(segment_code("NOPE"), None);
    }

    #[test]
    fn an_upload_shares_a_column_until_the_column_is_written() {
        let dev = gpu_sim::Device::with_defaults();
        let mut col: Column<u32> = (0..1 << 14).collect();
        let buf = dev.htod(&col).unwrap();
        assert!(std::ptr::eq(buf.host(), col.as_slice()), "shared");
        col[0] = 7;
        assert_eq!((buf.host()[0], col[0]), (0, 7));
    }

    #[test]
    fn empty_tables() {
        let li = Lineitem::default();
        assert!(li.is_empty());
        assert_eq!(li.len(), 0);
        assert!(Orders::default().is_empty());
        assert!(Customer::default().is_empty());
    }
}
