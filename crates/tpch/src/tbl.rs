//! `.tbl` interchange — dbgen's pipe-separated format.
//!
//! Lets the generated data be diffed against official `dbgen` output,
//! and lets other systems consume our tables. Only the
//! columns our schema carries are written; dictionary-encoded categoricals
//! are emitted as their text values, dates as `YYYY-MM-DD`, exactly like
//! dbgen.

use crate::dates;
use crate::schema::{Database, Lineitem, Orders, LINESTATUSES, PRIORITIES, RETURNFLAGS, SEGMENTS};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

fn fmt_date(day: u32) -> String {
    let (y, m, d) = dates::decode(day);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Render `lineitem` rows as `.tbl` lines.
fn lineitem_tbl(li: &Lineitem) -> String {
    let mut out = String::new();
    for i in 0..li.len() {
        let _ = writeln!(
            out,
            "{}|{}|{}|{}|{}|{:.2}|{:.2}|{:.2}|{}|{}|{}|{}|{}|",
            li.orderkey[i],
            li.partkey[i],
            li.suppkey[i],
            li.linenumber[i],
            li.quantity[i],
            li.extendedprice[i],
            li.discount[i],
            li.tax[i],
            RETURNFLAGS[li.returnflag[i] as usize],
            LINESTATUSES[li.linestatus[i] as usize],
            fmt_date(li.shipdate[i]),
            fmt_date(li.commitdate[i]),
            fmt_date(li.receiptdate[i]),
        );
    }
    out
}

/// Render `orders` rows as `.tbl` lines.
fn orders_tbl(o: &Orders) -> String {
    let mut out = String::new();
    for i in 0..o.len() {
        let _ = writeln!(
            out,
            "{}|{}|{:.2}|{}|{}|{}|",
            o.orderkey[i],
            o.custkey[i],
            o.totalprice[i],
            fmt_date(o.orderdate[i]),
            PRIORITIES[o.orderpriority[i] as usize],
            o.shippriority[i],
        );
    }
    out
}

/// Render `customer` rows as `.tbl` lines.
fn customer_tbl(db: &Database) -> String {
    let c = &db.customer;
    let mut out = String::new();
    for i in 0..c.len() {
        let _ = writeln!(
            out,
            "{}|{}|{:.2}|{}|",
            c.custkey[i], c.nationkey[i], c.acctbal[i], SEGMENTS[c.mktsegment[i] as usize],
        );
    }
    out
}

/// Write `lineitem.tbl`, `orders.tbl` and `customer.tbl` into `dir`.
pub fn export(db: &Database, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("lineitem.tbl"), lineitem_tbl(&db.lineitem))?;
    std::fs::write(dir.join("orders.tbl"), orders_tbl(&db.orders))?;
    std::fs::write(dir.join("customer.tbl"), customer_tbl(db))?;
    Ok(())
}

/// Parse `YYYY-MM-DD` back to a day number.
#[cfg(test)]
fn parse_date(s: &str) -> Option<u32> {
    let mut it = s.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    (it.next().is_none() && y >= dates::EPOCH_YEAR).then(|| dates::date(y, m, d))
}

/// Parse lineitem `.tbl` content back into a columnar table: the loader
/// the export is round-tripped through.
#[cfg(test)]
fn parse_lineitem(content: &str) -> Result<Lineitem, String> {
    let mut li = Lineitem::default();
    for (lineno, line) in content.lines().enumerate() {
        let fields: Vec<&str> = line.split('|').collect();
        if fields.len() < 13 {
            return Err(format!("line {}: expected 13 fields", lineno + 1));
        }
        let parse_u32 = |i: usize| -> Result<u32, String> {
            fields[i]
                .parse()
                .map_err(|_| format!("line {}: bad field {}", lineno + 1, i))
        };
        let parse_f64 = |i: usize| -> Result<f64, String> {
            fields[i]
                .parse()
                .map_err(|_| format!("line {}: bad field {}", lineno + 1, i))
        };
        let dict = |i: usize, table: &[&str]| -> Result<u32, String> {
            table
                .iter()
                .position(|&v| v == fields[i])
                .map(|p| p as u32)
                .ok_or_else(|| format!("line {}: unknown code `{}`", lineno + 1, fields[i]))
        };
        let date_at = |i: usize| -> Result<u32, String> {
            parse_date(fields[i]).ok_or_else(|| format!("line {}: bad date", lineno + 1))
        };
        li.orderkey.push(parse_u32(0)?);
        li.partkey.push(parse_u32(1)?);
        li.suppkey.push(parse_u32(2)?);
        li.linenumber.push(parse_u32(3)?);
        li.quantity.push(parse_f64(4)?);
        li.extendedprice.push(parse_f64(5)?);
        li.discount.push(parse_f64(6)?);
        li.tax.push(parse_f64(7)?);
        li.returnflag.push(dict(8, &RETURNFLAGS)?);
        li.linestatus.push(dict(9, &LINESTATUSES)?);
        li.shipdate.push(date_at(10)?);
        li.commitdate.push(date_at(11)?);
        li.receiptdate.push(date_at(12)?);
    }
    Ok(li)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn lineitem_roundtrips_through_tbl() {
        let db = generate(0.001);
        let text = lineitem_tbl(&db.lineitem);
        let back = parse_lineitem(&text).unwrap();
        assert_eq!(back.orderkey, db.lineitem.orderkey);
        assert_eq!(back.shipdate, db.lineitem.shipdate);
        assert_eq!(back.returnflag, db.lineitem.returnflag);
        assert_eq!(back.quantity, db.lineitem.quantity);
        // Money columns round to cents in the format — the generator only
        // produces cent-precision values, so they survive exactly.
        assert_eq!(back.extendedprice, db.lineitem.extendedprice);
    }

    #[test]
    fn tbl_format_matches_dbgen_conventions() {
        let db = generate(0.001);
        let line = lineitem_tbl(&db.lineitem)
            .lines()
            .next()
            .unwrap()
            .to_string();
        assert!(line.ends_with('|'), "dbgen lines end with a separator");
        assert_eq!(line.matches('|').count(), 13);
        let odr = orders_tbl(&db.orders).lines().next().unwrap().to_string();
        assert!(PRIORITIES.iter().any(|p| odr.contains(p)));
        let cst = customer_tbl(&db).lines().next().unwrap().to_string();
        assert!(SEGMENTS.iter().any(|s| cst.contains(s)));
    }

    #[test]
    fn export_writes_three_files() {
        let db = generate(0.001);
        let dir = std::env::temp_dir().join("tpch_tbl_export_test");
        export(&db, &dir).unwrap();
        for f in ["lineitem.tbl", "orders.tbl", "customer.tbl"] {
            assert!(dir.join(f).exists(), "{f}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
