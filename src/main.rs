//! `gpu-proto-db` — command-line front end for the reproduction.
//!
//! ```text
//! gpu-proto-db survey                      # Figure 1 + Table I + the study's libraries
//! gpu-proto-db support                     # Table II (generated)
//! gpu-proto-db query q6 --sf 0.01          # run a TPC-H query everywhere
//! gpu-proto-db query q3 --backend Thrust   # …or on one backend
//! gpu-proto-db devices                     # the device presets
//! ```

use gpu_proto_db::core::backend::GpuBackend;
use gpu_proto_db::core::runner::fmt_duration;
use gpu_proto_db::sim::SimError;
use gpu_proto_db::tpch::queries::{can_join, q1::Q1, q14::Q14, q3::Q3, q4::Q4, q5::Q5, q6::Q6};
use gpu_proto_db::tpch::queries::{Query, QueryData};
use gpu_proto_db::tpch::Database;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    if matches!(cmd, "survey" | "support" | "devices") {
        parse_flags(cmd, &args[1..], &[]);
    }
    match cmd {
        "survey" => {
            use gpu_proto_db::core::survey;
            println!("{}", survey::render_hierarchy());
            println!("{}", survey::render_table());
            println!("Selected for the study (DB-operator libraries with pre-written functions):");
            for l in survey::selected_for_study() {
                println!("  - {} ({})", l.name, l.substrate.label());
            }
        }
        "support" => {
            let fw = gpu_proto_db::paper_setup();
            println!("{}", fw.support_matrix());
        }
        "devices" => {
            for spec in [
                gpu_proto_db::sim::DeviceSpec::integrated(),
                gpu_proto_db::sim::DeviceSpec::gtx1080(),
                gpu_proto_db::sim::DeviceSpec::server(),
            ] {
                println!(
                    "{:<28} {:>3} SMs × {:<4} lanes @ {:.2} GHz   {:>5.0} GB/s mem   {:>4.0} GB/s PCIe",
                    spec.name,
                    spec.sm_count,
                    spec.lanes_per_sm,
                    spec.clock_ghz,
                    spec.mem_bandwidth_gbps,
                    spec.pcie_bandwidth_gbps
                );
            }
        }
        "query" => run_query(&args[1..]),
        "export" => {
            let flags = parse_flags("export", &args[1..], &["--sf", "--out"]);
            let sf = scale_factor("export", &flags);
            let dir = flag(&flags, "--out").unwrap_or("tpch-data");
            if let Err(e) = std::fs::create_dir_all(dir) {
                reject(
                    "export",
                    format!("cannot create --out directory `{dir}`: {e}"),
                );
            }
            println!("generating TPC-H SF {sf} → {dir}/…");
            let db = gpu_proto_db::tpch::generate(sf);
            if let Err(e) = gpu_proto_db::tpch::tbl::export(&db, std::path::Path::new(dir)) {
                eprintln!("export: cannot write into `{dir}`: {e}");
                std::process::exit(1);
            }
            println!(
                "wrote lineitem.tbl ({} rows), orders.tbl ({}), customer.tbl ({})",
                db.lineitem.len(),
                db.orders.len(),
                db.customer.len()
            );
        }
        _ => {
            eprintln!(
                "usage: gpu-proto-db <survey|support|devices|query|export> …\n\
                 \n\
                 query subcommand:\n\
                 \tgpu-proto-db query <q1|q3|q4|q5|q6|q14> [--sf 0.01] [--backend NAME]\n\
                 \tgpu-proto-db export [--sf 0.01] [--out DIR]   # dbgen-style .tbl files\n\
                 \n\
                 experiment binaries live in the bench crate:\n\
                 \tcargo run --release -p bench --bin all_experiments"
            );
            if cmd != "help" && cmd != "--help" && cmd != "-h" {
                std::process::exit(2);
            }
        }
    }
}

/// Report a bad command line on one stderr line and exit with code 2,
/// before any table is generated.
fn reject(cmd: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("{cmd}: {why}");
    std::process::exit(2);
}

/// `args` as `(flag, value)` pairs, each flag one of `takes`. Anything
/// else, or a flag without a value, is [`reject`]ed.
fn parse_flags<'a>(cmd: &str, args: &'a [String], takes: &[&str]) -> Vec<(&'a str, &'a str)> {
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !takes.contains(&arg.as_str()) {
            reject(cmd, format!("unexpected argument `{arg}`"));
        }
        match args.next() {
            Some(value) => flags.push((arg.as_str(), value.as_str())),
            None => reject(cmd, format!("{arg} needs a value")),
        }
    }
    flags
}

/// The value of the first `name` among `flags`.
fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(f, _)| *f == name).map(|(_, v)| *v)
}

/// The `--sf` scale factor (default 0.01). Exits 2 on anything but a
/// finite number above zero: the generator sizes every table from it, so
/// `inf` asks for an unbounded allocation and `nan` / negatives silently
/// clamp to one-row tables.
fn scale_factor(cmd: &str, flags: &[(&str, &str)]) -> f64 {
    let Some(v) = flag(flags, "--sf") else {
        return 0.01;
    };
    match v.parse::<f64>() {
        Ok(sf) if sf.is_finite() && sf > 0.0 => sf,
        _ => reject(
            cmd,
            format!("bad --sf value `{v}` (expected a finite number > 0)"),
        ),
    }
}

const QUERIES: [&str; 6] = ["q1", "q3", "q4", "q5", "q6", "q14"];

fn run_query(args: &[String]) {
    let query: fn(&dyn GpuBackend, &Database) -> Result<(), SimError> =
        match args.first().map(String::as_str) {
            Some("q1") => |b, db| run::<Q1>(b, db, |rows| format!("{} groups", rows.len())),
            Some("q3") => |b, db| {
                run::<Q3>(b, db, |rows| {
                    format!("top order #{}", rows.first().map_or(0, |r| r.orderkey))
                })
            },
            Some("q4") => |b, db| run::<Q4>(b, db, |rows| format!("{} priorities", rows.len())),
            Some("q5") => |b, db| {
                run::<Q5>(b, db, |rows| {
                    let top = rows.first().map_or("(none)", |r| r.nation());
                    format!("top nation: {top}")
                })
            },
            Some("q6") => |b, db| run::<Q6>(b, db, |v| format!("revenue = {v:.2}")),
            Some("q14") => |b, db| run::<Q14>(b, db, |pct| format!("promo share = {pct:.2}%")),
            other => reject(
                "query",
                format!(
                    "unknown query `{}` (expected {})",
                    other.unwrap_or(""),
                    QUERIES.join(", ")
                ),
            ),
        };
    let flags = parse_flags("query", &args[1..], &["--sf", "--backend"]);
    let sf = scale_factor("query", &flags);
    let only = flag(&flags, "--backend");

    let fw = gpu_proto_db::paper_setup();
    let backends: Vec<&dyn GpuBackend> = fw
        .backends()
        .iter()
        .map(|b| b.as_ref())
        .filter(|b| only.is_none_or(|only| b.name().eq_ignore_ascii_case(only)))
        .collect();
    if backends.is_empty() {
        reject(
            "query",
            format!(
                "no backend matched `{}` (have: ArrayFire, Boost.Compute, Thrust, Handwritten)",
                only.unwrap_or("?")
            ),
        );
    }

    println!("generating TPC-H SF {sf}…");
    let db = gpu_proto_db::tpch::generate(sf);
    for b in backends {
        if query(b, &db).is_err() {
            debug_assert!(!can_join(b), "only join-less backends may fail");
            println!(
                "{:<16} unsupported (no join algorithm — Table II)",
                b.name()
            );
        }
    }
}

/// Run query `Q` on `b` once to warm up, then time a second run and
/// print it with `show`'s rendering of the answer.
fn run<Q: Query>(
    b: &dyn GpuBackend,
    db: &Database,
    show: impl Fn(&Q::Answer) -> String,
) -> Result<(), SimError> {
    let d = QueryData::<Q>::upload(b, db).expect("upload");
    d.execute(b).map(|_| {
        let (answer, t) = b.device().time(|| d.execute(b).expect(Q::NAME));
        println!(
            "{:<16} {}   {}",
            b.name(),
            fmt_duration(t.as_nanos()),
            show(&answer)
        );
    })
}
