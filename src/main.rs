//! `gpu-proto-db` — command-line front end for the reproduction.
//!
//! ```text
//! gpu-proto-db survey                      # Table I + Figure 1
//! gpu-proto-db support                     # Table II (generated)
//! gpu-proto-db query q6 --sf 0.01          # run a TPC-H query everywhere
//! gpu-proto-db query q3 --backend Thrust   # …or on one backend
//! gpu-proto-db devices                     # the device presets
//! ```

use gpu_proto_db::core::runner::fmt_duration;
use gpu_proto_db::tpch::queries::{can_join, q1, q14, q3, q4, q5, q6};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "survey" => {
            println!("{}", gpu_proto_db::core::survey::render_hierarchy());
            println!("{}", gpu_proto_db::core::survey::render_table());
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
            let sf = scale_factor("export", &args[1..]);
            let dir = flag_value(&args[1..], "--out").unwrap_or("tpch-data");
            println!("generating TPC-H SF {sf} → {dir}/…");
            let db = gpu_proto_db::tpch::generate(sf);
            gpu_proto_db::tpch::tbl::export(&db, std::path::Path::new(dir)).expect("export");
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

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// The `--sf` scale factor (default 0.01). Exits 2 on anything but a
/// finite number above zero: the generator sizes every table from it, so
/// `inf` asks for an unbounded allocation and `nan` / negatives silently
/// clamp to one-row tables.
fn scale_factor(cmd: &str, args: &[String]) -> f64 {
    let Some(v) = flag_value(args, "--sf") else {
        return 0.01;
    };
    match v.parse::<f64>() {
        Ok(sf) if sf.is_finite() && sf > 0.0 => sf,
        _ => {
            eprintln!("{cmd}: bad --sf value `{v}` (expected a finite number > 0)");
            std::process::exit(2);
        }
    }
}

const QUERIES: [&str; 6] = ["q1", "q3", "q4", "q5", "q6", "q14"];

fn run_query(args: &[String]) {
    let Some(query) = args.first().filter(|q| QUERIES.contains(&q.as_str())) else {
        eprintln!(
            "query: unknown query `{}` (expected {})",
            args.first().map_or("", String::as_str),
            QUERIES.join(", ")
        );
        std::process::exit(2);
    };
    let sf = scale_factor("query", args);
    let only = flag_value(args, "--backend");
    if let Err(e) = gpu_proto_db::core::optimizer::env_fusion_threshold() {
        eprintln!("query: {e}");
        std::process::exit(2);
    }

    println!("generating TPC-H SF {sf}…");
    let db = gpu_proto_db::tpch::generate(sf);
    let fw = gpu_proto_db::paper_setup();
    let mut ran_any = false;
    for backend in fw.backends() {
        let b = backend.as_ref();
        if let Some(only) = only {
            if !b.name().eq_ignore_ascii_case(only) {
                continue;
            }
        }
        ran_any = true;
        let outcome = match query.as_str() {
            "q6" => {
                let d = q6::Q6Data::upload(b, &db).expect("upload");
                d.execute(b).map(|_| {
                    let (v, t) = b.device().time(|| d.execute(b).expect("q6"));
                    println!(
                        "{:<16} {}   revenue = {v:.2}",
                        b.name(),
                        fmt_duration(t.as_nanos())
                    );
                })
            }
            "q1" => {
                let d = q1::Q1Data::upload(b, &db).expect("upload");
                d.execute(b).map(|_| {
                    let (rows, t) = b.device().time(|| d.execute(b).expect("q1"));
                    println!(
                        "{:<16} {}   {} groups",
                        b.name(),
                        fmt_duration(t.as_nanos()),
                        rows.len()
                    );
                })
            }
            "q3" => {
                let d = q3::Q3Data::upload(b, &db).expect("upload");
                d.execute(b, &db).map(|_| {
                    let (rows, t) = b.device().time(|| d.execute(b, &db).expect("q3"));
                    println!(
                        "{:<16} {}   top order #{}",
                        b.name(),
                        fmt_duration(t.as_nanos()),
                        rows.first().map_or(0, |r| r.orderkey)
                    );
                })
            }
            "q4" => {
                let d = q4::Q4Data::upload(b, &db).expect("upload");
                d.execute(b).map(|_| {
                    let (rows, t) = b.device().time(|| d.execute(b).expect("q4"));
                    println!(
                        "{:<16} {}   {} priorities",
                        b.name(),
                        fmt_duration(t.as_nanos()),
                        rows.len()
                    );
                })
            }
            "q5" => {
                let d = q5::Q5Data::upload(b, &db).expect("upload");
                d.execute(b).map(|_| {
                    let (rows, t) = b.device().time(|| d.execute(b).expect("q5"));
                    println!(
                        "{:<16} {}   top nation: {}",
                        b.name(),
                        fmt_duration(t.as_nanos()),
                        rows.first().map_or("(none)", |r| r.nation())
                    );
                })
            }
            "q14" => {
                let d = q14::Q14Data::upload(b, &db).expect("upload");
                d.execute(b).map(|_| {
                    let (pct, t) = b.device().time(|| d.execute(b).expect("q14"));
                    println!(
                        "{:<16} {}   promo share = {pct:.2}%",
                        b.name(),
                        fmt_duration(t.as_nanos())
                    );
                })
            }
            other => unreachable!("`{other}` passed the QUERIES check"),
        };
        if outcome.is_err() {
            debug_assert!(!can_join(b), "only join-less backends may fail");
            println!(
                "{:<16} unsupported (no join algorithm — Table II)",
                b.name()
            );
        }
    }
    if !ran_any {
        eprintln!(
            "query: no backend matched `{}` (have: ArrayFire, Boost.Compute, Thrust, Handwritten)",
            only.unwrap_or("?")
        );
        std::process::exit(2);
    }
}
