//! The `gpu-proto-db` binary rejects bad arguments up front — an argument
//! a subcommand does not take, a bad `--sf`, an unknown query or backend,
//! an `--out` directory it cannot create: exit code 2 and one line on
//! stderr, before any table is generated — still runs a good query, and
//! prints the survey.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gpu-proto-db"))
        .args(args)
        .output()
        .expect("spawn gpu-proto-db")
}

fn assert_rejected(args: &[&str], needle: &str) {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: rejected before generating anything"
    );
}

#[test]
fn non_finite_and_non_positive_scale_factors_are_rejected() {
    for sf in ["inf", "nan", "-3", "0", "1e999", "big"] {
        assert_rejected(&["query", "q6", "--sf", sf], "bad --sf value");
        assert_rejected(&["export", "--sf", sf], "bad --sf value");
    }
}

#[test]
fn an_unknown_query_is_rejected_before_the_database_is_generated() {
    assert_rejected(&["query", "q9", "--sf", "0.001"], "unknown query `q9`");
    assert_rejected(&["query"], "unknown query");
}

#[test]
fn an_argument_a_subcommand_does_not_take_is_rejected() {
    let cases: [(&[&str], &str); 9] = [
        (
            &["export", "/proc/nope"],
            "unexpected argument `/proc/nope`",
        ),
        (&["export", "--bogus"], "unexpected argument `--bogus`"),
        (&["export", "--out"], "--out needs a value"),
        (&["query", "q6", "--bogus"], "unexpected argument `--bogus`"),
        (&["query", "q6", "--sf"], "--sf needs a value"),
        (
            &["query", "q6", "--backend", "Nope"],
            "no backend matched `Nope`",
        ),
        (&["support", "extra"], "unexpected argument `extra`"),
        (&["survey", "--sf", "1"], "unexpected argument `--sf`"),
        (&["devices", "-v"], "unexpected argument `-v`"),
    ];
    for (args, needle) in cases {
        assert_rejected(args, needle);
    }
}

/// An `--out` directory that cannot be created is refused before the
/// database is generated; a table that cannot be written afterwards is one
/// stderr line and exit code 1. Neither panics.
#[test]
fn an_unwritable_export_directory_is_an_error_not_a_panic() {
    assert_rejected(
        &["export", "--out", "/proc/nope"],
        "cannot create --out directory",
    );
    let dir = std::env::temp_dir().join(format!("gpu_proto_db_cli_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("lineitem.tbl")).unwrap();
    let out = cli(&["export", "--sf", "0.001", "--out", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn survey_prints_the_hierarchy_table_i_and_the_libraries_selected_for_study() {
    let out = cli(&["survey"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let at = |needle: &str| {
        stdout
            .find(needle)
            .unwrap_or_else(|| panic!("no {needle:?} in:\n{stdout}"))
    };
    let fig = at("Fig. 1: Hierarchy");
    let table = at("TABLE I:");
    let total = at("\nTotal ");
    let selected = at("Selected for the study");
    assert!(fig < table && table < total && total < selected, "{stdout}");
    let total_line = stdout[total..].trim_start().lines().next().unwrap_or("");
    assert!(total_line.ends_with(" 43"), "{total_line}");
    let picked: Vec<&str> = stdout[selected..].lines().skip(1).collect();
    assert_eq!(
        picked,
        [
            "  - ArrayFire (CUDA & OpenCL)",
            "  - Boost.Compute (OpenCL)",
            "  - Thrust (CUDA)"
        ]
    );
}

#[test]
fn a_good_query_runs_on_every_backend() {
    let out = cli(&["query", "q6", "--sf", "0.001"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for backend in ["ArrayFire", "Boost.Compute", "Thrust", "Handwritten"] {
        let line = stdout.lines().find(|l| l.starts_with(backend));
        let line = line.unwrap_or_else(|| panic!("no {backend} line in:\n{stdout}"));
        assert!(line.contains("revenue = "), "{line}");
        assert!(!line.contains("revenue = 0.00"), "{line}");
    }
}
