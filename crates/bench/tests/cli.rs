//! The `bench` binaries reject a malformed worker count, fault rate, an
//! argument they do not take or a `--csv` directory they cannot create up
//! front — exit code 2 and one line on stderr, before anything runs —
//! instead of silently running with a value nobody asked for. `--help`
//! names every flag a binary takes.

use std::process::Command;

fn assert_rejected(mut cmd: Command, needle: &str) {
    let out = cmd.output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{cmd:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{cmd:?}: {stderr}");
    assert!(stderr.contains(needle), "{cmd:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{cmd:?}: rejected before running");
}

#[test]
fn a_malformed_job_count_is_rejected() {
    for args in [
        &["--jobs", "abc"][..],
        &["-j", "0"],
        &["--jobs"],
        &["-j", "-1"],
    ] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
        cmd.args(args);
        assert_rejected(cmd, &format!("bad {} value", args[0]));
    }
}

#[test]
fn an_argument_all_experiments_does_not_take_is_rejected() {
    let cases: [(&[&str], &str); 7] = [
        (&["--help"], "unknown argument `--help`"),
        (&["-h"], "unknown argument `-h`"),
        (&["--only", "E10"], "unknown argument `--only`"),
        (&["--jobs", "2", "extra"], "unknown argument `extra`"),
        (&["--csv"], "--csv needs a directory"),
        (&["--csv", ""], "--csv needs a directory"),
        (&["--csv", "--jobs"], "--csv needs a directory"),
    ];
    assert_all_rejected(env!("CARGO_BIN_EXE_all_experiments"), &cases);
}

/// Run `bin` with each case's arguments in an empty directory: each is
/// rejected with its needle, and a rejected run writes nothing.
fn assert_all_rejected(bin: &str, cases: &[(&[&str], &str)]) {
    let name = std::path::Path::new(bin).file_stem().unwrap();
    let dir = std::env::temp_dir().join(format!(
        "{}_cli_{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    for (args, needle) in cases {
        let mut cmd = Command::new(bin);
        cmd.args(*args).current_dir(&dir);
        assert_rejected(cmd, needle);
    }
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(left.is_empty(), "a rejected run wrote {left:?}");
    std::fs::remove_dir(&dir).unwrap();
}

#[test]
fn an_argument_a_fig_binary_does_not_take_is_rejected() {
    let csv_cases: [(&[&str], &str); 5] = [
        (&["--csv"], "--csv needs a directory"),
        (&["--csv", "--foo"], "--csv needs a directory"),
        (&["--foo"], "unknown argument `--foo`"),
        (&["--jobs", "2"], "unknown argument `--jobs`"),
        (&["--csv", "out", "extra"], "unknown argument `extra`"),
    ];
    assert_all_rejected(env!("CARGO_BIN_EXE_fig_fault_resilience"), &csv_cases);
    assert_all_rejected(env!("CARGO_BIN_EXE_fig_launch_anatomy"), &csv_cases);
    let bare_cases: [(&[&str], &str); 3] = [
        (&["--csv", "out"], "unknown argument `--csv`"),
        (&["-h"], "unknown argument `-h`"),
        (&["extra"], "unknown argument `extra`"),
    ];
    assert_all_rejected(env!("CARGO_BIN_EXE_fig_device_sensitivity"), &bare_cases);
    assert_all_rejected(env!("CARGO_BIN_EXE_fig_query_timeline"), &bare_cases);
}

/// A `--csv` directory that cannot be created — here, one below a file — is
/// refused before anything runs; a CSV that cannot be written once the run
/// is over is one stderr line and exit code 1. Neither panics.
#[test]
fn an_unwritable_csv_directory_is_an_error_not_a_panic() {
    let scratch = std::env::temp_dir().join(format!("bench_cli_csv_{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let file = scratch.join("a_file");
    std::fs::write(&file, "").unwrap();
    for bin in [
        env!("CARGO_BIN_EXE_all_experiments"),
        env!("CARGO_BIN_EXE_fig_fault_resilience"),
        env!("CARGO_BIN_EXE_fig_launch_anatomy"),
    ] {
        let mut cmd = Command::new(bin);
        cmd.arg("--csv").arg(file.join("csv"));
        assert_rejected(cmd, "cannot create --csv directory");
    }
    // E15.csv is taken by a directory: the run succeeds, its write fails.
    let csv = scratch.join("csv");
    std::fs::create_dir_all(csv.join("E15.csv")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fig_launch_anatomy"))
        .arg("--csv")
        .arg(&csv)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!out.stdout.is_empty(), "the run itself completed");
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn a_fault_rate_outside_the_unit_interval_is_rejected() {
    for value in ["2", "-0.1", "nan", "inf", "x", ""] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fault_smoke"));
        cmd.env("GPU_SIM_FAULT_RATE", value);
        assert_rejected(cmd, "bad GPU_SIM_FAULT_RATE value");
    }
}

#[test]
fn an_argument_gpu_lint_does_not_take_is_rejected() {
    let cases: [(&[&str], &str); 3] = [
        (&["--bogus"], "unknown argument `--bogus`"),
        (&["E99"], "unknown experiment `E99`"),
        (&["--deny-warnings", "nope"], "unknown experiment `nope`"),
    ];
    for (args, needle) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_gpu_lint"));
        cmd.args(args);
        assert_rejected(cmd, needle);
    }
}

#[test]
fn gpu_lint_help_names_every_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_gpu_lint"))
        .arg("--help")
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let usage = stdout.lines().next().unwrap_or_default();
    for flag in ["--deny-warnings", "--timeline", "--dump"] {
        assert!(usage.contains(flag), "{flag} missing from {usage:?}");
    }
}
