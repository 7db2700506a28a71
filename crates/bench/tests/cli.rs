//! The `bench` binaries reject a malformed worker count, fault rate or
//! fusion threshold up front — exit code 2 and one line on stderr, before anything runs —
//! instead of silently running with a value nobody asked for.

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
    let all_experiments = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
        cmd.env_remove("GPU_SIM_HOST_JOBS");
        cmd
    };
    for args in [&["--jobs", "abc"][..], &["-j", "0"], &["--jobs"]] {
        let mut cmd = all_experiments();
        cmd.args(args);
        assert_rejected(cmd, &format!("bad {} value", args[0]));
    }
    for value in ["x", "-1", "1.5", ""] {
        let mut cmd = all_experiments();
        cmd.env("GPU_SIM_HOST_JOBS", value);
        assert_rejected(cmd, "bad GPU_SIM_HOST_JOBS value");
    }
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
fn a_malformed_fusion_threshold_is_rejected() {
    for value in ["abc", "-1", ""] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_all_experiments"));
        cmd.env_remove("GPU_SIM_HOST_JOBS");
        cmd.env("PROTO_FUSION_THRESHOLD", value);
        assert_rejected(cmd, &format!("bad PROTO_FUSION_THRESHOLD value `{value}`"));
    }
}
