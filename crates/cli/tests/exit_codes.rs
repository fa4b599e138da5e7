//! The binary's error path: an out-of-range flag value, or a rate and
//! duration that together expect too many events, ends the process with
//! exit status 1 and a one-line message on stderr, not a panic (exit
//! status 101) or an unbounded run.

use std::process::Command;

#[test]
fn out_of_range_rate_and_duration_exit_1_with_one_line() {
    let cases: [&[&str]; 5] = [
        &["run", "--rate", "0"],
        &["run", "--rate", "-5"],
        &["telemetry", "--rate", "0"],
        &["quantize", "--rate", "1000", "--duration-ms", "0"],
        &["run", "--rate", "1e12", "--duration-ms", "1"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_aetr-cli")).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
