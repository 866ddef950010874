//! `tables` answers a bad command line with the usage line on stderr and
//! exit code 2, not a panic and a backtrace; and it calibrates only for
//! the modes that read the calibration.

use std::process::Command;

/// Runs `tables` with `args`; returns its exit code and stderr.
fn tables(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// `args` must be refused with `problem`, the usage line, and exit 2;
/// returns the usage line.
fn assert_refused(args: &[&str], problem: &str) -> String {
    let (code, stderr) = tables(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(problem), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let usage = stderr.lines().find(|l| l.starts_with("usage: tables "));
    usage.expect("a usage line on stderr").to_string()
}

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    assert_refused(&["--bogus"], "unknown argument '--bogus'");
}

#[test]
fn a_missing_flag_value_prints_usage_and_exits_2() {
    assert_refused(&["--table", "2", "--seed"], "--seed needs a value");
}

#[test]
fn the_deleted_sweep_modes_are_unknown_arguments() {
    for flag in ["--engine", "--leaf", "--tree"] {
        let usage = assert_refused(&[flag], &format!("unknown argument '{flag}'"));
        assert!(!usage.contains(flag), "{usage}");
    }
}

#[test]
fn a_bad_flag_value_prints_usage_and_exits_2() {
    assert_refused(&["--table", "9"], "no table 9");
    assert_refused(&["--figure", "2"], "no figure 2");
    assert_refused(&["--spec", "{"], "--spec JSON did not parse");
    for kind in ["iterated_sampling", "simulated_annealing"] {
        let spec = format!(r#"{{"algorithm":{{"kind":"{kind}"}},"seed":1}}"#);
        assert_refused(
            &["--spec", &spec],
            &format!("unknown algorithm kind `{kind}`"),
        );
    }
    let spec = r#"{"algorithm":{"kind":"sample"},"budget":{},"seed":1}"#;
    assert_refused(&["--spec", spec, "--game", "chess"], "unknown game 'chess'");
}

#[test]
fn a_mode_that_reads_no_calibration_does_not_calibrate() {
    // `--service` sits behind the lazily built `Experiments`; only the
    // table/figure/ablation modes calibrate.
    let (code, stderr) = tables(&["--service", "--out", env!("CARGO_TARGET_TMPDIR")]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("calibrating"), "{stderr}");
}
