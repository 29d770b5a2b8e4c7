//! End-to-end checks of the `harness` command line: argument handling,
//! exit codes and the JSON shapes scripts rely on, at mini sizes.

use serde::Value;
use std::process::{Command, Output, Stdio};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("the harness binary runs")
}

fn stdout_json(output: &Output) -> Value {
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).expect("stdout is JSON")
}

/// Asserts that the invocation is rejected with exit code 2 and an error
/// message containing `message`.
fn assert_rejected(args: &[&str], message: &str) {
    let output = harness(args);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} must print nothing");
}

#[test]
fn grid_backends_agree_on_every_level() {
    let reports = stdout_json(&harness(&[
        "grid",
        "--size",
        "mini",
        "--kernels",
        "jacobi-1d",
        "--policies",
        "lru",
        "--backends",
        "classic,warping",
        "--json",
    ]));
    let reports = reports.as_array().expect("an array of reports");
    assert_eq!(reports.len(), 2);
    let levels: Vec<&Value> = reports
        .iter()
        .map(|report| {
            report
                .get("result")
                .and_then(|result| result.get("levels"))
                .expect("result.levels")
        })
        .collect();
    assert_eq!(levels[0], levels[1]);
    let backends: Vec<_> = reports
        .iter()
        .map(|report| report.get("backend").and_then(Value::as_str))
        .collect();
    assert_eq!(backends, [Some("classic"), Some("warping")]);
}

#[test]
fn bad_arguments_exit_2_with_their_message() {
    assert_rejected(&["grid", "--bogus"], "unknown grid argument `--bogus`");
    assert_rejected(
        &["grid", "--size", "mini", "--threads"],
        "missing value for --threads",
    );
    assert_rejected(
        &["grid", "--size", "mini", "--sample-rate", "2"],
        "--sample-rate: sample rate must be in (0, 1]",
    );
    assert_rejected(&["fig6", "--policies", "nope"], "unknown policy `nope`");
    assert_rejected(
        &["explore", "--plan", "maybe"],
        "--plan expects `on` or `off`",
    );
}

#[test]
fn serve_rejects_zero_workers() {
    assert_rejected(&["serve", "--workers", "0"], "workers must be at least 1");
}

#[test]
fn explore_reports_unsatisfiable_bindings_per_point() {
    let output = stdout_json(&harness(&[
        "explore",
        "--workers",
        "1",
        "--json",
        "--sweep",
        "TI=0,4;TJ=2",
        "--bind",
        "NI=512,NJ=8,NK=2",
        "--hierarchies",
        "l1",
        "--policies",
        "lru",
    ]));
    let errors = output
        .get("errors")
        .and_then(Value::as_array)
        .expect("errors");
    assert_eq!(errors.len(), 1, "{errors:?}");
    let tiles = errors[0].get("tiles").and_then(Value::as_str);
    assert_eq!(tiles, Some("TI=0,TJ=2"));
    let points = output
        .get("points")
        .and_then(Value::as_array)
        .expect("points");
    assert_eq!(points.len(), 1);
}
