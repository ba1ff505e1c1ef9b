//! Pins the loadgen, chaos and experiment binaries' command-line
//! contracts: typos, missing values and non-numeric values fail loudly,
//! they never fall through to a default run.

use std::process::Command;

#[test]
fn unknown_flag_prints_usage_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", "127.0.0.1:9", "--no-such-flag"])
        .output()
        .expect("loadgen runs");
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument \"--no-such-flag\""),
        "stderr names the bad flag: {stderr}"
    );
    assert!(
        stderr.contains("usage: loadgen"),
        "stderr shows usage: {stderr}"
    );
}

#[test]
fn missing_addr_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .output()
        .expect("loadgen runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--addr HOST:PORT is required"), "{stderr}");
}

#[test]
fn bad_profile_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--addr", "127.0.0.1:9", "--profile", "closed"])
        .output()
        .expect("loadgen runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown profile"), "{stderr}");
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .arg("--help")
        .output()
        .expect("loadgen runs");
    assert!(out.status.success(), "--help exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: loadgen"), "{stdout}");
    assert!(stdout.contains("--profile NAME"), "{stdout}");
}

/// Runs the chaos binary with `args`, expecting it to refuse them with
/// exit 2 and a stderr that contains `names` and the usage line.
fn chaos_refuses(args: &[&str], names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} must not start a sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(names),
        "{args:?}: stderr names {names}: {stderr}"
    );
    assert!(stderr.contains("usage: chaos"), "{args:?}: {stderr}");
}

#[test]
fn chaos_refuses_a_non_numeric_or_missing_count() {
    chaos_refuses(&["--seeds", "abc"], "--seeds needs a non-negative integer");
    chaos_refuses(&["--seeds", "-3"], "--seeds needs a non-negative integer");
    chaos_refuses(&["--seeds"], "--seeds needs a value");
    chaos_refuses(
        &["--base-seed", "1.5"],
        "--base-seed needs a non-negative integer",
    );
    chaos_refuses(
        &["--seeds", "2", "--base-seed"],
        "--base-seed needs a value",
    );
    chaos_refuses(&["--metrics-out"], "--metrics-out needs a value");
    chaos_refuses(
        &["--base-seed", "18446744073709551615", "--seeds", "2"],
        "passes u64::MAX",
    );
}

#[test]
fn chaos_runs_one_configuration() {
    chaos_refuses(&["--epochs", "6"], "unknown argument \"--epochs\"");
    chaos_refuses(&["--shards", "2"], "unknown argument \"--shards\"");
}

/// Runs the binary at `bin` with `args`, expecting it to refuse them with
/// exit 2 and a one-line stderr that contains `names`, before it starts
/// any work (every experiment binary logs its progress to stderr).
fn refuses_at_once(bin: &str, args: &[&str], names: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} must not print results");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(names),
        "{args:?}: stderr names {names}: {stderr}"
    );
    assert_eq!(stderr.lines().count(), 1, "{args:?} started work: {stderr}");
}

#[test]
fn robustness_and_ablation_refuse_bad_values() {
    let robustness = env!("CARGO_BIN_EXE_robustness");
    refuses_at_once(
        robustness,
        &["--seeds", "abc"],
        "--seeds needs a non-negative integer, got \"abc\"",
    );
    refuses_at_once(robustness, &["--seeds"], "--seeds needs a value");
    refuses_at_once(
        robustness,
        &["--scale", "bogus"],
        "--scale needs small, medium or paper, got \"bogus\"",
    );
    let ablation = env!("CARGO_BIN_EXE_ablation");
    refuses_at_once(
        ablation,
        &["--seed", "abc"],
        "--seed needs a non-negative integer, got \"abc\"",
    );
    refuses_at_once(
        ablation,
        &["--scale", "bogus"],
        "--scale needs small, medium or paper, got \"bogus\"",
    );
}

#[test]
fn figures_refuses_bad_values_before_building_a_context() {
    let figures = env!("CARGO_BIN_EXE_figures");
    refuses_at_once(
        figures,
        &["--scale", "medium", "--exp", "bogus"],
        "--exp needs all, analysis, comparison or an experiment id, got \"bogus\"",
    );
    refuses_at_once(figures, &["--exp"], "--exp needs a value");
    refuses_at_once(
        figures,
        &["--seed", "-1"],
        "--seed needs a non-negative integer, got \"-1\"",
    );
    refuses_at_once(
        figures,
        &["--scale", "huge"],
        "--scale needs small, medium or paper, got \"huge\"",
    );
}
