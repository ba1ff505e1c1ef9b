//! Pins the loadgen and chaos binaries' command-line contracts: typos,
//! missing values and non-numeric values fail loudly with usage, they
//! never fall through to a default run.

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
