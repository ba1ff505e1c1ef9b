//! Pins the serve binary's command-line contract: a typo'd flag or a
//! missing `--listen` must fail loudly (nonzero exit, usage on stderr),
//! never start a server with the option silently ignored.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

#[test]
fn unknown_flag_prints_usage_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--no-such-flag")
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown argument \"--no-such-flag\""),
        "stderr names the bad flag: {stderr}"
    );
    assert!(
        stderr.contains("usage: serve"),
        "stderr shows usage: {stderr}"
    );
}

#[test]
fn missing_listen_prints_usage_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--epochs", "1"])
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2), "serve without --listen exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--listen ADDR is required"), "{stderr}");
    assert!(stderr.contains("usage: serve"), "{stderr}");
}

#[test]
fn train_flag_is_unknown() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--train"])
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2), "--train exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument \"--train\""), "{stderr}");
    assert!(stderr.contains("usage: serve"), "{stderr}");
}

#[test]
fn flag_missing_its_value_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--listen")
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--listen needs a value"), "{stderr}");
}

#[test]
fn bad_scenario_name_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--scenario", "atlantis"])
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}

#[test]
fn bad_fsync_policy_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--fsync", "sometimes"])
        .output()
        .expect("serve runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fsync must be always, epoch or off"),
        "{stderr}"
    );
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--help")
        .output()
        .expect("serve runs");
    assert!(out.status.success(), "--help exits 0");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: serve"), "{stdout}");
    assert!(stdout.contains("--listen ADDR"), "{stdout}");
    assert!(out.stderr.is_empty(), "help goes to stdout only");
}

#[test]
fn non_positive_counts_exit_nonzero() {
    for (flag, value) in [
        ("--shards", "0"),
        ("--queue-capacity", "0"),
        ("--epochs", "0"),
        ("--period-ms", "0"),
        ("--max-conns", "0"),
        ("--shards", "-1"),
        ("--epochs", "many"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--listen", "127.0.0.1:0", flag, value])
            .output()
            .expect("serve runs");
        assert_eq!(out.status.code(), Some(2), "{flag} {value} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} needs a positive integer")),
            "{flag} {value}: {stderr}"
        );
        assert!(stderr.contains("usage: serve"), "{flag} {value}: {stderr}");
    }
}

/// Kills and reaps a spawned server when dropped, so no process outlives
/// its test, even one whose assertion failed.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn huge_epoch_count_clamps_to_the_scenario() {
    // 14316558 × the small preset's 300 s period overflows u32; the window
    // must still cover the scenario's 720 hours, i.e. 8640 epochs.
    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(["--epochs", "14316558", "--period-ms", "60000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve starts"),
    );
    let stdout = child.0.stdout.take().expect("stdout is piped");
    let serving = BufReader::new(stdout)
        .lines()
        .map(|line| line.expect("stdout is text"))
        .find(|line| line.starts_with("serving small ("))
        .expect("serve prints its serving line");
    assert!(
        serving.ends_with(", 8640 epochs at 60000 ms/epoch"),
        "{serving}"
    );
}
