//! Seed-sweep chaos check: the dispatch service under deterministic fault
//! schedules, one line of invariant results per seed.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin chaos -- \
//!     [--seeds N] [--base-seed S] [--metrics-out FILE]
//! ```
//!
//! Sweeps N seeded fault plans through `mobirescue_serve::chaos::run_chaos`
//! (drop/delay/duplicate/corrupt ingestion, shard stalls and crashes),
//! then runs the crash-replay masking check and the WAL fault sweep
//! (kill -9 at arbitrary journal byte offsets, torn appends, bit flips
//! and fsync stalls against the durable ingest journal, over the pinned
//! `CHAOS_SEEDS`). Every run has the harness's one configuration
//! (`CHAOS_EPOCHS` epochs on `CHAOS_SHARDS` shards for the sweep). Exits 1
//! if any seed breaks an invariant and 2 on a bad argument — pipe the
//! output into `robustness_serve.txt` via `scripts/chaos.sh`.

use mobirescue_serve::chaos::{
    crash_replay_divergence, run_chaos, wal_chaos_divergence, ChaosOptions, CHAOS_EPOCHS,
    CHAOS_SEEDS, CHAOS_SHARDS,
};
use mobirescue_serve::ServeError;
use std::path::PathBuf;

const USAGE: &str = "usage: chaos [--seeds N] [--base-seed S] [--metrics-out FILE]";

struct Args {
    seeds: u64,
    base_seed: u64,
    metrics_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        seeds: 10,
        base_seed: 1,
        metrics_out: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    let count = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        let v = value(args, flag)?;
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got {v:?}"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => parsed.seeds = count(&mut args, "--seeds")?,
            "--base-seed" => parsed.base_seed = count(&mut args, "--base-seed")?,
            "--metrics-out" => {
                parsed.metrics_out = Some(value(&mut args, "--metrics-out")?.into());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.base_seed.checked_add(parsed.seeds).is_none() {
        return Err("--base-seed plus --seeds passes u64::MAX".to_owned());
    }
    Ok(parsed)
}

fn main() {
    let Args {
        seeds,
        base_seed,
        metrics_out,
    } = parse_args().unwrap_or_else(|message| {
        eprintln!("chaos: {message}\n{USAGE}");
        std::process::exit(2);
    });

    println!(
        "chaos sweep: {seeds} seeds from {base_seed}, {CHAOS_EPOCHS} epochs x {CHAOS_SHARDS} \
         shards per run"
    );
    let mut failures = 0u64;
    let mut last_obs = None;
    for seed in base_seed..base_seed + seeds {
        match run_chaos(&ChaosOptions::seeded(seed)) {
            Ok(outcome) => {
                println!("{}", outcome.summary());
                if !outcome.ok() {
                    failures += 1;
                }
                last_obs = Some(outcome.obs);
            }
            Err(e) => {
                println!("seed {seed:>4}: service error: {e} -> FAIL");
                failures += 1;
            }
        }
    }

    failures += report(
        "crash-replay masking (crashes at (0,0), (2,1), (4,0))",
        "bit-identical to the unfaulted reference",
        crash_replay_divergence(),
    );

    // The WAL arm runs the pinned seed set (the same CHAOS_SEEDS constant
    // the test suites iterate) rather than the sweep range: crash-at-any-
    // byte recovery is a pinned contract, not a coverage lottery.
    println!("wal chaos (kill -9 at any journal byte, torn tails, bit flips, fsync stalls):");
    for seed in CHAOS_SEEDS {
        failures += report(
            &format!("  seed {seed:>4}"),
            "crash twin bit-identical, corruption refused typed",
            wal_chaos_divergence(seed),
        );
    }

    // Each chaos run owns a private registry (twins must stay
    // comparable), so the dump covers the last completed seed.
    if let Some(path) = &metrics_out {
        match &last_obs {
            Some(obs) => match std::fs::write(path, obs.to_text()) {
                Ok(()) => println!("wrote mrobs 1 metrics dump to {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            },
            None => eprintln!("no completed seed; nothing to dump"),
        }
    }

    if failures > 0 {
        println!("chaos sweep: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("chaos sweep: all invariants held");
}

/// Prints one divergence check's result under `label` (`ok` describes a
/// pass) and returns the number of failures it adds: 0 or 1.
fn report(label: &str, ok: &str, result: Result<Vec<String>, ServeError>) -> u64 {
    match result {
        Ok(divergences) if divergences.is_empty() => {
            println!("{label}: {ok} -> OK");
            0
        }
        Ok(divergences) => {
            println!("{label}: VIOLATED -> FAIL");
            for d in &divergences {
                println!("    {d}");
            }
            1
        }
        Err(e) => {
            println!("{label}: service error: {e} -> FAIL");
            1
        }
    }
}
