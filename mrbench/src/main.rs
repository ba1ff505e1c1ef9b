//! `mrbench`: a two-workload performance ledger for MobiRescue's dispatch
//! path, with per-layer attribution.
//!
//! ```text
//! mrbench --workload W [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `paper_day` and `metro_storm` drive the dispatch path — flood hour →
//! SVM → DQN → simulation → routing — through `World::run_epoch`, one
//! where the dispatcher dominates the epoch and one where routing does.
//!
//! Every workload serves one fixed deployment (city, storm, population,
//! trained models); the seed jitters the run's request arrivals, and the
//! program under test receives only those inputs. Each run sets its
//! workload up three times (`setup_s` is the median), measures for about
//! `--seconds`, checks its outputs, and prints every metric by name with
//! its unit. The last stdout line is the JSON result: end-to-end metrics
//! with `--trace 0`, per-layer metrics with `--trace 1`, which also writes
//! the span ledger to `target/mrbench/<workload>.trace.jsonl`. A failed
//! check makes the run incorrect and exits 1.

mod offline;
mod report;
mod setup;
mod stats;
mod trace;

use offline::OfflinePlan;
use report::{Ledger, END_TO_END, PER_LAYER};
use setup::SetupTimes;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["paper_day", "metro_storm"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: mrbench --workload W [--seed N] [--seconds N] [--trace 0|1]\n  workloads: {}",
        WORKLOADS.join(", ")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 7,
        seconds: 30.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got {value:?}"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse::<u32>()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| format!("--seconds needs 1..=600, got {value:?}"))?
                    .into();
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload {:?}", parsed.workload));
    }
    Ok(parsed)
}

/// Where traced runs write their spans: under the working directory's
/// `target/`.
pub fn work_dir() -> PathBuf {
    PathBuf::from("target").join("mrbench")
}

/// Records `setup_s` and the set-up layers.
pub fn record_setup(ledger: &mut Ledger, setup_s: f64, t: &SetupTimes) {
    ledger.set("setup_s", setup_s);
    ledger.set("roadnet.build_ms", t.roadnet_ms);
    ledger.set("disaster.conditions_ms", t.conditions_ms);
    ledger.set("mobility.population_ms", t.population_ms);
    ledger.set("svm.train_ms", t.svm_ms);
    ledger.set("rl.train_ms", t.rl_ms);
    ledger.set("core.mine_ms", t.mine_ms);
    println!(
        "mrbench: set-up {setup_s:.3} s (median of {}): roadnet {:.0} ms, conditions {:.0} ms, \
         population {:.0} ms, svm {:.0} ms, rl {:.0} ms, mining {:.0} ms",
        setup::SETUP_REPEATS,
        t.roadnet_ms,
        t.conditions_ms,
        t.population_ms,
        t.svm_ms,
        t.rl_ms,
        t.mine_ms
    );
}

/// Peak resident set (`VmHWM`) in MiB, 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("mrbench: {why}\n{}", usage());
            std::process::exit(2);
        }
    };
    let mut ledger = Ledger::default();
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let plan = match args.workload.as_str() {
        "paper_day" => OfflinePlan::paper_day(),
        _ => OfflinePlan::metro_storm(),
    };
    let trace = offline::run(&plan, seed, seconds, traced, &mut ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());
    if traced {
        let path = work_dir().join(format!("{}.trace.jsonl", args.workload));
        if let Err(e) = trace.write(&args.workload, &path) {
            ledger.check(false, || format!("writing {}: {e}", path.display()));
        }
        println!("mrbench: spans in {}", path.display());
        print!("{}", trace.render_self_times());
    }
    print!(
        "{}",
        ledger.render(if traced { &PER_LAYER } else { &END_TO_END })
    );
    std::process::exit(if ledger.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload metro_storm --seed 42 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("metro_storm", 42, 12.0, true)
        );
        let d = parse("--workload paper_day").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (7, 30.0, false));
        for bad in [
            "",
            "--workload nope",
            "--workload metro_storm --trace yes",
            "--workload metro_storm --seconds 0",
            "--workload metro_storm --seed",
            "--workload metro_storm --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
