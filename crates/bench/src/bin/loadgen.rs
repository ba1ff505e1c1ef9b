//! Open-loop load generator for `serve --listen` (`BENCH_serve.json`).
//!
//! Replays the busiest mined rescue day of the scenario against a running
//! front door at a constant arrival rate, measures request→ACK round
//! trips client-side, pulls the server's ingest-to-dispatch percentiles
//! over the wire at the end, and emits the flat JSON report gated by
//! `scripts/check_bench.sh`.

use mobirescue_bench::loadgen::{mined_stream, open_schedule, LoadReport};
use mobirescue_core::scenario::ScenarioConfig;
use mobirescue_net::{Frame, NackReason, NetClient, NetError};
use mobirescue_obs::Histogram;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Must match the serve binary's scenario seed so the mined stream's
/// segments exist on the server's world.
const SEED: u64 = 20180914;

/// The ceilings stamped into every report, so a committed baseline
/// (`BENCH_serve.json`) declares the gate `scripts/check_bench.sh` holds
/// it to: p99 and p99.9 request→ACK milliseconds and the shed-rate percent.
const P99_SLO_MS: u64 = 250;
const P999_SLO_MS: u64 = 1_000;
const MAX_SHED_PCT: f64 = 5.0;

fn usage() -> String {
    "usage: loadgen --addr HOST:PORT [OPTIONS]

Options:
  --addr HOST:PORT     the serve --listen address (required)
  --rate RPS           nominal request rate (default: 200)
  --duration-ms MS     scheduled run length (default: 5000)
  --scenario NAME      world the server runs: small | medium | charlotte
                       (default: small; must match the server)
  --out FILE           also write the JSON report to FILE
  --acked-ids FILE     write the sorted ids of every ACKed request to FILE,
                       one per line — the durability ledger the WAL crash
                       smoke diffs against a restarted server
  --quiet              suppress progress output
  --help               print this message and exit"
        .to_owned()
}

struct Args {
    addr: String,
    rate: f64,
    duration_ms: u64,
    scenario: String,
    out: Option<std::path::PathBuf>,
    acked_ids: Option<std::path::PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: String::new(),
        rate: 200.0,
        duration_ms: 5_000,
        scenario: "small".to_owned(),
        out: None,
        acked_ids: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => parsed.addr = value(&mut args, "--addr")?,
            "--rate" => {
                parsed.rate = value(&mut args, "--rate")?
                    .parse()
                    .ok()
                    .filter(|r: &f64| *r > 0.0)
                    .ok_or("--rate needs a positive number")?;
            }
            "--duration-ms" => {
                parsed.duration_ms = value(&mut args, "--duration-ms")?
                    .parse()
                    .map_err(|_| "--duration-ms needs a positive integer".to_owned())?;
            }
            "--scenario" => {
                let name = value(&mut args, "--scenario")?;
                if !["small", "medium", "charlotte"].contains(&name.as_str()) {
                    return Err(format!(
                        "unknown scenario {name:?} (expected small, medium, or charlotte)"
                    ));
                }
                parsed.scenario = name;
            }
            "--out" => parsed.out = Some(value(&mut args, "--out")?.into()),
            "--acked-ids" => {
                parsed.acked_ids = Some(value(&mut args, "--acked-ids")?.into());
            }
            "--quiet" => parsed.quiet = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.addr.is_empty() {
        return Err("--addr HOST:PORT is required".to_owned());
    }
    Ok(parsed)
}

/// Shared tallies between the writer (main thread) and the reader thread.
struct Tallies {
    acked: AtomicU64,
    nacked_shed: AtomicU64,
    nacked_invalid: AtomicU64,
    rtt_ms: Histogram,
    /// Send instant of request `id`, as micros since the run epoch;
    /// `u64::MAX` = not sent yet.
    send_us: Vec<AtomicU64>,
    /// Whether request `id` was ACKed — the durability ledger. Every id
    /// flagged here was promised durable by the server; after a crash
    /// and restart, each one must still be accounted for.
    acked_ids: Vec<AtomicBool>,
}

/// Writes the sorted ids of every ACKed request, one per line.
fn write_ledger(path: &std::path::Path, tallies: &Tallies) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (id, acked) in tallies.acked_ids.iter().enumerate() {
        if acked.load(Ordering::Acquire) {
            let _ = writeln!(out, "{id}");
        }
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("loadgen: {message}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(message) = run(&args) {
        eprintln!("loadgen: {message}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let addr: std::net::SocketAddr = args
        .addr
        .parse()
        .map_err(|e| format!("bad --addr {:?}: {e}", args.addr))?;

    if !args.quiet {
        eprintln!(
            "loadgen: building the {} scenario and mining the request stream...",
            args.scenario
        );
    }
    let scenario = match args.scenario.as_str() {
        "medium" => ScenarioConfig::medium().florence().build(SEED),
        "charlotte" => ScenarioConfig::charlotte_like().florence().build(SEED),
        _ => ScenarioConfig::small().florence().build(SEED),
    };
    let num_shards_hint = 2u32; // requests round-robin over shards 0..hint
    let stream = mined_stream(&scenario);
    let schedule = open_schedule(args.rate, args.duration_ms);
    let total = schedule.len() as u64;

    let writer_client = NetClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut reader_client = writer_client
        .try_clone()
        .map_err(|e| format!("clone: {e}"))?;
    let mut writer_client = writer_client;

    let tallies = Arc::new(Tallies {
        acked: AtomicU64::new(0),
        nacked_shed: AtomicU64::new(0),
        nacked_invalid: AtomicU64::new(0),
        rtt_ms: Histogram::new(),
        send_us: (0..total).map(|_| AtomicU64::new(u64::MAX)).collect(),
        acked_ids: (0..total).map(|_| AtomicBool::new(false)).collect(),
    });

    let epoch = Instant::now();
    let reader = {
        let tallies = Arc::clone(&tallies);
        std::thread::spawn(move || -> Result<(), NetError> {
            let mut answered = 0u64;
            while answered < total {
                let frame = match reader_client.recv() {
                    Ok(frame) => frame,
                    Err(NetError::ConnectionClosed) => return Ok(()),
                    Err(e) => return Err(e),
                };
                let (id, shed) = match frame {
                    Frame::Ack { id } => (id, false),
                    Frame::Nack { id, reason } => (id, reason == NackReason::Shed),
                    other => {
                        return Err(NetError::Handshake(format!(
                            "unexpected frame from server: {other:?}"
                        )))
                    }
                };
                answered += 1;
                let sent_us = tallies.send_us[id as usize].load(Ordering::Acquire);
                if shed {
                    tallies.nacked_shed.fetch_add(1, Ordering::Relaxed);
                } else if let Frame::Nack { .. } = frame {
                    tallies.nacked_invalid.fetch_add(1, Ordering::Relaxed);
                } else {
                    tallies.acked.fetch_add(1, Ordering::Relaxed);
                    tallies.acked_ids[id as usize].store(true, Ordering::Release);
                    if sent_us != u64::MAX {
                        let now_us = epoch.elapsed().as_micros() as u64;
                        tallies
                            .rtt_ms
                            .record(now_us.saturating_sub(sent_us) / 1_000);
                    }
                }
            }
            Ok(())
        })
    };

    // Open-loop writer: requests go out at the schedule's offsets no
    // matter how the server is doing.
    let mut run_err: Option<String> = None;
    let start = Instant::now();
    for (i, &offset_ms) in schedule.iter().enumerate() {
        let target = Duration::from_millis(offset_ms);
        let elapsed = start.elapsed();
        if target > elapsed {
            std::thread::sleep(target - elapsed);
        }
        let (appear_s, segment) = stream[i % stream.len()];
        tallies.send_us[i].store(epoch.elapsed().as_micros() as u64, Ordering::Release);
        if let Err(e) = writer_client.send(&Frame::Request {
            id: i as u64,
            shard: i as u32 % num_shards_hint,
            appear_s,
            segment,
        }) {
            // The server vanished mid-run (the crash smoke's kill -9).
            // Stop sending but keep going: the reader drains whatever
            // ACKs made it back, and the ledger below still gets written
            // — knowing what was acked before a crash is its whole point.
            run_err = Some(format!("send: {e}"));
            break;
        }
        if !args.quiet && (i + 1) % 1_000 == 0 {
            eprintln!("loadgen: sent {}/{total}", i + 1);
        }
    }
    let send_span = start.elapsed();

    // Pull the server-side ingest-to-dispatch percentiles on a second
    // connection (the first one's read side belongs to the reader
    // thread), then half-close to let the reader drain to EOF.
    let server = if run_err.is_none() {
        match NetClient::connect(addr).and_then(|mut c| c.pull_metrics()) {
            Ok(report) => Some(report),
            Err(e) => {
                run_err = Some(format!("metrics pull: {e}"));
                None
            }
        }
    } else {
        None
    };
    let drain_deadline = Instant::now() + Duration::from_secs(5);
    while !reader.is_finished() && Instant::now() < drain_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = writer_client.shutdown_write();
    let reader_result = reader.join().expect("reader thread");

    if let Some(path) = &args.acked_ids {
        write_ledger(path, &tallies)?;
        if !args.quiet {
            eprintln!(
                "loadgen: wrote {} acked id(s) to {}",
                tallies.acked.load(Ordering::Relaxed),
                path.display()
            );
        }
    }
    if let Some(e) = run_err {
        return Err(e);
    }
    if let Err(e) = reader_result {
        return Err(format!("recv: {e}"));
    }
    let server = server.expect("metrics pulled on the healthy path");

    let acked = tallies.acked.load(Ordering::Relaxed);
    let nacked_shed = tallies.nacked_shed.load(Ordering::Relaxed);
    let nacked_invalid = tallies.nacked_invalid.load(Ordering::Relaxed);
    let rtt = tallies.rtt_ms.snapshot();
    let report = LoadReport {
        profile: "open".to_owned(),
        scenario: args.scenario.clone(),
        target_rps: args.rate,
        duration_ms: args.duration_ms,
        sent: total,
        acked,
        nacked_shed,
        nacked_invalid,
        lost: total - acked - nacked_shed - nacked_invalid,
        achieved_rps: total as f64 / send_span.as_secs_f64(),
        shed_rate_pct: 100.0 * nacked_shed as f64 / total.max(1) as f64,
        rtt_p50_ms: rtt.p50(),
        rtt_p99_ms: rtt.p99(),
        rtt_p999_ms: rtt.p999(),
        i2d_p50_ms: server.i2d_p50,
        i2d_p99_ms: server.i2d_p99,
        i2d_p999_ms: server.i2d_p999,
        p99_slo_ms: P99_SLO_MS,
        p999_slo_ms: P999_SLO_MS,
        max_shed_pct: MAX_SHED_PCT,
    };
    let json = report.to_json();
    print!("{json}");
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("write {}: {e}", path.display()))?;
        if !args.quiet {
            eprintln!("loadgen: wrote {}", path.display());
        }
    }
    Ok(())
}
