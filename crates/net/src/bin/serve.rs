//! The `serve` binary: the online dispatch service behind its `mrnet 1`
//! TCP front door, on a wall clock.
//!
//! `serve --listen ADDR` starts the service over the chosen scenario
//! preset and accepts connections on `ADDR`: requests arrive over
//! sockets (e.g. from the `loadgen` bin in `mobirescue-bench`), dispatch
//! epochs tick at `--period-ms`, and overload surfaces to clients as NACK
//! frames. It exits 0 after `--epochs` epochs with a graceful drain. With
//! `--wal-dir` every acked request is journaled first and the service
//! snapshots at each epoch boundary, so a restart in the same directory
//! recovers everything it acked.

use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_net::{NetConfig, NetServer};
use mobirescue_obs::TimeSource as _;
use mobirescue_serve::{
    Clock, DispatchService, FsyncPolicy, ModelBundle, ServeConfig, ServeError, WalConfig, WallClock,
};
use mobirescue_sim::SimConfig;
use std::io::Write as _;
use std::sync::Arc;

const SEED: u64 = 20180914; // Florence's landfall date.

fn usage() -> String {
    "usage: serve --listen ADDR [OPTIONS]

Serves the mrnet 1 TCP front door on ADDR (e.g. 127.0.0.1:0 to pick an
ephemeral port).

Options:
  --scenario NAME      world to serve: small | medium | charlotte | metro
                       | multi_city (default: small). Metro presets serve
                       the storm-hour condition window of a 100k+-segment
                       multi-district world
  --shards N           city shards (default: 2)
  --epochs N           dispatch epochs before draining (default: 60)
  --period-ms MS       wall-clock milliseconds per dispatch epoch
                       (default: 100)
  --queue-capacity N   per-shard request queue capacity (default: 1024)
  --max-conns N        concurrent connection cap; over-cap connects get
                       `mrnet 1 busy` (default: 64)
  --wal-dir DIR        durable ingest journal + epoch snapshots in DIR;
                       on start, restores DIR/snapshot.txt if present and
                       replays the journal suffix, so a kill -9 loses no
                       acked request
  --fsync POLICY       journal fsync policy: always | epoch | off
                       (default: always; needs --wal-dir)
  --quiet              suppress per-epoch output
  --metrics-out FILE   write the mrobs 1 metrics dump at exit
  --metrics-prom FILE  write Prometheus exposition text at exit
  --help               print this message and exit"
        .to_owned()
}

struct Args {
    listen: String,
    scenario: String,
    shards: usize,
    epochs: u32,
    period_ms: u64,
    queue_capacity: usize,
    max_conns: usize,
    wal_dir: Option<std::path::PathBuf>,
    fsync: FsyncPolicy,
    quiet: bool,
    metrics_out: Option<std::path::PathBuf>,
    metrics_prom: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut listen = None;
    let mut parsed = Args {
        listen: String::new(),
        scenario: "small".to_owned(),
        shards: 2,
        epochs: 60,
        period_ms: 100,
        queue_capacity: 1_024,
        max_conns: 64,
        wal_dir: None,
        fsync: FsyncPolicy::Always,
        quiet: false,
        metrics_out: None,
        metrics_prom: None,
    };
    let mut args = std::env::args().skip(1);
    fn value(args: &mut dyn Iterator<Item = String>, flag: &str) -> Result<String, String> {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn positive<T: std::str::FromStr + PartialOrd + Default>(
        args: &mut dyn Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        (value(args, flag)?.parse().ok())
            .filter(|n| *n > T::default())
            .ok_or_else(|| format!("{flag} needs a positive integer"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = Some(value(&mut args, "--listen")?),
            "--scenario" => {
                let name = value(&mut args, "--scenario")?;
                if ScenarioConfig::from_name(&name).is_none() {
                    return Err(format!(
                        "unknown scenario {name:?} (expected small, medium, charlotte, \
                         metro, or multi_city)"
                    ));
                }
                parsed.scenario = name;
            }
            "--shards" => parsed.shards = positive(&mut args, "--shards")?,
            "--epochs" => parsed.epochs = positive(&mut args, "--epochs")?,
            "--period-ms" => parsed.period_ms = positive(&mut args, "--period-ms")?,
            "--queue-capacity" => {
                parsed.queue_capacity = positive(&mut args, "--queue-capacity")?;
            }
            "--max-conns" => parsed.max_conns = positive(&mut args, "--max-conns")?,
            "--wal-dir" => {
                parsed.wal_dir = Some(value(&mut args, "--wal-dir")?.into());
            }
            "--fsync" => {
                let policy = value(&mut args, "--fsync")?;
                parsed.fsync = FsyncPolicy::parse(&policy).ok_or_else(|| {
                    format!("--fsync must be always, epoch or off, got {policy:?}")
                })?;
            }
            "--quiet" => parsed.quiet = true,
            "--metrics-out" => {
                parsed.metrics_out = Some(value(&mut args, "--metrics-out")?.into());
            }
            "--metrics-prom" => {
                parsed.metrics_prom = Some(value(&mut args, "--metrics-prom")?.into());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.listen = listen.ok_or_else(|| "--listen ADDR is required".to_owned())?;
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve: {message}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = run_listen(&args) {
        eprintln!("serve: {e:?}");
        std::process::exit(1);
    }
}

fn dump_metrics(args: &Args, obs: &mobirescue_obs::ObsSnapshot) -> Result<(), ServeError> {
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, obs.to_text()).map_err(|e| ServeError::Io(e.to_string()))?;
        println!("wrote mrobs 1 metrics dump to {}", path.display());
    }
    if let Some(path) = &args.metrics_prom {
        std::fs::write(path, obs.to_prometheus()).map_err(|e| ServeError::Io(e.to_string()))?;
        println!("wrote Prometheus exposition to {}", path.display());
    }
    Ok(())
}

fn run_listen(args: &Args) -> Result<(), ServeError> {
    let scenario = Arc::new(build_scenario(&args.scenario));
    // Simulation starts at the first covered condition hour (0 for the
    // classic presets; the storm window's opening hour for metro presets).
    let first = scenario.conditions.first_hour();
    let hours = scenario.conditions.hours();
    // Size the simulated window to cover every epoch (the dispatch period
    // is simulated seconds; the wall-clock pacing below is independent).
    // The product is taken in u64: a large `--epochs` would wrap in u32.
    let base = if args.scenario == "small" {
        SimConfig::small(first)
    } else {
        SimConfig::paper(first)
    };
    let needed_s = u64::from(args.epochs) * u64::from(base.dispatch_period_s);
    let needed_hours = needed_s.div_ceil(3_600) + 1;
    let sim = SimConfig {
        duration_hours: u32::try_from(needed_hours).map_or(hours - first, |h| h.min(hours - first)),
        ..base
    };
    let max_epochs = sim.duration_hours * 3_600 / sim.dispatch_period_s;
    let epochs = args.epochs.min(max_epochs);
    if epochs < args.epochs && !args.quiet {
        println!(
            "note: scenario covers {} epochs, clamping --epochs {}",
            max_epochs, args.epochs
        );
    }
    let mut config = ServeConfig::new(sim);
    config.num_shards = args.shards;
    config.request_queue_capacity = args.queue_capacity;
    // With --wal-dir, every accepted request is journaled (and fsynced
    // per --fsync) before its Ack leaves the process, and the service
    // snapshots to DIR/snapshot.txt at each epoch boundary.
    let snapshot_path = args.wal_dir.as_ref().map(|dir| dir.join("snapshot.txt"));
    if let Some(dir) = &args.wal_dir {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
        let mut wal_cfg = WalConfig::new(dir.join("journal"));
        wal_cfg.fsync = args.fsync;
        config.wal = Some(wal_cfg);
    }
    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let bundle = Arc::new(ModelBundle::default());
    let prior_snapshot = match &snapshot_path {
        Some(path) if path.exists() => {
            Some(std::fs::read_to_string(path).map_err(|e| ServeError::Io(e.to_string()))?)
        }
        _ => None,
    };
    let recovering = prior_snapshot.is_some();
    let service = Arc::new(match prior_snapshot {
        Some(text) => DispatchService::restore(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            bundle,
            &text,
        )?,
        None => DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            bundle,
        )?,
    });
    if recovering {
        // The line the crash-recovery smoke parses: everything on this
        // line is already durable again, so `accepted` is the floor no
        // previously-acked request may fall below.
        let m = service.metrics();
        println!(
            "recovered: epochs {} accepted {} journal_seq {}",
            m.epochs_completed,
            m.requests_accepted,
            service.wal_last_seq()
        );
    }
    let mut net_cfg = NetConfig::new(&args.listen);
    net_cfg.max_connections = args.max_conns;
    let mut server = NetServer::start(
        Arc::clone(&service),
        Arc::clone(&clock) as Arc<dyn Clock>,
        net_cfg,
    )
    .map_err(|e| ServeError::Io(e.to_string()))?;

    // The line load generators and scripts wait for — flush immediately.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    if !args.quiet {
        println!(
            "serving {} ({} segments, {} shards), {} epochs at {} ms/epoch",
            args.scenario,
            scenario.city.network.num_segments(),
            args.shards,
            epochs,
            args.period_ms
        );
    }

    let start_ms = clock.now_ms();
    for epoch in 0..epochs {
        let target = start_ms + (u64::from(epoch) + 1) * args.period_ms;
        let now = clock.now_ms();
        if target > now {
            clock.sleep_ms(target - now);
        }
        server.epoch_started();
        let reports = service.run_epoch()?;
        server.epoch_finished();
        if let Some(path) = &snapshot_path {
            // Persist-then-compact, in that order: the snapshot must be
            // durably renamed into place before the journal prefix it
            // covers may be dropped, so a kill -9 between the two steps
            // only ever leaves extra journal to replay, never a gap. The
            // tmp file is fsynced before the rename and the directory
            // after it — compaction deletes the only other copy of the
            // covered records, so a power loss must not be able to drop
            // the renamed directory entry.
            let text = service.snapshot()?;
            let tmp = path.with_extension("txt.tmp");
            let io = |e: std::io::Error| ServeError::Io(e.to_string());
            {
                let mut f = std::fs::File::create(&tmp).map_err(io)?;
                f.write_all(text.as_bytes()).map_err(io)?;
                f.sync_all().map_err(io)?;
            }
            std::fs::rename(&tmp, path).map_err(io)?;
            let dir = match path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => std::path::Path::new("."),
            };
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(io)?;
            service.wal_compact()?;
        }
        if !args.quiet && (epoch + 1) % 10 == 0 {
            let report = server.report();
            println!(
                "epoch {}: {} shard reports | acked {} shed-nacked {} i2d p99 {} ms",
                epoch + 1,
                reports.len(),
                report.requests_acked,
                report.sheds_nacked,
                report.i2d_p99
            );
        }
    }

    // Drain: NACK stragglers, close every connection, then stop shards.
    server.shutdown();
    let report = server.report();
    drop(server);
    println!(
        "drained after {} epochs: {} frames decoded, {} acked, {} shed-nacked, \
         {} rejected, i2d p50/p99/p999 = {}/{}/{} ms over {} requests",
        epochs,
        report.frames_decoded,
        report.requests_acked,
        report.sheds_nacked,
        report.requests_rejected,
        report.i2d_p50,
        report.i2d_p99,
        report.i2d_p999,
        report.i2d_count
    );
    if !args.quiet {
        println!("\n{}", service.metrics().render());
        println!(
            "observability summary:\n{}",
            service.obs_snapshot().render_summary()
        );
    }
    dump_metrics(args, &service.obs_snapshot())?;
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();
    println!("serve: clean shutdown");
    Ok(())
}

/// Builds the named preset's Florence scenario (the name is validated at
/// argument-parse time, so the lookup cannot fail here).
fn build_scenario(name: &str) -> Scenario {
    ScenarioConfig::from_name(name)
        .expect("scenario name validated by parse_args")
        .florence()
        .build(SEED)
}
