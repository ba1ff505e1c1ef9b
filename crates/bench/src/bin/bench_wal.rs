//! Fsync-policy cost benchmark for the durable ingest journal.
//!
//! Measures the wall-clock cost of one journal append — the one record
//! the service journals per admitted request — under each
//! [`FsyncPolicy`]: `always` pays an fsync per append before any `Ack`
//! can leave, `epoch` defers it to the epoch boundary, `off` leans on
//! the page cache. Emits the flat informational rows that ride along in
//! `BENCH_serve.json` (the SLO gate does not read them; they document
//! what durability costs on the bless machine).
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin bench_wal
//! ```

use mobirescue_obs::{Registry, WallTime};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{FsyncPolicy, Wal, WalConfig, WalEntry};
use mobirescue_sim::RequestSpec;
use std::sync::Arc;
use std::time::Instant;

/// Records appended per policy.
const APPENDS: u64 = 512;

/// Appends [`APPENDS`] records under `policy` in a fresh temp journal
/// and returns the mean per-append cost in microseconds.
fn bench_policy(policy: FsyncPolicy) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "mobirescue-benchwal-{}-{}",
        std::process::id(),
        policy.as_str()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = policy;
    let registry = Registry::new();
    let (mut wal, _recovery) =
        Wal::open(cfg, &registry, Arc::new(WallTime::new())).expect("fresh journal opens");

    let start = Instant::now();
    for i in 0..APPENDS {
        let entry = WalEntry {
            clock_ms: i,
            shard: (i % 2) as usize,
            spec: RequestSpec {
                appear_s: i as u32 * 7,
                segment: SegmentId(i as u32 % 64),
            },
        };
        wal.append(&entry).expect("append");
    }
    let elapsed = start.elapsed();
    wal.sync().expect("final flush");
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    elapsed.as_micros() as f64 / APPENDS as f64
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        None => {}
        Some("--help" | "-h") => {
            println!("usage: bench_wal");
            return;
        }
        Some(other) => {
            eprintln!("unknown argument {other:?}");
            std::process::exit(2);
        }
    }

    eprintln!("bench_wal: {APPENDS} single-record appends per policy");
    // Flat JSON, one scalar per line — the same shape as the rest of
    // BENCH_serve.json so the sed extractor keeps working.
    println!("{{");
    for (i, policy) in [FsyncPolicy::Always, FsyncPolicy::Epoch, FsyncPolicy::Off]
        .into_iter()
        .enumerate()
    {
        let us = bench_policy(policy);
        let comma = if i < 2 { "," } else { "" };
        println!("  \"wal_append_{}_us\": {:.1}{comma}", policy.as_str(), us);
    }
    println!("}}");
}
