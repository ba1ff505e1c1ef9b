//! `serve::wal` — the durable write-ahead ingest journal.
//!
//! ACK must mean "will be dispatched even if the process dies now". The
//! service journals every request-queue *push attempt* — payload,
//! admission clock stamp, shard index, and a monotonic sequence number —
//! to an append-only, segment-rotated log **before** the push happens
//! (and therefore before the net layer can send `Ack`). Recovery is:
//! open the last sealed snapshot, replay the journal suffix (records
//! with `seq` greater than the snapshot's high-water mark) through the
//! same bounded queues, and resume — bit-identical to a twin that never
//! crashed, because the queue state is a pure function of the push
//! sequence.
//!
//! # Format (`mrwal 1`)
//!
//! Each segment file `wal-<start_seq>.log` starts with one header line
//! and carries one record per line, each sealed with the same FNV-1a-64
//! the `mrserve 1`/`mrnet 1` formats use:
//!
//! ```text
//! mrwal 1 <start_seq>
//! rec <seq> <clock_ms> <shard> <appear_s> <segment> <fnv1a-64 of the line body>
//! ```
//!
//! # Torn tails vs. interior damage
//!
//! A crash mid-append leaves a *torn tail*: an unterminated final line
//! in the final segment. That is expected damage — it is detected by
//! the missing terminator and the per-record seal, truncated away, and
//! reported as a typed [`WalError::TornTail`] in the recovery summary
//! (never a panic). Any *other* damage — a bit flip inside a terminated
//! record, a broken header, a sequence gap — is not something a crash
//! can produce, so it is a typed [`WalError::Corrupt`] refusal naming
//! the segment and byte offset: the operator must decide, the journal
//! will not guess.
//!
//! # Durability policies
//!
//! [`FsyncPolicy`] picks the fsync cadence: `always` (one fsync per
//! append — survives power loss), `epoch` (one fsync per epoch
//! boundary), `off` (no fsync; the `write(2)` still lands in the page
//! cache, which survives `kill -9` but not power loss). Each append
//! writes one record with one `write` call.

use mobirescue_obs::{Counter, Histogram, Registry, TimeSource};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::record::Reader;
use mobirescue_sim::{fnv1a_64_bytes, RequestSpec};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// When the journal calls fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// One fsync per append, before the append returns (and therefore
    /// before any `Ack`). Survives power loss.
    Always,
    /// One fsync per epoch boundary. Survives `kill -9` (the write hit
    /// the page cache); a power loss can lose up to one epoch.
    Epoch,
    /// Never fsync (except the final drain flush). Survives `kill -9`;
    /// fastest; weakest against power loss.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `epoch` / `off`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "epoch" => Some(FsyncPolicy::Epoch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Epoch => "epoch",
            FsyncPolicy::Off => "off",
        }
    }
}

/// Configuration of a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the `wal-*.log` segments (created if missing).
    pub dir: PathBuf,
    /// Rotate to a fresh segment once the current one exceeds this size.
    pub segment_max_bytes: u64,
    /// Fsync cadence.
    pub fsync: FsyncPolicy,
}

impl WalConfig {
    /// A journal in `dir` with 64 KiB segments and per-append fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 64 * 1024,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A typed journal failure. Never a panic: a torn tail is recovered
/// from, everything else is a refusal naming the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A crash mid-append left an unterminated final line; it was
    /// truncated away at `offset` of `segment`.
    TornTail {
        /// File name of the segment holding the torn tail.
        segment: String,
        /// Byte offset the segment was truncated back to.
        offset: u64,
    },
    /// Interior damage a crash cannot produce (bit flip, broken header,
    /// sequence gap). The journal refuses to open.
    Corrupt {
        /// File name of the damaged segment.
        segment: String,
        /// Byte offset of the damaged line.
        offset: u64,
        /// What failed to validate.
        why: String,
    },
    /// The next record would carry sequence `u64::MAX`, which recovery
    /// refuses (the sequence after it does not exist), so the journal
    /// takes no more appends.
    Exhausted {
        /// The last sequence number the journal holds.
        last_seq: u64,
    },
    /// The filesystem failed underneath the journal.
    Io {
        /// Path of the file the operation touched.
        path: String,
        /// The underlying I/O error.
        why: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::TornTail { segment, offset } => {
                write!(f, "torn tail in {segment} at byte {offset} (truncated)")
            }
            WalError::Corrupt {
                segment,
                offset,
                why,
            } => write!(f, "corrupt journal: {segment} at byte {offset}: {why}"),
            WalError::Exhausted { last_seq } => {
                write!(f, "journal exhausted: sequence {last_seq} is its last")
            }
            WalError::Io { path, why } => write!(f, "journal io failure on {path}: {why}"),
        }
    }
}

/// One journaled push attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number (1-based; the snapshot's high-water
    /// mark is the last sequence it covers).
    pub seq: u64,
    /// Admission clock stamp, ms.
    pub clock_ms: u64,
    /// Target shard.
    pub shard: usize,
    /// Request payload.
    pub spec: RequestSpec,
    /// Segment file name the record lives in (for error reporting).
    pub segment: String,
    /// Byte offset of the record line within its segment.
    pub offset: u64,
}

/// One request to append (the `seq` is assigned by the journal).
#[derive(Debug, Clone, Copy)]
pub struct WalEntry {
    /// Admission clock stamp, ms.
    pub clock_ms: u64,
    /// Target shard.
    pub shard: usize,
    /// Request payload.
    pub spec: RequestSpec,
}

/// What [`Wal::open`] found on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Every surviving record, in sequence order.
    pub records: Vec<WalRecord>,
    /// The torn tail that was detected and truncated, if any.
    pub torn: Option<WalError>,
    /// Segment files scanned.
    pub segments: usize,
}

/// One on-disk segment the journal knows about.
#[derive(Debug)]
struct Segment {
    start_seq: u64,
    path: PathBuf,
}

/// The durable write-ahead ingest journal.
pub struct Wal {
    cfg: WalConfig,
    /// Current (last) segment, open for append.
    file: File,
    seg_bytes: u64,
    segments: Vec<Segment>,
    last_seq: u64,
    /// Highest sequence number covered by the last snapshot taken.
    snapshot_hwm: u64,
    /// Bytes written since the last fsync.
    unsynced: u64,
    time: Arc<dyn TimeSource>,
    appends: Counter,
    bytes: Counter,
    fsyncs: Counter,
    torn_tails: Counter,
    replayed: Counter,
    append_hist: Histogram,
    fsync_hist: Histogram,
}

const HEADER_PREFIX: &str = "mrwal 1 ";

fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::Io {
        path: path.display().to_string(),
        why: e.to_string(),
    }
}

/// Fsyncs the journal directory itself, making segment creations and
/// deletions durable: without this a freshly rotated segment's directory
/// entry can vanish on power loss even though its data was fdatasync'd.
fn sync_dir(dir: &Path) -> Result<(), WalError> {
    let d = File::open(dir).map_err(|e| io_err(dir, e))?;
    d.sync_all().map_err(|e| io_err(dir, e))
}

fn record_body(seq: u64, clock_ms: u64, shard: usize, spec: &RequestSpec) -> String {
    format!(
        "rec {seq} {clock_ms} {shard} {} {}",
        spec.appear_s, spec.segment.0
    )
}

fn record_line(seq: u64, clock_ms: u64, shard: usize, spec: &RequestSpec) -> String {
    let body = record_body(seq, clock_ms, shard, spec);
    let seal = fnv1a_64_bytes(body.as_bytes());
    format!("{body} {seal:016x}\n")
}

/// Parses and verifies one terminated record line (without its `\n`).
fn parse_record(line: &str, expected_seq: u64) -> Result<(u64, usize, RequestSpec), String> {
    let (body, seal_hex) = line
        .rsplit_once(' ')
        .ok_or_else(|| "record has no seal field".to_owned())?;
    let seal = u64::from_str_radix(seal_hex, 16).map_err(|_| "unparsable seal".to_owned())?;
    if seal != fnv1a_64_bytes(body.as_bytes()) {
        return Err("seal mismatch".to_owned());
    }
    let mut r = Reader::new(body).expect("rec")?;
    let seq: u64 = r.field("seq")?;
    let clock_ms = r.field("clock")?;
    let shard = r.field("shard")?;
    let appear_s = r.field("appear_s")?;
    let segment = SegmentId(r.field("segment")?);
    r.finish()?;
    if seq != expected_seq {
        return Err(format!(
            "sequence gap: found {seq}, expected {expected_seq}"
        ));
    }
    Ok((clock_ms, shard, RequestSpec { appear_s, segment }))
}

impl Wal {
    /// Opens (or creates) the journal in `cfg.dir`, scanning every
    /// segment: a torn tail in the final segment is truncated away and
    /// reported in the returned [`WalRecovery`]; any interior damage is
    /// a typed [`WalError::Corrupt`] refusal.
    ///
    /// # Errors
    ///
    /// [`WalError::Corrupt`] for damage a crash cannot explain,
    /// [`WalError::Io`] when the filesystem fails.
    pub fn open(
        cfg: WalConfig,
        obs: &Registry,
        time: Arc<dyn TimeSource>,
    ) -> Result<(Self, WalRecovery), WalError> {
        std::fs::create_dir_all(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
        let mut segments: Vec<Segment> = Vec::new();
        let entries = std::fs::read_dir(&cfg.dir).map_err(|e| io_err(&cfg.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&cfg.dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(start) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segments.push(Segment {
                    start_seq: start,
                    path: entry.path(),
                });
            }
        }
        segments.sort_by_key(|s| s.start_seq);

        let torn_tails = obs.counter("wal.torn_tails");
        let mut records = Vec::new();
        let mut torn = None;
        let mut next_seq = segments.first().map_or(1, |s| s.start_seq);
        let last_idx = segments.len().wrapping_sub(1);
        for (i, seg) in segments.iter().enumerate() {
            let is_last = i == last_idx;
            let scanned = scan_segment(seg, next_seq, is_last, &mut records)?;
            next_seq = scanned.next_seq;
            if let Some(t) = scanned.torn {
                torn_tails.inc();
                torn = Some(t);
            }
        }
        let last_seq = next_seq - 1;

        // Open the final segment for append (creating the first one for
        // an empty journal).
        let (seg_path, fresh) = match segments.last() {
            Some(seg) => (seg.path.clone(), false),
            None => {
                let path = cfg.dir.join(segment_name(1));
                segments.push(Segment {
                    start_seq: 1,
                    path: path.clone(),
                });
                (path, true)
            }
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&seg_path)
            .map_err(|e| io_err(&seg_path, e))?;
        if fresh {
            file.write_all(format!("{HEADER_PREFIX}1\n").as_bytes())
                .map_err(|e| io_err(&seg_path, e))?;
            sync_dir(&cfg.dir)?;
        }
        let seg_bytes = file
            .seek(SeekFrom::End(0))
            .map_err(|e| io_err(&seg_path, e))?;

        let recovery = WalRecovery {
            records,
            torn,
            segments: segments.len(),
        };
        let wal = Self {
            file,
            seg_bytes,
            segments,
            last_seq,
            snapshot_hwm: 0,
            unsynced: 0,
            time,
            appends: obs.counter("wal.appends"),
            bytes: obs.counter("wal.bytes"),
            fsyncs: obs.counter("wal.fsyncs"),
            torn_tails,
            replayed: obs.counter("wal.replayed"),
            append_hist: obs.histogram("wal.append_ms"),
            fsync_hist: obs.histogram("wal.fsync_ms"),
            cfg,
        };
        Ok((wal, recovery))
    }

    /// The highest sequence number durably appended so far (0 = none).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The fsync cadence the journal was opened with.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.cfg.fsync
    }

    /// Appends one record with one `write` and (under
    /// [`FsyncPolicy::Always`]) one fsync. Returns its sequence number.
    ///
    /// # Errors
    ///
    /// [`WalError::Exhausted`] when the record would carry sequence
    /// `u64::MAX`, which recovery refuses; nothing is written.
    /// [`WalError::Io`] when the filesystem fails mid-append; the
    /// journal is then poisoned for the torn-tail path at next open.
    pub fn append(&mut self, entry: &WalEntry) -> Result<u64, WalError> {
        let seq = self.last_seq + 1;
        if seq == u64::MAX {
            return Err(WalError::Exhausted {
                last_seq: self.last_seq,
            });
        }
        // Clone the handles so the span does not hold `self` borrowed
        // across the mutating append.
        let (hist, time) = (self.append_hist.clone(), Arc::clone(&self.time));
        let _span = hist.time(time.as_ref());
        self.rotate_if_needed()?;
        let line = record_line(seq, entry.clock_ms, entry.shard, &entry.spec);
        let path = self.active_path();
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        self.last_seq = seq;
        self.seg_bytes += line.len() as u64;
        self.unsynced += line.len() as u64;
        self.appends.inc();
        self.bytes.add(line.len() as u64);
        if self.cfg.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(self.last_seq)
    }

    /// Flushes any unsynced bytes to stable storage. Called per append
    /// under [`FsyncPolicy::Always`], per epoch boundary under
    /// [`FsyncPolicy::Epoch`], and always on drain.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when fsync fails.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.unsynced == 0 {
            return Ok(());
        }
        let (hist, time) = (self.fsync_hist.clone(), Arc::clone(&self.time));
        let _span = hist.time(time.as_ref());
        let path = self.active_path();
        self.file.sync_data().map_err(|e| io_err(&path, e))?;
        self.unsynced = 0;
        self.fsyncs.inc();
        Ok(())
    }

    /// Records that a snapshot covering everything up to `hwm` was
    /// durably taken; [`Wal::compact`] may then delete segments wholly
    /// below it.
    pub fn mark_snapshot(&mut self, hwm: u64) {
        self.snapshot_hwm = self.snapshot_hwm.max(hwm);
    }

    /// Deletes segments wholly covered by the last marked snapshot (a
    /// segment is covered when every record it holds has
    /// `seq <= snapshot_hwm`). The active segment is never deleted.
    /// Returns how many segments were removed.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when a delete fails.
    pub fn compact(&mut self) -> Result<usize, WalError> {
        let mut removed = 0;
        while self.segments.len() > 1 {
            // The first segment's records all precede the second's start.
            let covered = self.segments[1].start_seq <= self.snapshot_hwm + 1;
            if !covered {
                break;
            }
            let seg = self.segments.remove(0);
            std::fs::remove_file(&seg.path).map_err(|e| io_err(&seg.path, e))?;
            removed += 1;
        }
        if removed > 0 {
            sync_dir(&self.cfg.dir)?;
        }
        Ok(removed)
    }

    /// Counts `n` records replayed into the service queues.
    pub fn note_replayed(&self, n: u64) {
        self.replayed.add(n);
    }

    /// Fault hook ([`crate::fault::WalFault::TornAppend`]): models a
    /// crash mid-append. Writes a torn prefix of the would-be record,
    /// then self-heals exactly like recovery would — truncates the tail
    /// back off — and returns the typed [`WalError::TornTail`]. The
    /// entry is *not* journaled and must not be admitted or acked.
    pub fn inject_torn_append(&mut self, entry: &WalEntry) -> WalError {
        let line = record_line(self.last_seq + 1, entry.clock_ms, entry.shard, &entry.spec);
        let torn_len = (line.len() - 1) / 2;
        let offset = self.seg_bytes;
        let path = self.active_path();
        let heal = (|| -> std::io::Result<()> {
            self.file.write_all(&line.as_bytes()[..torn_len.max(1)])?;
            self.file.flush()?;
            self.file.set_len(offset)?;
            self.file.seek(SeekFrom::Start(offset))?;
            Ok(())
        })();
        if let Err(e) = heal {
            return io_err(&path, e);
        }
        self.torn_tails.inc();
        WalError::TornTail {
            segment: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            offset,
        }
    }

    fn active_path(&self) -> PathBuf {
        self.segments
            .last()
            .map(|s| s.path.clone())
            .unwrap_or_else(|| self.cfg.dir.clone())
    }

    fn active_start_seq(&self) -> u64 {
        self.segments.last().map_or(1, |s| s.start_seq)
    }

    /// Rotates to a fresh segment when the active one is over the size
    /// cap and holds at least one record.
    fn rotate_if_needed(&mut self) -> Result<(), WalError> {
        if self.seg_bytes < self.cfg.segment_max_bytes || self.last_seq < self.active_start_seq() {
            return Ok(());
        }
        // Seal the outgoing segment before abandoning its handle.
        self.sync()?;
        let start = self.last_seq + 1;
        let path = self.cfg.dir.join(segment_name(start));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err(&path, e))?;
        let header = format!("{HEADER_PREFIX}{start}\n");
        file.write_all(header.as_bytes())
            .map_err(|e| io_err(&path, e))?;
        sync_dir(&self.cfg.dir)?;
        self.seg_bytes = header.len() as u64;
        self.file = file;
        self.segments.push(Segment {
            start_seq: start,
            path,
        });
        Ok(())
    }
}

struct ScanOutcome {
    next_seq: u64,
    torn: Option<WalError>,
}

/// Scans one segment: verifies the header, every record's seal and the
/// sequence chain. In the final segment an unterminated final line is a
/// torn tail — truncated off, reported, recovered from. Everything else
/// is [`WalError::Corrupt`].
fn scan_segment(
    seg: &Segment,
    expected_start: u64,
    is_last: bool,
    records: &mut Vec<WalRecord>,
) -> Result<ScanOutcome, WalError> {
    let name = segment_name(seg.start_seq);
    let bytes = std::fs::read(&seg.path).map_err(|e| io_err(&seg.path, e))?;
    let corrupt = |offset: u64, why: String| WalError::Corrupt {
        segment: name.clone(),
        offset,
        why,
    };
    let truncate_to = |offset: u64| -> Result<(), WalError> {
        let f = OpenOptions::new()
            .write(true)
            .open(&seg.path)
            .map_err(|e| io_err(&seg.path, e))?;
        f.set_len(offset).map_err(|e| io_err(&seg.path, e))
    };

    // Checked before the header, which a torn-header repair rewrites.
    if seg.start_seq == 0 {
        // The journal numbers records from 1; a start of 0 would make
        // the last sequence of an empty journal underflow.
        return Err(corrupt(
            0,
            "segment starts at 0, sequences start at 1".to_owned(),
        ));
    }
    if seg.start_seq != expected_start {
        return Err(corrupt(
            0,
            format!(
                "segment starts at {}, expected {expected_start}",
                seg.start_seq
            ),
        ));
    }

    // Header line.
    let header_end = match bytes.iter().position(|&b| b == b'\n') {
        Some(i) => i + 1,
        None if is_last => {
            // A crash while creating the segment tore the header itself;
            // rewrite it whole and recover with zero records.
            let header = format!("{HEADER_PREFIX}{}\n", seg.start_seq);
            std::fs::write(&seg.path, header).map_err(|e| io_err(&seg.path, e))?;
            return Ok(ScanOutcome {
                next_seq: expected_start,
                torn: Some(WalError::TornTail {
                    segment: name,
                    offset: 0,
                }),
            });
        }
        None => return Err(corrupt(0, "unterminated header".to_owned())),
    };
    let header = std::str::from_utf8(&bytes[..header_end - 1])
        .map_err(|_| corrupt(0, "non-utf8 header".to_owned()))?;
    let start: u64 = header
        .strip_prefix(HEADER_PREFIX)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| corrupt(0, format!("bad header `{header}`")))?;
    if start != seg.start_seq {
        return Err(corrupt(
            0,
            format!("header start {start}, expected {}", seg.start_seq),
        ));
    }

    let mut next_seq = expected_start;
    let mut offset = header_end;
    let mut torn = None;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        let (line_bytes, terminated) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (&rest[..i], true),
            None => (rest, false),
        };
        if !terminated {
            if is_last {
                // A crash mid-append: truncate the torn tail off.
                truncate_to(offset as u64)?;
                torn = Some(WalError::TornTail {
                    segment: name,
                    offset: offset as u64,
                });
                break;
            }
            return Err(corrupt(
                offset as u64,
                "unterminated record in a sealed segment".to_owned(),
            ));
        }
        let line = std::str::from_utf8(line_bytes)
            .map_err(|_| corrupt(offset as u64, "non-utf8 record".to_owned()))?;
        let (clock_ms, shard, spec) =
            parse_record(line, next_seq).map_err(|why| corrupt(offset as u64, why))?;
        records.push(WalRecord {
            seq: next_seq,
            clock_ms,
            shard,
            spec,
            segment: name.clone(),
            offset: offset as u64,
        });
        next_seq = next_seq
            .checked_add(1)
            .ok_or_else(|| corrupt(offset as u64, "record sequence passes u64::MAX".to_owned()))?;
        offset += line_bytes.len() + 1;
    }
    Ok(ScanOutcome { next_seq, torn })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_obs::Registry;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A fixed time source: span timers record zeros, deterministically.
    struct Frozen;
    impl TimeSource for Frozen {
        fn now_ms(&self) -> u64 {
            0
        }
    }

    fn time() -> Arc<dyn TimeSource> {
        Arc::new(Frozen)
    }

    /// A unique scratch dir per call, cleaned before use.
    fn tdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mobirescue-wal-{}-{tag}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(i: u32) -> WalEntry {
        WalEntry {
            clock_ms: u64::from(i) * 10,
            shard: (i % 2) as usize,
            spec: RequestSpec {
                appear_s: i * 7,
                segment: SegmentId(i % 5),
            },
        }
    }

    fn open(dir: &Path) -> (Wal, WalRecovery) {
        let mut cfg = WalConfig::new(dir);
        cfg.fsync = FsyncPolicy::Off;
        Wal::open(cfg, &Registry::new(), time()).expect("journal opens")
    }

    #[test]
    fn fsync_policy_parses_its_own_spelling() {
        for p in [FsyncPolicy::Always, FsyncPolicy::Epoch, FsyncPolicy::Off] {
            assert_eq!(FsyncPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn appends_reopen_bit_identically() {
        let dir = tdir("roundtrip");
        let entries: Vec<WalEntry> = (0..7).map(entry).collect();
        {
            let (mut wal, rec) = open(&dir);
            assert!(rec.records.is_empty() && rec.torn.is_none());
            for (i, e) in entries.iter().enumerate() {
                assert_eq!(wal.append(e).expect("append"), i as u64 + 1);
            }
            wal.sync().expect("sync");
        }
        let (wal, rec) = open(&dir);
        assert_eq!(wal.last_seq(), 7);
        assert!(rec.torn.is_none());
        assert_eq!(rec.records.len(), 7);
        for (i, r) in rec.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.spec, entries[i].spec);
            assert_eq!(r.shard, entries[i].shard);
            assert_eq!(r.clock_ms, entries[i].clock_ms);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_spans_segments_and_compaction_deletes_covered_ones() {
        let dir = tdir("rotate");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        cfg.segment_max_bytes = 128;
        let (mut wal, _) = Wal::open(cfg.clone(), &Registry::new(), time()).expect("opens");
        for i in 0..24 {
            wal.append(&entry(i)).expect("append");
        }
        assert!(wal.segments.len() > 2, "small cap must rotate");
        let (reopened, rec) = Wal::open(cfg.clone(), &Registry::new(), time()).expect("reopens");
        assert_eq!(reopened.last_seq(), 24);
        assert_eq!(rec.records.len(), 24);
        drop(reopened);

        // A snapshot covering seq 1..=12 releases the fully-covered
        // prefix segments; everything after the mark survives.
        wal.mark_snapshot(12);
        let removed = wal.compact().expect("compacts");
        assert!(removed > 0, "covered segments are deleted");
        drop(wal);
        let (wal, rec) = Wal::open(cfg, &Registry::new(), time()).expect("reopens");
        assert_eq!(wal.last_seq(), 24);
        assert!(rec.records.iter().all(|r| r.seq <= 24));
        assert!(
            rec.records.iter().any(|r| r.seq > 12),
            "post-snapshot records survive compaction"
        );
        let first = rec.records.first().expect("suffix remains").seq;
        assert!(first <= 13, "no record above the mark is lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = tdir("torn");
        {
            let (mut wal, _) = open(&dir);
            for i in 0..4 {
                wal.append(&entry(i)).expect("append");
            }
        }
        // Tear the last record mid-line, like a crash mid-write.
        let seg = dir.join(segment_name(1));
        let bytes = std::fs::read(&seg).expect("segment readable");
        let f = OpenOptions::new().write(true).open(&seg).expect("opens");
        f.set_len(bytes.len() as u64 - 9).expect("truncates");
        drop(f);

        let (mut wal, rec) = open(&dir);
        let torn = rec.torn.expect("torn tail detected");
        assert!(
            matches!(&torn, WalError::TornTail { segment, .. } if segment == &segment_name(1)),
            "torn tail names its segment: {torn}"
        );
        assert_eq!(rec.records.len(), 3, "the torn record is gone");
        assert_eq!(wal.last_seq(), 3);
        // The journal keeps accepting appends with a clean chain.
        wal.append(&entry(9)).expect("append after heal");
        drop(wal);
        let (_, rec) = open(&dir);
        assert!(rec.torn.is_none());
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records.last().expect("has records").seq, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The proptest-style sweep the issue pins: truncate the journal at
    /// *every* byte offset; every prefix must open without panicking,
    /// recover a strict prefix of the original records, and report torn
    /// damage (when any) as the typed error.
    #[test]
    fn every_truncation_offset_recovers_a_clean_prefix() {
        let dir = tdir("sweep");
        {
            let (mut wal, _) = open(&dir);
            for i in 0..6 {
                wal.append(&entry(i)).expect("append");
            }
        }
        let seg = dir.join(segment_name(1));
        let full = std::fs::read(&seg).expect("segment readable");
        let scratch = tdir("sweep-scratch");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        for cut in 0..=full.len() {
            let case = scratch.join(segment_name(1));
            std::fs::write(&case, &full[..cut]).expect("case written");
            let mut cfg = WalConfig::new(&scratch);
            cfg.fsync = FsyncPolicy::Off;
            let (wal, rec) = Wal::open(cfg, &Registry::new(), time())
                .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got refusal: {e}"));
            assert_eq!(
                rec.records.len() as u64,
                wal.last_seq(),
                "cut {cut}: every surviving record is recovered"
            );
            assert!(rec.records.len() <= 6, "cut {cut}: no invented records");
            for (i, r) in rec.records.iter().enumerate() {
                assert_eq!(r.seq, i as u64 + 1, "cut {cut}: clean prefix");
            }
            let _ = std::fs::remove_dir_all(&scratch);
            std::fs::create_dir_all(&scratch).expect("scratch dir");
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// An interior bit flip is damage a crash cannot produce: the open
    /// must refuse with a typed error naming the segment and offset —
    /// for *every* record byte position, not just a lucky one.
    #[test]
    fn interior_bit_flips_are_typed_refusals() {
        let dir = tdir("flip");
        {
            let (mut wal, _) = open(&dir);
            for i in 0..3 {
                wal.append(&entry(i)).expect("append");
            }
        }
        let seg = dir.join(segment_name(1));
        let full = std::fs::read(&seg).expect("segment readable");
        let header_len = full.iter().position(|&b| b == b'\n').expect("header") + 1;
        let mut refused = 0;
        for pos in header_len..full.len() {
            if full[pos] == b'\n' {
                continue; // deleting a terminator is the torn-tail story
            }
            let mut damaged = full.clone();
            damaged[pos] ^= 0x04;
            std::fs::write(&seg, &damaged).expect("damage written");
            let mut cfg = WalConfig::new(&dir);
            cfg.fsync = FsyncPolicy::Off;
            match Wal::open(cfg, &Registry::new(), time()) {
                Err(WalError::Corrupt {
                    segment, offset, ..
                }) => {
                    assert_eq!(segment, segment_name(1));
                    assert!(offset < full.len() as u64);
                    refused += 1;
                }
                Ok(_) => panic!("flip at byte {pos} opened cleanly"),
                Err(e) => panic!("flip at byte {pos}: wrong error kind: {e}"),
            }
        }
        assert!(refused > 0);
        std::fs::write(&seg, &full).expect("restore");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_tear_self_heals() {
        let dir = tdir("inject");
        let (mut wal, _) = open(&dir);
        wal.append(&entry(0)).expect("append");
        let err = wal.inject_torn_append(&entry(1));
        assert!(matches!(err, WalError::TornTail { .. }), "typed: {err}");
        assert_eq!(wal.last_seq(), 1, "the torn entry was never journaled");
        wal.append(&entry(2)).expect("append after self-heal");
        drop(wal);
        let (_, rec) = open(&dir);
        assert!(rec.torn.is_none(), "the tear healed in-process");
        assert_eq!(rec.records.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Opens a journal directory holding the one segment `text`, named
    /// for `start_seq`, expecting a typed refusal at `offset` of it.
    fn assert_refused_at(tag: &str, start_seq: u64, text: &str, offset: u64) {
        let dir = tdir(tag);
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join(segment_name(start_seq)), text).expect("segment written");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        match Wal::open(cfg, &Registry::new(), time()) {
            Err(WalError::Corrupt {
                segment, offset: o, ..
            }) => {
                assert_eq!(segment, segment_name(start_seq));
                assert_eq!(o, offset);
            }
            Err(other) => panic!("expected a Corrupt refusal, got {other}"),
            Ok(_) => panic!("expected a Corrupt refusal, but the journal opened"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_starting_at_sequence_zero_is_refused() {
        assert_refused_at("start0", 0, &format!("{HEADER_PREFIX}0\n"), 0);
        // A torn header is recovered in the final segment, but not in a
        // segment whose name starts it at 0.
        assert_refused_at("start0-torn", 0, "mrwal", 0);
    }

    /// A torn header is the one damage recovery repairs in place, and it
    /// may only do so in a segment that continues the chain: a final
    /// segment named past the chain's next sequence must be refused, or
    /// the records appended to it would be refused at the next open.
    #[test]
    fn a_torn_final_segment_off_the_chain_is_refused() {
        let dir = tdir("offchain");
        {
            let (mut wal, _) = open(&dir);
            wal.append(&entry(0)).expect("append");
        }
        std::fs::write(dir.join(segment_name(5)), "mrwal").expect("torn segment written");
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        match Wal::open(cfg, &Registry::new(), time()) {
            Err(WalError::Corrupt {
                segment, offset, ..
            }) => assert_eq!((segment.as_str(), offset), (segment_name(5).as_str(), 0)),
            Err(other) => panic!("expected a Corrupt refusal, got {other}"),
            Ok(_) => panic!("a segment off the chain opened"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_sequence_past_u64_max_is_refused() {
        let header = format!("{HEADER_PREFIX}{}\n", u64::MAX);
        let e = entry(1);
        let text = header.clone() + &record_line(u64::MAX, e.clock_ms, e.shard, &e.spec);
        assert_refused_at("seqmax", u64::MAX, &text, header.len() as u64);
    }

    /// A journal whose next record would carry `u64::MAX` refuses the
    /// append, typed, and writes nothing: recovery would refuse that
    /// record, and the append after it would overflow the sequence.
    #[test]
    fn an_append_past_the_last_recoverable_sequence_is_refused() {
        let dir = tdir("seqfull");
        std::fs::create_dir_all(&dir).expect("dir");
        let seg = dir.join(segment_name(u64::MAX));
        std::fs::write(&seg, format!("{HEADER_PREFIX}{}\n", u64::MAX)).expect("segment written");
        let (mut wal, rec) = open(&dir);
        assert!(rec.records.is_empty());
        assert_eq!(wal.last_seq(), u64::MAX - 1);
        for _ in 0..2 {
            assert_eq!(
                wal.append(&entry(0)),
                Err(WalError::Exhausted {
                    last_seq: u64::MAX - 1
                })
            );
        }
        drop(wal);
        let (wal, rec) = open(&dir);
        assert!(rec.records.is_empty() && rec.torn.is_none());
        assert_eq!(wal.last_seq(), u64::MAX - 1, "nothing was written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_counters_account_for_appends_and_fsyncs() {
        let dir = tdir("counters");
        let obs = Registry::new();
        let mut cfg = WalConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Always;
        let (mut wal, _) = Wal::open(cfg, &obs, time()).expect("opens");
        for i in 0..3 {
            wal.append(&entry(i)).expect("append");
        }
        assert_eq!(obs.counter("wal.appends").value(), 3);
        assert_eq!(obs.counter("wal.fsyncs").value(), 3, "always = per append");
        assert!(obs.counter("wal.bytes").value() > 0);
        wal.note_replayed(3);
        assert_eq!(obs.counter("wal.replayed").value(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
