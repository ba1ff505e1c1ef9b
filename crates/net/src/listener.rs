//! The TCP listener: thread-per-connection ingestion in front of the
//! dispatch service's bounded queues.
//!
//! Every decoded Request frame is offered through
//! [`DispatchService::ingest_with_retry`]; the outcome goes back to the
//! client as an Ack or a typed Nack, so overload (a queue shed), a
//! malformed request, and a draining server are all *observable on the
//! wire* rather than silent drops. Connection hygiene is deliberate:
//!
//! * a **connection cap** — excess connections get `mrnet 1 busy` and a
//!   close, never an unbounded thread pile;
//! * an **idle timeout** — a connection sending nothing is closed;
//! * a **frame deadline** — once a frame starts, it must complete within
//!   the deadline, which is what defeats slow-loris trickle;
//! * **graceful drain** — shutdown NACKs new requests with `Draining`,
//!   wakes the acceptor, and joins every handler before returning.
//!
//! Timeouts run on real time (`std::time::Instant` and socket read
//! timeouts): socket behavior is wall-clock whatever the service clock
//! is. The service [`Clock`] is used only to *timestamp* admissions for
//! the ingest-to-dispatch histogram, so simulated-clock tests stay
//! deterministic (every latency is exactly zero).

use crate::error::NetError;
use crate::metrics::NetMetrics;
use crate::wire::{Frame, MetricsReport, NackReason, HELLO, HELLO_BUSY, HELLO_OK};
use mobirescue_obs::Level;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{Clock, DispatchService, Event, RetryPolicy, ServeError};
use mobirescue_sim::RequestSpec;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Concurrent connections accepted; excess get `mrnet 1 busy`.
    pub max_connections: usize,
    /// Close a connection that has sent nothing for this long, ms.
    pub idle_timeout_ms: u64,
    /// A started frame must complete within this, ms (slow-loris guard).
    pub frame_timeout_ms: u64,
    /// Socket read poll tick, ms — bounds shutdown latency.
    pub poll_interval_ms: u64,
    /// Retry policy for queue-shed offers. `max_retries: 0` makes every
    /// shed an immediate NACK (NACK count == queue shed counters).
    pub retry: RetryPolicy,
}

impl NetConfig {
    /// A listener on `addr` with moderate limits.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            max_connections: 64,
            idle_timeout_ms: 30_000,
            frame_timeout_ms: 2_000,
            poll_interval_ms: 20,
            retry: RetryPolicy::default(),
        }
    }
}

struct Shared {
    service: Arc<DispatchService>,
    cfg: NetConfig,
    metrics: NetMetrics,
    clock: Arc<dyn Clock>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    /// Epoch tag: bumped by [`NetServer::epoch_started`]. Admissions are
    /// stamped with the current tag; an entry whose tag is *older than
    /// the running epoch's* was queued before that epoch drained the
    /// queues, so when the epoch finishes it has provably been
    /// dispatched.
    epoch_tag: AtomicU64,
    /// `(admission clock ms, epoch tag)` for not-yet-dispatched admits.
    pending: Mutex<Vec<(u64, u64)>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn report(&self) -> MetricsReport {
        let i2d = self.metrics.ingest_to_dispatch_ms.snapshot();
        MetricsReport {
            frames_decoded: self.metrics.frames_decoded.value(),
            requests_acked: self.metrics.requests_acked.value(),
            sheds_nacked: self.metrics.requests_nacked_shed.value(),
            requests_rejected: self.metrics.requests_nacked_invalid.value(),
            connections_accepted: self.metrics.connections_accepted.value(),
            i2d_count: i2d.count(),
            i2d_p50: i2d.p50(),
            i2d_p99: i2d.p99(),
            i2d_p999: i2d.p999(),
        }
    }

    fn log(&self, level: Level, message: String) {
        let epoch = self.epoch_tag.load(Ordering::SeqCst) as u32;
        self.service.obs().events().log(level, epoch, None, message);
    }
}

/// A running TCP front door over one [`DispatchService`].
///
/// The epoch driver must bracket every [`DispatchService::run_epoch`]
/// with [`NetServer::epoch_started`] / [`NetServer::epoch_finished`] so
/// the ingest-to-dispatch histogram knows which admissions each epoch
/// drained. Dropping the server shuts it down gracefully.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_join: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `cfg.addr` and starts accepting connections into `service`.
    ///
    /// `clock` timestamps admissions for the latency histogram — pass
    /// the same clock the service runs on.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when the bind fails.
    pub fn start(
        service: Arc<DispatchService>,
        clock: Arc<dyn Clock>,
        cfg: NetConfig,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = NetMetrics::register(service.obs());
        let shared = Arc::new(Shared {
            service,
            cfg,
            metrics,
            clock,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            epoch_tag: AtomicU64::new(0),
            pending: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });
        shared.log(Level::Info, format!("net: listening on {local_addr}"));
        let accept_shared = Arc::clone(&shared);
        let accept_join = std::thread::spawn(move || accept_loop(&accept_shared, &listener));
        Ok(Self {
            shared,
            local_addr,
            accept_join: Some(accept_join),
        })
    }

    /// The bound address (resolves the port when binding to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Marks the start of a dispatch epoch: admissions from here on
    /// belong to a later epoch than the one about to drain the queues.
    /// Call immediately before [`DispatchService::run_epoch`].
    pub fn epoch_started(&self) {
        self.shared.epoch_tag.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks the end of a dispatch epoch: every admission stamped before
    /// [`NetServer::epoch_started`] has been drained and dispatched, so
    /// its ingest-to-dispatch latency is recorded now. Call immediately
    /// after [`DispatchService::run_epoch`].
    pub fn epoch_finished(&self) {
        let current = self.shared.epoch_tag.load(Ordering::SeqCst);
        let now = self.shared.clock.now_ms();
        let hist = &self.shared.metrics.ingest_to_dispatch_ms;
        lock(&self.shared.pending).retain(|&(enqueued_ms, tag)| {
            if tag < current {
                hist.record(now.saturating_sub(enqueued_ms));
                false
            } else {
                true
            }
        });
    }

    /// The counters a Metrics frame reports, read locally.
    pub fn report(&self) -> MetricsReport {
        self.shared.report()
    }

    /// Drains and stops: new requests are NACKed `Draining`, the
    /// acceptor is woken and joined, then every connection handler.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared
            .log(Level::Info, "net: draining for shutdown".to_owned());
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(join) = self.accept_join.take() {
            let _ = join.join();
        }
        let handlers = std::mem::take(&mut *lock(&self.shared.handlers));
        for join in handlers {
            let _ = join.join();
        }
        // Every connection is drained; under the `epoch`/`off` fsync
        // policies the last acked requests may still sit in the page
        // cache, so force the ingest journal to stable storage before
        // reporting a clean drain.
        if let Err(e) = self.shared.service.wal_sync() {
            self.shared.log(
                Level::Warn,
                format!("net: drain-time journal flush failed: {e}"),
            );
        }
        self.shared.log(
            Level::Info,
            "net: drained, all connections closed".to_owned(),
        );
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if shared.draining() {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        if shared.active.load(Ordering::SeqCst) >= shared.cfg.max_connections {
            // Count before telling: a client that has read `busy` must
            // already see its refusal in the registry.
            shared.metrics.connections_refused.inc();
            let _ = stream.write_all(HELLO_BUSY.as_bytes());
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.metrics.connections_accepted.inc();
        let conn_shared = Arc::clone(shared);
        let join = std::thread::spawn(move || {
            handle_connection(&conn_shared, stream);
            conn_shared.metrics.connections_closed.inc();
            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
        });
        lock(&shared.handlers).push(join);
    }
}

/// Reads one `\n`-terminated ASCII line within `deadline`, polling at
/// the socket's read timeout. `None` on EOF, oversize, or timeout.
fn read_line(stream: &mut TcpStream, deadline: Duration) -> Option<String> {
    let start = Instant::now();
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => {
                line.push(byte[0]);
                if byte[0] == b'\n' {
                    return String::from_utf8(line).ok();
                }
                if line.len() > 32 {
                    return None;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if start.elapsed() >= deadline {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let poll = Duration::from_millis(shared.cfg.poll_interval_ms.max(1));
    let _ = stream.set_read_timeout(Some(poll));
    let frame_deadline = Duration::from_millis(shared.cfg.frame_timeout_ms.max(1));
    let idle_deadline = Duration::from_millis(shared.cfg.idle_timeout_ms.max(1));

    match read_line(&mut stream, frame_deadline) {
        Some(line) if line == HELLO => {}
        _ => {
            shared.metrics.frames_rejected.inc();
            return;
        }
    }
    if stream.write_all(HELLO_OK.as_bytes()).is_err() {
        return;
    }

    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut last_data = Instant::now();
    // Set whenever `buf` holds the start of an incomplete frame: the
    // instant the frame's deadline is measured from.
    let mut frame_start: Option<Instant> = None;
    loop {
        // Drain every complete frame already buffered.
        loop {
            match Frame::decode(&buf) {
                Ok((frame, used)) => {
                    buf.drain(..used);
                    frame_start = (!buf.is_empty()).then(Instant::now);
                    if !process_frame(shared, &mut stream, frame) {
                        return;
                    }
                }
                Err(e) if e.is_truncated() => break,
                Err(e) => {
                    // Framing is lost; the connection cannot recover.
                    shared.metrics.frames_rejected.inc();
                    shared.log(Level::Warn, format!("net: rejecting frame: {e}"));
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF with a buffered frame torso = mid-frame disconnect.
                if !buf.is_empty() {
                    shared.metrics.frames_rejected.inc();
                }
                return;
            }
            Ok(n) => {
                if buf.is_empty() {
                    frame_start = Some(Instant::now());
                }
                buf.extend_from_slice(&chunk[..n]);
                last_data = Instant::now();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    return;
                }
                if let Some(started) = frame_start {
                    if started.elapsed() >= frame_deadline {
                        // Slow-loris: a frame that refuses to finish.
                        shared.metrics.frames_rejected.inc();
                        return;
                    }
                } else if last_data.elapsed() >= idle_deadline {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one decoded frame; `false` ends the connection.
fn process_frame(shared: &Shared, stream: &mut TcpStream, frame: Frame) -> bool {
    shared.metrics.frames_decoded.inc();
    let reply = match frame {
        Frame::Request {
            id,
            shard,
            appear_s,
            segment,
        } => {
            if shared.draining() {
                shared.metrics.requests_nacked_invalid.inc();
                Frame::Nack {
                    id,
                    reason: NackReason::Draining,
                }
            } else {
                let event = Event::Request {
                    shard: shard as usize,
                    spec: RequestSpec {
                        appear_s,
                        segment: SegmentId(segment),
                    },
                };
                match shared.service.ingest_with_retry(event, &shared.cfg.retry) {
                    Ok(true) => {
                        shared.metrics.requests_acked.inc();
                        let tag = shared.epoch_tag.load(Ordering::SeqCst);
                        lock(&shared.pending).push((shared.clock.now_ms(), tag));
                        Frame::Ack { id }
                    }
                    Ok(false) => {
                        shared.metrics.requests_nacked_shed.inc();
                        Frame::Nack {
                            id,
                            reason: NackReason::Shed,
                        }
                    }
                    Err(err) => {
                        shared.metrics.requests_nacked_invalid.inc();
                        let reason = match err {
                            ServeError::UnknownShard { .. } => NackReason::UnknownShard,
                            ServeError::World(_) => NackReason::UnknownSegment,
                            _ => NackReason::Internal,
                        };
                        Frame::Nack { id, reason }
                    }
                }
            }
        }
        Frame::MetricsPull => Frame::Metrics(shared.report()),
        // Server-to-client kinds arriving *from* a client are a protocol
        // violation: drop the connection.
        Frame::Ack { .. } | Frame::Nack { .. } | Frame::Metrics(_) => {
            shared.metrics.frames_rejected.inc();
            return false;
        }
    };
    stream.write_all(&reply.encode()).is_ok()
}
