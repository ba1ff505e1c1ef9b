//! Pluggable service time.
//!
//! The epoch scheduler and latency measurement never read the OS clock
//! directly; they go through a [`Clock`]. In production that is
//! [`WallClock`] and a dispatch period is five real minutes. In tests and
//! accelerated replays it is [`SimClock`], whose sleeps return instantly
//! and whose reads only move when something advances it — so a full
//! simulated disaster day schedules in milliseconds and every measured
//! latency is exactly zero, making service metrics reproducible
//! bit-for-bit.
//!
//! A [`Clock`] is an observability [`TimeSource`] that can also sleep, so
//! every span the service records measures on the same clock the
//! scheduler runs on: an `Arc<dyn Clock>` coerces to the
//! `Arc<dyn TimeSource>` the obs crate takes.

use mobirescue_obs::TimeSource;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic millisecond clock the service runs on; its reading,
/// [`TimeSource::now_ms`], counts milliseconds since the clock was
/// created.
pub trait Clock: TimeSource {
    /// Blocks (or simulates blocking) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// Real time: [`Clock::sleep_ms`] actually blocks the calling thread.
#[derive(Debug)]
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    /// A wall clock starting at zero now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallClock {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }
}

impl Clock for WallClock {
    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Accelerated time: sleeping advances the clock instantly, nothing else
/// moves it. Deterministic — two runs see identical timestamps.
#[derive(Debug, Default)]
pub struct SimClock {
    now: AtomicU64,
}

impl SimClock {
    /// A simulated clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ms` without sleeping (e.g. to model elapsed
    /// compute time in a test).
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }
}

impl TimeSource for SimClock {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

impl Clock for SimClock {
    fn sleep_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances_only_when_told() {
        let c = SimClock::new();
        assert_eq!(c.now_ms(), 0);
        c.sleep_ms(250);
        assert_eq!(c.now_ms(), 250);
        c.advance_ms(50);
        assert_eq!(c.now_ms(), 300);
    }

    #[test]
    fn wall_clock_moves_forward() {
        let c = WallClock::new();
        let a = c.now_ms();
        c.sleep_ms(2);
        assert!(c.now_ms() > a);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(SimClock::new()), Box::new(WallClock::new())];
        for c in &clocks {
            let _ = c.now_ms();
        }
    }
}
