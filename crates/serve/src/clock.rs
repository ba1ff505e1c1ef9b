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
//! `Arc<dyn TimeSource>` the obs crate takes. The two clocks are the obs
//! crate's own time sources under the service's names: [`WallClock`] is
//! `WallTime` and [`SimClock`] is `ManualTime`.

use mobirescue_obs::TimeSource;
use std::time::Duration;

pub use mobirescue_obs::{ManualTime as SimClock, WallTime as WallClock};

/// A monotonic millisecond clock the service runs on; its reading,
/// [`TimeSource::now_ms`], counts milliseconds since the clock was
/// created.
pub trait Clock: TimeSource {
    /// Blocks (or simulates blocking) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// Real time: sleeping actually blocks the calling thread.
impl Clock for WallClock {
    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Accelerated time: sleeping advances the clock instantly, nothing else
/// moves it. Deterministic — two runs see identical timestamps.
impl Clock for SimClock {
    fn sleep_ms(&self, ms: u64) {
        self.advance_ms(ms);
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
