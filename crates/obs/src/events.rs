//! A bounded ring buffer of recent structured events.
//!
//! Metrics say *how much*; the event ring says *what happened last*. The
//! serve runtime logs epoch completions, degraded epochs, journal
//! recoveries and shard restarts here, and dumps the ring on error or on
//! demand — a flight recorder, not a log pipeline.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Event severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Routine progress (epoch completed, snapshot taken).
    Info,
    /// Degraded but serving (fallback dispatcher, failed swap).
    Warn,
    /// Something was lost or restarted (shard crash, rejected snapshot).
    Error,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        })
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic sequence number (survives ring eviction, so gaps are
    /// visible).
    pub seq: u64,
    /// Dispatch epoch the event belongs to.
    pub epoch: u32,
    /// Shard the event concerns, if any.
    pub shard: Option<usize>,
    /// Severity.
    pub level: Level,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ObsEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>5}] epoch {:>4} ", self.seq, self.epoch)?;
        match self.shard {
            Some(s) => write!(f, "shard {s} ")?,
            None => f.write_str("        ")?,
        }
        write!(f, "{:>5} {}", self.level, self.message)
    }
}

struct Ring {
    events: VecDeque<ObsEvent>,
    next_seq: u64,
}

/// A fixed-capacity ring of recent [`ObsEvent`]s. Oldest events are
/// evicted first; the sequence numbers keep eviction visible.
pub struct EventRing {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl EventRing {
    /// A ring holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
        }
    }

    /// Records one event, evicting the oldest when full. Returns the
    /// event's sequence number.
    pub fn log(
        &self,
        level: Level,
        epoch: u32,
        shard: Option<usize>,
        message: impl Into<String>,
    ) -> u64 {
        let mut ring = self
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() >= self.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(ObsEvent {
            seq,
            epoch,
            shard,
            level,
            message: message.into(),
        });
        seq
    }

    /// Events recorded over the ring's lifetime (including evicted ones).
    pub fn total_logged(&self) -> u64 {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next_seq
    }

    /// A copy of the retained events, oldest first.
    pub fn dump(&self) -> Vec<ObsEvent> {
        self.ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// The retained events rendered one per line, oldest first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.dump() {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_sequence() {
        let ring = EventRing::with_capacity(3);
        for i in 0..5u32 {
            ring.log(Level::Info, i, Some(i as usize % 2), format!("event {i}"));
        }
        let events = ring.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(ring.total_logged(), 5);
        let text = ring.render();
        assert!(text.contains("event 4"));
        assert!(!text.contains("event 1"));
    }

    #[test]
    fn levels_order_and_render() {
        assert!(Level::Info < Level::Warn && Level::Warn < Level::Error);
        let ring = EventRing::with_capacity(8);
        ring.log(Level::Error, 2, None, "shard 1 restarted");
        let line = ring.render();
        assert!(line.contains("ERROR"), "{line}");
        assert!(line.contains("epoch    2"), "{line}");
    }
}
