//! The metric registry: named counters, gauges and histograms.
//!
//! Handles are fetched once by name (a short lock) and updated lock-free
//! forever after. Names are free-form dotted paths (`serve.ingest_retries`,
//! `epoch.routing_ms`); the snapshot renders them sorted, so output is
//! deterministic regardless of registration order.

use crate::events::EventRing;
use crate::histogram::Histogram;
use crate::snapshot::ObsSnapshot;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter handle. Cloning shares the value.
#[derive(Clone)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Overwrites the value. Counters are monotonic in steady state;
    /// `set` exists for snapshot *restore* (rebuilding a service from a
    /// persisted state) and for mirroring an external source of truth —
    /// never for decrementing live accounting.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }
}

/// A gauge handle: a value that can go up and down. Cloning shares it.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    fn new() -> Self {
        Self {
            value: Arc::new(AtomicI64::new(0)),
        }
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The registry: a name → metric map plus the event ring.
///
/// One registry per service (not a process global): tests and multi-tenant
/// hosts keep their telemetry separate, and snapshot/restore can rebuild a
/// service's registry without cross-talk.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    events: EventRing,
}

impl Registry {
    /// An empty registry whose event ring holds the last 256 events.
    pub fn new() -> Self {
        Self {
            metrics: Mutex::new(BTreeMap::new()),
            events: EventRing::with_capacity(256),
        }
    }

    fn metrics(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// a programming error, caught loudly.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics();
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::new()));
        match metric {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics();
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::new()));
        match metric {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics();
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new()));
        match metric {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// The registry's event ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Captures every metric into a frozen, renderable snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        let metrics = self.metrics();
        let mut snap = ObsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.value());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.value());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metrics = self.metrics();
        f.debug_struct("Registry")
            .field("metrics", &metrics.len())
            .field("events_logged", &self.events.total_logged())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        let g = reg.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(reg.gauge("depth").value(), 5);
        reg.histogram("lat").record(9);
        assert_eq!(reg.histogram("lat").snapshot().count(), 1);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn counter_set_overwrites() {
        let reg = Registry::new();
        let c = reg.counter("restored");
        c.add(10);
        c.set(4);
        assert_eq!(c.value(), 4);
    }
}
