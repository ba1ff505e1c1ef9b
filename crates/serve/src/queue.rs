//! Bounded ingestion queues that shed the newcomer when full.
//!
//! A disaster-time dispatch service is exactly the workload that gets
//! bursts far above its drain rate (the paper's request stream peaks with
//! the flood). Rather than let memory grow unboundedly or block producers,
//! each queue has a hard capacity and a full queue refuses the incoming
//! event: evicting a queued one would drop a request that is already
//! journaled and acked. Every accepted and every shed event is counted
//! into two [`Counter`]s the queue's owner fetches from its obs registry,
//! so the registry holds the only copy of each tally and the service's
//! metrics snapshot reads it there.

use mobirescue_obs::Counter;
use std::collections::VecDeque;
use std::sync::Mutex;

/// A thread-safe bounded queue with shed accounting.
pub struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
    accepted: Counter,
    shed: Counter,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` events (minimum 1) that counts
    /// every admitted event into `accepted` and every shed one into
    /// `shed`.
    pub fn new(capacity: usize, accepted: Counter, shed: Counter) -> Self {
        Self {
            inner: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            accepted,
            shed,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        // A producer panicking mid-push cannot corrupt a VecDeque in a way
        // that matters here; keep serving rather than poisoning the whole
        // ingestion front.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Offers one event. Returns `true` if it was admitted, `false` if the
    /// queue was full and shed it.
    pub fn push(&self, item: T) -> bool {
        let mut q = self.lock();
        if q.len() < self.capacity {
            q.push_back(item);
            self.accepted.inc();
            true
        } else {
            self.shed.inc();
            false
        }
    }

    /// Whether an offer made right now would be admitted: whether there is
    /// free room. Only meaningful while the caller serializes pushes
    /// externally; concurrent drains can only make room, never take it.
    pub fn admittable(&self) -> bool {
        self.lock().len() < self.capacity
    }

    /// The hard capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Takes every queued event, oldest first.
    pub fn drain(&self) -> Vec<T> {
        self.lock().drain(..).collect()
    }

    /// Events currently queued.
    pub fn depth(&self) -> usize {
        self.lock().len()
    }

    /// Total events admitted, as its counter holds it.
    pub fn accepted(&self) -> u64 {
        self.accepted.value()
    }

    /// Total events shed, as its counter holds it.
    pub fn shed(&self) -> u64 {
        self.shed.value()
    }

    /// The admitted and shed counters, for a snapshot restore to `set`.
    pub(crate) fn counters(&self) -> (&Counter, &Counter) {
        (&self.accepted, &self.shed)
    }
}

impl<T: Clone> BoundedQueue<T> {
    /// Copies the queued events without disturbing them (snapshotting).
    pub fn peek_all(&self) -> Vec<T> {
        self.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_obs::Registry;
    use std::sync::Arc;

    fn queue<T>(capacity: usize) -> BoundedQueue<T> {
        let obs = Registry::new();
        BoundedQueue::new(capacity, obs.counter("a"), obs.counter("s"))
    }

    #[test]
    fn drop_newest_rejects_overflow() {
        let q = queue(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.drain(), vec![1, 2]);
        assert_eq!(q.accepted(), 2);
        assert_eq!(q.shed(), 1);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = queue(0);
        assert!(q.push(9));
        assert!(!q.push(10));
    }

    /// Exercises the queue at the capacity boundaries: fill to `cap`
    /// exactly, then overflow by one, checking depth and both counters at
    /// every step.
    fn boundary_case(cap: usize) {
        let effective = cap.max(1);
        let q = queue(cap);
        assert_eq!(q.depth(), 0);
        assert_eq!(q.drain(), Vec::<usize>::new(), "empty queue drains empty");

        // Up to capacity every offer is admitted.
        for i in 0..effective {
            assert!(q.admittable(), "room under capacity {effective}");
            assert!(q.push(i), "push {i} under capacity {effective} shed");
            assert_eq!(q.depth(), i + 1);
        }
        assert_eq!(q.accepted() as usize, effective);
        assert_eq!(q.shed(), 0, "no shedding below capacity");

        // The cap+1'th offer is shed; depth never exceeds capacity, the
        // head is kept and exactly one event is counted shed.
        assert!(!q.admittable(), "a full queue has no room");
        assert!(!q.push(effective));
        assert_eq!(q.depth(), effective);
        assert_eq!(q.shed(), 1);
        assert_eq!(q.accepted() as usize, effective);
        assert_eq!(q.peek_all().first(), Some(&0), "head kept");

        // Conservation: with nothing drained yet, queued = admitted.
        assert_eq!(q.accepted(), q.depth() as u64);
        assert_eq!(q.drain().len(), effective);
    }

    #[test]
    fn sheds_at_capacity_boundaries() {
        for cap in [0, 1, 4, 5] {
            boundary_case(cap);
        }
    }

    #[test]
    fn counts_live_in_the_registry_handles() {
        let obs = Registry::new();
        let q = BoundedQueue::new(2, obs.counter("q_accepted"), obs.counter("q_shed"));
        let _ = q.push(1);
        assert_eq!(obs.counter("q_accepted").value(), 1);
        let (accepted, shed) = q.counters();
        accepted.set(40);
        shed.set(7);
        assert_eq!(q.accepted(), 40);
        assert_eq!(obs.counter("q_shed").value(), 7);
        assert_eq!(q.depth(), 1, "restore overwrites counters, not contents");
    }

    #[test]
    fn concurrent_pushes_account_for_everything() {
        let q = Arc::new(queue(64));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let _ = q.push(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("producer thread panicked");
        }
        assert_eq!(q.accepted() + q.shed(), 400);
        assert_eq!(q.depth() as u64, q.accepted());
        assert_eq!(q.depth(), 64);
    }
}
