//! Per-node bandwidth: FIFO egress queues with a service rate, a capacity
//! and a drop-or-delay overflow policy.
//!
//! Every node owns one egress queue (its "NIC"). Sending a message costs one
//! service time `1 / service_rate` on that queue; messages depart in FIFO
//! order, and the network latency of [`crate::LatencyModel`] only starts
//! *after* departure. A message offered to a full queue is either discarded
//! ([`OverflowPolicy::Drop`], drop-tail) or accepted anyway and delayed
//! behind the backlog ([`OverflowPolicy::Delay`], infinite buffer — the
//! capacity then only bounds what `Drop` would have cut).
//!
//! Messages already accepted by a queue depart even if their sender dies
//! before the departure instant (the packet has left the process; the wire
//! does not recall it). Queue state is keyed by raw node identifier, so
//! recycled slab cells never inherit a predecessor's backlog.

use std::collections::VecDeque;

use churn_graph::hashing::IdHashMap;

/// What happens to a message offered to a full egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Discard the message (drop-tail; the protocol's retry logic, if any,
    /// has to recover).
    Drop,
    /// Accept the message anyway; it waits behind the backlog (the queue is
    /// effectively unbounded).
    Delay,
}

/// A per-node bandwidth model shared by every node of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthModel {
    /// Messages served per unit of simulated time. `f64::INFINITY` models
    /// an infinitely fast link (no queueing at all).
    pub service_rate: f64,
    /// Maximum number of queued-but-not-yet-departed messages. `0` means
    /// unbounded.
    pub capacity: usize,
    /// Overflow policy at a full queue.
    pub policy: OverflowPolicy,
}

impl BandwidthModel {
    /// Infinitely fast links: no service time, no queueing, no drops. The
    /// infinite-bandwidth limit of the sync-equivalence tests.
    #[must_use]
    pub const fn unlimited() -> Self {
        BandwidthModel {
            service_rate: f64::INFINITY,
            capacity: 0,
            policy: OverflowPolicy::Delay,
        }
    }

    /// A drop-tail queue: `capacity` slots served at `service_rate`.
    #[must_use]
    pub const fn drop_tail(service_rate: f64, capacity: usize) -> Self {
        BandwidthModel {
            service_rate,
            capacity,
            policy: OverflowPolicy::Drop,
        }
    }

    /// An unbounded delaying queue served at `service_rate`.
    #[must_use]
    pub const fn delaying(service_rate: f64) -> Self {
        BandwidthModel {
            service_rate,
            capacity: 0,
            policy: OverflowPolicy::Delay,
        }
    }

    /// Checks the parameters: the service rate must be positive (infinity
    /// allowed).
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.service_rate > 0.0 && !self.service_rate.is_nan() {
            Ok(())
        } else {
            Err(format!("invalid bandwidth model {self:?}"))
        }
    }

    /// Service time of one message (`0` for infinite rate).
    #[must_use]
    pub fn service_time(&self) -> f64 {
        if self.service_rate.is_infinite() {
            0.0
        } else {
            1.0 / self.service_rate
        }
    }

    /// Short label for bench ids and report headers (`bw-inf`,
    /// `bw4drop16`, `bw4delay`).
    #[must_use]
    pub fn label(&self) -> String {
        if self.service_rate.is_infinite() {
            return "bw-inf".to_owned();
        }
        match self.policy {
            OverflowPolicy::Drop => format!("bw{}drop{}", self.service_rate, self.capacity),
            OverflowPolicy::Delay => format!("bw{}delay", self.service_rate),
        }
    }
}

/// Outcome of offering one message to an egress queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Enqueue {
    /// The message was accepted and departs at `departs`; it spent
    /// `queue_delay = departs − now` waiting and being served.
    Sent {
        /// Absolute departure time.
        departs: f64,
        /// Time spent in the queue (waiting + service).
        queue_delay: f64,
    },
    /// The queue was full and the policy is [`OverflowPolicy::Drop`].
    Dropped,
}

/// The egress queues of every node of a run, under one shared
/// [`BandwidthModel`].
///
/// State per node is the departure times of its pending messages; entries
/// whose departure lies in the past are garbage-collected on the node's next
/// send. With an infinite service rate no state is kept at all, so the
/// zero-latency/infinite-bandwidth limit costs nothing.
#[derive(Debug)]
pub struct EgressQueues {
    model: BandwidthModel,
    pending: IdHashMap<u64, VecDeque<f64>>,
    /// Retired deques recycled by later senders, so churn-heavy runs do not
    /// re-allocate queue storage once per node lifetime.
    free: Vec<VecDeque<f64>>,
    peak_backlog: usize,
}

/// Retired-deque recycle cap: beyond this the allocator keeps up fine.
const FREE_QUEUE_CAP: usize = 256;

impl EgressQueues {
    /// Creates the queue set (empty; nodes materialize on first send).
    #[must_use]
    pub fn new(model: BandwidthModel) -> Self {
        EgressQueues {
            model,
            pending: IdHashMap::default(),
            free: Vec::new(),
            peak_backlog: 0,
        }
    }

    /// Largest backlog any queue reached (pending messages at an enqueue
    /// instant, including the new one).
    #[must_use]
    pub fn peak_backlog(&self) -> usize {
        self.peak_backlog
    }

    /// Offers one message from `sender` (raw node id) at time `now`.
    pub fn enqueue(&mut self, sender: u64, now: f64) -> Enqueue {
        let service = self.model.service_time();
        if service == 0.0 {
            // Infinitely fast link: depart immediately, keep no state.
            self.peak_backlog = self.peak_backlog.max(1);
            return Enqueue::Sent {
                departs: now,
                queue_delay: 0.0,
            };
        }
        let queue = self
            .pending
            .entry(sender)
            .or_insert_with(|| self.free.pop().unwrap_or_default());
        while queue.front().is_some_and(|&departs| departs <= now) {
            queue.pop_front();
        }
        if self.model.capacity > 0
            && queue.len() >= self.model.capacity
            && self.model.policy == OverflowPolicy::Drop
        {
            return Enqueue::Dropped;
        }
        let starts = queue.back().copied().unwrap_or(now).max(now);
        let departs = starts + service;
        queue.push_back(departs);
        self.peak_backlog = self.peak_backlog.max(queue.len());
        Enqueue::Sent {
            departs,
            queue_delay: departs - now,
        }
    }

    /// Drops the queue state of a dead node. Messages already accepted keep
    /// their scheduled departures (they have left the process).
    pub fn forget(&mut self, sender: u64) {
        if let Some(mut queue) = self.pending.remove(&sender) {
            if self.free.len() < FREE_QUEUE_CAP {
                queue.clear();
                self.free.push(queue);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_departures_accumulate_service_time() {
        let mut queues = EgressQueues::new(BandwidthModel::delaying(2.0));
        let Enqueue::Sent { departs, .. } = queues.enqueue(1, 0.0) else {
            panic!("delaying queues never drop");
        };
        assert_eq!(departs, 0.5);
        let Enqueue::Sent {
            departs,
            queue_delay,
        } = queues.enqueue(1, 0.0)
        else {
            panic!("delaying queues never drop");
        };
        assert_eq!(departs, 1.0);
        assert_eq!(queue_delay, 1.0);
        // A different node has its own queue.
        let Enqueue::Sent { departs, .. } = queues.enqueue(2, 0.0) else {
            panic!("delaying queues never drop");
        };
        assert_eq!(departs, 0.5);
        assert_eq!(queues.peak_backlog(), 2);
    }

    #[test]
    fn drop_tail_discards_at_capacity_and_delay_does_not() {
        let mut drop = EgressQueues::new(BandwidthModel::drop_tail(1.0, 2));
        assert!(matches!(drop.enqueue(1, 0.0), Enqueue::Sent { .. }));
        assert!(matches!(drop.enqueue(1, 0.0), Enqueue::Sent { .. }));
        assert_eq!(drop.enqueue(1, 0.0), Enqueue::Dropped);
        // The backlog drains as time passes.
        assert!(matches!(
            drop.enqueue(1, 1.5),
            Enqueue::Sent { departs, .. } if departs == 3.0
        ));

        let mut delay = EgressQueues::new(BandwidthModel::delaying(1.0));
        for k in 1..=5 {
            let Enqueue::Sent { departs, .. } = delay.enqueue(1, 0.0) else {
                panic!("delaying queues never drop");
            };
            assert_eq!(departs, k as f64);
        }
    }

    #[test]
    fn forget_recycles_queue_storage() {
        let mut queues = EgressQueues::new(BandwidthModel::delaying(1.0));
        assert!(matches!(queues.enqueue(1, 0.0), Enqueue::Sent { .. }));
        queues.forget(1);
        assert_eq!(queues.free.len(), 1, "retired deque lands on the freelist");
        // The next fresh sender reuses the retired deque, cleared.
        let Enqueue::Sent { departs, .. } = queues.enqueue(2, 0.0) else {
            panic!("delaying queues never drop");
        };
        assert_eq!(departs, 1.0);
        assert!(queues.free.is_empty());
        // Forgetting an unknown sender leaves the freelist alone.
        queues.forget(99);
        assert!(queues.free.is_empty());
    }

    #[test]
    fn unlimited_links_keep_no_state() {
        let mut queues = EgressQueues::new(BandwidthModel::unlimited());
        for _ in 0..1000 {
            assert!(matches!(
                queues.enqueue(7, 3.25),
                Enqueue::Sent { departs, queue_delay } if departs == 3.25 && queue_delay == 0.0
            ));
        }
        assert!(queues.pending.is_empty());
    }
}
