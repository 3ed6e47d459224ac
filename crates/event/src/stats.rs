//! Deterministic load counters of one event-driven run.
//!
//! Sample sets that only feed order statistics (percentiles, maxima, means
//! of integer counts) are held as sorted multisets — `BTreeMap<key, count>` — not
//! as per-sample `Vec`s: quantized delay and backoff values repeat heavily,
//! so a run recording tens of millions of samples stores a few hundred
//! distinct keys. The nearest-rank percentile walks the multiset in key
//! order, which is bit-identical to sorting the flat sample vector.

use std::collections::BTreeMap;

use churn_stochastic::OnlineStats;

/// Maps a finite `f64` onto a `u64` whose unsigned order matches the float
/// order (standard sign-flip trick), so a `BTreeMap` keyed by it iterates
/// in ascending float order.
fn order_key(value: f64) -> u64 {
    let bits = value.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`order_key`].
fn key_value(key: u64) -> f64 {
    if key & (1 << 63) != 0 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// Nearest-rank percentile over a sorted multiset of `order_key`-keyed
/// samples — identical to [`percentile`] over the flattened sample vector.
fn multiset_percentile(samples: &BTreeMap<u64, u64>, total: u64, q: f64) -> f64 {
    if total == 0 || !q.is_finite() {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (&key, &count) in samples {
        seen += count;
        if seen >= rank {
            return key_value(key);
        }
    }
    key_value(*samples.keys().next_back().expect("total > 0"))
}

/// Counters and queue-delay statistics of one run.
///
/// Everything in here is measured in *event counts* and *simulated time*, so
/// the record is part of the deterministic output: same seed ⇒ identical
/// `EventStats`, bit for bit. Wall-clock throughput (events per real second)
/// is deliberately absent — the caller measures it around the run and keeps
/// it out of the deterministic record.
#[derive(Debug, Clone, Default)]
pub struct EventStats {
    /// Events popped from the scheduler.
    pub events_processed: u64,
    /// Messages accepted into an egress queue.
    pub messages_sent: u64,
    /// Messages whose delivery event found its target alive.
    pub messages_delivered: u64,
    /// Messages discarded by a full drop-tail egress queue.
    pub messages_dropped: u64,
    /// Messages whose target had died by the delivery instant.
    pub messages_lost: u64,
    /// Largest egress backlog any node reached.
    pub peak_backlog: u64,
    /// Simulated time of the last processed event.
    pub sim_time: f64,
    /// Messages lost on the wire by the fault layer's loss model.
    pub messages_fault_lost: u64,
    /// Extra copies injected by the fault layer's duplication coin.
    pub messages_duplicated: u64,
    /// Copies held back by the fault layer's bounded reordering.
    pub messages_reordered: u64,
    /// Deliveries cut by an active partition window.
    pub messages_blocked: u64,
    /// Deliveries that found their target crashed (down, not dead).
    pub messages_to_down: u64,
    /// Departures voided because the sender was down at the departure
    /// instant — queued egress lost in a crash.
    pub messages_crash_voided: u64,
    /// Crash events injected by the fault layer.
    pub crashes: u64,
    /// Restarts completed after a crash.
    pub restarts: u64,
    /// Retransmissions issued by a retry policy (RAES ack-timeouts).
    pub retransmits: u64,
    /// Repairs shed after exhausting their retry budget (graceful
    /// degradation: recorded, never wedged).
    pub retries_exhausted: u64,
    /// Anti-entropy pull requests issued after partition heals.
    pub anti_entropy_pulls: u64,
    /// Per-partition-block informed fractions, recorded at the moment the
    /// most recent partition window healed (empty without partitions).
    pub heal_block_informed: Vec<f64>,
    /// Simulated time of the most recent partition heal observed.
    pub heal_time: Option<f64>,
    /// Time from the most recent partition heal to flood completion
    /// (`None` while incomplete or without a healed partition).
    pub time_to_reheal: Option<f64>,
    delay: OnlineStats,
    /// Sorted multiset of queue delays (percentile source).
    delays: BTreeMap<u64, u64>,
    /// Sorted multiset of backoff timeouts chosen at retransmissions
    /// (percentile source).
    backoff_delays: BTreeMap<u64, u64>,
    /// Retransmissions with a recorded backoff timeout.
    backoff_samples: u64,
    /// Multiset of retransmit counts per resolved repair — completed or
    /// shed (mean and maximum source).
    retransmit_counts: BTreeMap<u32, u64>,
    /// Resolved repairs with a recorded retransmit count.
    repair_samples: u64,
}

impl EventStats {
    /// Fresh, all-zero statistics.
    #[must_use]
    pub fn new() -> Self {
        EventStats::default()
    }

    /// Records one message's egress-queue delay (waiting + service, in
    /// simulated time).
    pub fn record_queue_delay(&mut self, delay: f64) {
        self.delay.push(delay);
        *self.delays.entry(order_key(delay)).or_insert(0) += 1;
    }

    /// Mean egress-queue delay in simulated time (0 with no samples).
    #[must_use]
    pub fn mean_queue_delay(&self) -> f64 {
        if self.delay.count() == 0 {
            0.0
        } else {
            self.delay.mean()
        }
    }

    /// 99th-percentile egress-queue delay in simulated time (0 with no
    /// samples). Computed from the full sample multiset, so it is exact
    /// and deterministic.
    #[must_use]
    pub fn p99_queue_delay(&self) -> f64 {
        multiset_percentile(&self.delays, self.delay.count(), 0.99)
    }

    /// Records one retransmission and the backoff timeout it was issued
    /// with.
    pub fn record_retransmit(&mut self, timeout: f64) {
        self.retransmits += 1;
        *self.backoff_delays.entry(order_key(timeout)).or_insert(0) += 1;
        self.backoff_samples += 1;
    }

    /// Records the retransmit count of one resolved repair (completed or
    /// shed) — the source of [`Self::mean_retransmits`] and
    /// [`Self::max_retransmits`].
    pub fn record_repair_retries(&mut self, retries: u32) {
        *self.retransmit_counts.entry(retries).or_insert(0) += 1;
        self.repair_samples += 1;
    }

    /// Mean retransmits per resolved repair (0 with no samples — never
    /// NaN). Retransmit counts are integers, so summing grouped
    /// `count × value` products is exact — identical to the per-sample sum.
    #[must_use]
    pub fn mean_retransmits(&self) -> f64 {
        if self.repair_samples == 0 {
            0.0
        } else {
            self.retransmit_counts
                .iter()
                .map(|(&retries, &count)| f64::from(retries) * count as f64)
                .sum::<f64>()
                / self.repair_samples as f64
        }
    }

    /// Largest retransmit count any resolved repair needed (0 with no
    /// samples).
    #[must_use]
    pub fn max_retransmits(&self) -> u32 {
        self.retransmit_counts
            .keys()
            .next_back()
            .copied()
            .unwrap_or(0)
    }

    /// 99th-percentile backoff timeout across all retransmissions (0 with
    /// no samples).
    #[must_use]
    pub fn p99_backoff(&self) -> f64 {
        multiset_percentile(&self.backoff_delays, self.backoff_samples, 0.99)
    }

    /// Redundant-delivery overhead: delivered messages per informed node in
    /// excess of 1 would be the protocol-level view; at the transport level
    /// this is the fraction of deliveries that were duplicate copies or
    /// anti-entropy re-sends. 0 with no deliveries — never NaN.
    #[must_use]
    pub fn redundancy_overhead(&self) -> f64 {
        if self.messages_delivered == 0 {
            0.0
        } else {
            (self.messages_duplicated + self.anti_entropy_pulls) as f64
                / self.messages_delivered as f64
        }
    }
}

/// Exact percentile of a sample set by sorting a copy (nearest-rank). All
/// samples must be finite. Returns 0 for an empty set — the NaN-free
/// convention every `EventStats` accessor follows, so 100%-loss runs (no
/// delivered sample anywhere) still serialise to clean records.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    try_percentile(samples, q).unwrap_or(0.0)
}

/// Exact nearest-rank percentile, or `None` for an empty sample set or a
/// non-finite `q`. Never returns NaN.
fn try_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !q.is_finite() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("delays are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn empty_sample_sets_stay_nan_free() {
        // The 100%-loss regime: no message is ever delivered, so every
        // sample vector is empty. Every accessor must return a finite zero
        // or an explicit None — never NaN, never an out-of-bounds index.
        let stats = EventStats::new();
        assert_eq!(stats.mean_queue_delay(), 0.0);
        assert_eq!(stats.p99_queue_delay(), 0.0);
        assert_eq!(stats.mean_retransmits(), 0.0);
        assert_eq!(stats.max_retransmits(), 0);
        assert_eq!(stats.p99_backoff(), 0.0);
        assert_eq!(stats.redundancy_overhead(), 0.0);
        assert_eq!(try_percentile(&[], 0.99), None);
        assert_eq!(try_percentile(&[1.0], f64::NAN), None);
        for value in [
            stats.mean_queue_delay(),
            stats.p99_queue_delay(),
            stats.mean_retransmits(),
            stats.p99_backoff(),
            stats.redundancy_overhead(),
        ] {
            assert!(value.is_finite());
        }
    }

    #[test]
    fn retransmit_and_backoff_histograms_accumulate() {
        let mut stats = EventStats::new();
        for (retries, timeout) in [(0u32, 0.0), (2, 8.0), (2, 16.0), (5, 32.0)] {
            stats.record_repair_retries(retries);
            if retries > 0 {
                stats.record_retransmit(timeout);
            }
        }
        assert_eq!(stats.retransmits, 3);
        assert_eq!(stats.max_retransmits(), 5);
        // (0 + 2 + 2 + 5) / 4: every resolved repair counts, zero retries too.
        assert!((stats.mean_retransmits() - 2.25).abs() < 1e-12);
        // Nearest rank 0.99 · 3 → the third of the backoffs 8, 16, 32.
        assert_eq!(stats.p99_backoff(), 32.0);
        stats.record_repair_retries(1);
        assert!((stats.mean_retransmits() - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_retransmits(), 5);
    }

    #[test]
    fn multiset_percentile_matches_sorted_vector() {
        // The multiset rank walk must be bit-identical to nearest-rank over
        // the flat sample vector, including heavy ties and negative keys.
        let samples = [3.5, -1.25, 0.0, 3.5, 3.5, 7.0, -1.25, 2.0, 0.0, 9.5];
        let mut stats = EventStats::new();
        for &s in &samples {
            stats.record_queue_delay(s);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let multiset = multiset_percentile(&stats.delays, stats.delay.count(), q);
            assert_eq!(multiset.to_bits(), percentile(&samples, q).to_bits());
        }
        assert_eq!(
            stats.p99_queue_delay().to_bits(),
            percentile(&samples, 0.99).to_bits()
        );
        assert_eq!(stats.delay.count(), samples.len() as u64);
    }

    #[test]
    fn queue_delay_statistics_accumulate() {
        let mut stats = EventStats::new();
        assert_eq!(stats.mean_queue_delay(), 0.0);
        for d in [1.0, 2.0, 3.0] {
            stats.record_queue_delay(d);
        }
        assert_eq!(stats.delay.count(), 3);
        assert!((stats.mean_queue_delay() - 2.0).abs() < 1e-12);
        assert_eq!(stats.p99_queue_delay(), 3.0);
    }
}
