//! The event order, pinned across scheduler implementations.
//!
//! The determinism suite compares one build against itself: same seed ⇒
//! same trace. That cannot notice a queue rewrite that reorders ties the
//! same way on every run. These tests pin an FNV-1a digest of the full
//! event trace (`time_bits`, `kind`, `subject` per processed event) of two
//! faulty runs that mix deliveries, churn ticks, restarts and anti-entropy
//! pulls, so any change to the `(time, sequence)` pop order changes a
//! literal here.
//!
//! Two more runs switch on every fault axis at once (loss, duplication,
//! reordering, a partition, crash–restart, drop-tail egress) and fold the
//! integer load counters, the final clock and the p99 queue delay into the
//! digest. Moving an outcome to another counter, reordering the per-copy
//! draws, or reordering the crashed-sender, partition and down-target
//! gates changes a literal there.

use churn_core::{DynamicNetwork, EdgePolicy, StreamingConfig, StreamingModel};
use churn_event::{
    run_async_flooding_faulty, run_async_raes_faulty, AsyncFloodingConfig, AsyncRaesConfig,
    AsyncSource, BandwidthModel, CrashRestart, EventStats, FaultPlan, LatencyModel, LossModel,
    PartitionWindow, TraceEvent, TraceMode,
};

/// FNV-1a over the little-endian bytes of each event's time bits, kind and
/// subject. The processing index is implied by the order.
fn digest(trace: &[TraceEvent]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for event in trace {
        feed(&event.time_bits.to_le_bytes());
        feed(&event.kind.to_le_bytes());
        feed(&event.subject.to_le_bytes());
    }
    hash
}

/// Continues an FNV-1a `hash` over the little-endian bytes of `words`.
fn fold(mut hash: u64, words: &[u64]) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The trace digest with every integer counter of `stats`, the final
/// clock and the p99 queue delay folded in.
fn run_digest(trace: &[TraceEvent], stats: &EventStats) -> u64 {
    fold(
        digest(trace),
        &[
            stats.events_processed,
            stats.messages_sent,
            stats.messages_delivered,
            stats.messages_dropped,
            stats.messages_lost,
            stats.peak_backlog,
            stats.messages_fault_lost,
            stats.messages_duplicated,
            stats.messages_reordered,
            stats.messages_blocked,
            stats.messages_to_down,
            stats.messages_crash_voided,
            stats.crashes,
            stats.restarts,
            stats.retransmits,
            stats.retries_exhausted,
            stats.anti_entropy_pulls,
            stats.sim_time.to_bits(),
            stats.p99_queue_delay().to_bits(),
        ],
    )
}

/// Every message-level fault axis at once, plus crash–restart: 10% loss,
/// 20% duplication, 30% reordering (held up to 1.5), and a two-block
/// partition over `[2, 10)`.
fn every_axis() -> FaultPlan {
    FaultPlan {
        loss: LossModel::Iid { p: 0.1 },
        duplicate_p: 0.2,
        reorder_p: 0.3,
        reorder_max: 1.5,
        partitions: vec![PartitionWindow {
            start: 2.0,
            heal: 10.0,
            blocks: 2,
        }],
        crash: crashes(),
        ..FaultPlan::none()
    }
}

/// Asserts that every counter of the message path fired at least once.
fn assert_every_outcome_fired(stats: &EventStats) {
    for (name, count) in [
        ("dropped", stats.messages_dropped),
        ("lost", stats.messages_lost),
        ("fault_lost", stats.messages_fault_lost),
        ("duplicated", stats.messages_duplicated),
        ("reordered", stats.messages_reordered),
        ("blocked", stats.messages_blocked),
        ("to_down", stats.messages_to_down),
        ("crash_voided", stats.messages_crash_voided),
        ("crashes", stats.crashes),
        ("restarts", stats.restarts),
    ] {
        assert!(count > 0, "{name} never fired");
    }
}

/// Crash–restart at a rate that fires a handful of times per run.
fn crashes() -> Option<CrashRestart> {
    Some(CrashRestart {
        rate: 0.01,
        downtime: LatencyModel::Exponential { mean: 2.0 },
    })
}

/// Warm SDGR under churn, exponential latency and delaying egress, with
/// loss, crash–restart and anti-entropy pulls all active.
#[test]
fn faulty_flooding_trace_digest_is_pinned() {
    let mut model = StreamingModel::new(
        StreamingConfig::new(256, 4)
            .edge_policy(EdgePolicy::Regenerate)
            .seed(31),
    )
    .expect("valid SDGR config");
    model.warm_up();
    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth: BandwidthModel::delaying(4.0),
        horizon: 64.0,
        churn: true,
        trace: TraceMode::Full,
    };
    let plan = FaultPlan {
        loss: LossModel::Iid { p: 0.2 },
        crash: crashes(),
        // Pulls at every half unit tie with the churn ticks at 0.5, 1.5, …
        anti_entropy: Some(0.5),
        ..FaultPlan::none()
    };
    let record = run_async_flooding_faulty(&mut model, AsyncSource::Newest, &cfg, &plan, 11);
    assert!(record.stats.messages_fault_lost > 0, "loss fired");
    assert!(record.stats.crashes > 0, "crash model fired");
    assert!(record.stats.anti_entropy_pulls > 0, "anti-entropy pulled");
    assert_eq!(
        (record.trace.len(), digest(&record.trace)),
        (3288, 0x1195_fd36_401a_ed73),
        "flooding event order changed"
    );
}

/// Asynchronous RAES repair with loss, crash–restart and exponential retry
/// backoff: restart timers several time units out interleave with churn
/// ticks and the near-future deliveries of requests, replies and
/// retransmits.
#[test]
fn faulty_raes_trace_digest_is_pinned() {
    let cfg = AsyncRaesConfig {
        horizon: 96.0,
        flood_at: Some(8.0),
        backoff_factor: 2.0,
        retry_budget: 4,
        trace: TraceMode::Full,
        ..AsyncRaesConfig::new(
            64,
            3,
            LatencyModel::Exponential { mean: 0.5 },
            BandwidthModel::drop_tail(8.0, 16),
        )
    };
    let plan = FaultPlan {
        loss: LossModel::Iid { p: 0.3 },
        crash: crashes(),
        ..FaultPlan::none()
    };
    let record = run_async_raes_faulty(&cfg, &plan, 17);
    assert!(record.stats.messages_fault_lost > 0, "loss fired");
    assert!(record.stats.crashes > 0, "crash model fired");
    assert!(record.stats.retransmits > 0, "losses forced retries");
    assert_eq!(
        (record.trace.len(), digest(&record.trace)),
        (2381, 0x0415_41e1_fa1b_ba37),
        "RAES event order changed"
    );
}

/// Warm SDGR flooded through drop-tail egress with every fault axis and
/// anti-entropy pulls active.
#[test]
fn every_axis_flooding_run_digest_is_pinned() {
    let mut model = StreamingModel::new(
        StreamingConfig::new(256, 4)
            .edge_policy(EdgePolicy::Regenerate)
            .seed(31),
    )
    .expect("valid SDGR config");
    model.warm_up();
    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth: BandwidthModel::drop_tail(4.0, 8),
        horizon: 64.0,
        churn: true,
        trace: TraceMode::Full,
    };
    let plan = FaultPlan {
        anti_entropy: Some(1.0),
        ..every_axis()
    };
    let record = run_async_flooding_faulty(&mut model, AsyncSource::Newest, &cfg, &plan, 11);
    assert_every_outcome_fired(&record.stats);
    assert!(record.stats.anti_entropy_pulls > 0, "anti-entropy pulled");
    assert_eq!(
        (record.trace.len(), run_digest(&record.trace, &record.stats)),
        (2959, 0x92ad_02b6_9daa_18b0),
        "flooding message path changed"
    );
}

/// Asynchronous RAES repair through a two-slot drop-tail egress queue with
/// every fault axis active and jittered exponential backoff.
#[test]
fn every_axis_raes_run_digest_is_pinned() {
    let cfg = AsyncRaesConfig {
        horizon: 96.0,
        flood_at: Some(4.0),
        backoff_factor: 2.0,
        backoff_jitter: 0.25,
        retry_budget: 4,
        trace: TraceMode::Full,
        ..AsyncRaesConfig::new(
            64,
            3,
            LatencyModel::Exponential { mean: 0.5 },
            BandwidthModel::drop_tail(2.0, 2),
        )
    };
    let record = run_async_raes_faulty(&cfg, &every_axis(), 17);
    assert_every_outcome_fired(&record.stats);
    assert!(record.stats.retransmits > 0, "losses forced retries");
    assert_eq!(
        (record.trace.len(), run_digest(&record.trace, &record.stats)),
        (3247, 0x44fc_5333_f8ba_d20b),
        "RAES message path changed"
    );
}
