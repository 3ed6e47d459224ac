//! The event order, pinned across scheduler implementations.
//!
//! The determinism suite compares one build against itself: same seed ⇒
//! same trace. That cannot notice a queue rewrite that reorders ties the
//! same way on every run. These tests pin an FNV-1a digest of the full
//! event trace (`time_bits`, `kind`, `subject` per processed event) of two
//! faulty runs that mix deliveries, churn ticks, restarts and anti-entropy
//! pulls, so any change to the `(time, sequence)` pop order changes a
//! literal here.

use churn_core::{DynamicNetwork, EdgePolicy, StreamingConfig, StreamingModel};
use churn_event::{
    run_async_flooding_faulty, run_async_raes_faulty, AsyncFloodingConfig, AsyncRaesConfig,
    AsyncSource, BandwidthModel, CrashRestart, FaultPlan, LatencyModel, LossModel, TraceEvent,
    TraceMode,
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
