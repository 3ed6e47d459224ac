//! Event-driven RAES repair at scale: the whole protocol (spawn churn,
//! capped connect requests, replies, retransmits) through the message
//! scheduler, at the production latency/bandwidth regime of the
//! `async-raes-load` scenario.
//!
//! Every node's initial `d` connect requests are repairs through the event
//! layer, so even a short horizon pays ~`2·n·d` message events plus one
//! streaming churn round per simulated time unit — the rows measure raw
//! scheduler + engine throughput, which is what `BENCH_PR10.json` pairs
//! before/after the calendar-queue rewrite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use churn_event::{
    run_async_raes_faulty, AsyncRaesConfig, BandwidthModel, FaultPlan, LatencyModel,
};

fn cfg(n: usize) -> AsyncRaesConfig {
    AsyncRaesConfig {
        horizon: 8.0,
        ..AsyncRaesConfig::new(
            n,
            8,
            LatencyModel::Exponential { mean: 0.5 },
            BandwidthModel::drop_tail(32.0, 64),
        )
    }
}

fn bench_async_raes(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_raes");
    group
        .sample_size(5)
        .measurement_time(Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("repair", 100_000),
        &100_000usize,
        |b, &n| {
            let cfg = cfg(n);
            let plan = FaultPlan::none();
            b.iter(|| {
                let record = run_async_raes_faulty(&cfg, &plan, 0xAE5);
                criterion::black_box(record.stats.events_processed)
            });
        },
    );
    group.finish();

    // The 10^6 row is recorded with minimal samples — one run is tens of
    // millions of events; the median over 2 samples is still steal-robust
    // enough for an order-of-magnitude speedup claim.
    let mut group = c.benchmark_group("async_raes");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(1));
    group.bench_with_input(
        BenchmarkId::new("repair", 1_000_000),
        &1_000_000usize,
        |b, &n| {
            let cfg = cfg(n);
            let plan = FaultPlan::none();
            b.iter(|| {
                let record = run_async_raes_faulty(&cfg, &plan, 0xAE5);
                criterion::black_box(record.stats.events_processed)
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_async_raes);
criterion_main!(benches);
