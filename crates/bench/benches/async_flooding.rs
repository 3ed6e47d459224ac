//! What does the event layer cost? Sync-round flooding vs. the event-driven
//! asynchronous engine over the same warm SDGR network:
//!
//! * `sync` — the sequential [`run_flooding`] round loop (the PR 1 baseline);
//! * `zero-latency` — [`run_async_flooding_faulty`] (empty fault plan) with `Fixed(0.0)` latency and
//!   unlimited bandwidth: semantically BFS, so the slowdown vs. `sync` is the
//!   pure per-message scheduler overhead (one heap event per delivery);
//! * `exponential` — the production regime registered as the
//!   `async-flooding` scenario (`Exponential{mean: 0.5}` latency,
//!   `drop_tail(32, 64)` egress queues).
//!
//! `BENCH_PR7.json` pairs the first two rows (baseline = sync, "optimized" =
//! zero-latency async, so the ratio *is* the event-layer overhead):
//!
//! ```text
//! CHURN_BENCH_JSON=async_flood.jsonl \
//!     cargo bench -p churn-bench --bench async_flooding
//! cargo run --release -p churn-bench --bin bench_report -- \
//!     --baseline async_flood.jsonl --optimized async_flood.jsonl \
//!     --pair async_flooding/sync/2048=async_flooding/zero-latency/2048 \
//!     --pair async_flooding/sync/65536=async_flooding/zero-latency/65536 \
//!     --note "sync rounds vs. event-driven delivery at zero latency" \
//!     --out BENCH_PR7.json
//! ```
//!
//! All sizes sit below the clone cutoff used by `benches/flooding.rs`, so
//! every iteration clones the warm template and the measured cost is one
//! complete flood (plus the clone) for both engines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
use churn_core::{AnyModel, DynamicNetwork, ModelKind};
use churn_event::{
    run_async_flooding_faulty, AsyncFloodingConfig, AsyncSource, BandwidthModel, FaultPlan,
    LatencyModel,
};

const SIZES: [usize; 3] = [2_048, 65_536, 100_000];

/// The n = 10^6 rows (sync + zero-latency only) are recorded with minimal
/// samples — one async iteration at this size is seconds of work, and the
/// BENCH_PR10 speedup claim only needs an order-of-magnitude-stable median.
const BIG: usize = 1_000_000;

fn warm_template(n: usize) -> AnyModel {
    let mut template = ModelKind::Sdgr.build(n, 8, 11).expect("valid parameters");
    template.warm_up();
    template
}

/// Horizon mirroring the sync engine's round budget (~4·log2 n churn units),
/// so the async rows pay a comparable number of churn rounds.
fn async_cfg(latency: LatencyModel, bandwidth: BandwidthModel, n: usize) -> AsyncFloodingConfig {
    let mut cfg = AsyncFloodingConfig::new(latency, bandwidth);
    cfg.horizon = 4.0 * (n as f64).log2().ceil();
    cfg
}

fn bench_async_row(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    n: usize,
    latency: LatencyModel,
    bandwidth: BandwidthModel,
) {
    let mut template: Option<AnyModel> = None;
    group.bench_with_input(id, &n, |bencher, &n| {
        let template = template.get_or_insert_with(|| warm_template(n));
        let cfg = async_cfg(latency, bandwidth, n);
        let plan = FaultPlan::none();
        bencher.iter(|| {
            let mut model = template.clone();
            let record =
                run_async_flooding_faulty(&mut model, AsyncSource::Newest, &cfg, &plan, 0xBE7);
            criterion::black_box(record.stats.events_processed)
        });
    });
}

fn bench_sync(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_flooding");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        bench_sync_row(&mut group, n);
    }
    group.finish();

    let mut group = c.benchmark_group("async_flooding");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(1));
    bench_sync_row(&mut group, BIG);
    group.finish();
}

fn bench_sync_row(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let mut template: Option<AnyModel> = None;
    group.bench_with_input(BenchmarkId::new("sync", n), &n, |bencher, &n| {
        let template = template.get_or_insert_with(|| warm_template(n));
        bencher.iter(|| {
            let mut model = template.clone();
            let record = run_flooding(
                &mut model,
                FloodingSource::NextToJoin,
                &FloodingConfig::default(),
            );
            criterion::black_box(record.rounds_elapsed())
        });
    });
}

fn bench_async(c: &mut Criterion) {
    let mut group = c.benchmark_group("async_flooding");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for n in SIZES {
        bench_async_row(
            &mut group,
            BenchmarkId::new("zero-latency", n),
            n,
            LatencyModel::Fixed(0.0),
            BandwidthModel::unlimited(),
        );
        bench_async_row(
            &mut group,
            BenchmarkId::new("exponential", n),
            n,
            LatencyModel::Exponential { mean: 0.5 },
            BandwidthModel::drop_tail(32.0, 64),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("async_flooding");
    group
        .sample_size(2)
        .measurement_time(Duration::from_secs(1));
    bench_async_row(
        &mut group,
        BenchmarkId::new("zero-latency", BIG),
        BIG,
        LatencyModel::Fixed(0.0),
        BandwidthModel::unlimited(),
    );
    group.finish();
}

criterion_group!(benches, bench_sync, bench_async);
criterion_main!(benches);
