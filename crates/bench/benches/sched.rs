//! Scheduler microbenchmark: steady-state schedule/pop with a fixed number
//! of events pending.
//!
//! Each iteration performs `OPS` (1024) operations against a queue that was
//! pre-filled to the row's pending size and is kept at that size (every pop
//! is matched by a schedule), so the reported time is `OPS` steady-state
//! operations at that occupancy — the regime the async engines live in,
//! where the queue holds one in-flight message per busy link. Timestamps
//! come from a splitmix-style LCG (no RNG overhead in the measured loop)
//! and advance the clock monotonically, like real latency draws do.
//!
//! The bench uses only the public schedule/pop API of
//! `churn_stochastic::EventQueue`, so it runs unmodified against any
//! implementation of the queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use churn_stochastic::EventQueue;

/// Operations per timed iteration.
const OPS: usize = 1024;

/// Deterministic time-delta generator (top bits of an LCG, scaled so the
/// steady-state span holds roughly `n` pending events per time unit).
struct Deltas(u64);

impl Deltas {
    fn next(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // In (0, 1]: keeps event times strictly advancing but densely tied
        // to the current window.
        ((self.0 >> 40) as f64 + 1.0) / (1u64 << 24) as f64
    }
}

fn prefill(n: usize) -> (EventQueue<u64>, Deltas) {
    let mut queue = EventQueue::new();
    let mut deltas = Deltas(0x9E37_79B9_7F4A_7C15);
    let mut time = 0.0;
    for payload in 0..n as u64 {
        time += deltas.next();
        queue.schedule(time, payload);
    }
    (queue, deltas)
}

fn bench_schedule_pop(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let mut state: Option<(EventQueue<u64>, Deltas)> = None;
    group.bench_with_input(BenchmarkId::new("schedule-pop", n), &n, |bencher, &n| {
        let (queue, deltas) = state.get_or_insert_with(|| prefill(n));
        bencher.iter(|| {
            let mut acc = 0u64;
            for _ in 0..OPS {
                let (now, payload) = queue.pop().expect("queue is kept non-empty");
                acc = acc.wrapping_add(payload);
                queue.schedule(now + deltas.next(), payload);
            }
            criterion::black_box(acc)
        });
    });
}

fn bench_sched(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for n in [1_000usize, 100_000] {
        bench_schedule_pop(&mut group, n);
    }
    group.finish();

    // The 10^7 row exercises the deep-queue regime; fewer samples keep the
    // prefill cost bounded.
    let mut group = c.benchmark_group("sched");
    group
        .sample_size(3)
        .measurement_time(Duration::from_secs(1));
    bench_schedule_pop(&mut group, 10_000_000);
    group.finish();
}

criterion_group!(benches, bench_sched);
criterion_main!(benches);
