//! Cost of a complete flooding run over warm SDGR / PDGR networks (the positive
//! Table 1 cell), as a function of the network size — for both sweeps of
//! [`FloodingProcess`]:
//!
//! * `flooding_complete_run` — the sequential sweep at every size
//!   ([`FloodingProcess::with_sequential_cutoff`]`(usize::MAX)`, stepped to
//!   [`run_flooding`]'s stop rule), the baseline `BENCH_PR1.json` and
//!   `BENCH_PR3.json` recorded, with an `n = 10^6` row;
//! * `flooding_parallel` — [`run_flooding`] with an 8-shard budget, which
//!   takes the sharded sweep above the cutoff (the thread budget also caps
//!   the worker count, so on a narrower machine the remaining speedup is the
//!   push→pull direction switch).
//!
//! `BENCH_PR3.json` is produced by pairing the two groups at `n = 10^6`:
//!
//! ```text
//! cargo bench -p churn-bench --bench flooding -- --json flood.jsonl
//! cargo run --release -p churn-bench --bin bench_report -- \
//!     --baseline flood.jsonl --optimized flood.jsonl \
//!     --pair flooding_complete_run/SDGR/1M=flooding_parallel/SDGR-8t/1M \
//!     --pair flooding_complete_run/PDGR/1M=flooding_parallel/PDGR-8t/1M \
//!     --pair flooding_complete_run/SDGR/100000=flooding_parallel/SDGR-8t/100k \
//!     --pair flooding_complete_run/PDGR/100000=flooding_parallel/PDGR-8t/100k \
//!     --note "recorded on <core count> cores" \
//!     --out BENCH_PR3.json
//! ```
//!
//! Always pass `--note` with the recording machine's core count: without it a
//! reader cannot attribute the speedup between thread-level sharding and the
//! algorithmic direction switch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use churn_core::flooding::{run_flooding, FloodingConfig, FloodingProcess, FloodingSource};
use churn_core::{AnyModel, DynamicNetwork, ModelKind};

/// Sizes where cloning the warm model per iteration would dominate the
/// measurement (a 10^6-node slab is >100 MB); past this the benches flood the
/// template in place — consecutive runs over a warm stationary model are
/// statistically equivalent, and each run churns only O(log n) rounds.
const CLONE_CUTOFF: usize = 500_000;

/// Human-readable size label for the parallel group, chosen so no bench id is
/// a substring of another (criterion-style substring filters would otherwise
/// match `100000` inside `1000000`).
fn size_label(n: usize) -> String {
    match n {
        1_000_000 => "1M".to_owned(),
        100_000 => "100k".to_owned(),
        other => other.to_string(),
    }
}

/// Size label for the sequential group: the pre-existing rows keep their raw
/// numeric ids (BENCH_PR1/PR2 recordings join on them), only the new `1M` row
/// gets the unit label — which also keeps a `…/100000` filter from matching
/// `…/1000000` and triggering the 10^6 warm-up.
fn sequential_size_label(n: usize) -> String {
    if n >= 1_000_000 {
        size_label(n)
    } else {
        n.to_string()
    }
}

fn warm_template(kind: ModelKind, n: usize) -> AnyModel {
    let mut template = kind.build(n, 8, 11).expect("valid parameters");
    template.warm_up();
    template
}

/// Shared body of both groups — one place for the lazy warm-up and the
/// clone-below-cutoff policy, so the paired BENCH_PR3 comparison can never
/// drift by the two groups measuring different harness mechanics. The warm
/// template is built only when the bench actually runs (a filtered smoke run
/// must not pay for 10^6-node warm-ups); below the cutoff each iteration
/// clones the warm model so the measured cost is the flooding run itself
/// (plus the clone), matching the PR 1/PR 2 recordings.
fn bench_flooding_row(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    kind: ModelKind,
    n: usize,
    run: impl Fn(&mut AnyModel) -> u64,
) {
    let mut template: Option<AnyModel> = None;
    group.bench_with_input(id, &n, |bencher, &n| {
        let template = template.get_or_insert_with(|| warm_template(kind, n));
        bencher.iter(|| {
            let rounds = if n < CLONE_CUTOFF {
                let mut model = template.clone();
                run(&mut model)
            } else {
                run(template)
            };
            criterion::black_box(rounds)
        });
    });
}

/// Steps the sequential sweep until [`run_flooding`]'s default stop rule
/// fires (complete, died out, or the round cap) and returns the rounds run.
fn sequential_flood(model: &mut AnyModel) -> u64 {
    let max_rounds = FloodingConfig::default().max_rounds;
    let mut process = FloodingProcess::start(model, FloodingSource::NextToJoin, 1)
        .with_sequential_cutoff(usize::MAX);
    loop {
        let stats = process.step(model);
        if stats.complete || stats.informed == 0 || stats.round >= max_rounds {
            return stats.round;
        }
    }
}

fn bench_flooding(c: &mut Criterion) {
    let mut group = c.benchmark_group("flooding_complete_run");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for kind in [ModelKind::Sdgr, ModelKind::Pdgr] {
        for n in [512usize, 2_048, 100_000, 1_000_000] {
            let id = BenchmarkId::new(kind.label(), sequential_size_label(n));
            bench_flooding_row(&mut group, id, kind, n, sequential_flood);
        }
    }
    group.finish();
}

fn bench_flooding_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("flooding_parallel");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let threads = 8usize;
    for kind in [ModelKind::Sdgr, ModelKind::Pdgr] {
        for n in [100_000usize, 1_000_000] {
            let id = BenchmarkId::new(format!("{}-{threads}t", kind.label()), size_label(n));
            bench_flooding_row(&mut group, id, kind, n, |model| {
                run_flooding(
                    model,
                    FloodingSource::NextToJoin,
                    &FloodingConfig::default(),
                    threads,
                )
                .rounds_elapsed()
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_flooding, bench_flooding_parallel);
criterion_main!(benches);
