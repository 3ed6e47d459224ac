//! Cost of the candidate-set expansion estimator on warm snapshots, at the two
//! candidate budgets (`fast` vs `default`) used by the experiments, plus an
//! `n = 10^6` row at the fast budget. Each candidate family computes its
//! `(size, boundary)` counts directly: a BFS ball's boundary is the next BFS
//! layer, a random set's is a bitset popcount, a singleton's is its adjacency
//! row and a whole component's is empty. Only the spectral sweep runs the
//! incremental boundary sweep, which evaluates all prefixes of one ordering in
//! O(n + m) total instead of O(n) each.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use churn_core::{DynamicNetwork, ModelKind, Snapshot};
use churn_graph::expansion::{ExpansionConfig, ExpansionEstimator};
use churn_stochastic::rng::seeded_rng;

/// Distinct size labels so substring filters never match two rows.
fn size_label(n: usize) -> String {
    if n >= 1_000_000 {
        "1M".to_owned()
    } else {
        n.to_string()
    }
}

fn bench_expansion(c: &mut Criterion) {
    let mut group = c.benchmark_group("expansion_estimate");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    for n in [1_024usize, 4_096, 1_000_000] {
        // The 10^6 snapshot is built lazily so filtered smoke runs never pay
        // the warm-up, and only measured at the fast candidate budget.
        let mut snapshot: Option<Snapshot> = None;
        let configs: &[(&str, ExpansionConfig)] = if n >= 1_000_000 {
            &[("fast", ExpansionConfig::fast())]
        } else {
            &[
                ("fast", ExpansionConfig::fast()),
                ("default", ExpansionConfig::default()),
            ]
        };
        for (label, config) in configs {
            group.bench_with_input(
                BenchmarkId::new(*label, size_label(n)),
                &n,
                |bencher, &n| {
                    let snapshot = snapshot.get_or_insert_with(|| {
                        let mut model = ModelKind::Sdgr.build(n, 8, 13).expect("valid parameters");
                        model.warm_up();
                        Snapshot::of(model.graph())
                    });
                    let estimator = ExpansionEstimator::new(config.clone());
                    let mut rng = seeded_rng(99);
                    bencher.iter(|| {
                        criterion::black_box(estimator.estimate(
                            snapshot,
                            1,
                            snapshot.len() / 2,
                            &mut rng,
                        ))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_expansion);
criterion_main!(benches);
