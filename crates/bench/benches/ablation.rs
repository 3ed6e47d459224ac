//! Design ablations of the graph core's data layout.
//!
//! 1. **Out-slot adjacency vs. naive edge set** — the library identifies every
//!    edge by `(owner, slot)`, which makes a node death plus regeneration O(d);
//!    the naive alternative stores an undirected edge set and rescans it on
//!    every death. The ablation replays the same churn workload on both.
//! 2. **Neighbour queries from the mutable graph vs. rebuilding a snapshot per
//!    flooding round** — the flooding implementation reads neighbours straight
//!    from the `DynamicGraph`; the alternative materialises a CSR snapshot each
//!    round.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashSet;
use std::time::Duration;

use churn_core::flooding::{FloodingProcess, FloodingSource};
use churn_core::{DynamicNetwork, ModelKind};
use churn_graph::{NodeId, Snapshot};
use churn_stochastic::rng::seeded_rng;
use rand::Rng;

/// Naive baseline topology: an undirected edge set with no per-request
/// ownership, rescanned linearly when a node dies.
#[derive(Default)]
struct NaiveEdgeSet {
    nodes: Vec<NodeId>,
    edges: HashSet<(NodeId, NodeId)>,
}

impl NaiveEdgeSet {
    fn add_node(&mut self, id: NodeId) {
        self.nodes.push(id);
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.edges.insert(key);
    }

    fn remove_node(&mut self, id: NodeId) {
        self.nodes.retain(|&n| n != id);
        self.edges.retain(|&(a, b)| a != id && b != id);
    }
}

fn churn_workload_naive(n: usize, d: usize, rounds: usize) -> usize {
    let mut rng = seeded_rng(42);
    let mut graph = NaiveEdgeSet::default();
    let mut next = 0u64;
    for _ in 0..n {
        graph.add_node(NodeId::new(next));
        next += 1;
    }
    for _ in 0..rounds {
        // Death of a random node, then a birth with d random edges.
        let victim = graph.nodes[rng.gen_range(0..graph.nodes.len())];
        graph.remove_node(victim);
        let newborn = NodeId::new(next);
        next += 1;
        graph.add_node(newborn);
        for _ in 0..d {
            let target = graph.nodes[rng.gen_range(0..graph.nodes.len())];
            if target != newborn {
                graph.add_edge(newborn, target);
            }
        }
    }
    graph.edges.len()
}

fn churn_workload_slots(n: usize, d: usize, rounds: usize) -> usize {
    // The library's representation driven through the same logical workload.
    let mut model = ModelKind::Sdg.build(n, d, 42).expect("valid parameters");
    model.warm_up();
    for _ in 0..rounds {
        model.advance_time_unit();
    }
    model.graph().filled_slot_count()
}

fn bench_adjacency_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_adjacency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    let n = 2_048;
    let d = 8;
    let rounds = 512;

    group.bench_function(BenchmarkId::new("out_slot_graph", n), |bencher| {
        bencher.iter(|| criterion::black_box(churn_workload_slots(n, d, rounds)));
    });
    group.bench_function(BenchmarkId::new("naive_edge_set", n), |bencher| {
        bencher.iter(|| criterion::black_box(churn_workload_naive(n, d, rounds)));
    });
    group.finish();
}

fn flooding_rounds_via_graph(template: &churn_core::AnyModel) -> usize {
    let mut model = template.clone();
    let mut process = FloodingProcess::start(&mut model, FloodingSource::NextToJoin, 1);
    for _ in 0..32 {
        let stats = process.step(&mut model);
        if stats.complete {
            break;
        }
    }
    process.informed_count()
}

fn flooding_rounds_via_snapshot(template: &churn_core::AnyModel) -> usize {
    // Alternative implementation: rebuild a CSR snapshot every round and read
    // neighbours from it.
    let mut model = template.clone();
    let source = loop {
        let summary = model.advance_time_unit();
        if let Some(&id) = summary.births.last() {
            break id;
        }
    };
    let mut informed: HashSet<NodeId> = HashSet::new();
    informed.insert(source);
    for _ in 0..32 {
        let snapshot = Snapshot::of(model.graph());
        let mut next = informed.clone();
        for &u in &informed {
            if let Some(neighbors) = snapshot.neighbors(u) {
                next.extend(neighbors);
            }
        }
        model.advance_time_unit();
        next.retain(|id| model.contains(*id));
        let done = next.len() >= model.alive_count();
        informed = next;
        if done {
            break;
        }
    }
    informed.len()
}

fn bench_flooding_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_flooding_neighbor_source");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let mut template = ModelKind::Sdgr
        .build(2_048, 8, 7)
        .expect("valid parameters");
    template.warm_up();

    group.bench_function("graph_neighbors", |bencher| {
        bencher.iter(|| criterion::black_box(flooding_rounds_via_graph(&template)));
    });
    group.bench_function("snapshot_per_round", |bencher| {
        bencher.iter(|| criterion::black_box(flooding_rounds_via_snapshot(&template)));
    });
    group.finish();
}

criterion_group!(benches, bench_adjacency_ablation, bench_flooding_ablation);
criterion_main!(benches);
