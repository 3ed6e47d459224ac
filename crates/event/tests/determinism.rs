//! The event core's two contracts, pinned end to end:
//!
//! 1. **Determinism** — same seed ⇒ identical event trace, at any queue
//!    capacity, for both asynchronous processes; the FIFO tie-break over
//!    simultaneous events is a total order (property-tested).
//! 2. **Sync equivalence** — in the zero-latency / infinite-bandwidth limit
//!    on a static graph, asynchronous flooding collapses to the synchronous
//!    engine (breadth-first search): same informed set bit for bit, same
//!    round structure.

use churn_core::{DynamicNetwork, EdgePolicy, StreamingConfig, StreamingModel};
use churn_event::{
    run_async_flooding_faulty, run_async_raes_faulty, AsyncFloodingConfig, AsyncFloodingRecord,
    AsyncRaesConfig, AsyncSource, BandwidthModel, FaultPlan, LatencyModel, PartitionWindow,
    Scheduler, StaticGraph, TraceMode,
};
use churn_graph::generators::d_out_random_graph;
use churn_graph::traversal::{bfs_distances, static_flooding_time};
use churn_graph::{DynamicGraph, NodeId, Snapshot};
use churn_protocol::{RaesConfig, RaesModel};
use churn_stochastic::rng::seeded_rng;
use proptest::prelude::*;

/// The queue shapes the determinism contract is pinned at: unbounded
/// instant, unbounded delaying, and drop-tail at tight and loose capacity.
fn bandwidth_grid() -> [BandwidthModel; 4] {
    [
        BandwidthModel::unlimited(),
        BandwidthModel::delaying(4.0),
        BandwidthModel::drop_tail(4.0, 1),
        BandwidthModel::drop_tail(4.0, 16),
    ]
}

/// Floods a static graph from `source`.
fn flood_static(
    graph: &DynamicGraph,
    source: NodeId,
    cfg: &AsyncFloodingConfig,
    plan: &FaultPlan,
    seed: u64,
) -> AsyncFloodingRecord {
    run_async_flooding_faulty(
        &mut StaticGraph(graph),
        AsyncSource::Node(source),
        cfg,
        plan,
        seed,
    )
}

fn traced_flooding(bandwidth: BandwidthModel, seed: u64) -> AsyncFloodingRecord {
    let mut model = RaesModel::new(RaesConfig::new(64, 3).seed(99)).expect("valid RAES config");
    model.warm_up();
    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth,
        horizon: 48.0,
        churn: true,
        trace: TraceMode::Full,
    };
    run_async_flooding_faulty(
        &mut model,
        AsyncSource::Newest,
        &cfg,
        &FaultPlan::none(),
        seed,
    )
}

#[test]
fn same_seed_gives_identical_flooding_traces_at_every_queue_capacity() {
    for bandwidth in bandwidth_grid() {
        let a = traced_flooding(bandwidth, 7);
        let b = traced_flooding(bandwidth, 7);
        assert!(
            !a.trace.is_empty(),
            "trace was recorded ({})",
            bandwidth.label()
        );
        assert_eq!(a.trace, b.trace, "trace diverged at {}", bandwidth.label());
        assert_eq!(a.stats.events_processed, b.stats.events_processed);
        assert_eq!(a.stats.messages_sent, b.stats.messages_sent);
        assert_eq!(a.stats.messages_dropped, b.stats.messages_dropped);
        assert_eq!(a.informed_ids(), b.informed_ids());
        assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());

        // A different seed must actually change the event stream — otherwise
        // the assertions above are vacuous.
        let c = traced_flooding(bandwidth, 8);
        assert_ne!(a.trace, c.trace, "seed is inert at {}", bandwidth.label());
    }
}

#[test]
fn same_seed_gives_identical_raes_traces_at_every_queue_capacity() {
    for bandwidth in bandwidth_grid() {
        let cfg = AsyncRaesConfig {
            horizon: 40.0,
            flood_at: Some(6.0),
            trace: TraceMode::Full,
            ..AsyncRaesConfig::new(
                48,
                3,
                LatencyModel::Uniform {
                    low: 0.1,
                    high: 1.5,
                },
                bandwidth,
            )
        };
        let a = run_async_raes_faulty(&cfg, &FaultPlan::none(), 13);
        let b = run_async_raes_faulty(&cfg, &FaultPlan::none(), 13);
        assert!(
            !a.trace.is_empty(),
            "trace was recorded ({})",
            bandwidth.label()
        );
        assert_eq!(a.trace, b.trace, "trace diverged at {}", bandwidth.label());
        assert_eq!(a.repairs_completed, b.repairs_completed);
        assert_eq!(a.repair_requests, b.repair_requests);
        assert_eq!(a.rejections, b.rejections);
        assert_eq!(a.phantoms, b.phantoms);
        assert_eq!(a.mean_repair_time.to_bits(), b.mean_repair_time.to_bits());
        assert_eq!(a.stats.events_processed, b.stats.events_processed);
    }
}

/// The one event loop serves a model and a static graph identically: with
/// churn off, a warm SDGR model and a clone of its graph give the same
/// trace, statistics and informed set under a plan that exercises every
/// fault gate the loop runs without churn ticks.
#[test]
fn static_graph_and_model_hosts_run_the_same_loop() {
    let mut model = StreamingModel::new(
        StreamingConfig::new(128, 4)
            .edge_policy(EdgePolicy::Regenerate)
            .seed(21),
    )
    .expect("valid SDGR config");
    model.warm_up();
    let clone = model.graph().clone();
    let source = AsyncSource::Node(model.newest_node().expect("streaming newest is alive"));
    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Exponential { mean: 0.5 },
        bandwidth: BandwidthModel::delaying(4.0),
        horizon: 64.0,
        churn: false,
        trace: TraceMode::Full,
    };
    let plan = FaultPlan {
        duplicate_p: 0.2,
        reorder_p: 0.3,
        reorder_max: 1.5,
        partitions: vec![PartitionWindow {
            start: 1.0,
            heal: 6.0,
            blocks: 2,
        }],
        anti_entropy: Some(2.0),
        ..FaultPlan::none()
    };
    let on_graph = run_async_flooding_faulty(&mut StaticGraph(&clone), source, &cfg, &plan, 5);
    let on_model = run_async_flooding_faulty(&mut model, source, &cfg, &plan, 5);
    assert!(on_graph.stats.messages_duplicated > 0, "duplication fired");
    assert!(on_graph.stats.messages_reordered > 0, "reordering fired");
    assert!(
        on_graph.stats.messages_blocked > 0,
        "the partition cut links"
    );
    assert!(on_graph.stats.anti_entropy_pulls > 0, "anti-entropy pulled");
    assert_eq!(on_graph.trace, on_model.trace);
    assert_eq!(
        format!("{:?}", on_graph.stats),
        format!("{:?}", on_model.stats)
    );
    assert_eq!(on_graph.informed_ids(), on_model.informed_ids());
}

proptest! {
    /// Simultaneous events pop in schedule (FIFO) order: for an arbitrary
    /// mix of timestamps drawn from a coarse grid (forcing many exact ties),
    /// the pop order equals a stable sort of the schedule order by time —
    /// the tie-break is a total order, never arbitrary heap order.
    #[test]
    fn tie_break_is_fifo_over_simultaneous_events(
        times in proptest::collection::vec(0u8..4, 1..64)
    ) {
        let mut sched = Scheduler::new();
        for (k, &t) in times.iter().enumerate() {
            sched.schedule_at(f64::from(t), k);
        }
        let mut expected: Vec<(u8, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        expected.sort_by_key(|&(t, _)| t); // stable: preserves schedule order
        let popped: Vec<(u8, usize)> = std::iter::from_fn(|| {
            sched.pop().map(|(time, k)| (time as u8, k))
        })
        .collect();
        prop_assert_eq!(popped, expected);
    }
}

/// The async informed set in the zero-latency / infinite-bandwidth limit,
/// against the synchronous comparator (BFS over the same snapshot).
#[test]
fn zero_latency_infinite_bandwidth_matches_the_synchronous_engine_bit_for_bit() {
    let mut rng = seeded_rng(41);
    let graph = d_out_random_graph(256, 3, &mut rng);
    let snapshot = Snapshot::of(&graph);
    let source = NodeId::new(0);
    let source_idx = snapshot.index_of(source).expect("node 0 exists");
    let dist = bfs_distances(&snapshot, source_idx);
    let mut sync_informed: Vec<NodeId> = dist
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_some())
        .map(|(i, _)| snapshot.ids()[i])
        .collect();
    sync_informed.sort_unstable();

    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Fixed(0.0),
        bandwidth: BandwidthModel::unlimited(),
        horizon: 1024.0,
        churn: false,
        trace: TraceMode::Off,
    };
    let record = flood_static(&graph, source, &cfg, &FaultPlan::none(), 123);

    assert_eq!(record.informed_ids(), sync_informed.as_slice());
    assert_eq!(record.informed, sync_informed.len());
    assert_eq!(record.stats.messages_lost, 0);
    assert_eq!(record.stats.messages_dropped, 0);
    // Everything happened at t = 0: the async process collapsed to BFS.
    assert_eq!(record.stats.sim_time.to_bits(), 0f64.to_bits());
    let sync_rounds = static_flooding_time(&snapshot, source_idx);
    assert_eq!(record.complete, sync_rounds.is_some());
}

/// With unit latency the emergent rounds equal the synchronous flooding
/// time exactly, and completion lands at that integer instant.
#[test]
fn unit_latency_emergent_rounds_equal_the_synchronous_flooding_time() {
    let mut rng = seeded_rng(42);
    let graph = d_out_random_graph(192, 3, &mut rng);
    let snapshot = Snapshot::of(&graph);
    let source = NodeId::new(5);
    let source_idx = snapshot.index_of(source).expect("node 5 exists");
    let sync_rounds = static_flooding_time(&snapshot, source_idx)
        .expect("a 3-out random graph on 192 nodes is connected");

    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Fixed(1.0),
        bandwidth: BandwidthModel::unlimited(),
        horizon: 1024.0,
        churn: false,
        trace: TraceMode::Off,
    };
    let record = flood_static(&graph, source, &cfg, &FaultPlan::none(), 123);
    assert!(record.complete);
    assert_eq!(record.emergent_rounds, sync_rounds);
    assert_eq!(record.completion_time, Some(f64::from(sync_rounds)));
}

/// Nonzero latency plus finite bandwidth stretches completion beyond the
/// synchronous round count — the emergent-timing claim of the paper-level
/// story, pinned on a concrete instance.
#[test]
fn queueing_and_latency_stretch_completion_beyond_the_synchronous_rounds() {
    let mut rng = seeded_rng(43);
    let graph = d_out_random_graph(192, 3, &mut rng);
    let snapshot = Snapshot::of(&graph);
    let source = NodeId::new(0);
    let source_idx = snapshot.index_of(source).expect("node 0 exists");
    let sync_rounds = static_flooding_time(&snapshot, source_idx)
        .expect("a 3-out random graph on 192 nodes is connected");

    let cfg = AsyncFloodingConfig {
        latency: LatencyModel::Fixed(1.0),
        bandwidth: BandwidthModel::delaying(1.0),
        horizon: 4096.0,
        churn: false,
        trace: TraceMode::Off,
    };
    let record = flood_static(&graph, source, &cfg, &FaultPlan::none(), 123);
    assert!(record.complete);
    let completion = record
        .completion_time
        .expect("complete runs have a completion time");
    assert!(
        completion > f64::from(sync_rounds),
        "completion {completion} should exceed the synchronous {sync_rounds} rounds"
    );
    assert!(record.stats.mean_queue_delay() > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Duplication and bounded reordering change *when* and *how often*
    /// messages arrive, never *whether* — with no loss, partition or crash
    /// axis active, the async informed set on a static graph is exactly the
    /// BFS-reachable set from the source, for arbitrary duplication and
    /// reordering rates.
    #[test]
    fn duplication_and_reordering_preserve_the_informed_set(
        seed in 0u64..(1 << 48),
        duplicate_p in 0.0f64..0.9,
        reorder_p in 0.0f64..0.9,
        reorder_max in 0.1f64..4.0,
        n in 24usize..96,
    ) {
        let mut rng = seeded_rng(seed ^ 0xD00D);
        let graph = d_out_random_graph(n, 3, &mut rng);
        let snapshot = Snapshot::of(&graph);
        let source = NodeId::new(0);
        let source_idx = snapshot.index_of(source).expect("node 0 exists");
        let dist = bfs_distances(&snapshot, source_idx);
        let mut reachable: Vec<NodeId> = dist
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_some())
            .map(|(i, _)| snapshot.ids()[i])
            .collect();
        reachable.sort_unstable();

        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(1.0),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 4096.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let plan = FaultPlan {
            duplicate_p,
            reorder_p,
            reorder_max,
            ..FaultPlan::none()
        };
        let record = flood_static(&graph, source, &cfg, &plan, seed);
        prop_assert_eq!(record.informed_ids(), reachable.as_slice());
        prop_assert_eq!(record.stats.messages_fault_lost, 0);
        prop_assert_eq!(record.stats.messages_blocked, 0);
    }
}
