//! The traced replay: re-executes a workload's cells through the layers'
//! public functions, with a span around every call into a layer.
//!
//! Each cell follows the scenario engine's measurement code step for step
//! (same constructors, seeds, budgets and observers), so its work counters
//! must equal the untraced records' exactly; `fidelity_problems` checks
//! that. Spans are recorded from this file only — the engines themselves
//! run untouched.

use churn_core::expansion::{measure_expansion_on, SizeRange};
use churn_core::flooding::{run_flooding_parallel_observed, FloodingConfig, FloodingSource};
use churn_core::DynamicNetwork;
use churn_event::{
    run_async_flooding_faulty, run_async_raes_faulty, AsyncFloodingConfig, AsyncRaesConfig,
    AsyncSource, BandwidthModel, LatencyModel, TraceMode,
};
use churn_graph::expansion::ExpansionConfig;
use churn_graph::GraphDelta;
use churn_observe::{IncrementalSnapshot, InformedOverlap, LiveMetrics};
use churn_sim::scenario::{
    AnyNet, AsyncFloodingSpec, AsyncRaesSpec, CellRecord, CellSpec, ExpansionSpec, FaultSpec,
    FloodingSpec, Measurement, NetSpec, RoundBudget, Scenario,
};
use churn_stochastic::rng::seeded_rng;

use crate::span::Tracer;
use crate::workloads::{build_net, cells};

/// Work counters of one replayed cell, named like the record metrics they
/// must reproduce.
pub type Work = Vec<(&'static str, f64)>;

/// The shape of one event-driven cell, for the event-layer replays.
#[derive(Debug, Clone)]
pub struct AsyncShape {
    pub seed: u64,
    pub n: usize,
    pub latency: LatencyModel,
    pub bandwidth: BandwidthModel,
    pub fault: FaultSpec,
    pub events: u64,
    pub messages: u64,
    pub sim_time: f64,
    /// Messages one sender offers at one instant (a flood forward fans out
    /// to its neighbours at once; protocol requests go one at a time).
    pub burst: u64,
    /// Events pending at `t = 0` (the async RAES wiring burst).
    pub initial_burst: u64,
    /// Share of scheduled events that are ack-timeout/backoff timers.
    pub timer_share: f64,
    /// Base ack timeout and backoff factor of those timers.
    pub timeout: f64,
    pub backoff: f64,
}

/// Deterministic counts of one replay pass, summed over its cells.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub warm_up_steps: u64,
    pub flood_rounds: u64,
    pub raes_requests: u64,
    pub raes_rejected: u64,
    pub events: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub flood_informed: u64,
    pub dropped: u64,
    pub retransmits: u64,
    pub retries_exhausted: u64,
    pub repairs_completed: u64,
    pub repair_requests: u64,
    pub shapes: Vec<AsyncShape>,
}

/// One replay pass over every cell of the scenario.
pub struct Pass {
    /// Per cell: its seed and work counters, in record order.
    pub work: Vec<(u64, Work)>,
    pub counts: Counts,
}

/// The engine's round-budget rule (`RoundBudget::resolve`).
fn resolve(budget: RoundBudget, n: usize) -> u64 {
    match budget {
        RoundBudget::Log2Times(factor) => u64::from(factor) * (n as f64).log2().ceil() as u64,
        RoundBudget::Fixed(rounds) => rounds,
        RoundBudget::EngineDefault => FloodingConfig::default().max_rounds,
    }
}

/// Replays every cell of `scenario`. With a disabled tracer this is the
/// untraced baseline of the tracing overhead.
pub fn replay(scenario: &Scenario, tracer: &mut Tracer) -> Pass {
    let mut counts = Counts::default();
    let mut work = Vec::new();
    for (cell, seed) in cells(scenario) {
        tracer.set_id(seed);
        let root = tracer.enter("sim.cell");
        let cell_work = match *scenario.measurement() {
            Measurement::ParallelFlooding(spec) => {
                flooding_cell(&cell, seed, spec, tracer, &mut counts)
            }
            Measurement::AsyncFlooding(spec) => {
                async_flooding_cell(&cell, seed, spec, tracer, &mut counts)
            }
            Measurement::AsyncRaes(spec) => async_raes_cell(&cell, seed, spec, tracer, &mut counts),
            Measurement::Expansion(spec) => expansion_cell(&cell, seed, spec, tracer, &mut counts),
            ref other => unreachable!("no workload runs {}", other.kind()),
        };
        tracer.exit(root);
        work.push((seed, cell_work));
    }
    Pass { work, counts }
}

/// Serialises the records as the checkpoint writer does, inside a span.
pub fn serialize(records: &[CellRecord], tracer: &mut Tracer) {
    tracer.set_id(0);
    tracer.span("sim.serialize", || {
        for record in records {
            std::hint::black_box(record.to_json_line());
        }
    });
}

/// Builds and warms a cell's network, spanning the build and the warm-up
/// under the layer that owns the model.
fn warm_net(cell: &CellSpec, seed: u64, tracer: &mut Tracer, counts: &mut Counts) -> AnyNet {
    let protocol = matches!(cell.net, NetSpec::Raes(_));
    let (build, warm) = if protocol {
        ("protocol.build", "protocol.warm_up")
    } else {
        ("core.build", "core.warm_up")
    };
    let mut net = tracer.span(build, || build_net(cell, seed));
    tracer.span(warm, || net.warm_up());
    if !protocol {
        counts.warm_up_steps += net.churn_steps();
    }
    net
}

fn raes_counts(net: &AnyNet, counts: &mut Counts) {
    if let AnyNet::Raes(model) = net {
        counts.raes_requests += model.stats().requests_sent;
        counts.raes_rejected += model.stats().rejected;
    }
}

/// `Measurement::ParallelFlooding` with the informed-overlap observer.
fn flooding_cell(
    cell: &CellSpec,
    seed: u64,
    spec: FloodingSpec,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Work {
    let mut net = warm_net(cell, seed, tracer, counts);
    if spec.record_isolation {
        tracer.span("observe.census", || {
            std::hint::black_box(LiveMetrics::new(net.graph()).isolated_count())
        });
    }
    let max_rounds = resolve(spec.budget, cell.n);
    let mut overlap = InformedOverlap::new();
    let flood = tracer.enter("core.flood");
    let record = run_flooding_parallel_observed(
        &mut net,
        FloodingSource::NextToJoin,
        &FloodingConfig::with_max_rounds(max_rounds),
        1,
        |_, delta, engine| {
            let observe = tracer.enter("observe.overlap");
            overlap.apply(delta);
            for idx in engine.newly_informed_dense() {
                overlap.mark(idx);
            }
            tracer.exit(observe);
        },
    );
    tracer.exit(flood);
    // The engine's end-of-run census of the uninformed population.
    tracer.span("observe.census", || {
        let graph = net.graph();
        let uninformed = graph
            .member_indices()
            .iter()
            .filter(|&&idx| !overlap.is_informed(idx))
            .map(|&idx| graph.incident_link_count_at(idx).unwrap_or(0))
            .filter(|&links| links < cell.d)
            .count();
        std::hint::black_box(uninformed);
    });
    raes_counts(&net, counts);
    let rounds = record
        .outcome
        .rounds()
        .unwrap_or(max_rounds)
        .min(max_rounds);
    counts.flood_rounds += rounds;
    vec![
        ("flooding_rounds", rounds as f64),
        ("final_fraction", record.final_fraction()),
        ("peak_informed", record.peak_informed() as f64),
    ]
}

/// `Measurement::AsyncFlooding`.
fn async_flooding_cell(
    cell: &CellSpec,
    seed: u64,
    spec: AsyncFloodingSpec,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Work {
    let mut net = warm_net(cell, seed, tracer, counts);
    let horizon = resolve(spec.horizon, cell.n) as f64;
    let cfg = AsyncFloodingConfig {
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        horizon,
        churn: true,
        trace: TraceMode::Off,
    };
    let plan = cell.fault.resolve();
    let record = tracer.span("event.loop", || {
        run_async_flooding_faulty(&mut net, AsyncSource::Newest, &cfg, &plan, seed)
    });
    raes_counts(&net, counts);
    let stats = &record.stats;
    counts.events += stats.events_processed;
    counts.messages_sent += stats.messages_sent;
    counts.messages_delivered += stats.messages_delivered;
    counts.flood_informed += (record.informed as u64).saturating_sub(1);
    counts.dropped += stats.messages_dropped;
    counts.shapes.push(AsyncShape {
        seed,
        n: cell.n,
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        fault: cell.fault,
        events: stats.events_processed,
        messages: stats.messages_sent,
        sim_time: stats.sim_time,
        burst: (stats.messages_sent / (record.informed as u64).max(1)).max(1),
        initial_burst: 0,
        timer_share: 0.0,
        timeout: 0.0,
        backoff: 1.0,
    });
    vec![
        ("informed", record.informed as f64),
        ("events_processed", stats.events_processed as f64),
        ("messages_sent", stats.messages_sent as f64),
    ]
}

/// `Measurement::AsyncRaes` (the engine wires its own population).
fn async_raes_cell(
    cell: &CellSpec,
    seed: u64,
    spec: AsyncRaesSpec,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Work {
    let NetSpec::Raes(net) = cell.net else {
        unreachable!("async RAES scenarios run RAES nets")
    };
    let horizon = resolve(spec.horizon, cell.n) as f64;
    let retry = cell.fault.effective_retry();
    let cfg = AsyncRaesConfig {
        n: cell.n,
        d: cell.d,
        capacity_factor: net.capacity,
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        horizon,
        flood_at: spec.flood.then_some(horizon / 4.0),
        retry_timeout: 8.0,
        backoff_factor: retry.factor,
        backoff_jitter: retry.jitter,
        retry_budget: retry.budget,
        trace: TraceMode::Off,
    };
    let plan = cell.fault.resolve();
    let record = tracer.span("event.loop", || run_async_raes_faulty(&cfg, &plan, seed));
    let stats = &record.stats;
    counts.events += stats.events_processed;
    counts.messages_sent += stats.messages_sent;
    counts.messages_delivered += stats.messages_delivered;
    counts.dropped += stats.messages_dropped;
    counts.retransmits += stats.retransmits;
    counts.retries_exhausted += stats.retries_exhausted;
    counts.repairs_completed += record.repairs_completed;
    counts.repair_requests += record.repair_requests;
    let timers = record.repair_requests + stats.retransmits;
    counts.shapes.push(AsyncShape {
        seed,
        n: cell.n,
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        fault: cell.fault,
        events: stats.events_processed,
        messages: stats.messages_sent,
        sim_time: stats.sim_time,
        burst: 1,
        initial_burst: (cell.n * cell.d) as u64,
        timer_share: timers as f64 / stats.events_processed.max(1) as f64,
        timeout: cfg.retry_timeout,
        backoff: retry.factor,
    });
    vec![
        ("repairs_completed", record.repairs_completed as f64),
        ("events_processed", stats.events_processed as f64),
        ("messages_sent", stats.messages_sent as f64),
    ]
}

/// `Measurement::Expansion`: incremental snapshots sampled every
/// `n / interval_div` rounds, each estimated over the full size range.
fn expansion_cell(
    cell: &CellSpec,
    seed: u64,
    spec: ExpansionSpec,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Work {
    assert!(
        spec.initial_window_div == 0 && !spec.large_sets,
        "the structure workload replays the default estimator only"
    );
    let mut net = warm_net(cell, seed, tracer, counts);
    let config = if spec.fast {
        ExpansionConfig::fast()
    } else {
        ExpansionConfig::default()
    };
    let mut rng = seeded_rng(seed ^ 0xABCD);
    let streaming = net.has_streaming_churn();
    let mut inc = tracer.span("observe.init", || {
        IncrementalSnapshot::new(net.graph()).with_threads(1)
    });
    let interval = (cell.n / spec.interval_div.max(1)).max(8) as u64;
    let mut worst_full = f64::INFINITY;
    for sample in 0..spec.samples.max(1) {
        if sample > 0 {
            // `churn_sim::observe_rounds`, with the churn step and the
            // snapshot update spanned separately.
            net.graph_mut().set_delta_recording(false);
            net.graph_mut().set_delta_recording(true);
            let mut delta = GraphDelta::new();
            for _ in 0..interval {
                tracer.span("core.observe_churn", || {
                    std::hint::black_box(net.advance_time_unit());
                });
                tracer.span("observe.apply", || {
                    net.graph_mut().take_delta_into(&mut delta);
                    inc.apply(net.graph(), &delta);
                });
            }
        }
        let snapshot = tracer.span("observe.to_snapshot", || inc.to_snapshot());
        let time = net.time();
        let bounds = SizeRange::Full.bounds_for(snapshot.len(), cell.d, streaming);
        let value = tracer.span("core.expansion", || {
            measure_expansion_on(&snapshot, bounds, &config, &mut rng, time).value()
        });
        if let Some(value) = value {
            worst_full = worst_full.min(value);
        }
    }
    vec![(
        "full_range_expansion",
        if worst_full.is_finite() {
            worst_full
        } else {
            f64::NAN
        },
    )]
}

/// The cells whose replayed work counters differ from the untraced
/// records, one description per cell (a missing or reordered cell counts
/// as mismatched).
pub fn fidelity_problems(pass: &Pass, records: &[CellRecord]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let Some((seed, work)) = pass.work.get(i) else {
            problems.push(format!("cell {}: not replayed", record.seed));
            continue;
        };
        if *seed != record.seed {
            problems.push(format!(
                "cell {}: replayed cell {seed} in its place",
                record.seed
            ));
            continue;
        }
        let differing: Vec<String> = work
            .iter()
            .filter_map(|&(name, value)| {
                let recorded = record.metric(name);
                let same = recorded.is_some_and(|r| r == value || (r.is_nan() && value.is_nan()));
                (!same).then(|| format!("{name} replayed {value}, recorded {recorded:?}"))
            })
            .collect();
        if !differing.is_empty() {
            problems.push(format!("cell {seed}: {}", differing.join("; ")));
        }
    }
    problems
}
