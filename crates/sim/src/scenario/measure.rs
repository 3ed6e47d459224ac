//! Measurement execution: one grid cell in, a flat list of named metrics out.
//!
//! Every [`Measurement`](super::Measurement) variant runs here, against the
//! cell's [`NetSpec`](super::NetSpec). The functions are deterministic given
//! `(cell, seed)` and thread-count independent (the sharded engines
//! guarantee output identical to their sequential paths), which is what the
//! scenario runner's checkpoint/resume bit-identity rests on.

use churn_core::expansion::{measure_expansion_on, SizeRange};
use churn_core::flooding::{
    run_flooding, FloodingConfig, FloodingProcess, FloodingRecord, FloodingSource,
};
use churn_core::onion_skin::run_onion_skin;
use churn_core::{theory, ChurnSummary, DynamicNetwork};
use churn_graph::expansion::ExpansionConfig;
use churn_graph::generators::d_out_random_graph;
use churn_graph::traversal::{connected_components, static_flooding_time};
use churn_graph::{DynamicGraph, NodeId, Snapshot};
use churn_observe::{LifetimeIsolation, LiveMetrics, RecoveryCensus};
use churn_p2p::gossip::propagate_block_series;
use churn_p2p::health::overlay_health;
use churn_p2p::P2pNetwork;
use churn_protocol::RaesModel;
use churn_stochastic::rng::seeded_rng;
use churn_stochastic::OnlineStats;

use churn_event::{
    flooding as event_flooding, raes as event_raes, run_async_flooding_faulty,
    run_async_raes_faulty, AsyncFloodingConfig, AsyncRaesConfig, AsyncSource, EventStats,
    TraceMode,
};
use churn_telemetry::RoundSeries;

use super::{
    p2p_config, AsyncFloodingSpec, AsyncRaesSpec, CellSpec, ExpansionSpec, FloodingSpec,
    GridPreset, Measurement, NetSpec,
};
use crate::observer::observe_rounds;

/// Named metric list of one cell.
type Metrics = Vec<(&'static str, f64)>;

/// A type-erased dynamic network over every buildable [`NetSpec`]: the four
/// baselines, the RAES protocol and the p2p overlay. (The static baseline
/// has no churn process and is handled inside its measurement.)
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one net per cell; nothing stores these in bulk
pub enum AnyNet {
    /// A paper baseline model.
    Baseline(churn_core::AnyModel),
    /// The RAES maintenance protocol.
    Raes(Box<RaesModel>),
    /// The Bitcoin-like overlay.
    P2p(Box<P2pNetwork>),
}

macro_rules! delegate {
    ($self:ident, $m:ident => $body:expr) => {
        match $self {
            AnyNet::Baseline($m) => $body,
            AnyNet::Raes($m) => $body,
            AnyNet::P2p($m) => $body,
        }
    };
}

impl DynamicNetwork for AnyNet {
    fn graph(&self) -> &DynamicGraph {
        delegate!(self, m => m.graph())
    }

    fn graph_mut(&mut self) -> &mut DynamicGraph {
        delegate!(self, m => m.graph_mut())
    }

    fn degree_parameter(&self) -> usize {
        delegate!(self, m => m.degree_parameter())
    }

    fn expected_size(&self) -> usize {
        delegate!(self, m => m.expected_size())
    }

    fn edge_policy(&self) -> churn_core::EdgePolicy {
        delegate!(self, m => m.edge_policy())
    }

    fn has_streaming_churn(&self) -> bool {
        delegate!(self, m => m.has_streaming_churn())
    }

    fn time(&self) -> f64 {
        delegate!(self, m => m.time())
    }

    fn churn_steps(&self) -> u64 {
        delegate!(self, m => m.churn_steps())
    }

    fn birth_time(&self, id: NodeId) -> Option<f64> {
        delegate!(self, m => m.birth_time(id))
    }

    fn newest_node(&self) -> Option<NodeId> {
        delegate!(self, m => m.newest_node())
    }

    fn advance_time_unit(&mut self) -> ChurnSummary {
        delegate!(self, m => m.advance_time_unit())
    }

    fn warm_up(&mut self) {
        delegate!(self, m => m.warm_up())
    }

    fn is_warm(&self) -> bool {
        delegate!(self, m => m.is_warm())
    }
}

/// Builds the cell's network, warm and ready to measure.
fn build_net(cell: &CellSpec, seed: u64) -> AnyNet {
    match cell.net {
        NetSpec::Baseline(kind) => AnyNet::Baseline(
            kind.build_with_victim(cell.n, cell.d, seed, cell.victim)
                .expect("scenario validated at registration"),
        ),
        NetSpec::Raes(spec) => AnyNet::Raes(Box::new(
            RaesModel::new(spec.config(cell.n, cell.d, cell.victim).seed(seed))
                .expect("scenario validated at registration"),
        )),
        NetSpec::P2p => AnyNet::P2p(Box::new(
            P2pNetwork::new(p2p_config(cell.n, cell.d).seed(seed))
                .expect("scenario validated at registration"),
        )),
        NetSpec::Static => unreachable!("static cells never build a dynamic network"),
    }
}

/// Runs one cell's measurement. Deterministic given `(measurement, cell,
/// seed)`; `threads` only budgets the in-cell engines (whose output is
/// thread-count independent), `preset` picks the cheap knobs of the
/// measurements that have one.
///
/// With `series` on, measurements that support it
/// ([`Measurement::supports_series`]) additionally return their per-round
/// trajectory. Series capture is strictly passive — it reads state the
/// engines already produce (the sync records' round vectors, the async
/// schedulers' event traces), so the metrics are identical either way.
pub(super) fn run_cell(
    measurement: &Measurement,
    cell: &CellSpec,
    seed: u64,
    threads: usize,
    preset: GridPreset,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    match *measurement {
        Measurement::Flooding(spec) => flooding_cell(cell, seed, spec, series),
        Measurement::ParallelFlooding(spec) => {
            parallel_flooding_cell(cell, seed, spec, threads, series)
        }
        Measurement::PartialFlooding => (partial_flooding_cell(cell, seed), None),
        Measurement::Isolation => (isolation_cell(cell, seed), None),
        Measurement::Expansion(spec) => (expansion_cell(cell, seed, spec), None),
        Measurement::RaesTracking {
            samples,
            interval_div,
        } => raes_tracking_cell(cell, seed, samples, interval_div, preset, series),
        Measurement::OnionSkin => (onion_skin_cell(cell, seed), None),
        Measurement::PoissonDemographics { units, smoke_units } => {
            let units = match preset {
                GridPreset::Full => units,
                GridPreset::Smoke => smoke_units,
            };
            (poisson_demographics_cell(cell, seed, units), None)
        }
        Measurement::StaticBaseline => (static_baseline_cell(cell, seed), None),
        Measurement::P2pPropagation {
            blocks,
            smoke_blocks,
        } => {
            let blocks = match preset {
                GridPreset::Full => blocks,
                GridPreset::Smoke => smoke_blocks,
            };
            (p2p_cell(cell, seed, blocks), None)
        }
        Measurement::AsyncFlooding(spec) => async_flooding_cell(cell, seed, spec, series),
        Measurement::AsyncRaes(spec) => async_raes_cell(cell, seed, spec, series),
    }
}

/// The deterministic event-layer load columns shared by every asynchronous
/// cell: event and message counts, queue pressure, and the simulated-time
/// queue-delay statistics. Wall-clock throughput is *not* here — the runner
/// measures it around the cell and writes it to the non-checkpointed
/// `.load.jsonl` side file, keeping the main records bit-reproducible.
fn event_stats_metrics(stats: &EventStats, out: &mut Metrics) {
    out.push(("events_processed", stats.events_processed as f64));
    out.push(("messages_sent", stats.messages_sent as f64));
    out.push(("messages_delivered", stats.messages_delivered as f64));
    out.push(("messages_dropped", stats.messages_dropped as f64));
    out.push(("messages_lost", stats.messages_lost as f64));
    out.push(("peak_backlog", stats.peak_backlog as f64));
    out.push(("mean_queue_delay", stats.mean_queue_delay()));
    out.push(("p99_queue_delay", stats.p99_queue_delay()));
    out.push(("sim_time", stats.sim_time));
}

/// The fault-layer counters, appended only for cells with an active fault
/// point — the `none` rows keep the pre-fault column schema, which is what
/// their byte-for-byte anchor to the fault-free sibling scenarios rests on.
fn fault_stats_metrics(stats: &EventStats, out: &mut Metrics) {
    out.push(("messages_fault_lost", stats.messages_fault_lost as f64));
    out.push(("messages_duplicated", stats.messages_duplicated as f64));
    out.push(("messages_reordered", stats.messages_reordered as f64));
    out.push(("messages_blocked", stats.messages_blocked as f64));
    out.push(("messages_to_down", stats.messages_to_down as f64));
    out.push(("messages_crash_voided", stats.messages_crash_voided as f64));
    out.push(("crashes", stats.crashes as f64));
    out.push(("restarts", stats.restarts as f64));
    out.push(("redundancy_overhead", stats.redundancy_overhead()));
}

/// Per-round series of the synchronous flooding measurements, read straight
/// off the record's round trajectory. Columns: `informed_fraction`,
/// `informed`, `alive`, `newly_informed`; Byzantine cells add
/// `informed_honest` and `alive_honest`.
fn flooding_series(record: &FloodingRecord, byz: bool) -> RoundSeries {
    let mut series = RoundSeries::new();
    for stats in &record.rounds {
        let mut row: Vec<(&'static str, f64)> = vec![
            ("informed_fraction", stats.informed_fraction()),
            ("informed", stats.informed as f64),
            ("alive", stats.alive as f64),
            ("newly_informed", stats.newly_informed as f64),
        ];
        if byz {
            row.push(("informed_honest", stats.informed_honest as f64));
            row.push(("alive_honest", stats.alive_honest as f64));
        }
        series.push_round(&row);
    }
    series
}

/// Event-driven asynchronous flooding over the cell's (churning) network.
///
/// Series columns (one row per unit of simulated time, from the scheduler's
/// event trace): `informed_fraction`, `informed` (cumulative ever-informed),
/// `alive`, `newly_informed`, `duplicates`, `lost`, `blocked`; fault cells
/// add `crashes`, `restarts` and `pulls`. The trace recorder is passive —
/// turning it on changes no RNG stream and no metric.
fn async_flooding_cell(
    cell: &CellSpec,
    seed: u64,
    spec: AsyncFloodingSpec,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let horizon = spec.horizon.resolve(cell.n) as f64;
    let cfg = AsyncFloodingConfig {
        latency: spec.latency,
        bandwidth: spec.bandwidth,
        horizon,
        churn: true,
        trace: if series {
            TraceMode::Bins
        } else {
            TraceMode::Off
        },
    };
    let plan = cell.fault.resolve();
    let record = run_async_flooding_faulty(&mut net, AsyncSource::Newest, &cfg, &plan, seed);
    let mut out: Metrics = vec![
        ("informed", record.informed as f64),
        ("alive", record.alive as f64),
        ("completed", f64::from(record.complete)),
        ("completion_time", record.completion_time.unwrap_or(horizon)),
        ("emergent_rounds", f64::from(record.emergent_rounds)),
        ("final_fraction", record.final_fraction()),
    ];
    event_stats_metrics(&record.stats, &mut out);
    if !cell.fault.is_none() {
        fault_stats_metrics(&record.stats, &mut out);
        out.push(("anti_entropy_pulls", record.stats.anti_entropy_pulls as f64));
        if let Some(window) = cell.fault.partition {
            // The heal census: per-block informed fractions at the heal
            // instant, the stall floor during the partition, and how long
            // the flood needed after the heal (horizon-capped when it never
            // completed — the convention `completion_time` uses).
            let heal = record.stats.heal_time.unwrap_or(window.heal);
            out.push(("heal_time", heal));
            out.push((
                "time_to_reheal",
                record
                    .stats
                    .time_to_reheal
                    .unwrap_or((horizon - heal).max(0.0)),
            ));
            let fractions = &record.stats.heal_block_informed;
            out.push((
                "heal_min_block_informed",
                fractions.iter().copied().fold(1.0, f64::min),
            ));
            out.push((
                "heal_max_block_informed",
                fractions.iter().copied().fold(0.0, f64::max),
            ));
            // End-of-run recovery census: did every block catch back up
            // after the heal? (The heal-instant fractions above are the
            // state anti-entropy had to recover *from*.)
            let informed = record.informed_ids();
            let census = RecoveryCensus::take(
                net.graph(),
                window.blocks,
                |id| plan.block_of(0, id),
                |id| informed.binary_search(&NodeId::new(id)).is_ok(),
            );
            out.push(("final_min_block_informed", census.min_fraction()));
            out.push(("partition_recovered", f64::from(census.recovered())));
        }
    }
    let series = series.then(|| {
        let faulty = !cell.fault.is_none();
        let bins = record.bins.as_ref().expect("bins-mode run records bins");
        let mut out = RoundSeries::new();
        let mut informed_total = 0.0f64;
        for bucket in 0..bins.len() {
            let newly = bins.count(event_flooding::TRACE_INFORMED, bucket) as f64;
            informed_total += newly;
            let alive = bins.alive(bucket);
            let mut row: Vec<(&'static str, f64)> = vec![
                ("informed_fraction", informed_total / alive.max(1.0)),
                ("informed", informed_total),
                ("alive", alive),
                ("newly_informed", newly),
                (
                    "duplicates",
                    bins.count(event_flooding::TRACE_DUPLICATE, bucket) as f64,
                ),
                (
                    "lost",
                    bins.count(event_flooding::TRACE_LOST, bucket) as f64,
                ),
                (
                    "blocked",
                    bins.count(event_flooding::TRACE_BLOCKED, bucket) as f64,
                ),
            ];
            if faulty {
                row.push((
                    "crashes",
                    bins.count(event_flooding::TRACE_CRASH, bucket) as f64,
                ));
                row.push((
                    "restarts",
                    bins.count(event_flooding::TRACE_RESTART, bucket) as f64,
                ));
                row.push((
                    "pulls",
                    bins.count(event_flooding::TRACE_PULL, bucket) as f64,
                ));
            }
            out.push_round(&row);
        }
        out
    });
    (out, series)
}

/// Event-driven asynchronous RAES repair under message load.
///
/// Series columns (one row per unit of simulated time, from the scheduler's
/// event trace): `requests`, `replies`, `repaired`, `alive`; fault cells add
/// `sheds`, `crashes` and `restarts`.
fn async_raes_cell(
    cell: &CellSpec,
    seed: u64,
    spec: AsyncRaesSpec,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    let NetSpec::Raes(net) = cell.net else {
        unreachable!("scenario validated at registration")
    };
    let horizon = spec.horizon.resolve(cell.n) as f64;
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
        trace: if series {
            TraceMode::Bins
        } else {
            TraceMode::Off
        },
    };
    let plan = cell.fault.resolve();
    let record = run_async_raes_faulty(&cfg, &plan, seed);
    let mut out: Metrics = vec![
        ("repairs_completed", record.repairs_completed as f64),
        ("repair_requests", record.repair_requests as f64),
        ("rejections", record.rejections as f64),
        ("phantoms", record.phantoms as f64),
        ("mean_repair_time", record.mean_repair_time),
        ("p99_repair_time", record.p99_repair_time),
        ("dangling_fraction", record.dangling_fraction),
        ("max_in_degree", record.max_in_degree as f64),
        ("in_degree_cap", record.in_degree_cap as f64),
    ];
    if spec.flood {
        let flood = record.flood.as_ref();
        out.push(("flood_informed", flood.map_or(0.0, |f| f.informed as f64)));
        out.push((
            "flood_completed",
            flood.map_or(0.0, |f| f64::from(f.complete)),
        ));
        out.push((
            "flood_completion_time",
            flood.and_then(|f| f.completion_time).unwrap_or(horizon),
        ));
        out.push((
            "flood_emergent_rounds",
            flood.map_or(0.0, |f| f64::from(f.emergent_rounds)),
        ));
    }
    event_stats_metrics(&record.stats, &mut out);
    if !cell.fault.is_none() {
        fault_stats_metrics(&record.stats, &mut out);
        out.push(("retransmits", record.stats.retransmits as f64));
        out.push(("retries_exhausted", record.stats.retries_exhausted as f64));
        out.push(("mean_retransmits", record.stats.mean_retransmits()));
        out.push(("max_retransmits", f64::from(record.stats.max_retransmits())));
        out.push(("p99_backoff", record.stats.p99_backoff()));
    }
    let series = series.then(|| {
        let faulty = !cell.fault.is_none();
        let bins = record.bins.as_ref().expect("bins-mode run records bins");
        let mut out = RoundSeries::new();
        for bucket in 0..bins.len() {
            let mut row: Vec<(&'static str, f64)> = vec![
                (
                    "requests",
                    bins.count(event_raes::TRACE_REQUEST, bucket) as f64,
                ),
                (
                    "replies",
                    bins.count(event_raes::TRACE_REPLY, bucket) as f64,
                ),
                (
                    "repaired",
                    bins.count(event_raes::TRACE_REPAIRED, bucket) as f64,
                ),
                ("alive", bins.alive(bucket)),
            ];
            if faulty {
                row.push(("sheds", bins.count(event_raes::TRACE_SHED, bucket) as f64));
                row.push((
                    "crashes",
                    bins.count(event_raes::TRACE_CRASH, bucket) as f64,
                ));
                row.push((
                    "restarts",
                    bins.count(event_raes::TRACE_RESTART, bucket) as f64,
                ));
            }
            out.push_round(&row);
        }
        out
    });
    (out, series)
}

/// The isolated fraction of the current topology (nodes with no incident
/// links over alive nodes), counted in one pass over the member table.
fn isolated_fraction(net: &AnyNet) -> f64 {
    let graph = net.graph();
    let isolated = graph
        .member_indices()
        .iter()
        .filter(|&&idx| graph.incident_link_count_at(idx) == Some(0))
        .count();
    isolated as f64 / graph.len().max(1) as f64
}

/// The flooding metrics shared by the sequential and parallel measurements.
fn flooding_metrics(record: &FloodingRecord, max_rounds: u64, out: &mut Metrics) {
    out.push((
        "flooding_rounds",
        record
            .outcome
            .rounds()
            .unwrap_or(max_rounds)
            .min(max_rounds) as f64,
    ));
    out.push(("completed", f64::from(record.outcome.is_complete())));
    out.push(("died_out", f64::from(record.outcome.is_died_out())));
    out.push(("final_fraction", record.final_fraction()));
    out.push(("peak_informed", record.peak_informed() as f64));
}

/// RAES protocol health, appended for RAES cells of the flooding
/// measurements.
fn raes_metrics(model: &RaesModel, out: &mut Metrics) {
    let alive = model.alive_count().max(1);
    out.push(("max_in_degree", model.max_in_degree() as f64));
    out.push(("in_degree_cap", model.in_degree_cap() as f64));
    out.push(("rejection_rate", model.stats().rejection_rate()));
    out.push(("mean_repair_latency", model.stats().mean_repair_latency()));
    out.push((
        "pending_backlog",
        model.pending_requests().len() as f64 / alive as f64,
    ));
}

/// Whether the cell's net spec configures an active Byzantine adversary.
/// The *spec* gates the Byzantine metric columns (not the realized
/// corruption), so every trial of a net reports the same schema even when a
/// small-`n` low-`f` trial happens to corrupt nobody.
fn byz_spec(cell: &CellSpec) -> bool {
    matches!(cell.net, NetSpec::Raes(spec) if spec.adversary.is_active())
}

/// Honest-only flooding variants, appended for adversarial RAES cells
/// alongside the global figures.
fn honest_flooding_metrics(record: &FloodingRecord, max_rounds: u64, out: &mut Metrics) {
    let honest_rounds = record
        .rounds
        .iter()
        .position(|r| r.honest_complete)
        .map_or(max_rounds, |p| (p as u64 + 1).min(max_rounds));
    out.push(("honest_flooding_rounds", honest_rounds as f64));
    let last = record.rounds.last();
    out.push((
        "honest_completed",
        f64::from(last.is_some_and(|r| r.honest_complete)),
    ));
    out.push((
        "honest_final_fraction",
        last.map_or(0.0, |r| r.honest_fraction()),
    ));
}

/// Byzantine-degradation counters, appended for adversarial RAES cells.
fn byz_raes_metrics(model: &RaesModel, out: &mut Metrics) {
    let stats = model.stats();
    let alive = model.alive_count().max(1);
    out.push((
        "byz_alive_fraction",
        model.graph().tagged_member_count() as f64 / alive as f64,
    ));
    out.push(("byz_refused", stats.byz_refused as f64));
    out.push(("byz_accept_drops", stats.byz_accept_drops as f64));
    out.push(("byz_requests_sent", stats.byz_requests_sent as f64));
    out.push((
        "mean_honest_repair_latency",
        stats.mean_honest_repair_latency(),
    ));
    out.push((
        "max_victim_cap_occupancy",
        stats.max_victim_cap_occupancy as f64,
    ));
}

fn flooding_cell(
    cell: &CellSpec,
    seed: u64,
    spec: FloodingSpec,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let mut out = Metrics::new();
    if spec.record_isolation {
        out.push(("isolated_fraction", isolated_fraction(&net)));
    }
    let max_rounds = spec.budget.resolve(cell.n);
    let record = run_flooding(
        &mut net,
        FloodingSource::NextToJoin,
        &FloodingConfig::with_max_rounds(max_rounds),
        1,
    );
    flooding_metrics(&record, max_rounds, &mut out);
    if let AnyNet::Raes(model) = &net {
        raes_metrics(model, &mut out);
        if byz_spec(cell) {
            honest_flooding_metrics(&record, max_rounds, &mut out);
            byz_raes_metrics(model, &mut out);
        }
    }
    let series = series.then(|| flooding_series(&record, byz_spec(cell)));
    (out, series)
}

fn parallel_flooding_cell(
    cell: &CellSpec,
    seed: u64,
    spec: FloodingSpec,
    threads: usize,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let mut out = Metrics::new();
    if spec.record_isolation {
        out.push(("isolated_fraction", isolated_fraction(&net)));
    }
    let max_rounds = spec.budget.resolve(cell.n);
    let mut process = FloodingProcess::start(&mut net, FloodingSource::NextToJoin, threads);
    let record = process.run(&mut net, &FloodingConfig::with_max_rounds(max_rounds));
    flooding_metrics(&record, max_rounds, &mut out);
    // Which part of the alive population the broadcast missed, split by
    // degree class. The process revalidated its informed set after the last
    // round's churn, so it marks exactly the informed alive cells.
    let graph = net.graph();
    let mut uninformed = 0usize;
    let mut uninformed_isolated = 0usize;
    let mut uninformed_low_degree = 0usize;
    let mut uninformed_honest = 0usize;
    for &idx in graph.member_indices() {
        if process.is_informed(idx) {
            continue;
        }
        uninformed += 1;
        // An untagged graph reads tag 0 everywhere, so on honest runs this
        // counter mirrors `uninformed` (it is only reported for Byzantine
        // cells).
        if graph.tag_at(idx) == 0 {
            uninformed_honest += 1;
        }
        let links = graph
            .incident_link_count_at(idx)
            .expect("member cells are occupied");
        if links == 0 {
            uninformed_isolated += 1;
        }
        if links < cell.d {
            uninformed_low_degree += 1;
        }
    }
    // The informed count over `graph.len()`: the last round's fraction.
    out.push(("informed_alive_overlap", record.final_fraction()));
    out.push(("uninformed_alive", uninformed as f64));
    let uninformed_base = uninformed.max(1) as f64;
    out.push((
        "uninformed_isolated_fraction",
        uninformed_isolated as f64 / uninformed_base,
    ));
    out.push((
        "uninformed_low_degree_fraction",
        uninformed_low_degree as f64 / uninformed_base,
    ));
    if let AnyNet::Raes(model) = &net {
        raes_metrics(model, &mut out);
        if byz_spec(cell) {
            honest_flooding_metrics(&record, max_rounds, &mut out);
            out.push(("uninformed_honest", uninformed_honest as f64));
            byz_raes_metrics(model, &mut out);
        }
    }
    let series = series.then(|| flooding_series(&record, byz_spec(cell)));
    (out, series)
}

fn partial_flooding_cell(cell: &CellSpec, seed: u64) -> Metrics {
    let (n, d) = (cell.n, cell.d);
    let mut net = build_net(cell, seed);
    net.warm_up();
    let target = theory::partial_flooding_fraction(d, net.has_streaming_churn());
    // O(log n / log d) + O(d) rounds, with a generous constant (Theorems
    // 3.8 / 4.13).
    let budget =
        (6.0 * (n as f64).log2() / (d as f64).log2().max(1.0)).ceil() as u64 + 2 * d as u64 + 10;
    let record = run_flooding(
        &mut net,
        FloodingSource::NextToJoin,
        &FloodingConfig {
            max_rounds: budget,
            target_fraction: None,
            stop_when_complete: true,
        },
        1,
    );
    let coverage = record.final_fraction();
    vec![
        ("target", target),
        ("budget", budget as f64),
        ("coverage", coverage),
        (
            "reached_target",
            f64::from(coverage >= target || record.outcome.is_complete()),
        ),
        (
            "rounds_to_target",
            record
                .rounds_to_fraction(target)
                .map_or(f64::NAN, |r| r as f64),
        ),
    ]
}

fn isolation_cell(cell: &CellSpec, seed: u64) -> Metrics {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let horizon = if net.has_streaming_churn() {
        cell.n as u64
    } else {
        3 * cell.n as u64
    };
    let alive = net.alive_count().max(1);
    let mut tracker = LifetimeIsolation::start(net.graph());
    let isolated_now = tracker.initial_isolated().len();
    observe_rounds(&mut net, horizon, |_, m, _, delta| {
        tracker.apply(m.graph(), delta);
    });
    let lifetime = tracker.finish(net.graph());
    vec![
        ("isolated_fraction", isolated_now as f64 / alive as f64),
        ("lifetime_fraction", lifetime.len() as f64 / alive as f64),
        ("horizon", horizon as f64),
    ]
}

fn expansion_cell(cell: &CellSpec, seed: u64, spec: ExpansionSpec) -> Metrics {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let config = if spec.fast {
        ExpansionConfig::fast()
    } else {
        ExpansionConfig::default()
    };
    let mut rng = seeded_rng(seed ^ 0xABCD);
    let streaming = net.has_streaming_churn();
    if let Some(window) = cell.n.checked_div(spec.initial_window_div) {
        net.advance_time_units(window.max(4) as u64);
    }
    let interval = (cell.n / spec.interval_div.max(1)).max(8) as u64;
    let mut worst_full = f64::INFINITY;
    let mut worst_large = f64::INFINITY;
    let mut large_min_size = 0usize;
    for sample in 0..spec.samples.max(1) {
        if sample > 0 {
            net.advance_time_units(interval);
        }
        let snapshot = Snapshot::of(net.graph());
        let time = net.time();
        if spec.large_sets {
            let bounds = SizeRange::LargeSets.bounds_for(snapshot.len(), cell.d, streaming);
            large_min_size = bounds.0;
            if let Some(value) =
                measure_expansion_on(&snapshot, bounds, &config, &mut rng, time).value()
            {
                worst_large = worst_large.min(value);
            }
        }
        let bounds = SizeRange::Full.bounds_for(snapshot.len(), cell.d, streaming);
        if let Some(value) =
            measure_expansion_on(&snapshot, bounds, &config, &mut rng, time).value()
        {
            worst_full = worst_full.min(value);
        }
    }
    let mut out = Metrics::new();
    if spec.large_sets {
        out.push((
            "large_set_expansion",
            if worst_large.is_finite() {
                worst_large
            } else {
                f64::NAN
            },
        ));
        out.push(("large_min_size", large_min_size as f64));
    }
    out.push((
        "full_range_expansion",
        if worst_full.is_finite() {
            worst_full
        } else {
            f64::NAN
        },
    ));
    out
}

/// RAES realized-graph tracking. Series columns (one row per observed
/// round): `isolated`, `max_in_degree`, `saturated_fraction`, `alive`.
fn raes_tracking_cell(
    cell: &CellSpec,
    seed: u64,
    samples: u64,
    interval_div: usize,
    preset: GridPreset,
    series: bool,
) -> (Metrics, Option<RoundSeries>) {
    let mut net = build_net(cell, seed);
    net.warm_up();
    let AnyNet::Raes(ref model) = net else {
        unreachable!("validated: RaesTracking runs on RAES nets");
    };
    let cap = model.in_degree_cap();
    let config = match preset {
        GridPreset::Full => ExpansionConfig::default(),
        GridPreset::Smoke => ExpansionConfig::fast(),
    };
    let interval = (cell.n / interval_div.max(1)).max(8) as u64;
    let mut rng = seeded_rng(seed ^ 0x5BAE);
    let mut metrics = LiveMetrics::new(net.graph());
    let mut min_expansion = f64::INFINITY;
    let mut max_in_degree = metrics.max_in_requests();
    let mut saturated_sum = 0.0f64;
    let mut saturated_rounds = 0u64;
    let mut isolated_rounds = 0u64;
    let mut rounds_series = series.then(RoundSeries::new);
    for _ in 0..samples {
        observe_rounds(&mut net, interval, |_, m, _, delta| {
            metrics.apply(m.graph(), delta);
            max_in_degree = max_in_degree.max(metrics.max_in_requests());
            let alive = m.alive_count();
            let saturated = metrics.saturated_count(cap) as f64 / alive.max(1) as f64;
            saturated_sum += saturated;
            saturated_rounds += 1;
            isolated_rounds += u64::from(metrics.isolated_count() > 0);
            if let Some(rounds_series) = rounds_series.as_mut() {
                rounds_series.push_round(&[
                    ("isolated", metrics.isolated_count() as f64),
                    ("max_in_degree", metrics.max_in_requests() as f64),
                    ("saturated_fraction", saturated),
                    ("alive", alive as f64),
                ]);
            }
        });
        let snapshot = Snapshot::of(net.graph());
        let bounds = SizeRange::Full.bounds_for(snapshot.len(), cell.d, net.has_streaming_churn());
        if let Some(value) =
            measure_expansion_on(&snapshot, bounds, &config, &mut rng, net.time()).value()
        {
            min_expansion = min_expansion.min(value);
        }
    }
    let out = vec![
        (
            "min_h_out",
            if min_expansion.is_finite() {
                min_expansion
            } else {
                f64::NAN
            },
        ),
        ("max_in_degree", max_in_degree as f64),
        ("in_degree_cap", cap as f64),
        (
            "mean_saturated_fraction",
            saturated_sum / saturated_rounds.max(1) as f64,
        ),
        ("isolated_rounds", isolated_rounds as f64),
    ];
    (out, rounds_series)
}

fn onion_skin_cell(cell: &CellSpec, seed: u64) -> Metrics {
    let net = build_net(cell, seed);
    let AnyNet::Baseline(mut model) = net else {
        unreachable!("validated: OnionSkin runs on Baseline(Sdg)");
    };
    model.warm_up();
    let streaming = model
        .as_streaming()
        .expect("validated: OnionSkin runs on Baseline(Sdg)");
    let trace = run_onion_skin(streaming);
    // Early growth factors only: the multiplicative regime of Claim 3.10
    // holds while the reached sets are small compared to n; cut at n/4 where
    // saturation dominates, and record at most the first 3 factors.
    let saturation = cell.n / 4;
    let mut growth = OnlineStats::new();
    for (i, w) in trace.phases.windows(2).enumerate() {
        if w[1].old_total > saturation || i >= 3 {
            break;
        }
        if w[0].new_old > 0 {
            growth.push(w[1].new_old as f64 / w[0].new_old as f64);
        }
    }
    vec![
        (
            "early_growth",
            if growth.count() == 0 {
                f64::NAN
            } else {
                growth.mean()
            },
        ),
        ("phases", trace.phase_count() as f64),
        ("reached_fraction", trace.reached() as f64 / cell.n as f64),
    ]
}

fn poisson_demographics_cell(cell: &CellSpec, seed: u64, units: u64) -> Metrics {
    let mut net = build_net(cell, seed);
    net.warm_up();
    // Settle past the warm-up boundary (the paper observes from t = 6n; the
    // model is warm at 3n).
    net.advance_time_units(3 * cell.n as u64);
    let n = cell.n;
    let (lo, hi) = theory::poisson_population_band(n);
    let mut population = OnlineStats::new();
    let mut in_band = 0u64;
    let mut births = 0u64;
    let mut deaths = 0u64;
    let mut max_age: f64 = 0.0;
    for _ in 0..units {
        let summary = net.advance_time_unit();
        births += summary.births.len() as u64;
        deaths += summary.deaths.len() as u64;
        let size = net.alive_count() as f64;
        population.push(size);
        if size >= lo && size <= hi {
            in_band += 1;
        }
        for id in net.alive_ids() {
            max_age = max_age.max(net.age(id).unwrap_or(0.0));
        }
    }
    let death_rate = deaths as f64 / units.max(1) as f64;
    vec![
        ("mean_population", population.mean()),
        ("band_fraction", in_band as f64 / units.max(1) as f64),
        (
            "death_share",
            deaths as f64 / (births + deaths).max(1) as f64,
        ),
        ("max_age_over_n", max_age / n as f64),
        (
            "lifetime_ratio",
            if death_rate > 0.0 {
                population.mean() / death_rate / n as f64
            } else {
                f64::NAN
            },
        ),
    ]
}

fn static_baseline_cell(cell: &CellSpec, seed: u64) -> Metrics {
    let mut rng = seeded_rng(seed);
    let graph = d_out_random_graph(cell.n, cell.d, &mut rng);
    let snapshot = Snapshot::of(&graph);
    let connected = connected_components(&snapshot).is_connected();
    let expansion = churn_graph::expansion::ExpansionEstimator::new(ExpansionConfig::fast())
        .estimate(&snapshot, 1, snapshot.len() / 2, &mut rng);
    vec![
        ("connected", f64::from(connected)),
        ("expansion", expansion.value().unwrap_or(f64::NAN)),
        (
            "flooding_time",
            static_flooding_time(&snapshot, 0).map_or(f64::NAN, |t| t as f64),
        ),
    ]
}

fn p2p_cell(cell: &CellSpec, seed: u64, blocks: usize) -> Metrics {
    let net = build_net(cell, seed);
    let AnyNet::P2p(mut overlay) = net else {
        unreachable!("validated: P2pPropagation runs on P2p nets");
    };
    overlay.warm_up();
    let health = overlay_health(&overlay);
    let mut rng = seeded_rng(seed ^ 0x9B2B);
    let expansion = churn_core::expansion::measure_expansion(
        &*overlay,
        SizeRange::Full,
        &ExpansionConfig::fast(),
        &mut rng,
    );
    let reports = propagate_block_series(&mut overlay, blocks, 20, 200);
    let mut to_half = OnlineStats::new();
    let mut to_99 = OnlineStats::new();
    let mut coverage = OnlineStats::new();
    for report in &reports {
        if let Some(r) = report.delays_to_half {
            to_half.push(r as f64);
        }
        if let Some(r) = report.delays_to_99 {
            to_99.push(r as f64);
        }
        coverage.push(report.final_coverage);
    }
    vec![
        ("peers", health.peers as f64),
        ("mean_outbound", health.mean_outbound),
        ("mean_inbound", health.mean_inbound),
        ("max_inbound", health.max_inbound as f64),
        ("isolated_peers", health.isolated_peers as f64),
        ("largest_component", health.largest_component_fraction),
        ("stale_fraction", health.stale_address_fraction),
        ("expansion", expansion.value().unwrap_or(f64::NAN)),
        (
            "delays_to_half",
            if to_half.count() == 0 {
                f64::NAN
            } else {
                to_half.mean()
            },
        ),
        (
            "delays_to_99",
            if to_99.count() == 0 {
                f64::NAN
            } else {
                to_99.mean()
            },
        ),
        ("propagation_coverage", coverage.mean()),
    ]
}

#[cfg(test)]
mod tests {
    use churn_event::{FaultPlan, TraceEvent};

    use super::*;

    /// The post-hoc reference binner the series pipeline used before the
    /// streaming [`churn_event::TraceBins`] replaced it: fold a fully
    /// buffered trace into unit-time buckets after the run. Kept here to
    /// pin the streaming binner's bucket-for-bucket equivalence.
    fn bin_trace(
        trace: &[TraceEvent],
        alive_kind: u16,
        initial_alive: f64,
        kinds: &[u16],
    ) -> (Vec<f64>, Vec<Vec<u64>>) {
        let buckets = trace
            .iter()
            .map(|ev| f64::from_bits(ev.time_bits).max(0.0).floor() as usize)
            .max()
            .map_or(0, |last| last + 1);
        let mut alive_row = vec![0.0; buckets];
        let mut counts = vec![vec![0u64; buckets]; kinds.len()];
        let mut alive = initial_alive;
        let mut filled = 0usize;
        for ev in trace {
            let bucket = f64::from_bits(ev.time_bits).max(0.0).floor() as usize;
            while filled < bucket {
                alive_row[filled] = alive;
                filled += 1;
            }
            if ev.kind == alive_kind {
                alive = ev.subject as f64;
            }
            if let Some(slot) = kinds.iter().position(|&kind| kind == ev.kind) {
                counts[slot][bucket] += 1;
            }
        }
        while filled < buckets {
            alive_row[filled] = alive;
            filled += 1;
        }
        (alive_row, counts)
    }

    #[test]
    fn streaming_flooding_bins_match_the_reference_binner() {
        let kinds = [
            event_flooding::TRACE_INFORMED,
            event_flooding::TRACE_DUPLICATE,
            event_flooding::TRACE_LOST,
            event_flooding::TRACE_BLOCKED,
            event_flooding::TRACE_CRASH,
            event_flooding::TRACE_RESTART,
            event_flooding::TRACE_PULL,
        ];
        let run = |trace: TraceMode| {
            let mut model = RaesModel::new(churn_protocol::RaesConfig::new(64, 3).seed(99))
                .expect("valid RAES config");
            model.warm_up();
            let initial_alive = model.alive_count() as f64;
            let cfg = AsyncFloodingConfig {
                latency: churn_event::LatencyModel::Exponential { mean: 0.5 },
                bandwidth: churn_event::BandwidthModel::delaying(4.0),
                horizon: 48.0,
                churn: true,
                trace,
            };
            (
                run_async_flooding_faulty(
                    &mut model,
                    AsyncSource::Newest,
                    &cfg,
                    &FaultPlan::none(),
                    7,
                ),
                initial_alive,
            )
        };
        let (full, initial_alive) = run(TraceMode::Full);
        let (binned, _) = run(TraceMode::Bins);
        assert!(!full.trace.is_empty(), "full mode buffered the trace");
        assert!(binned.trace.is_empty(), "bins mode buffers nothing");
        let bins = binned.bins.expect("bins mode records bins");
        let (ref_alive, ref_counts) = bin_trace(
            &full.trace,
            event_flooding::TRACE_CHURN,
            initial_alive,
            &kinds,
        );
        assert_eq!(bins.len(), ref_alive.len());
        for bucket in 0..bins.len() {
            assert_eq!(
                bins.alive(bucket).to_bits(),
                ref_alive[bucket].to_bits(),
                "alive diverged at bucket {bucket}"
            );
            for (slot, &kind) in kinds.iter().enumerate() {
                assert_eq!(
                    bins.count(kind, bucket),
                    ref_counts[slot][bucket],
                    "kind {kind} diverged at bucket {bucket}"
                );
            }
        }
    }

    #[test]
    fn streaming_raes_bins_match_the_reference_binner() {
        let kinds = [
            event_raes::TRACE_REQUEST,
            event_raes::TRACE_REPLY,
            event_raes::TRACE_REPAIRED,
            event_raes::TRACE_SHED,
            event_raes::TRACE_CRASH,
            event_raes::TRACE_RESTART,
        ];
        let run = |trace: TraceMode| {
            let cfg = AsyncRaesConfig {
                horizon: 40.0,
                flood_at: Some(6.0),
                trace,
                ..AsyncRaesConfig::new(
                    48,
                    3,
                    churn_event::LatencyModel::Uniform {
                        low: 0.1,
                        high: 1.5,
                    },
                    churn_event::BandwidthModel::delaying(8.0),
                )
            };
            run_async_raes_faulty(&cfg, &FaultPlan::none(), 13)
        };
        let full = run(TraceMode::Full);
        let binned = run(TraceMode::Bins);
        assert!(!full.trace.is_empty(), "full mode buffered the trace");
        let bins = binned.bins.expect("bins mode records bins");
        let (ref_alive, ref_counts) = bin_trace(&full.trace, event_raes::TRACE_CHURN, 48.0, &kinds);
        assert_eq!(bins.len(), ref_alive.len());
        for bucket in 0..bins.len() {
            assert_eq!(bins.alive(bucket).to_bits(), ref_alive[bucket].to_bits());
            for (slot, &kind) in kinds.iter().enumerate() {
                assert_eq!(bins.count(kind, bucket), ref_counts[slot][bucket]);
            }
        }
    }
}
