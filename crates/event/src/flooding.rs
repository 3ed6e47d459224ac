//! Asynchronous flooding: forward on message *arrival*, not on a round tick.
//!
//! A node that receives the rumor for the first time immediately forwards it
//! along every incident link; each copy pays the sender's egress queue
//! ([`crate::bandwidth`]) plus an independent latency draw
//! ([`crate::latency`]). Rounds are not imposed — the hop depth at which
//! deliveries happen *emerges* from the timing, and with nonzero latency the
//! completion time in simulated units generally exceeds the synchronous
//! round count (senders queue, stragglers arrive late).
//!
//! One event loop, [`run_async_flooding_faulty`], serves every network. It
//! runs over a [`FloodHost`]: the topology, the newest node and a one-unit
//! churn step. Every [`DynamicNetwork`] is a host. [`StaticGraph`] wraps a
//! bare [`DynamicGraph`] whose churn step does nothing — the harness of the
//! sync-equivalence contract: in the zero-latency / infinite-bandwidth limit
//! the process collapses to breadth-first search and informs exactly the set
//! the synchronous engine informs, which the test suite pins.
//!
//! Churn plugs in as just another event stream: with
//! [`AsyncFloodingConfig::churn`] enabled, a churn tick fires each unit of
//! simulated time at `k + 0.5` and calls [`FloodHost::churn_tick`] — for a
//! model, its own [`DynamicNetwork::advance_time_unit`], which routes through
//! the existing `churn_core::driver` hooks (streaming rounds or the Poisson
//! jump chain). The half-unit offset keeps the synchronous convention that a
//! round's deliveries land before the round's churn.

use churn_core::flooding::TAG_NO_FORWARD;
use churn_core::DynamicNetwork;
use churn_graph::hashing::IdHashSet;
use churn_graph::{DenseHandle, DynamicGraph, NodeId};
use churn_stochastic::rng::{substream_rng, SimRng};

use crate::bandwidth::{BandwidthModel, EgressQueues, Enqueue};
use crate::faults::{FaultPlan, FaultState};
use crate::latency::LatencyModel;
use crate::sched::{Scheduler, TraceEvent};
use crate::stats::EventStats;
use crate::trace::{TraceBins, TraceMode};

/// Substream tag of the latency-sampling RNG (independent of every model
/// substream, so attaching the event layer never perturbs the churn
/// trajectory).
const LATENCY_STREAM: u64 = 0x0A51_C0DE;

/// Trace kind: a node became informed (`subject` = node id).
pub const TRACE_INFORMED: u16 = 1;
/// Trace kind: a delivery reached an already-informed node.
pub const TRACE_DUPLICATE: u16 = 2;
/// Trace kind: a message was lost in flight.
pub const TRACE_LOST: u16 = 3;
/// Trace kind: a churn tick completed (`subject` = alive count after it).
pub const TRACE_CHURN: u16 = 4;
/// Trace kind: a send was dropped at a saturated bandwidth queue.
pub const TRACE_BLOCKED: u16 = 5;
/// Trace kind: a delivery reached a departed node.
pub const TRACE_DOWN: u16 = 6;
/// Trace kind: a node crashed (`subject` = node id).
pub const TRACE_CRASH: u16 = 7;
/// Trace kind: a crashed node restarted (`subject` = node id).
pub const TRACE_RESTART: u16 = 8;
/// Trace kind: an anti-entropy pull informed a node.
pub const TRACE_PULL: u16 = 9;
/// Trace kind: a delivery arrived for a recycled/void slot.
pub const TRACE_VOID: u16 = 10;

/// Where the rumor starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsyncSource {
    /// A specific alive node.
    Node(NodeId),
    /// The most recently born alive node. If it has already died, the host
    /// churns one unit at a time until a newborn survives (only hosts that
    /// churn have one).
    Newest,
}

/// The network a flood runs over: its topology, its newest node and a
/// one-unit churn step.
///
/// Every [`DynamicNetwork`] is a host; [`StaticGraph`] is the host without
/// churn.
pub trait FloodHost {
    /// The topology at the current instant.
    fn graph(&self) -> &DynamicGraph;

    /// The most recently born alive node. When it has died, the host
    /// advances one churn unit at a time until the newest node is alive —
    /// the way the synchronous engine resolves its `Newest` source.
    ///
    /// # Panics
    ///
    /// Panics on a host without churn, which has no newest node.
    fn newest_node(&mut self) -> NodeId;

    /// Advances the host one churn unit.
    fn churn_tick(&mut self);
}

impl<N: DynamicNetwork> FloodHost for N {
    fn graph(&self) -> &DynamicGraph {
        DynamicNetwork::graph(self)
    }

    fn newest_node(&mut self) -> NodeId {
        loop {
            if let Some(id) = DynamicNetwork::newest_node(self) {
                return id;
            }
            self.advance_time_unit();
        }
    }

    fn churn_tick(&mut self) {
        self.advance_time_unit();
    }
}

/// A graph that never churns: its churn tick leaves the topology alone.
///
/// Ticks still fire when [`AsyncFloodingConfig::churn`] is set, so crash
/// injection and the partition heal census run as on a model; with `churn`
/// off the run is the sync-equivalence harness.
#[derive(Debug, Clone, Copy)]
pub struct StaticGraph<'g>(pub &'g DynamicGraph);

impl FloodHost for StaticGraph<'_> {
    fn graph(&self) -> &DynamicGraph {
        self.0
    }

    fn newest_node(&mut self) -> NodeId {
        panic!("a static graph has no newest node: start the flood at AsyncSource::Node")
    }

    fn churn_tick(&mut self) {}
}

/// Configuration of one asynchronous flooding run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncFloodingConfig {
    /// Per-message latency model.
    pub latency: LatencyModel,
    /// Per-node bandwidth model.
    pub bandwidth: BandwidthModel,
    /// Simulated-time horizon: events after this instant are not processed.
    pub horizon: f64,
    /// Schedule a churn tick per unit of simulated time (at `k + 0.5`); each
    /// tick calls [`FloodHost::churn_tick`] and injects the plan's crashes.
    /// Requires a finite horizon.
    pub churn: bool,
    /// Trace capture mode: off in production runs, [`TraceMode::Full`] for
    /// the determinism suite, [`TraceMode::Bins`] for the streaming series
    /// pipeline.
    pub trace: TraceMode,
}

impl AsyncFloodingConfig {
    /// A config with the given latency and bandwidth, a horizon of 4096
    /// time units, churn on and tracing off.
    #[must_use]
    pub fn new(latency: LatencyModel, bandwidth: BandwidthModel) -> Self {
        AsyncFloodingConfig {
            latency,
            bandwidth,
            horizon: 4096.0,
            churn: true,
            trace: TraceMode::Off,
        }
    }

    /// Checks the latency/bandwidth parameters and the horizon.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        self.latency.validate()?;
        self.bandwidth.validate()?;
        if !self.horizon.is_finite() || self.horizon < 0.0 {
            return Err(format!("invalid horizon {}", self.horizon));
        }
        Ok(())
    }
}

/// Result of one asynchronous flooding run.
#[derive(Debug, Clone)]
pub struct AsyncFloodingRecord {
    /// Alive informed nodes at the end of the run.
    pub informed: usize,
    /// Alive nodes at the end of the run.
    pub alive: usize,
    /// Whether every alive node was informed at the end.
    pub complete: bool,
    /// First simulated instant at which every alive node was informed.
    pub completion_time: Option<f64>,
    /// Deepest hop count at which a delivery informed a new node — the
    /// emergent round structure.
    pub emergent_rounds: u32,
    /// Deterministic load counters.
    pub stats: EventStats,
    /// Recorded event trace (empty unless [`TraceMode::Full`]).
    pub trace: Vec<TraceEvent>,
    /// Streaming per-time-unit bins (`None` unless [`TraceMode::Bins`]).
    pub bins: Option<TraceBins>,
    informed_ids: Vec<NodeId>,
}

impl AsyncFloodingRecord {
    /// Fraction of alive nodes informed at the end.
    #[must_use]
    pub fn final_fraction(&self) -> f64 {
        self.informed as f64 / self.alive.max(1) as f64
    }

    /// The informed alive nodes, sorted by identifier.
    #[must_use]
    pub fn informed_ids(&self) -> &[NodeId] {
        &self.informed_ids
    }
}

/// One scheduled event of the flooding process.
enum Ev {
    /// A rumor copy arrives at `target` (revalidated at delivery). `from`
    /// and `departs` carry the sender identity and departure instant for
    /// the fault layer's partition and crashed-sender checks.
    Deliver {
        target: DenseHandle,
        id: NodeId,
        from: u64,
        departs: f64,
        hop: u32,
    },
    /// Advance the network one churn unit.
    ChurnTick,
    /// A crashed node comes back up (identity kept, rumor state lost).
    Restart { target: DenseHandle, id: NodeId },
    /// Periodic pull round: uninformed nodes ask a random peer for the
    /// rumor — how floods survive a healed partition.
    AntiEntropy,
}

/// The flooding state of one run.
struct Engine<'p> {
    latency: LatencyModel,
    sched: Scheduler<Ev>,
    egress: EgressQueues,
    stats: EventStats,
    rng: SimRng,
    faults: FaultState<'p>,
    informed: IdHashSet<u64>,
    entries: Vec<(DenseHandle, NodeId)>,
    emergent_rounds: u32,
    completion_time: Option<f64>,
    /// Time of the previous churn tick — the heal census fires on the
    /// first tick at or past each partition's heal instant.
    last_tick: f64,
}

impl<'p> Engine<'p> {
    /// Builds the engine; `initial_alive` seeds the streaming binner's
    /// alive series (the population before the first churn event).
    fn new(cfg: &AsyncFloodingConfig, plan: &'p FaultPlan, seed: u64, initial_alive: f64) -> Self {
        let mut sched = Scheduler::new();
        match cfg.trace {
            TraceMode::Off => {}
            TraceMode::Full => sched.enable_trace(),
            TraceMode::Bins => sched.enable_bins(TRACE_CHURN, initial_alive),
        }
        Engine {
            latency: cfg.latency,
            sched,
            egress: EgressQueues::new(cfg.bandwidth),
            stats: EventStats::new(),
            rng: substream_rng(seed, LATENCY_STREAM),
            faults: FaultState::new(plan, seed),
            informed: IdHashSet::default(),
            entries: Vec::new(),
            emergent_rounds: 0,
            completion_time: None,
            last_tick: 0.0,
        }
    }

    /// Marks `idx` informed and forwards along its current incident links.
    fn inform(&mut self, graph: &DynamicGraph, idx: u32, hop: u32, now: f64) {
        let id = graph.id_at(idx).expect("informed nodes are alive");
        let handle = graph.handle_at(idx).expect("informed nodes are alive");
        self.informed.insert(id.raw());
        self.entries.push((handle, id));
        self.emergent_rounds = self.emergent_rounds.max(hop);
        if graph.tags_enabled() && graph.tag_at(idx) & TAG_NO_FORWARD != 0 {
            return; // informed, but does not forward (Byzantine behavior)
        }
        for target_idx in graph.neighbor_indices_at(idx) {
            match self.egress.enqueue(id.raw(), now) {
                Enqueue::Dropped => self.stats.messages_dropped += 1,
                Enqueue::Sent {
                    departs,
                    queue_delay,
                } => {
                    self.stats.messages_sent += 1;
                    self.stats.record_queue_delay(queue_delay);
                    let target = graph
                        .handle_at(target_idx)
                        .expect("neighbors of an alive node are alive");
                    let target_id = graph
                        .id_at(target_idx)
                        .expect("neighbors of an alive node are alive");
                    // Link fate first: a wire-lost message draws no latency,
                    // so an empty plan leaves the latency stream untouched.
                    let copies = self.faults.copies(id.raw(), target_id.raw());
                    if copies == 0 {
                        self.stats.messages_fault_lost += 1;
                        continue;
                    }
                    if copies == 2 {
                        self.stats.messages_duplicated += 1;
                    }
                    for _ in 0..copies {
                        let held = self.faults.reorder_delay();
                        if held > 0.0 {
                            self.stats.messages_reordered += 1;
                        }
                        let arrival = departs + self.latency.sample(&mut self.rng) + held;
                        self.sched.schedule_at(
                            arrival,
                            Ev::Deliver {
                                target,
                                id: target_id,
                                from: id.raw(),
                                departs,
                                hop: hop + 1,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Processes one delivery; returns `true` when a new node was informed.
    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &mut self,
        graph: &DynamicGraph,
        target: DenseHandle,
        id: NodeId,
        from: u64,
        departs: f64,
        hop: u32,
        now: f64,
    ) -> bool {
        if !graph.is_current(target) {
            self.stats.messages_lost += 1;
            self.sched.record(TRACE_LOST, id.raw());
            return false;
        }
        // Fault-layer gates, all no-ops under an empty plan: a departure
        // inside the sender's down window was still queued at the crash and
        // never reached the wire; an active partition cuts the link; a
        // crashed target holds no protocol state to receive into.
        if self.faults.was_down_at(from, departs) {
            self.stats.messages_crash_voided += 1;
            self.sched.record(TRACE_VOID, id.raw());
            return false;
        }
        if self.faults.blocked(now, from, id.raw()) {
            self.stats.messages_blocked += 1;
            self.sched.record(TRACE_BLOCKED, id.raw());
            return false;
        }
        if self.faults.is_down(id.raw()) {
            self.stats.messages_to_down += 1;
            self.sched.record(TRACE_DOWN, id.raw());
            return false;
        }
        self.stats.messages_delivered += 1;
        if self.informed.contains(&id.raw()) {
            self.sched.record(TRACE_DUPLICATE, id.raw());
            return false;
        }
        self.sched.record(TRACE_INFORMED, id.raw());
        self.inform(graph, target.index, hop, now);
        true
    }

    /// Drops informed entries that died in a churn window.
    fn revalidate(&mut self, graph: &DynamicGraph) {
        self.entries.retain(|&(handle, id)| {
            let alive = graph.is_current(handle);
            if !alive {
                self.informed.remove(&id.raw());
            }
            alive
        });
    }

    fn note_completion(&mut self, alive: usize, now: f64) {
        if self.completion_time.is_none() && self.entries.len() == alive {
            self.completion_time = Some(now);
        }
    }

    /// Injects this tick's crashes: each victim loses its queued egress and
    /// its rumor state but keeps its identity, and a restart is scheduled
    /// after a drawn downtime.
    fn crash_sweep(&mut self, graph: &DynamicGraph, now: f64) {
        let crashes = self.faults.crash_count(graph.len());
        for _ in 0..crashes {
            let Some(idx) = graph.sample_member(self.faults.rng()) else {
                break;
            };
            let id = graph.id_at(idx).expect("sampled members are alive");
            if self.faults.is_down(id.raw()) {
                continue; // already down — the crash lands on a dead machine
            }
            let downtime = self.faults.downtime();
            self.faults.mark_down(id.raw(), now);
            self.sched.record(TRACE_CRASH, id.raw());
            self.egress.forget(id.raw());
            if self.informed.remove(&id.raw()) {
                self.entries.retain(|&(_, entry_id)| entry_id != id);
            }
            let target = graph.handle_at(idx).expect("sampled members are alive");
            self.sched
                .schedule_at(now + downtime, Ev::Restart { target, id });
        }
    }

    /// Brings a crashed node back up — unless churn killed it first, in
    /// which case the restart is void and the node is forgotten.
    fn restart(&mut self, graph: &DynamicGraph, target: DenseHandle, id: NodeId, now: f64) {
        if !graph.is_current(target) {
            self.faults.forget(id.raw());
            return;
        }
        if self.faults.mark_up(id.raw(), now) {
            self.sched.record(TRACE_RESTART, id.raw());
        }
    }

    /// One pull round: every uninformed alive node asks one uniformly
    /// random peer for the rumor. A pull succeeds when the partner is
    /// informed, up, and on the same side of every active partition; the
    /// response pays the link faults and a latency draw like any message.
    fn anti_entropy(&mut self, graph: &DynamicGraph, now: f64) {
        for &idx in graph.member_indices() {
            let id = graph.id_at(idx).expect("members are alive");
            if self.informed.contains(&id.raw()) || self.faults.is_down(id.raw()) {
                continue;
            }
            let Some(partner_idx) = graph.sample_member(self.faults.rng()) else {
                continue;
            };
            if partner_idx == idx {
                continue; // self-pull finds nothing new
            }
            let partner = graph.id_at(partner_idx).expect("members are alive");
            if !self.informed.contains(&partner.raw())
                || self.faults.is_down(partner.raw())
                || self.faults.blocked(now, partner.raw(), id.raw())
            {
                continue;
            }
            let copies = self.faults.copies(partner.raw(), id.raw());
            if copies == 0 {
                self.stats.messages_fault_lost += 1;
                continue;
            }
            self.stats.anti_entropy_pulls += 1;
            self.sched.record(TRACE_PULL, id.raw());
            if copies == 2 {
                self.stats.messages_duplicated += 1;
            }
            let target = graph.handle_at(idx).expect("members are alive");
            for _ in 0..copies {
                let held = self.faults.reorder_delay();
                if held > 0.0 {
                    self.stats.messages_reordered += 1;
                }
                let arrival = now + self.latency.sample(&mut self.rng) + held;
                self.sched.schedule_at(
                    arrival,
                    Ev::Deliver {
                        target,
                        id,
                        from: partner.raw(),
                        departs: now,
                        hop: self.emergent_rounds + 1,
                    },
                );
            }
        }
    }

    /// Records the per-block informed fractions at the first churn tick at
    /// or past each partition's heal instant — the state anti-entropy has
    /// to recover from.
    fn heal_census(&mut self, graph: &DynamicGraph, now: f64) {
        if self.faults.plan().partitions.is_empty() {
            return;
        }
        let windows = &self.faults.plan().partitions;
        for (w_idx, window) in windows.iter().enumerate() {
            if window.heal <= self.last_tick || window.heal > now {
                continue;
            }
            let blocks = window.blocks as usize;
            let mut informed = vec![0usize; blocks];
            let mut alive = vec![0usize; blocks];
            for &idx in graph.member_indices() {
                let id = graph.id_at(idx).expect("members are alive");
                let block = self.faults.plan().block_of(w_idx, id.raw()) as usize;
                alive[block] += 1;
                if self.informed.contains(&id.raw()) {
                    informed[block] += 1;
                }
            }
            self.stats.heal_block_informed = informed
                .iter()
                .zip(&alive)
                .map(|(&inf, &pop)| inf as f64 / pop.max(1) as f64)
                .collect();
            self.stats.heal_time = Some(window.heal);
        }
    }

    fn into_record(mut self, alive: usize) -> AsyncFloodingRecord {
        self.stats.events_processed = self.sched.processed();
        self.stats.peak_backlog = self.egress.peak_backlog() as u64;
        self.stats.sim_time = self.sched.now();
        self.stats.crashes = self.faults.crashes();
        self.stats.restarts = self.faults.restarts();
        if let (Some(done), Some(heal)) = (self.completion_time, self.stats.heal_time) {
            if done >= heal {
                self.stats.time_to_reheal = Some(done - heal);
            }
        }
        let mut informed_ids: Vec<NodeId> = self.entries.iter().map(|&(_, id)| id).collect();
        informed_ids.sort_unstable();
        AsyncFloodingRecord {
            informed: self.entries.len(),
            alive,
            complete: !self.entries.is_empty() && self.entries.len() == alive,
            completion_time: self.completion_time,
            emergent_rounds: self.emergent_rounds,
            trace: self.sched.take_trace(),
            bins: self.sched.take_bins(),
            stats: self.stats,
            informed_ids,
        }
    }
}

/// Runs asynchronous flooding over a host under a fault plan.
///
/// The host should be warm ([`DynamicNetwork::warm_up`]); the rumor starts
/// at `source` at time 0. With [`AsyncFloodingConfig::churn`] the host
/// advances one unit per unit of simulated time. The run ends when the event
/// queue drains or the horizon passes.
///
/// The fault layer rides on the same loop: link faults and partitions gate
/// each delivery, crashes are injected at churn ticks (a crashed node loses
/// queued egress and rumor state, keeps its identity, and restarts after a
/// drawn downtime), and — when the plan enables it — periodic anti-entropy
/// pull rounds let the flood complete after a partition heals. Pass
/// [`FaultPlan::none`] for a fault-free run: all fault randomness lives on a
/// dedicated substream of `seed`, so an empty plan leaves the latency stream
/// untouched.
///
/// Deterministic given `(host state, cfg, plan, seed)`: the latency RNG is an
/// independent substream of `seed`, and the event order is total.
///
/// # Panics
///
/// Panics if the config or the plan is invalid, if the source is not alive,
/// or if `source` is [`AsyncSource::Newest`] on a [`StaticGraph`].
pub fn run_async_flooding_faulty<H: FloodHost>(
    host: &mut H,
    source: AsyncSource,
    cfg: &AsyncFloodingConfig,
    plan: &FaultPlan,
    seed: u64,
) -> AsyncFloodingRecord {
    cfg.validate().expect("invalid async flooding config");
    plan.validate().expect("invalid fault plan");
    let source_id = match source {
        AsyncSource::Node(id) => id,
        AsyncSource::Newest => host.newest_node(),
    };
    let mut engine = Engine::new(cfg, plan, seed, host.graph().len() as f64);
    let source_idx = host
        .graph()
        .dense_index_of(source_id)
        .expect("flooding source is alive");
    engine.sched.record(TRACE_INFORMED, source_id.raw());
    engine.inform(host.graph(), source_idx, 0, 0.0);
    engine.note_completion(host.graph().len(), 0.0);
    if cfg.churn && cfg.horizon >= 0.5 {
        engine.sched.schedule_at(0.5, Ev::ChurnTick);
    }
    if let Some(interval) = plan.anti_entropy {
        if interval <= cfg.horizon {
            engine.sched.schedule_at(interval, Ev::AntiEntropy);
        }
    }
    let event_loop = tracing::span("event-loop");
    while let Some(time) = engine.sched.peek_time() {
        if time > cfg.horizon {
            break;
        }
        let (now, event) = engine.sched.pop().expect("peeked event exists");
        match event {
            Ev::Deliver {
                target,
                id,
                from,
                departs,
                hop,
            } => {
                if engine.deliver(host.graph(), target, id, from, departs, hop, now) {
                    engine.note_completion(host.graph().len(), now);
                }
            }
            Ev::ChurnTick => {
                host.churn_tick();
                let graph = host.graph();
                engine.revalidate(graph);
                engine.sched.record(TRACE_CHURN, graph.len() as u64);
                engine.heal_census(graph, now);
                engine.crash_sweep(graph, now);
                engine.note_completion(graph.len(), now);
                engine.last_tick = now;
                if now + 1.0 <= cfg.horizon {
                    engine.sched.schedule_at(now + 1.0, Ev::ChurnTick);
                }
            }
            Ev::Restart { target, id } => {
                engine.restart(host.graph(), target, id, now);
            }
            Ev::AntiEntropy => {
                if engine.completion_time.is_none() {
                    engine.anti_entropy(host.graph(), now);
                    let interval = plan
                        .anti_entropy
                        .expect("anti-entropy event implies interval");
                    if now + interval <= cfg.horizon {
                        engine.sched.schedule_at(now + interval, Ev::AntiEntropy);
                    }
                }
            }
        }
    }
    drop(event_loop);
    engine.into_record(host.graph().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_graph::generators::d_out_random_graph;
    use churn_stochastic::rng::seeded_rng;

    /// Floods a static graph from node 0.
    fn flood_static(
        graph: &DynamicGraph,
        cfg: &AsyncFloodingConfig,
        plan: &FaultPlan,
        seed: u64,
    ) -> AsyncFloodingRecord {
        let source = AsyncSource::Node(NodeId::new(0));
        run_async_flooding_faulty(&mut StaticGraph(graph), source, cfg, plan, seed)
    }

    #[test]
    fn zero_latency_static_run_informs_the_whole_graph_at_time_zero() {
        let mut rng = seeded_rng(3);
        let graph = d_out_random_graph(64, 3, &mut rng);
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(0.0),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 16.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let record = flood_static(&graph, &cfg, &FaultPlan::none(), 7);
        assert_eq!(record.stats.sim_time, 0.0);
        assert!(record.informed >= 1);
        assert_eq!(record.completion_time.is_some(), record.complete);
        assert_eq!(
            record.stats.messages_delivered + record.stats.messages_lost,
            record.stats.messages_sent
        );
        assert_eq!(record.stats.messages_lost, 0);
    }

    #[test]
    fn unit_latency_emergent_rounds_match_hop_depth() {
        // A directed path 0 → 1 → 2 → 3 (1-out graph built by hand).
        let mut graph = DynamicGraph::with_capacity(4);
        for i in 0..4u64 {
            graph.add_node(NodeId::new(i), 1).unwrap();
        }
        for i in 0..3u64 {
            graph
                .set_out_slot(NodeId::new(i), 0, NodeId::new(i + 1))
                .unwrap();
        }
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(1.0),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 64.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let record = flood_static(&graph, &cfg, &FaultPlan::none(), 1);
        assert!(record.complete);
        assert_eq!(record.emergent_rounds, 3);
        assert_eq!(record.completion_time, Some(3.0));
    }

    #[test]
    fn full_loss_informs_only_the_source() {
        let mut rng = seeded_rng(5);
        let graph = d_out_random_graph(64, 3, &mut rng);
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(0.5),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 32.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let mut plan = FaultPlan::none();
        plan.loss = crate::faults::LossModel::Iid { p: 1.0 };
        let record = flood_static(&graph, &cfg, &plan, 7);
        assert_eq!(record.informed, 1, "every copy dies on the wire");
        assert_eq!(record.stats.messages_fault_lost, record.stats.messages_sent);
        assert_eq!(record.stats.messages_delivered, 0);
        // The 100%-loss regime is exactly the empty-sample percentile case.
        assert!(record.stats.p99_queue_delay().is_finite());
    }

    #[test]
    fn duplication_doubles_copies_but_informs_the_same_set() {
        let mut rng = seeded_rng(6);
        let graph = d_out_random_graph(64, 3, &mut rng);
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(0.5),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 64.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let baseline = flood_static(&graph, &cfg, &FaultPlan::none(), 7);
        let mut plan = FaultPlan::none();
        plan.duplicate_p = 1.0;
        let doubled = flood_static(&graph, &cfg, &plan, 7);
        assert_eq!(
            doubled.stats.messages_duplicated,
            doubled.stats.messages_sent
        );
        assert_eq!(
            doubled.informed_ids(),
            baseline.informed_ids(),
            "delivery is idempotent: duplicates change load, not coverage"
        );
    }

    #[test]
    fn partition_stalls_flood_until_anti_entropy_after_heal() {
        let mut rng = seeded_rng(9);
        let graph = d_out_random_graph(64, 4, &mut rng);
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(0.25),
            bandwidth: BandwidthModel::unlimited(),
            horizon: 128.0,
            churn: false,
            trace: TraceMode::Off,
        };
        // Partition from the start; heal at t = 8; pull every unit.
        let mut plan = FaultPlan::none();
        plan.partitions.push(crate::faults::PartitionWindow {
            start: 0.0,
            heal: 8.0,
            blocks: 2,
        });
        plan.anti_entropy = Some(1.0);
        let record = flood_static(&graph, &cfg, &plan, 7);
        assert!(record.complete, "anti-entropy completes the flood");
        let done = record.completion_time.expect("complete run has a time");
        assert!(
            done >= 8.0,
            "the minority block cannot be informed before the heal (done at {done})"
        );
        assert!(record.stats.anti_entropy_pulls > 0);
        assert!(
            record.stats.messages_blocked > 0,
            "the push phase hit the wall"
        );
    }

    #[test]
    fn finite_bandwidth_serializes_a_stars_broadcast() {
        // A 4-leaf star: the hub owns all out-slots, service rate 1 msg/unit.
        let mut graph = DynamicGraph::with_capacity(5);
        graph.add_node(NodeId::new(0), 4).unwrap();
        for i in 1..=4u64 {
            graph.add_node(NodeId::new(i), 0).unwrap();
            graph
                .set_out_slot(NodeId::new(0), (i - 1) as usize, NodeId::new(i))
                .unwrap();
        }
        let cfg = AsyncFloodingConfig {
            latency: LatencyModel::Fixed(0.25),
            bandwidth: BandwidthModel::delaying(1.0),
            horizon: 64.0,
            churn: false,
            trace: TraceMode::Off,
        };
        let record = flood_static(&graph, &cfg, &FaultPlan::none(), 1);
        assert!(record.complete);
        // Four sends at one per unit: departures 1..4, each +0.25 latency.
        assert_eq!(record.completion_time, Some(4.25));
        assert_eq!(record.stats.peak_backlog, 4);
        assert!(record.stats.mean_queue_delay() > 1.0);
        assert_eq!(record.stats.p99_queue_delay(), 4.0);
    }

    #[test]
    fn newest_source_waits_for_a_live_newborn_when_the_newest_node_died() {
        // A warm PDGR model whose newest node died during warm-up.
        let mut model = churn_core::ModelKind::Pdgr
            .build(64, 4, 114)
            .expect("valid model");
        model.warm_up();
        assert_eq!(DynamicNetwork::newest_node(&model), None);
        let before = model.time();
        let cfg = AsyncFloodingConfig::new(LatencyModel::Fixed(0.5), BandwidthModel::unlimited());
        let cfg = AsyncFloodingConfig {
            horizon: 16.0,
            ..cfg
        };
        let record =
            run_async_flooding_faulty(&mut model, AsyncSource::Newest, &cfg, &FaultPlan::none(), 3);
        assert!(model.time() > before + 16.0, "churned before the flood");
        assert!(record.stats.messages_sent > 0, "the newborn forwarded");
    }

    #[test]
    #[should_panic(expected = "a static graph has no newest node")]
    fn newest_source_is_rejected_on_a_static_graph() {
        let graph = d_out_random_graph(8, 2, &mut seeded_rng(1));
        let cfg = AsyncFloodingConfig::new(LatencyModel::Fixed(0.5), BandwidthModel::unlimited());
        run_async_flooding_faulty(
            &mut StaticGraph(&graph),
            AsyncSource::Newest,
            &cfg,
            &FaultPlan::none(),
            1,
        );
    }
}
