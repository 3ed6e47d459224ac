//! Asynchronous RAES repair: requests and accepts are messages.
//!
//! The synchronous RAES protocol (`churn-protocol`) repairs dangling
//! out-slots inside the round that churned them: request, capacity check and
//! accept all happen in one atomic step. Here the same repair loop is pulled
//! apart into *messages* — a dangling slot's owner sends a `Request` to a
//! uniformly sampled target, the target answers with an accept or a reject,
//! and both legs pay the sender's egress queue plus a latency draw. Repair
//! traffic shares the egress queues with flood traffic, so a run directly
//! answers the ROADMAP question "does RAES repair keep up under load?".
//!
//! Protocol details (all deterministic given the seed):
//!
//! * **Churn** is a streaming event stream: one death (oldest node first) and
//!   one birth per unit of simulated time, driven through the shared
//!   [`churn_core::driver::streaming_round`] hook — the same driver the
//!   synchronous models use. A newborn's `d` connect requests are ordinary
//!   repairs.
//! * **Capacity**: a target accepts while `in-degree + in-flight accepts`
//!   stays below `⌊c·d⌋`; in-flight accepts are counted through a
//!   reservation ledger so the cap holds even with accepts on the wire.
//! * **Losses**: a request that reaches a dead target (a *phantom*) is
//!   simply lost; the owner retransmits when [`AsyncRaesConfig::
//!   retry_timeout`] passes without a reply (checked at churn ticks).
//!   Rejects retry immediately with a fresh target.
//! * **Repair time** is measured from the instant a slot dangled (its
//!   owner's churn event) to the accept's arrival — queueing behind flood
//!   traffic shows up here.

use std::collections::VecDeque;
use std::mem;

use churn_core::driver::{streaming_round, ChurnHost};
use churn_core::flooding::TAG_NO_FORWARD;
use churn_core::ChurnSummary;
use churn_graph::hashing::{IdHashMap, IdHashSet};
use churn_graph::{DenseHandle, DynamicGraph, NodeId, RemovedNode};
use churn_stochastic::rng::{seeded_rng, SimRng};

use crate::bandwidth::{BandwidthModel, EgressQueues, Enqueue};
use crate::faults::{FaultPlan, FaultState};
use crate::latency::LatencyModel;
use crate::sched::{Scheduler, TraceEvent};
use crate::stats::{percentile, EventStats};
use crate::trace::{TraceBins, TraceMode};

/// Trace kind: a churn tick completed (`subject` = alive count after it).
pub const TRACE_CHURN: u16 = 10;
/// Trace kind: a connect request was delivered.
pub const TRACE_REQUEST: u16 = 11;
/// Trace kind: a connect reply was delivered (`subject` = 1 accept, 0 reject).
pub const TRACE_REPLY: u16 = 12;
/// Trace kind: a node finished repairing its out-neighbourhood.
pub const TRACE_REPAIRED: u16 = 13;
/// Trace kind: the piggybacked flood started (`subject` = source id).
pub const TRACE_FLOOD: u16 = 14;
/// Trace kind: a node crashed (`subject` = node id).
pub const TRACE_CRASH: u16 = 15;
/// Trace kind: a crashed node restarted (`subject` = node id).
pub const TRACE_RESTART: u16 = 16;
/// Trace kind: a node shed a retry after exhausting its budget.
pub const TRACE_SHED: u16 = 17;

/// Configuration of one asynchronous RAES run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncRaesConfig {
    /// Stationary network size (one death + one birth per unit time).
    pub n: usize,
    /// Out-degree (requests per node).
    pub d: usize,
    /// In-degree cap factor `c` (cap = `⌊c·d⌋`).
    pub capacity_factor: f64,
    /// Per-message latency model.
    pub latency: LatencyModel,
    /// Per-node bandwidth model (shared by repair and flood traffic).
    pub bandwidth: BandwidthModel,
    /// Simulated-time horizon (also the number of churn rounds).
    pub horizon: f64,
    /// Inject a flood from the newest alive node at this instant, creating
    /// the load the repair traffic has to live with.
    pub flood_at: Option<f64>,
    /// Retransmit a repair request when no reply arrived within this time
    /// (checked at churn ticks).
    pub retry_timeout: f64,
    /// Exponential-backoff factor: the `k`-th retransmission waits
    /// `retry_timeout · backoff_factor^k`. The default `1.0` reproduces the
    /// constant-timeout policy bit-exactly.
    pub backoff_factor: f64,
    /// Jitter fraction on each backoff timeout (`0.0` = none, drawn
    /// uniformly in `±jitter·timeout` when positive; a zero jitter draws no
    /// randomness).
    pub backoff_jitter: f64,
    /// Maximum retransmissions per dangling slot before the repair is shed
    /// (graceful degradation — counted in
    /// [`EventStats::retries_exhausted`], never wedging the run). The
    /// default `u32::MAX` never sheds.
    pub retry_budget: u32,
    /// Trace capture mode: off in production runs, [`TraceMode::Full`] for
    /// the determinism suite, [`TraceMode::Bins`] for the streaming series
    /// pipeline.
    pub trace: TraceMode,
}

impl AsyncRaesConfig {
    /// A config with the given grid point and models: cap factor 2, horizon
    /// `4·n` rounds of churn, a flood injected at `n/4`, retry timeout 8
    /// units, tracing off.
    #[must_use]
    pub fn new(n: usize, d: usize, latency: LatencyModel, bandwidth: BandwidthModel) -> Self {
        AsyncRaesConfig {
            n,
            d,
            capacity_factor: 2.0,
            latency,
            bandwidth,
            horizon: (4 * n) as f64,
            flood_at: Some((n / 4) as f64),
            retry_timeout: 8.0,
            backoff_factor: 1.0,
            backoff_jitter: 0.0,
            retry_budget: u32::MAX,
            trace: TraceMode::Off,
        }
    }

    /// The in-degree cap `⌊c·d⌋`.
    #[must_use]
    pub fn in_degree_cap(&self) -> usize {
        (self.capacity_factor * self.d as f64).floor() as usize
    }

    /// Checks all parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.n < 2 || self.d == 0 {
            return Err(format!(
                "need n >= 2 and d >= 1, got n={} d={}",
                self.n, self.d
            ));
        }
        if self.in_degree_cap() < 1 {
            return Err(format!(
                "capacity factor {} gives a zero in-degree cap",
                self.capacity_factor
            ));
        }
        self.latency.validate()?;
        self.bandwidth.validate()?;
        if !self.horizon.is_finite() || self.horizon < 0.0 {
            return Err(format!("invalid horizon {}", self.horizon));
        }
        if !(self.retry_timeout > 0.0 && self.retry_timeout.is_finite()) {
            return Err(format!("invalid retry timeout {}", self.retry_timeout));
        }
        if !(self.backoff_factor >= 1.0 && self.backoff_factor.is_finite()) {
            return Err(format!("invalid backoff factor {}", self.backoff_factor));
        }
        if !((0.0..1.0).contains(&self.backoff_jitter)) {
            return Err(format!("invalid backoff jitter {}", self.backoff_jitter));
        }
        if self.retry_budget == 0 {
            return Err("retry budget must be at least 1".to_string());
        }
        if let Some(at) = self.flood_at {
            if !at.is_finite() || at < 0.0 {
                return Err(format!("invalid flood injection time {at}"));
            }
        }
        Ok(())
    }
}

/// Final state of the piggybacked flood (when one was injected).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodSummary {
    /// Alive informed nodes at the end.
    pub informed: usize,
    /// Whether every alive node was informed at the end.
    pub complete: bool,
    /// First instant every alive node was informed.
    pub completion_time: Option<f64>,
    /// Deepest hop at which a delivery informed a new node.
    pub emergent_rounds: u32,
}

/// Result of one asynchronous RAES run.
#[derive(Debug, Clone)]
pub struct AsyncRaesRecord {
    /// Deterministic load counters (repair and flood traffic combined).
    pub stats: EventStats,
    /// Repairs completed (edges restored, including newborn wiring).
    pub repairs_completed: u64,
    /// Repair request messages sent (including retries).
    pub repair_requests: u64,
    /// Requests refused at a full target.
    pub rejections: u64,
    /// Requests that reached a dead target.
    pub phantoms: u64,
    /// Mean time from slot dangling to edge restored.
    pub mean_repair_time: f64,
    /// 99th-percentile repair time.
    pub p99_repair_time: f64,
    /// Dangling out-slots per alive out-slot at the end.
    pub dangling_fraction: f64,
    /// Largest in-degree observed.
    pub max_in_degree: usize,
    /// The in-degree cap `⌊c·d⌋`.
    pub in_degree_cap: usize,
    /// Alive nodes at the end (always `n` under streaming churn).
    pub alive: usize,
    /// Flood outcome (when a flood was injected).
    pub flood: Option<FloodSummary>,
    /// Recorded event trace (empty unless [`TraceMode::Full`]).
    pub trace: Vec<TraceEvent>,
    /// Streaming per-time-unit bins (`None` unless [`TraceMode::Bins`]).
    pub bins: Option<TraceBins>,
}

/// One scheduled event. `departs` on the message events carries the
/// departure instant for the fault layer's crashed-sender check.
enum Ev {
    /// One streaming churn round (death + birth) plus the retry sweep.
    ChurnTick,
    /// A repair request arrives at `target`.
    Request {
        owner: DenseHandle,
        owner_id: NodeId,
        slot: u32,
        target: DenseHandle,
        target_id: NodeId,
        departs: f64,
    },
    /// The target's answer arrives back at `owner`.
    Reply {
        owner: DenseHandle,
        owner_id: NodeId,
        slot: u32,
        target: DenseHandle,
        target_id: NodeId,
        accept: bool,
        departs: f64,
    },
    /// Inject the flood at the newest alive node.
    FloodStart,
    /// A rumor copy arrives at `target`.
    Flood {
        target: DenseHandle,
        id: NodeId,
        from: u64,
        departs: f64,
        hop: u32,
    },
    /// A crashed node comes back up (identity kept, pending repairs lost
    /// at the crash are rediscovered by rescanning its out-slots).
    Restart { target: DenseHandle, id: NodeId },
}

/// A dangling out-slot awaiting repair.
struct PendingSlot {
    owner: DenseHandle,
    owner_id: NodeId,
    slot: u32,
    /// Instant the slot dangled (repair time runs from here).
    since: f64,
    /// Whether a request is on the wire.
    in_flight: bool,
    /// Retransmit when `now` passes this with no reply.
    deadline: f64,
    /// Timeout-driven retransmissions so far (counted against
    /// [`AsyncRaesConfig::retry_budget`]).
    retries: u32,
}

struct Raes<'p> {
    cfg: AsyncRaesConfig,
    cap: usize,
    graph: DynamicGraph,
    rng: SimRng,
    sched: Scheduler<Ev>,
    egress: EgressQueues,
    stats: EventStats,
    faults: FaultState<'p>,
    order: VecDeque<(NodeId, u32)>,
    next_id: u64,
    pending: Vec<PendingSlot>,
    /// Positional index over `pending`, keyed by `owner cell × d + slot`:
    /// `pending_pos[key]` is the entry's current position in `pending`.
    /// Entries are validated on lookup (cell recycling makes keys collide
    /// across generations), so a stale position is harmless — but a valid
    /// hit replaces the linear scan a reply would otherwise pay, which is
    /// what made the initial `n·d` wiring quadratic.
    pending_pos: Vec<u32>,
    /// In-flight accepts per target (raw id), counted against the cap.
    reserved: IdHashMap<u64, u32>,
    removal_scratch: RemovedNode,
    repairs_completed: u64,
    repair_requests: u64,
    rejections: u64,
    phantoms: u64,
    repair_times: Vec<f64>,
    max_in_degree: usize,
    // Flood state.
    informed: IdHashSet<u64>,
    flood_entries: Vec<(DenseHandle, NodeId)>,
    flood_completion: Option<f64>,
    flood_rounds: u32,
    flood_started: bool,
}

impl ChurnHost for Raes<'_> {
    fn spawn(&mut self, time: f64) -> (NodeId, u32) {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let idx = self
            .graph
            .add_node_indexed(id, self.cfg.d)
            .expect("identifiers are never reused");
        let owner = self.graph.handle_at(idx).expect("newborn is alive");
        for slot in 0..self.cfg.d as u32 {
            self.pending_push(PendingSlot {
                owner,
                owner_id: id,
                slot,
                since: time,
                in_flight: false,
                deadline: 0.0,
                retries: 0,
            });
        }
        (id, idx)
    }

    fn kill(&mut self, victim: NodeId, victim_idx: u32, time: f64) {
        self.egress.forget(victim.raw());
        let mut removed = mem::take(&mut self.removal_scratch);
        self.graph
            .remove_node_into(victim_idx, &mut removed)
            .expect("victim is alive");
        for &(owner_idx, slot) in &removed.dangling_dense {
            let owner = self
                .graph
                .handle_at(owner_idx)
                .expect("dangling-slot owners survive the removal");
            let owner_id = self.graph.id_at(owner_idx).expect("owner is alive");
            self.pending_push(PendingSlot {
                owner,
                owner_id,
                slot: slot as u32,
                since: time,
                in_flight: false,
                deadline: 0.0,
                retries: 0,
            });
        }
        self.removal_scratch = removed;
        // Pending entries and reservations the victim owned die lazily:
        // the handle fails `is_current`, the reservation entry goes stale.
        self.reserved.remove(&victim.raw());
        let _ = victim;
    }
}

impl<'p> Raes<'p> {
    fn new(cfg: AsyncRaesConfig, plan: &'p FaultPlan, seed: u64) -> Self {
        let rng = seeded_rng(seed);
        // Start empty and spawn the initial population through the same
        // join path churn uses: every node's d connect requests are capped
        // repairs, so the in-degree cap holds from the very first edge (the
        // raw random-graph generator would not respect it).
        let graph = DynamicGraph::with_capacity(cfg.n + 16);
        let mut sched = Scheduler::new();
        match cfg.trace {
            TraceMode::Off => {}
            TraceMode::Full => sched.enable_trace(),
            TraceMode::Bins => sched.enable_bins(TRACE_CHURN, cfg.n as f64),
        }
        let mut model = Raes {
            cap: cfg.in_degree_cap(),
            graph,
            rng,
            sched,
            egress: EgressQueues::new(cfg.bandwidth),
            stats: EventStats::new(),
            faults: FaultState::new(plan, seed),
            order: VecDeque::with_capacity(cfg.n + 1),
            next_id: 0,
            pending: Vec::new(),
            pending_pos: Vec::new(),
            reserved: IdHashMap::default(),
            removal_scratch: RemovedNode::default(),
            repairs_completed: 0,
            repair_requests: 0,
            rejections: 0,
            phantoms: 0,
            repair_times: Vec::new(),
            max_in_degree: 0,
            informed: IdHashSet::default(),
            flood_entries: Vec::new(),
            flood_completion: None,
            flood_rounds: 0,
            flood_started: false,
            cfg,
        };
        for _ in 0..cfg.n {
            let born = model.spawn(0.0);
            model.order.push_back(born);
        }
        model
    }

    /// `pending_pos` key of an entry: dense cell index × out-degree + slot.
    fn pending_key(&self, owner_index: u32, slot: u32) -> usize {
        owner_index as usize * self.cfg.d + slot as usize
    }

    /// Records that the entry at `pos` is where its key now points.
    fn note_pending_pos(&mut self, pos: usize) {
        let key = self.pending_key(self.pending[pos].owner.index, self.pending[pos].slot);
        if key >= self.pending_pos.len() {
            self.pending_pos.resize(key + 1, u32::MAX);
        }
        self.pending_pos[key] = pos as u32;
    }

    fn pending_push(&mut self, entry: PendingSlot) {
        self.pending.push(entry);
        self.note_pending_pos(self.pending.len() - 1);
    }

    fn pending_swap_remove(&mut self, pos: usize) -> PendingSlot {
        let entry = self.pending.swap_remove(pos);
        if pos < self.pending.len() {
            self.note_pending_pos(pos);
        }
        entry
    }

    /// Re-derives every index entry; call after a `retain` shifted
    /// positions. O(len), which the retain itself already paid.
    fn reindex_pending(&mut self) {
        for pos in 0..self.pending.len() {
            self.note_pending_pos(pos);
        }
    }

    /// Position of the live entry for `(owner, slot)` — exactly what a
    /// linear `position()` scan would find (entries are unique per live
    /// `(owner, slot)`; the handle's generation distinguishes recycled
    /// cells). The indexed probe is validated against the entry and falls
    /// back to the scan when a collision left it stale.
    fn pending_position(&self, owner: DenseHandle, slot: u32) -> Option<usize> {
        let key = self.pending_key(owner.index, slot);
        if let Some(&pos) = self.pending_pos.get(key) {
            if let Some(p) = self.pending.get(pos as usize) {
                if p.owner == owner && p.slot == slot {
                    return Some(pos as usize);
                }
            }
        }
        self.pending
            .iter()
            .position(|p| p.owner == owner && p.slot == slot)
    }

    /// Reserved in-flight accepts pointed at `target_id`.
    fn reserved_for(&self, target_id: u64) -> u32 {
        self.reserved.get(&target_id).copied().unwrap_or(0)
    }

    fn release_reservation(&mut self, target_id: u64) {
        if let Some(count) = self.reserved.get_mut(&target_id) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                self.reserved.remove(&target_id);
            }
        }
    }

    /// The timeout of the `retries`-th retransmission:
    /// `retry_timeout · backoff_factor^retries`, plus jitter when enabled.
    /// The identity defaults (`factor = 1.0`, `jitter = 0.0`) reproduce the
    /// constant timeout bit-exactly and draw no randomness.
    fn backoff_timeout(&mut self, retries: u32) -> f64 {
        let base = self.cfg.retry_timeout * self.cfg.backoff_factor.powi(retries as i32);
        if self.cfg.backoff_jitter > 0.0 {
            let u: f64 = rand::Rng::gen(&mut self.rng);
            base * (1.0 + self.cfg.backoff_jitter * (2.0 * u - 1.0))
        } else {
            base
        }
    }

    /// Sends (or resends) the request of `pending[i]`, arming its timeout.
    fn send_request(&mut self, i: usize, now: f64) {
        let timeout = self.backoff_timeout(self.pending[i].retries);
        self.send_request_with_timeout(i, now, timeout);
    }

    fn send_request_with_timeout(&mut self, i: usize, now: f64, timeout: f64) {
        let (owner, owner_id, slot) = {
            let p = &self.pending[i];
            (p.owner, p.owner_id, p.slot)
        };
        let Some(target_idx) = self
            .graph
            .sample_member_excluding(&mut self.rng, owner.index)
        else {
            return; // nobody else alive; retry at a later sweep
        };
        let target = self
            .graph
            .handle_at(target_idx)
            .expect("sampled members are alive");
        let target_id = self
            .graph
            .id_at(target_idx)
            .expect("sampled members are alive");
        match self.egress.enqueue(owner_id.raw(), now) {
            Enqueue::Dropped => {
                self.stats.messages_dropped += 1;
                let p = &mut self.pending[i];
                p.in_flight = false;
                p.deadline = now + timeout;
            }
            Enqueue::Sent {
                departs,
                queue_delay,
            } => {
                self.stats.messages_sent += 1;
                self.stats.record_queue_delay(queue_delay);
                self.repair_requests += 1;
                let copies = self.faults.copies(owner_id.raw(), target_id.raw());
                if copies == 0 {
                    self.stats.messages_fault_lost += 1;
                } else {
                    if copies == 2 {
                        self.stats.messages_duplicated += 1;
                    }
                    for _ in 0..copies {
                        let held = self.faults.reorder_delay();
                        if held > 0.0 {
                            self.stats.messages_reordered += 1;
                        }
                        let arrival = departs + self.cfg.latency.sample(&mut self.rng) + held;
                        self.sched.schedule_at(
                            arrival,
                            Ev::Request {
                                owner,
                                owner_id,
                                slot,
                                target,
                                target_id,
                                departs,
                            },
                        );
                    }
                }
                let p = &mut self.pending[i];
                p.in_flight = true;
                p.deadline = now + timeout;
            }
        }
    }

    /// Drops dead owners from the pending list, then (re)sends every slot
    /// with no live request on the wire. Timed-out slots pay their retry
    /// budget: exhausted repairs are shed (counted, removed — the run never
    /// wedges on them), the rest retransmit with exponential backoff. Down
    /// owners wait out their crash.
    fn sweep_pending(&mut self, now: f64) {
        let graph = &self.graph;
        self.pending.retain(|p| graph.is_current(p.owner));
        self.reindex_pending();
        let mut i = 0;
        while i < self.pending.len() {
            let p = &self.pending[i];
            if self.faults.is_down(p.owner_id.raw()) {
                i += 1;
                continue;
            }
            let timed_out = p.in_flight && now >= p.deadline;
            if timed_out {
                if p.retries >= self.cfg.retry_budget {
                    let shed = self.pending_swap_remove(i);
                    self.stats.retries_exhausted += 1;
                    self.stats.record_repair_retries(shed.retries);
                    self.sched.record(TRACE_SHED, shed.owner_id.raw());
                    continue; // swap_remove moved a new entry into i
                }
                self.pending[i].retries += 1;
                let timeout = self.backoff_timeout(self.pending[i].retries);
                self.stats.record_retransmit(timeout);
                self.send_request_with_timeout(i, now, timeout);
            } else if !p.in_flight {
                self.send_request(i, now);
            }
            i += 1;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_request(
        &mut self,
        now: f64,
        owner: DenseHandle,
        owner_id: NodeId,
        slot: u32,
        target: DenseHandle,
        target_id: NodeId,
        request_departs: f64,
    ) {
        self.sched.record(TRACE_REQUEST, target_id.raw());
        if !self.graph.is_current(target) {
            self.stats.messages_lost += 1;
            self.phantoms += 1;
            return;
        }
        // Fault gates (all no-ops under an empty plan): a request whose
        // departure fell in the owner's down window was still queued at the
        // crash; partitions cut the link; a crashed target cannot answer.
        // The owner's ack-timeout recovers every one of these.
        if self.faults.was_down_at(owner_id.raw(), request_departs) {
            self.stats.messages_crash_voided += 1;
            return;
        }
        if self.faults.blocked(now, owner_id.raw(), target_id.raw()) {
            self.stats.messages_blocked += 1;
            return;
        }
        if self.faults.is_down(target_id.raw()) {
            self.stats.messages_to_down += 1;
            return;
        }
        self.stats.messages_delivered += 1;
        let in_degree = self
            .graph
            .in_request_count_at(target.index)
            .expect("target is alive");
        let accept = in_degree + (self.reserved_for(target_id.raw()) as usize) < self.cap;
        if accept {
            *self.reserved.entry(target_id.raw()).or_insert(0) += 1;
        } else {
            self.rejections += 1;
        }
        match self.egress.enqueue(target_id.raw(), now) {
            Enqueue::Dropped => {
                self.stats.messages_dropped += 1;
                if accept {
                    // The accept never left the NIC; the owner will time out.
                    self.release_reservation(target_id.raw());
                }
            }
            Enqueue::Sent {
                departs,
                queue_delay,
            } => {
                self.stats.messages_sent += 1;
                self.stats.record_queue_delay(queue_delay);
                let copies = self.faults.copies(target_id.raw(), owner_id.raw());
                if copies == 0 {
                    self.stats.messages_fault_lost += 1;
                    if accept {
                        // The accept died on the wire; the owner times out.
                        self.release_reservation(target_id.raw());
                    }
                    return;
                }
                if copies == 2 {
                    self.stats.messages_duplicated += 1;
                }
                for _ in 0..copies {
                    let held = self.faults.reorder_delay();
                    if held > 0.0 {
                        self.stats.messages_reordered += 1;
                    }
                    let arrival = departs + self.cfg.latency.sample(&mut self.rng) + held;
                    self.sched.schedule_at(
                        arrival,
                        Ev::Reply {
                            owner,
                            owner_id,
                            slot,
                            target,
                            target_id,
                            accept,
                            departs,
                        },
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_reply(
        &mut self,
        now: f64,
        owner: DenseHandle,
        owner_id: NodeId,
        slot: u32,
        target: DenseHandle,
        target_id: NodeId,
        accept: bool,
        reply_departs: f64,
    ) {
        self.sched.record(TRACE_REPLY, target_id.raw());
        if accept {
            self.release_reservation(target_id.raw());
        }
        if !self.graph.is_current(owner) {
            self.stats.messages_lost += 1;
            return;
        }
        if self.faults.was_down_at(target_id.raw(), reply_departs) {
            self.stats.messages_crash_voided += 1;
            return;
        }
        if self.faults.blocked(now, target_id.raw(), owner_id.raw()) {
            self.stats.messages_blocked += 1;
            return;
        }
        if self.faults.is_down(owner_id.raw()) {
            self.stats.messages_to_down += 1;
            return;
        }
        self.stats.messages_delivered += 1;
        let Some(i) = self.pending_position(owner, slot) else {
            return; // slot already repaired by a retransmitted request
        };
        if accept && self.graph.is_current(target) {
            self.graph
                .set_out_slot_at(owner.index, slot as usize, target.index)
                .expect("owner and target are alive and the slot exists");
            let since = self.pending[i].since;
            self.stats.record_repair_retries(self.pending[i].retries);
            self.pending_swap_remove(i);
            self.repairs_completed += 1;
            self.repair_times.push(now - since);
            let in_degree = self
                .graph
                .in_request_count_at(target.index)
                .expect("target is alive");
            self.max_in_degree = self.max_in_degree.max(in_degree);
            self.sched.record(TRACE_REPAIRED, target_id.raw());
        } else {
            // Rejected, or the accepted target died in flight: try a fresh
            // target right away.
            self.send_request(i, now);
        }
    }

    /// Marks `idx` informed and forwards the rumor along incident links,
    /// through the shared egress queues.
    fn flood_inform(&mut self, idx: u32, hop: u32, now: f64) {
        let id = self.graph.id_at(idx).expect("informed nodes are alive");
        let handle = self.graph.handle_at(idx).expect("informed nodes are alive");
        self.informed.insert(id.raw());
        self.flood_entries.push((handle, id));
        self.flood_rounds = self.flood_rounds.max(hop);
        if self.graph.tags_enabled() && self.graph.tag_at(idx) & TAG_NO_FORWARD != 0 {
            return;
        }
        let targets: Vec<(DenseHandle, NodeId)> = self
            .graph
            .neighbor_indices_at(idx)
            .map(|t| {
                (
                    self.graph.handle_at(t).expect("neighbors are alive"),
                    self.graph.id_at(t).expect("neighbors are alive"),
                )
            })
            .collect();
        for (target, target_id) in targets {
            match self.egress.enqueue(id.raw(), now) {
                Enqueue::Dropped => self.stats.messages_dropped += 1,
                Enqueue::Sent {
                    departs,
                    queue_delay,
                } => {
                    self.stats.messages_sent += 1;
                    self.stats.record_queue_delay(queue_delay);
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
                        let arrival = departs + self.cfg.latency.sample(&mut self.rng) + held;
                        self.sched.schedule_at(
                            arrival,
                            Ev::Flood {
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

    fn on_flood(
        &mut self,
        now: f64,
        target: DenseHandle,
        id: NodeId,
        from: u64,
        departs: f64,
        hop: u32,
    ) {
        if !self.graph.is_current(target) {
            self.stats.messages_lost += 1;
            return;
        }
        if self.faults.was_down_at(from, departs) {
            self.stats.messages_crash_voided += 1;
            return;
        }
        if self.faults.blocked(now, from, id.raw()) {
            self.stats.messages_blocked += 1;
            return;
        }
        if self.faults.is_down(id.raw()) {
            self.stats.messages_to_down += 1;
            return;
        }
        self.stats.messages_delivered += 1;
        if self.informed.contains(&id.raw()) {
            return;
        }
        self.sched.record(TRACE_FLOOD, id.raw());
        self.flood_inform(target.index, hop, now);
        if self.flood_completion.is_none() && self.flood_entries.len() == self.graph.len() {
            self.flood_completion = Some(now);
        }
    }

    fn on_churn(&mut self, now: f64) {
        let mut order = mem::take(&mut self.order);
        let mut summary = ChurnSummary::new();
        streaming_round(self, &mut order, self.cfg.n, now, &mut summary);
        self.order = order;
        self.sched.record(TRACE_CHURN, self.graph.len() as u64);
        // Flood marks of dead nodes retire with them.
        let graph = &self.graph;
        let informed = &mut self.informed;
        self.flood_entries.retain(|&(handle, id)| {
            let alive = graph.is_current(handle);
            if !alive {
                informed.remove(&id.raw());
            }
            alive
        });
        self.crash_sweep(now);
        self.sweep_pending(now);
        if now + 1.0 <= self.cfg.horizon {
            self.sched.schedule_at(now + 1.0, Ev::ChurnTick);
        }
    }

    /// Injects this tick's crashes: a victim loses its queued egress, its
    /// pending repairs and its flood mark, keeps its identity, and restarts
    /// after a drawn downtime (repairs are rediscovered then).
    fn crash_sweep(&mut self, now: f64) {
        let crashes = self.faults.crash_count(self.graph.len());
        for _ in 0..crashes {
            let Some(idx) = self.graph.sample_member(self.faults.rng()) else {
                break;
            };
            let id = self.graph.id_at(idx).expect("sampled members are alive");
            if self.faults.is_down(id.raw()) {
                continue; // already down — the crash lands on a dead machine
            }
            let downtime = self.faults.downtime();
            self.faults.mark_down(id.raw(), now);
            self.sched.record(TRACE_CRASH, id.raw());
            self.egress.forget(id.raw());
            // In-flight protocol state is lost: pending repairs it owned
            // and in-flight accepts reserved against it.
            self.pending.retain(|p| p.owner_id != id);
            self.reindex_pending();
            self.reserved.remove(&id.raw());
            if self.informed.remove(&id.raw()) {
                self.flood_entries.retain(|&(_, entry_id)| entry_id != id);
            }
            let target = self
                .graph
                .handle_at(idx)
                .expect("sampled members are alive");
            self.sched
                .schedule_at(now + downtime, Ev::Restart { target, id });
        }
    }

    /// Brings a crashed node back up (unless churn killed it first) and
    /// rediscovers its dangling out-slots, re-triggering RAES repair for
    /// the state the crash destroyed.
    fn on_restart(&mut self, now: f64, target: DenseHandle, id: NodeId) {
        if !self.graph.is_current(target) {
            self.faults.forget(id.raw());
            return;
        }
        if !self.faults.mark_up(id.raw(), now) {
            return;
        }
        self.sched.record(TRACE_RESTART, id.raw());
        let dangling: Vec<u32> = self
            .graph
            .out_slot_targets_at(target.index)
            .enumerate()
            .filter_map(|(slot, filled)| filled.is_none().then_some(slot as u32))
            .collect();
        for slot in dangling {
            let already = self
                .pending
                .iter()
                .any(|p| p.owner_id == id && p.slot == slot);
            if !already {
                self.pending_push(PendingSlot {
                    owner: target,
                    owner_id: id,
                    slot,
                    since: now,
                    in_flight: false,
                    deadline: 0.0,
                    retries: 0,
                });
            }
        }
    }

    fn run(mut self) -> AsyncRaesRecord {
        // Send the initial population's connect requests.
        self.sweep_pending(0.0);
        if self.cfg.horizon >= 1.0 {
            self.sched.schedule_at(1.0, Ev::ChurnTick);
        }
        if let Some(at) = self.cfg.flood_at {
            if at <= self.cfg.horizon {
                self.sched.schedule_at(at, Ev::FloodStart);
            }
        }
        let event_loop = tracing::span("event-loop");
        while let Some(time) = self.sched.peek_time() {
            if time > self.cfg.horizon {
                break;
            }
            let (now, event) = self.sched.pop().expect("peeked event exists");
            match event {
                Ev::ChurnTick => self.on_churn(now),
                Ev::Request {
                    owner,
                    owner_id,
                    slot,
                    target,
                    target_id,
                    departs,
                } => self.on_request(now, owner, owner_id, slot, target, target_id, departs),
                Ev::Reply {
                    owner,
                    owner_id,
                    slot,
                    target,
                    target_id,
                    accept,
                    departs,
                } => self.on_reply(
                    now, owner, owner_id, slot, target, target_id, accept, departs,
                ),
                Ev::FloodStart => {
                    self.flood_started = true;
                    let &(source_id, source_idx) =
                        self.order.back().expect("network is never empty");
                    self.sched.record(TRACE_FLOOD, source_id.raw());
                    self.flood_inform(source_idx, 0, now);
                }
                Ev::Flood {
                    target,
                    id,
                    from,
                    departs,
                    hop,
                } => self.on_flood(now, target, id, from, departs, hop),
                Ev::Restart { target, id } => self.on_restart(now, target, id),
            }
        }
        drop(event_loop);
        self.finish()
    }

    fn finish(mut self) -> AsyncRaesRecord {
        self.stats.events_processed = self.sched.processed();
        self.stats.peak_backlog = self.egress.peak_backlog() as u64;
        self.stats.sim_time = self.sched.now();
        self.stats.crashes = self.faults.crashes();
        self.stats.restarts = self.faults.restarts();
        let graph = &self.graph;
        self.pending.retain(|p| graph.is_current(p.owner));
        let alive = self.graph.len();
        let mean_repair_time = if self.repair_times.is_empty() {
            0.0
        } else {
            self.repair_times.iter().sum::<f64>() / self.repair_times.len() as f64
        };
        let flood = self.flood_started.then_some(FloodSummary {
            informed: self.flood_entries.len(),
            complete: !self.flood_entries.is_empty() && self.flood_entries.len() == alive,
            completion_time: self.flood_completion,
            emergent_rounds: self.flood_rounds,
        });
        AsyncRaesRecord {
            repairs_completed: self.repairs_completed,
            repair_requests: self.repair_requests,
            rejections: self.rejections,
            phantoms: self.phantoms,
            mean_repair_time,
            p99_repair_time: percentile(&self.repair_times, 0.99),
            dangling_fraction: self.pending.len() as f64 / (alive * self.cfg.d).max(1) as f64,
            max_in_degree: self.max_in_degree,
            in_degree_cap: self.cap,
            alive,
            flood,
            trace: self.sched.take_trace(),
            bins: self.sched.take_bins(),
            stats: self.stats,
        }
    }
}

/// Runs one asynchronous RAES load experiment under a fault plan.
/// Deterministic given `(cfg, plan, seed)`.
///
/// The fault layer rides on the repair loop: link faults and
/// partitions gate both repair legs and the flood; crashes at churn ticks
/// wipe a victim's queued egress, pending repairs and flood mark (identity
/// kept), and its restart rescans the out-slots to re-trigger repair. The
/// retry policy (exponential backoff, jitter, bounded budget) lives on the
/// config; with an exhausted budget the repair is shed and counted, so the
/// run terminates either by completion or by recorded degradation — never
/// by wedging. Pass [`FaultPlan::none`] for a fault-free run: all fault
/// randomness is a dedicated substream of `seed`, so an empty plan leaves
/// the repair trajectory untouched.
///
/// # Panics
///
/// Panics if the config or the plan is invalid.
#[must_use]
pub fn run_async_raes_faulty(
    cfg: &AsyncRaesConfig,
    plan: &FaultPlan,
    seed: u64,
) -> AsyncRaesRecord {
    cfg.validate().expect("invalid async RAES config");
    plan.validate().expect("invalid fault plan");
    Raes::new(*cfg, plan, seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AsyncRaesConfig {
        AsyncRaesConfig {
            horizon: 64.0,
            flood_at: Some(8.0),
            ..AsyncRaesConfig::new(
                48,
                3,
                LatencyModel::Fixed(0.05),
                BandwidthModel::delaying(64.0),
            )
        }
    }

    #[test]
    fn repairs_keep_the_network_wired_under_light_load() {
        let record = run_async_raes_faulty(&quick_cfg(), &FaultPlan::none(), 11);
        assert_eq!(record.alive, 48);
        assert!(record.repairs_completed > 0);
        assert!(
            record.dangling_fraction < 0.2,
            "{}",
            record.dangling_fraction
        );
        assert!(record.max_in_degree <= record.in_degree_cap);
        assert!(record.mean_repair_time > 0.0);
        assert!(record.p99_repair_time >= record.mean_repair_time);
        // The flood completes shortly after injection; by the horizon the
        // informed generation has churned out (async floods forward on
        // arrival only — newborns are never informed), so assert on the
        // completion instant rather than end-of-run survivors.
        let flood = record.flood.expect("flood was injected");
        assert!(flood.completion_time.is_some());
        assert!(flood.emergent_rounds > 0);
    }

    #[test]
    fn lossy_crashy_run_terminates_with_recovery_recorded() {
        use crate::faults::{CrashRestart, LossModel};
        // The acceptance regime: 30% i.i.d. loss plus crash–restart. The
        // run must terminate via completion or recorded shed repairs —
        // never wedge — with backoff/retransmit histograms populated.
        let mut cfg = quick_cfg();
        cfg.backoff_factor = 2.0;
        cfg.retry_budget = 4;
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Iid { p: 0.3 };
        plan.crash = Some(CrashRestart {
            rate: 0.01,
            downtime: LatencyModel::Fixed(3.0),
        });
        let record = run_async_raes_faulty(&cfg, &plan, 17);
        assert_eq!(record.alive, 48);
        assert!(record.stats.messages_fault_lost > 0);
        assert!(record.stats.retransmits > 0, "losses force retries");
        assert!(
            record.stats.p99_backoff() > cfg.retry_timeout,
            "exponential backoff grows past the base timeout"
        );
        assert!(record.stats.retransmit_histogram(8).is_some());
        assert!(record.stats.crashes > 0, "crash model fired");
        assert!(record.stats.restarts > 0, "victims came back");
        assert!(record.max_in_degree <= record.in_degree_cap);
        // Repairs still make progress through the chaos.
        assert!(record.repairs_completed > 0);
    }

    #[test]
    fn tiny_retry_budget_sheds_instead_of_wedging() {
        use crate::faults::LossModel;
        let mut cfg = quick_cfg();
        cfg.retry_budget = 1;
        cfg.retry_timeout = 0.5; // time out nearly every sweep
        let mut plan = FaultPlan::none();
        plan.loss = LossModel::Iid { p: 0.9 };
        let record = run_async_raes_faulty(&cfg, &plan, 23);
        assert!(
            record.stats.retries_exhausted > 0,
            "a 90%-loss wire with one retry must shed repairs"
        );
        // Shed repairs are recorded in the retry histogram alongside
        // completed ones.
        assert!(record.stats.retransmit_samples() > 0);
    }

    #[test]
    fn cap_is_never_exceeded_even_with_accepts_in_flight() {
        let mut cfg = quick_cfg();
        cfg.capacity_factor = 1.0; // tight cap forces rejections
        cfg.latency = LatencyModel::Uniform {
            low: 0.1,
            high: 2.0,
        };
        let record = run_async_raes_faulty(&cfg, &FaultPlan::none(), 5);
        assert!(record.max_in_degree <= record.in_degree_cap);
        assert!(record.rejections > 0);
    }
}
