//! The RAES maintenance model: request, accept (if enough space), resample.

use std::collections::VecDeque;

use churn_graph::hashing::IdHashMap;
use churn_graph::{DenseHandle, DynamicGraph, NodeId, NodeIdAllocator, RemovedNode};
use churn_stochastic::process::{BirthDeathChain, Jump};
use churn_stochastic::rng::{derive_seed, seeded_rng, SimRng};
use serde::{Deserialize, Serialize};

use churn_core::driver::{self, ChurnHost, JumpClock, PoissonChurnHost, VictimPolicy};
use churn_core::{ChurnSummary, DynamicNetwork, EdgePolicy, ModelKind, Result};

use crate::{AdversaryModel, Behavior, ChurnDriver, RaesConfig, SaturationPolicy};

/// Seed-derivation stream tag of the adversary substream: behavior
/// assignment and victim selection draw from `derive_seed(seed, this)`, so
/// the main simulation stream is untouched even while an adversary is
/// configured.
const ADVERSARY_STREAM: u64 = 0xB12A_7A6E;

/// One unfilled out-slot waiting to be connected: the protocol's unit of work.
///
/// The owner is referenced through a generation-tagged [`DenseHandle`], so a
/// request whose owner has meanwhile died (or whose slab cell was recycled by
/// a newborn) is detected in O(1) during the repair sweep, with no identifier
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingRequest {
    /// The node that owns the unfilled out-slot.
    pub owner: DenseHandle,
    /// The out-slot index in `0..d`.
    pub slot: u32,
    /// Value of [`RaesModel::rounds`] when the slot became unfilled; the
    /// repair latency of a request is the number of rounds it spent pending.
    pub since_round: u64,
}

/// Protocol activity of one round (one message-delay unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RaesRoundStats {
    /// The round these stats describe.
    pub round: u64,
    /// Pending requests at the start of the repair sweep (after this round's
    /// churn enqueued the newborn's slots and the dangling slots of
    /// survivors).
    pub pending_before: usize,
    /// Pending requests left after the sweep (unfilled deficits carried into
    /// the next round).
    pub pending_after: usize,
    /// Requests actually sent (one per pending slot with an alive owner and at
    /// least one other alive node to contact).
    pub requests_sent: usize,
    /// Requests accepted (the slot is now connected).
    pub accepted: usize,
    /// Requests rejected by a saturated target (reject-and-retry policy).
    pub rejected: usize,
    /// Links evicted by saturated targets (evict-oldest policy); every
    /// eviction re-enqueues the evicted owner's slot.
    pub evicted: usize,
    /// Requests dropped because their owner died before they were served.
    pub dropped: usize,
    /// Total rounds the requests accepted this round spent pending (0 for a
    /// newborn's slot filled in its birth round).
    pub repair_latency_sum: u64,
    /// Requests refused by a [`crate::Behavior::RefuseAll`] node this round
    /// (each is also counted in `rejected` — the requester cannot tell a
    /// refusal from genuine saturation). Always 0 without an adversary.
    pub byz_refused: usize,
    /// Phantom accepts by [`crate::Behavior::AcceptThenDrop`] nodes: the
    /// handshake "succeeded" but the slot stays unfilled and the request
    /// silently re-enters the queue. Not counted in `accepted` or `rejected`.
    pub byz_accept_drops: usize,
    /// Requests sent by Byzantine owners this round (cap-saturator victim
    /// presses; also counted in `requests_sent`).
    pub byz_requests_sent: usize,
    /// Requests accepted whose owner is honest (untagged). Equals `accepted`
    /// without an adversary.
    pub honest_accepted: usize,
    /// Rounds the honest-owned requests accepted this round spent pending.
    /// Equals `repair_latency_sum` without an adversary.
    pub honest_repair_latency_sum: u64,
    /// Largest in-degree observed on a cap-saturator victim right after a
    /// saturator press this round (0 when no saturator pressed).
    pub victim_cap_occupancy: usize,
}

/// Cumulative protocol counters since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RaesStats {
    /// Protocol rounds executed.
    pub rounds: u64,
    /// Total requests sent.
    pub requests_sent: u64,
    /// Total requests accepted.
    pub accepted: u64,
    /// Total requests rejected by saturated targets.
    pub rejected: u64,
    /// Total links evicted (evict-oldest policy only).
    pub evicted: u64,
    /// Total requests dropped because their owner died first.
    pub dropped: u64,
    /// Total rounds accepted requests spent pending before being served.
    pub repair_latency_sum: u64,
    /// Total requests refused by `RefuseAll` nodes (subset of `rejected`).
    pub byz_refused: u64,
    /// Total phantom accepts by `AcceptThenDrop` nodes.
    pub byz_accept_drops: u64,
    /// Total requests sent by Byzantine owners (subset of `requests_sent`).
    pub byz_requests_sent: u64,
    /// Total requests accepted for honest owners (subset of `accepted`;
    /// equal without an adversary).
    pub honest_accepted: u64,
    /// Total pending rounds of honest-owned accepted requests (subset of
    /// `repair_latency_sum`; equal without an adversary).
    pub honest_repair_latency_sum: u64,
    /// Largest cap-saturator victim in-degree ever observed after a press.
    pub max_victim_cap_occupancy: u64,
}

impl RaesStats {
    fn absorb(&mut self, round: &RaesRoundStats) {
        self.rounds += 1;
        self.requests_sent += round.requests_sent as u64;
        self.accepted += round.accepted as u64;
        self.rejected += round.rejected as u64;
        self.evicted += round.evicted as u64;
        self.dropped += round.dropped as u64;
        self.repair_latency_sum += round.repair_latency_sum;
        self.byz_refused += round.byz_refused as u64;
        self.byz_accept_drops += round.byz_accept_drops as u64;
        self.byz_requests_sent += round.byz_requests_sent as u64;
        self.honest_accepted += round.honest_accepted as u64;
        self.honest_repair_latency_sum += round.honest_repair_latency_sum;
        self.max_victim_cap_occupancy = self
            .max_victim_cap_occupancy
            .max(round.victim_cap_occupancy as u64);
    }

    /// Mean number of rounds an eventually-served *honest* request waited
    /// (0 when none was served yet). Equals [`Self::mean_repair_latency`]
    /// without an adversary.
    #[must_use]
    pub fn mean_honest_repair_latency(&self) -> f64 {
        if self.honest_accepted == 0 {
            0.0
        } else {
            self.honest_repair_latency_sum as f64 / self.honest_accepted as f64
        }
    }

    /// Mean number of rounds an eventually-served request waited (0 when no
    /// request was served yet). Newborn slots filled in their birth round wait
    /// 0 rounds.
    #[must_use]
    pub fn mean_repair_latency(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.repair_latency_sum as f64 / self.accepted as f64
        }
    }

    /// Fraction of sent requests that were rejected.
    #[must_use]
    pub fn rejection_rate(&self) -> f64 {
        if self.requests_sent == 0 {
            0.0
        } else {
            self.rejected as f64 / self.requests_sent as f64
        }
    }
}

/// The RAES maintenance model: a dynamic network whose topology is kept by a
/// *local protocol* instead of the paper's instantaneous resampling.
///
/// Every alive node maintains `d` out-links. Each round (one message-delay
/// unit):
///
/// 1. **Churn.** The underlying process (streaming or Poisson, exactly as in
///    the paper's models) kills and spawns nodes. A newborn starts with `d`
///    unfilled slots; an out-slot of a survivor whose target died becomes
///    unfilled. Unfilled slots join the pending-request queue.
/// 2. **Repair.** Every pending request contacts one uniformly random alive
///    node. The contact *accepts* while its in-degree (requests pointing at
///    it, with multiplicity) is below the cap `⌊c·d⌋`; otherwise it reacts
///    according to the [`SaturationPolicy`] — reject (the request retries next
///    round) or accept-and-evict its oldest in-link (the evicted owner
///    re-enters the queue).
///
/// With `c > 1` the accept capacity exceeds demand, so deficits are repaired
/// in O(1) expected rounds and the realized topology stays, like SDGR/PDGR, a
/// `d`-regular-out-degree graph — but with the in-degree *bounded by `c·d`*
/// instead of merely concentrated around `d`, which is what makes the graph a
/// bounded-degree expander (Cruciani 2025; Becchetti et al., RAES).
///
/// The model implements [`DynamicNetwork`], so flooding, expansion and
/// isolation analyses and the scenario engine drive it exactly like the
/// four baseline models. The hot path works entirely on the
/// dense `*_at` slab API: steady-state rounds perform no hashing (beyond the
/// one identifier-map update per churn event that the baselines also pay),
/// and with the streaming driver no heap allocation at all (see
/// [`Self::step_round_into`]). Poisson populations fluctuate by ~√n, so there
/// container regrowth is rare (several deviations of headroom are reserved)
/// but not impossible.
///
/// # Example
///
/// ```
/// use churn_core::DynamicNetwork;
/// use churn_protocol::{RaesConfig, RaesModel};
///
/// # fn main() -> Result<(), churn_core::ModelError> {
/// let mut model = RaesModel::new(RaesConfig::new(200, 8).seed(1))?;
/// model.warm_up();
/// assert_eq!(model.alive_count(), 200);
/// let cap = model.in_degree_cap();
/// for id in model.alive_ids() {
///     assert!(model.graph().in_request_count(id).unwrap() <= cap);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RaesModel {
    config: RaesConfig,
    in_cap: usize,
    graph: DynamicGraph,
    rng: SimRng,
    /// Rounds (message-delay units) executed; drives repair-latency
    /// accounting for both churn drivers.
    rounds: u64,
    /// Continuous model time (streaming: equal to `rounds`).
    time: f64,
    /// Churn steps: rounds for streaming, jump-chain events for Poisson.
    churn_steps: u64,
    /// Streaming driver state: birth order of alive nodes, front = oldest.
    order: VecDeque<(NodeId, u32)>,
    /// Poisson driver state.
    chain: Option<BirthDeathChain>,
    birth_time: IdHashMap<NodeId, f64>,
    alloc: NodeIdAllocator,
    newest: Option<NodeId>,
    /// The protocol's work queue. Compacted in place every round; evictions
    /// are staged in `overflow` so the sweep never reallocates mid-iteration.
    pending: Vec<PendingRequest>,
    overflow: Vec<PendingRequest>,
    /// Per-sweep target batch, aligned with the queue (sentinel-coded for
    /// dead owners / missing candidates). Drawing every target before any
    /// record is touched lets the out-of-order core overlap the per-target
    /// cache misses, the same trick the baseline models use on spawn.
    sample_scratch: Vec<u32>,
    /// Per-sweep exclusion batch feeding the graph's bulk
    /// `sample_members_each_excluding_into` draw: one entry per pending
    /// request (the owner's index, or the skip sentinel for dead owners).
    exclude_scratch: Vec<u32>,
    removal_scratch: RemovedNode,
    stats: RaesStats,
    last_round: RaesRoundStats,
    /// Dedicated adversary substream (behavior assignment, victim picks).
    /// Never interleaved with `rng`, so `AdversaryModel::None` and any
    /// zero-fraction adversary leave the main stream bit-identical.
    adv_rng: SimRng,
    /// Join-flood burst state: corrupted spawns still owed by the current
    /// cohort.
    joinflood_remaining: u32,
    /// Per-saturator victim handles, indexed by the saturator's slab cell
    /// (empty while no saturator ever pressed). Entries are revalidated
    /// lazily: a dead victim is re-picked on the next press.
    saturator_victims: Vec<Option<DenseHandle>>,
    /// The shared victim of an [`AdversaryModel::Eclipse`] adversary,
    /// (re-)picked lazily like the per-saturator victims.
    eclipse_victim: Option<DenseHandle>,
}

/// Outcome of one contact attempt against a chosen target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Contact {
    /// The target accepted (possibly after shedding its oldest in-link
    /// under [`SaturationPolicy::EvictOldest`]) and the out-slot was filled.
    Connected,
    /// The target rejected the request: genuine saturation under
    /// [`SaturationPolicy::RejectRetry`], or a Byzantine refusal.
    Refused,
    /// A Byzantine target accepted the handshake but never holds the link:
    /// the slot stays severed and re-enters the queue.
    Phantom,
}

impl RaesModel {
    /// Builds an empty (time 0) RAES model.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`RaesConfig::validate`].
    pub fn new(config: RaesConfig) -> Result<Self> {
        config.validate()?;
        let rng = seeded_rng(config.seed);
        // Streaming populations are exactly n (+1 transiently). Poisson
        // populations fluctuate with standard deviation ~√n around n, so
        // reserve several deviations of headroom to keep steady-state
        // regrowth of the slab and identifier maps rare.
        let headroom = match config.churn {
            ChurnDriver::Streaming => 16,
            ChurnDriver::Poisson => 16 + 6 * (config.n as f64).sqrt().ceil() as usize,
        };
        let capacity = config.n + headroom;
        let chain = match config.churn {
            ChurnDriver::Streaming => None,
            ChurnDriver::Poisson => Some(BirthDeathChain::new(1.0, 1.0 / config.n as f64)),
        };
        let mut graph = DynamicGraph::with_capacity(capacity);
        if config.victim_policy == VictimPolicy::HighestDegree {
            // Degree-targeted adversarial deaths read the hub through the
            // bucketed index instead of scanning all members per death.
            graph.set_degree_index(true);
        }
        Ok(RaesModel {
            in_cap: config.in_degree_cap(),
            graph,
            rng,
            rounds: 0,
            time: 0.0,
            churn_steps: 0,
            order: VecDeque::with_capacity(capacity),
            chain,
            birth_time: IdHashMap::with_capacity_and_hasher(capacity, Default::default()),
            alloc: NodeIdAllocator::new(),
            newest: None,
            pending: Vec::new(),
            overflow: Vec::new(),
            sample_scratch: Vec::new(),
            exclude_scratch: Vec::new(),
            removal_scratch: RemovedNode::default(),
            stats: RaesStats::default(),
            last_round: RaesRoundStats::default(),
            adv_rng: seeded_rng(derive_seed(config.seed, ADVERSARY_STREAM)),
            joinflood_remaining: 0,
            saturator_victims: Vec::new(),
            eclipse_victim: None,
            config,
        })
    }

    /// The configuration the model was built from.
    #[must_use]
    pub fn config(&self) -> &RaesConfig {
        &self.config
    }

    /// The absolute in-degree cap `⌊c·d⌋`.
    #[must_use]
    pub fn in_degree_cap(&self) -> usize {
        self.in_cap
    }

    /// Number of protocol rounds executed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// The currently unfilled out-slots waiting for repair. Every entry's
    /// owner was alive at the end of the last round (dead owners are dropped
    /// during the repair sweep), and each `(owner, slot)` appears at most
    /// once.
    #[must_use]
    pub fn pending_requests(&self) -> &[PendingRequest] {
        &self.pending
    }

    /// Cumulative protocol counters.
    #[must_use]
    pub fn stats(&self) -> &RaesStats {
        &self.stats
    }

    /// Protocol activity of the most recent round.
    #[must_use]
    pub fn last_round_stats(&self) -> &RaesRoundStats {
        &self.last_round
    }

    /// Largest current in-degree (requests with multiplicity) over the alive
    /// nodes; by the protocol invariant this never exceeds
    /// [`Self::in_degree_cap`]. O(n) scan, meant for measurements.
    #[must_use]
    pub fn max_in_degree(&self) -> usize {
        self.graph
            .member_indices()
            .iter()
            .map(|&idx| {
                self.graph
                    .in_request_count_at(idx)
                    .expect("member cells are occupied")
            })
            .max()
            .unwrap_or(0)
    }

    /// Executes one round: churn, then one repair sweep over the pending
    /// queue. Equivalent to [`DynamicNetwork::advance_time_unit`].
    pub fn step_round(&mut self) -> ChurnSummary {
        let mut summary = ChurnSummary::new();
        self.step_round_into(&mut summary);
        summary
    }

    /// Like [`Self::step_round`], but accumulates the churn summary into a
    /// caller-owned buffer (cleared first). With a reused summary every
    /// internal buffer (pending queue, target batch, removal scratch) is
    /// recycled, so steady-state rounds under the *streaming* driver never
    /// touch the heap — `crates/protocol/tests/alloc_free.rs` pins this with
    /// a counting allocator, and the `raes_step` bench drives this entry
    /// point. (Poisson populations fluctuate by ~√n; generous headroom makes
    /// steady-state container regrowth rare there, but a sufficiently large
    /// excursion can still allocate.)
    pub fn step_round_into(&mut self, summary: &mut ChurnSummary) {
        let _round = tracing::span("raes-round");
        summary.clear();
        self.rounds += 1;
        match self.config.churn {
            ChurnDriver::Streaming => self.churn_streaming(summary),
            ChurnDriver::Poisson => self.churn_poisson(summary),
        }
        self.repair();
    }

    /// One streaming churn round, through the shared
    /// [`churn_core::driver::streaming_round`] loop (death first, then birth,
    /// exactly like the streaming baselines — the loop *is* the baselines').
    fn churn_streaming(&mut self, summary: &mut ChurnSummary) {
        self.time = self.rounds as f64;
        self.churn_steps = self.rounds;
        let mut order = std::mem::take(&mut self.order);
        driver::streaming_round(self, &mut order, self.config.n, self.time, summary);
        self.order = order;
    }

    /// One message-delay unit of Poisson churn, through the shared
    /// [`churn_core::driver::poisson_advance_until`] jump-chain loop.
    fn churn_poisson(&mut self, summary: &mut ChurnSummary) {
        let chain = self.chain.expect("poisson driver has a jump chain");
        let target = self.time.floor() + 1.0;
        let mut clock = JumpClock {
            time: self.time,
            jumps: self.churn_steps,
        };
        driver::poisson_advance_until(self, &chain, &mut clock, target, summary);
        self.time = clock.time;
        self.churn_steps = clock.jumps;
    }

    /// A node joins with `d` unfilled slots; the slots enter the queue and
    /// are (typically) served in this round's repair sweep.
    fn spawn_node_at(&mut self, time: f64) -> (NodeId, u32) {
        let id = self.alloc.next_id();
        let idx = self
            .graph
            .add_node_indexed(id, self.config.d)
            .expect("allocator never reuses identifiers");
        let handle = self
            .graph
            .handle_at(idx)
            .expect("freshly added node is alive");
        for slot in 0..self.config.d as u32 {
            self.pending.push(PendingRequest {
                owner: handle,
                slot,
                since_round: self.rounds,
            });
        }
        if self.config.adversary.is_active() {
            let behavior = self.draw_behavior();
            if behavior != Behavior::Honest {
                self.graph
                    .set_tag_at(idx, behavior.tag())
                    .expect("freshly added node is alive");
            }
        }
        self.birth_time.insert(id, time);
        self.newest = Some(id);
        // The streaming driver maintains the birth-order queue itself; under
        // Poisson churn the queue is only needed (and only maintained) for
        // the oldest-first adversarial victim policy.
        if self.config.churn == ChurnDriver::Poisson
            && self.config.victim_policy == VictimPolicy::OldestFirst
        {
            self.order.push_back((id, idx));
        }
        (id, idx)
    }

    fn kill_node(&mut self, victim: NodeId, victim_idx: u32) {
        self.birth_time.remove(&victim);
        if self.newest == Some(victim) {
            self.newest = None;
        }
        let mut removed = std::mem::take(&mut self.removal_scratch);
        self.graph
            .remove_node_into(victim_idx, &mut removed)
            .expect("victim is alive");
        // Out-slots of survivors that pointed at the victim are now unfilled:
        // they become protocol work, *not* instantly resampled edges.
        // dangling_dense is sorted by (owner id, slot), so the enqueue order —
        // and with it the whole trajectory — is deterministic.
        for &(owner_idx, slot) in &removed.dangling_dense {
            let owner = self
                .graph
                .handle_at(owner_idx)
                .expect("dangling-slot owners survive the removal");
            self.pending.push(PendingRequest {
                owner,
                slot: slot as u32,
                since_round: self.rounds,
            });
        }
        self.removal_scratch = removed;
        // Pending requests the victim owned are dropped lazily: their handles
        // fail `is_current` in the next repair sweep.
    }

    /// Draws the behavior of a newborn from the adversary substream (the
    /// main stream is never touched). One `f64` draw per spawn for the
    /// fraction-based models; [`AdversaryModel::None`] never calls this.
    fn draw_behavior(&mut self) -> Behavior {
        use rand::Rng;
        match self.config.adversary {
            AdversaryModel::None => Behavior::Honest,
            AdversaryModel::Uniform { fraction, attack }
            | AdversaryModel::Eclipse { fraction, attack } => {
                if self.adv_rng.gen::<f64>() < fraction {
                    attack.behavior()
                } else {
                    Behavior::Honest
                }
            }
            AdversaryModel::JoinFlood {
                fraction,
                cohort,
                attack,
            } => {
                if self.joinflood_remaining > 0 {
                    self.joinflood_remaining -= 1;
                    attack.behavior()
                } else if self.adv_rng.gen::<f64>() < fraction / f64::from(cohort) {
                    self.joinflood_remaining = cohort - 1;
                    attack.behavior()
                } else {
                    Behavior::Honest
                }
            }
        }
    }

    /// Sentinel in the target batch: the request's owner died. Aliases the
    /// graph's bulk-sampling skip sentinel, so the exclusion batch and the
    /// target batch share one coding. An alive [`Behavior::CapSaturator`]
    /// owner is coded with the same sentinel (it never samples a uniform
    /// target — it presses its victim instead); the sweep disambiguates the
    /// two cases with one generation probe.
    const DEAD_OWNER: u32 = churn_graph::SAMPLE_SKIP;
    /// Sentinel in the target batch: no other alive node exists to contact.
    const NO_CANDIDATE: u32 = churn_graph::SAMPLE_NONE;

    /// One repair sweep: every pending request contacts one uniform alive
    /// node. The sweep runs in two phases folded around one bulk graph call:
    /// first the exclusion batch (dead owners coded as skips) is built and
    /// handed to [`DynamicGraph::sample_members_each_excluding_into`], which
    /// draws every first-attempt target inside a single member-table walk —
    /// the draws depend only on the member table, never on earlier accepts,
    /// so this is behaviour-preserving (bit-identical RNG stream) and lets
    /// the per-target cache misses overlap. The queue is then compacted in
    /// place; evictions are staged in `overflow` and appended afterwards, so
    /// the sweep itself never moves the buffer.
    ///
    /// With `attempts_per_round > 1` (reject-and-retry only), a rejected
    /// request resamples inline up to the budget before being carried over;
    /// the default of 1 performs exactly the classic sweep.
    fn repair(&mut self) {
        let mut round = RaesRoundStats {
            round: self.rounds,
            pending_before: self.pending.len(),
            ..RaesRoundStats::default()
        };

        // Tags exist only once an adversary actually corrupted a node, so an
        // honest run (including a configured adversary with fraction 0) takes
        // every pre-existing branch unchanged.
        let byz = self.graph.tags_enabled();

        // Under streaming churn, entries enqueued *this* round (newborn
        // slots, dangling slots of survivors) cannot have dead owners — the
        // round's single death precedes every enqueue — so only carried-over
        // entries pay the generation probe. A Poisson round interleaves many
        // deaths, so there the probe is unconditional.
        let fresh_implies_alive = self.config.churn == ChurnDriver::Streaming;
        self.exclude_scratch.clear();
        for request in &self.pending {
            let alive = (fresh_implies_alive && request.since_round == self.rounds)
                || self.graph.is_current(request.owner);
            self.exclude_scratch.push(if !alive {
                Self::DEAD_OWNER
            } else if byz && self.graph.tag_at(request.owner.index) == Behavior::CapSaturator.tag()
            {
                // Alive saturators never draw a uniform target: the skip
                // sentinel is echoed through the bulk sampler *without*
                // consuming a draw, so honest requests in the same batch see
                // the exact RNG stream they would without the saturator.
                Self::DEAD_OWNER
            } else {
                request.owner.index
            });
        }
        self.sample_scratch.clear();
        self.graph.sample_members_each_excluding_into(
            &mut self.rng,
            &self.exclude_scratch,
            &mut self.sample_scratch,
        );

        let attempts = self.config.attempts_per_round;
        let mut write = 0usize;
        for read in 0..self.pending.len() {
            let request = self.pending[read];
            let target = self.sample_scratch[read];
            if target == Self::DEAD_OWNER {
                if byz
                    && self.graph.is_current(request.owner)
                    && self.graph.tag_at(request.owner.index) == Behavior::CapSaturator.tag()
                {
                    // An alive saturator was coded as a skip: it spends this
                    // slot pressing its victim's cap instead of repairing.
                    round.byz_requests_sent += 1;
                    if !self.press_victim(request, &mut round) {
                        self.pending[write] = request;
                        write += 1;
                    }
                    continue;
                }
                round.dropped += 1;
                continue;
            }
            if target == Self::NO_CANDIDATE {
                // The owner is the only alive node; keep the deficit.
                self.pending[write] = request;
                write += 1;
                continue;
            }
            match self.contact_once(request, target, byz, &mut round) {
                Contact::Connected => {}
                Contact::Phantom => {
                    // AcceptThenDrop: the handshake "succeeded" but the link
                    // is never held — the slot re-enters the queue with its
                    // original age, so its latency keeps accruing.
                    self.pending[write] = request;
                    write += 1;
                }
                Contact::Refused => match self.config.saturation {
                    SaturationPolicy::RejectRetry => {
                        // Remaining attempts: resample inline. The alive set
                        // does not change during a sweep, so the retry draws
                        // stay uniform over the same population.
                        let mut served = false;
                        for _ in 1..attempts {
                            let Some(retry) = self
                                .graph
                                .sample_member_excluding(&mut self.rng, request.owner.index)
                            else {
                                break;
                            };
                            match self.contact_once(request, retry, byz, &mut round) {
                                Contact::Connected => {
                                    served = true;
                                    break;
                                }
                                Contact::Phantom => break,
                                Contact::Refused => {}
                            }
                        }
                        if !served {
                            self.pending[write] = request;
                            write += 1;
                        }
                    }
                    SaturationPolicy::EvictOldest => {
                        // Only a Byzantine refusal reaches here — honest
                        // saturation always evicts-and-connects under this
                        // policy. Keep the deficit.
                        self.pending[write] = request;
                        write += 1;
                    }
                },
            }
        }
        self.pending.truncate(write);
        self.pending.append(&mut self.overflow);
        round.pending_after = self.pending.len();
        self.stats.absorb(&round);
        self.last_round = round;
    }

    /// One contact attempt against `target`: the Byzantine accept/reject
    /// hooks fire first (a refusal is indistinguishable from saturation to
    /// the requester), then the unchanged honest cap check. `byz` is hoisted
    /// from [`DynamicGraph::tags_enabled`] so the honest-only run pays a
    /// single predictable branch and consumes no extra randomness.
    fn contact_once(
        &mut self,
        request: PendingRequest,
        target: u32,
        byz: bool,
        round: &mut RaesRoundStats,
    ) -> Contact {
        round.requests_sent += 1;
        if byz {
            let tag = self.graph.tag_at(target);
            if tag == Behavior::RefuseAll.tag() {
                round.rejected += 1;
                round.byz_refused += 1;
                return Contact::Refused;
            }
            if tag == Behavior::AcceptThenDrop.tag() {
                round.byz_accept_drops += 1;
                return Contact::Phantom;
            }
        }
        let in_degree = self
            .graph
            .in_request_count_at(target)
            .expect("contacted member is alive");
        if in_degree < self.in_cap {
            self.connect(request, target, round);
            return Contact::Connected;
        }
        match self.config.saturation {
            SaturationPolicy::RejectRetry => {
                round.rejected += 1;
                Contact::Refused
            }
            SaturationPolicy::EvictOldest => {
                self.evict_oldest_in_link(target);
                round.evicted += 1;
                self.connect(request, target, round);
                Contact::Connected
            }
        }
    }

    /// One cap-saturator press: resolve (or re-pick) this saturator's victim
    /// and spend the pending slot on the victim's in-degree cap. Returns
    /// `true` when the out-link was filled (the request leaves the queue);
    /// a refused or phantom press keeps the deficit so the saturator presses
    /// again next round.
    fn press_victim(&mut self, request: PendingRequest, round: &mut RaesRoundStats) -> bool {
        let Some(victim) = self.saturator_victim_for(request.owner.index) else {
            return false;
        };
        debug_assert_ne!(victim.index, request.owner.index);
        let served = matches!(
            self.contact_once(request, victim.index, true, round),
            Contact::Connected
        );
        if let Some(occupancy) = self.graph.in_request_count_at(victim.index) {
            round.victim_cap_occupancy = round.victim_cap_occupancy.max(occupancy);
        }
        served
    }

    /// The victim an alive [`Behavior::CapSaturator`] at slab index
    /// `owner_idx` presses this round. Under [`AdversaryModel::Eclipse`] all
    /// saturators share one victim (re-picked from the adversary substream
    /// when it dies); otherwise each saturator keeps its own, cached per slab
    /// index. Returns `None` when no distinct victim exists this round.
    fn saturator_victim_for(&mut self, owner_idx: u32) -> Option<DenseHandle> {
        if matches!(self.config.adversary, AdversaryModel::Eclipse { .. }) {
            if let Some(victim) = self.eclipse_victim {
                if self.graph.is_current(victim) {
                    // The shared victim may be this very saturator; it then
                    // sits the round out rather than re-target everyone.
                    return (victim.index != owner_idx).then_some(victim);
                }
            }
            let victim = self.pick_victim(owner_idx)?;
            self.eclipse_victim = Some(victim);
            return Some(victim);
        }
        let slot = owner_idx as usize;
        if self.saturator_victims.len() <= slot {
            self.saturator_victims.resize(slot + 1, None);
        }
        if let Some(victim) = self.saturator_victims[slot] {
            if self.graph.is_current(victim) && victim.index != owner_idx {
                return Some(victim);
            }
        }
        let victim = self.pick_victim(owner_idx)?;
        self.saturator_victims[slot] = Some(victim);
        Some(victim)
    }

    /// Picks a fresh victim from the adversary substream: up to 8 uniform
    /// draws, preferring an honest (untagged) node; falls back to the last
    /// tagged candidate rather than give up.
    fn pick_victim(&mut self, owner_idx: u32) -> Option<DenseHandle> {
        let mut fallback = None;
        for _ in 0..8 {
            let idx = self
                .graph
                .sample_member_excluding(&mut self.adv_rng, owner_idx)?;
            let handle = self.graph.handle_at(idx).expect("sampled member is alive");
            if self.graph.tag_at(idx) == 0 {
                return Some(handle);
            }
            fallback = Some(handle);
        }
        fallback
    }

    fn connect(&mut self, request: PendingRequest, target: u32, round: &mut RaesRoundStats) {
        self.graph
            .set_out_slot_at(request.owner.index, request.slot as usize, target)
            .expect("owner alive, slot in range, target alive and distinct");
        round.accepted += 1;
        round.repair_latency_sum += self.rounds - request.since_round;
        // Honest split: an empty tag array reads 0 for every index, so at
        // f = 0 the honest counters equal the aggregates identically.
        if self.graph.tag_at(request.owner.index) == 0 {
            round.honest_accepted += 1;
            round.honest_repair_latency_sum += self.rounds - request.since_round;
        }
    }

    /// Sheds the (approximately) oldest in-link of the saturated `target`:
    /// the pointing slot is cleared and its owner re-enters the queue.
    fn evict_oldest_in_link(&mut self, target: u32) {
        let (victim_owner, victim_slot) = self
            .graph
            .shed_oldest_in_ref(target)
            .expect("a saturated node has in-references");
        let owner = self
            .graph
            .handle_at(victim_owner)
            .expect("victim owner is alive");
        self.overflow.push(PendingRequest {
            owner,
            slot: victim_slot as u32,
            since_round: self.rounds,
        });
    }
}

/// Driver hooks (see [`churn_core::driver`]): the churn loops are the shared
/// ones the baseline models run — by construction, not by convention — and
/// RAES contributes only its protocol-specific spawn (slots enter the pending
/// queue) and kill (dangling slots become protocol work).
impl ChurnHost for RaesModel {
    fn spawn(&mut self, time: f64) -> (NodeId, u32) {
        self.spawn_node_at(time)
    }

    fn kill(&mut self, victim: NodeId, victim_idx: u32, _time: f64) {
        self.kill_node(victim, victim_idx);
    }
}

impl PoissonChurnHost for RaesModel {
    fn draw_jump(&mut self, chain: &BirthDeathChain) -> Jump {
        chain.next_jump(self.graph.len() as u64, &mut self.rng)
    }

    fn sample_victim(&mut self) -> (NodeId, u32) {
        match self.config.victim_policy {
            VictimPolicy::Uniform => {
                let victim_idx = self
                    .graph
                    .sample_member(&mut self.rng)
                    .expect("a death event implies at least one alive node");
                let victim = self
                    .graph
                    .id_at(victim_idx)
                    .expect("sampled member is alive");
                (victim, victim_idx)
            }
            VictimPolicy::OldestFirst => driver::oldest_alive_victim(&self.graph, &mut self.order),
            VictimPolicy::HighestDegree => driver::highest_degree_victim_indexed(&mut self.graph),
        }
    }
}

impl DynamicNetwork for RaesModel {
    fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    fn degree_parameter(&self) -> usize {
        self.config.d
    }

    fn expected_size(&self) -> usize {
        self.config.n
    }

    /// RAES repairs severed links (through the protocol rather than instant
    /// resampling), so it reports [`EdgePolicy::Regenerate`].
    fn edge_policy(&self) -> EdgePolicy {
        EdgePolicy::Regenerate
    }

    fn model_kind(&self) -> ModelKind {
        ModelKind::Raes
    }

    /// `ModelKind::Raes` does not encode the churn driver, so this reports
    /// the configured one — analyses branching on the churn process (e.g.
    /// isolation horizons) then pick the right constants automatically.
    fn has_streaming_churn(&self) -> bool {
        self.config.churn == ChurnDriver::Streaming
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn churn_steps(&self) -> u64 {
        self.churn_steps
    }

    fn birth_time(&self, id: NodeId) -> Option<f64> {
        self.birth_time.get(&id).copied()
    }

    fn newest_node(&self) -> Option<NodeId> {
        self.newest.filter(|id| self.graph.contains(*id))
    }

    fn advance_time_unit(&mut self) -> ChurnSummary {
        self.step_round()
    }

    fn warm_up(&mut self) {
        while !self.is_warm() {
            self.step_round();
        }
    }

    fn is_warm(&self) -> bool {
        match self.config.churn {
            // Same reasoning as the streaming baselines: full size at round n,
            // stationary edge structure once every alive node was born after
            // deaths started, i.e. from round 2n.
            ChurnDriver::Streaming => self.rounds >= 2 * self.config.n as u64,
            ChurnDriver::Poisson => self.time >= 3.0 * self.config.n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackKind;

    fn model(n: usize, d: usize, seed: u64) -> RaesModel {
        RaesModel::new(RaesConfig::new(n, d).seed(seed)).expect("valid configuration")
    }

    /// Out-degree plus pending deficit must equal `d` for every alive node,
    /// and the in-degree cap must hold. This is the protocol's core
    /// invariant; the proptest suite exercises it over random parameters.
    fn assert_protocol_invariants(m: &RaesModel) {
        m.graph().assert_invariants();
        let mut deficit: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
        for request in m.pending_requests() {
            assert!(
                m.graph().is_current(request.owner),
                "pending owners are alive after a full round"
            );
            *deficit.entry(request.owner.index).or_insert(0) += 1;
        }
        for &idx in m.graph().member_indices() {
            let id = m.graph().id_at(idx).unwrap();
            let out = m.graph().out_degree(id).unwrap();
            let pending = deficit.get(&idx).copied().unwrap_or(0);
            assert_eq!(
                out + pending,
                m.degree_parameter(),
                "node {id}: out-degree {out} + pending {pending} must equal d"
            );
            assert!(
                m.graph().in_request_count(id).unwrap() <= m.in_degree_cap(),
                "node {id} exceeds the in-degree cap"
            );
        }
    }

    #[test]
    fn construction_rejects_invalid_configuration() {
        assert!(RaesModel::new(RaesConfig::new(1, 3)).is_err());
        assert!(RaesModel::new(RaesConfig::new(10, 0)).is_err());
        assert!(RaesModel::new(RaesConfig::new(10, 3).capacity_factor(0.5)).is_err());
    }

    #[test]
    fn streaming_population_is_exactly_n_after_warm_up() {
        let mut m = model(50, 3, 0);
        m.warm_up();
        assert!(m.is_warm());
        assert_eq!(m.alive_count(), 50);
        for _ in 0..100 {
            m.step_round();
            assert_eq!(m.alive_count(), 50);
        }
    }

    #[test]
    fn poisson_population_concentrates_near_n() {
        let mut m =
            RaesModel::new(RaesConfig::new(300, 4).churn(ChurnDriver::Poisson).seed(5)).unwrap();
        m.warm_up();
        assert!(m.is_warm());
        let size = m.alive_count() as f64;
        assert!(size > 0.7 * 300.0 && size < 1.3 * 300.0);
    }

    #[test]
    fn invariants_hold_throughout_evolution_on_both_drivers() {
        for churn in [ChurnDriver::Streaming, ChurnDriver::Poisson] {
            for policy in [SaturationPolicy::RejectRetry, SaturationPolicy::EvictOldest] {
                let mut m = RaesModel::new(
                    RaesConfig::new(40, 3)
                        .churn(churn)
                        .saturation(policy)
                        .seed(7),
                )
                .unwrap();
                for _ in 0..150 {
                    m.step_round();
                    assert_protocol_invariants(&m);
                }
            }
        }
    }

    #[test]
    fn deficits_are_repaired_quickly_with_slack_capacity() {
        let mut m = model(100, 4, 3);
        m.warm_up();
        // With c = 1.5 the accept capacity has 50% slack, so the pending
        // backlog stays tiny: after any round at most a few requests wait.
        let mut max_pending = 0;
        for _ in 0..200 {
            m.step_round();
            max_pending = max_pending.max(m.pending_requests().len());
        }
        assert!(
            max_pending <= 3 * 4,
            "pending backlog {max_pending} should stay near zero with slack capacity"
        );
        let stats = m.stats();
        assert!(stats.requests_sent > 0 && stats.accepted > 0);
        assert!(
            stats.mean_repair_latency() < 1.0,
            "mean repair latency {} should be well below one round",
            stats.mean_repair_latency()
        );
    }

    #[test]
    fn in_degree_never_exceeds_cap_even_at_tight_capacity() {
        // c = 1: capacity exactly equals demand, so saturation is common and
        // the cap is genuinely exercised.
        for policy in [SaturationPolicy::RejectRetry, SaturationPolicy::EvictOldest] {
            let mut m = RaesModel::new(
                RaesConfig::new(60, 4)
                    .capacity_factor(1.0)
                    .saturation(policy)
                    .seed(11),
            )
            .unwrap();
            let mut saw_saturation = false;
            for _ in 0..240 {
                m.step_round();
                assert!(m.max_in_degree() <= m.in_degree_cap());
                let last = m.last_round_stats();
                saw_saturation |= last.rejected > 0 || last.evicted > 0;
            }
            assert!(
                saw_saturation,
                "{policy}: tight capacity must trigger the saturation path"
            );
            assert_protocol_invariants(&m);
        }
    }

    #[test]
    fn evict_oldest_keeps_out_degree_accounting_consistent() {
        let mut m = RaesModel::new(
            RaesConfig::new(40, 4)
                .capacity_factor(1.0)
                .saturation(SaturationPolicy::EvictOldest)
                .seed(2),
        )
        .unwrap();
        for _ in 0..200 {
            m.step_round();
        }
        assert!(m.stats().evicted > 0, "evictions must actually happen");
        assert_eq!(m.stats().rejected, 0, "evict-oldest never rejects");
        assert_protocol_invariants(&m);
    }

    #[test]
    fn same_seed_gives_identical_evolution() {
        for churn in [ChurnDriver::Streaming, ChurnDriver::Poisson] {
            let config = RaesConfig::new(50, 3).churn(churn).seed(99);
            let mut a = RaesModel::new(config.clone()).unwrap();
            let mut b = RaesModel::new(config).unwrap();
            for _ in 0..150 {
                assert_eq!(a.step_round(), b.step_round());
            }
            assert_eq!(a.alive_ids(), b.alive_ids());
            assert_eq!(a.pending_requests(), b.pending_requests());
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.snapshot(), b.snapshot());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = model(50, 3, 1);
        let mut b = model(50, 3, 2);
        for _ in 0..120 {
            a.step_round();
            b.step_round();
        }
        assert_ne!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn adversarial_victim_policies_keep_protocol_invariants() {
        // The robustness claim of the RAES line of work: the bounded-degree
        // structure survives an adaptive adversary spending the same death
        // budget on chosen victims.
        for policy in [VictimPolicy::OldestFirst, VictimPolicy::HighestDegree] {
            let mut m = RaesModel::new(
                RaesConfig::new(60, 4)
                    .churn(ChurnDriver::Poisson)
                    .victim_policy(policy)
                    .seed(31),
            )
            .unwrap();
            for _ in 0..200 {
                m.step_round();
                assert!(m.max_in_degree() <= m.in_degree_cap(), "{policy}");
            }
            assert_protocol_invariants(&m);
        }
        // Oldest-first deaths hit the oldest alive node: every victim is
        // older than all survivors at its death instant, which over a run
        // means victims die in birth order.
        let mut m = RaesModel::new(
            RaesConfig::new(50, 3)
                .churn(ChurnDriver::Poisson)
                .victim_policy(VictimPolicy::OldestFirst)
                .seed(32),
        )
        .unwrap();
        let mut died = Vec::new();
        for _ in 0..200 {
            died.extend(m.step_round().deaths);
        }
        assert!(!died.is_empty());
        let mut sorted = died.clone();
        sorted.sort_unstable();
        assert_eq!(died, sorted, "victims must die oldest-first");

        // Streaming churn rejects degree-targeted deaths at validation.
        assert!(matches!(
            RaesModel::new(RaesConfig::new(50, 3).victim_policy(VictimPolicy::HighestDegree)),
            Err(churn_core::ModelError::UnsupportedVictimPolicy { .. })
        ));
        // …but accepts oldest-first as a no-op (that is what streaming does).
        assert!(
            RaesModel::new(RaesConfig::new(50, 3).victim_policy(VictimPolicy::OldestFirst)).is_ok()
        );
    }

    #[test]
    fn attempts_per_round_retries_rejections_within_the_round() {
        // attempts = 0 is rejected at validation.
        assert!(matches!(
            RaesModel::new(RaesConfig::new(50, 3).attempts_per_round(0)),
            Err(churn_core::ModelError::InvalidAttempts { requested: 0 })
        ));
        // At c = 1.0 capacity exactly equals demand, so rejections are
        // common; a retry budget must actually spend extra contacts inside
        // the round while every protocol invariant keeps holding.
        let mut m = RaesModel::new(
            RaesConfig::new(60, 4)
                .capacity_factor(1.0)
                .attempts_per_round(4)
                .seed(13),
        )
        .unwrap();
        let mut saw_retry = false;
        for _ in 0..240 {
            m.step_round();
            let last = m.last_round_stats();
            // More contacts than queue entries in one sweep proves an
            // in-round retry happened (a single-attempt sweep never exceeds
            // its queue length).
            saw_retry |= last.requests_sent > last.pending_before;
            assert!(m.max_in_degree() <= m.in_degree_cap());
            assert_eq!(
                last.accepted + last.dropped,
                last.pending_before + last.evicted - last.pending_after,
                "queue accounting must balance with retries"
            );
        }
        assert!(saw_retry, "tight capacity with a retry budget must retry");
        assert_protocol_invariants(&m);
        // The default budget of 1 performs the classic sweep: the request
        // count per round never exceeds the queue length.
        let mut classic = RaesModel::new(RaesConfig::new(60, 4).capacity_factor(1.0).seed(13))
            .expect("valid configuration");
        for _ in 0..240 {
            classic.step_round();
            let last = classic.last_round_stats();
            assert!(last.requests_sent <= last.pending_before);
        }
    }

    #[test]
    fn flooding_completes_over_raes_topologies() {
        use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
        let mut m = model(256, 8, 4);
        m.warm_up();
        let record = run_flooding(
            &mut m,
            FloodingSource::NextToJoin,
            &FloodingConfig::default(),
        );
        assert!(
            record.outcome.is_complete(),
            "RAES keeps the network connected: {:?}",
            record.outcome
        );
        assert!(record.outcome.rounds().unwrap() <= 40);
    }

    #[test]
    fn churn_process_analyses_pick_the_configured_driver() {
        // ModelKind::Raes is neither is_streaming nor is_poisson; the
        // churn-process hook must report the configured driver so analyses
        // like the isolation horizon use the right constants.
        let streaming = model(30, 3, 0);
        assert!(streaming.has_streaming_churn());
        assert_eq!(
            churn_core::isolated::default_isolation_horizon(&streaming),
            30
        );
        let poisson = RaesModel::new(RaesConfig::new(30, 3).churn(ChurnDriver::Poisson)).unwrap();
        assert!(!poisson.has_streaming_churn());
        assert_eq!(
            churn_core::isolated::default_isolation_horizon(&poisson),
            150
        );
    }

    #[test]
    fn dynamic_network_surface_is_consistent() {
        let mut m = model(30, 3, 6);
        assert_eq!(m.model_kind(), ModelKind::Raes);
        assert_eq!(m.degree_parameter(), 3);
        assert_eq!(m.expected_size(), 30);
        assert!(m.edge_policy().regenerates());
        m.warm_up();
        let newest = m.newest_node().unwrap();
        assert_eq!(m.age(newest), Some(0.0));
        for id in m.alive_ids() {
            let birth = m.birth_time(id).unwrap();
            assert!(birth >= 0.0 && birth <= m.time());
        }
        assert!(m.birth_time(NodeId::new(u64::MAX)).is_none());
        let before = m.churn_steps();
        m.advance_time_unit();
        assert!(m.churn_steps() > before);
    }

    #[test]
    fn round_stats_are_self_consistent() {
        let mut m = model(80, 4, 8);
        m.warm_up();
        for _ in 0..50 {
            m.step_round();
            let last = m.last_round_stats();
            assert_eq!(last.round, m.rounds());
            // Accepted and dropped entries leave the queue, evictions add
            // one entry each, rejections stay.
            assert_eq!(
                last.accepted + last.dropped,
                last.pending_before + last.evicted - last.pending_after,
                "queue length accounting must balance"
            );
            assert!(last.requests_sent <= last.pending_before);
        }
    }

    #[test]
    fn zero_fraction_adversary_is_stream_identical_to_none() {
        // The ISSUE's hard requirement: f = 0 must be RNG-stream-identical to
        // the un-adversarial model, for every adversary shape, on both churn
        // drivers and both saturation policies. The adversary substream is
        // drawn at every spawn, but with fraction 0 it never corrupts, so no
        // tag is written and every hot-path branch stays on its honest arm.
        let zeroes = [
            AdversaryModel::Uniform {
                fraction: 0.0,
                attack: AttackKind::RefuseAll,
            },
            AdversaryModel::Eclipse {
                fraction: 0.0,
                attack: AttackKind::CapSaturator,
            },
            AdversaryModel::JoinFlood {
                fraction: 0.0,
                cohort: 4,
                attack: AttackKind::AcceptThenDrop,
            },
        ];
        for churn in [ChurnDriver::Streaming, ChurnDriver::Poisson] {
            for policy in [SaturationPolicy::RejectRetry, SaturationPolicy::EvictOldest] {
                let base = RaesConfig::new(50, 3)
                    .churn(churn)
                    .saturation(policy)
                    .seed(99);
                let mut honest = RaesModel::new(base.clone()).unwrap();
                let mut adversarial: Vec<RaesModel> = zeroes
                    .iter()
                    .map(|&adv| RaesModel::new(base.clone().adversary(adv)).unwrap())
                    .collect();
                for _ in 0..150 {
                    let step = honest.step_round();
                    for m in &mut adversarial {
                        assert_eq!(m.step_round(), step, "{churn:?}/{policy:?}");
                    }
                }
                for m in &adversarial {
                    assert_eq!(m.alive_ids(), honest.alive_ids());
                    assert_eq!(m.pending_requests(), honest.pending_requests());
                    assert_eq!(m.stats(), honest.stats());
                    assert_eq!(m.snapshot(), honest.snapshot());
                    assert_eq!(m.graph().tagged_member_count(), 0);
                }
            }
        }
    }

    #[test]
    fn honest_counters_mirror_aggregates_without_corruption() {
        // Satellite invariant: with no corrupted node the per-behavior
        // counters must sum to the existing aggregates — exactly, per round
        // and cumulatively — for all saturation policies × both drivers.
        for churn in [ChurnDriver::Streaming, ChurnDriver::Poisson] {
            for policy in [SaturationPolicy::RejectRetry, SaturationPolicy::EvictOldest] {
                let mut m = RaesModel::new(
                    RaesConfig::new(60, 4)
                        .churn(churn)
                        .saturation(policy)
                        .capacity_factor(1.0)
                        .seed(21),
                )
                .unwrap();
                for _ in 0..150 {
                    m.step_round();
                    let last = m.last_round_stats();
                    assert_eq!(last.honest_accepted, last.accepted);
                    assert_eq!(last.honest_repair_latency_sum, last.repair_latency_sum);
                    assert_eq!(last.byz_refused, 0);
                    assert_eq!(last.byz_accept_drops, 0);
                    assert_eq!(last.byz_requests_sent, 0);
                    assert_eq!(last.victim_cap_occupancy, 0);
                }
                let stats = m.stats();
                assert_eq!(stats.honest_accepted, stats.accepted);
                assert_eq!(stats.honest_repair_latency_sum, stats.repair_latency_sum);
                assert_eq!(stats.max_victim_cap_occupancy, 0);
                assert_eq!(
                    stats.mean_honest_repair_latency(),
                    stats.mean_repair_latency()
                );
            }
        }
    }

    #[test]
    fn refuse_all_burns_retries_and_is_counted() {
        let adv = AdversaryModel::Uniform {
            fraction: 0.3,
            attack: AttackKind::RefuseAll,
        };
        for policy in [SaturationPolicy::RejectRetry, SaturationPolicy::EvictOldest] {
            let base = RaesConfig::new(60, 4).saturation(policy).seed(17);
            let mut baseline = RaesModel::new(base.clone()).unwrap();
            let mut m = RaesModel::new(base.adversary(adv)).unwrap();
            for _ in 0..200 {
                baseline.step_round();
                m.step_round();
            }
            assert_protocol_invariants(&m);
            assert!(m.graph().tagged_member_count() > 0);
            let stats = m.stats();
            assert!(stats.byz_refused > 0, "refusals must be counted");
            assert!(
                stats.byz_refused <= stats.rejected,
                "Byzantine refusals are a subset of rejections"
            );
            assert!(stats.rejected > baseline.stats().rejected);
            // Refusals push honest repairs into later rounds: latency rises
            // above the (near-zero) slack-capacity baseline.
            assert!(stats.mean_repair_latency() > baseline.stats().mean_repair_latency());
        }
    }

    #[test]
    fn accept_then_drop_keeps_phantom_requests_queued_and_aging() {
        let adv = AdversaryModel::Uniform {
            fraction: 0.3,
            attack: AttackKind::AcceptThenDrop,
        };
        let base = RaesConfig::new(60, 4).seed(23);
        let mut baseline = RaesModel::new(base.clone()).unwrap();
        let mut m = RaesModel::new(base.adversary(adv)).unwrap();
        for _ in 0..200 {
            baseline.step_round();
            m.step_round();
            let last = m.last_round_stats();
            // A phantom handshake keeps its entry in place, so the queue
            // balance identity must hold without any new term.
            assert_eq!(
                last.accepted + last.dropped,
                last.pending_before + last.evicted - last.pending_after,
                "queue accounting must balance under phantom accepts"
            );
        }
        assert_protocol_invariants(&m);
        let stats = m.stats();
        assert!(
            stats.byz_accept_drops > 0,
            "phantom accepts must be counted"
        );
        // The requester never sees a rejection, yet its slot keeps aging:
        // latency rises above baseline while the rejection counter does not.
        assert!(stats.mean_repair_latency() > baseline.stats().mean_repair_latency());
    }

    #[test]
    fn cap_saturator_presses_a_victim_to_its_cap() {
        for adv in [
            AdversaryModel::Uniform {
                fraction: 0.25,
                attack: AttackKind::CapSaturator,
            },
            AdversaryModel::Eclipse {
                fraction: 0.25,
                attack: AttackKind::CapSaturator,
            },
        ] {
            let mut m = RaesModel::new(RaesConfig::new(60, 4).adversary(adv).seed(29)).unwrap();
            for _ in 0..300 {
                m.step_round();
            }
            assert_protocol_invariants(&m);
            let stats = m.stats();
            assert!(
                stats.byz_requests_sent > 0,
                "saturators must press: {adv:?}"
            );
            assert_eq!(
                stats.max_victim_cap_occupancy,
                m.in_degree_cap() as u64,
                "sustained pressing must fill the victim's cap exactly: {adv:?}"
            );
            if matches!(adv, AdversaryModel::Eclipse { .. }) {
                assert!(m.eclipse_victim.is_some(), "eclipse shares one victim");
            }
        }
    }

    #[test]
    fn silent_on_flood_is_protocol_honest_but_tagged() {
        // SilentOnFlood only poisons the flooding overlay (covered by the
        // churn-core engine tests); on the repair path it is bit-for-bit the
        // honest protocol even though tags are set and the Byzantine branches
        // are live.
        let adv = AdversaryModel::Uniform {
            fraction: 0.3,
            attack: AttackKind::SilentOnFlood,
        };
        let base = RaesConfig::new(60, 4).seed(31);
        let mut honest = RaesModel::new(base.clone()).unwrap();
        let mut silent = RaesModel::new(base.adversary(adv)).unwrap();
        for _ in 0..200 {
            assert_eq!(silent.step_round(), honest.step_round());
        }
        assert_eq!(silent.alive_ids(), honest.alive_ids());
        assert_eq!(silent.snapshot(), honest.snapshot());
        assert!(silent.graph().tagged_member_count() > 0);
        let stats = silent.stats();
        assert_eq!(stats.byz_refused, 0);
        assert_eq!(stats.byz_accept_drops, 0);
        assert_eq!(stats.byz_requests_sent, 0);
        assert_eq!(stats.accepted, honest.stats().accepted);
        assert!(
            stats.honest_accepted < stats.accepted,
            "repairs owned by corrupted nodes are not honest accepts"
        );
    }

    #[test]
    fn join_flood_corrupts_in_cohort_bursts() {
        let adv = AdversaryModel::JoinFlood {
            fraction: 0.2,
            cohort: 5,
            attack: AttackKind::RefuseAll,
        };
        let mut m = RaesModel::new(RaesConfig::new(60, 4).adversary(adv).seed(37)).unwrap();
        let mut run = 0usize;
        let mut max_run = 0usize;
        for _ in 0..600 {
            let step = m.step_round();
            for &id in &step.births {
                let idx = m.graph().dense_index_of(id).expect("newborn is alive");
                if m.graph().tag_at(idx) != 0 {
                    run += 1;
                    max_run = max_run.max(run);
                } else {
                    run = 0;
                }
            }
        }
        assert!(
            max_run >= 5,
            "a fired burst corrupts a whole cohort of consecutive spawns (max run {max_run})"
        );
        assert!(m.stats().byz_refused > 0);
        assert_protocol_invariants(&m);
    }
}
