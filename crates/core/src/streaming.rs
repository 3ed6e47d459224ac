//! The streaming dynamic graph models SDG and SDGR (Definitions 3.2, 3.4, 3.13).

use std::collections::VecDeque;

use churn_graph::{DynamicGraph, NodeId, NodeIdAllocator, RemovedNode};
use churn_stochastic::rng::{seeded_rng, SimRng};

use crate::driver::{self, ChurnHost};
use crate::model::DynamicNetwork;
use crate::{ChurnSummary, EdgePolicy, Result, StreamingConfig};

/// The streaming dynamic graph: SDG without edge regeneration, SDGR with it.
///
/// Churn follows Definition 3.2: at every round exactly one node joins, and the
/// node that joined `n` rounds earlier leaves (so after the first `n` rounds the
/// network holds exactly `n` nodes, each alive for exactly `n` rounds). Topology
/// follows Definition 3.4 (or 3.13 with [`EdgePolicy::Regenerate`]): the joining
/// node opens `d` connection requests towards uniformly random alive nodes;
/// every edge disappears with either endpoint; with regeneration a dangling
/// request is immediately re-pointed at a fresh uniformly random alive node.
///
/// Within a round the order of operations is *death first, then birth*: the
/// node expiring at round `t` leaves (and, under regeneration, the survivors
/// repair their requests among the `n − 1` remaining nodes) before the round-`t`
/// newborn picks its `d` targets. This matches the `(1 + 1/(n−1))^k` edge
/// probability of Lemma 3.14.
///
/// # Example
///
/// ```
/// use churn_core::{DynamicNetwork, StreamingConfig, StreamingModel};
///
/// # fn main() -> Result<(), churn_core::ModelError> {
/// let mut model = StreamingModel::new(StreamingConfig::new(100, 4).seed(1))?;
/// model.warm_up();
/// assert_eq!(model.alive_count(), 100);
/// model.advance_time_unit();
/// assert_eq!(model.alive_count(), 100, "stationary size is exactly n");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingModel {
    config: StreamingConfig,
    graph: DynamicGraph,
    rng: SimRng,
    round: u64,
    /// Birth order of alive nodes as `(id, dense index)`; the front is the
    /// oldest. Dense indices stay valid for a node's whole lifetime, so the
    /// expiring node can be removed without an identifier lookup.
    order: VecDeque<(NodeId, u32)>,
    alloc: NodeIdAllocator,
    /// Reused buffers: the removal report, the batch of regenerating owners
    /// and the batch of sampled targets. Steady-state rounds allocate
    /// nothing.
    removal_scratch: RemovedNode,
    owner_scratch: Vec<u32>,
    sample_scratch: Vec<u32>,
}

impl StreamingModel {
    /// Builds an empty (round 0) streaming model.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`StreamingConfig::validate`].
    pub fn new(config: StreamingConfig) -> Result<Self> {
        config.validate()?;
        let rng = seeded_rng(config.seed);
        Ok(StreamingModel {
            graph: DynamicGraph::with_capacity(config.n + 1),
            rng,
            round: 0,
            order: VecDeque::with_capacity(config.n + 1),
            alloc: NodeIdAllocator::new(),
            removal_scratch: RemovedNode::default(),
            owner_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            config,
        })
    }

    /// The configuration the model was built from.
    #[must_use]
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The current round index (0 before the first step).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Which of the paper's models this instance realises (SDG or SDGR).
    #[must_use]
    pub fn model_kind(&self) -> crate::ModelKind {
        if self.config.edge_policy.regenerates() {
            crate::ModelKind::Sdgr
        } else {
            crate::ModelKind::Sdg
        }
    }

    /// Birth round of an alive node.
    ///
    /// Identifiers are allocated monotonically, exactly one per round, so the
    /// birth round of the node with raw identifier `k` is `k + 1` — no
    /// per-node bookkeeping needed beyond the aliveness check.
    #[must_use]
    pub fn birth_round(&self, id: NodeId) -> Option<u64> {
        self.graph.contains(id).then(|| id.raw() + 1)
    }

    /// Age (in rounds) of an alive node: a node born this round has age 0, the
    /// oldest alive node has age `n − 1`.
    #[must_use]
    pub fn age_rounds(&self, id: NodeId) -> Option<u64> {
        self.birth_round(id).map(|b| self.round - b)
    }

    /// Executes one round: the node that joined `n` rounds ago dies (if any),
    /// then a new node joins and opens its `d` requests. The death-first
    /// order and queue mechanics live in the shared
    /// [`driver::streaming_round`] loop; this model contributes only its
    /// spawn/kill hooks.
    pub fn step_round(&mut self) -> ChurnSummary {
        let mut summary = ChurnSummary::new();
        self.step_round_into(&mut summary);
        summary
    }

    /// [`Self::step_round`] into a caller-owned summary (cleared first), so
    /// the warm-up's `2n` rounds reuse one buffer instead of allocating two
    /// vectors per round.
    fn step_round_into(&mut self, summary: &mut ChurnSummary) {
        summary.clear();
        self.round += 1;
        // Detach the queue so the driver can mutate it alongside the hooks
        // (a move of the VecDeque header, no allocation).
        let mut order = std::mem::take(&mut self.order);
        driver::streaming_round(self, &mut order, self.config.n, self.round as f64, summary);
        self.order = order;
    }

    fn spawn_node(&mut self) -> (NodeId, u32) {
        let id = self.alloc.next_id();
        let d = self.config.d;
        let idx = self
            .graph
            .add_node_indexed(id, d)
            .expect("allocator never reuses identifiers");
        // d independent uniform requests among the nodes already in the
        // network (the newborn itself is excluded by index, an O(1) slab
        // draw). The batch call gathers every target's cell after drawing,
        // so the writes below hit cache.
        self.sample_scratch.clear();
        self.graph
            .sample_members_excluding_into(&mut self.rng, idx, d, &mut self.sample_scratch);
        for slot in 0..self.sample_scratch.len() {
            let target_idx = self.sample_scratch[slot];
            self.graph
                .set_out_slot_at(idx, slot, target_idx)
                .expect("slot in range, target alive, no self-loop");
        }
        debug_assert_eq!(self.birth_round(id), Some(self.round));
        (id, idx)
    }

    fn kill_node(&mut self, victim_idx: u32) {
        let mut removed = std::mem::take(&mut self.removal_scratch);
        self.graph
            .remove_node_into(victim_idx, &mut removed)
            .expect("victim from the order queue is alive");
        if self.config.edge_policy.regenerates() {
            driver::regenerate(
                &mut self.graph,
                &mut self.rng,
                &removed,
                &mut self.owner_scratch,
                &mut self.sample_scratch,
            );
        }
        self.removal_scratch = removed;
    }
}

/// Driver hooks (see [`crate::driver`]): the streaming loop owns the birth
/// order and the death-before-birth sequencing; the model only spawns and
/// kills. The `time` argument is redundant for streaming models, whose
/// clock is the round counter.
impl ChurnHost for StreamingModel {
    fn spawn(&mut self, _time: f64) -> (NodeId, u32) {
        self.spawn_node()
    }

    fn kill(&mut self, _victim: NodeId, victim_idx: u32, _time: f64) {
        self.kill_node(victim_idx);
    }
}

impl DynamicNetwork for StreamingModel {
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

    fn edge_policy(&self) -> EdgePolicy {
        self.config.edge_policy
    }

    fn has_streaming_churn(&self) -> bool {
        true
    }

    fn time(&self) -> f64 {
        self.round as f64
    }

    fn churn_steps(&self) -> u64 {
        self.round
    }

    fn birth_time(&self, id: NodeId) -> Option<f64> {
        self.birth_round(id).map(|r| r as f64)
    }

    fn newest_node(&self) -> Option<NodeId> {
        self.order.back().map(|&(id, _)| id)
    }

    fn advance_time_unit(&mut self) -> ChurnSummary {
        self.step_round()
    }

    fn warm_up(&mut self) {
        let mut summary = ChurnSummary::new();
        while !self.is_warm() {
            self.step_round_into(&mut summary);
        }
    }

    fn is_warm(&self) -> bool {
        // Round n is when the network first reaches full size, but deaths only
        // begin at round n + 1, so the edge structure at round n is atypical
        // (every node still holds all d of its requests). The process is exactly
        // stationary once every alive node was born after deaths started, i.e.
        // from round 2n onwards — that is the regime the paper's "for every
        // fixed t > n" statements describe.
        self.round >= 2 * self.config.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_graph::Snapshot;
    use churn_stochastic::OnlineStats;
    use std::collections::HashMap;

    fn model(n: usize, d: usize, policy: EdgePolicy, seed: u64) -> StreamingModel {
        StreamingModel::new(StreamingConfig::new(n, d).edge_policy(policy).seed(seed))
            .expect("valid configuration")
    }

    #[test]
    fn construction_rejects_invalid_configuration() {
        assert!(StreamingModel::new(StreamingConfig::new(1, 3)).is_err());
        assert!(StreamingModel::new(StreamingConfig::new(10, 0)).is_err());
    }

    #[test]
    fn population_grows_then_stays_exactly_n() {
        let mut m = model(50, 3, EdgePolicy::Static, 0);
        for round in 1..=50u64 {
            m.step_round();
            assert_eq!(m.alive_count() as u64, round);
        }
        for _ in 0..120 {
            m.step_round();
            assert_eq!(m.alive_count(), 50, "stationary size is exactly n");
        }
        assert!(m.is_warm(), "round 170 is past the 2n warm-up point");
    }

    #[test]
    fn every_node_lives_exactly_n_rounds() {
        let n = 30;
        let mut m = model(n, 2, EdgePolicy::Static, 1);
        let mut birth: HashMap<NodeId, u64> = HashMap::new();
        let mut death: HashMap<NodeId, u64> = HashMap::new();
        for _ in 0..200 {
            let summary = m.step_round();
            for b in summary.births {
                birth.insert(b, m.round());
            }
            for dd in summary.deaths {
                death.insert(dd, m.round());
            }
        }
        assert!(!death.is_empty());
        for (id, died_at) in death {
            let born_at = birth[&id];
            assert_eq!(
                died_at - born_at,
                n as u64,
                "node {id} should die exactly n rounds after joining"
            );
        }
    }

    #[test]
    fn warm_up_is_idempotent_and_reaches_round_two_n() {
        let mut m = model(40, 3, EdgePolicy::Static, 2);
        m.warm_up();
        assert_eq!(m.round(), 80);
        m.warm_up();
        assert_eq!(m.round(), 80, "warming an already warm model is a no-op");
    }

    #[test]
    fn ages_span_zero_to_n_minus_one_after_warm_up() {
        let mut m = model(25, 3, EdgePolicy::Static, 3);
        m.warm_up();
        let mut ages: Vec<u64> = m
            .alive_ids()
            .into_iter()
            .map(|id| m.age_rounds(id).unwrap())
            .collect();
        ages.sort_unstable();
        assert_eq!(ages, (0..25u64).collect::<Vec<_>>());
        assert_eq!(m.age_rounds(m.newest_node().unwrap()), Some(0));
    }

    #[test]
    fn newborn_opens_d_requests_towards_alive_nodes() {
        let mut m = model(60, 5, EdgePolicy::Static, 4);
        m.warm_up();
        let summary = m.step_round();
        let newborn = summary.births[0];
        assert_eq!(m.graph().out_degree(newborn), Some(5));
        for target in m.graph().out_slots(newborn).unwrap().iter().flatten() {
            assert!(m.contains(*target));
            assert_ne!(*target, newborn);
        }
    }

    #[test]
    fn without_regeneration_out_degree_decays_with_age() {
        // Old nodes lose out-edges as their targets die and are never repaired:
        // the mechanism behind the isolated nodes of Lemma 3.5.
        let mut m = model(80, 4, EdgePolicy::Static, 5);
        m.warm_up();
        for _ in 0..200 {
            m.step_round();
        }
        let oldest = m
            .alive_ids()
            .into_iter()
            .max_by_key(|&id| m.age_rounds(id))
            .unwrap();
        let newest = m.newest_node().unwrap();
        // The newest node always has full out-degree, the oldest rarely does; we
        // assert the weaker deterministic fact that the oldest cannot exceed d
        // and the structural invariants hold.
        assert!(m.graph().out_degree(oldest).unwrap() <= 4);
        assert_eq!(m.graph().out_degree(newest), Some(4));
        m.graph().assert_invariants();
    }

    #[test]
    fn with_regeneration_every_node_keeps_out_degree_d() {
        let mut m = model(80, 4, EdgePolicy::Regenerate, 6);
        m.warm_up();
        for _ in 0..200 {
            m.step_round();
            // Every alive node keeps exactly d out-going requests at all times
            // (Definition 3.13), except in the degenerate first rounds.
            for id in m.alive_ids() {
                assert_eq!(m.graph().out_degree(id), Some(4));
            }
        }
        assert_eq!(m.graph().filled_slot_count(), 80 * 4);
        m.graph().assert_invariants();
    }

    #[test]
    fn expected_degree_is_d_without_regeneration() {
        // Lemma 6.1: the expected degree of a node in a warm SDG snapshot is d.
        let mut m = model(400, 6, EdgePolicy::Static, 7);
        m.warm_up();
        let mut stats = OnlineStats::new();
        for _ in 0..20 {
            for _ in 0..20 {
                m.step_round();
            }
            let snap = Snapshot::of(m.graph());
            stats.push(churn_graph::metrics::average_degree(&snap));
        }
        assert!(
            (stats.mean() - 6.0).abs() < 0.5,
            "mean degree {} should be close to d = 6",
            stats.mean()
        );
    }

    #[test]
    fn same_seed_gives_identical_evolution() {
        let mut a = model(50, 3, EdgePolicy::Regenerate, 99);
        let mut b = model(50, 3, EdgePolicy::Regenerate, 99);
        for _ in 0..150 {
            a.step_round();
            b.step_round();
        }
        assert_eq!(a.alive_ids(), b.alive_ids());
        let snap_a = Snapshot::of(a.graph());
        let snap_b = Snapshot::of(b.graph());
        assert_eq!(snap_a, snap_b);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = model(50, 3, EdgePolicy::Static, 1);
        let mut b = model(50, 3, EdgePolicy::Static, 2);
        for _ in 0..100 {
            a.step_round();
            b.step_round();
        }
        assert_ne!(Snapshot::of(a.graph()), Snapshot::of(b.graph()));
    }

    #[test]
    fn model_kind_reflects_edge_policy() {
        assert_eq!(
            model(10, 2, EdgePolicy::Static, 0).model_kind(),
            crate::ModelKind::Sdg
        );
        assert_eq!(
            model(10, 2, EdgePolicy::Regenerate, 0).model_kind(),
            crate::ModelKind::Sdgr
        );
    }

    #[test]
    fn graph_invariants_hold_throughout_evolution() {
        let mut m = model(30, 3, EdgePolicy::Regenerate, 10);
        for _ in 0..120 {
            m.step_round();
            m.graph().assert_invariants();
        }
        let mut m = model(30, 3, EdgePolicy::Static, 10);
        for _ in 0..120 {
            m.step_round();
            m.graph().assert_invariants();
        }
    }
}
