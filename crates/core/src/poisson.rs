//! The Poisson dynamic graph models PDG and PDGR (Definitions 4.1, 4.9, 4.14).

use std::collections::VecDeque;

use churn_graph::{DynamicGraph, NodeId, NodeIdAllocator, RemovedNode};
use churn_stochastic::process::{BirthDeathChain, Jump, JumpKind};
use churn_stochastic::rng::{seeded_rng, SimRng};

use crate::driver::{self, ChurnHost, JumpClock, PoissonChurnHost, VictimPolicy};
use crate::model::DynamicNetwork;
use crate::{ChurnSummary, EdgePolicy, PoissonConfig, Result};

/// The kind of churn event a Poisson jump realised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoissonEvent {
    /// A node joined at the given time.
    Arrival {
        /// The new node.
        id: NodeId,
        /// Continuous time of the arrival.
        time: f64,
    },
    /// A node died at the given time.
    Departure {
        /// The departed node.
        id: NodeId,
        /// Continuous time of the departure.
        time: f64,
    },
}

/// The Poisson dynamic graph: PDG without edge regeneration, PDGR with it.
///
/// Node churn follows Definition 4.1: arrivals form a Poisson process with rate
/// λ and every node's lifetime is exponential with rate µ, so the expected
/// stationary population is `n = λ/µ`. The simulation advances along the *jump
/// chain* of Definition 4.5 (Lemma 4.6): with `N` alive nodes the next event
/// arrives after an `Exp(Nµ + λ)` waiting time and is a death of a uniformly
/// random alive node with probability `Nµ/(Nµ + λ)`, an arrival otherwise.
///
/// Topology follows Definition 4.9 (or 4.14 under [`EdgePolicy::Regenerate`]):
/// the joining node opens `d` requests towards uniformly random alive nodes,
/// edges vanish with either endpoint, and regeneration re-points dangling
/// requests at fresh uniform targets immediately.
///
/// # Example
///
/// ```
/// use churn_core::{DynamicNetwork, PoissonConfig, PoissonModel};
///
/// # fn main() -> Result<(), churn_core::ModelError> {
/// let mut model = PoissonModel::new(PoissonConfig::with_expected_size(300, 6).seed(5))?;
/// model.warm_up();
/// let size = model.alive_count() as f64;
/// assert!(size > 0.7 * 300.0 && size < 1.3 * 300.0, "population concentrates near n");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PoissonModel {
    config: PoissonConfig,
    graph: DynamicGraph,
    rng: SimRng,
    chain: BirthDeathChain,
    time: f64,
    jumps: u64,
    /// Birth time of each slab cell's current occupant, indexed by dense
    /// index. Written on spawn; a vacated cell keeps its stale value until
    /// the next occupant overwrites it, and is never read in between
    /// ([`DynamicNetwork::birth_time`] resolves only alive identifiers).
    birth_time: Vec<f64>,
    alloc: NodeIdAllocator,
    newest: Option<NodeId>,
    /// Reused buffers: the removal report, the batch of regenerating owners
    /// and the batch of sampled targets. Steady-state jumps allocate nothing.
    removal_scratch: RemovedNode,
    owner_scratch: Vec<u32>,
    sample_scratch: Vec<u32>,
    /// Birth-order queue (front = oldest), maintained only under
    /// [`VictimPolicy::OldestFirst`] and compacted lazily by the shared
    /// [`driver::oldest_alive_victim`] selector.
    order: VecDeque<(NodeId, u32)>,
}

impl PoissonModel {
    /// Builds an empty (time 0) Poisson model.
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`PoissonConfig::validate`].
    pub fn new(config: PoissonConfig) -> Result<Self> {
        config.validate()?;
        let rng = seeded_rng(config.seed);
        let chain = BirthDeathChain::new(config.lambda, config.mu);
        let capacity = config.expected_size() + 16;
        let mut graph = DynamicGraph::with_capacity(capacity);
        if config.victim_policy == VictimPolicy::HighestDegree {
            // Degree-targeted deaths read the hub through the bucketed index
            // (amortised O(1) per incident edge change) instead of scanning
            // all members per death.
            graph.set_degree_index(true);
        }
        Ok(PoissonModel {
            graph,
            rng,
            chain,
            time: 0.0,
            jumps: 0,
            birth_time: Vec::with_capacity(capacity),
            alloc: NodeIdAllocator::new(),
            newest: None,
            removal_scratch: RemovedNode::default(),
            owner_scratch: Vec::new(),
            sample_scratch: Vec::new(),
            order: VecDeque::new(),
            config,
        })
    }

    /// The configuration the model was built from.
    #[must_use]
    pub fn config(&self) -> &PoissonConfig {
        &self.config
    }

    /// Which of the paper's models this instance realises (PDG or PDGR).
    #[must_use]
    pub fn model_kind(&self) -> crate::ModelKind {
        if self.config.edge_policy.regenerates() {
            crate::ModelKind::Pdgr
        } else {
            crate::ModelKind::Pdg
        }
    }

    /// Processes exactly one jump-chain event and returns it.
    pub fn next_jump(&mut self) -> PoissonEvent {
        let jump = self.chain.next_jump(self.graph.len() as u64, &mut self.rng);
        self.time += jump.waiting_time;
        self.jumps += 1;
        match jump.kind {
            JumpKind::Birth => {
                let (id, _) = self.spawn_node_at(self.time);
                PoissonEvent::Arrival {
                    id,
                    time: self.time,
                }
            }
            JumpKind::Death => {
                let (victim, victim_idx) = self.sample_victim_node();
                self.kill_node(victim, victim_idx);
                PoissonEvent::Departure {
                    id: victim,
                    time: self.time,
                }
            }
        }
    }

    /// Advances continuous time up to `target`, processing every churn event in
    /// between. Relies on the memorylessness of the exponential waiting times:
    /// a sampled waiting time that would overshoot `target` is discarded and the
    /// clock simply set to `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is NaN or lies in the past.
    pub fn advance_until(&mut self, target: f64) -> ChurnSummary {
        assert!(!target.is_nan(), "target time must not be NaN");
        assert!(
            target >= self.time,
            "cannot advance to {target} before the current time {}",
            self.time
        );
        // The jump-chain mechanics (overshoot handling included) live in the
        // shared driver; this model contributes its spawn/kill hooks. The
        // clock is detached for the call because the hooks mutably borrow
        // `self`.
        let mut summary = ChurnSummary::new();
        let chain = self.chain;
        let mut clock = JumpClock {
            time: self.time,
            jumps: self.jumps,
        };
        driver::poisson_advance_until(self, &chain, &mut clock, target, &mut summary);
        self.time = clock.time;
        self.jumps = clock.jumps;
        summary
    }

    fn sample_victim_node(&mut self) -> (NodeId, u32) {
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

    fn spawn_node_at(&mut self, time: f64) -> (NodeId, u32) {
        let id = self.alloc.next_id();
        let d = self.config.d;
        let idx = self
            .graph
            .add_node_indexed(id, d)
            .expect("allocator never reuses identifiers");
        // d uniform requests among the pre-existing nodes: the newborn is
        // already registered in the member list, so exclude it by index.
        // The batch call gathers every target's cell after drawing, so the
        // writes below hit cache.
        self.sample_scratch.clear();
        self.graph
            .sample_members_excluding_into(&mut self.rng, idx, d, &mut self.sample_scratch);
        for slot in 0..self.sample_scratch.len() {
            let target_idx = self.sample_scratch[slot];
            self.graph
                .set_out_slot_at(idx, slot, target_idx)
                .expect("valid request");
        }
        // The slab grows one cell at a time, so this is a no-op or a push.
        self.birth_time.resize(self.graph.slab_len(), f64::NAN);
        self.birth_time[idx as usize] = time;
        self.newest = Some(id);
        if self.config.victim_policy == VictimPolicy::OldestFirst {
            self.order.push_back((id, idx));
        }
        (id, idx)
    }

    fn kill_node(&mut self, victim: NodeId, victim_idx: u32) {
        if self.newest == Some(victim) {
            self.newest = None;
        }
        let mut removed = std::mem::take(&mut self.removal_scratch);
        self.graph
            .remove_node_into(victim_idx, &mut removed)
            .expect("sampled victim is alive");
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

/// Driver hooks (see [`crate::driver`]): the jump-chain loop lives in the
/// shared driver; this model contributes spawning, killing, victim sampling
/// and the jump draw (all randomness stays on the model's own RNG, in the
/// pre-extraction order).
impl ChurnHost for PoissonModel {
    fn spawn(&mut self, time: f64) -> (NodeId, u32) {
        self.spawn_node_at(time)
    }

    fn kill(&mut self, victim: NodeId, victim_idx: u32, _time: f64) {
        self.kill_node(victim, victim_idx);
    }
}

impl PoissonChurnHost for PoissonModel {
    fn draw_jump(&mut self, chain: &BirthDeathChain) -> Jump {
        chain.next_jump(self.graph.len() as u64, &mut self.rng)
    }

    fn sample_victim(&mut self) -> (NodeId, u32) {
        self.sample_victim_node()
    }
}

impl DynamicNetwork for PoissonModel {
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
        self.config.expected_size()
    }

    fn edge_policy(&self) -> EdgePolicy {
        self.config.edge_policy
    }

    fn model_kind(&self) -> crate::ModelKind {
        PoissonModel::model_kind(self)
    }

    fn time(&self) -> f64 {
        self.time
    }

    fn churn_steps(&self) -> u64 {
        self.jumps
    }

    fn birth_time(&self, id: NodeId) -> Option<f64> {
        self.graph
            .dense_index_of(id)
            .map(|idx| self.birth_time[idx as usize])
    }

    fn newest_node(&self) -> Option<NodeId> {
        self.newest.filter(|id| self.graph.contains(*id))
    }

    fn advance_time_unit(&mut self) -> ChurnSummary {
        let target = self.time + 1.0;
        self.advance_until(target)
    }

    fn warm_up(&mut self) {
        let target = 3.0 * self.expected_size() as f64;
        if self.time < target {
            // Discard-summary path: the warm-up window spans ~5n churn
            // events, and the net-effect summary bookkeeping is quadratic in
            // window length (each death scans the window's births) — minutes
            // at n = 10^6, for a report nobody reads. Same RNG stream, same
            // trajectory.
            let chain = self.chain;
            let mut clock = JumpClock {
                time: self.time,
                jumps: self.jumps,
            };
            driver::poisson_advance_until_discarding(self, &chain, &mut clock, target);
            self.time = clock.time;
            self.jumps = clock.jumps;
        }
    }

    fn is_warm(&self) -> bool {
        self.time >= 3.0 * self.expected_size() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_graph::Snapshot;
    use churn_stochastic::OnlineStats;
    use std::collections::HashMap;

    fn model(n: usize, d: usize, policy: EdgePolicy, seed: u64) -> PoissonModel {
        PoissonModel::new(
            PoissonConfig::with_expected_size(n, d)
                .edge_policy(policy)
                .seed(seed),
        )
        .expect("valid configuration")
    }

    #[test]
    fn construction_rejects_invalid_configuration() {
        assert!(PoissonModel::new(PoissonConfig::with_rates(-1.0, 0.1, 3)).is_err());
        assert!(PoissonModel::new(PoissonConfig::with_expected_size(100, 0)).is_err());
    }

    #[test]
    fn population_concentrates_around_expected_size() {
        // Lemma 4.4: for t >= 3n the population is within [0.9 n, 1.1 n] w.h.p.
        let mut m = model(500, 4, EdgePolicy::Static, 0);
        m.warm_up();
        assert!(m.is_warm());
        // Sample well past the initial fill-up transient (population approaches n
        // as 1 - e^{-t/n}, so by t = 6n the residual bias is below 0.3%).
        m.advance_until(6.0 * 500.0);
        let mut stats = OnlineStats::new();
        let mut in_band = 0usize;
        let samples = 200;
        for _ in 0..samples {
            m.advance_time_unit();
            let size = m.alive_count() as f64;
            stats.push(size);
            if (450.0..=550.0).contains(&size) {
                in_band += 1;
            }
        }
        assert!(
            (stats.mean() - 500.0).abs() < 50.0,
            "mean population {} should be near 500",
            stats.mean()
        );
        assert!(
            in_band as f64 / samples as f64 > 0.8,
            "population should stay in [0.9n, 1.1n] most of the time"
        );
    }

    #[test]
    fn time_advances_monotonically_and_jump_count_increases() {
        let mut m = model(100, 3, EdgePolicy::Static, 1);
        let mut last_time = 0.0;
        for _ in 0..500 {
            let event = m.next_jump();
            let t = match event {
                PoissonEvent::Arrival { time, .. } | PoissonEvent::Departure { time, .. } => time,
            };
            assert!(t >= last_time);
            last_time = t;
        }
        assert_eq!(m.churn_steps(), 500);
        assert!((m.time() - last_time).abs() < 1e-12);
    }

    #[test]
    fn advance_until_stops_exactly_at_target() {
        let mut m = model(100, 3, EdgePolicy::Static, 2);
        m.advance_until(25.0);
        assert!((m.time() - 25.0).abs() < 1e-12);
        m.advance_until(25.0);
        assert!(
            (m.time() - 25.0).abs() < 1e-12,
            "advancing to now is a no-op"
        );
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn advance_until_rejects_past_targets() {
        let mut m = model(100, 3, EdgePolicy::Static, 3);
        m.advance_until(10.0);
        m.advance_until(5.0);
    }

    #[test]
    fn lifetimes_are_exponential_with_mean_n() {
        let n = 200usize;
        let mut m = PoissonModel::new(PoissonConfig::with_expected_size(n, 2).seed(4)).unwrap();
        let mut births: HashMap<NodeId, f64> = HashMap::new();
        let mut lifetimes = OnlineStats::new();
        // Births and deaths come from the per-unit churn summaries, so a
        // death is stamped with the end of the unit it happened in.
        for _ in 0..8 * n {
            let summary = m.advance_time_unit();
            for id in summary.births {
                births.insert(id, m.birth_time(id).expect("summary births are alive"));
            }
            for id in summary.deaths {
                // Only count nodes born early enough that right-censoring by the
                // end of the observation window is negligible (survival past
                // 6n has probability e^{-6}).
                if let Some(&b) = births.get(&id) {
                    if b < 2.0 * n as f64 {
                        lifetimes.push(m.time() - b);
                    }
                }
            }
        }
        assert!(lifetimes.count() > 250);
        assert!(
            (lifetimes.mean() - n as f64).abs() < 0.15 * n as f64,
            "mean lifetime {} should be close to n = {n}",
            lifetimes.mean()
        );
    }

    #[test]
    fn newborn_opens_d_requests() {
        let mut m = model(300, 7, EdgePolicy::Static, 5);
        m.warm_up();
        // Find the next arrival.
        let id = loop {
            if let PoissonEvent::Arrival { id, .. } = m.next_jump() {
                break id;
            }
        };
        assert_eq!(m.graph().out_degree(id), Some(7));
        assert_eq!(m.newest_node(), Some(id));
    }

    #[test]
    fn with_regeneration_out_degree_stays_d() {
        let mut m = model(150, 5, EdgePolicy::Regenerate, 6);
        m.warm_up();
        for _ in 0..300 {
            m.next_jump();
        }
        for id in m.alive_ids() {
            assert_eq!(
                m.graph().out_degree(id),
                Some(5),
                "PDGR keeps out-degree exactly d"
            );
        }
        m.graph().assert_invariants();
    }

    #[test]
    fn without_regeneration_old_nodes_lose_out_edges() {
        let mut m = model(150, 5, EdgePolicy::Static, 7);
        m.warm_up();
        for _ in 0..2_000 {
            m.next_jump();
        }
        let any_decayed = m
            .alive_ids()
            .iter()
            .any(|&id| m.graph().out_degree(id).unwrap() < 5);
        assert!(
            any_decayed,
            "in PDG some nodes must have lost out-edges to dead neighbours"
        );
        m.graph().assert_invariants();
    }

    #[test]
    fn same_seed_gives_identical_evolution() {
        let mut a = model(100, 4, EdgePolicy::Regenerate, 11);
        let mut b = model(100, 4, EdgePolicy::Regenerate, 11);
        a.advance_until(250.0);
        b.advance_until(250.0);
        assert_eq!(a.alive_ids(), b.alive_ids());
        assert_eq!(Snapshot::of(a.graph()), Snapshot::of(b.graph()));
        assert_eq!(a.churn_steps(), b.churn_steps());
    }

    #[test]
    fn churn_summary_reflects_births_and_deaths() {
        let mut m = model(100, 3, EdgePolicy::Static, 12);
        m.warm_up();
        let before: std::collections::HashSet<NodeId> = m.alive_ids().into_iter().collect();
        let summary = m.advance_time_unit();
        let after: std::collections::HashSet<NodeId> = m.alive_ids().into_iter().collect();
        for b in &summary.births {
            assert!(after.contains(b) && !before.contains(b));
        }
        for d in &summary.deaths {
            assert!(before.contains(d) && !after.contains(d));
        }
        // Net change matches the summary.
        assert_eq!(
            after.len() as i64 - before.len() as i64,
            summary.births.len() as i64 - summary.deaths.len() as i64
        );
    }

    #[test]
    fn ages_are_positive_and_bounded_by_current_time() {
        let mut m = model(200, 3, EdgePolicy::Static, 13);
        m.advance_until(400.0);
        for id in m.alive_ids() {
            let age = m.age(id).unwrap();
            assert!(age >= 0.0 && age <= m.time());
        }
    }

    #[test]
    fn model_kind_reflects_edge_policy() {
        assert_eq!(
            model(50, 2, EdgePolicy::Static, 0).model_kind(),
            crate::ModelKind::Pdg
        );
        assert_eq!(
            model(50, 2, EdgePolicy::Regenerate, 0).model_kind(),
            crate::ModelKind::Pdgr
        );
    }

    #[test]
    fn oldest_first_victims_die_in_birth_order() {
        let mut m = PoissonModel::new(
            PoissonConfig::with_expected_size(60, 3)
                .seed(21)
                .victim_policy(crate::driver::VictimPolicy::OldestFirst),
        )
        .unwrap();
        let mut born: Vec<NodeId> = Vec::new();
        let mut died: Vec<NodeId> = Vec::new();
        for _ in 0..240 {
            let summary = m.advance_time_unit();
            born.extend(summary.births);
            died.extend(summary.deaths);
        }
        assert!(!died.is_empty(), "deaths must have happened");
        // Under oldest-first, deaths happen in exactly the birth order
        // (identifiers are allocated monotonically).
        let mut sorted = died.clone();
        sorted.sort_unstable();
        assert_eq!(died, sorted, "victims must die oldest-first");
        // And the oldest victim is always older than every survivor.
        let oldest_alive = m.alive_ids()[0];
        assert!(died.iter().all(|&v| v < oldest_alive));
        m.graph().assert_invariants();
    }

    #[test]
    fn highest_degree_victims_are_the_hubs() {
        let mut m = PoissonModel::new(
            PoissonConfig::with_expected_size(80, 4)
                .seed(22)
                .edge_policy(EdgePolicy::Static)
                .victim_policy(crate::driver::VictimPolicy::HighestDegree),
        )
        .unwrap();
        m.warm_up();
        // At every subsequent death, the victim's incident-link count must
        // have been maximal among the alive nodes at that instant. We verify
        // a weaker invariant that is cheap to check from outside: after many
        // targeted deaths the maximum incident-link count in the network is
        // no larger than with uniform churn at the same parameters.
        let max_links = |m: &PoissonModel| {
            m.graph()
                .member_indices()
                .iter()
                .map(|&idx| m.graph().incident_link_count_at(idx).unwrap())
                .max()
                .unwrap_or(0)
        };
        let mut uniform =
            PoissonModel::new(PoissonConfig::with_expected_size(80, 4).seed(22)).unwrap();
        uniform.warm_up();
        for _ in 0..200 {
            m.advance_time_unit();
            uniform.advance_time_unit();
        }
        assert!(
            max_links(&m) <= max_links(&uniform),
            "degree-targeted churn must not leave bigger hubs than uniform churn \
             (targeted {}, uniform {})",
            max_links(&m),
            max_links(&uniform)
        );
        m.graph().assert_invariants();
    }

    #[test]
    fn graph_invariants_hold_throughout_evolution() {
        for policy in [EdgePolicy::Static, EdgePolicy::Regenerate] {
            let mut m = model(60, 3, policy, 14);
            for _ in 0..500 {
                m.next_jump();
            }
            m.graph().assert_invariants();
        }
    }
}
