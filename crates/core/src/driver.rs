//! Shared churn-driver loops.
//!
//! Every dynamic network in this workspace runs one of two churn processes:
//!
//! * **streaming** (Definition 3.2): one join and — once the network is full —
//!   one leave per round, the leaver being the node that joined `n` rounds
//!   earlier;
//! * **Poisson** (Definitions 4.1/4.5): the birth–death jump chain, advanced
//!   until a continuous target time, discarding the overshooting waiting time
//!   by memorylessness.
//!
//! Before this module, those loops were copied verbatim into
//! `StreamingModel`, `PoissonModel`, the RAES protocol model and the p2p
//! overlay — four places a semantics fix (e.g. the death-before-birth order,
//! or the overshoot handling that Lemma 4.6 relies on) would have to be kept
//! in sync by hand. The loops now live here once; each model contributes only
//! what genuinely differs — how a node is spawned and killed — through the
//! [`ChurnHost`] / [`PoissonChurnHost`] hooks.
//!
//! The hooks are a driver SPI, not a user API: calling `spawn` / `kill`
//! directly on a model bypasses its round structure (queues, repair sweeps,
//! summaries) and can violate its invariants. Drive models through
//! [`crate::DynamicNetwork::advance_time_unit`] and friends instead.
//!
//! Determinism contract: the drivers perform **exactly** the random draws the
//! inlined loops performed, in the same order, so trajectories (and recorded
//! seeds) are unchanged by the extraction.

use std::collections::VecDeque;

use churn_graph::{DynamicGraph, NodeId, RemovedNode, SAMPLE_NONE};
use churn_stochastic::process::{BirthDeathChain, Jump, JumpKind};
use churn_stochastic::rng::SimRng;

use crate::ChurnSummary;

/// How a Poisson-churn model picks its death victim.
///
/// The paper's churn is *oblivious*: deaths hit a uniformly random alive node
/// ([`VictimPolicy::Uniform`], Definition 4.1). The adversarial variants model
/// an *adaptive* adversary that spends the same death budget on chosen
/// victims — the classic robustness question for expander-maintenance
/// protocols (RAES line of work): does the structure survive when the
/// adversary removes the oldest nodes (whose links have decayed the most) or
/// the best-connected ones (the hubs flooding rides on)?
///
/// Streaming churn already kills deterministically oldest-first (every node
/// lives exactly `n` rounds), so [`VictimPolicy::OldestFirst`] is a no-op
/// there and [`VictimPolicy::HighestDegree`] is rejected at model
/// construction — it would break the exact-lifetime law the streaming
/// analyses depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VictimPolicy {
    /// Uniformly random alive victim (the paper's oblivious churn).
    #[default]
    Uniform,
    /// The oldest alive node dies (adaptive age-targeted adversary).
    OldestFirst,
    /// The alive node with the most incident links dies (adaptive
    /// degree-targeted adversary; ties broken towards the smallest
    /// identifier). Served by the graph's degree-bucketed member index
    /// ([`DynamicGraph::set_degree_index`], enabled by the Poisson hosts for
    /// this policy): amortised O(1) per incident edge change, not a scan per
    /// death.
    HighestDegree,
}

impl VictimPolicy {
    /// Short label used in reports and sweep seeds.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            VictimPolicy::Uniform => "uniform",
            VictimPolicy::OldestFirst => "oldest-first",
            VictimPolicy::HighestDegree => "highest-degree",
        }
    }

    /// Returns `true` for the adversarial (non-uniform) policies.
    #[must_use]
    pub fn is_adversarial(self) -> bool {
        !matches!(self, VictimPolicy::Uniform)
    }
}

impl std::fmt::Display for VictimPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Selects the oldest alive node from a lazily compacted birth-order queue
/// (front = oldest; hosts push on spawn). Entries whose slab cell no longer
/// holds the recorded node — dead, or recycled — are popped on the way, so
/// the amortised cost per death is O(1). Shared by every Poisson-churn host
/// running [`VictimPolicy::OldestFirst`] ([`crate::PoissonModel`], the RAES
/// protocol model in `churn-protocol`).
///
/// # Panics
///
/// Panics when no alive node is recorded in the queue (a death event implies
/// at least one alive node, and hosts push every spawn).
pub fn oldest_alive_victim(
    graph: &DynamicGraph,
    order: &mut VecDeque<(NodeId, u32)>,
) -> (NodeId, u32) {
    loop {
        let &(id, idx) = order
            .front()
            .expect("a death event implies an alive node in the birth-order queue");
        if graph.id_at(idx) == Some(id) {
            return (id, idx);
        }
        order.pop_front();
    }
}

/// Selects the alive node with the most incident links (with multiplicity,
/// [`DynamicGraph::incident_link_count_at`]), ties broken towards the
/// smallest identifier so the choice is independent of slab layout. Shared
/// by every Poisson-churn host running [`VictimPolicy::HighestDegree`].
///
/// Served by [`DynamicGraph::highest_degree_member`]: through the graph's
/// degree-bucketed member index when a host enabled it
/// ([`DynamicGraph::set_degree_index`]) — amortised O(1) per incident edge
/// change, which is what makes degree-targeted adversarial grids feasible at
/// `n = 10^6` — and by an O(n) member scan otherwise. Victim choice is
/// identical on both paths, so trajectories do not depend on whether the
/// index is on.
///
/// # Panics
///
/// Panics on an empty graph (a death event implies at least one alive node).
pub fn highest_degree_victim_indexed(graph: &mut DynamicGraph) -> (NodeId, u32) {
    let (id, idx) = graph
        .highest_degree_member()
        .expect("a death event implies at least one alive node");
    (id, idx)
}

/// Model-specific churn hooks: how one node enters and leaves the network.
///
/// Implemented by every model that runs a shared churn driver. These methods
/// are *driver plumbing* — see the module docs for why they must not be
/// called directly.
pub trait ChurnHost {
    /// Spawns one node at model time `time` (identifier allocation, graph
    /// insertion, model-specific wiring such as request placement or queue
    /// enqueueing) and returns its identifier and dense slab index.
    fn spawn(&mut self, time: f64) -> (NodeId, u32);

    /// Kills the alive node `victim` living in slab cell `victim_idx` at
    /// model time `time` (graph removal plus model-specific cleanup such as
    /// edge regeneration or pending-queue bookkeeping).
    fn kill(&mut self, victim: NodeId, victim_idx: u32, time: f64);
}

/// Additional hooks the Poisson jump-chain driver needs.
pub trait PoissonChurnHost: ChurnHost {
    /// Draws the next jump of `chain` given the current population (one RNG
    /// draw; Lemma 4.6).
    fn draw_jump(&mut self, chain: &BirthDeathChain) -> Jump;

    /// Samples a uniformly random alive node as the death victim.
    fn sample_victim(&mut self) -> (NodeId, u32);
}

/// One streaming round (Definition 3.2): the node that joined `n` rounds ago
/// dies first — so, under regeneration, survivors repair among the `n − 1`
/// remaining nodes before the newborn draws its targets (the order behind
/// Lemma 3.14's edge probability) — then this round's node joins and is
/// appended to the birth-order queue.
///
/// `order` is the host's birth-order queue (front = oldest), handed in
/// separately because the host itself is mutably borrowed by the hooks; take
/// it out with `std::mem::take` and put it back after the call.
pub fn streaming_round<H: ChurnHost>(
    host: &mut H,
    order: &mut VecDeque<(NodeId, u32)>,
    n: usize,
    time: f64,
    summary: &mut ChurnSummary,
) {
    if order.len() == n {
        let (victim, victim_idx) = order
            .pop_front()
            .expect("queue holds n nodes, so the front exists");
        host.kill(victim, victim_idx, time);
        summary.record_death(victim);
    }
    let (newborn, newborn_idx) = host.spawn(time);
    order.push_back((newborn, newborn_idx));
    summary.record_birth(newborn);
}

/// The continuous clock of a Poisson jump-chain host: current model time plus
/// the number of jumps processed. Kept as a detached value (it is `Copy`) so
/// the driver can advance it while the host is mutably borrowed by the hooks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JumpClock {
    /// Continuous model time.
    pub time: f64,
    /// Jump-chain events processed so far (Definition 4.5's round index).
    pub jumps: u64,
}

/// Advances the jump chain until `target` (Definition 4.5 / Lemma 4.6),
/// processing every churn event in between. A sampled waiting time that would
/// overshoot `target` is discarded and the clock set to `target`: by
/// memorylessness the residual wait past `target` is statistically identical
/// to a fresh draw there.
///
/// [`ChurnSummary::record_death`]'s net-effect bookkeeping scans the window's
/// accumulated births, so accumulating one summary over a window spanning
/// millions of events is quadratic. Callers that discard the summary anyway —
/// warm-up advances a window of length `3n` — should use
/// [`poisson_advance_until_discarding`].
pub fn poisson_advance_until<H: PoissonChurnHost>(
    host: &mut H,
    chain: &BirthDeathChain,
    clock: &mut JumpClock,
    target: f64,
    summary: &mut ChurnSummary,
) {
    poisson_advance_impl(host, chain, clock, target, Some(summary));
}

/// [`poisson_advance_until`] without churn-summary accumulation: the hooks
/// still see every event (birth times and topology mutations are
/// identical, as is the RNG stream), only the who-was-born-and-died report is
/// skipped. This keeps long warm-up windows linear in the event count.
pub fn poisson_advance_until_discarding<H: PoissonChurnHost>(
    host: &mut H,
    chain: &BirthDeathChain,
    clock: &mut JumpClock,
    target: f64,
) {
    poisson_advance_impl(host, chain, clock, target, None);
}

fn poisson_advance_impl<H: PoissonChurnHost>(
    host: &mut H,
    chain: &BirthDeathChain,
    clock: &mut JumpClock,
    target: f64,
    mut summary: Option<&mut ChurnSummary>,
) {
    while clock.time < target {
        let jump = host.draw_jump(chain);
        if clock.time + jump.waiting_time > target {
            clock.time = target;
            break;
        }
        clock.time += jump.waiting_time;
        clock.jumps += 1;
        match jump.kind {
            JumpKind::Birth => {
                let (id, _) = host.spawn(clock.time);
                if let Some(summary) = summary.as_deref_mut() {
                    summary.record_birth(id);
                }
            }
            JumpKind::Death => {
                let (victim, victim_idx) = host.sample_victim();
                host.kill(victim, victim_idx, clock.time);
                if let Some(summary) = summary.as_deref_mut() {
                    summary.record_death(victim);
                }
            }
        }
    }
}

/// Edge regeneration (Definitions 3.13 / 4.14): re-points every slot left
/// dangling by a removal at a fresh uniform alive node other than its owner.
/// Shared by [`crate::StreamingModel`] and [`crate::PoissonModel`].
///
/// `dangling_dense` is sorted by `(owner id, slot)`, so the draw order is
/// deterministic. All replacement targets are drawn in one bulk call first —
/// the draws do not depend on the re-pointing, and the bulk call's draws are
/// identical in number and order to one draw per slot — which also gathers
/// the owners' and targets' cells before the first write.
pub(crate) fn regenerate(
    graph: &mut DynamicGraph,
    rng: &mut SimRng,
    removed: &RemovedNode,
    owners: &mut Vec<u32>,
    targets: &mut Vec<u32>,
) {
    owners.clear();
    owners.extend(removed.dangling_dense.iter().map(|&(owner, _)| owner));
    targets.clear();
    graph.sample_members_each_excluding_into(rng, owners, targets);
    for (&(owner_idx, slot_pos), &target_idx) in removed.dangling_dense.iter().zip(targets.iter()) {
        if target_idx == SAMPLE_NONE {
            continue;
        }
        graph
            .set_out_slot_at(owner_idx, slot_pos, target_idx)
            .expect("owner alive, slot in range, target distinct");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy host: nodes are a counter, deaths pop the recorded population.
    struct ToyHost {
        next: u64,
        alive: Vec<(NodeId, u32)>,
        rng: churn_stochastic::rng::SimRng,
        spawn_times: Vec<f64>,
        kill_times: Vec<f64>,
    }

    impl ToyHost {
        fn new(seed: u64) -> Self {
            ToyHost {
                next: 0,
                alive: Vec::new(),
                rng: churn_stochastic::rng::seeded_rng(seed),
                spawn_times: Vec::new(),
                kill_times: Vec::new(),
            }
        }
    }

    impl ChurnHost for ToyHost {
        fn spawn(&mut self, time: f64) -> (NodeId, u32) {
            let id = NodeId::new(self.next);
            let idx = self.next as u32;
            self.next += 1;
            self.alive.push((id, idx));
            self.spawn_times.push(time);
            (id, idx)
        }

        fn kill(&mut self, victim: NodeId, victim_idx: u32, time: f64) {
            let pos = self
                .alive
                .iter()
                .position(|&(id, idx)| (id, idx) == (victim, victim_idx))
                .expect("victim is alive");
            self.alive.swap_remove(pos);
            self.kill_times.push(time);
        }
    }

    impl PoissonChurnHost for ToyHost {
        fn draw_jump(&mut self, chain: &BirthDeathChain) -> Jump {
            chain.next_jump(self.alive.len() as u64, &mut self.rng)
        }

        fn sample_victim(&mut self) -> (NodeId, u32) {
            use rand::Rng;
            self.alive[self.rng.gen_range(0..self.alive.len())]
        }
    }

    #[test]
    fn victim_policy_labels_and_adversarial_flag() {
        assert_eq!(VictimPolicy::default(), VictimPolicy::Uniform);
        assert!(!VictimPolicy::Uniform.is_adversarial());
        assert!(VictimPolicy::OldestFirst.is_adversarial());
        assert!(VictimPolicy::HighestDegree.is_adversarial());
        assert_eq!(VictimPolicy::OldestFirst.to_string(), "oldest-first");
        assert_eq!(VictimPolicy::HighestDegree.label(), "highest-degree");
    }

    #[test]
    fn oldest_alive_victim_skips_stale_queue_entries() {
        use churn_graph::DynamicGraph;
        let mut g = DynamicGraph::new();
        let mut order: VecDeque<(NodeId, u32)> = VecDeque::new();
        for raw in 0..4u64 {
            let idx = g.add_node_indexed(NodeId::new(raw), 0).unwrap();
            order.push_back((NodeId::new(raw), idx));
        }
        // Node 0 dies out of band and its cell is recycled by node 9: the
        // stale front entry must be skipped, not resurrected.
        let idx0 = g.dense_index_of(NodeId::new(0)).unwrap();
        g.remove_node_at(idx0).unwrap();
        let reused = g.add_node_indexed(NodeId::new(9), 0).unwrap();
        assert_eq!(reused, idx0);
        let (victim, idx) = oldest_alive_victim(&g, &mut order);
        assert_eq!(victim, NodeId::new(1));
        assert_eq!(g.id_at(idx), Some(NodeId::new(1)));
    }

    #[test]
    fn highest_degree_victim_picks_the_hub_with_id_tie_break() {
        use churn_graph::DynamicGraph;
        let mut g = DynamicGraph::new();
        for raw in 0..5u64 {
            g.add_node(NodeId::new(raw), 3).unwrap();
        }
        // Node 2 gets three incident links, everyone else at most two.
        g.set_out_slot(NodeId::new(0), 0, NodeId::new(2)).unwrap();
        g.set_out_slot(NodeId::new(1), 0, NodeId::new(2)).unwrap();
        g.set_out_slot(NodeId::new(2), 0, NodeId::new(3)).unwrap();
        let (victim, idx) = highest_degree_victim_indexed(&mut g);
        assert_eq!(victim, NodeId::new(2));
        assert_eq!(g.id_at(idx), Some(NodeId::new(2)));
        // Tie-break: with all-equal degrees the smallest identifier wins.
        let mut g = DynamicGraph::new();
        for raw in [7u64, 3, 5] {
            g.add_node(NodeId::new(raw), 0).unwrap();
        }
        let (victim, _) = highest_degree_victim_indexed(&mut g);
        assert_eq!(victim, NodeId::new(3));
    }

    #[test]
    fn streaming_round_is_death_first_then_birth_at_full_size() {
        let mut host = ToyHost::new(0);
        let mut order = VecDeque::new();
        let n = 3;
        let mut summary = ChurnSummary::new();
        for round in 1..=10u64 {
            summary.clear();
            streaming_round(&mut host, &mut order, n, round as f64, &mut summary);
            assert_eq!(summary.births.len(), 1);
            assert_eq!(order.len(), host.alive.len());
            if round <= n as u64 {
                assert!(summary.deaths.is_empty(), "no deaths while filling up");
            } else {
                // The death is always the node that joined n rounds earlier.
                assert_eq!(summary.deaths, vec![NodeId::new(round - 1 - n as u64)]);
            }
        }
        assert_eq!(order.len(), n);
    }

    #[test]
    fn poisson_driver_stops_exactly_at_target_and_stamps_event_times() {
        let chain = BirthDeathChain::new(1.0, 1.0 / 50.0);
        let mut host = ToyHost::new(7);
        let mut clock = JumpClock::default();
        let mut summary = ChurnSummary::new();
        poisson_advance_until(&mut host, &chain, &mut clock, 200.0, &mut summary);
        assert!((clock.time - 200.0).abs() < 1e-12);
        assert!(clock.jumps > 0);
        assert_eq!(
            clock.jumps as usize,
            host.spawn_times.len() + host.kill_times.len(),
            "every jump is a spawn or a kill"
        );
        assert!(!host.alive.is_empty());
        // Event timestamps are monotone and within the window.
        let mut all: Vec<f64> = host.spawn_times.clone();
        all.extend(&host.kill_times);
        assert!(all.iter().all(|&t| t > 0.0 && t <= 200.0));
        // Advancing to the current time is a no-op.
        let jumps_before = clock.jumps;
        poisson_advance_until(&mut host, &chain, &mut clock, 200.0, &mut summary);
        assert_eq!(clock.jumps, jumps_before);
    }
}
