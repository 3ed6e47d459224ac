//! The message path both asynchronous loops share.
//!
//! [`Net`] carries every message from sender to handler: the sender's
//! egress queue, the link fate (lost, one copy or duplicated), a reorder
//! hold and a latency draw per copy, then at delivery the four gates. It
//! also injects crashes and restarts. [`Rumor`] is the flood state both
//! loops keep: the informed set and the forward-on-arrival step.
//!
//! Each loop keeps its own event type and trace kinds; it reads the outcome
//! of a send or a gate and records what it wants.

use churn_core::flooding::{InformedSet, TAG_NO_FORWARD};
use churn_graph::{DenseHandle, DynamicGraph, NodeId};
use churn_stochastic::rng::SimRng;

use crate::bandwidth::{BandwidthModel, EgressQueues, Enqueue};
use crate::faults::{FaultPlan, FaultState};
use crate::latency::LatencyModel;
use crate::sched::Scheduler;
use crate::stats::EventStats;
use crate::trace::TraceMode;

/// Why a delivery was refused at the gates, in gate order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The target died (`messages_lost`).
    Lost,
    /// The sender was down at departure: the message was still queued at
    /// its crash (`messages_crash_voided`).
    Voided,
    /// An active partition separates sender and target (`messages_blocked`).
    Blocked,
    /// The target is crashed (`messages_to_down`).
    Down,
}

/// The transport of one run: scheduler, latency RNG, egress queues, fault
/// state and load counters.
pub(crate) struct Net<'p, E> {
    pub(crate) sched: Scheduler<E>,
    pub(crate) egress: EgressQueues,
    /// Latency draws; RAES also samples targets and backoff jitter from it.
    pub(crate) rng: SimRng,
    pub(crate) faults: FaultState<'p>,
    pub(crate) stats: EventStats,
    latency: LatencyModel,
}

impl<'p, E: Copy> Net<'p, E> {
    pub(crate) fn new(
        latency: LatencyModel,
        bandwidth: BandwidthModel,
        plan: &'p FaultPlan,
        seed: u64,
        rng: SimRng,
    ) -> Self {
        Net {
            sched: Scheduler::new(),
            egress: EgressQueues::new(bandwidth),
            rng,
            faults: FaultState::new(plan, seed),
            stats: EventStats::new(),
            latency,
        }
    }

    /// Turns on trace capture; `Bins` keys its alive series on `alive_kind`
    /// starting from `initial_alive`.
    pub(crate) fn trace(&mut self, mode: TraceMode, alive_kind: u16, initial_alive: f64) {
        match mode {
            TraceMode::Off => {}
            TraceMode::Full => self.sched.enable_trace(),
            TraceMode::Bins => self.sched.enable_bins(alive_kind, initial_alive),
        }
    }

    /// Pops the next event at or before `horizon`.
    pub(crate) fn next(&mut self, horizon: f64) -> Option<(f64, E)> {
        if self.sched.peek_time()? > horizon {
            return None;
        }
        self.sched.pop()
    }

    /// Sends one message `from → to` at `now`: the sender's egress queue,
    /// then [`Self::transmit`] at the departure instant. `event` builds the
    /// payload from that instant. Returns `None` when the queue dropped the
    /// message, else the number of copies on the wire (0 = lost).
    pub(crate) fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        now: f64,
        event: impl FnOnce(f64) -> E,
    ) -> Option<u32> {
        match self.egress.enqueue(from.raw(), now) {
            Enqueue::Dropped => {
                self.stats.messages_dropped += 1;
                None
            }
            Enqueue::Sent {
                departs,
                queue_delay,
            } => {
                self.stats.messages_sent += 1;
                self.stats.record_queue_delay(queue_delay);
                Some(self.transmit(from, to, departs, event(departs)))
            }
        }
    }

    /// Puts one message on the link `from → to` at `departs`, bypassing
    /// the egress queue. Link fate comes first, so a lost message draws no
    /// latency; each surviving copy then draws its reorder hold and its
    /// latency. Returns the number of copies scheduled.
    pub(crate) fn transmit(&mut self, from: NodeId, to: NodeId, departs: f64, event: E) -> u32 {
        let copies = self.faults.copies(from.raw(), to.raw());
        match copies {
            0 => self.stats.messages_fault_lost += 1,
            2 => self.stats.messages_duplicated += 1,
            _ => {}
        }
        for _ in 0..copies {
            let held = self.faults.reorder_delay();
            if held > 0.0 {
                self.stats.messages_reordered += 1;
            }
            let arrival = departs + self.latency.sample(&mut self.rng) + held;
            self.sched.schedule_at(arrival, event);
        }
        copies
    }

    /// The delivery gates of a message `from → to` that left at `departs`
    /// and arrives now, at the scheduler's clock: the target (`to` at
    /// `target`) is alive, the sender was up at departure, no partition
    /// cuts the link, the target is up. The fault gates are no-ops under an
    /// empty plan. Bumps `messages_delivered` or the counter of the first
    /// gate that refused.
    pub(crate) fn admit(
        &mut self,
        graph: &DynamicGraph,
        target: DenseHandle,
        to: NodeId,
        from: NodeId,
        departs: f64,
    ) -> Result<(), Refused> {
        let (to, from) = (to.raw(), from.raw());
        let refused = if !graph.is_current(target) {
            self.stats.messages_lost += 1;
            Refused::Lost
        } else if self.faults.was_down_at(from, departs) {
            self.stats.messages_crash_voided += 1;
            Refused::Voided
        } else if self.faults.blocked(self.sched.now(), from, to) {
            self.stats.messages_blocked += 1;
            Refused::Blocked
        } else if self.faults.is_down(to) {
            self.stats.messages_to_down += 1;
            Refused::Down
        } else {
            self.stats.messages_delivered += 1;
            return Ok(());
        };
        Err(refused)
    }

    /// Injects this tick's crashes. Each victim loses its queued egress and
    /// keeps its identity; returns `(handle, id, restart instant)` per
    /// victim, in crash order, for the loop to drop its protocol state and
    /// schedule the restart.
    pub(crate) fn crash_sweep(
        &mut self,
        graph: &DynamicGraph,
        now: f64,
    ) -> Vec<(DenseHandle, NodeId, f64)> {
        let mut victims = Vec::new();
        for _ in 0..self.faults.crash_count(graph.len()) {
            let Some(idx) = graph.sample_member(self.faults.rng()) else {
                break;
            };
            let id = graph.id_at(idx).expect("sampled members are alive");
            if self.faults.is_down(id.raw()) {
                continue; // already down — the crash lands on a dead machine
            }
            let downtime = self.faults.downtime();
            self.faults.mark_down(id.raw(), now);
            self.egress.forget(id.raw());
            let handle = graph.handle_at(idx).expect("sampled members are alive");
            victims.push((handle, id, now + downtime));
        }
        victims
    }

    /// Brings a crashed node back up; `false` when churn killed it first
    /// (the node is then forgotten) or it was not down.
    pub(crate) fn restart(
        &mut self,
        graph: &DynamicGraph,
        target: DenseHandle,
        id: NodeId,
        now: f64,
    ) -> bool {
        if !graph.is_current(target) {
            self.faults.forget(id.raw());
            return false;
        }
        self.faults.mark_up(id.raw(), now)
    }

    /// The final load counters: the running ones plus the event count,
    /// peak backlog, clock and crash–restart totals.
    pub(crate) fn take_stats(&mut self) -> EventStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.events_processed = self.sched.processed();
        stats.peak_backlog = self.egress.peak_backlog() as u64;
        stats.sim_time = self.sched.now();
        stats.crashes = self.faults.crashes();
        stats.restarts = self.faults.restarts();
        stats
    }
}

/// One rumor copy on the wire. Each loop's event type spreads its fields
/// into a struct variant: a tuple variant around this struct would add 8
/// bytes to every flooding event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RumorCopy {
    pub(crate) target: DenseHandle,
    pub(crate) id: NodeId,
    pub(crate) from: NodeId,
    pub(crate) departs: f64,
    pub(crate) hop: u32,
}

/// The flood state: who holds the rumor, the deepest hop that informed
/// anyone, and when every alive node first held it.
///
/// The holders live in the same [`InformedSet`] the synchronous engine
/// uses, keyed by slab cell. Both loops call [`Self::revalidate`] right
/// after each churn tick, before any delivery, so a dead holder's bit is
/// cleared before a newborn in its cell can be asked about.
#[derive(Debug, Default)]
pub(crate) struct Rumor {
    informed: InformedSet,
    pub(crate) rounds: u32,
    pub(crate) completion: Option<f64>,
}

impl Rumor {
    /// Marks `idx` informed at hop `hop` and forwards a copy along each of
    /// its current links (unless it is tagged not to forward).
    pub(crate) fn inform<E: Copy + From<RumorCopy>>(
        &mut self,
        net: &mut Net<'_, E>,
        graph: &DynamicGraph,
        idx: u32,
        hop: u32,
        now: f64,
    ) {
        let id = graph.id_at(idx).expect("informed nodes are alive");
        let handle = graph.handle_at(idx).expect("informed nodes are alive");
        self.informed.insert(handle, id);
        self.rounds = self.rounds.max(hop);
        if graph.tags_enabled() && graph.tag_at(idx) & TAG_NO_FORWARD != 0 {
            return; // informed, but does not forward (Byzantine behavior)
        }
        for target_idx in graph.neighbor_indices_at(idx) {
            let target_id = graph
                .id_at(target_idx)
                .expect("neighbors of an alive node are alive");
            net.send(id, target_id, now, |departs| {
                E::from(RumorCopy {
                    target: graph
                        .handle_at(target_idx)
                        .expect("neighbors of an alive node are alive"),
                    id: target_id,
                    from: id,
                    departs,
                    hop: hop + 1,
                })
            });
        }
    }

    /// Delivers one copy through the gates: `Ok(true)` when it informed
    /// its target, `Ok(false)` when the target already held the rumor.
    pub(crate) fn deliver<E: Copy + From<RumorCopy>>(
        &mut self,
        net: &mut Net<'_, E>,
        graph: &DynamicGraph,
        copy: RumorCopy,
        now: f64,
    ) -> Result<bool, Refused> {
        net.admit(graph, copy.target, copy.id, copy.from, copy.departs)?;
        if self.holds(copy.target.index) {
            return Ok(false);
        }
        self.inform(net, graph, copy.target.index, copy.hop, now);
        Ok(true)
    }

    /// Drops informed nodes that died in a churn window.
    pub(crate) fn revalidate(&mut self, graph: &DynamicGraph) {
        self.informed.revalidate(graph, 0);
    }

    /// Drops the rumor of a crashed node.
    pub(crate) fn forget(&mut self, handle: DenseHandle) {
        self.informed.remove(handle);
    }

    /// Records `now` as the completion instant the first time every one of
    /// the `alive` nodes holds the rumor.
    pub(crate) fn note_completion(&mut self, alive: usize, now: f64) {
        if self.completion.is_none() && self.informed.len() == alive {
            self.completion = Some(now);
        }
    }

    /// Whether the node in slab cell `idx` holds the rumor.
    pub(crate) fn holds(&self, idx: u32) -> bool {
        self.informed.contains(idx)
    }

    /// Informed alive nodes.
    pub(crate) fn len(&self) -> usize {
        self.informed.len()
    }

    /// Whether the rumor reached all `alive` nodes (and anyone at all).
    pub(crate) fn complete(&self, alive: usize) -> bool {
        !self.informed.is_empty() && self.informed.len() == alive
    }

    /// The informed nodes, sorted by identifier.
    pub(crate) fn sorted_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.informed.entries().iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_stochastic::rng::seeded_rng;

    /// A bare event type: these tests only inspect what the rumor holds.
    #[derive(Debug, Clone, Copy)]
    struct Sent;

    impl From<RumorCopy> for Sent {
        fn from(_: RumorCopy) -> Self {
            Sent
        }
    }

    fn net(plan: &FaultPlan) -> Net<'_, Sent> {
        let (latency, bandwidth) = (LatencyModel::Fixed(1.0), BandwidthModel::unlimited());
        Net::new(latency, bandwidth, plan, 1, seeded_rng(1))
    }

    /// `n` isolated nodes with identifiers `0..n` in cells `0..n`.
    fn nodes(n: u64) -> DynamicGraph {
        let mut graph = DynamicGraph::new();
        for raw in 0..n {
            graph.add_node_indexed(NodeId::new(raw), 1).unwrap();
        }
        graph
    }

    fn copy_to(graph: &DynamicGraph, idx: u32, departs: f64) -> RumorCopy {
        RumorCopy {
            target: graph.handle_at(idx).unwrap(),
            id: graph.id_at(idx).unwrap(),
            from: NodeId::new(0),
            departs,
            hop: 1,
        }
    }

    #[test]
    fn a_newborn_in_a_dead_holders_cell_is_not_held_after_revalidate() {
        let plan = FaultPlan::none();
        let mut net = net(&plan);
        let mut graph = nodes(3);
        let mut rumor = Rumor::default();
        rumor.inform(&mut net, &graph, 1, 0, 0.0);
        assert!(rumor.holds(1));
        // One churn window: the holder dies and a newborn takes its cell.
        graph.remove_node_at(1).unwrap();
        let newborn = graph.add_node_indexed(NodeId::new(3), 1).unwrap();
        assert_eq!(newborn, 1, "the newborn reuses the dead holder's cell");
        rumor.revalidate(&graph);
        assert!(!rumor.holds(newborn));
        assert_eq!(rumor.len(), 0);
        assert!(rumor.sorted_ids().is_empty());
        // A copy addressed to the newborn informs it afresh.
        let copy = copy_to(&graph, newborn, 0.0);
        assert_eq!(rumor.deliver(&mut net, &graph, copy, 1.0), Ok(true));
        assert_eq!(rumor.sorted_ids(), vec![NodeId::new(3)]);
    }

    #[test]
    fn a_crashed_holder_is_forgotten_and_informed_again_after_restart() {
        let plan = FaultPlan::none();
        let mut net = net(&plan);
        let graph = nodes(3);
        let mut rumor = Rumor::default();
        rumor.inform(&mut net, &graph, 0, 0, 0.0);
        rumor.inform(&mut net, &graph, 2, 1, 0.0);
        let (handle, id) = (graph.handle_at(2).unwrap(), NodeId::new(2));
        // The crash: the node goes down and loses its copy.
        net.faults.mark_down(id.raw(), 1.0);
        rumor.forget(handle);
        assert!(!rumor.holds(2));
        assert_eq!(rumor.sorted_ids(), vec![NodeId::new(0)]);
        let copy = copy_to(&graph, 2, 1.0);
        assert_eq!(
            rumor.deliver(&mut net, &graph, copy, 1.5),
            Err(Refused::Down)
        );
        assert!(net.restart(&graph, handle, id, 2.0));
        let copy = copy_to(&graph, 2, 2.0);
        assert_eq!(rumor.deliver(&mut net, &graph, copy, 2.5), Ok(true));
        assert!(rumor.holds(2));
        assert_eq!(rumor.sorted_ids(), vec![NodeId::new(0), id]);
    }
}
