//! The peer-to-peer overlay simulation.

use rand::Rng;

use churn_core::driver::{self, ChurnHost, JumpClock, PoissonChurnHost};
use churn_core::{ChurnSummary, DynamicNetwork, EdgePolicy, NodeId, Result};
use churn_graph::{DynamicGraph, NodeIdAllocator};
use churn_stochastic::process::{BirthDeathChain, Jump};
use churn_stochastic::rng::{seeded_rng, SimRng};

use crate::{AddressManager, P2pConfig};

/// A Bitcoin-Core-like unstructured overlay under Poisson node churn.
///
/// Peers arrive as a Poisson process (rate 1) and stay online for an
/// exponential time with mean `expected_peers`; a joining peer bootstraps its
/// [`AddressManager`] from "DNS seeds" (a random sample of currently online
/// peers) and opens outbound connections to addresses drawn from it; every
/// maintenance round peers re-fill missing outbound connections (respecting the
/// targets' inbound caps) and gossip addresses with a random neighbour.
///
/// The overlay implements [`DynamicNetwork`], so the flooding, expansion and
/// isolation analyses of `churn-core` run on it unchanged — this is the
/// workspace's "realistic" counterpart of the idealised PDGR model.
#[derive(Debug, Clone)]
pub struct P2pNetwork {
    config: P2pConfig,
    graph: DynamicGraph,
    rng: SimRng,
    chain: BirthDeathChain,
    time: f64,
    jumps: u64,
    /// Birth time per slab cell (stale in vacated cells;
    /// [`DynamicNetwork::birth_time`] resolves only alive identifiers).
    birth_time: Vec<f64>,
    /// Address manager per slab cell (`None` in vacated cells).
    addrmans: Vec<Option<AddressManager>>,
    alloc: NodeIdAllocator,
    newest: Option<NodeId>,
    /// Reused dense-neighbour buffer of the gossip relay loop.
    gossip_scratch: Vec<u32>,
    /// Reused empty-slot buffer of the outbound dialling loop.
    slot_scratch: Vec<usize>,
    /// Reused member-index buffer of the maintenance pass.
    peer_scratch: Vec<u32>,
    /// Counters updated as the simulation runs, exposed via [`Self::stats`].
    connect_attempts: u64,
    connect_successes: u64,
    stale_addresses_pruned: u64,
}

/// Running operational counters of an overlay simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlayStats {
    /// Outbound connection attempts made during maintenance.
    pub connect_attempts: u64,
    /// Attempts that resulted in a new connection.
    pub connect_successes: u64,
    /// Dead addresses removed from address managers after failed attempts.
    pub stale_addresses_pruned: u64,
}

impl P2pNetwork {
    /// Builds an empty overlay (time 0, no peers).
    ///
    /// # Errors
    ///
    /// Returns the validation error of [`P2pConfig::validate`].
    pub fn new(config: P2pConfig) -> Result<Self> {
        config.validate()?;
        let rng = seeded_rng(config.seed);
        let chain = BirthDeathChain::new(1.0, 1.0 / config.expected_peers as f64);
        let capacity = config.expected_peers + 16;
        Ok(P2pNetwork {
            graph: DynamicGraph::with_capacity(capacity),
            rng,
            chain,
            time: 0.0,
            jumps: 0,
            birth_time: Vec::with_capacity(capacity),
            addrmans: Vec::with_capacity(capacity),
            alloc: NodeIdAllocator::new(),
            newest: None,
            gossip_scratch: Vec::new(),
            slot_scratch: Vec::new(),
            peer_scratch: Vec::new(),
            connect_attempts: 0,
            connect_successes: 0,
            stale_addresses_pruned: 0,
            config,
        })
    }

    /// The configuration the overlay was built from.
    #[must_use]
    pub fn config(&self) -> &P2pConfig {
        &self.config
    }

    /// Running operational counters.
    #[must_use]
    pub fn stats(&self) -> OverlayStats {
        OverlayStats {
            connect_attempts: self.connect_attempts,
            connect_successes: self.connect_successes,
            stale_addresses_pruned: self.stale_addresses_pruned,
        }
    }

    /// The address manager of an online peer.
    #[must_use]
    pub fn addrman(&self, peer: NodeId) -> Option<&AddressManager> {
        let idx = self.graph.dense_index_of(peer)?;
        self.addrmans[idx as usize].as_ref()
    }

    /// Number of inbound connections a peer currently has.
    #[must_use]
    pub fn inbound_count(&self, peer: NodeId) -> Option<usize> {
        self.graph.in_request_count(peer)
    }

    /// Number of outbound connections a peer currently has.
    #[must_use]
    pub fn outbound_count(&self, peer: NodeId) -> Option<usize> {
        self.graph.out_degree(peer)
    }

    fn spawn_peer(&mut self, time: f64) -> (NodeId, u32) {
        // DNS-seed bootstrap: a random sample of the peers online before the
        // joiner enters the graph.
        let mut addrman = AddressManager::new(self.config.addrman_capacity);
        for _ in 0..self.config.dns_seed_addresses {
            if let Some(seed_idx) = self.graph.sample_member(&mut self.rng) {
                let seed_addr = self.graph.id_at(seed_idx).expect("members are occupied");
                addrman.insert(seed_addr, &mut self.rng);
            }
        }
        let id = self.alloc.next_id();
        let idx = self
            .graph
            .add_node_indexed(id, self.config.target_outbound)
            .expect("allocator never reuses identifiers");
        // The slab grows one cell at a time, so these are no-ops or pushes.
        let cells = self.graph.slab_len();
        self.birth_time.resize(cells, f64::NAN);
        self.addrmans.resize_with(cells, || None);
        self.birth_time[idx as usize] = time;
        self.addrmans[idx as usize] = Some(addrman);
        self.newest = Some(id);
        // Open outbound connections right away, like a starting node would.
        self.fill_outbound(idx);
        (id, idx)
    }

    fn kill_peer(&mut self, victim: NodeId, victim_idx: u32) {
        self.addrmans[victim_idx as usize] = None;
        if self.newest == Some(victim) {
            self.newest = None;
        }
        // Dangling out-slots of surviving peers are re-filled lazily during their
        // next maintenance round (a real node notices the disconnection and then
        // dials a new address).
        self.graph
            .remove_node_at(victim_idx)
            .expect("victim sampled from the graph's members");
    }

    /// Tries to fill every empty outbound slot of the peer in cell `peer_idx`
    /// with a connection to an address from its address manager, respecting
    /// the targets' inbound caps.
    ///
    /// Runs on the graph's dense slab indices: the address manager is
    /// borrowed in place from its cell, the empty-slot scan walks the
    /// record's slot array directly into a reused buffer, and each dialled
    /// candidate pays exactly one identifier lookup (`dense_index_of`, which
    /// doubles as the liveness check).
    fn fill_outbound(&mut self, peer_idx: u32) {
        let peer = self.graph.id_at(peer_idx).expect("peer cells are occupied");
        let addrman = self.addrmans[peer_idx as usize]
            .as_mut()
            .expect("alive peers have an address table");
        let mut empty_slots = std::mem::take(&mut self.slot_scratch);
        empty_slots.clear();
        empty_slots.extend(
            self.graph
                .out_slot_targets_at(peer_idx)
                .enumerate()
                .filter_map(|(slot, target)| target.is_none().then_some(slot)),
        );
        for &slot in &empty_slots {
            // A handful of attempts per slot, like a dialler working through its
            // address table.
            for _ in 0..8 {
                self.connect_attempts += 1;
                let Some(candidate) = addrman.sample(&mut self.rng) else {
                    break;
                };
                if candidate == peer {
                    continue;
                }
                let Some(candidate_idx) = self.graph.dense_index_of(candidate) else {
                    // Stale address: the peer has gone offline; prune it.
                    addrman.remove(candidate);
                    self.stale_addresses_pruned += 1;
                    continue;
                };
                if self.graph.has_edge_at(peer_idx, candidate_idx) {
                    continue; // already connected (either direction)
                }
                let inbound = self
                    .graph
                    .in_request_count_at(candidate_idx)
                    .expect("candidate is alive");
                if inbound >= self.config.max_inbound {
                    continue;
                }
                self.graph
                    .set_out_slot_at(peer_idx, slot, candidate_idx)
                    .expect("valid connection");
                self.connect_successes += 1;
                break;
            }
        }
        self.slot_scratch = empty_slots;
    }

    /// Exchanges addresses between the peer in cell `peer_idx` and one of its
    /// current neighbours.
    ///
    /// The relay partner is drawn through the dense slab adjacency (one
    /// neighbour-list walk into a reused scratch buffer), and both address
    /// managers are borrowed in place from their cells — this runs once per
    /// peer per maintenance round, making it the overlay's hottest relay
    /// loop.
    fn gossip_addresses(&mut self, peer_idx: u32) {
        let mut scratch = std::mem::take(&mut self.gossip_scratch);
        scratch.clear();
        self.graph.neighbors_dense_into(peer_idx, &mut scratch);
        let partner = if scratch.is_empty() {
            None
        } else {
            // The maintenance rules never create a duplicate link between a
            // pair (dials check `has_edge` in both directions), so the dense
            // incident-link list is duplicate-free and this is a uniform draw
            // over the distinct neighbours.
            Some(scratch[self.rng.gen_range(0..scratch.len())])
        };
        self.gossip_scratch = scratch;
        let Some(partner_idx) = partner else {
            return;
        };
        let peer = self.graph.id_at(peer_idx).expect("peer cells are occupied");
        let partner = self.graph.id_at(partner_idx).expect("neighbours are alive");
        // Dials never target the dialler, so the two cells are distinct.
        let [Some(mine), Some(theirs)] = self
            .addrmans
            .get_disjoint_mut([peer_idx as usize, partner_idx as usize])
            .expect("a peer is never its own neighbour")
        else {
            unreachable!("alive peers have an address table");
        };
        let count = self.config.gossip_addresses;
        // Each side advertises a sample of its table plus its own address.
        let mut outgoing = mine.sample_many(count, &mut self.rng);
        outgoing.push(peer);
        let mut incoming = theirs.sample_many(count, &mut self.rng);
        incoming.push(partner);
        for addr in incoming {
            if addr != peer {
                mine.insert(addr, &mut self.rng);
            }
        }
        for addr in outgoing {
            if addr != partner {
                theirs.insert(addr, &mut self.rng);
            }
        }
    }

    /// One maintenance pass over all online peers, in member-table order:
    /// re-fill missing outbound connections, then gossip addresses. Neither
    /// step adds or removes a peer, so the member table stays fixed.
    fn maintenance(&mut self) {
        let mut peers = std::mem::take(&mut self.peer_scratch);
        peers.clear();
        peers.extend_from_slice(self.graph.member_indices());
        for &peer_idx in &peers {
            self.fill_outbound(peer_idx);
        }
        for &peer_idx in &peers {
            self.gossip_addresses(peer_idx);
        }
        self.peer_scratch = peers;
    }

    /// Advances the underlying churn process until `target` through the
    /// shared [`churn_core::driver::poisson_advance_until`] jump-chain loop
    /// (the very loop the Poisson baselines run).
    fn advance_churn_until(&mut self, target: f64) -> ChurnSummary {
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
}

/// Driver hooks (see [`churn_core::driver`]): the overlay contributes peer
/// bootstrap/teardown; deaths are drawn uniformly from the graph's member
/// table.
impl ChurnHost for P2pNetwork {
    fn spawn(&mut self, time: f64) -> (NodeId, u32) {
        self.spawn_peer(time)
    }

    fn kill(&mut self, victim: NodeId, victim_idx: u32, _time: f64) {
        self.kill_peer(victim, victim_idx);
    }
}

impl PoissonChurnHost for P2pNetwork {
    fn draw_jump(&mut self, chain: &BirthDeathChain) -> Jump {
        chain.next_jump(self.graph.len() as u64, &mut self.rng)
    }

    fn sample_victim(&mut self) -> (NodeId, u32) {
        let victim_idx = self
            .graph
            .sample_member(&mut self.rng)
            .expect("death events require an alive peer");
        let victim = self.graph.id_at(victim_idx).expect("members are occupied");
        (victim, victim_idx)
    }
}

impl DynamicNetwork for P2pNetwork {
    fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut DynamicGraph {
        &mut self.graph
    }

    fn degree_parameter(&self) -> usize {
        self.config.target_outbound
    }

    fn expected_size(&self) -> usize {
        self.config.expected_peers
    }

    fn edge_policy(&self) -> EdgePolicy {
        // Outbound connections are continuously repaired, which is exactly the
        // regeneration rule of the paper's models.
        EdgePolicy::Regenerate
    }

    fn has_streaming_churn(&self) -> bool {
        // The overlay is the realistic counterpart of the Poisson model with
        // edge regeneration; analyses treat it as such.
        false
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
        let summary = self.advance_churn_until(target);
        self.maintenance();
        summary
    }

    fn warm_up(&mut self) {
        while !self.is_warm() {
            self.advance_time_unit();
        }
    }

    fn is_warm(&self) -> bool {
        self.time >= 3.0 * self.config.expected_peers as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use churn_graph::traversal::connected_components;
    use churn_graph::Snapshot;

    fn overlay(n: usize, seed: u64) -> P2pNetwork {
        let mut net = P2pNetwork::new(
            P2pConfig::new(n)
                .target_outbound(8)
                .dns_seed_addresses(32)
                .seed(seed),
        )
        .unwrap();
        net.warm_up();
        net
    }

    #[test]
    fn construction_rejects_invalid_config() {
        assert!(P2pNetwork::new(P2pConfig::new(1)).is_err());
        assert!(P2pNetwork::new(P2pConfig::new(100).target_outbound(0)).is_err());
    }

    #[test]
    fn population_concentrates_near_expected_peers() {
        let net = overlay(150, 1);
        let size = net.alive_count() as f64;
        assert!(
            size > 0.6 * 150.0 && size < 1.4 * 150.0,
            "overlay size {size} should be near 150"
        );
    }

    #[test]
    fn most_peers_hold_their_target_outbound_connections() {
        let net = overlay(150, 2);
        let peers = net.alive_ids();
        let full = peers
            .iter()
            .filter(|&&p| net.outbound_count(p) == Some(8))
            .count();
        assert!(
            full as f64 / peers.len() as f64 > 0.8,
            "only {full}/{} peers reached the outbound target",
            peers.len()
        );
        net.graph().assert_invariants();
    }

    #[test]
    fn inbound_caps_are_respected() {
        let mut net = P2pNetwork::new(
            P2pConfig::new(120)
                .target_outbound(6)
                .max_inbound(10)
                .seed(3),
        )
        .unwrap();
        net.warm_up();
        for peer in net.alive_ids() {
            assert!(
                net.inbound_count(peer).unwrap() <= 10,
                "peer {peer} exceeded the inbound cap"
            );
        }
    }

    #[test]
    fn overlay_stays_connected_under_churn() {
        let mut net = overlay(150, 4);
        for _ in 0..100 {
            net.advance_time_unit();
        }
        let comps = connected_components(&Snapshot::of(net.graph()));
        assert!(
            comps.largest_fraction() > 0.95,
            "overlay fragmentation: largest component only {:.2}",
            comps.largest_fraction()
        );
    }

    #[test]
    fn address_managers_learn_addresses_via_gossip() {
        let net = overlay(100, 5);
        let mut sizes: Vec<usize> = net
            .alive_ids()
            .into_iter()
            .filter_map(|p| net.addrman(p).map(AddressManager::len))
            .collect();
        sizes.sort_unstable();
        assert!(!sizes.is_empty());
        let median = sizes[sizes.len() / 2];
        assert!(
            median > 32,
            "gossip should grow address tables beyond the DNS bootstrap (median {median})"
        );
    }

    #[test]
    fn stats_reflect_activity() {
        let net = overlay(80, 6);
        let stats = net.stats();
        assert!(stats.connect_attempts > 0);
        assert!(stats.connect_successes > 0);
        assert!(stats.connect_successes <= stats.connect_attempts);
    }

    #[test]
    fn dynamic_network_impl_is_consistent() {
        let mut net = overlay(80, 7);
        assert!(!net.has_streaming_churn());
        assert_eq!(net.degree_parameter(), 8);
        assert_eq!(net.expected_size(), 80);
        assert!(net.edge_policy().regenerates());
        assert!(net.is_warm());
        let before = net.time();
        let summary = net.advance_time_unit();
        assert!((net.time() - before - 1.0).abs() < 1e-9);
        let _ = summary;
        if let Some(newest) = net.newest_node() {
            assert!(net.contains(newest));
            assert!(net.birth_time(newest).is_some());
        }
    }

    #[test]
    fn same_seed_is_reproducible() {
        let a = overlay(60, 8);
        let b = overlay(60, 8);
        assert_eq!(a.alive_ids(), b.alive_ids());
        assert_eq!(a.stats(), b.stats());
    }
}
