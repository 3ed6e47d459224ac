//! Overlay health metrics.

use churn_core::DynamicNetwork;
use churn_graph::traversal::connected_components;
use churn_graph::Snapshot;
use churn_stochastic::OnlineStats;

use crate::P2pNetwork;

/// A snapshot of the overlay's structural health.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayHealth {
    /// Number of online peers.
    pub peers: usize,
    /// Mean number of outbound connections per peer.
    pub mean_outbound: f64,
    /// Mean number of inbound connections per peer.
    pub mean_inbound: f64,
    /// Largest number of inbound connections observed on any peer.
    pub max_inbound: usize,
    /// Number of peers with no connections at all.
    pub isolated_peers: usize,
    /// Fraction of peers in the largest connected component.
    pub largest_component_fraction: f64,
    /// Mean number of addresses known per peer.
    pub mean_addrman_size: f64,
    /// Fraction of known addresses that refer to peers no longer online.
    pub stale_address_fraction: f64,
}

/// Computes the current [`OverlayHealth`] of an overlay.
#[must_use]
pub fn overlay_health(overlay: &P2pNetwork) -> OverlayHealth {
    let graph = overlay.graph();
    let peers = overlay.alive_ids();
    let mut outbound = OnlineStats::new();
    let mut inbound = OnlineStats::new();
    let mut addrman_size = OnlineStats::new();
    let mut max_inbound = 0usize;
    let mut isolated = 0usize;
    let mut known_addresses = 0u64;
    let mut stale_addresses = 0u64;

    for &peer in &peers {
        let out = overlay.outbound_count(peer).unwrap_or(0);
        let inb = overlay.inbound_count(peer).unwrap_or(0);
        outbound.push(out as f64);
        inbound.push(inb as f64);
        max_inbound = max_inbound.max(inb);
        if graph.is_isolated(peer).unwrap_or(false) {
            isolated += 1;
        }
        if let Some(addrman) = overlay.addrman(peer) {
            addrman_size.push(addrman.len() as f64);
            for &addr in addrman.addresses() {
                known_addresses += 1;
                if !graph.contains(addr) {
                    stale_addresses += 1;
                }
            }
        }
    }

    let components = connected_components(&Snapshot::of(graph));

    OverlayHealth {
        peers: peers.len(),
        mean_outbound: outbound.mean(),
        mean_inbound: inbound.mean(),
        max_inbound,
        isolated_peers: isolated,
        largest_component_fraction: components.largest_fraction(),
        mean_addrman_size: addrman_size.mean(),
        stale_address_fraction: if known_addresses == 0 {
            0.0
        } else {
            stale_addresses as f64 / known_addresses as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::P2pConfig;

    #[test]
    fn healthy_overlay_metrics() {
        let mut net = P2pNetwork::new(P2pConfig::new(120).seed(11)).unwrap();
        net.warm_up();
        let health = overlay_health(&net);
        assert_eq!(health.peers, net.alive_count());
        assert!(
            health.mean_outbound > 6.0,
            "mean outbound {}",
            health.mean_outbound
        );
        assert!(
            health.mean_inbound > 6.0,
            "inbound mirrors outbound on average"
        );
        assert!(health.max_inbound <= 125);
        assert_eq!(health.isolated_peers, 0);
        assert!(health.largest_component_fraction > 0.95);
        assert!(health.mean_addrman_size > 10.0);
        assert!((0.0..=1.0).contains(&health.stale_address_fraction));
    }

    #[test]
    fn empty_overlay_health_is_zeroed() {
        let net = P2pNetwork::new(P2pConfig::new(50).seed(0)).unwrap();
        let health = overlay_health(&net);
        assert_eq!(health.peers, 0);
        assert_eq!(health.mean_outbound, 0.0);
        assert_eq!(health.stale_address_fraction, 0.0);
        assert_eq!(health.largest_component_fraction, 0.0);
    }
}
