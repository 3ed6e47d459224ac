//! Configuration of the peer-to-peer overlay simulation.

use churn_core::{ModelError, Result};

/// Configuration of a [`crate::P2pNetwork`].
///
/// Defaults follow the Bitcoin Core values cited by the paper: 8 outbound
/// connections, at most 125 inbound connections, a large address manager, and
/// moderate address gossip.
#[derive(Debug, Clone, PartialEq)]
pub struct P2pConfig {
    /// Expected number of simultaneously online peers (the `n = λ/µ` of the
    /// underlying Poisson churn with λ = 1).
    pub expected_peers: usize,
    /// Target number of outbound connections every peer maintains.
    pub target_outbound: usize,
    /// Maximum number of inbound connections a peer accepts.
    pub max_inbound: usize,
    /// Maximum number of addresses a peer keeps in its address manager.
    pub addrman_capacity: usize,
    /// Number of addresses handed to a freshly joined peer by the DNS seeds.
    pub dns_seed_addresses: usize,
    /// Number of addresses exchanged with one random neighbour per maintenance
    /// round.
    pub gossip_addresses: usize,
    /// RNG seed.
    pub seed: u64,
}

impl P2pConfig {
    /// Creates a configuration with Bitcoin-Core-like defaults for the given
    /// expected overlay size.
    #[must_use]
    pub fn new(expected_peers: usize) -> Self {
        P2pConfig {
            expected_peers,
            target_outbound: 8,
            max_inbound: 125,
            addrman_capacity: 1_000,
            dns_seed_addresses: 64,
            gossip_addresses: 16,
            seed: 0,
        }
    }

    /// Sets the target outbound connection count.
    #[must_use]
    pub fn target_outbound(mut self, target: usize) -> Self {
        self.target_outbound = target;
        self
    }

    /// Sets the maximum inbound connection count.
    #[must_use]
    pub fn max_inbound(mut self, max: usize) -> Self {
        self.max_inbound = max;
        self
    }

    /// Sets the address-manager capacity.
    #[must_use]
    pub fn addrman_capacity(mut self, capacity: usize) -> Self {
        self.addrman_capacity = capacity;
        self
    }

    /// Sets the number of DNS-seed addresses a joining peer receives.
    #[must_use]
    pub fn dns_seed_addresses(mut self, count: usize) -> Self {
        self.dns_seed_addresses = count;
        self
    }

    /// Sets the number of addresses exchanged per gossip round.
    #[must_use]
    pub fn gossip_addresses(mut self, count: usize) -> Self {
        self.gossip_addresses = count;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NetworkTooSmall`] when fewer than 2 peers are
    /// expected and [`ModelError::InvalidDegree`] when the outbound target is 0
    /// or exceeds the address-manager capacity.
    pub fn validate(&self) -> Result<()> {
        if self.expected_peers < 2 {
            return Err(ModelError::NetworkTooSmall {
                requested: self.expected_peers,
                minimum: 2,
            });
        }
        if self.target_outbound == 0 || self.target_outbound > self.addrman_capacity {
            return Err(ModelError::InvalidDegree {
                requested: self.target_outbound,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_bitcoin_core_values() {
        let c = P2pConfig::new(1_000);
        assert_eq!(c.target_outbound, 8);
        assert_eq!(c.max_inbound, 125);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = P2pConfig::new(100)
            .target_outbound(4)
            .max_inbound(30)
            .addrman_capacity(200)
            .dns_seed_addresses(10)
            .gossip_addresses(5)
            .seed(9);
        assert_eq!(c.target_outbound, 4);
        assert_eq!(c.max_inbound, 30);
        assert_eq!(c.addrman_capacity, 200);
        assert_eq!(c.dns_seed_addresses, 10);
        assert_eq!(c.gossip_addresses, 5);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn validation_rejects_degenerate_configurations() {
        assert!(P2pConfig::new(1).validate().is_err());
        assert!(P2pConfig::new(100).target_outbound(0).validate().is_err());
        assert!(P2pConfig::new(100)
            .target_outbound(10)
            .addrman_capacity(5)
            .validate()
            .is_err());
    }
}
