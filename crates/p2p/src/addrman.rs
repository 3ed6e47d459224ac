//! The per-peer address manager ("addrman").
//!
//! Bitcoin Core full nodes keep a large table of known peer addresses, seeded
//! from DNS seeds at first start and continuously refreshed by `addr` gossip.
//! When a node needs a new outbound connection it samples from this table —
//! which, as the paper observes, makes the chosen neighbour "essentially random
//! among all nodes of the network" and is what justifies the PDGR abstraction.

use rand::Rng;
use serde::{Deserialize, Serialize};

use churn_core::NodeId;
use churn_graph::hashing::IdHashMap;

/// A bounded table of known peer addresses with uniform sampling and random
/// eviction.
///
/// Stored as a *dense member table*, the same layout `churn-graph` uses for
/// its alive set: the addresses live in a contiguous vector (the O(1) uniform
/// sampling surface) and a fast-hashed `address → position` map makes insert,
/// remove and eviction O(1) swap-removes — the former `HashSet` + linear
/// position scan made [`AddressManager::remove`] O(n) with SipHash on top,
/// which is the overlay's hottest maintenance call (every failed dial to a
/// dead peer goes through it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressManager {
    capacity: usize,
    addresses: Vec<NodeId>,
    /// Position of each known address inside `addresses` (dense, swap-remove
    /// maintained — the `member_pos` pattern of the graph's member table).
    position: IdHashMap<NodeId, u32>,
}

impl AddressManager {
    /// Creates an empty address manager with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "address manager capacity must be positive");
        AddressManager {
            capacity,
            addresses: Vec::with_capacity(capacity),
            position: IdHashMap::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// Removes the entry at `pos` with a swap-remove, fixing the moved
    /// entry's position. O(1).
    fn swap_remove_at(&mut self, pos: u32) -> NodeId {
        let removed = self.addresses.swap_remove(pos as usize);
        self.position.remove(&removed);
        if let Some(&moved) = self.addresses.get(pos as usize) {
            *self
                .position
                .get_mut(&moved)
                .expect("table entries are indexed") = pos;
        }
        removed
    }

    /// Number of known addresses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addresses.len()
    }

    /// Returns `true` when no addresses are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addresses.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an address. When the table is full a uniformly random existing
    /// entry is evicted to make room (Bitcoin Core's addrman similarly
    /// overwrites buckets). Returns `true` if the address was new. O(1).
    pub fn insert<R: Rng + ?Sized>(&mut self, addr: NodeId, rng: &mut R) -> bool {
        if self.position.contains_key(&addr) {
            return false;
        }
        if self.addresses.len() >= self.capacity {
            let evict = rng.gen_range(0..self.addresses.len());
            self.swap_remove_at(evict as u32);
        }
        self.position.insert(addr, self.addresses.len() as u32);
        self.addresses.push(addr);
        true
    }

    /// Removes an address (e.g. after a failed connection attempt to a dead
    /// peer). Returns `true` if it was known. O(1) — one hash probe and a
    /// swap-remove, no position scan.
    pub fn remove(&mut self, addr: NodeId) -> bool {
        let Some(&pos) = self.position.get(&addr) else {
            return false;
        };
        self.swap_remove_at(pos);
        true
    }

    /// A uniformly random known address, or `None` when empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.addresses.is_empty() {
            None
        } else {
            Some(self.addresses[rng.gen_range(0..self.addresses.len())])
        }
    }

    /// Up to `count` distinct random addresses (for `addr` gossip).
    pub fn sample_many<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<NodeId> {
        if self.addresses.is_empty() || count == 0 {
            return Vec::new();
        }
        if count >= self.addresses.len() {
            return self.addresses.clone();
        }
        // Partial Fisher–Yates over a copy of the indices.
        let mut indices: Vec<usize> = (0..self.addresses.len()).collect();
        for i in 0..count {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        indices[..count]
            .iter()
            .map(|&i| self.addresses[i])
            .collect()
    }

    /// All known addresses (arbitrary order).
    #[must_use]
    pub fn addresses(&self) -> &[NodeId] {
        &self.addresses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn id(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn insert_remove_and_lookup() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = AddressManager::new(10);
        assert!(a.is_empty());
        assert!(a.insert(id(1), &mut rng));
        assert!(!a.insert(id(1), &mut rng), "duplicate insert reports false");
        assert!(a.addresses().contains(&id(1)));
        assert_eq!(a.len(), 1);
        assert!(a.remove(id(1)));
        assert!(!a.remove(id(1)));
        assert!(a.is_empty());
    }

    #[test]
    fn capacity_is_enforced_by_random_eviction() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = AddressManager::new(5);
        for raw in 0..50 {
            a.insert(id(raw), &mut rng);
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.capacity(), 5);
        // Every stored address is one of the inserted ones and all are distinct.
        let mut seen = HashSet::new();
        for &addr in a.addresses() {
            assert!(addr.raw() < 50);
            assert!(seen.insert(addr));
        }
    }

    #[test]
    fn sampling_returns_known_addresses() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = AddressManager::new(100);
        for raw in 0..20 {
            a.insert(id(raw), &mut rng);
        }
        for _ in 0..100 {
            let s = a.sample(&mut rng).unwrap();
            assert!(a.addresses().contains(&s));
        }
        let many = a.sample_many(7, &mut rng);
        assert_eq!(many.len(), 7);
        let distinct: HashSet<NodeId> = many.iter().copied().collect();
        assert_eq!(distinct.len(), 7, "sample_many returns distinct addresses");
        assert_eq!(
            a.sample_many(50, &mut rng).len(),
            20,
            "capped at table size"
        );
        assert!(a.sample_many(0, &mut rng).is_empty());
    }

    #[test]
    fn empty_manager_samples_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = AddressManager::new(4);
        assert!(a.sample(&mut rng).is_none());
        assert!(a.sample_many(3, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = AddressManager::new(0);
    }

    #[test]
    fn position_map_survives_churny_mixed_workload() {
        // The dense member table's position map must stay exact through long
        // interleavings of inserts, O(1) removes and full-table evictions.
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = AddressManager::new(16);
        for step in 0..2000u64 {
            if step % 3 == 0 {
                a.remove(id(rng.gen_range(0..200)));
            } else {
                a.insert(id(rng.gen_range(0..200)), &mut rng);
            }
            assert!(a.len() <= a.capacity());
            // Invariant: the vector and the position map mirror each other.
            let mut seen = HashSet::new();
            for (pos, &addr) in a.addresses().iter().enumerate() {
                assert!(seen.insert(addr), "duplicate address in dense table");
                assert_eq!(a.position.get(&addr), Some(&(pos as u32)));
            }
            assert_eq!(a.position.len(), a.len());
        }
        // Spot-check O(1) removal correctness on the final state.
        let addrs: Vec<NodeId> = a.addresses().to_vec();
        for addr in addrs {
            assert!(a.remove(addr));
            assert!(!a.position.contains_key(&addr));
        }
        assert!(a.is_empty());
    }
}
