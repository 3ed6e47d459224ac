//! Pins the warm (post-`warm_up`) state of the p2p overlay.
//!
//! The digest covers everything the overlay's churn and maintenance loops
//! write — member order, identifiers, out-slot targets, in-request counts,
//! birth times, each peer's address table in table order, the operational
//! counters, the clock and the churn-step counter — so a change to how the
//! overlay stores its peers that shifts a single random draw (a victim, a
//! DNS seed, a dialled address, a gossip partner) fails here.

use churn_core::DynamicNetwork;
use churn_p2p::{P2pConfig, P2pNetwork};

const N: usize = 120;
const SEED: u64 = 13;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(net: &P2pNetwork) -> u64 {
    let graph = net.graph();
    let mut h = Fnv::new();
    h.word(graph.len() as u64);
    for &idx in graph.member_indices() {
        let id = graph.id_at(idx).expect("member cells are occupied");
        h.word(u64::from(idx));
        h.word(id.raw());
        for target in graph.out_slot_targets_at(idx) {
            h.word(target.map_or(u64::MAX, u64::from));
        }
        h.word(graph.in_request_count_at(idx).expect("member") as u64);
        h.word(net.birth_time(id).expect("alive peer").to_bits());
        let addrman = net.addrman(id).expect("alive peers have an address table");
        h.word(addrman.len() as u64);
        for addr in addrman.addresses() {
            h.word(addr.raw());
        }
    }
    let stats = net.stats();
    h.word(stats.connect_attempts);
    h.word(stats.connect_successes);
    h.word(stats.stale_addresses_pruned);
    h.word(net.time().to_bits());
    h.word(net.churn_steps());
    h.0
}

/// Digest recorded with the overlay keeping its own alive set beside the
/// graph. How the overlay stores its peers may change; the warm state it
/// produces may not, by a single bit.
#[test]
fn warm_state_digest_is_pinned() {
    let mut net = P2pNetwork::new(P2pConfig::new(N).seed(SEED)).unwrap();
    net.warm_up();
    assert_eq!(
        digest(&net),
        0x6d6b_cd96_a31a_eebb,
        "p2p warm-state digest moved"
    );
}
