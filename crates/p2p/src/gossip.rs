//! Block propagation over the overlay.
//!
//! A new block announced by one peer reaches the rest of the network by
//! flooding: every peer forwards it to all of its current neighbours one
//! message delay after receiving it. This is exactly the paper's flooding
//! process, so the implementation simply drives
//! [`churn_core::flooding::run_flooding`] over the overlay and re-packages the
//! result in block-propagation terms.
//!
//! The relay is generic over [`DynamicNetwork`]
//! ([`propagate_block_from_over`]), so blocks can be relayed over any
//! topology-maintenance substrate — the Bitcoin-Core-like
//! [`P2pNetwork`], or a [`RaesModel`]-maintained bounded-in-degree expander
//! built with [`raes_overlay`]. Under the hood everything runs on the dense
//! slab indices (the flooding bitset and, since the `AddressManager` /
//! relay-partner ports, the overlay's own maintenance loops), so no relay hot
//! path resolves identifiers through a hash table. At overlay sizes past
//! ~10^5 peers, [`propagate_block_parallel`] shards the per-delay frontier
//! expansion across the rayon pool.

use serde::{Deserialize, Serialize};

use churn_core::flooding::{
    run_flooding, run_flooding_parallel, FloodingConfig, FloodingRecord, FloodingSource,
};
use churn_core::{DynamicNetwork, NodeId, Result};
use churn_protocol::{ChurnDriver, RaesConfig, RaesModel};

use crate::{P2pConfig, P2pNetwork};

/// Summary of one block propagation over the overlay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropagationReport {
    /// The peer that announced the block.
    pub origin: NodeId,
    /// Message delays until half of the online peers had the block.
    pub delays_to_half: Option<u64>,
    /// Message delays until 99% of the online peers had the block.
    pub delays_to_99: Option<u64>,
    /// Message delays until every peer (alive across the last delay) had the
    /// block, if that happened within the round cap.
    pub delays_to_full: Option<u64>,
    /// Fraction of online peers holding the block at the end of the run.
    pub final_coverage: f64,
    /// The underlying flooding record (per-round coverage trace).
    pub record: FloodingRecord,
}

/// Propagates a block from a freshly joined peer (the paper's source
/// convention) and reports coverage milestones.
pub fn propagate_block(overlay: &mut P2pNetwork, max_delays: u64) -> PropagationReport {
    propagate_block_from(overlay, FloodingSource::NextToJoin, max_delays)
}

/// Propagates a block from a chosen origin.
pub fn propagate_block_from(
    overlay: &mut P2pNetwork,
    source: FloodingSource,
    max_delays: u64,
) -> PropagationReport {
    propagate_block_from_over(overlay, source, max_delays)
}

/// [`propagate_block_from`] over any dynamic-network substrate.
pub fn propagate_block_from_over<M: DynamicNetwork>(
    overlay: &mut M,
    source: FloodingSource,
    max_delays: u64,
) -> PropagationReport {
    let record = run_flooding(
        overlay,
        source,
        &FloodingConfig::with_max_rounds(max_delays),
    );
    summarize(record)
}

/// [`propagate_block`] over any substrate, with the sharded parallel frontier
/// engine: same report delay-for-delay, but each relay hop fans across
/// `threads` workers (`0` = one per pool thread). Worth it from roughly 10^5
/// online peers.
pub fn propagate_block_parallel<M: DynamicNetwork>(
    overlay: &mut M,
    max_delays: u64,
    threads: usize,
) -> PropagationReport {
    let record = run_flooding_parallel(
        overlay,
        FloodingSource::NextToJoin,
        &FloodingConfig::with_max_rounds(max_delays),
        threads,
    );
    summarize(record)
}

/// Builds a [`RaesModel`]-maintained overlay from Bitcoin-Core-style
/// parameters: a bounded-in-degree expander under the same Poisson churn as
/// [`P2pNetwork`], maintained by the RAES request/accept/reject protocol
/// instead of addrman dialling. The mapping is direct — `expected_peers → n`,
/// `target_outbound → d`, and the inbound cap becomes the RAES capacity
/// factor `c = max_inbound / target_outbound` (the defaults give
/// `c = 125/8`, i.e. an in-degree cap of exactly 125).
///
/// The result implements [`DynamicNetwork`], so [`propagate_block_from_over`] and
/// the `health`/analysis machinery drive it like the dialling overlay.
///
/// # Errors
///
/// Propagates `RaesConfig` validation errors (degenerate sizes, zero degree,
/// or `max_inbound < target_outbound`, which would mean a capacity factor
/// below 1).
pub fn raes_overlay(config: &P2pConfig) -> Result<RaesModel> {
    let capacity_factor = config.max_inbound as f64 / config.target_outbound.max(1) as f64;
    RaesModel::new(
        RaesConfig::new(config.expected_peers, config.target_outbound)
            .capacity_factor(capacity_factor)
            .churn(ChurnDriver::Poisson)
            .seed(config.seed),
    )
}

fn summarize(record: FloodingRecord) -> PropagationReport {
    let delays_to_half = record.rounds_to_fraction(0.5);
    let delays_to_99 = record.rounds_to_fraction(0.99);
    let delays_to_full = match &record.outcome {
        churn_core::flooding::FloodingOutcome::Completed { rounds } => Some(*rounds),
        _ => None,
    };
    PropagationReport {
        origin: record.source,
        delays_to_half,
        delays_to_99,
        delays_to_full,
        final_coverage: record.final_fraction(),
        record,
    }
}

/// Propagates `blocks` consecutive blocks (each from a fresh joiner, separated
/// by `gap` time units of pure churn) and returns the reports.
pub fn propagate_block_series(
    overlay: &mut P2pNetwork,
    blocks: usize,
    gap: u64,
    max_delays: u64,
) -> Vec<PropagationReport> {
    let mut reports = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        reports.push(propagate_block(overlay, max_delays));
        overlay.advance_time_units(gap);
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::P2pConfig;

    fn overlay(n: usize, seed: u64) -> P2pNetwork {
        let mut net = P2pNetwork::new(P2pConfig::new(n).seed(seed)).unwrap();
        net.warm_up();
        net
    }

    #[test]
    fn blocks_reach_nearly_every_peer_quickly() {
        let mut net = overlay(200, 1);
        let report = propagate_block(&mut net, 100);
        assert!(
            report.final_coverage > 0.95,
            "block coverage only {:.2}",
            report.final_coverage
        );
        let to_99 = report.delays_to_99.expect("99% coverage reached");
        assert!(
            to_99 <= 25,
            "99% coverage took {to_99} delays, far beyond O(log 200)"
        );
        assert!(report.delays_to_half.unwrap() <= to_99);
    }

    #[test]
    fn full_coverage_is_reported_when_complete() {
        let mut net = overlay(150, 2);
        let report = propagate_block(&mut net, 200);
        if let Some(full) = report.delays_to_full {
            assert!(full >= report.delays_to_99.unwrap_or(0));
            assert!(report.final_coverage > 0.99);
        } else {
            // Even without formal completion the coverage must be near-total.
            assert!(report.final_coverage > 0.9);
        }
    }

    #[test]
    fn blocks_relay_over_a_raes_maintained_overlay() {
        let config = P2pConfig::new(200).seed(4);
        let mut overlay = raes_overlay(&config).unwrap();
        assert_eq!(overlay.in_degree_cap(), 125, "Bitcoin-Core inbound cap");
        assert_eq!(overlay.degree_parameter(), 8);
        overlay.warm_up();
        let report = propagate_block_from_over(&mut overlay, FloodingSource::NextToJoin, 100);
        assert!(
            report.final_coverage > 0.95,
            "block coverage only {:.2} over RAES",
            report.final_coverage
        );
        // The parallel relay produces the identical report on the same seed.
        let mut overlay2 = raes_overlay(&config).unwrap();
        overlay2.warm_up();
        let parallel = propagate_block_parallel(&mut overlay2, 100, 4);
        assert_eq!(report, parallel);
    }

    #[test]
    fn raes_overlay_rejects_sub_unit_capacity() {
        let config = P2pConfig::new(200).target_outbound(8).max_inbound(4);
        assert!(raes_overlay(&config).is_err(), "c = 0.5 must be rejected");
    }

    #[test]
    fn block_series_produces_one_report_per_block() {
        let mut net = overlay(100, 3);
        let reports = propagate_block_series(&mut net, 3, 5, 100);
        assert_eq!(reports.len(), 3);
        for r in &reports {
            assert!(r.final_coverage > 0.8);
            assert!(!r.record.rounds.is_empty());
        }
        // Origins are distinct freshly joined peers.
        assert_ne!(reports[0].origin, reports[1].origin);
    }
}
