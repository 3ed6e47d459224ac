//! Block propagation over the overlay.
//!
//! A new block announced by one peer reaches the rest of the network by
//! flooding: every peer forwards it to all of its current neighbours one
//! message delay after receiving it. This is exactly the paper's flooding
//! process, so the implementation simply drives
//! [`churn_core::flooding::run_flooding`] over the overlay and re-packages the
//! result in block-propagation terms.
//!
//! Under the hood everything runs on the dense slab indices (the flooding
//! bitset and the overlay's own maintenance loops), so no relay hot path
//! resolves identifiers through a hash table.

use serde::{Deserialize, Serialize};

use churn_core::flooding::{
    run_flooding, FloodingConfig, FloodingOutcome, FloodingRecord, FloodingSource,
};
use churn_core::{DynamicNetwork, NodeId};

use crate::P2pNetwork;

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
/// convention) and reports coverage milestones. Any topology-maintenance
/// substrate can carry the block: the dialling [`P2pNetwork`] or, say, a
/// RAES-maintained bounded-in-degree expander.
pub fn propagate_block<M: DynamicNetwork + ?Sized>(
    overlay: &mut M,
    max_delays: u64,
) -> PropagationReport {
    let record = run_flooding(
        overlay,
        FloodingSource::NextToJoin,
        &FloodingConfig::with_max_rounds(max_delays),
    );
    let delays_to_full = match &record.outcome {
        FloodingOutcome::Completed { rounds } => Some(*rounds),
        _ => None,
    };
    PropagationReport {
        origin: record.source,
        delays_to_half: record.rounds_to_fraction(0.5),
        delays_to_99: record.rounds_to_fraction(0.99),
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
        use churn_core::flooding::run_flooding_parallel;
        use churn_protocol::{ChurnDriver, RaesConfig, RaesModel};

        // Bitcoin-Core parameters mapped onto RAES: expected peers -> n,
        // outbound target -> d, inbound cap -> capacity factor 125/8.
        let config = P2pConfig::new(200).seed(4);
        let raes = || {
            let c = config.max_inbound as f64 / config.target_outbound as f64;
            let mut overlay = RaesModel::new(
                RaesConfig::new(config.expected_peers, config.target_outbound)
                    .capacity_factor(c)
                    .churn(ChurnDriver::Poisson)
                    .seed(config.seed),
            )
            .unwrap();
            overlay.warm_up();
            overlay
        };
        let mut overlay = raes();
        assert_eq!(overlay.in_degree_cap(), 125, "Bitcoin-Core inbound cap");
        assert_eq!(overlay.degree_parameter(), 8);
        let report = propagate_block(&mut overlay, 100);
        assert!(
            report.final_coverage > 0.95,
            "block coverage only {:.2} over RAES",
            report.final_coverage
        );
        // The sharded relay produces the identical trace on the same seed.
        let parallel = run_flooding_parallel(
            &mut raes(),
            FloodingSource::NextToJoin,
            &FloodingConfig::with_max_rounds(100),
            4,
        );
        assert_eq!(report.record, parallel);
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
