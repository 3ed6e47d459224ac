//! The onion-skin process of Section 3.1.2, replayed on realized graphs.
//!
//! The onion-skin process is the paper's key analytical device for the positive
//! flooding result *without* edge regeneration (Theorem 3.8): starting from the
//! newly joined source, it grows a bipartite subgraph that alternates between
//! *young* nodes (age below `n/2`) and *old* nodes (age between `n/2` and
//! `n − log n`), and alternates between the second half ("type-B") and first
//! half ("type-A") of each node's `d` requests. Claim 3.10 shows each phase
//! multiplies the newly reached sets by roughly `d/20`, which yields the
//! `O(log n / log d)` bound of Lemma 3.9.
//!
//! [`run_onion_skin`] replays exactly this restricted exploration on the
//! *realized* SDG graph, so experiment E9 can measure the per-phase growth
//! factors and compare them with the `d/20` prediction.

use churn_graph::NodeId;

use crate::model::DynamicNetwork;
use crate::StreamingModel;

/// Age-class of a node in the onion-skin construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgeClass {
    /// Age below `n/2` (the paper's set `Y`, excluding the very youngest ages 0
    /// and 1 which the construction treats separately).
    Young,
    /// Age in `[n/2, n − log n]` (the paper's set `O`).
    Old,
    /// Age above `n − log n` (the paper's set `Ô`; about to die, never used).
    VeryOld,
}

/// Growth observed in one phase of the onion-skin process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnionSkinPhase {
    /// Phase index (0 is the source's own phase).
    pub phase: usize,
    /// Young nodes newly reached in this phase (0 in phase 0).
    pub new_young: usize,
    /// Old nodes newly reached in this phase.
    pub new_old: usize,
    /// Cumulative young nodes reached after this phase (including the source).
    pub young_total: usize,
    /// Cumulative old nodes reached after this phase.
    pub old_total: usize,
}

/// Full trace of one onion-skin run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnionSkinTrace {
    /// The source node (the most recently joined node).
    pub source: NodeId,
    /// Number of alive nodes classified as young.
    pub young_population: usize,
    /// Number of alive nodes classified as old.
    pub old_population: usize,
    /// Number of alive nodes classified as very old.
    pub very_old_population: usize,
    /// Per-phase growth, phase 0 first.
    pub phases: Vec<OnionSkinPhase>,
}

impl OnionSkinTrace {
    /// Total nodes reached by the construction (young + old, including the
    /// source).
    #[must_use]
    pub fn reached(&self) -> usize {
        self.phases
            .last()
            .map_or(1, |p| p.young_total + p.old_total)
    }

    /// Per-phase growth factors `|new layer| / |previous layer|` of the old-node
    /// frontier, skipping phases where the previous layer was empty. Claim 3.10
    /// predicts these stay around `d/20` while the frontier is below `n/d`.
    #[must_use]
    pub fn old_growth_factors(&self) -> Vec<f64> {
        let mut factors = Vec::new();
        for w in self.phases.windows(2) {
            if w[0].new_old > 0 {
                factors.push(w[1].new_old as f64 / w[0].new_old as f64);
            }
        }
        factors
    }

    /// Number of phases executed (including phase 0).
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

/// Classifies a node's age for the onion-skin construction.
#[must_use]
pub fn classify_age(age: u64, n: usize) -> AgeClass {
    let n_f = n as u64;
    let log_n = (n as f64).ln().floor().max(1.0) as u64;
    let half = n_f / 2;
    if age < half {
        AgeClass::Young
    } else if age <= n_f.saturating_sub(log_n) {
        AgeClass::Old
    } else {
        AgeClass::VeryOld
    }
}

/// Age-class codes of the dense per-slab-cell classification table.
const CLASS_YOUNG: u8 = 0;
const CLASS_OLD: u8 = 1;
const CLASS_VERY_OLD: u8 = 2;
const CLASS_VACANT: u8 = 3;

/// Replays the onion-skin process on the current snapshot of a streaming model
/// (the construction is defined for the SDG model; it also runs on SDGR graphs,
/// where it is simply a further restriction of the realized edges).
///
/// The source is the most recently joined node. The process stops when a phase
/// adds no new node or when the reached set exceeds `n` (it cannot, but the
/// guard keeps the loop finite).
///
/// The construction runs entirely on the graph's dense slab indices — age
/// classes, reached sets and frontiers are flat arrays indexed by slab cell,
/// and adjacency is walked through the allocation-free
/// [`churn_graph::DynamicGraph::out_slot_targets_at`] — so one replay costs
/// `O(n·d)` per phase with no hashing, which is what lets experiment E9
/// follow the flooding binaries to `n = 10^6`.
#[must_use]
pub fn run_onion_skin(model: &StreamingModel) -> OnionSkinTrace {
    let n = model.expected_size();
    let d = model.degree_parameter();
    let half_d = (d / 2).max(1);
    let graph = model.graph();
    let source = model
        .newest_node()
        .expect("a warmed streaming model always has nodes");
    let source_idx = graph
        .dense_index_of(source)
        .expect("the newest node is alive");
    let slab_len = graph.slab_len();

    // Classify the population into a slab-indexed table.
    let mut young_population = 0usize;
    let mut old_population = 0usize;
    let mut very_old_population = 0usize;
    let mut class = vec![CLASS_VACANT; slab_len];
    for &idx in graph.member_indices() {
        let id = graph.id_at(idx).expect("member cells are occupied");
        let age = model.age_rounds(id).expect("alive node has an age");
        class[idx as usize] = match classify_age(age, n) {
            AgeClass::Young => {
                young_population += 1;
                CLASS_YOUNG
            }
            AgeClass::Old => {
                old_population += 1;
                CLASS_OLD
            }
            AgeClass::VeryOld => {
                very_old_population += 1;
                CLASS_VERY_OLD
            }
        };
    }

    let mut young_reached = vec![false; slab_len];
    let mut old_reached = vec![false; slab_len];
    young_reached[source_idx as usize] = true;
    let mut young_total = 1usize;

    // Phase 0: the source's own d requests, restricted to old destinations.
    let mut in_old_frontier = vec![false; slab_len];
    let mut old_frontier: Vec<u32> = Vec::new();
    for target in graph.out_slot_targets_at(source_idx).flatten() {
        let t = target as usize;
        if class[t] == CLASS_OLD && !in_old_frontier[t] {
            in_old_frontier[t] = true;
            old_reached[t] = true;
            old_frontier.push(target);
        }
    }
    let mut old_total = old_frontier.len();

    let mut phases = vec![OnionSkinPhase {
        phase: 0,
        new_young: 0,
        new_old: old_frontier.len(),
        young_total,
        old_total,
    }];

    // Subsequent phases alternate: young nodes reach the old frontier via their
    // type-B requests (slots d/2..d), then the newly reached young nodes extend
    // the old set via their type-A requests (slots 0..d/2).
    let mut guard = 0usize;
    loop {
        guard += 1;
        if old_frontier.is_empty() || guard > n {
            break;
        }

        // Step 1: young nodes not yet reached whose type-B requests hit the old
        // frontier.
        let mut young_frontier: Vec<u32> = Vec::new();
        for &v in graph.member_indices() {
            if class[v as usize] != CLASS_YOUNG || young_reached[v as usize] {
                continue;
            }
            let hits_frontier = graph
                .out_slot_targets_at(v)
                .skip(half_d)
                .flatten()
                .any(|t| in_old_frontier[t as usize]);
            if hits_frontier {
                young_frontier.push(v);
            }
        }

        // Step 2: old nodes not yet reached that are type-A targets of the newly
        // reached young nodes (marking on insertion deduplicates).
        let mut next_old_frontier: Vec<u32> = Vec::new();
        for &v in &young_frontier {
            for target in graph.out_slot_targets_at(v).take(half_d).flatten() {
                let t = target as usize;
                if class[t] == CLASS_OLD && !old_reached[t] {
                    old_reached[t] = true;
                    next_old_frontier.push(target);
                }
            }
        }

        if young_frontier.is_empty() && next_old_frontier.is_empty() {
            break;
        }

        for &v in &young_frontier {
            young_reached[v as usize] = true;
        }
        young_total += young_frontier.len();
        old_total += next_old_frontier.len();
        phases.push(OnionSkinPhase {
            phase: phases.len(),
            new_young: young_frontier.len(),
            new_old: next_old_frontier.len(),
            young_total,
            old_total,
        });
        for &t in &old_frontier {
            in_old_frontier[t as usize] = false;
        }
        old_frontier = next_old_frontier;
        for &t in &old_frontier {
            in_old_frontier[t as usize] = true;
        }
    }

    OnionSkinTrace {
        source,
        young_population,
        old_population,
        very_old_population,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StreamingConfig, StreamingModel};

    fn warm_sdg(n: usize, d: usize, seed: u64) -> StreamingModel {
        let mut m = StreamingModel::new(StreamingConfig::new(n, d).seed(seed)).unwrap();
        m.warm_up();
        m
    }

    #[test]
    fn age_classification_matches_paper_bands() {
        let n = 1000;
        assert_eq!(classify_age(0, n), AgeClass::Young);
        assert_eq!(classify_age(499, n), AgeClass::Young);
        assert_eq!(classify_age(500, n), AgeClass::Old);
        assert_eq!(classify_age(993, n), AgeClass::Old);
        assert_eq!(classify_age(998, n), AgeClass::VeryOld);
        assert_eq!(classify_age(1000, n), AgeClass::VeryOld);
    }

    #[test]
    fn populations_split_roughly_in_half() {
        let model = warm_sdg(400, 4, 1);
        let trace = run_onion_skin(&model);
        let total = trace.young_population + trace.old_population + trace.very_old_population;
        assert_eq!(total, 400);
        assert!(trace.young_population >= 190 && trace.young_population <= 210);
        assert!(trace.very_old_population <= 10);
    }

    #[test]
    fn source_is_the_newest_node_and_phase_zero_counts_its_old_targets() {
        let model = warm_sdg(300, 6, 2);
        let trace = run_onion_skin(&model);
        assert_eq!(trace.source, model.newest_node().unwrap());
        let phase0 = &trace.phases[0];
        assert_eq!(phase0.phase, 0);
        assert_eq!(phase0.new_young, 0);
        assert!(phase0.new_old <= 6, "at most d old targets in phase 0");
        assert_eq!(phase0.young_total, 1);
    }

    #[test]
    fn reached_sets_only_grow_and_stay_within_population() {
        let model = warm_sdg(500, 8, 3);
        let trace = run_onion_skin(&model);
        for w in trace.phases.windows(2) {
            assert!(w[1].young_total >= w[0].young_total);
            assert!(w[1].old_total >= w[0].old_total);
            assert_eq!(w[1].phase, w[0].phase + 1);
        }
        assert!(trace.reached() <= 500);
        assert!(trace.phase_count() >= 1);
    }

    #[test]
    fn larger_d_reaches_more_nodes() {
        // Claim 3.10's growth factor scales with d: with d = 16 the construction
        // should reach far more nodes than with d = 2 on the same network size.
        let small = run_onion_skin(&warm_sdg(600, 2, 4));
        let large = run_onion_skin(&warm_sdg(600, 16, 4));
        assert!(
            large.reached() > small.reached(),
            "d = 16 reached {} nodes, d = 2 reached {}",
            large.reached(),
            small.reached()
        );
        assert!(
            large.reached() > 100,
            "with d = 16 the onion-skin reaches a large set, got {}",
            large.reached()
        );
    }

    #[test]
    fn growth_factors_are_positive_while_growing() {
        let trace = run_onion_skin(&warm_sdg(800, 12, 5));
        for f in trace.old_growth_factors() {
            assert!(f >= 0.0);
        }
    }
}
