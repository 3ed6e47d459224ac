//! Property-based tests for the dynamic network models.
//!
//! These check model invariants over randomly drawn parameters and seeds — the
//! facts that must hold for *every* realisation, not just in expectation:
//! population laws, degree bookkeeping, the informed set being a subset of the
//! alive set, determinism under a fixed seed, and consistency of the type-erased
//! wrapper.

use churn_core::flooding::{run_flooding, FloodingConfig, FloodingSource};
use churn_core::{
    AnyModel, DynamicNetwork, EdgePolicy, ModelKind, PoissonConfig, PoissonModel, StreamingConfig,
    StreamingModel,
};
use proptest::prelude::*;

fn model_kind_strategy() -> impl Strategy<Value = ModelKind> {
    prop_oneof![
        Just(ModelKind::Sdg),
        Just(ModelKind::Sdgr),
        Just(ModelKind::Pdg),
        Just(ModelKind::Pdgr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The streaming model's population is min(round, n) at every round, and the
    /// set of ages is always {0, …, population − 1}.
    #[test]
    fn streaming_population_and_ages_are_deterministic(
        n in 2usize..60,
        d in 1usize..6,
        seed in any::<u64>(),
        extra_rounds in 0u64..120,
    ) {
        let mut m = StreamingModel::new(StreamingConfig::new(n, d).seed(seed)).unwrap();
        let total = n as u64 + extra_rounds;
        for round in 1..=total {
            m.advance_time_unit();
            let expected = round.min(n as u64) as usize;
            prop_assert_eq!(m.alive_count(), expected);
            let mut ages: Vec<u64> = m
                .alive_ids()
                .into_iter()
                .map(|id| m.age_rounds(id).unwrap())
                .collect();
            ages.sort_unstable();
            let want: Vec<u64> = (0..expected as u64).collect();
            prop_assert_eq!(ages, want);
        }
    }

    /// Under edge regeneration every alive node keeps exactly d connected
    /// out-slots (once the network has at least two nodes), in both churn models.
    ///
    /// Poisson caveat: regeneration (Definition 4.14) only repairs a slot when
    /// its *target* dies, so a node that joined a (near-)empty network — the
    /// startup transient, or a deep population collapse — can carry
    /// never-connected slots for its whole exponential lifetime. Streaming
    /// warm-up (2n rounds with hard n-round lifetimes) provably flushes such
    /// nodes, so SDGR is checked exactly; for PDGR the exact check applies to
    /// nodes born after the startup transient, and survivors from it may only
    /// ever be *below* d, never above.
    #[test]
    fn regeneration_keeps_out_degree_full(
        kind in prop_oneof![Just(ModelKind::Sdgr), Just(ModelKind::Pdgr)],
        n in 30usize..80,
        d in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut m = kind.build(n, d, seed).unwrap();
        m.warm_up();
        for _ in 0..20 {
            m.advance_time_unit();
        }
        for id in m.alive_ids() {
            let out_degree = m.graph().out_degree(id).unwrap();
            prop_assert!(out_degree <= d);
            if kind.is_streaming() || m.birth_time(id).unwrap() > 1.5 * n as f64 {
                prop_assert_eq!(out_degree, d);
            }
        }
        m.graph().assert_invariants();
    }

    /// The graph's internal bookkeeping stays consistent under every model and
    /// seed.
    #[test]
    fn graph_invariants_hold_for_all_models(
        kind in model_kind_strategy(),
        n in 5usize..50,
        d in 1usize..5,
        seed in any::<u64>(),
        steps in 1u64..60,
    ) {
        let mut m = kind.build(n, d, seed).unwrap();
        for _ in 0..steps {
            m.advance_time_unit();
        }
        m.graph().assert_invariants();
        // Every out-slot target is alive and distinct from its owner.
        for id in m.alive_ids() {
            for target in m.graph().out_slots(id).unwrap().iter().flatten() {
                prop_assert!(m.contains(*target));
                prop_assert_ne!(*target, id);
            }
        }
    }

    /// Models are deterministic functions of their configuration: same seed,
    /// same trajectory; and time never decreases.
    #[test]
    fn models_are_deterministic_and_time_is_monotone(
        kind in model_kind_strategy(),
        n in 5usize..40,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut a = kind.build(n, d, seed).unwrap();
        let mut b = kind.build(n, d, seed).unwrap();
        let mut last_time = 0.0;
        for _ in 0..30 {
            let sa = a.advance_time_unit();
            let sb = b.advance_time_unit();
            prop_assert_eq!(sa, sb);
            prop_assert!(a.time() >= last_time);
            last_time = a.time();
        }
        prop_assert_eq!(a.alive_ids(), b.alive_ids());
    }

    /// Birth times returned by the model are consistent with the current time
    /// and node ages are non-negative.
    #[test]
    fn birth_times_are_consistent(
        kind in model_kind_strategy(),
        n in 5usize..40,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut m = kind.build(n, d, seed).unwrap();
        for _ in 0..(3 * n as u64) {
            m.advance_time_unit();
        }
        for id in m.alive_ids() {
            let birth = m.birth_time(id).unwrap();
            prop_assert!(birth >= 0.0);
            prop_assert!(birth <= m.time() + 1e-9);
            prop_assert!(m.age(id).unwrap() >= -1e-9);
        }
        prop_assert!(m.birth_time(churn_core::NodeId::new(u64::MAX)).is_none());
    }

    /// The flooding process maintains: informed ⊆ alive, the informed count never
    /// exceeds the alive count, and round counters advance by one per step.
    #[test]
    fn flooding_invariants(
        kind in model_kind_strategy(),
        n in 10usize..60,
        d in 2usize..6,
        seed in any::<u64>(),
    ) {
        let mut m = kind.build(n, d, seed).unwrap();
        m.warm_up();
        let record = run_flooding(
            &mut m,
            FloodingSource::NextToJoin,
            &FloodingConfig::with_max_rounds(50),
            1,
        );
        prop_assert!(!record.rounds.is_empty());
        for (i, stats) in record.rounds.iter().enumerate() {
            prop_assert_eq!(stats.round, i as u64 + 1);
            prop_assert!(stats.informed <= stats.alive);
            prop_assert!(stats.newly_informed <= stats.informed);
            let fraction = stats.informed_fraction();
            prop_assert!((0.0..=1.0).contains(&fraction));
        }
        prop_assert!(record.peak_informed() <= n + n / 2 + 2);
    }

    /// The type-erased wrapper behaves exactly like the concrete model it wraps.
    #[test]
    fn any_model_delegates_faithfully(
        regen in any::<bool>(),
        streaming in any::<bool>(),
        n in 5usize..40,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        let policy = if regen { EdgePolicy::Regenerate } else { EdgePolicy::Static };
        if streaming {
            let config = StreamingConfig::new(n, d).edge_policy(policy).seed(seed);
            let mut concrete = StreamingModel::new(config.clone()).unwrap();
            let mut wrapped = AnyModel::Streaming(StreamingModel::new(config).unwrap());
            for _ in 0..20 {
                prop_assert_eq!(concrete.advance_time_unit(), wrapped.advance_time_unit());
            }
            prop_assert_eq!(concrete.alive_ids(), wrapped.alive_ids());
            prop_assert_eq!(wrapped.kind().is_streaming(), true);
        } else {
            let config = PoissonConfig::with_expected_size(n.max(2), d).edge_policy(policy).seed(seed);
            let mut concrete = PoissonModel::new(config.clone()).unwrap();
            let mut wrapped = AnyModel::Poisson(PoissonModel::new(config).unwrap());
            for _ in 0..20 {
                prop_assert_eq!(concrete.advance_time_unit(), wrapped.advance_time_unit());
            }
            prop_assert_eq!(concrete.alive_ids(), wrapped.alive_ids());
            prop_assert_eq!(wrapped.kind().is_poisson(), true);
        }
    }

    /// Churn summaries are consistent with the alive set before and after the
    /// step, for every model.
    #[test]
    fn churn_summaries_match_alive_sets(
        kind in model_kind_strategy(),
        n in 5usize..50,
        d in 1usize..5,
        seed in any::<u64>(),
    ) {
        use std::collections::HashSet;
        let mut m = kind.build(n, d, seed).unwrap();
        m.warm_up();
        for _ in 0..10 {
            let before: HashSet<_> = m.alive_ids().into_iter().collect();
            let summary = m.advance_time_unit();
            let after: HashSet<_> = m.alive_ids().into_iter().collect();
            for b in &summary.births {
                prop_assert!(!before.contains(b) && after.contains(b));
            }
            for dth in &summary.deaths {
                prop_assert!(before.contains(dth) && !after.contains(dth));
            }
            // Nodes neither born nor dead persist.
            for id in &before {
                if !summary.deaths.contains(id) {
                    prop_assert!(after.contains(id));
                }
            }
        }
    }
}
