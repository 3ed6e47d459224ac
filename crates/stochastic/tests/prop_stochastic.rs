//! Property-based tests for the stochastic substrate.

use churn_stochastic::distributions::{Exponential, Geometric, Poisson};
use churn_stochastic::process::BirthDeathChain;
use churn_stochastic::rng::{derive_seed, seeded_rng};
use churn_stochastic::stats::{entropy, kl_divergence, linear_fit, quantile, OnlineStats};
use churn_stochastic::EventQueue;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Welford accumulation matches the two-pass mean and variance formulas for
    /// arbitrary inputs.
    #[test]
    fn online_stats_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let stats: OnlineStats = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        prop_assert!((stats.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((stats.variance() - var).abs() < 1e-5 * (1.0 + var.abs()));
        prop_assert_eq!(stats.count(), xs.len() as u64);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(stats.min(), min);
        prop_assert_eq!(stats.max(), max);
    }

    /// Merging accumulators over any split equals accumulating the whole slice.
    #[test]
    fn online_stats_merge_is_associative_with_split(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..100),
        split in 0usize..100,
    ) {
        let split = split % xs.len();
        let pooled: OnlineStats = xs.iter().copied().collect();
        let mut left: OnlineStats = xs[..split].iter().copied().collect();
        let right: OnlineStats = xs[split..].iter().copied().collect();
        left.merge(&right);
        prop_assert_eq!(left.count(), pooled.count());
        prop_assert!((left.mean() - pooled.mean()).abs() < 1e-8);
        prop_assert!((left.variance() - pooled.variance()).abs() < 1e-6);
    }

    /// Quantiles are monotone in q and bracketed by min/max.
    #[test]
    fn quantiles_are_monotone(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let q25 = quantile(&xs, 0.25).unwrap();
        let q50 = quantile(&xs, 0.5).unwrap();
        let q75 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q25 <= q50 + 1e-12);
        prop_assert!(q50 <= q75 + 1e-12);
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(q25 >= min - 1e-12 && q75 <= max + 1e-12);
    }

    /// KL divergence between valid distributions is non-negative (Theorem A.3)
    /// and zero exactly for identical distributions.
    #[test]
    fn kl_divergence_is_nonnegative(weights in proptest::collection::vec(0.01f64..10.0, 2..20),
                                    other in proptest::collection::vec(0.01f64..10.0, 2..20)) {
        let len = weights.len().min(other.len());
        let normalize = |v: &[f64]| -> Vec<f64> {
            let s: f64 = v.iter().sum();
            v.iter().map(|x| x / s).collect()
        };
        let p = normalize(&weights[..len]);
        let q = normalize(&other[..len]);
        let d = kl_divergence(&p, &q).unwrap();
        prop_assert!(d >= -1e-12, "KL divergence must be non-negative, got {d}");
        prop_assert!(kl_divergence(&p, &p).unwrap().abs() < 1e-12);
        // Entropy of a valid pmf is within [0, log2(len)].
        let h = entropy(&p).unwrap();
        prop_assert!(h >= -1e-12 && h <= (len as f64).log2() + 1e-9);
    }

    /// The least-squares fit exactly recovers data generated from a line.
    #[test]
    fn linear_fit_recovers_planted_line(slope in -100.0f64..100.0, intercept in -100.0f64..100.0,
                                        xs in proptest::collection::hash_set(-1000i32..1000, 2..30)) {
        let points: Vec<(f64, f64)> = xs.iter().map(|&x| (x as f64, slope * x as f64 + intercept)).collect();
        let fit = linear_fit(&points).unwrap();
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
    }

    /// Exponential samples are positive and their CDF is a valid distribution
    /// function.
    #[test]
    fn exponential_samples_positive(rate in 0.001f64..1000.0, seed in any::<u64>()) {
        let dist = Exponential::new(rate).unwrap();
        let mut rng = seeded_rng(seed);
        for _ in 0..100 {
            let x = dist.sample(&mut rng);
            prop_assert!(x > 0.0 && x.is_finite());
        }
        prop_assert!(dist.cdf(0.0) <= dist.cdf(1.0));
        prop_assert!(dist.cdf(1.0) <= dist.cdf(10.0));
        prop_assert!((dist.cdf(f64::MAX) - 1.0).abs() < 1e-9);
    }

    /// Poisson PMFs sum to (nearly) one for moderate means.
    #[test]
    fn poisson_pmf_is_a_distribution(mean in 0.1f64..20.0) {
        let dist = Poisson::new(mean).unwrap();
        let total: f64 = (0..200).map(|k| dist.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
    }

    /// Geometric samples are at least 1.
    #[test]
    fn geometric_samples_at_least_one(p in 0.01f64..1.0, seed in any::<u64>()) {
        let dist = Geometric::new(p).unwrap();
        let mut rng = seeded_rng(seed);
        for _ in 0..100 {
            prop_assert!(dist.sample(&mut rng) >= 1);
        }
    }

    /// The jump chain's birth and death probabilities always sum to one and the
    /// specific-node death probability is at most the total death probability.
    #[test]
    fn jump_chain_probabilities_are_consistent(
        n in 1.0f64..1e6,
        alive in 0u64..2_000_000,
    ) {
        let chain = BirthDeathChain::new(1.0, 1.0 / n);
        let birth = chain.birth_probability(alive);
        let death = chain.death_probability(alive);
        prop_assert!((birth + death - 1.0).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&birth));
        prop_assert!((0.0..=1.0).contains(&death));
        if alive > 0 {
            prop_assert!(chain.specific_death_probability(alive) <= death + 1e-15);
        }
    }

    /// The event queue releases events in `(time, schedule order)` regardless of
    /// insertion order: uniform times, times on the queue's 1/16 epoch
    /// boundaries and one ulp either side of them, `-0.0` (tied with `0.0`),
    /// `1.0e9` and `+∞`, with plenty of exact ties. `len` counts down by one
    /// per pop.
    #[test]
    fn event_queue_orders_events(times in proptest::collection::vec(event_time(), 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut expected: Vec<usize> = (0..times.len()).collect();
        // A stable sort keeps equal times in schedule order.
        expected.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("no NaN"));
        let mut popped = Vec::with_capacity(times.len());
        while let Some((t, i)) = q.pop() {
            prop_assert_eq!(t.to_bits(), times[i].to_bits());
            popped.push(i);
            prop_assert_eq!(q.len(), times.len() - popped.len());
        }
        prop_assert_eq!(popped, expected);
        prop_assert!(q.is_empty());
    }

    /// Seed derivation is deterministic and sensitive to both base and stream.
    #[test]
    fn seed_derivation_is_a_function(base in any::<u64>(), stream in any::<u64>()) {
        prop_assert_eq!(derive_seed(base, stream), derive_seed(base, stream));
        prop_assert_eq!(seeded_rng(base).gen::<u64>(), seeded_rng(base).gen::<u64>());
    }
}

use rand::Rng;

/// Event times that stress the queue's epoch layout.
fn event_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0f64..1e6,
        0.0f64..2.0,
        (0u64..64).prop_map(|k| k as f64 / 16.0),
        (1u64..64).prop_map(|k| (k as f64 / 16.0).next_down()),
        (0u64..64).prop_map(|k| (k as f64 / 16.0).next_up()),
        Just(-0.0),
        Just(0.0),
        Just(1.0e9),
        Just(f64::INFINITY),
    ]
}
