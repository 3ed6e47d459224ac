//! Deterministic random number generation helpers.
//!
//! Every experiment in the workspace is seeded so that results are exactly
//! reproducible. Trials, models and analysis passes each receive an
//! *independent sub-stream* derived from a base seed and a stream label, so that
//! adding instrumentation (which consumes extra randomness) in one component
//! never perturbs another component's draws.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG type used throughout the workspace.
///
/// `StdRng` is a cryptographically strong, splittable-by-reseeding generator
/// with a stable algorithm within a `rand` major version, which is enough for
/// reproducible simulations.
pub type SimRng = StdRng;

/// Creates a deterministically seeded RNG.
///
/// # Example
///
/// ```
/// use churn_stochastic::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(7);
/// let mut b = seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[must_use]
pub fn seeded_rng(seed: u64) -> SimRng {
    StdRng::seed_from_u64(seed)
}

/// Derives the seed of an independent sub-stream from a base seed and a stream
/// label, using the SplitMix64 finalizer so that nearby labels yield unrelated
/// seeds.
#[must_use]
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates an RNG for the sub-stream `stream` of the base seed `base`.
///
/// Different `(base, stream)` pairs give statistically independent generators;
/// identical pairs give identical generators.
#[must_use]
pub fn substream_rng(base: u64, stream: u64) -> SimRng {
    seeded_rng(derive_seed(base, stream))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a: Vec<u64> = {
            let mut rng = seeded_rng(123);
            (0..16).map(|_| rng.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = seeded_rng(123);
            (0..16).map(|_| rng.gen()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_seed_depends_on_both_arguments() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 9), derive_seed(5, 9));
    }

    #[test]
    fn substreams_are_decorrelated_even_for_adjacent_labels() {
        let mut a = substream_rng(7, 0);
        let mut b = substream_rng(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }
}
