//! Probability distributions used by the Poisson churn models.
//!
//! The paper needs three distributions (Definition 4.1 and the analysis around
//! it): the exponential distribution (inter-arrival times and node lifetimes),
//! the Poisson distribution (number of arrivals in a fixed window, Lemma 7.4)
//! and the geometric distribution (coin-toss arguments such as the node
//! removal step of the extended onion-skin process, Section 7.2.4). They are
//! implemented here directly on top of `rand`'s uniform primitives so the crate
//! has no further dependencies and the sampling algorithms are auditable.

use rand::Rng;

/// Exponential distribution with rate `lambda` (mean `1 / lambda`).
///
/// Sampled by inversion: `-ln(U) / λ` with `U ~ Uniform(0, 1]`.
///
/// # Example
///
/// ```
/// use churn_stochastic::Exponential;
/// use churn_stochastic::rng::seeded_rng;
///
/// let lifetime = Exponential::new(0.01).unwrap(); // mean 100
/// let mut rng = seeded_rng(1);
/// let sample = lifetime.sample(&mut rng);
/// assert!(sample > 0.0);
/// assert_eq!(lifetime.mean(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// Returns `None` unless `rate` is finite and strictly positive.
    #[must_use]
    pub fn new(rate: f64) -> Option<Self> {
        (rate.is_finite() && rate > 0.0).then_some(Exponential { rate })
    }

    /// The rate parameter λ.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1 / λ`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// The variance `1 / λ²`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - gen::<f64>() lies in (0, 1], avoiding ln(0).
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }

    /// Cumulative distribution function `P(X <= x)`.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }
}

/// Log-normal distribution: `exp(μ + σ·Z)` for a standard normal `Z`.
///
/// The heavy-tailed latency model of the event-driven simulator (a few
/// messages take much longer than the median, as wide-area links do).
///
/// # Example
///
/// ```
/// use churn_stochastic::distributions::LogNormal;
/// use churn_stochastic::rng::seeded_rng;
///
/// let latency = LogNormal::new(0.0, 0.5).unwrap();
/// let mut rng = seeded_rng(1);
/// assert!(latency.sample(&mut rng) > 0.0);
/// assert_eq!(latency.median(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with log-scale location `mu` and
    /// log-scale shape `sigma`.
    ///
    /// Returns `None` unless `mu` is finite and `sigma` is finite and
    /// strictly positive.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Option<Self> {
        (mu.is_finite() && sigma.is_finite() && sigma > 0.0).then_some(LogNormal { mu, sigma })
    }

    /// The log-scale location μ.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The log-scale shape σ.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The mean `exp(μ + σ²/2)`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// The median `exp(μ)`.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws one sample (always strictly positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Poisson distribution with mean `lambda`.
///
/// Small means use Knuth's product-of-uniforms method; large means (> 30) use
/// the normal approximation with continuity correction, which is accurate to
/// well below the statistical noise of any experiment in this workspace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Threshold above which the normal approximation is used for sampling.
    const NORMAL_APPROX_THRESHOLD: f64 = 30.0;

    /// Creates a Poisson distribution with the given mean.
    ///
    /// Returns `None` unless `mean` is finite and non-negative.
    #[must_use]
    pub fn new(mean: f64) -> Option<Self> {
        (mean.is_finite() && mean >= 0.0).then_some(Poisson { mean })
    }

    /// The mean (and variance) λ.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean == 0.0 {
            return 0;
        }
        if self.mean > Self::NORMAL_APPROX_THRESHOLD {
            let std = self.mean.sqrt();
            let z = standard_normal(rng);
            let value = (self.mean + std * z + 0.5).floor();
            return value.max(0.0) as u64;
        }
        // Knuth: count uniforms until their product drops below e^{-λ}.
        let limit = (-self.mean).exp();
        let mut count = 0u64;
        let mut product: f64 = 1.0;
        loop {
            product *= rng.gen::<f64>();
            if product <= limit {
                return count;
            }
            count += 1;
        }
    }

    /// Probability mass function `P(X = k)`.
    #[must_use]
    pub fn pmf(&self, k: u64) -> f64 {
        if self.mean == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        // exp(k ln λ - λ - ln k!) for numerical stability.
        let k_f = k as f64;
        (k_f * self.mean.ln() - self.mean - ln_factorial(k)).exp()
    }

    /// Cumulative distribution function `P(X <= k)`.
    #[must_use]
    pub fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|i| self.pmf(i)).sum::<f64>().min(1.0)
    }
}

/// Geometric distribution on `{1, 2, 3, …}`: the number of Bernoulli(`p`) trials
/// up to and including the first success.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Creates a geometric distribution with success probability `p`.
    ///
    /// Returns `None` unless `0 < p <= 1`.
    #[must_use]
    pub fn new(p: f64) -> Option<Self> {
        (p > 0.0 && p <= 1.0).then_some(Geometric { p })
    }

    /// Success probability.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Mean `1 / p`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }

    /// Draws one sample by inversion.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        let trials = (u.ln() / (1.0 - self.p).ln()).ceil();
        trials.max(1.0) as u64
    }
}

/// Gilbert–Elliott two-state loss channel: a Markov chain alternating
/// between a *good* state (loss probability `loss_good`, usually ≈ 0) and a
/// *bad* burst state (loss probability `loss_bad`, usually near 1). Each
/// step first moves the state (`p_gb` = good→bad, `p_bg` = bad→good), then
/// draws the loss coin for the current state — so losses cluster into
/// bursts of mean length `1 / p_bg` instead of falling i.i.d.
///
/// # Example
///
/// ```
/// use churn_stochastic::distributions::GilbertElliott;
/// use churn_stochastic::rng::seeded_rng;
///
/// let chan = GilbertElliott::new(0.05, 0.5, 0.0, 1.0).unwrap();
/// let mut rng = seeded_rng(1);
/// let mut state = chan.initial_state();
/// let _lost: bool = chan.step(&mut state, &mut rng);
/// assert!((chan.stationary_loss() - 0.0909).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    p_gb: f64,
    p_bg: f64,
    loss_good: f64,
    loss_bad: f64,
}

/// The per-link channel state of a [`GilbertElliott`] chain: `true` while
/// the link is in the bad (burst) state.
pub type GilbertElliottState = bool;

impl GilbertElliott {
    /// Creates a channel with transition probabilities `p_gb` (good→bad) and
    /// `p_bg` (bad→good) and per-state loss probabilities.
    ///
    /// Returns `None` unless every probability lies in `[0, 1]` and at least
    /// one transition probability is positive (so the chain is not stuck in
    /// an arbitrary initial state forever).
    #[must_use]
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Option<Self> {
        let in_unit = |p: f64| (0.0..=1.0).contains(&p);
        (in_unit(p_gb)
            && in_unit(p_bg)
            && in_unit(loss_good)
            && in_unit(loss_bad)
            && p_gb + p_bg > 0.0)
            .then_some(GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            })
    }

    /// The good→bad transition probability.
    #[must_use]
    pub fn p_gb(&self) -> f64 {
        self.p_gb
    }

    /// The bad→good transition probability.
    #[must_use]
    pub fn p_bg(&self) -> f64 {
        self.p_bg
    }

    /// Stationary probability of being in the bad state,
    /// `p_gb / (p_gb + p_bg)`.
    #[must_use]
    pub fn stationary_bad(&self) -> f64 {
        self.p_gb / (self.p_gb + self.p_bg)
    }

    /// Long-run loss rate: the stationary mixture of the two loss coins.
    #[must_use]
    pub fn stationary_loss(&self) -> f64 {
        let bad = self.stationary_bad();
        (1.0 - bad) * self.loss_good + bad * self.loss_bad
    }

    /// Every chain starts in the good state, so a link's loss history is a
    /// pure function of its draw sequence.
    #[must_use]
    pub fn initial_state(&self) -> GilbertElliottState {
        false
    }

    /// Advances the state one step and draws the loss coin for the new
    /// state. Returns `true` when the message is lost. Always consumes
    /// exactly two `f64` draws, so the stream layout is state-independent.
    pub fn step<R: Rng + ?Sized>(&self, state: &mut GilbertElliottState, rng: &mut R) -> bool {
        let flip: f64 = rng.gen();
        *state = if *state {
            flip >= self.p_bg
        } else {
            flip < self.p_gb
        };
        let coin: f64 = rng.gen();
        coin < if *state {
            self.loss_bad
        } else {
            self.loss_good
        }
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Natural logarithm of `k!`, via Stirling's series for large `k` and a direct
/// sum for small `k`.
#[must_use]
pub fn ln_factorial(k: u64) -> f64 {
    if k < 2 {
        return 0.0;
    }
    if k <= 20 {
        return (2..=k).map(|i| (i as f64).ln()).sum();
    }
    let n = k as f64;
    // Stirling series with the 1/(12n) correction term.
    n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;
    use crate::stats::OnlineStats;

    #[test]
    fn exponential_rejects_invalid_rates() {
        assert!(Exponential::new(0.0).is_none());
        assert!(Exponential::new(-1.0).is_none());
        assert!(Exponential::new(f64::NAN).is_none());
        assert!(Exponential::new(2.0).is_some());
    }

    #[test]
    fn exponential_moments_match_samples() {
        let dist = Exponential::new(0.5).unwrap();
        let mut rng = seeded_rng(10);
        let mut stats = OnlineStats::new();
        for _ in 0..50_000 {
            stats.push(dist.sample(&mut rng));
        }
        assert!((stats.mean() - dist.mean()).abs() < 0.05 * dist.mean());
        assert!((stats.variance() - dist.variance()).abs() < 0.1 * dist.variance());
    }

    #[test]
    fn exponential_cdf_properties() {
        let dist = Exponential::new(1.0).unwrap();
        assert_eq!(dist.cdf(-1.0), 0.0);
        assert!((dist.cdf(0.0)).abs() < 1e-12);
        assert!((dist.cdf(f64::INFINITY) - 1.0).abs() < 1e-12);
        assert!((dist.cdf(1.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn exponential_memorylessness_empirically() {
        // P(X > s + t | X > s) ≈ P(X > t): the property the paper leans on
        // throughout the Poisson analysis.
        let dist = Exponential::new(0.2).unwrap();
        let mut rng = seeded_rng(11);
        let (s, t) = (3.0, 2.0);
        let mut beyond_s = 0u32;
        let mut beyond_st = 0u32;
        let trials = 100_000;
        for _ in 0..trials {
            let x = dist.sample(&mut rng);
            if x > s {
                beyond_s += 1;
                if x > s + t {
                    beyond_st += 1;
                }
            }
        }
        let conditional = beyond_st as f64 / beyond_s as f64;
        assert!((conditional - (1.0 - dist.cdf(t))).abs() < 0.02);
    }

    #[test]
    fn poisson_rejects_invalid_means() {
        assert!(Poisson::new(-0.1).is_none());
        assert!(Poisson::new(f64::INFINITY).is_none());
        assert!(Poisson::new(0.0).is_some());
    }

    #[test]
    fn poisson_zero_mean_always_zero() {
        let dist = Poisson::new(0.0).unwrap();
        let mut rng = seeded_rng(3);
        for _ in 0..100 {
            assert_eq!(dist.sample(&mut rng), 0);
        }
        assert_eq!(dist.pmf(0), 1.0);
        assert_eq!(dist.pmf(3), 0.0);
    }

    #[test]
    fn poisson_small_mean_sample_moments() {
        let dist = Poisson::new(2.5).unwrap();
        let mut rng = seeded_rng(4);
        let mut stats = OnlineStats::new();
        for _ in 0..50_000 {
            stats.push(dist.sample(&mut rng) as f64);
        }
        assert!((stats.mean() - 2.5).abs() < 0.05);
        assert!((stats.variance() - 2.5).abs() < 0.15);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx_with_correct_moments() {
        let dist = Poisson::new(200.0).unwrap();
        let mut rng = seeded_rng(5);
        let mut stats = OnlineStats::new();
        for _ in 0..20_000 {
            stats.push(dist.sample(&mut rng) as f64);
        }
        assert!((stats.mean() - 200.0).abs() < 1.0);
        assert!((stats.variance() - 200.0).abs() < 15.0);
    }

    #[test]
    fn poisson_pmf_sums_to_one_and_matches_known_values() {
        let dist = Poisson::new(3.0).unwrap();
        let total: f64 = (0..60).map(|k| dist.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // P(X = 0) = e^{-3}
        assert!((dist.pmf(0) - (-3.0f64).exp()).abs() < 1e-12);
        assert!((dist.cdf(2) - (dist.pmf(0) + dist.pmf(1) + dist.pmf(2))).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_samples() {
        let dist = Geometric::new(0.2).unwrap();
        let mut rng = seeded_rng(6);
        let mut stats = OnlineStats::new();
        for _ in 0..50_000 {
            stats.push(dist.sample(&mut rng) as f64);
        }
        assert!((stats.mean() - 5.0).abs() < 0.1);
        assert!(Geometric::new(0.0).is_none());
        assert!(Geometric::new(1.2).is_none());
        assert_eq!(Geometric::new(1.0).unwrap().sample(&mut rng), 1);
    }

    #[test]
    fn log_normal_rejects_invalid_parameters() {
        assert!(LogNormal::new(f64::NAN, 1.0).is_none());
        assert!(LogNormal::new(0.0, 0.0).is_none());
        assert!(LogNormal::new(0.0, -1.0).is_none());
        assert!(LogNormal::new(0.0, f64::INFINITY).is_none());
        assert!(LogNormal::new(-1.0, 0.25).is_some());
    }

    #[test]
    fn log_normal_moments_match_the_closed_form() {
        let dist = LogNormal::new(0.3, 0.6).unwrap();
        assert!((dist.mean() - (0.3f64 + 0.18).exp()).abs() < 1e-12);
        assert_eq!(dist.median(), 0.3f64.exp());
        let mut rng = seeded_rng(9);
        let mut stats = OnlineStats::new();
        let mut all_positive = true;
        for _ in 0..100_000 {
            let x = dist.sample(&mut rng);
            all_positive &= x > 0.0;
            stats.push(x);
        }
        assert!(all_positive);
        assert!((stats.mean() - dist.mean()).abs() / dist.mean() < 0.02);
    }

    #[test]
    fn gilbert_elliott_rejects_invalid_parameters() {
        assert!(GilbertElliott::new(-0.1, 0.5, 0.0, 1.0).is_none());
        assert!(GilbertElliott::new(0.1, 1.5, 0.0, 1.0).is_none());
        assert!(GilbertElliott::new(0.1, 0.5, 0.0, f64::NAN).is_none());
        assert!(GilbertElliott::new(0.0, 0.0, 0.0, 1.0).is_none());
        assert!(GilbertElliott::new(0.05, 0.5, 0.0, 1.0).is_some());
    }

    #[test]
    fn gilbert_elliott_long_run_loss_matches_the_stationary_mixture() {
        let chan = GilbertElliott::new(0.05, 0.25, 0.01, 0.8).unwrap();
        let mut rng = seeded_rng(12);
        let mut state = chan.initial_state();
        let trials = 200_000;
        let lost = (0..trials)
            .filter(|_| chan.step(&mut state, &mut rng))
            .count();
        let rate = lost as f64 / trials as f64;
        assert!(
            (rate - chan.stationary_loss()).abs() < 0.01,
            "empirical loss {rate} vs stationary {}",
            chan.stationary_loss()
        );
    }

    #[test]
    fn gilbert_elliott_losses_cluster_into_bursts() {
        // With a near-deterministic bad state, consecutive losses are far
        // more likely than the i.i.d. square of the marginal loss rate.
        let chan = GilbertElliott::new(0.02, 0.2, 0.0, 1.0).unwrap();
        let mut rng = seeded_rng(13);
        let mut state = chan.initial_state();
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| chan.step(&mut state, &mut rng))
            .collect();
        let loss = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count() as f64
            / (outcomes.len() - 1) as f64;
        assert!(
            pairs > 3.0 * loss * loss,
            "consecutive-loss rate {pairs} should exceed the i.i.d. square of {loss}"
        );
    }

    #[test]
    fn gilbert_elliott_step_consumes_exactly_two_draws() {
        let chan = GilbertElliott::new(0.05, 0.5, 0.0, 1.0).unwrap();
        let mut a = seeded_rng(14);
        let mut b = seeded_rng(14);
        let mut state = chan.initial_state();
        let _ = chan.step(&mut state, &mut a);
        let _: f64 = b.gen();
        let _: f64 = b.gen();
        assert_eq!(a, b);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(8);
        let mut stats = OnlineStats::new();
        for _ in 0..100_000 {
            stats.push(standard_normal(&mut rng));
        }
        assert!(stats.mean().abs() < 0.02);
        assert!((stats.variance() - 1.0).abs() < 0.03);
    }

    #[test]
    fn ln_factorial_matches_direct_computation() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        let direct: f64 = (2..=25u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(25) - direct).abs() < 1e-6);
        // Stirling regime vs direct sum continuity at the boundary.
        let direct20: f64 = (2..=20u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(20) - direct20).abs() < 1e-9);
    }
}
