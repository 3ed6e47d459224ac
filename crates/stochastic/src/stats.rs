//! Descriptive statistics, standard errors, quantiles, divergences and
//! least-squares fits used to analyse experiment output.

/// Welford online accumulator of mean and variance.
///
/// Numerically stable, O(1) memory, suitable for streaming millions of samples
/// from long simulation runs.
///
/// # Example
///
/// ```
/// use churn_stochastic::OnlineStats;
///
/// let mut stats = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.count(), 8);
/// assert!((stats.mean() - 5.0).abs() < 1e-12);
/// assert!((stats.variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 when fewer than 2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Unbiased sample variance (0 when fewer than 2 samples).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Standard deviation (population).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// Smallest sample (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut stats = OnlineStats::new();
        for x in iter {
            stats.push(x);
        }
        stats
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// The empirical `q`-quantile (0 ≤ q ≤ 1) of a sample, by linear interpolation.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// The empirical median of a sample (`None` for an empty slice).
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Kullback–Leibler divergence `D(p ‖ q) = Σ p_i log2(p_i / q_i)` in bits.
///
/// This is the quantity the paper's Theorem A.3 lower-bounds by zero; the
/// middle-size-subset expansion proof (Lemma 4.18) hinges on it. Terms with
/// `p_i = 0` contribute zero.
///
/// Returns `None` if the distributions have different lengths, contain negative
/// entries, or if some `q_i = 0` while `p_i > 0` (the divergence is infinite).
#[must_use]
pub fn kl_divergence(p: &[f64], q: &[f64]) -> Option<f64> {
    if p.len() != q.len() {
        return None;
    }
    let mut total = 0.0;
    for (&pi, &qi) in p.iter().zip(q) {
        if pi < 0.0 || qi < 0.0 {
            return None;
        }
        if pi == 0.0 {
            continue;
        }
        if qi == 0.0 {
            return None;
        }
        total += pi * (pi / qi).log2();
    }
    Some(total)
}

/// Shannon entropy of a probability mass function, in bits. Entries equal to
/// zero contribute nothing; negative entries yield `None`.
#[must_use]
pub fn entropy(p: &[f64]) -> Option<f64> {
    let mut total = 0.0;
    for &pi in p {
        if pi < 0.0 {
            return None;
        }
        if pi > 0.0 {
            total -= pi * pi.log2();
        }
    }
    Some(total)
}

/// Result of an ordinary least-squares fit `y ≈ slope · x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R² (1 for a perfect fit; 0 when `y` is
    /// constant and perfectly predicted by its mean).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted value at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least squares over `(x, y)` pairs. Returns `None` with fewer than
/// two points or when all `x` coincide.
#[must_use]
pub fn linear_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

/// Fits `y ≈ a + b · log2(x)`, the shape of every `O(log n)` bound in the paper.
/// Returns `None` if any `x <= 0` or the fit is degenerate.
#[must_use]
pub fn log_fit(points: &[(f64, f64)]) -> Option<LinearFit> {
    if points.iter().any(|&(x, _)| x <= 0.0) {
        return None;
    }
    let transformed: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.log2(), y)).collect();
    linear_fit(&transformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_empty_defaults() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn online_stats_single_sample() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn online_stats_matches_direct_formulas() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let s: OnlineStats = data.iter().copied().collect();
        assert!((s.mean() - 5.5).abs() < 1e-12);
        assert!((s.variance() - 8.25).abs() < 1e-12);
        assert!((s.sample_variance() - 9.166_666_666_666_666).abs() < 1e-9);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
    }

    #[test]
    fn online_stats_merge_equals_pooled() {
        let all = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0];
        let pooled: OnlineStats = all.iter().copied().collect();
        let mut a: OnlineStats = all[..3].iter().copied().collect();
        let b: OnlineStats = all[3..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), pooled.count());
        assert!((a.mean() - pooled.mean()).abs() < 1e-12);
        assert!((a.variance() - pooled.variance()).abs() < 1e-12);
        // Merging an empty accumulator changes nothing.
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&pooled);
        assert!((empty.mean() - pooled.mean()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_and_median() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), Some(1.0));
        assert_eq!(quantile(&data, 1.0), Some(4.0));
        assert_eq!(median(&data), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn kl_divergence_properties() {
        let p = [0.5, 0.5];
        let q = [0.9, 0.1];
        // D(p||p) = 0, D(p||q) > 0 (Theorem A.3), and it is asymmetric.
        assert_eq!(kl_divergence(&p, &p), Some(0.0));
        let d_pq = kl_divergence(&p, &q).unwrap();
        let d_qp = kl_divergence(&q, &p).unwrap();
        assert!(d_pq > 0.0);
        assert!(d_qp > 0.0);
        assert!((d_pq - d_qp).abs() > 1e-6);
        // Mismatched lengths, negative entries or infinite divergence yield None.
        assert_eq!(kl_divergence(&p, &[1.0]), None);
        assert_eq!(kl_divergence(&[-0.1, 1.1], &p), None);
        assert_eq!(kl_divergence(&[0.5, 0.5], &[1.0, 0.0]), None);
        // p_i = 0 terms are fine.
        assert!(kl_divergence(&[1.0, 0.0], &[0.5, 0.5]).unwrap() > 0.0);
    }

    #[test]
    fn entropy_of_uniform_is_log_bits() {
        let uniform = [0.25; 4];
        assert!((entropy(&uniform).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(entropy(&[1.0]), Some(0.0));
        assert_eq!(entropy(&[-0.2, 1.2]), None);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let fit = linear_fit(&points).unwrap();
        assert!((fit.slope - 3.0).abs() < 1e-9);
        assert!((fit.intercept + 2.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(20.0) - 58.0).abs() < 1e-9);
    }

    #[test]
    fn linear_fit_degenerate_cases() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[(1.0, 1.0)]).is_none());
        assert!(linear_fit(&[(2.0, 1.0), (2.0, 3.0)]).is_none());
        // Constant y: slope 0, perfect fit.
        let fit = linear_fit(&[(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn log_fit_recovers_logarithmic_scaling() {
        // y = 4 + 2 log2(x): the shape of the paper's flooding-time bounds.
        let points: Vec<(f64, f64)> = [64.0, 128.0, 256.0, 512.0, 1024.0]
            .iter()
            .map(|&x: &f64| (x, 4.0 + 2.0 * x.log2()))
            .collect();
        let fit = log_fit(&points).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 4.0).abs() < 1e-9);
        assert!(log_fit(&[(0.0, 1.0), (2.0, 2.0)]).is_none());
    }
}
