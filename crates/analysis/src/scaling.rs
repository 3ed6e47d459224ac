//! Scaling-shape classification of measured series.

use serde::{Deserialize, Serialize};

use churn_stochastic::stats::{linear_fit, log_fit, LinearFit};

/// A fitted scaling curve together with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingFit {
    /// The least-squares fit (over the transformed abscissa for logarithmic
    /// fits).
    pub fit: LinearFit,
    /// Number of points fitted.
    pub points: usize,
}

/// Fits `y ≈ a + b·log₂(n)` to a `(n, y)` series. Returns `None` with fewer
/// than two points or non-positive `n`.
#[must_use]
pub fn fit_logarithmic(points: &[(f64, f64)]) -> Option<ScalingFit> {
    log_fit(points).map(|fit| ScalingFit {
        fit,
        points: points.len(),
    })
}

/// Fits `y ≈ a + b·n` to a `(n, y)` series. Returns `None` with fewer than two
/// points or constant `n`.
#[must_use]
pub fn fit_linear_in_n(points: &[(f64, f64)]) -> Option<ScalingFit> {
    linear_fit(points).map(|fit| ScalingFit {
        fit,
        points: points.len(),
    })
}

/// Which growth shape a measured series most resembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingClass {
    /// The series is explained (distinctly better) by `a + b·log n`.
    Logarithmic,
    /// The series is explained (distinctly better) by `a + b·n`.
    Linear,
    /// Neither shape is a distinctly better explanation (or the series is too
    /// short / flat to tell).
    Ambiguous,
}

impl std::fmt::Display for ScalingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ScalingClass::Logarithmic => "logarithmic",
            ScalingClass::Linear => "linear",
            ScalingClass::Ambiguous => "ambiguous",
        };
        f.write_str(s)
    }
}

/// Classifies a `(n, y)` series as logarithmic or linear in `n`.
///
/// The discriminator is the relative residual error of the two least-squares
/// fits; a shape wins when its residual is at most half of the other's. This is
/// deliberately coarse — it distinguishes the `O(log n)` flooding time of the
/// regeneration models (Theorems 3.16, 4.20) from the `Ω(n)` completion time of
/// the models without regeneration (Theorems 3.7, 4.12), which differ by orders
/// of magnitude at the sizes the experiments run, and reports
/// [`ScalingClass::Ambiguous`] otherwise.
#[must_use]
pub fn classify_scaling(points: &[(f64, f64)]) -> ScalingClass {
    if points.len() < 3 {
        return ScalingClass::Ambiguous;
    }
    let Some(log_fit) = fit_logarithmic(points) else {
        return ScalingClass::Ambiguous;
    };
    let Some(lin_fit) = fit_linear_in_n(points) else {
        return ScalingClass::Ambiguous;
    };

    let residual = |predict: &dyn Fn(f64) -> f64| -> f64 {
        points
            .iter()
            .map(|&(x, y)| {
                let e = y - predict(x);
                e * e
            })
            .sum::<f64>()
    };
    let log_residual = residual(&|x: f64| log_fit.fit.predict(x.log2()));
    let lin_residual = residual(&|x: f64| lin_fit.fit.predict(x));

    // Guard against a degenerate, essentially-constant series.
    let spread: f64 = {
        let mean = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
        points
            .iter()
            .map(|&(_, y)| (y - mean) * (y - mean))
            .sum::<f64>()
    };
    if spread < 1e-12 {
        return ScalingClass::Ambiguous;
    }

    if log_residual <= 0.5 * lin_residual {
        ScalingClass::Logarithmic
    } else if lin_residual <= 0.5 * log_residual {
        ScalingClass::Linear
    } else {
        ScalingClass::Ambiguous
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(f: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
        [256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0, 16384.0]
            .iter()
            .map(|&n| (n, f(n)))
            .collect()
    }

    #[test]
    fn logarithmic_series_is_classified_as_logarithmic() {
        let points = series(|n| 3.0 + 1.7 * n.log2());
        assert_eq!(classify_scaling(&points), ScalingClass::Logarithmic);
        let fit = fit_logarithmic(&points).unwrap();
        assert!((fit.fit.slope - 1.7).abs() < 1e-9);
        assert!(fit.fit.r_squared > 0.999);
        assert_eq!(fit.points, 7);
    }

    #[test]
    fn linear_series_is_classified_as_linear() {
        let points = series(|n| 10.0 + 0.25 * n);
        assert_eq!(classify_scaling(&points), ScalingClass::Linear);
        let fit = fit_linear_in_n(&points).unwrap();
        assert!((fit.fit.slope - 0.25).abs() < 1e-9);
    }

    #[test]
    fn noisy_logarithmic_series_is_never_called_linear() {
        // Deterministic "noise" of ±10% may push the verdict to Ambiguous (the
        // classifier is conservative) but must never call the series linear, and
        // the fitted logarithmic slope must survive the noise.
        let points: Vec<(f64, f64)> = series(|n| 2.0 * n.log2())
            .into_iter()
            .enumerate()
            .map(|(i, (n, y))| (n, y * if i % 2 == 0 { 1.1 } else { 0.9 }))
            .collect();
        assert_ne!(classify_scaling(&points), ScalingClass::Linear);
        let fit = fit_logarithmic(&points).unwrap();
        assert!((fit.fit.slope - 2.0).abs() < 0.5);
        // With mild ±3% noise the verdict is unambiguous.
        let mild: Vec<(f64, f64)> = series(|n| 2.0 * n.log2())
            .into_iter()
            .enumerate()
            .map(|(i, (n, y))| (n, y * if i % 2 == 0 { 1.03 } else { 0.97 }))
            .collect();
        assert_eq!(classify_scaling(&mild), ScalingClass::Logarithmic);
    }

    #[test]
    fn short_or_flat_series_are_ambiguous() {
        assert_eq!(classify_scaling(&[(10.0, 1.0)]), ScalingClass::Ambiguous);
        assert_eq!(
            classify_scaling(&[(10.0, 5.0), (20.0, 5.0), (40.0, 5.0)]),
            ScalingClass::Ambiguous
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ScalingClass::Logarithmic.to_string(), "logarithmic");
        assert_eq!(ScalingClass::Linear.to_string(), "linear");
        assert_eq!(ScalingClass::Ambiguous.to_string(), "ambiguous");
    }

    #[test]
    fn invalid_series_yield_none_fits() {
        assert!(fit_logarithmic(&[(0.0, 1.0), (2.0, 3.0)]).is_none());
        assert!(fit_linear_in_n(&[(1.0, 1.0)]).is_none());
    }
}
