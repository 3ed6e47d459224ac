//! Aggregation of trial results into summary statistics.

use churn_stochastic::OnlineStats;

/// Summary statistics of a set of trial values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of values aggregated.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Half-width of the 95% normal-approximation confidence interval.
    pub ci95_half_width: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Aggregate {
    /// Aggregates a slice of values. An empty slice yields a zeroed aggregate
    /// with `count == 0`.
    #[must_use]
    pub fn from_values(values: &[f64]) -> Self {
        if values.is_empty() {
            return Aggregate {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                std_error: 0.0,
                ci95_half_width: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let stats: OnlineStats = values.iter().copied().collect();
        let std_error = stats.std_error();
        Aggregate {
            count: stats.count(),
            mean: stats.mean(),
            std_dev: stats.std_dev(),
            std_error,
            ci95_half_width: 1.96 * std_error,
            min: stats.min(),
            max: stats.max(),
        }
    }

    /// Renders the mean with its 95% confidence interval, e.g. `12.3 ± 0.4`.
    #[must_use]
    pub fn display_with_ci(&self, decimals: usize) -> String {
        format!(
            "{:.decimals$} ± {:.decimals$}",
            self.mean,
            self.ci95_half_width,
            decimals = decimals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_of_known_values() {
        let agg = Aggregate::from_values(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(agg.count, 8);
        assert!((agg.mean - 5.0).abs() < 1e-12);
        assert!((agg.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 9.0);
        assert!(agg.ci95_half_width > 0.0);
        let shown = agg.display_with_ci(2);
        assert!(shown.starts_with("5.00 ±"));
    }

    #[test]
    fn aggregate_of_empty_slice_is_zeroed() {
        let agg = Aggregate::from_values(&[]);
        assert_eq!(agg.count, 0);
        assert_eq!(agg.mean, 0.0);
        assert_eq!(agg.display_with_ci(1), "0.0 ± 0.0");
    }
}
