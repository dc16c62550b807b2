//! Equi-depth histograms over numeric proxies.

/// An equi-depth histogram stored as `(bound, cumulative_fraction)` pairs.
///
/// `cum[i]` is (approximately) the fraction of non-null rows with value
/// `<= bounds[i]`. Heavily skewed columns collapse several equi-depth
/// boundaries onto one value; the cumulative fractions keep the mass
/// attribution correct in that case, unlike a bounds-only representation.
///
/// Histograms operate on the *numeric proxy* of values (see
/// `Value::numeric_proxy`), so one implementation serves ints, floats, and
/// text.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    cums: Vec<f64>,
}

impl Histogram {
    /// Builds an equi-depth histogram with up to `buckets` buckets from a
    /// slice of non-null proxies. Returns `None` for empty input.
    pub fn build(mut values: Vec<f64>, buckets: usize) -> Option<Self> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = values.len();
        let buckets = buckets.min(n);
        let mut bounds = vec![values[0]];
        let mut cums = vec![0.0f64];
        for b in 1..=buckets {
            let (idx, cum) = if b == buckets {
                (n - 1, 1.0)
            } else {
                ((b * n) / buckets, b as f64 / buckets as f64)
            };
            let v = values[idx.min(n - 1)];
            let last = bounds.len() - 1;
            if v > bounds[last] {
                bounds.push(v);
                cums.push(cum);
            } else {
                // Boundary collapsed onto an earlier value: attribute the
                // additional mass to that value.
                cums[last] = cums[last].max(cum);
            }
        }
        if bounds.len() == 1 {
            // Degenerate single-value column: one zero-width bucket
            // carrying all the mass.
            bounds.push(bounds[0]);
            cums = vec![0.0, 1.0];
        }
        Some(Self { bounds, cums })
    }

    /// Number of buckets (segments between stored bounds).
    #[cfg(test)]
    fn bucket_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Smallest observed value.
    pub fn min(&self) -> f64 {
        self.bounds[0]
    }

    /// Largest observed value.
    pub fn max(&self) -> f64 {
        *self.bounds.last().expect("at least two bounds")
    }

    /// Estimated fraction of non-null rows with value strictly `< x`.
    pub(crate) fn frac_below(&self, x: f64) -> f64 {
        if x <= self.min() {
            return 0.0;
        }
        if x > self.max() {
            return 1.0;
        }
        if self.max() == self.min() {
            // Zero-width histogram: all mass at one point, below x only if
            // x exceeds it (handled above), so here x equals the point.
            return 0.0;
        }
        // Find the segment with bounds[i] < x <= bounds[i+1].
        let i = match self
            .bounds
            .binary_search_by(|b| b.partial_cmp(&x).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(pos) => pos.saturating_sub(1),
            Err(pos) => pos.saturating_sub(1),
        };
        let i = i.min(self.bounds.len() - 2);
        let (b_lo, b_hi) = (self.bounds[i], self.bounds[i + 1]);
        let (c_lo, c_hi) = (self.cums[i], self.cums[i + 1]);
        let within = if b_hi > b_lo {
            ((x - b_lo) / (b_hi - b_lo)).clamp(0.0, 1.0)
        } else {
            1.0
        };
        (c_lo + within * (c_hi - c_lo)).clamp(0.0, 1.0)
    }

    /// Estimated fraction of rows in the (optional) bounds, treated
    /// continuously (a point carries no interpolated mass).
    pub(crate) fn frac_between(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let below_hi = hi.map_or(1.0, |h| self.frac_below(h));
        let below_lo = lo.map_or(0.0, |l| self.frac_below(l));
        (below_hi - below_lo).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist() -> Histogram {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        Histogram::build(values, 10).expect("non-empty")
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(Histogram::build(vec![], 10).is_none());
        assert!(Histogram::build(vec![1.0], 0).is_none());
    }

    #[test]
    fn uniform_fractions_are_linear() {
        let h = uniform_hist();
        assert_eq!(h.bucket_count(), 10);
        assert!((h.frac_below(500.0) - 0.5).abs() < 0.02);
        assert!((h.frac_below(250.0) - 0.25).abs() < 0.02);
        assert_eq!(h.frac_below(-10.0), 0.0);
        assert_eq!(h.frac_below(5000.0), 1.0);
    }

    #[test]
    fn range_fraction() {
        let h = uniform_hist();
        let f = h.frac_between(Some(100.0), Some(300.0));
        assert!((f - 0.2).abs() < 0.03, "got {f}");
        assert_eq!(h.frac_between(None, None), 1.0);
    }

    #[test]
    fn single_value_column() {
        let h = Histogram::build(vec![7.0; 50], 10).expect("non-empty");
        assert_eq!(h.min(), 7.0);
        assert_eq!(h.max(), 7.0);
        assert_eq!(h.frac_below(7.0), 0.0);
        assert_eq!(h.frac_below(7.1), 1.0);
    }

    #[test]
    fn skewed_data_buckets_follow_depth() {
        // 90% zeros, 10% spread out over 1..=100.
        let mut values = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = Histogram::build(values, 10).expect("non-empty");
        let f = h.frac_below(1.0);
        assert!((0.85..=0.95).contains(&f), "got {f}");
        // Halfway through the tail.
        let f50 = h.frac_below(50.0);
        assert!((0.9..=0.99).contains(&f50), "got {f50}");
    }

    #[test]
    fn fewer_values_than_buckets() {
        let h = Histogram::build(vec![1.0, 2.0, 3.0], 10).expect("non-empty");
        assert!(h.bucket_count() <= 3);
        assert!(h.frac_below(2.5) > 0.3);
    }

    #[test]
    fn monotone_in_x() {
        let mut values = vec![0.0; 500];
        values.extend((0..500).map(|i| (i % 37) as f64));
        let h = Histogram::build(values, 16).expect("non-empty");
        let mut prev = 0.0;
        for i in -5..45 {
            let f = h.frac_below(i as f64);
            assert!(f >= prev - 1e-12, "non-monotone at {i}: {f} < {prev}");
            prev = f;
        }
    }
}
