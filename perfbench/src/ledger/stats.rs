//! Percentiles, and the segment rule every timing follows: a run is cut
//! into equal segments, each segment yields its own figure, and the
//! figures are summarised as median, min and max. `run.rs` reports the
//! fastest segment and prints the rest as the spread.

/// The `p`-quantile (`0.0..=1.0`) of an ascending slice, linearly
/// interpolated between neighbouring ranks. `NaN` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let rank = p.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts `values` in place and returns their median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// One figure per segment, summarised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over the segments.
    pub median: f64,
    /// Smallest segment value.
    pub min: f64,
    /// Largest segment value.
    pub max: f64,
}

impl Summary {
    /// Summarises one value per segment.
    pub fn of(mut per_segment: Vec<f64>) -> Self {
        let median = median(&mut per_segment);
        Self {
            median,
            min: per_segment.first().copied().unwrap_or(f64::NAN),
            max: per_segment.last().copied().unwrap_or(f64::NAN),
        }
    }
}

/// What one timed segment observed.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Per-op latency, µs, in completion order.
    pub latencies_us: Vec<f64>,
    /// The time the ops are charged against, ns: wall-clock for
    /// concurrent clients, the sum of the timed calls for one client.
    pub busy_ns: u64,
}

impl Segment {
    /// Ops completed per second of charged time.
    pub fn qps(&self) -> f64 {
        self.latencies_us.len() as f64 / (self.busy_ns as f64 / 1e9)
    }

    /// The `p`-quantile of the segment's latencies, µs.
    pub fn latency(&self, p: f64) -> f64 {
        let mut sorted = self.latencies_us.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// `figure` of every segment, summarised.
pub fn over_segments(segments: &[Segment], figure: impl Fn(&Segment) -> f64) -> Summary {
    Summary::of(segments.iter().map(figure).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.125), 15.0);
        assert_eq!(percentile(&v, 0.95), 48.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [9.0, 1.0, 5.0]), 5.0);
    }

    #[test]
    fn one_slow_segment_moves_neither_the_median_nor_the_fastest() {
        // Five segments of four 100 µs ops; the third ran on a stalled
        // host and took ten times as long.
        let segments: Vec<Segment> = (0..5)
            .map(|i| {
                let slow = if i == 2 { 10.0 } else { 1.0 };
                Segment {
                    latencies_us: vec![100.0 * slow; 4],
                    busy_ns: (400_000.0 * slow) as u64,
                }
            })
            .collect();
        let qps = over_segments(&segments, Segment::qps);
        assert_eq!(qps.median, 10_000.0);
        assert_eq!((qps.min, qps.max), (1_000.0, 10_000.0));
        let p50 = over_segments(&segments, |s| s.latency(0.5));
        assert_eq!(p50.median, 100.0);
        assert_eq!(p50.max, 1_000.0);
    }
}
