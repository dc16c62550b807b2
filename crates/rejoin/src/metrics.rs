//! Training metrics and logs.

/// A windowed moving average.
#[derive(Debug, Clone)]
pub(crate) struct MovingAverage {
    window: usize,
    values: Vec<f64>,
    next: usize,
    sum: f64,
}

impl MovingAverage {
    /// A moving average over the last `window` values.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            values: Vec::with_capacity(window),
            next: 0,
            sum: 0.0,
        }
    }

    /// Adds a value.
    pub fn push(&mut self, v: f64) {
        if self.values.len() < self.window {
            self.values.push(v);
            self.sum += v;
        } else {
            self.sum += v - self.values[self.next];
            self.values[self.next] = v;
            self.next = (self.next + 1) % self.window;
        }
    }

    /// The current average (`None` before any value arrives).
    pub fn value(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum / self.values.len() as f64)
        }
    }

    /// Number of values currently contributing.
    pub fn len(&self) -> usize {
        self.values.len()
    }
}

/// One training episode's record.
///
/// `PartialEq` compares every field exactly (floats included): the
/// determinism-parity tests assert bit-identical logs across trainer
/// configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeRecord {
    /// Episode number (0-based).
    pub episode: usize,
    /// Workload query index.
    pub query_idx: usize,
    /// Query label, if any.
    pub label: Option<String>,
    /// Agent plan cost `M(t)`.
    pub agent_cost: f64,
    /// Expert plan cost for the same query.
    pub expert_cost: f64,
    /// Terminal reward granted.
    pub reward: f32,
    /// Simulated latency, when the reward needed one.
    pub latency_ms: Option<f64>,
}

impl EpisodeRecord {
    /// Agent cost relative to the expert (1.0 = parity, 2.0 = twice as
    /// expensive — the y-axis of Figure 3a as a fraction rather than %).
    pub fn cost_ratio(&self) -> f64 {
        self.agent_cost / self.expert_cost.max(1e-9)
    }
}

/// The full log of a training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrainingLog {
    /// Per-episode records, in order.
    pub records: Vec<EpisodeRecord>,
}

impl TrainingLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, record: EpisodeRecord) {
        self.records.push(record);
    }

    /// Number of episodes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Moving-average cost ratio over a window — the Figure 3a series.
    /// Returns `(episode, ma_ratio)` pairs, one per episode once the
    /// window has filled.
    pub(crate) fn moving_ratio(&self, window: usize) -> Vec<(usize, f64)> {
        let mut ma = MovingAverage::new(window.max(1));
        let mut out = Vec::new();
        for r in &self.records {
            ma.push(r.cost_ratio());
            if ma.len() >= window.min(self.records.len()) {
                out.push((r.episode, ma.value().expect("non-empty")));
            }
        }
        out
    }

    /// First episode at which the moving-average ratio drops to
    /// `threshold` or below (the paper's "competitive with PostgreSQL"
    /// moment), or `None` if it never does.
    pub fn convergence_episode(&self, threshold: f64, window: usize) -> Option<usize> {
        self.moving_ratio(window)
            .into_iter()
            .find(|(_, ratio)| *ratio <= threshold)
            .map(|(ep, _)| ep)
    }

    /// Mean cost ratio over the final `window` episodes.
    pub fn final_ratio(&self, window: usize) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let tail = &self.records[self.records.len().saturating_sub(window)..];
        Some(tail.iter().map(EpisodeRecord::cost_ratio).sum::<f64>() / tail.len() as f64)
    }

    /// Geometric-mean moving cost ratio — the robust variant of
    /// `moving_ratio` used for reporting: plan-cost ratios span many
    /// orders of magnitude, and a single cross-join episode dominates an
    /// arithmetic mean long after the policy has stopped producing them.
    pub fn moving_geo_ratio(&self, window: usize) -> Vec<(usize, f64)> {
        let mut ma = MovingAverage::new(window.max(1));
        let mut out = Vec::new();
        for r in &self.records {
            ma.push(r.cost_ratio().max(1e-12).ln());
            if ma.len() >= window.min(self.records.len()) {
                out.push((r.episode, ma.value().expect("non-empty").exp()));
            }
        }
        out
    }

    /// Geometric-mean cost ratio over the final `window` episodes.
    pub fn final_geo_ratio(&self, window: usize) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let tail = &self.records[self.records.len().saturating_sub(window)..];
        let mean_ln = tail
            .iter()
            .map(|r| r.cost_ratio().max(1e-12).ln())
            .sum::<f64>()
            / tail.len() as f64;
        Some(mean_ln.exp())
    }

    /// Geometric-mean cost ratio over the first `window` episodes.
    pub fn initial_geo_ratio(&self, window: usize) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        let head = &self.records[..window.min(self.records.len())];
        let mean_ln = head
            .iter()
            .map(|r| r.cost_ratio().max(1e-12).ln())
            .sum::<f64>()
            / head.len() as f64;
        Some(mean_ln.exp())
    }

    /// First episode at which the geometric moving-average ratio drops
    /// to `threshold` or below.
    pub fn convergence_episode_geo(&self, threshold: f64, window: usize) -> Option<usize> {
        self.moving_geo_ratio(window)
            .into_iter()
            .find(|(_, ratio)| *ratio <= threshold)
            .map(|(ep, _)| ep)
    }

    /// Largest latency observed, when latencies were recorded.
    pub fn worst_latency_ms(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.latency_ms)
            .fold(None, |acc, l| Some(acc.map_or(l, |a: f64| a.max(l))))
    }

    /// Concatenates another log, renumbering its episodes to follow this
    /// one (used by multi-phase trainers).
    pub(crate) fn extend_renumbered(&mut self, other: TrainingLog) {
        let offset = self.records.len();
        for (i, mut r) in other.records.into_iter().enumerate() {
            r.episode = offset + i;
            self.records.push(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(episode: usize, agent: f64, expert: f64) -> EpisodeRecord {
        EpisodeRecord {
            episode,
            query_idx: 0,
            label: None,
            agent_cost: agent,
            expert_cost: expert,
            reward: 0.0,
            latency_ms: None,
        }
    }

    #[test]
    fn moving_average_window() {
        let mut ma = MovingAverage::new(3);
        assert!(ma.value().is_none());
        for v in [1.0, 2.0, 3.0, 4.0] {
            ma.push(v);
        }
        // Window holds 2, 3, 4.
        assert!((ma.value().expect("values") - 3.0).abs() < 1e-12);
        assert_eq!(ma.len(), 3);
    }

    #[test]
    fn convergence_detection() {
        let mut log = TrainingLog::new();
        // Ratios: 8, 6, 4, 2, 1, 0.9, 0.9, ...
        for (i, ratio) in [8.0, 6.0, 4.0, 2.0, 1.0, 0.9, 0.9, 0.9].iter().enumerate() {
            log.push(record(i, ratio * 100.0, 100.0));
        }
        let conv = log.convergence_episode(1.0, 2).expect("converges");
        assert!(conv >= 4, "converged at {conv}");
        assert!(log.final_ratio(3).expect("non-empty") < 1.0);
        assert!(log.convergence_episode(0.1, 2).is_none());
    }

    #[test]
    fn moving_ratio_series_shape() {
        let mut log = TrainingLog::new();
        for i in 0..10 {
            log.push(record(i, 200.0, 100.0));
        }
        let series = log.moving_ratio(5);
        assert_eq!(series.len(), 6); // episodes 4..=9
        assert!(series.iter().all(|(_, r)| (r - 2.0).abs() < 1e-12));
    }

    #[test]
    fn renumbering_on_extend() {
        let mut a = TrainingLog::new();
        a.push(record(0, 1.0, 1.0));
        let mut b = TrainingLog::new();
        b.push(record(0, 2.0, 1.0));
        b.push(record(1, 3.0, 1.0));
        a.extend_renumbered(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.records[1].episode, 1);
        assert_eq!(a.records[2].episode, 2);
    }

    #[test]
    fn geometric_metrics_resist_outliers() {
        let mut log = TrainingLog::new();
        // 9 parity episodes + one catastrophic outlier.
        for i in 0..9 {
            log.push(record(i, 100.0, 100.0));
        }
        log.push(record(9, 1_000_000.0, 100.0));
        let arith = log.final_ratio(10).expect("non-empty");
        let geo = log.final_geo_ratio(10).expect("non-empty");
        assert!(arith > 500.0, "arith {arith}");
        assert!(geo < 3.0, "geo {geo}");
        assert!(log.initial_geo_ratio(5).expect("non-empty") < 1.01);
        assert!(log.convergence_episode_geo(1.5, 5).is_some());
        assert_eq!(log.moving_geo_ratio(5).len(), 6);
    }

    #[test]
    fn worst_latency() {
        let mut log = TrainingLog::new();
        assert!(log.worst_latency_ms().is_none());
        let mut r = record(0, 1.0, 1.0);
        r.latency_ms = Some(5.0);
        log.push(r);
        let mut r = record(1, 1.0, 1.0);
        r.latency_ms = Some(25.0);
        log.push(r);
        assert_eq!(log.worst_latency_ms(), Some(25.0));
    }
}
