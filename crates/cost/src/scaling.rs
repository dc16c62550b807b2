//! The §5.2 bootstrap reward scaler.
//!
//! When cost-model bootstrapping switches its reward from optimizer cost
//! (Phase 1) to observed latency (Phase 2), the raw reward range jumps —
//! e.g. costs in 10–50 vs latencies in 100–200 ms — which the paper warns
//! "could cause the DRL model to begin exploring previously-discarded
//! strategies". The fix proposed there maps a latency `l` into the cost
//! range observed at the end of Phase 1:
//!
//! ```text
//! r_l = C_min + (l − L_min) / (L_max − L_min) · (C_max − C_min)
//! ```
//!
//! [`RewardScaler`] implements exactly that, with an observation phase that
//! records the four extrema.

/// Linear latency-to-cost-range scaler (the paper's `r_l` formula).
#[derive(Debug, Clone, PartialEq)]
pub struct RewardScaler {
    c_min: f64,
    c_max: f64,
    l_min: f64,
    l_max: f64,
    observations: usize,
}

impl Default for RewardScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl RewardScaler {
    /// A scaler with no observations yet.
    pub fn new() -> Self {
        Self {
            c_min: f64::INFINITY,
            c_max: f64::NEG_INFINITY,
            l_min: f64::INFINITY,
            l_max: f64::NEG_INFINITY,
            observations: 0,
        }
    }

    /// Records one `(cost, latency)` pair observed near the end of
    /// Phase 1 (when the model has converged).
    pub fn observe(&mut self, cost: f64, latency: f64) {
        self.c_min = self.c_min.min(cost);
        self.c_max = self.c_max.max(cost);
        self.l_min = self.l_min.min(latency);
        self.l_max = self.l_max.max(latency);
        self.observations += 1;
    }

    /// Whether enough structure exists to scale (at least two distinct
    /// latencies and costs).
    pub fn is_ready(&self) -> bool {
        self.observations >= 2 && self.l_max > self.l_min && self.c_max >= self.c_min
    }

    /// Maps a Phase-2 latency into the Phase-1 cost range using the
    /// paper's linear formula. Latencies outside the observed range
    /// extrapolate linearly (a catastrophically slow plan should map to a
    /// catastrophically high scaled value).
    pub fn scale(&self, latency: f64) -> f64 {
        if !self.is_ready() {
            return latency;
        }
        self.c_min + (latency - self.l_min) / (self.l_max - self.l_min) * (self.c_max - self.c_min)
    }

    /// Observed cost range `(C_min, C_max)`.
    pub fn cost_range(&self) -> (f64, f64) {
        (self.c_min, self.c_max)
    }

    /// Observed latency range `(L_min, L_max)`.
    pub fn latency_range(&self) -> (f64, f64) {
        (self.l_min, self.l_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> RewardScaler {
        let mut s = RewardScaler::new();
        // Costs 10..50, latencies 100..200 — the paper's own example.
        s.observe(10.0, 100.0);
        s.observe(50.0, 200.0);
        s.observe(30.0, 150.0);
        s
    }

    #[test]
    fn maps_endpoints_exactly() {
        let s = trained();
        assert!(s.is_ready());
        assert!((s.scale(100.0) - 10.0).abs() < 1e-12);
        assert!((s.scale(200.0) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn interpolates_linearly() {
        let s = trained();
        assert!((s.scale(150.0) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn extrapolates_outside_range() {
        let s = trained();
        // A 400 ms plan maps far beyond C_max — still "catastrophic".
        assert!(s.scale(400.0) > 100.0);
        // A miraculous 50 ms plan maps below C_min.
        assert!(s.scale(50.0) < 10.0);
    }

    #[test]
    fn not_ready_passes_through() {
        let mut s = RewardScaler::new();
        assert!(!s.is_ready());
        assert_eq!(s.scale(123.0), 123.0);
        s.observe(10.0, 100.0);
        assert!(!s.is_ready());
    }

    #[test]
    fn ranges_reported() {
        let s = trained();
        assert_eq!(s.cost_range(), (10.0, 50.0));
        assert_eq!(s.latency_range(), (100.0, 200.0));
    }
}
