//! Reward signals.
//!
//! §3's ReJOIN reward is the reciprocal of the optimizer's cost model,
//! `1/M(t)`. §4 explains why raw latency is problematic (sparse,
//! non-linear, expensive for bad plans), and §5.2 proposes scaling
//! latency into the cost range. All of these are selectable here; the
//! expert-relative variant divides out per-query magnitude differences
//! (a variance-reduction refinement — the convergence *metric* stays
//! cost-relative-to-expert either way, as in Figure 3a).

use crate::scaling::RewardScaler;

/// How terminal rewards are computed from a finished plan.
#[derive(Debug, Clone)]
pub enum RewardMode {
    /// `1 / M(t)` — the paper's ReJOIN reward.
    InverseCost,
    /// `expert_cost / agent_cost` — normalised so 1.0 means
    /// expert-equivalent; queries of different sizes contribute rewards
    /// on the same scale.
    RelativeToExpert,
    /// `1 / latency_ms` — the naive latency reward of §4 (requires the
    /// environment to simulate/execute every final plan).
    InverseLatency,
    /// `ln(expert_cost / agent_cost)`, clamped to ±20. Plan costs span
    /// many orders of magnitude (a cross join can cost 10⁶× the expert
    /// plan), so the reciprocal rewards above compress every bad plan
    /// toward zero and the policy gradient cannot tell "bad" from
    /// "catastrophic". The log form keeps the ordering of the paper's
    /// reward while giving the gradient a usable scale; the headline
    /// training runs use it (the convergence *metric* remains plan cost
    /// relative to expert either way).
    LogRelative,
    /// `−ln M(t)` — the log-domain analogue of [`InverseCost`]
    /// (monotone-equivalent: `ln(1/x) = −ln x`). Phase 1 of
    /// bootstrapping trains on this.
    ///
    /// [`InverseCost`]: RewardMode::InverseCost
    NegLogCost,
    /// `−ln latency_ms` — the log-domain analogue of
    /// [`InverseLatency`]; the *unscaled* Phase-2 ablation.
    ///
    /// [`InverseLatency`]: RewardMode::InverseLatency
    NegLogLatency,
    /// `−ln scaler(latency_ms)` — Phase 2 with the paper's `r_l`
    /// scaling, in the log domain, so the reward range continues Phase
    /// 1's `−ln cost` range seamlessly.
    NegLogScaledLatency(RewardScaler),
}

impl RewardMode {
    /// Whether this mode needs a latency observation for every episode.
    pub(crate) fn needs_latency(&self) -> bool {
        matches!(
            self,
            RewardMode::InverseLatency
                | RewardMode::NegLogLatency
                | RewardMode::NegLogScaledLatency(_)
        )
    }

    /// Computes the terminal reward.
    ///
    /// `agent_cost` is `M(t)` for the finished plan, `expert_cost` the
    /// expert's cost for the same query, `latency_ms` the (simulated)
    /// execution latency when available.
    pub fn terminal_reward(
        &self,
        agent_cost: f64,
        expert_cost: f64,
        latency_ms: Option<f64>,
    ) -> f32 {
        match self {
            RewardMode::InverseCost => (1.0 / agent_cost.max(1e-9)) as f32,
            RewardMode::RelativeToExpert => (expert_cost.max(1e-9) / agent_cost.max(1e-9)) as f32,
            RewardMode::InverseLatency => {
                let l = latency_ms.expect("latency required by InverseLatency");
                (1.0 / l.max(1e-6)) as f32
            }
            RewardMode::LogRelative => {
                let ratio = expert_cost.max(1e-9) / agent_cost.max(1e-9);
                (ratio.ln().clamp(-20.0, 20.0)) as f32
            }
            RewardMode::NegLogCost => (-(agent_cost.max(1e-9).ln())) as f32,
            RewardMode::NegLogLatency => {
                let l = latency_ms.expect("latency required by NegLogLatency");
                (-(l.max(1e-6).ln())) as f32
            }
            RewardMode::NegLogScaledLatency(scaler) => {
                let l = latency_ms.expect("latency required by NegLogScaledLatency");
                (-(scaler.scale(l).max(1e-6).ln())) as f32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_cost_prefers_cheap_plans() {
        let m = RewardMode::InverseCost;
        assert!(m.terminal_reward(10.0, 100.0, None) > m.terminal_reward(20.0, 100.0, None));
        assert!(!m.needs_latency());
    }

    #[test]
    fn relative_reward_is_one_at_expert_parity() {
        let m = RewardMode::RelativeToExpert;
        let r = m.terminal_reward(50.0, 50.0, None);
        assert!((r - 1.0).abs() < 1e-6);
        assert!(m.terminal_reward(25.0, 50.0, None) > 1.5);
    }

    #[test]
    fn latency_modes_require_latency() {
        assert!(RewardMode::InverseLatency.needs_latency());
        let r = RewardMode::InverseLatency.terminal_reward(1.0, 1.0, Some(20.0));
        assert!((r - 0.05).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "latency required")]
    fn missing_latency_panics() {
        RewardMode::InverseLatency.terminal_reward(1.0, 1.0, None);
    }

    #[test]
    fn log_relative_discriminates_bad_from_catastrophic() {
        let m = RewardMode::LogRelative;
        let bad = m.terminal_reward(1e4, 1e2, None); // 100× expert
        let awful = m.terminal_reward(1e8, 1e2, None); // 10⁶× expert
        assert!(bad > awful, "bad {bad} vs awful {awful}");
        // Reciprocal rewards squash both to ~0 — the motivation for the
        // log form.
        let r = RewardMode::RelativeToExpert;
        let rb = r.terminal_reward(1e4, 1e2, None);
        let ra = r.terminal_reward(1e8, 1e2, None);
        assert!((rb - ra).abs() < 0.011);
        // Parity gives zero, better-than-expert positive.
        assert_eq!(m.terminal_reward(50.0, 50.0, None), 0.0);
        assert!(m.terminal_reward(25.0, 50.0, None) > 0.0);
    }

    #[test]
    fn neglog_modes_continue_each_other() {
        // Phase 1 on −ln(cost); a perfectly-fitted scaler maps latency
        // back into the cost range, so Phase 2 rewards land in the same
        // interval.
        let mut scaler = RewardScaler::new();
        scaler.observe(100.0, 10.0);
        scaler.observe(10_000.0, 1000.0);
        let p1 = RewardMode::NegLogCost.terminal_reward(100.0, 1.0, None);
        let p2 = RewardMode::NegLogScaledLatency(scaler).terminal_reward(1.0, 1.0, Some(10.0));
        assert!((p1 - p2).abs() < 1e-3, "p1 {p1} vs p2 {p2}");
        // Raw-latency rewards live in a different range entirely.
        let raw = RewardMode::NegLogLatency.terminal_reward(1.0, 1.0, Some(10.0));
        assert!((raw - p1).abs() > 1.0);
        assert!(RewardMode::NegLogLatency.needs_latency());
        assert!(!RewardMode::NegLogCost.needs_latency());
    }
}
