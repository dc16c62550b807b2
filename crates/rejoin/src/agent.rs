//! The ReJOIN agent: a policy-gradient learner over the environment.
//!
//! ReJOIN's published implementation trained with PPO; every figure of
//! this reproduction comes from REINFORCE with a moving baseline, the
//! one backend kept here. It is also the only one online learning is
//! sound for: a replayed serving decision does not record the
//! probability its action was taken with, which REINFORCE never needs
//! (its gradient re-derives `log π(a|s)` from the live policy) and an
//! importance-ratio method would divide by.

use hfqo_rl::{Environment, Episode, PolicySnapshot, ReinforceAgent, ReinforceConfig, UpdatePath};
use rand::rngs::StdRng;

/// Which policy-gradient algorithm backs the agent.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// REINFORCE with an EMA baseline.
    Reinforce(ReinforceConfig),
}

impl PolicyKind {
    /// REINFORCE with default hyperparameters.
    pub fn default_reinforce() -> Self {
        PolicyKind::Reinforce(ReinforceConfig::default())
    }
}

/// The ReJOIN agent.
pub struct ReJoinAgent {
    inner: ReinforceAgent,
}

impl ReJoinAgent {
    /// Creates an agent for the given state/action dimensions.
    pub fn new(state_dim: usize, action_dim: usize, kind: PolicyKind, rng: &mut StdRng) -> Self {
        let PolicyKind::Reinforce(config) = kind;
        Self {
            inner: ReinforceAgent::new(state_dim, action_dim, config, rng),
        }
    }

    /// Samples (or greedily selects) an action.
    pub fn select_action(
        &self,
        features: &[f32],
        mask: &[bool],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        self.inner.select_action(features, mask, rng, greedy)
    }

    /// A frozen, `Send + Sync` copy of the current policy. Rollout
    /// workers act with snapshots while the learner keeps the mutable
    /// optimizer state; a snapshot consumes the RNG stream exactly as
    /// the live agent does.
    pub fn snapshot(&self) -> PolicySnapshot {
        self.inner.snapshot()
    }

    /// Rolls out one episode.
    pub fn run_episode<E: Environment>(
        &self,
        env: &mut E,
        rng: &mut StdRng,
        greedy: bool,
    ) -> Episode {
        self.inner.run_episode(env, rng, greedy)
    }

    /// Buffers a finished episode; returns `true` when a policy update
    /// ran.
    pub fn observe(&mut self, episode: Episode) -> bool {
        self.inner.observe(episode)
    }

    /// Forces an update on whatever episodes are buffered.
    pub fn flush(&mut self) {
        self.inner.update()
    }

    /// The active network-update implementation.
    pub fn update_path(&self) -> UpdatePath {
        self.inner.update_path()
    }

    /// Selects the network-update implementation. `Batched` (the
    /// default) fuses each update into one forward/backward; `PerRow`
    /// is the bit-identical per-transition reference path, retained for
    /// parity verification and benchmarking.
    pub fn set_update_path(&mut self, path: UpdatePath) {
        self.inner.set_update_path(path)
    }

    /// Episodes observed so far.
    pub fn episodes_seen(&self) -> usize {
        self.inner.episodes_seen()
    }

    /// One supervised imitation step (cross-entropy toward expert
    /// actions); returns the mean loss.
    pub fn imitate_step(&mut self, batch: &[(Vec<f32>, Vec<bool>, usize)]) -> f32 {
        self.inner.imitate_step(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn agent_constructs_and_acts() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = ReJoinAgent::new(4, 9, PolicyKind::default_reinforce(), &mut rng);
        let (a, p) = agent.select_action(
            &[0.0, 1.0, 0.0, 1.0],
            &[true, false, true, false, false, false, false, false, false],
            &mut rng,
            false,
        );
        assert!(a == 0 || a == 2);
        assert!(p > 0.0);
        assert_eq!(agent.episodes_seen(), 0);
    }

    #[test]
    fn imitation_step_reports_loss() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = ReJoinAgent::new(2, 4, PolicyKind::default_reinforce(), &mut rng);
        let batch = vec![(vec![1.0, 0.0], vec![true; 4], 2usize)];
        assert!(r.imitate_step(&batch) > 0.0);
    }
}
