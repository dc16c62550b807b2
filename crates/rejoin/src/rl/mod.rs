//! Reinforcement-learning machinery: the [`Environment`] abstraction the
//! query-optimization environment implements, episode rollouts, REINFORCE
//! with a moving baseline (the policy-gradient family ReJOIN used), and
//! an epsilon-greedy **reward prediction** learner (the function §5.1's
//! learning-from-demonstration trains on expert histories). The few
//! hyperparameters no caller varies — discount, entropy bonus, baseline
//! decay, gradient clip, advantage normalisation — are constants in
//! `reinforce`; [`ReinforceConfig`] keeps only the network shape, the
//! learning rate and the batch size, [`RewardModelConfig`] the first
//! two.
//!
//! Everything is driven by seeded RNGs and the pure-Rust [`crate::nn`]
//! networks, so training runs are exactly reproducible.

mod env;
mod episode;
mod reinforce;
mod reward_model;
mod rollout;

pub use env::{Environment, StepResult};
pub use episode::{Episode, Transition};
pub use reinforce::{ReinforceAgent, ReinforceConfig, UpdatePath};
pub use reward_model::{RewardModel, RewardModelConfig};
pub use rollout::{PolicySnapshot, Selector};
