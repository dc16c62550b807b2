//! # hfqo-rl
//!
//! Reinforcement-learning machinery: the [`Environment`] abstraction the
//! query-optimization environment implements, episode rollouts, REINFORCE
//! with a moving baseline (the policy-gradient family ReJOIN used), an
//! epsilon-greedy **reward prediction** learner (the function §5.1's
//! learning-from-demonstration trains on expert histories), and the
//! replay buffer that experiment samples from.
//!
//! Everything is driven by seeded RNGs and the pure-Rust `hfqo-nn`
//! networks, so training runs are exactly reproducible.

pub mod env;
pub mod episode;
pub mod reinforce;
pub mod replay;
pub mod reward_model;
pub mod rollout;

pub use env::{Environment, StepResult};
pub use episode::{discounted_returns, Episode, Transition};
pub use reinforce::{ReinforceAgent, ReinforceConfig, UpdatePath};
pub use replay::ReplayBuffer;
pub use reward_model::{RewardModel, RewardModelConfig};
pub use rollout::{PolicySnapshot, Selector};
