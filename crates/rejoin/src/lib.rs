//! # hfqo-rejoin
//!
//! The paper's contribution: **ReJOIN**, a deep-reinforcement-learning
//! join order enumerator (§3), extended with the full execution-plan
//! action space (§4's search-space experiment) and the three proposed
//! research directions — **learning from demonstration** (§5.1),
//! **cost-model bootstrapping** (§5.2), and **incremental learning**
//! (§5.3, pipeline / relations / hybrid curricula).
//!
//! The moving pieces:
//!
//! * [`featurize`] — ReJOIN's state vectorisation: per-subtree
//!   `1/2^depth` tree-structure rows plus join-predicate and
//!   selection-predicate features, fixed-width for a configurable maximum
//!   relation count with masked pair actions.
//! * [`mod@env`] — the one episodic environment, [`PlanEnv`] (episode =
//!   query, action = ordered subtree pair, terminal reward from the cost
//!   model / latency source). Its latency simulator,
//!   [`PlanEnv::simulate_latency`], prices a plan with `hfqo_opt::cost`
//!   on true cardinalities under a second parameter set and adds
//!   log-normal noise. Access-path, join operator, and aggregate
//!   operator decisions are further phases gated by a
//!   [`incremental::StageSet`] so curricula can grow the action space;
//!   ReJOIN's join ordering is its `StageSet::join_order_only()` case.
//! * [`reward`] — the reward signals: `1/M(t)`, expert-relative cost,
//!   (scaled) simulated latency; `scaling` — §5.2's [`RewardScaler`],
//!   which maps latencies into the cost range.
//! * [`trainer`] — the episode loop with per-episode logging, the data
//!   behind Figures 3a/3b.
//! * [`parallel`] — the multi-worker episode-collection harness
//!   (`train_parallel`): N threads over the shared read-only world,
//!   A2C-style synchronous rounds, deterministic per-worker RNG
//!   streams.
//! * [`learned`] — the serving-side [`LearnedPlanner`]: a frozen
//!   policy snapshot behind the unified `hfqo_opt::Planner` trait,
//!   planning by greedy-argmax inference, each chosen merge priced and
//!   built in the `hfqo_opt::PlanForest` every planner steps.
//! * [`experience`] — the online-learning ingest path: replaying a
//!   served query's recorded join decisions (plus its observed
//!   execution) back into a training [`rl::Episode`].
//! * [`demonstration`], `bootstrap`, [`incremental`] — the §5 methods.
//!
//! The crate's one `unsafe` operation is the call into the AVX2 build of
//! a network kernel (`nn::build`: inference, the forward and backward
//! passes, gradient scaling and Adam all run through it); `deny` makes
//! any other a build error.

#![deny(unsafe_code)]

mod bootstrap;
pub mod demonstration;
pub mod env;
pub mod experience;
pub mod featurize;
pub mod incremental;
pub mod learned;
pub mod metrics;
pub mod nn;
pub mod parallel;
pub mod reward;
pub mod rl;
mod scaling;
pub mod trainer;

pub use bootstrap::{cost_bootstrap, BootstrapConfig, BootstrapOutcome};
pub use demonstration::{learn_from_demonstration, DemonstrationConfig, DemonstrationOutcome};
pub use env::{
    EnvContext, EpisodeOutcome, LatencySource, Phase, PlanEnv, QueryOrder, MS_PER_WORK_UNIT,
};
pub use experience::{episode_from_decisions, ReplayError};
pub use featurize::{Featurizer, RolloutState};
pub use incremental::{Curriculum, StageSet};
pub use learned::LearnedPlanner;
pub use metrics::TrainingLog;
pub use parallel::train_parallel;
pub use reward::RewardMode;
pub use scaling::RewardScaler;
pub use trainer::{evaluate_per_query, train, TrainerConfig};

/// The agent under its old name, for the repository benchmark
/// (`perfbench/`), which names it. ROADMAP 1(c) deletes it; nothing
/// else may name it.
pub type ReJoinAgent = rl::ReinforceAgent;

/// The old one-variant algorithm choice, for the repository benchmark
/// (`perfbench/`), which names it. ROADMAP 1(c) deletes it; nothing
/// else may name it.
pub struct PolicyKind;

impl PolicyKind {
    /// The default REINFORCE hyperparameters.
    pub fn default_reinforce() -> rl::ReinforceConfig {
        rl::ReinforceConfig::default()
    }
}
