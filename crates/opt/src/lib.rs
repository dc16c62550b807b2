//! # hfqo-opt
//!
//! The "traditional query optimizer" of the paper: the expert that
//! learning-from-demonstration imitates, the baseline every figure compares
//! against, and the provider of the cost model ReJOIN uses as its reward.
//! It is one planner, [`TraditionalPlanner`], planning against one
//! [`PlannerContext`] — catalog and statistics, priced under PostgreSQL-like
//! constants — the same context every other planner and the RL
//! environment price with.
//!
//! Architecture mirrors PostgreSQL's planner:
//!
//! * cardinality estimation from histograms (`hfqo-stats`),
//! * a cost model with per-operator formulas ([`cost`]),
//! * **exhaustive bottom-up dynamic programming** ([`dp`]) over connected
//!   subgraphs for small queries (PostgreSQL: `geqo_threshold = 12`), in
//!   a dense table with one slot per connected set, whose plan is built
//!   once, at the end; it visits only connected disjoint pairs and
//!   prices only those that could beat their union's best plan,
//! * a **greedy bottom-up** fallback ([`greedy`]) at and beyond the
//!   threshold (standing in for GEQO; the paper's §3 notes PostgreSQL's
//!   greedy bottom-up behaviour), which prices each pair once per run,
//! * access-path and physical-operator selection ([`physical`]), and the
//!   **costed forest** ([`forest`]) every planner but DP steps,
//! * a **random planner** ([`random`]) used as the floor baseline in
//!   the §4 experiments and **expert traces** ([`trace`]) consumed by
//!   learning-from-demonstration (§5.1),
//! * plus the **unified [`Planner`] trait** ([`planner`]) every strategy
//!   — traditional, random, and the learned ReJOIN policy — implements,
//!   so the serving layer and the experiment harness swap strategies
//!   behind one interface; the planned-query types live in
//!   [`optimizer`].

#![forbid(unsafe_code)]

pub mod cost;
pub mod dp;
pub mod forest;
pub mod greedy;
pub mod optimizer;
pub mod physical;
pub mod planner;
pub mod random;
pub mod trace;

#[doc(hidden)]
pub mod test_support;

pub use forest::PlanForest;
pub use optimizer::{OptError, PlannedQuery, PlannerMethod};
pub use planner::{Planner, PlannerContext, RandomPlanner, TraditionalPlanner};
pub use random::random_plan;
pub use trace::{expert_actions, ExpertEpisode};
