//! # hfqo — a Hands-Free Query Optimizer through Deep Reinforcement Learning
//!
//! A complete, from-scratch Rust reproduction of *"Towards a Hands-Free
//! Query Optimizer through Deep Learning"* (Marcus & Papaemmanouil,
//! CIDR 2019): the **ReJOIN** deep-RL join order enumerator, the full
//! database substrate it runs on (catalog, storage, SQL front-end,
//! statistics, cost model, executor, and a traditional optimizer playing
//! PostgreSQL's role), and the paper's three proposed research
//! directions — learning from demonstration, cost-model bootstrapping,
//! and incremental learning.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof and hosts the runnable examples and integration tests. See
//! `ARCHITECTURE.md` for the system inventory and `README.md` for the
//! contracts each layer keeps and the binary behind every paper figure.
//!
//! ## Quick start
//!
//! ```
//! use hfqo::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A small IMDB-like database with JOB-like queries.
//! let bundle = WorkloadBundle::imdb_job(
//!     ImdbConfig { base_rows: 300, seed: 1 },
//!     7,
//! );
//! // Plan one query with the traditional optimizer…
//! let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
//! let planned = TraditionalPlanner::new().plan(&ctx, &bundle.queries[0]).unwrap();
//! assert!(planned.cost > 0.0);
//!
//! // …and set up a ReJOIN agent over the same workload, rewarded
//! // against that same expert.
//! let mut env = PlanEnv::new(
//!     EnvContext::new(&bundle.db, &bundle.stats),
//!     &bundle.queries,
//!     bundle.max_rels(),
//!     QueryOrder::Shuffle,
//!     RewardMode::RelativeToExpert,
//!     StageSet::join_order_only(),
//! );
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut agent = ReinforceAgent::new(
//!     env.state_dim(),
//!     env.action_dim(),
//!     ReinforceConfig::default(),
//!     &mut rng,
//! );
//! let log = train(&mut env, &mut agent, 10, &mut rng);
//! assert_eq!(log.len(), 10);
//! ```

pub use hfqo_exec as exec;
pub use hfqo_opt as opt;
pub use hfqo_opt::cost;
pub use hfqo_query as query;
pub use hfqo_query::sql;
pub use hfqo_rejoin as rejoin;
pub use hfqo_rejoin::nn;
pub use hfqo_rejoin::rl;
pub use hfqo_serve as serve;
pub use hfqo_stats as stats;
pub use hfqo_storage as storage;
pub use hfqo_storage::catalog;
pub use hfqo_workload as workload;

/// The most commonly used types, in one import.
pub mod prelude {
    pub use hfqo_exec::{execute, ExecConfig, TrueCardinality};
    pub use hfqo_opt::cost::{CostModel, CostParams};
    pub use hfqo_opt::{
        random_plan, Planner, PlannerContext, PlannerMethod, RandomPlanner, TraditionalPlanner,
    };
    pub use hfqo_query::sql::parse_select;
    pub use hfqo_query::{
        bind_select, fingerprint, template_fingerprint, Forest, JoinTree, ParamVector,
        PhysicalPlan, PlanNode, QueryFingerprint, QueryGraph, RelSet, TemplateFingerprint,
    };
    pub use hfqo_rejoin::rl::{Environment, ReinforceAgent, ReinforceConfig};
    pub use hfqo_rejoin::{
        cost_bootstrap, evaluate_per_query, learn_from_demonstration, train, train_parallel,
        BootstrapConfig, Curriculum, DemonstrationConfig, EnvContext, Featurizer, LearnedPlanner,
        PlanEnv, QueryOrder, RewardMode, RewardScaler, StageSet, TrainerConfig, TrainingLog,
    };
    pub use hfqo_serve::{
        CacheConfig, CacheMetrics, CacheOutcome, Experience, ExperienceLog, HotSwapPlanner,
        OnlineConfig, OnlineTrainer, PlanKey, PlannerHandle, Prepared, QuerySession, ServeError,
        ServedQuery,
    };
    pub use hfqo_stats::{
        build_database_stats, selection_selectivities, CardinalitySource, EstimatedCardinality,
    };
    pub use hfqo_storage::catalog::{Catalog, Column, ColumnType, TableSchema};
    pub use hfqo_storage::{Database, Value};
    pub use hfqo_workload::imdb::ImdbConfig;
    pub use hfqo_workload::{
        apply_mutation, with_count_root, DbSnapshots, DriftConfig, DriftHarness, DriftOutcome,
        DriftScenario, Mutation, MutationOp, RecoveryReport, Shock, ShockKind, WorkloadBundle,
    };
}
