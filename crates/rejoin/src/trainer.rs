//! The training loop and evaluation helpers.

use crate::agent::ReJoinAgent;
use crate::env::{EpisodeOutcome, PlanEnv, QueryOrder};
use crate::metrics::{EpisodeRecord, TrainingLog};
use rand::rngs::StdRng;

/// Training-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainerConfig {
    /// Episodes to run.
    pub episodes: usize,
    /// Episode-collection worker threads. `1` (the default) is the
    /// exact legacy sequential loop; `N > 1` collects episodes on `N`
    /// threads in synchronous A2C-style rounds (see
    /// [`crate::parallel`]).
    pub workers: usize,
}

impl TrainerConfig {
    /// A configuration running `episodes` episodes on one worker.
    pub fn new(episodes: usize) -> Self {
        Self {
            episodes,
            workers: 1,
        }
    }

    /// Sets the worker-thread count (builder style). `0` is coerced
    /// to `1`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }
}

/// Builds the log record for a finished episode's outcome.
pub(crate) fn record_from(outcome: &EpisodeOutcome, episode: usize) -> EpisodeRecord {
    EpisodeRecord {
        episode,
        query_idx: outcome.query_idx,
        label: outcome.label.clone(),
        agent_cost: outcome.agent_cost,
        expert_cost: outcome.expert_cost,
        reward: outcome.reward,
        latency_ms: outcome.latency_ms,
    }
}

/// Runs the standard training loop: sample an episode with the current
/// policy, log its outcome, hand it to the agent. Returns the per-episode
/// log (Figure 3a's raw data).
///
/// This is the sequential path; `config.workers` is ignored here. Use
/// [`crate::parallel::train_parallel`] to honor it.
///
/// ```
/// use hfqo_opt::test_support::{chain_query, TestDb};
/// use hfqo_rejoin::{
///     train, EnvContext, PlanEnv, PolicyKind, QueryOrder, ReJoinAgent, RewardMode, StageSet,
///     TrainerConfig,
/// };
/// use hfqo_rl::Environment as _;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let fixture = TestDb::chain(3, 150);
/// let queries = vec![chain_query(&fixture, 3)];
/// let ctx = EnvContext::new(&fixture.db, &fixture.stats);
/// let mut env = PlanEnv::new(
///     ctx,
///     &queries,
///     3,
///     QueryOrder::Cycle,
///     RewardMode::LogRelative,
///     StageSet::join_order_only(),
/// );
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut agent = ReJoinAgent::new(
///     env.state_dim(),
///     env.action_dim(),
///     PolicyKind::default_reinforce(),
///     &mut rng,
/// );
/// let log = train(&mut env, &mut agent, TrainerConfig::new(10), &mut rng);
/// assert_eq!(log.len(), 10);
/// assert_eq!(agent.episodes_seen(), 10);
/// ```
pub fn train(
    env: &mut PlanEnv<'_>,
    agent: &mut ReJoinAgent,
    config: TrainerConfig,
    rng: &mut StdRng,
) -> TrainingLog {
    let mut log = TrainingLog::new();
    for episode in 0..config.episodes {
        let ep = agent.run_episode(env, rng, false);
        if let Some(outcome) = env.last_outcome() {
            log.push(record_from(outcome, episode));
        }
        agent.observe(ep);
    }
    agent.flush();
    log
}

/// Greedy evaluation of every workload query with the current policy:
/// returns one record per query (Figure 3b's raw data). Restores the
/// given order afterwards.
pub fn evaluate_per_query(
    env: &mut PlanEnv<'_>,
    agent: &ReJoinAgent,
    restore_order: QueryOrder,
    rng: &mut StdRng,
) -> Vec<EpisodeRecord> {
    let mut out = Vec::with_capacity(env.queries().len());
    for idx in 0..env.queries().len() {
        env.set_order(QueryOrder::Fixed(idx));
        let _ = agent.run_episode(env, rng, true);
        if let Some(outcome) = env.last_outcome() {
            out.push(record_from(outcome, idx));
        }
    }
    env.set_order(restore_order);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::PolicyKind;
    use crate::env::EnvContext;
    use crate::incremental::StageSet;
    use crate::parallel::train_parallel;
    use crate::reward::RewardMode;
    use hfqo_opt::test_support::{chain_query, with_count, TestDb};
    use hfqo_query::QueryGraph;
    use hfqo_rl::{Environment as _, ReinforceConfig};
    use rand::SeedableRng;

    fn fixtures() -> (TestDb, Vec<QueryGraph>) {
        let db = TestDb::chain(4, 300);
        let queries = vec![
            chain_query(&db, 4).with_label("a"),
            chain_query(&db, 3).with_label("b"),
        ];
        (db, queries)
    }

    fn small_agent(env: &PlanEnv<'_>, rng: &mut StdRng) -> ReJoinAgent {
        ReJoinAgent::new(
            env.state_dim(),
            env.action_dim(),
            PolicyKind::Reinforce(ReinforceConfig {
                hidden: vec![32],
                lr: 0.005,
                batch_episodes: 4,
                ..Default::default()
            }),
            rng,
        )
    }

    #[test]
    fn training_produces_full_log() {
        let (db, queries) = fixtures();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let mut agent = small_agent(&env, &mut rng);
        let log = train(&mut env, &mut agent, TrainerConfig::new(20), &mut rng);
        assert_eq!(log.len(), 20);
        assert!(log.records.iter().all(|r| r.agent_cost > 0.0));
        // Cycle order alternates queries.
        assert_eq!(log.records[0].query_idx, 0);
        assert_eq!(log.records[1].query_idx, 1);
        assert_eq!(agent.episodes_seen(), 20);
    }

    #[test]
    fn training_improves_small_workload() {
        let (db, queries) = fixtures();
        let ctx = EnvContext::new(&db.db, &db.stats);
        // The headline training configuration: log-scale reward and
        // connected-pair masking (as ReJOIN's implementation used).
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::LogRelative,
            StageSet::join_order_only(),
        );
        env.require_connected = true;
        let mut rng = StdRng::seed_from_u64(1);
        let mut agent = small_agent(&env, &mut rng);
        let log = train(&mut env, &mut agent, TrainerConfig::new(400), &mut rng);
        let early = log.initial_geo_ratio(50).expect("non-empty");
        let late = log.final_geo_ratio(50).expect("non-empty");
        assert!(
            late <= early * 1.05,
            "no improvement: early {early:.3} late {late:.3}"
        );
        // A 4-relation chain is easy: the trained agent should be near
        // expert parity.
        assert!(late < 2.0, "final ratio {late:.3} too high");
    }

    #[test]
    fn per_query_evaluation_covers_workload() {
        let (db, queries) = fixtures();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        let agent = small_agent(&env, &mut rng);
        let records = evaluate_per_query(&mut env, &agent, QueryOrder::Cycle, &mut rng);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label.as_deref(), Some("a"));
        assert_eq!(records[1].label.as_deref(), Some("b"));
    }

    /// A query with nothing to order still gets an episode of its own —
    /// scan, optional aggregate, outcome — logged under its own index,
    /// whichever stages the agent decides and on one worker or several.
    #[test]
    fn single_relation_queries_log_their_own_outcome() {
        let db = TestDb::chain(3, 200);
        let queries = vec![
            chain_query(&db, 3),
            with_count(chain_query(&db, 1)),
            chain_query(&db, 1),
        ];
        for stages in StageSet::pipeline_prefixes() {
            let make_env = |_worker: usize| {
                let ctx = EnvContext::new(&db.db, &db.stats);
                let (order, mode) = (QueryOrder::Cycle, RewardMode::LogRelative);
                PlanEnv::new(ctx, &queries, 3, order, mode, stages)
            };
            let mut rng = StdRng::seed_from_u64(6);
            let mut agent = small_agent(&make_env(0), &mut rng);
            for workers in [1, 2] {
                let config = TrainerConfig::new(6).with_workers(workers);
                let log = train_parallel(make_env, &mut agent, config, &mut rng);
                let walked: Vec<usize> = log.records.iter().map(|r| r.query_idx).collect();
                assert_eq!(walked, [0, 1, 2, 0, 1, 2], "{stages:?} × {workers}");
                for r in &log.records {
                    assert!(
                        r.agent_cost > 0.0 && r.expert_cost > 0.0,
                        "{stages:?}: {r:?}"
                    );
                }
            }
        }
    }
}
