//! The learned planner: a frozen ReJOIN policy behind the
//! [`Planner`] trait.
//!
//! This is the paper's end state made concrete — the trained policy
//! *replaces* the traditional enumerator in the serving path. A
//! [`LearnedPlanner`] wraps a frozen [`PolicySnapshot`] (plain owned
//! weights, no optimizer state, `Send + Sync`) plus the featurizer it
//! was trained with, and plans by replaying one greedy-argmax episode
//! over a [`RolloutState`], merging each chosen pair into a [`PlanForest`]
//! with the cheapest algorithm for the sides the policy chose: ReJOIN's
//! hand-off of a join order to the traditional optimizer (§3), one merge
//! at a time — exactly what a greedy evaluation episode in
//! [`crate::PlanEnv`] does, which a parity test pins down.

use crate::featurize::{Featurizer, RolloutState};
use crate::rl::{PolicySnapshot, Selector};
use hfqo_opt::physical::best_aggregate_if_needed;
use hfqo_opt::{OptError, PlanForest, PlannedQuery, Planner, PlannerContext, PlannerMethod};
use hfqo_query::{PhysicalPlan, QueryGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A frozen learned policy serving as a query planner.
#[derive(Debug, Clone)]
pub struct LearnedPlanner {
    snapshot: PolicySnapshot,
    featurizer: Featurizer,
    /// Restrict actions to join-connected pairs, as the training
    /// environments do by default in the experiment harness. Must match
    /// the setting the policy was trained under, or inference walks a
    /// differently-masked action space than the one it learned.
    require_connected: bool,
}

// The serving layer shares one learned planner across worker threads;
// the snapshot is plain owned weights and the featurizer is `Copy`, so
// this holds structurally — the assertion breaks the build if training
// state ever leaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<LearnedPlanner>();
};

impl LearnedPlanner {
    /// Wraps a frozen policy. `featurizer` must be the one the policy
    /// was trained with (same `max_rels`, hence same state/action
    /// dimensions) — asserted here, at the root cause, rather than as
    /// a shape panic deep in the matmul kernel at inference time.
    /// Connected-pair masking defaults to `true`, matching the
    /// experiment harness's training environments.
    pub fn new(snapshot: PolicySnapshot, featurizer: Featurizer) -> Self {
        assert_eq!(
            featurizer.state_dim(),
            snapshot.policy().input_size(),
            "featurizer state width must match the policy's input size \
             (was the policy trained at a different max_rels?)"
        );
        assert_eq!(
            featurizer.action_dim(),
            snapshot.policy().output_size(),
            "featurizer action width must match the policy's output size \
             (was the policy trained at a different max_rels?)"
        );
        Self {
            snapshot,
            featurizer,
            require_connected: true,
        }
    }

    /// Freezes the current policy of a live agent into a planner.
    pub fn freeze(agent: &crate::rl::ReinforceAgent, featurizer: Featurizer) -> Self {
        Self::new(agent.snapshot(), featurizer)
    }

    /// Overrides connected-pair masking (builder style).
    pub fn with_require_connected(mut self, require_connected: bool) -> Self {
        self.require_connected = require_connected;
        self
    }

    /// The featurizer the planner infers with.
    pub fn featurizer(&self) -> Featurizer {
        self.featurizer
    }

    /// The frozen policy weights the planner infers with.
    pub fn snapshot(&self) -> &PolicySnapshot {
        &self.snapshot
    }

    /// Whether actions are restricted to join-connected pairs.
    pub fn require_connected(&self) -> bool {
        self.require_connected
    }

    /// A planner with the same featurizer and masking but `snapshot`'s
    /// weights — how the online trainer publishes a retrained policy
    /// generation without re-deriving planner configuration.
    pub fn with_snapshot(&self, snapshot: PolicySnapshot) -> Self {
        Self::new(snapshot, self.featurizer).with_require_connected(self.require_connected)
    }
}

impl LearnedPlanner {
    /// Applies the pair the policy chose at `step` to `state`, and returns
    /// it. The selection only ever returns a masked-in action, and every
    /// masked-in pair is a valid merge, so a refusal is a bug upstream —
    /// reported as an error rather than left to spin the rollout on an
    /// unchanged state.
    fn merge_chosen(
        &self,
        state: &mut RolloutState,
        step: usize,
        action: usize,
    ) -> Result<(usize, usize), OptError> {
        let (x, y) = self.featurizer.decode_pair(action);
        if state.merge(x, y) {
            Ok((x, y))
        } else {
            Err(OptError::Unsupported(format!(
                "merge step {step}: the policy chose action {action}, and ({x}, {y}) is not \
                 a pair of distinct live subtrees"
            )))
        }
    }
}

impl Planner for LearnedPlanner {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        let n = graph.relation_count();
        if n == 0 {
            return Err(OptError::EmptyQuery);
        }
        if n > self.featurizer.max_rels() {
            return Err(OptError::Unsupported(format!(
                "policy trained for up to {} relations, query has {n}",
                self.featurizer.max_rels()
            )));
        }
        let start = Instant::now();
        let model = ctx.cost_model();
        let mut state = RolloutState::new(self.featurizer, graph, &ctx.estimator());
        let mut forest = PlanForest::best_access_paths(graph, ctx.catalog, &model, state.cards());
        let mut mask = Vec::with_capacity(self.featurizer.action_dim());
        let mut selector = Selector::default();
        // Greedy selection never consults the RNG; the seed only
        // satisfies the shared `select` signature.
        let mut rng = StdRng::seed_from_u64(0);
        while !forest.is_terminal() {
            state.mask(self.require_connected, &mut mask);
            let (action, _prob) = selector.select(
                self.snapshot.policy(),
                state.features(),
                &mask,
                &mut rng,
                true,
            );
            let (x, y) = self.merge_chosen(&mut state, n - forest.len(), action)?;
            let price = forest.price(x, y, false, &model, state.cards());
            forest.merge(x, y, price);
        }
        let (root, cost) = best_aggregate_if_needed(graph, forest.take_root(), &model);
        Ok(PlannedQuery {
            plan: PhysicalPlan::new(root),
            cost: cost.total,
            planning_time: start.elapsed(),
            method: PlannerMethod::Learned,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvContext, PlanEnv};
    use crate::reward::RewardMode;
    use crate::rl::{Environment as _, ReinforceAgent, ReinforceConfig};
    use crate::{QueryOrder, StageSet};
    use hfqo_opt::test_support::{chain_query, TestDb};

    fn fixture() -> (TestDb, Vec<QueryGraph>) {
        let db = TestDb::chain(5, 300);
        let queries = vec![chain_query(&db, 5), chain_query(&db, 3)];
        (db, queries)
    }

    fn agent_for(env: &PlanEnv<'_>, rng: &mut StdRng) -> ReinforceAgent {
        ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig::default(),
            rng,
        )
    }

    /// The planner must reproduce a greedy evaluation episode exactly:
    /// same featurizer, same mask, same argmax, same fixed-sides
    /// completion — so serving a frozen agent gives precisely the plans
    /// the training-side evaluation reported.
    #[test]
    fn matches_env_greedy_episode_plan() {
        let (db, queries) = fixture();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Fixed(0),
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        env.require_connected = true;
        let mut rng = StdRng::seed_from_u64(3);
        let agent = agent_for(&env, &mut rng);
        let planner = LearnedPlanner::freeze(&agent, env.featurizer());
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        for (idx, graph) in queries.iter().enumerate() {
            env.set_order(QueryOrder::Fixed(idx));
            let _ = agent.run_episode(&mut env, &mut rng, true);
            let outcome = env.last_outcome().expect("episode finished").clone();
            let planned = planner.plan(&plan_ctx, graph).unwrap();
            assert_eq!(planned.plan, outcome.plan, "query {idx}");
            assert!((planned.cost - outcome.agent_cost).abs() < 1e-9);
        }
    }

    /// `PlannerMethod` attribution: learned plans are tagged `Learned`.
    #[test]
    fn attributes_learned_method() {
        let (db, queries) = fixture();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Fixed(0),
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(0);
        let agent = agent_for(&env, &mut rng);
        let planner = LearnedPlanner::freeze(&agent, env.featurizer());
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = planner.plan(&plan_ctx, &queries[0]).unwrap();
        assert_eq!(planned.method, PlannerMethod::Learned);
        planned.plan.validate(&queries[0]).unwrap();
        assert!(planned.cost > 0.0);
        assert!(planned.planning_time.as_nanos() > 0);
    }

    #[test]
    fn inference_is_deterministic() {
        let (db, queries) = fixture();
        let ctx = EnvContext::new(&db.db, &db.stats);
        let env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Fixed(0),
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let agent = agent_for(&env, &mut rng);
        let planner = LearnedPlanner::freeze(&agent, env.featurizer());
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let a = planner.plan(&plan_ctx, &queries[0]).unwrap();
        let b = planner.plan(&plan_ctx, &queries[0]).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn oversized_queries_are_unsupported() {
        let (db, queries) = fixture();
        let mut rng = StdRng::seed_from_u64(2);
        // A policy genuinely trained at 3-relation width: planning the
        // 5-relation query must fail cleanly, not mis-featurize.
        let narrow_f = Featurizer::new(3);
        let narrow_agent = ReinforceAgent::new(
            narrow_f.state_dim(),
            narrow_f.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let narrow = LearnedPlanner::freeze(&narrow_agent, narrow_f);
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        assert!(matches!(
            narrow.plan(&plan_ctx, &queries[0]),
            Err(OptError::Unsupported(_))
        ));
        // But it still plans queries within its width.
        let planned = narrow.plan(&plan_ctx, &queries[1]).unwrap();
        planned.plan.validate(&queries[1]).unwrap();
        let empty = QueryGraph::new(vec![], vec![], vec![], vec![], vec![]);
        assert_eq!(narrow.plan(&plan_ctx, &empty), Err(OptError::EmptyQuery));
    }

    /// A refused merge must end the plan with an error naming the step,
    /// not leave the rollout looping on an unchanged state (the greedy
    /// argmax over masked-in actions cannot choose such a pair; the step
    /// that takes the chosen pair is where one would surface).
    #[test]
    fn refused_merge_is_an_error_not_a_spin() {
        let (db, queries) = fixture();
        let mut rng = StdRng::seed_from_u64(6);
        let featurizer = Featurizer::new(6);
        let agent = ReinforceAgent::new(
            featurizer.state_dim(),
            featurizer.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let planner = LearnedPlanner::freeze(&agent, featurizer);
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let mut state = RolloutState::new(featurizer, &queries[0], &plan_ctx.estimator());
        let before = state.features().to_vec();
        // The diagonal, and a slot beyond the five live ones.
        for (x, y) in [(2, 2), (1, 5)] {
            let refused = planner.merge_chosen(&mut state, 3, featurizer.encode_pair(x, y));
            match refused {
                Err(OptError::Unsupported(why)) => assert!(why.contains("step 3"), "{why}"),
                other => panic!("({x}, {y}) should be refused, got {other:?}"),
            }
            assert_eq!(state.features(), before, "a refusal leaves the state alone");
        }
        assert_eq!(
            planner.merge_chosen(&mut state, 0, featurizer.encode_pair(0, 1)),
            Ok((0, 1))
        );
        assert_ne!(state.features(), before);
    }

    /// A featurizer whose dimensions do not match the frozen policy is
    /// a construction bug; it must fail at the root cause, not as a
    /// shape panic inside the matmul kernel at inference time.
    #[test]
    #[should_panic(expected = "featurizer state width")]
    fn mismatched_featurizer_width_panics_at_construction() {
        let mut rng = StdRng::seed_from_u64(5);
        let trained_at = Featurizer::new(6);
        let agent = ReinforceAgent::new(
            trained_at.state_dim(),
            trained_at.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let _ = LearnedPlanner::freeze(&agent, Featurizer::new(3));
    }

    /// Single-relation queries need no merges: the planner must still
    /// produce a valid (scan + optional aggregate) plan.
    #[test]
    fn single_relation_queries_plan_without_actions() {
        let db = TestDb::chain(1, 100);
        let graph = chain_query(&db, 1);
        let mut rng = StdRng::seed_from_u64(4);
        let agent = ReinforceAgent::new(
            Featurizer::new(2).state_dim(),
            Featurizer::new(2).action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let planner = LearnedPlanner::new(agent.snapshot(), Featurizer::new(2));
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let planned = planner.plan(&plan_ctx, &graph).unwrap();
        planned.plan.validate(&graph).unwrap();
    }
}
