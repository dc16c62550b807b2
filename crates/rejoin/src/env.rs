//! The plan-building environment (§3, §4 / §5.3).
//!
//! *Episode = query.* The state is a forest of join subtrees; each pair
//! action merges an ordered pair of subtrees, and after `n − 1` merges
//! the forest is one tree. Around that core sit the remaining decisions
//! of the simplified pipeline in the paper's Figure 8 — index
//! (access-path) selection, join operator selection, and aggregate
//! operator selection — each gated by a [`StageSet`] flag. Disabled
//! stages are decided by the traditional machinery
//! ([`hfqo_opt::physical`]), exactly as in the pipeline-based incremental
//! learning proposal (§5.3.1): ReJOIN is "essentially this first phase",
//! so the join-ordering environment is the
//! [`StageSet::join_order_only`] case of this one. The terminal reward
//! is computed from the finished plan (cost model or latency, per
//! [`RewardMode`]); all intermediate rewards are zero — the
//! sparse-reward structure §4 discusses.
//!
//! The action space stays one fixed-width head of `max_rels²` outputs;
//! non-pair phases reuse the low action ids under a phase-specific mask.
//! An environment built with any stage beyond join ordering appends a
//! phase one-hot plus the relation under decision to the state so the
//! network can tell the overloaded ids apart; one built with
//! [`StageSet::join_order_only`] emits exactly the [`RolloutState`]'s
//! vector, and steps the same state [`crate::LearnedPlanner`] and
//! [`crate::episode_from_decisions`] step at serving time. The plan is
//! built in an [`hfqo_opt::PlanForest`], the costed forest every planner
//! steps, merged with the same pairs as the state.

use crate::featurize::{Featurizer, RolloutState};
use crate::incremental::StageSet;
use crate::reward::RewardMode;
use hfqo_catalog::Catalog;
use hfqo_cost::{CostModel, LatencyModel};
use hfqo_exec::TrueCardinality;
use hfqo_opt::physical::{
    access_paths, best_aggregate_if_needed, build_aggregate, build_scan, legal_join_algos,
    needs_aggregate, Costed,
};
use hfqo_opt::{PlanForest, Planner, PlannerContext, TraditionalPlanner};
use hfqo_query::{AggAlgo, JoinAlgo, PhysicalPlan, QueryGraph, RelId};
use hfqo_rl::{Environment, StepResult};
use hfqo_stats::{EstimatedCardinality, StatsCatalog};
use hfqo_storage::Database;
use rand::rngs::StdRng;
use rand::Rng;

/// Where an episode's latency observation comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencySource {
    /// Analytic simulation over true cardinalities (fast; the default).
    Simulated,
    /// Real execution through the vectorized batch executor: the plan
    /// runs under the given work budget and the *observed* work units
    /// convert to milliseconds via the latency model's `ms_per_unit`.
    /// Budget-capped plans report the budget itself, so catastrophic
    /// plans stay cheap to observe and look exactly as bad as the
    /// paper's footnote 2 wants them to.
    Executed(hfqo_exec::ExecConfig),
}

/// Shared, read-only context the environment costs and simulates
/// against.
///
/// Holds only shared references into the world plus the latency model,
/// so it is `Clone`: parallel training builds one context per worker over
/// the same `Database`/`StatsCatalog`. Costs — the `M(t)` the reward
/// uses, and the expert's — come from [`Self::planner_context`], the
/// context every planner plans against.
#[derive(Clone)]
pub struct EnvContext<'a> {
    /// The database (data + catalog).
    pub db: &'a Database,
    /// Table statistics.
    pub stats: &'a StatsCatalog,
    /// Latency simulation model (for latency-based rewards and logging).
    pub latency_model: LatencyModel,
    /// How latency-based rewards observe latency.
    pub latency_source: LatencySource,
}

impl<'a> EnvContext<'a> {
    /// A context with the default latency model.
    pub fn new(db: &'a Database, stats: &'a StatsCatalog) -> Self {
        Self {
            db,
            stats,
            latency_model: LatencyModel::default(),
            latency_source: LatencySource::Simulated,
        }
    }

    /// Switches latency observation to real execution under `config`
    /// (builder style).
    pub fn with_executed_latency(mut self, config: hfqo_exec::ExecConfig) -> Self {
        self.latency_source = LatencySource::Executed(config);
        self
    }

    /// The catalog.
    pub fn catalog(&self) -> &'a Catalog {
        self.db.catalog()
    }

    /// The world a planner plans against: this context's catalog and
    /// statistics.
    pub fn planner_context(&self) -> PlannerContext<'a> {
        PlannerContext::new(self.catalog(), self.stats)
    }

    /// The planners' cost model, over this context.
    pub fn cost_model(&self) -> CostModel<'a> {
        self.planner_context().cost_model()
    }

    /// The estimated-cardinality source.
    pub fn estimator(&self) -> EstimatedCardinality<'a> {
        EstimatedCardinality::new(self.stats)
    }
}

/// How the environment walks its workload across episodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOrder {
    /// Round-robin in workload order.
    Cycle,
    /// Uniformly random query per episode.
    Shuffle,
    /// Always the same query (used for evaluation).
    Fixed(usize),
}

/// Everything known about a finished episode.
#[derive(Debug, Clone)]
pub struct EpisodeOutcome {
    /// Index of the query in the workload.
    pub query_idx: usize,
    /// The query's label, when set.
    pub label: Option<String>,
    /// The agent's finished physical plan.
    pub plan: PhysicalPlan,
    /// `M(t)` of the agent's plan (estimated cardinalities).
    pub agent_cost: f64,
    /// The expert's cost for the same query.
    pub expert_cost: f64,
    /// Observed latency of the agent's plan, when the reward needed it
    /// (simulated or executed, per the context's [`LatencySource`]).
    pub latency_ms: Option<f64>,
    /// Work units actually executed, when the latency observation ran
    /// the plan through the batch engine.
    pub executed_work: Option<u64>,
    /// The terminal reward granted.
    pub reward: f32,
}

/// Executes `plan` with the batch engine — through the
/// zero-materialisation stats path, since only the work total is
/// observed — and converts the work units to milliseconds.
/// Budget-capped executions report the budget as their work floor
/// (mirroring the true-cardinality oracle), so catastrophic plans
/// remain cheap to observe yet maximally penalised. Any *other*
/// execution failure is an environment misconfiguration (e.g. indexes
/// never built); silently pricing it would corrupt every reward, so it
/// panics with the underlying error instead.
fn executed_latency(
    db: &Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: hfqo_exec::ExecConfig,
    ms_per_unit: f64,
) -> (f64, u64) {
    let work = match hfqo_exec::execute_for_stats(db, graph, plan, config) {
        Ok((_rows, work)) => work,
        Err(hfqo_exec::ExecError::BudgetExceeded { budget, .. }) => budget,
        Err(e) => panic!("executed-latency observation failed (not a budget abort): {e}"),
    };
    ((work as f64 * ms_per_unit).max(0.001), work)
}

/// Episode phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Choosing the access path of one relation.
    AccessPath {
        /// The relation currently under decision.
        rel: usize,
    },
    /// Choosing the next subtree pair to join.
    PairSelection,
    /// Choosing the join algorithm for the pair just merged.
    JoinOperator,
    /// Choosing the aggregate operator.
    Aggregate,
    /// Episode finished.
    Done,
}

impl Phase {
    fn one_hot_index(self) -> usize {
        match self {
            Phase::AccessPath { .. } => 0,
            Phase::PairSelection => 1,
            Phase::JoinOperator => 2,
            Phase::Aggregate => 3,
            Phase::Done => 1, // terminal states are never featurised
        }
    }
}

/// A step that does not end the episode: rewards are sparse, zero until
/// the terminal step.
const ONGOING: StepResult = StepResult {
    reward: 0.0,
    done: false,
};

/// The environment: one query per episode, one physical plan per
/// finished episode.
pub struct PlanEnv<'a> {
    ctx: EnvContext<'a>,
    queries: &'a [QueryGraph],
    featurizer: Featurizer,
    order: QueryOrder,
    reward_mode: RewardMode,
    stages: StageSet,
    /// Whether states carry the phase and relation markers: fixed at
    /// construction, so the state width survives [`Self::set_stages`].
    markers: bool,
    /// Disallow cross-join pair actions via masking (ReJOIN allowed them;
    /// default `false`).
    pub require_connected: bool,
    cursor: usize,
    current: usize,
    /// The forest's features, stepped by pair actions.
    state: RolloutState,
    /// The forest's costed sub-plans, merged with `state`'s pairs (a
    /// pair merges here once its join operator is chosen).
    forest: PlanForest<'a>,
    phase: Phase,
    /// The slots of a pair awaiting its join operator.
    pending_pair: Option<(usize, usize)>,
    expert_costs: Vec<Option<f64>>,
    oracles: Vec<Option<TrueCardinality<'a>>>,
    last_outcome: Option<EpisodeOutcome>,
}

impl<'a> PlanEnv<'a> {
    /// Creates an environment over a workload in which the agent decides
    /// `stages` (join ordering always included).
    ///
    /// `max_rels` must be at least the largest relation count in
    /// `queries`. `stages` also fixes the state layout: anything wider
    /// than [`StageSet::join_order_only`] appends the phase and relation
    /// markers (see [`Environment::state_dim`]).
    pub fn new(
        ctx: EnvContext<'a>,
        queries: &'a [QueryGraph],
        max_rels: usize,
        order: QueryOrder,
        reward_mode: RewardMode,
        stages: StageSet,
    ) -> Self {
        assert!(!queries.is_empty(), "workload must not be empty");
        let max_in_workload = queries
            .iter()
            .map(QueryGraph::relation_count)
            .max()
            .unwrap_or(0);
        assert!(
            max_rels >= max_in_workload,
            "max_rels {max_rels} below workload maximum {max_in_workload}"
        );
        let n = queries.len();
        let featurizer = Featurizer::new(max_rels);
        let state = RolloutState::new(featurizer, &queries[0], &ctx.estimator());
        Self {
            ctx,
            queries,
            featurizer,
            order,
            reward_mode,
            stages,
            markers: stages != StageSet::join_order_only(),
            require_connected: false,
            cursor: 0,
            current: 0,
            state,
            forest: PlanForest::from_leaves(&queries[0], []),
            phase: Phase::Done,
            pending_pair: None,
            expert_costs: vec![None; n],
            oracles: std::iter::repeat_with(|| None).take(n).collect(),
            last_outcome: None,
        }
    }

    /// The featurizer (shared with agents for shape information).
    pub fn featurizer(&self) -> Featurizer {
        self.featurizer
    }

    /// The workload.
    pub fn queries(&self) -> &'a [QueryGraph] {
        self.queries
    }

    /// The context.
    pub fn context(&self) -> &EnvContext<'a> {
        &self.ctx
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The stage configuration.
    pub fn stages(&self) -> StageSet {
        self.stages
    }

    /// Replaces the stage configuration (used by pipeline curricula; the
    /// change applies from the next reset). The state layout never
    /// changes, so a curriculum builds its environments with the widest
    /// stage set it will reach and narrows from there.
    pub fn set_stages(&mut self, stages: StageSet) {
        assert!(
            self.markers || stages == StageSet::join_order_only(),
            "an environment built with StageSet::join_order_only() carries no phase \
             markers and cannot be widened; construct it with the widest stage set"
        );
        self.stages = stages;
    }

    /// Changes the query ordering policy.
    pub fn set_order(&mut self, order: QueryOrder) {
        self.order = order;
    }

    /// The current query ordering policy.
    pub fn order(&self) -> QueryOrder {
        self.order
    }

    /// Swaps the reward mode (used by the bootstrap trainer's phase
    /// switch).
    pub fn set_reward_mode(&mut self, mode: RewardMode) {
        self.reward_mode = mode;
    }

    /// The current reward mode.
    pub fn reward_mode(&self) -> &RewardMode {
        &self.reward_mode
    }

    /// The outcome of the most recently finished episode.
    pub fn last_outcome(&self) -> Option<&EpisodeOutcome> {
        self.last_outcome.as_ref()
    }

    /// The expert's plan cost for query `idx` (computed once, cached):
    /// the cost [`TraditionalPlanner::new`], the planner a serving session
    /// defaults to, reports for it.
    pub fn expert_cost(&mut self, idx: usize) -> f64 {
        if let Some(c) = self.expert_costs[idx] {
            return c;
        }
        let cost = TraditionalPlanner::new()
            .plan(&self.ctx.planner_context(), &self.queries[idx])
            .map(|p| p.cost)
            .unwrap_or(f64::INFINITY);
        self.expert_costs[idx] = Some(cost);
        cost
    }

    /// Simulated latency of `plan` for query `idx` via the
    /// true-cardinality oracle.
    pub fn simulate_latency(&mut self, idx: usize, plan: &PhysicalPlan, rng: &mut StdRng) -> f64 {
        if self.oracles[idx].is_none() {
            self.oracles[idx] = Some(TrueCardinality::new(self.ctx.db));
        }
        let oracle = self.oracles[idx].as_ref().expect("just initialised");
        self.ctx
            .latency_model
            .simulate(&self.queries[idx], plan, self.ctx.stats, oracle, rng)
            .millis
    }

    /// Observes the latency of `plan` for query `idx` through the
    /// context's [`LatencySource`]: analytic simulation, or real
    /// execution via the batch engine. Returns the latency in
    /// milliseconds and, for executed observations, the work units
    /// performed.
    pub fn observe_latency(
        &mut self,
        idx: usize,
        plan: &PhysicalPlan,
        rng: &mut StdRng,
    ) -> (f64, Option<u64>) {
        match self.ctx.latency_source {
            LatencySource::Simulated => (self.simulate_latency(idx, plan, rng), None),
            LatencySource::Executed(config) => {
                let (ms, work) = executed_latency(
                    self.ctx.db,
                    &self.queries[idx],
                    plan,
                    config,
                    self.ctx.latency_model.ms_per_unit,
                );
                (ms, Some(work))
            }
        }
    }

    fn graph(&self) -> &'a QueryGraph {
        &self.queries[self.current]
    }

    /// Moves on once every scan is placed or a join is complete: to the
    /// next pair while the forest has several trees, then to the
    /// aggregate phase or the end of the episode. A single-relation
    /// query has nothing to order and passes straight through.
    fn advance(&mut self, rng: &mut StdRng) -> StepResult {
        if !self.forest.is_terminal() {
            self.phase = Phase::PairSelection;
            return ONGOING;
        }
        let graph = self.graph();
        if needs_aggregate(graph) && self.stages.agg_operators {
            self.phase = Phase::Aggregate;
            ONGOING
        } else {
            let root = self.forest.take_root();
            let root = best_aggregate_if_needed(graph, root, &self.ctx.cost_model());
            self.finish(root, rng)
        }
    }

    fn finish(&mut self, (root, cost): Costed, rng: &mut StdRng) -> StepResult {
        let plan = PhysicalPlan::new(root);
        let agent_cost = cost.total;
        let expert_cost = self.expert_cost(self.current);
        let (latency_ms, executed_work) = if self.reward_mode.needs_latency() {
            let (ms, work) = self.observe_latency(self.current, &plan, rng);
            (Some(ms), work)
        } else {
            (None, None)
        };
        let reward = self
            .reward_mode
            .terminal_reward(agent_cost, expert_cost, latency_ms);
        self.last_outcome = Some(EpisodeOutcome {
            query_idx: self.current,
            label: self.graph().label.clone(),
            plan,
            agent_cost,
            expert_cost,
            latency_ms,
            executed_work,
            reward,
        });
        self.phase = Phase::Done;
        StepResult { reward, done: true }
    }
}

impl Environment for PlanEnv<'_> {
    /// [`Featurizer::state_dim`] for an environment built with
    /// [`StageSet::join_order_only`]; otherwise that plus the phase
    /// one-hot (4) and the relation-under-decision one-hot (`max_rels`).
    fn state_dim(&self) -> usize {
        let markers = if self.markers {
            4 + self.featurizer.max_rels()
        } else {
            0
        };
        self.featurizer.state_dim() + markers
    }

    fn action_dim(&self) -> usize {
        self.featurizer.action_dim()
    }

    fn reset(&mut self, rng: &mut StdRng) {
        self.current = match self.order {
            QueryOrder::Cycle => {
                let q = self.cursor % self.queries.len();
                self.cursor += 1;
                q
            }
            QueryOrder::Shuffle => rng.gen_range(0..self.queries.len()),
            QueryOrder::Fixed(idx) => idx.min(self.queries.len() - 1),
        };
        let graph = self.graph();
        self.state = RolloutState::new(self.featurizer, graph, &self.ctx.estimator());
        self.pending_pair = None;
        self.last_outcome = None;
        if self.stages.index_selection {
            self.forest = PlanForest::from_leaves(graph, []);
            self.phase = Phase::AccessPath { rel: 0 };
        } else {
            // The traditional machinery picks access paths.
            let model = self.ctx.cost_model();
            let cards = self.state.cards();
            self.forest = PlanForest::best_access_paths(graph, self.ctx.catalog(), &model, cards);
            self.advance(rng);
        }
    }

    fn state_features(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend_from_slice(self.state.features());
        if !self.markers {
            return;
        }
        let mut phase_hot = [0.0f32; 4];
        phase_hot[self.phase.one_hot_index()] = 1.0;
        out.extend_from_slice(&phase_hot);
        let mut rel_hot = vec![0.0f32; self.featurizer.max_rels()];
        if let Phase::AccessPath { rel } = self.phase {
            if rel < rel_hot.len() {
                rel_hot[rel] = 1.0;
            }
        }
        out.extend_from_slice(&rel_hot);
    }

    fn action_mask(&self, out: &mut Vec<bool>) {
        if self.phase == Phase::PairSelection {
            self.state.mask(self.require_connected, out);
            return;
        }
        // Non-pair phases reuse the low action ids.
        out.clear();
        out.resize(self.featurizer.action_dim(), false);
        match self.phase {
            Phase::AccessPath { rel } => {
                let paths = access_paths(self.graph(), RelId(rel as u32), self.ctx.catalog());
                let legal = paths.count().min(out.len());
                out[..legal].fill(true);
            }
            Phase::JoinOperator => {
                let (x, y) = self.pending_pair.expect("pair pending");
                let (left, right) = (self.forest.set(x), self.forest.set(y));
                out[..3].copy_from_slice(&legal_join_algos(self.graph(), left, right));
            }
            Phase::Aggregate => out[..2].fill(true),
            Phase::PairSelection | Phase::Done => {}
        }
    }

    fn step(&mut self, action: usize, rng: &mut StdRng) -> StepResult {
        match self.phase {
            Phase::AccessPath { rel } => {
                let (graph, rel_id) = (self.graph(), RelId(rel as u32));
                let paths = access_paths(graph, rel_id, self.ctx.catalog());
                // The chosen candidate, or the last when `action` is past it.
                let path = paths.take(action + 1).last().expect("a seq scan leads");
                let model = self.ctx.cost_model();
                let scan = build_scan(graph, rel_id, path, &model, self.state.cards());
                self.forest.push(scan);
                if rel + 1 < self.graph().relation_count() {
                    self.phase = Phase::AccessPath { rel: rel + 1 };
                    ONGOING
                } else {
                    self.advance(rng)
                }
            }
            Phase::PairSelection => {
                let (x, y) = self.featurizer.decode_pair(action);
                let merged = self.state.merge(x, y);
                assert!(merged, "masked actions must be valid merges");
                if self.stages.join_operators {
                    self.pending_pair = Some((x, y));
                    self.phase = Phase::JoinOperator;
                    ONGOING
                } else {
                    let model = self.ctx.cost_model();
                    let price = self.forest.price(x, y, false, &model, self.state.cards());
                    self.forest.merge(x, y, price);
                    self.advance(rng)
                }
            }
            Phase::JoinOperator => {
                let (x, y) = self.pending_pair.take().expect("pair pending");
                let algo = JoinAlgo::ALL[action.min(2)];
                let model = self.ctx.cost_model();
                let price = self.forest.price_as(x, y, algo, &model, self.state.cards());
                self.forest.merge(x, y, price);
                self.advance(rng)
            }
            Phase::Aggregate => {
                let algo = AggAlgo::ALL[action.min(1)];
                let input = self.forest.take_root();
                let root = build_aggregate(self.graph(), algo, input, &self.ctx.cost_model());
                self.finish(root, rng)
            }
            Phase::Done => StepResult {
                reward: 0.0,
                done: true,
            },
        }
    }

    fn is_terminal(&self) -> bool {
        self.phase == Phase::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_catalog::ColumnId;
    use hfqo_opt::physical::best_access_path;
    use hfqo_opt::test_support::{chain_query, star_query, with_count, TestDb};
    use hfqo_query::{BoundColumn, JoinEdge, JoinTree, PlanNode};
    use hfqo_sql::CompareOp;
    use rand::SeedableRng;

    /// The join-ordering environment — ReJOIN's scope — over a fixture.
    fn join_env<'a>(
        db: &'a TestDb,
        queries: &'a [QueryGraph],
        max_rels: usize,
        order: QueryOrder,
        mode: RewardMode,
    ) -> PlanEnv<'a> {
        let ctx = EnvContext::new(&db.db, &db.stats);
        PlanEnv::new(
            ctx,
            queries,
            max_rels,
            order,
            mode,
            StageSet::join_order_only(),
        )
    }

    fn env_fixtures() -> (TestDb, Vec<QueryGraph>) {
        let db = TestDb::chain(4, 300);
        let queries = vec![chain_query(&db, 4).with_label("q0")];
        (db, queries)
    }

    fn fixtures(with_agg: bool) -> (TestDb, Vec<QueryGraph>) {
        let db = TestDb::chain(3, 200);
        let mut q = chain_query(&db, 3);
        if with_agg {
            q = with_count(q);
        }
        (db, vec![q])
    }

    fn run_random_episode(env: &mut PlanEnv<'_>, rng: &mut StdRng) -> usize {
        env.reset(rng);
        let mut mask = Vec::new();
        let mut steps = 0;
        while !env.is_terminal() {
            env.action_mask(&mut mask);
            let valid: Vec<usize> = mask
                .iter()
                .enumerate()
                .filter(|(_, &m)| m)
                .map(|(i, _)| i)
                .collect();
            assert!(
                !valid.is_empty(),
                "no valid action in phase {:?}",
                env.phase()
            );
            let action = valid[rng.gen_range(0..valid.len())];
            env.step(action, rng);
            steps += 1;
        }
        steps
    }

    #[test]
    fn episode_runs_n_minus_one_steps() {
        let (db, queries) = env_fixtures();
        let mut env = join_env(
            &db,
            &queries,
            6,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
        );
        let mut rng = StdRng::seed_from_u64(0);
        env.reset(&mut rng);
        let mut steps = 0;
        let mut mask = Vec::new();
        while !env.is_terminal() {
            env.action_mask(&mut mask);
            let action = mask.iter().position(|&m| m).expect("valid action");
            let result = env.step(action, &mut rng);
            steps += 1;
            if result.done {
                assert!(result.reward > 0.0);
            } else {
                assert_eq!(result.reward, 0.0, "non-terminal rewards are zero");
            }
        }
        assert_eq!(steps, 3);
        let outcome = env.last_outcome().expect("episode finished");
        assert_eq!(outcome.query_idx, 0);
        assert_eq!(outcome.label.as_deref(), Some("q0"));
        outcome.plan.validate(&queries[0]).unwrap();
        assert!(outcome.agent_cost > 0.0);
        assert!(outcome.expert_cost > 0.0);
        assert!(outcome.latency_ms.is_none());
    }

    #[test]
    fn executed_latency_observes_real_work() {
        let (db, queries) = env_fixtures();
        let ctx = EnvContext::new(&db.db, &db.stats)
            .with_executed_latency(hfqo_exec::ExecConfig::default());
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(4);
        env.reset(&mut rng);
        let mut mask = Vec::new();
        while !env.is_terminal() {
            env.action_mask(&mut mask);
            let action = mask.iter().position(|&m| m).expect("valid action");
            env.step(action, &mut rng);
        }
        let outcome = env.last_outcome().expect("episode finished");
        let work = outcome.executed_work.expect("executed observation");
        assert!(work > 0);
        let ms = outcome.latency_ms.expect("latency observed");
        // Latency is exactly the executed work scaled to milliseconds.
        let expected = (work as f64 * LatencyModel::default().ms_per_unit).max(0.001);
        assert!((ms - expected).abs() < 1e-9, "{ms} vs {expected}");
        // Executed observations are deterministic: the same plan costs
        // the same work under the batch engine.
        let plan = outcome.plan.clone();
        let (ms2, work2) = env.observe_latency(0, &plan, &mut rng);
        assert_eq!(work2, Some(work));
        assert_eq!(ms2, ms);
    }

    #[test]
    fn budget_capped_executed_latency_floors_at_budget() {
        let (db, queries) = env_fixtures();
        // A 100-unit budget is far below any real 4-relation join.
        let ctx = EnvContext::new(&db.db, &db.stats)
            .with_executed_latency(hfqo_exec::ExecConfig::with_budget(100));
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
            StageSet::join_order_only(),
        );
        let mut rng = StdRng::seed_from_u64(5);
        env.reset(&mut rng);
        let mut mask = Vec::new();
        while !env.is_terminal() {
            env.action_mask(&mut mask);
            let action = mask.iter().position(|&m| m).expect("valid action");
            env.step(action, &mut rng);
        }
        let outcome = env.last_outcome().expect("episode finished");
        assert_eq!(outcome.executed_work, Some(100), "budget is the floor");
    }

    #[test]
    fn figure2_episode_replay() {
        // Actions (0,2), (0,1), (0,1) — the paper's Figure 2 — must
        // produce ((A ⋈ C) ⋈ (B ⋈ D)).
        let (db, queries) = env_fixtures();
        let mut env = join_env(
            &db,
            &queries,
            6,
            QueryOrder::Fixed(0),
            RewardMode::InverseCost,
        );
        let mut rng = StdRng::seed_from_u64(0);
        env.reset(&mut rng);
        let f = env.featurizer();
        env.step(f.encode_pair(0, 2), &mut rng);
        env.step(f.encode_pair(0, 1), &mut rng);
        let last = env.step(f.encode_pair(0, 1), &mut rng);
        assert!(last.done);
        let outcome = env.last_outcome().expect("finished");
        assert_eq!(
            outcome.plan.root.join_tree().compact(),
            "((0 ⋈ 2) ⋈ (1 ⋈ 3))"
        );
    }

    #[test]
    fn latency_reward_populates_latency() {
        let (db, queries) = env_fixtures();
        let mut env = join_env(
            &db,
            &queries,
            6,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
        );
        let mut rng = StdRng::seed_from_u64(1);
        env.reset(&mut rng);
        let mut mask = Vec::new();
        while !env.is_terminal() {
            env.action_mask(&mut mask);
            let action = mask.iter().position(|&m| m).expect("valid action");
            env.step(action, &mut rng);
        }
        let outcome = env.last_outcome().expect("finished");
        assert!(outcome.latency_ms.expect("latency simulated") > 0.0);
    }

    #[test]
    fn expert_cost_is_cached() {
        let (db, queries) = env_fixtures();
        let mut env = join_env(
            &db,
            &queries,
            6,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
        );
        let a = env.expert_cost(0);
        let b = env.expert_cost(0);
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    fn query_order_modes() {
        let db = TestDb::chain(3, 100);
        let queries = vec![chain_query(&db, 3), chain_query(&db, 2)];
        let mut env = join_env(&db, &queries, 4, QueryOrder::Cycle, RewardMode::InverseCost);
        let mut rng = StdRng::seed_from_u64(2);
        env.reset(&mut rng);
        assert_eq!(env.current, 0);
        env.reset(&mut rng);
        assert_eq!(env.current, 1);
        env.reset(&mut rng);
        assert_eq!(env.current, 0);
        env.set_order(QueryOrder::Fixed(1));
        env.reset(&mut rng);
        assert_eq!(env.current, 1);
    }

    #[test]
    fn join_order_only_matches_rejoin_step_count() {
        let (db, queries) = fixtures(false);
        let mut env = join_env(
            &db,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
        );
        let mut rng = StdRng::seed_from_u64(0);
        let steps = run_random_episode(&mut env, &mut rng);
        assert_eq!(steps, 2); // n − 1 pair actions only
        let outcome = env.last_outcome().expect("finished");
        outcome.plan.validate(&queries[0]).unwrap();
    }

    #[test]
    fn full_stage_set_lengthens_episodes() {
        let (db, queries) = fixtures(true);
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::RelativeToExpert,
            StageSet::full(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let steps = run_random_episode(&mut env, &mut rng);
        // 3 access paths + 2 pairs + 2 join ops + 1 aggregate.
        assert_eq!(steps, 8);
        let outcome = env.last_outcome().expect("finished");
        outcome.plan.validate(&queries[0]).unwrap();
        assert!(matches!(outcome.plan.root, PlanNode::Aggregate { .. }));
    }

    #[test]
    fn random_full_episodes_always_produce_valid_plans() {
        let (db, queries) = fixtures(true);
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::InverseCost,
            StageSet::full(),
        );
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..25 {
            run_random_episode(&mut env, &mut rng);
            let outcome = env.last_outcome().expect("finished");
            outcome.plan.validate(&queries[0]).unwrap();
            assert!(outcome.agent_cost > 0.0);
        }
    }

    /// The state layout is a function of the stage set the environment
    /// was *built* with: bare featurizer width for join ordering only,
    /// plus the phase and relation markers otherwise — and narrowing the
    /// active stages never moves it.
    #[test]
    fn state_dim_follows_the_constructed_stage_set() {
        let (db, queries) = fixtures(false);
        let build = |stages| {
            let ctx = EnvContext::new(&db.db, &db.stats);
            let (order, mode) = (QueryOrder::Cycle, RewardMode::InverseCost);
            PlanEnv::new(ctx, &queries, 4, order, mode, stages)
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut features = Vec::new();
        let bare = build(StageSet::join_order_only()).featurizer().state_dim();
        for stages in StageSet::pipeline_prefixes() {
            let mut env = build(stages);
            let expected = if stages == StageSet::join_order_only() {
                bare
            } else {
                bare + 4 + 4
            };
            assert_eq!(env.state_dim(), expected, "{stages:?}");
            env.set_stages(StageSet::join_order_only());
            assert_eq!(env.state_dim(), expected, "{stages:?} narrowed");
            env.reset(&mut rng);
            env.state_features(&mut features);
            assert_eq!(features.len(), expected, "{stages:?} narrowed");
        }
    }

    #[test]
    #[should_panic(expected = "cannot be widened")]
    fn unmarked_env_refuses_wider_stages() {
        let (db, queries) = fixtures(false);
        let mut env = join_env(&db, &queries, 4, QueryOrder::Cycle, RewardMode::InverseCost);
        env.set_stages(StageSet::full());
    }

    #[test]
    fn stage_growth_changes_episode_shape() {
        let (db, queries) = fixtures(false);
        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            4,
            QueryOrder::Cycle,
            RewardMode::InverseCost,
            StageSet::full(),
        );
        let mut rng = StdRng::seed_from_u64(3);
        env.set_stages(StageSet::join_order_only());
        assert_eq!(run_random_episode(&mut env, &mut rng), 2);
        env.set_stages(StageSet::through_index());
        assert_eq!(run_random_episode(&mut env, &mut rng), 5); // +3 scans
        env.set_stages(StageSet::through_join_ops());
        assert_eq!(run_random_episode(&mut env, &mut rng), 7); // +2 algos
    }

    /// A chain query over `db` closed into a cycle by one extra edge
    /// `t0.id = t_{n-1}.id`.
    fn cycle_query(db: &TestDb, n: usize) -> QueryGraph {
        let chain = chain_query(db, n);
        let mut joins = chain.joins().to_vec();
        joins.push(JoinEdge {
            left: BoundColumn::new(RelId(0), ColumnId(0)),
            op: CompareOp::Eq,
            right: BoundColumn::new(RelId(n as u32 - 1), ColumnId(0)),
        });
        QueryGraph::new(
            chain.relations().to_vec(),
            joins,
            chain.selections().to_vec(),
            vec![],
            vec![],
        )
    }

    /// The first of `candidates` with the least recursive `node_cost`.
    fn cheapest(
        graph: &QueryGraph,
        candidates: impl IntoIterator<Item = PlanNode>,
        model: &CostModel<'_>,
        est: &EstimatedCardinality<'_>,
    ) -> PlanNode {
        let mut best: Option<(PlanNode, f64)> = None;
        for cand in candidates {
            let cost = model.node_cost(graph, &cand, est).total;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((cand, cost));
            }
        }
        best.expect("at least one candidate").0
    }

    /// The physical plan ReJOIN's hand-off gives `tree`, written without
    /// the costed forest or the join pricer: each leaf its best access
    /// path, and each join, sides as the tree has them, the first
    /// cheapest by `node_cost` of the algorithms an `=` condition allows.
    fn reference_node(
        graph: &QueryGraph,
        tree: &JoinTree,
        catalog: &hfqo_catalog::Catalog,
        model: &CostModel<'_>,
        est: &EstimatedCardinality<'_>,
    ) -> PlanNode {
        let (l, r) = match tree {
            JoinTree::Leaf(rel) => return best_access_path(graph, *rel, catalog, model, est).0,
            JoinTree::Join(l, r) => (l, r),
        };
        let left = reference_node(graph, l, catalog, model, est);
        let right = reference_node(graph, r, catalog, model, est);
        let conds = graph.joins_between(l.rel_set(), r.rel_set());
        let has_eq = conds.iter().any(|&c| graph.joins()[c].op == CompareOp::Eq);
        let candidates = (JoinAlgo::ALL.into_iter())
            .filter(|&algo| algo == JoinAlgo::NestedLoop || has_eq)
            .map(|algo| PlanNode::Join {
                algo,
                conds: conds.clone(),
                left: Box::new(left.clone()),
                right: Box::new(right.clone()),
            });
        cheapest(graph, candidates, model, est)
    }

    /// The join-ordering case's contract with the serving side: building
    /// the plan incrementally (scans at reset, one join per merge, the
    /// aggregate at the end) gives the plan the reference hand-off gives
    /// the finished tree, at `plan_cost`'s bits — for any action
    /// sequence, not just the greedy one `LearnedPlanner`'s parity test
    /// walks.
    #[test]
    fn join_order_only_episode_is_the_reference_hand_off_bit_for_bit() {
        let chain = TestDb::chain(5, 300);
        let star = TestDb::star(5, 400);
        let cases = [
            (&chain, chain_query(&chain, 5)),
            (&star, star_query(&star, 5)),
            (&chain, cycle_query(&chain, 4)),
        ];
        let mut rng = StdRng::seed_from_u64(17);
        for (db, plain) in cases {
            let queries = vec![plain.clone(), with_count(plain)];
            let ctx = EnvContext::new(&db.db, &db.stats);
            let mut env = PlanEnv::new(
                ctx.clone(),
                &queries,
                5,
                QueryOrder::Cycle,
                RewardMode::InverseCost,
                StageSet::join_order_only(),
            );
            let model = ctx.cost_model();
            let est = ctx.estimator();
            for episode in 0..12 {
                run_random_episode(&mut env, &mut rng);
                let outcome = env.last_outcome().expect("finished");
                let graph = &queries[episode % 2];
                let tree = outcome.plan.root.join_tree();
                let mut reference = reference_node(graph, &tree, ctx.catalog(), &model, &est);
                if needs_aggregate(graph) {
                    let input = Box::new(reference);
                    let candidates = AggAlgo::ALL.map(|algo| PlanNode::Aggregate {
                        algo,
                        input: input.clone(),
                    });
                    reference = cheapest(graph, candidates, &model, &est);
                }
                assert_eq!(outcome.plan.root, reference, "episode {episode}");
                let recursive_cost = model.plan_cost(graph, &outcome.plan, &est).total;
                assert_eq!(outcome.agent_cost.to_bits(), recursive_cost.to_bits());
            }
        }
    }
}
