//! The learned planner's three bit-identity rules, over all 113
//! JOB-like queries: the rollout state equals the state rebuilt from
//! the forest its merges build, inference equals `Mlp::predict` restricted to the legal
//! actions, and a cost composed from `join_cost` equals the recursive
//! `node_cost` — so every plan, cost and chosen action is what the
//! from-scratch functions give. CI runs this file in release too: the
//! loops vectorise there.

use hfqo::cost::{CostEstimate, CostModel};
use hfqo::nn::{masked_softmax, Matrix, Mlp};
use hfqo::opt::{Planner, PlannerContext, RandomPlanner, TraditionalPlanner};
use hfqo::query::{Forest, JoinAlgo, PlanNode, QueryGraph};
use hfqo::rejoin::{Featurizer, LearnedPlanner, RolloutState};
use hfqo::rl::{ReinforceAgent, ReinforceConfig, Selector};
use hfqo::sql::CompareOp;
use hfqo::stats::{CardinalitySource, EstimatedCardinality, StatsCatalog};
use hfqo::storage::Database;
use hfqo::workload::imdb::{build_imdb, ImdbConfig};
use hfqo::workload::job::generate_job_suite;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Largest relation count in the suite: the serving planner's width.
const MAX_RELS: usize = 17;

struct Fixture {
    db: Database,
    stats: StatsCatalog,
    graphs: Vec<QueryGraph>,
    planner: LearnedPlanner,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (db, stats) = build_imdb(ImdbConfig {
            base_rows: 300,
            seed: 21,
        });
        let graphs: Vec<QueryGraph> = generate_job_suite(db.catalog(), 21)
            .into_iter()
            .map(|q| q.graph)
            .collect();
        assert_eq!(graphs.len(), 113);
        let featurizer = Featurizer::new(MAX_RELS);
        let agent = ReinforceAgent::new(
            featurizer.state_dim(),
            featurizer.action_dim(),
            ReinforceConfig::default(),
            &mut StdRng::seed_from_u64(21),
        );
        let planner = LearnedPlanner::freeze(&agent, featurizer).with_require_connected(true);
        Fixture {
            db,
            stats,
            graphs,
            planner,
        }
    })
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Greedy selection as it was before the legal-only kernel: the mode of
/// a masked softmax over the full `predict` row, the last of equal
/// modes.
fn full_row_greedy(policy: &Mlp, features: &[f32], mask: &[bool]) -> (usize, f32) {
    let logits = policy.predict(&Matrix::row_vector(features.to_vec()));
    let probs = masked_softmax(logits.row(0), mask);
    let (best, p) = probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("non-empty action space");
    (best, *p)
}

/// On every state of the policy's own greedy rollout of every query:
/// the updated state is the one rebuilt from a forest merged with the
/// same pairs (features bit for bit, the mask
/// under both masking rules), the legal actions' logits are `predict`'s
/// bit for bit, and the action and probability are the full-row
/// selection's.
#[test]
fn every_rollout_state_matches_the_from_scratch_functions() {
    let fx = fixture();
    let featurizer = fx.planner.featurizer();
    let policy = fx.planner.snapshot().policy();
    let est = EstimatedCardinality::new(&fx.stats);
    let mut selector = Selector::default();
    let mut rng = StdRng::seed_from_u64(0);
    let (mut rebuilt, mut mask, mut rebuilt_mask) = (Vec::new(), Vec::new(), Vec::new());
    let mut scratch = hfqo::nn::InferScratch::default();
    let mut logits = Vec::new();
    let mut states = 0;
    for (q, graph) in fx.graphs.iter().enumerate() {
        let mut state = RolloutState::new(featurizer, graph, &est);
        let mut forest = Forest::initial(graph.relation_count());
        loop {
            featurizer.featurize(graph, &forest, &est, &mut rebuilt);
            assert_eq!(bits(state.features()), bits(&rebuilt), "query {q}");
            for require_connected in [false, true] {
                state.mask(require_connected, &mut mask);
                featurizer.action_mask(graph, &forest, require_connected, &mut rebuilt_mask);
                assert_eq!(
                    mask, rebuilt_mask,
                    "query {q}, connected {require_connected}"
                );
            }
            if state.is_terminal() {
                break;
            }
            states += 1;
            let legal: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
            let full = policy.predict(&Matrix::row_vector(rebuilt.clone()));
            let predicted: Vec<f32> = legal.iter().map(|&a| full.get(0, a)).collect();
            policy.logits_at(state.features(), &legal, &mut scratch, &mut logits);
            assert_eq!(bits(&logits), bits(&predicted), "query {q}");
            let (action, p) = selector.select(policy, state.features(), &mask, &mut rng, true);
            let (want, want_p) = full_row_greedy(policy, &rebuilt, &mask);
            assert_eq!((action, p.to_bits()), (want, want_p.to_bits()), "query {q}");
            let (x, y) = featurizer.decode_pair(action);
            assert!(state.merge(x, y), "query {q}: ({x}, {y})");
            assert!(forest.merge(x, y), "query {q}: ({x}, {y})");
        }
    }
    let merges: usize = fx.graphs.iter().map(|g| g.relation_count() - 1).sum();
    assert_eq!(states, merges);
}

/// Folds `join_cost` / `aggregate_cost` bottom-up over `node`, and at
/// every join checks the composed estimate against the recursive
/// `node_cost` of that subtree, bit for bit. `at_join` sees every join
/// node.
fn composed_cost(
    graph: &QueryGraph,
    node: &PlanNode,
    model: &CostModel<'_>,
    est: &EstimatedCardinality<'_>,
    at_join: &mut dyn FnMut(&PlanNode),
) -> CostEstimate {
    match node {
        PlanNode::Scan { .. } => model.node_cost(graph, node, est),
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            let l = composed_cost(graph, left, model, est, at_join);
            let r = composed_cost(graph, right, model, est, at_join);
            let out_rows = est.set_rows(graph, node.rel_set());
            let composed = model.join_cost(*algo, conds.len(), l, r, out_rows);
            let recursive = model.node_cost(graph, node, est);
            assert_eq!(composed.total.to_bits(), recursive.total.to_bits());
            assert_eq!(
                composed.output_rows.to_bits(),
                recursive.output_rows.to_bits()
            );
            at_join(node);
            composed
        }
        PlanNode::Aggregate { algo, input } => {
            let i = composed_cost(graph, input, model, est, at_join);
            model.aggregate_cost(*algo, !graph.group_by().is_empty(), i)
        }
    }
}

/// The clone-and-recost loop the learned planner's fixed-sides pricing
/// used to be: the first arg-min of `node_cost` over the legal
/// algorithms for fixed sides.
fn recosted_best_algo(
    graph: &QueryGraph,
    join: &PlanNode,
    model: &CostModel<'_>,
    est: &EstimatedCardinality<'_>,
) -> JoinAlgo {
    let PlanNode::Join {
        conds, left, right, ..
    } = join
    else {
        panic!("a join node");
    };
    let has_eq = conds.iter().any(|&c| graph.joins()[c].op == CompareOp::Eq);
    let mut best: Option<(JoinAlgo, f64)> = None;
    for algo in JoinAlgo::ALL {
        if matches!(algo, JoinAlgo::Hash | JoinAlgo::Merge) && !has_eq {
            continue;
        }
        let cand = PlanNode::Join {
            algo,
            conds: conds.clone(),
            left: left.clone(),
            right: right.clone(),
        };
        let cost = model.node_cost(graph, &cand, est).total;
        if best.is_none_or(|(_, c)| cost < c) {
            best = Some((algo, cost));
        }
    }
    best.expect("nested loop is always legal").0
}

/// Composed cost equals recursive cost at every join of the expert
/// plan, the learned plan and twenty random plans of every query; every
/// random plan is valid and carries `plan_cost`'s bits; and the learned
/// plan is the parent's: each join's algorithm is the clone-and-recost
/// winner, and its reported cost is `plan_cost`'s.
#[test]
fn composed_cost_equals_recursive_cost_and_the_plans_are_unchanged() {
    let fx = fixture();
    let ctx = PlannerContext::new(fx.db.catalog(), &fx.stats);
    let (model, est) = (ctx.cost_model(), ctx.estimator());
    let expert = TraditionalPlanner::new();
    let random = RandomPlanner::new(21);
    for (q, graph) in fx.graphs.iter().enumerate() {
        let mut plans = vec![expert.plan(&ctx, graph).expect("expert plans")];
        for _ in 0..20 {
            let planned = random.plan(&ctx, graph).expect("random plans");
            planned.plan.validate(graph).expect("a valid random plan");
            let recursive = model.plan_cost(graph, &planned.plan, &est).total;
            assert_eq!(planned.cost.to_bits(), recursive.to_bits(), "query {q}");
            plans.push(planned);
        }
        for planned in &plans {
            let composed = composed_cost(graph, &planned.plan.root, &model, &est, &mut |_| {});
            assert_eq!(
                composed.total.to_bits(),
                planned.cost.to_bits(),
                "query {q}"
            );
        }
        let learned = fx.planner.plan(&ctx, graph).expect("learned plans");
        learned.plan.validate(graph).expect("a valid plan");
        let mut joins = 0;
        composed_cost(graph, &learned.plan.root, &model, &est, &mut |join| {
            let PlanNode::Join { algo, .. } = join else {
                panic!("a join node");
            };
            assert_eq!(
                *algo,
                recosted_best_algo(graph, join, &model, &est),
                "query {q}"
            );
            joins += 1;
        });
        assert_eq!(joins, graph.relation_count() - 1, "query {q}");
        let recursive = model.plan_cost(graph, &learned.plan, &est).total;
        assert_eq!(learned.cost.to_bits(), recursive.to_bits(), "query {q}");
    }
}
