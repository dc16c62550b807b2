//! Completing an agent-chosen join order into a physical plan.
//!
//! ReJOIN (§3) only chooses the join *order*: "the final join ordering is
//! sent to a traditional query optimizer, and the optimizer's cost model
//! is used to determine the quality of the join ordering". This module is
//! that hand-off: given a fixed [`JoinTree`], the traditional machinery
//! picks access paths, join algorithms (sides stay as the agent chose
//! them), and the aggregate operator.

use hfqo_catalog::Catalog;
use hfqo_cost::{CostEstimate, CostModel};
use hfqo_opt::physical::{
    best_access_path, best_aggregate_if_needed, best_algo_fixed_sides, Costed,
};
use hfqo_query::{JoinTree, PhysicalPlan, QueryGraph};
use hfqo_stats::CardinalitySource;

/// Builds the cheapest physical plan whose join-tree skeleton is exactly
/// `tree` (leaf sides preserved), with the cost
/// [`CostModel::plan_cost`] gives it. Each join and the aggregate are
/// priced from their inputs' estimates by `hfqo_opt::physical`'s pricer,
/// the one the expert's DP and greedy use.
pub fn plan_from_tree<C: CardinalitySource>(
    graph: &QueryGraph,
    tree: &JoinTree,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> (PhysicalPlan, CostEstimate) {
    let root = node_from_tree(graph, tree, catalog, model, cards);
    let (root, cost) = best_aggregate_if_needed(graph, root, model);
    (PhysicalPlan::new(root), cost)
}

fn node_from_tree<C: CardinalitySource>(
    graph: &QueryGraph,
    tree: &JoinTree,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    match tree {
        JoinTree::Leaf(rel) => best_access_path(graph, *rel, catalog, model, cards),
        JoinTree::Join(l, r) => {
            let left = node_from_tree(graph, l, catalog, model, cards);
            let right = node_from_tree(graph, r, catalog, model, cards);
            best_algo_fixed_sides(graph, left, right, model, cards)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_cost::CostParams;
    use hfqo_opt::test_support::{chain_query, TestDb};
    use hfqo_query::{JoinAlgo, PlanNode, RelId};
    use hfqo_stats::EstimatedCardinality;

    #[test]
    fn plan_preserves_tree_shape() {
        let db = TestDb::chain(4, 500);
        let graph = chain_query(&db, 4);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        // A deliberately bushy (and suboptimal) shape.
        let tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(3)), JoinTree::leaf(RelId(2))),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(0))),
        );
        let (plan, _) = plan_from_tree(&graph, &tree, db.db.catalog(), &model, &cards);
        plan.validate(&graph).unwrap();
        assert_eq!(plan.root.join_tree(), tree);
    }

    #[test]
    fn cross_join_orders_get_nested_loops() {
        let db = TestDb::chain(3, 200);
        let graph = chain_query(&db, 3);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        // (0 ⋈ 2) has no join edge in a 0-1-2 chain → cross join.
        let tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(2))),
            JoinTree::leaf(RelId(1)),
        );
        let (plan, _) = plan_from_tree(&graph, &tree, db.db.catalog(), &model, &cards);
        plan.validate(&graph).unwrap();
        // The inner join must be a nested loop with no conditions.
        match &plan.root {
            PlanNode::Join { left, .. } => match left.as_ref() {
                PlanNode::Join { algo, conds, .. } => {
                    assert_eq!(*algo, JoinAlgo::NestedLoop);
                    assert!(conds.is_empty());
                }
                other => panic!("expected join, got {other:?}"),
            },
            other => panic!("expected join root, got {other:?}"),
        }
    }

    #[test]
    fn bad_orders_cost_more_than_expert() {
        let db = TestDb::chain(4, 1000);
        let graph = chain_query(&db, 4);
        let opt = hfqo_opt::TraditionalOptimizer::new(db.db.catalog(), &db.stats);
        let expert = opt.plan(&graph).unwrap();
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let bad_tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(3))),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(2))),
        );
        let (bad, bad_cost) = plan_from_tree(&graph, &bad_tree, db.db.catalog(), &model, &cards);
        let bad_cost = bad_cost.total;
        assert_eq!(bad_cost, model.plan_cost(&graph, &bad, &cards).total);
        assert!(
            bad_cost > expert.cost,
            "cross-join order {bad_cost} should exceed expert {}",
            expert.cost
        );
    }
}
