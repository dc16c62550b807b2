//! The costed forest greedy, random, the learned planner and the RL
//! environment all step. The paper's §3 state is a forest of join
//! subtrees, each action merging a pair, and PostgreSQL's greedy search
//! walks the same forest: only the rule that picks the pair differs. Slots
//! move as [`hfqo_query::Forest::merge`] moves trees (`x` and `y` removed,
//! `x ⋈ y` appended, `x` on the left), so one `(x, y)` names one merge
//! here, in a `Forest` and in the learned planner's rollout state. Each
//! slot also keeps the relations one join edge away from it; a merge
//! unions its inputs' masks, so [`PlanForest::connected`] is a bit test.

use crate::physical::{best_access_path, build_join, price_join, Costed, JoinPrice};
use hfqo_catalog::Catalog;
use hfqo_cost::{CostEstimate, CostModel};
use hfqo_query::{JoinAlgo, QueryGraph, RelSet};
use hfqo_stats::CardinalitySource;

/// A forest of costed sub-plans over one query, each slot with the set of
/// relations it covers and the set one join edge away from them, so
/// whether two slots are connected is a bit test.
#[derive(Debug, Clone)]
pub struct PlanForest<'g> {
    graph: &'g QueryGraph,
    slots: Vec<Slot>,
}

/// One slot of a [`PlanForest`].
#[derive(Debug, Clone)]
struct Slot {
    /// The relations the sub-plan covers.
    set: RelSet,
    /// The relations a join edge connects them to.
    adjacent: RelSet,
    plan: Costed,
}

impl Slot {
    /// `plan` as a slot: its adjacency is the union of its relations'
    /// `neighbors`, as [`QueryGraph::neighbor_masks`] gives them.
    #[inline]
    fn leaf(plan: Costed, neighbors: &[RelSet; 64]) -> Self {
        let set = plan.0.rel_set();
        let adjacent = (set.iter()).fold(RelSet::EMPTY, |adjacent, rel| {
            adjacent.union(neighbors[rel.index()])
        });
        Self {
            set,
            adjacent,
            plan,
        }
    }
}

impl<'g> PlanForest<'g> {
    /// A forest whose slots are `leaves`, in order.
    #[inline]
    pub fn from_leaves(graph: &'g QueryGraph, leaves: impl IntoIterator<Item = Costed>) -> Self {
        let neighbors = graph.neighbor_masks();
        let slots = (leaves.into_iter())
            .map(|leaf| Slot::leaf(leaf, &neighbors))
            .collect();
        Self { graph, slots }
    }

    /// The initial forest with every relation's best access path, in
    /// relation order.
    #[inline]
    pub fn best_access_paths<C: CardinalitySource>(
        graph: &'g QueryGraph,
        catalog: &Catalog,
        model: &CostModel<'_>,
        cards: &C,
    ) -> Self {
        let leaves = (graph.all_rels().iter())
            .map(|rel| best_access_path(graph, rel, catalog, model, cards));
        Self::from_leaves(graph, leaves)
    }

    /// Appends `leaf` as the last slot.
    #[inline]
    pub fn push(&mut self, leaf: Costed) {
        let slot = Slot::leaf(leaf, &self.graph.neighbor_masks());
        self.slots.push(slot);
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the forest has no slots.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether at most one slot remains.
    #[inline]
    pub fn is_terminal(&self) -> bool {
        self.slots.len() <= 1
    }

    /// The relations slot `slot` covers.
    #[inline]
    pub fn set(&self, slot: usize) -> RelSet {
        self.slots[slot].set
    }

    /// Whether a join edge connects slots `x` and `y` (distinct, in
    /// range): [`QueryGraph::sets_connected`] of their sets, as a bit
    /// test.
    #[inline]
    pub fn connected(&self, x: usize, y: usize) -> bool {
        !self.slots[x].adjacent.is_disjoint(self.slots[y].set)
    }

    /// Slot `slot` as a pricing input: its relations and estimate.
    #[inline]
    fn input(&self, slot: usize) -> (RelSet, CostEstimate) {
        let slot = &self.slots[slot];
        (slot.set, slot.plan.1)
    }

    /// Prices the cheapest join of slots `x` (left) and `y` (right) by
    /// [`price_join`], the sides swapped when `may_flip` and cheaper.
    #[inline]
    pub fn price<C: CardinalitySource>(
        &self,
        x: usize,
        y: usize,
        may_flip: bool,
        model: &CostModel<'_>,
        cards: &C,
    ) -> JoinPrice {
        let (x, y) = (self.input(x), self.input(y));
        price_join(self.graph, x, y, may_flip, model, cards)
    }

    /// Prices the `algo` join of slots `x` (left) and `y` (right), sides as
    /// given. The caller keeps to [`crate::physical::legal_join_algos`].
    #[inline]
    pub fn price_as<C: CardinalitySource>(
        &self,
        x: usize,
        y: usize,
        algo: JoinAlgo,
        model: &CostModel<'_>,
        cards: &C,
    ) -> JoinPrice {
        let ((x_set, x_cost), (y_set, y_cost)) = (self.input(x), self.input(y));
        let n_conds = self.graph.edges_between(x_set, y_set).count();
        let out_rows = cards.set_rows(self.graph, x_set.union(y_set));
        let cost = model.join_cost(algo, n_conds, x_cost, y_cost, out_rows);
        (algo, false, cost)
    }

    /// Merges slots `x` and `y` (distinct, in range) into the join `price`
    /// chose for them: both slots are removed and the join is appended.
    #[inline]
    pub fn merge(&mut self, x: usize, y: usize, price: JoinPrice) {
        debug_assert_ne!(x, y, "a slot cannot join itself");
        // Remove the higher index first so the lower stays valid.
        let (hi, lo) = if x > y { (x, y) } else { (y, x) };
        let hi_slot = self.slots.remove(hi);
        let lo_slot = self.slots.remove(lo);
        let (x_slot, y_slot) = if x < y {
            (lo_slot, hi_slot)
        } else {
            (hi_slot, lo_slot)
        };
        let sets = (x_slot.set, y_slot.set);
        self.slots.push(Slot {
            set: sets.0.union(sets.1),
            adjacent: x_slot.adjacent.union(y_slot.adjacent),
            plan: build_join(self.graph, price, sets, x_slot.plan.0, y_slot.plan.0),
        });
    }

    /// Takes the sub-plan out of a terminal forest's one slot; the caller
    /// finishes it (e.g. with
    /// [`crate::physical::best_aggregate_if_needed`]).
    #[inline]
    pub fn take_root(&mut self) -> Costed {
        assert_eq!(self.slots.len(), 1, "only a terminal forest has a root");
        self.slots.pop().expect("one slot remains").plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::best_aggregate_if_needed;
    use crate::physical::build_scan;
    use crate::test_support::{chain_query, TestDb};
    use crate::{Planner, PlannerContext, TraditionalPlanner};
    use hfqo_catalog::{ColumnId, TableId};
    use hfqo_cost::CostParams;
    use hfqo_query::{
        tree_to_actions, AccessPath, BoundColumn, JoinEdge, JoinTree, PhysicalPlan, PlanNode,
        RelId, Relation,
    };
    use hfqo_sql::CompareOp;
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Walks `tree`'s merges over the best access paths, each join priced
    /// with fixed sides, and finishes the root — the learned planner's
    /// completion of a join order.
    fn plan_of_tree(db: &TestDb, graph: &QueryGraph, tree: &JoinTree) -> (PhysicalPlan, f64) {
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let mut forest = PlanForest::best_access_paths(graph, db.db.catalog(), &model, &cards);
        for (x, y) in tree_to_actions(tree, graph.relation_count()) {
            let price = forest.price(x, y, false, &model, &cards);
            forest.merge(x, y, price);
        }
        let (root, cost) = best_aggregate_if_needed(graph, forest.take_root(), &model);
        let plan = PhysicalPlan::new(root);
        let recursive = model.plan_cost(graph, &plan, &cards).total;
        assert_eq!(cost.total.to_bits(), recursive.to_bits());
        (plan, cost.total)
    }

    #[test]
    fn fixed_sides_preserve_the_tree_shape() {
        let db = TestDb::chain(4, 500);
        let graph = chain_query(&db, 4);
        // A deliberately bushy (and suboptimal) shape.
        let tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(3)), JoinTree::leaf(RelId(2))),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(0))),
        );
        let (plan, _) = plan_of_tree(&db, &graph, &tree);
        plan.validate(&graph).unwrap();
        assert_eq!(plan.root.join_tree(), tree);
    }

    #[test]
    fn cross_join_pairs_get_nested_loops() {
        let db = TestDb::chain(3, 200);
        let graph = chain_query(&db, 3);
        // (0 ⋈ 2) has no join edge in a 0-1-2 chain → cross join.
        let tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(2))),
            JoinTree::leaf(RelId(1)),
        );
        let (plan, _) = plan_of_tree(&db, &graph, &tree);
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
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let expert = TraditionalPlanner::new().plan(&ctx, &graph).unwrap();
        let bad_tree = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(3))),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(2))),
        );
        let (_, bad_cost) = plan_of_tree(&db, &graph, &bad_tree);
        assert!(
            bad_cost > expert.cost,
            "cross-join order {bad_cost} should exceed expert {}",
            expert.cost
        );
    }

    /// The adjacency masks follow the merges: after every merge of random
    /// merge sequences over random graphs, disconnected ones and
    /// self-edges included, `connected` is `sets_connected` of the two
    /// slots' sets. Half the leaves come from `from_leaves`, the rest
    /// from `push`.
    #[test]
    fn connected_matches_sets_connected_after_every_merge() {
        let db = TestDb::chain(10, 40);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..=10usize);
            let relations = (0..n)
                .map(|i| Relation {
                    table: TableId(i as u32),
                    alias: format!("t{i}"),
                })
                .collect();
            let edges = rng.gen_range(0..=n + 1);
            let mut column = || BoundColumn::new(RelId(rng.gen_range(0..n as u32)), ColumnId(0));
            let joins = (0..edges)
                .map(|_| JoinEdge {
                    left: column(),
                    op: CompareOp::Eq,
                    right: column(),
                })
                .collect();
            let graph = QueryGraph::new(relations, joins, vec![], vec![], vec![]);
            let scan = |rel| build_scan(&graph, rel, AccessPath::SeqScan, &model, &cards);
            let split = n / 2;
            let mut forest =
                PlanForest::from_leaves(&graph, (0..split).map(|r| scan(RelId(r as u32))));
            (split..n).for_each(|r| forest.push(scan(RelId(r as u32))));
            loop {
                for x in 0..forest.len() {
                    for y in (0..forest.len()).filter(|&y| y != x) {
                        let (xs, ys) = (forest.set(x), forest.set(y));
                        assert_eq!(
                            forest.connected(x, y),
                            graph.sets_connected(xs, ys),
                            "seed {seed}: {xs:?} and {ys:?} in {:?}",
                            graph.joins()
                        );
                    }
                }
                if forest.is_terminal() {
                    break;
                }
                let x = rng.gen_range(0..forest.len());
                let y = (x + rng.gen_range(1..forest.len())) % forest.len();
                let price = forest.price(x, y, rng.gen_bool(0.5), &model, &cards);
                forest.merge(x, y, price);
            }
        }
    }
}
