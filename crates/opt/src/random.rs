//! Random plan generation (the floor baseline).

use crate::cost::CostModel;
use crate::forest::PlanForest;
use crate::physical::{
    access_paths, build_aggregate, build_scan, legal_join_algos, needs_aggregate, Costed,
};
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, QueryGraph};
use hfqo_stats::CardinalitySource;
use hfqo_storage::catalog::Catalog;
use rand::rngs::StdRng;
use rand::Rng;

/// Produces a uniformly random *valid* physical plan, costed as it is
/// built: a random access path per relation among the applicable ones,
/// then a random ordered pair of the forest's slots (cross joins allowed,
/// exactly like an untrained RL agent's action space) joined by a random
/// legal algorithm, and a random aggregate operator.
///
/// §4's search-space experiment uses this as the floor: a naive full-space
/// DRL agent that fails to learn is indistinguishable from this generator.
pub fn random_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
    rng: &mut StdRng,
) -> Costed {
    let scans = graph.all_rels().iter().map(|rel| {
        let paths: Vec<AccessPath> = access_paths(graph, rel, catalog).collect();
        let path = paths[rng.gen_range(0..paths.len())];
        build_scan(graph, rel, path, model, cards)
    });
    let mut forest = PlanForest::from_leaves(graph, scans);
    while !forest.is_terminal() {
        let len = forest.len();
        let x = rng.gen_range(0..len);
        let mut y = rng.gen_range(0..len);
        while y == x {
            y = rng.gen_range(0..len);
        }
        let legal = legal_join_algos(graph, forest.set(x), forest.set(y));
        let algos: Vec<JoinAlgo> = (JoinAlgo::ALL.into_iter().zip(legal))
            .filter_map(|(algo, legal)| legal.then_some(algo))
            .collect();
        let algo = algos[rng.gen_range(0..algos.len())];
        let price = forest.price_as(x, y, algo, model, cards);
        forest.merge(x, y, price);
    }
    let root = forest.take_root();
    if needs_aggregate(graph) {
        let algo = AggAlgo::ALL[rng.gen_range(0..AggAlgo::ALL.len())];
        build_aggregate(graph, algo, root, model)
    } else {
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use crate::test_support::{chain_query, star_query, TestDb};
    use hfqo_query::PhysicalPlan;
    use hfqo_stats::EstimatedCardinality;
    use rand::SeedableRng;

    /// Draws one random plan over `db`'s statistics.
    fn draw(db: &TestDb, graph: &QueryGraph, rng: &mut StdRng) -> (PhysicalPlan, f64) {
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (root, cost) = random_plan(graph, db.db.catalog(), &model, &cards, rng);
        (PhysicalPlan::new(root), cost.total)
    }

    #[test]
    fn random_plans_are_always_valid_and_carry_their_cost() {
        let db = TestDb::chain(5, 200);
        let graph = chain_query(&db, 5);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let (plan, cost) = draw(&db, &graph, &mut rng);
            plan.validate(&graph).unwrap();
            let recursive = model.plan_cost(&graph, &plan, &cards).total;
            assert_eq!(cost.to_bits(), recursive.to_bits());
        }
    }

    #[test]
    fn random_plans_vary() {
        let db = TestDb::star(5, 500);
        let graph = star_query(&db, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let plans: Vec<_> = (0..10).map(|_| draw(&db, &graph, &mut rng).0).collect();
        let distinct = plans
            .iter()
            .map(|p| format!("{p:?}"))
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(distinct > 3, "only {distinct} distinct plans in 10 draws");
    }

    #[test]
    fn determinism_per_seed() {
        let db = TestDb::chain(4, 100);
        let graph = chain_query(&db, 4);
        let a = draw(&db, &graph, &mut StdRng::seed_from_u64(5));
        let b = draw(&db, &graph, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
