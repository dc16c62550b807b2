//! Greedy bottom-up join ordering (the beyond-threshold fallback).
//!
//! Each step looks at every pair of the [`PlanForest`]'s slots. Whether a
//! pair is connected is a bit test on the forest's adjacency masks, and a
//! pair is priced from its inputs' estimates and its union's rows. The
//! expert hands in a [`hfqo_stats::QueryCardinality`], so those rows are
//! products of factors looked up once per query.

use crate::forest::PlanForest;
use crate::physical::{Costed, JoinPrice};
use hfqo_catalog::Catalog;
use hfqo_cost::CostModel;
use hfqo_query::QueryGraph;
use hfqo_stats::CardinalitySource;

/// Greedy bottom-up planning: start from the best access path per
/// relation, then repeatedly merge the pair of subplans whose join has the
/// lowest cost, preferring connected pairs over cross products.
///
/// This is the polynomial-time stand-in for PostgreSQL's GEQO and mirrors
/// the "greedy bottom-up algorithm" the paper's §3 attributes to
/// PostgreSQL. It prices O(n²) pairs per step from their estimates and
/// has the [`PlanForest`] build only the merge it takes: slots `i < j`,
/// `i` on the left, the first strict minimum.
pub fn greedy_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let mut forest = PlanForest::best_access_paths(graph, catalog, model, cards);
    while !forest.is_terminal() {
        let mut best: Option<(usize, usize, JoinPrice, bool)> = None;
        for i in 0..forest.len() {
            for j in (i + 1)..forest.len() {
                let connected = forest.connected(i, j);
                // Cross products are considered only if no connected pair
                // exists at all (disconnected graphs).
                if best.is_some_and(|(.., best_conn)| best_conn && !connected) {
                    continue;
                }
                let price = forest.price(i, j, true, model, cards);
                // A connected pair always beats a cross product; otherwise
                // compare cost.
                if best.is_none_or(|(_, _, (.., best_cost), best_conn)| {
                    (connected && !best_conn)
                        || (connected == best_conn && price.2.total < best_cost.total)
                }) {
                    best = Some((i, j, price, connected));
                }
            }
        }
        let (i, j, price, _) = best.expect("at least one pair exists");
        forest.merge(i, j, price);
    }
    forest.take_root()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_plan;
    use crate::random::random_plan;
    use crate::test_support::{chain_query, star_query, TestDb};
    use hfqo_cost::CostParams;
    use hfqo_query::PhysicalPlan;
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn greedy_plans_are_valid() {
        for n in 1..=8 {
            let db = TestDb::chain(n, 500);
            let graph = chain_query(&db, n);
            let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
            let cards = EstimatedCardinality::new(&db.stats);
            let (plan, _) = greedy_plan(&graph, db.db.catalog(), &model, &cards);
            PhysicalPlan::new(plan).validate(&graph).unwrap();
        }
    }

    #[test]
    fn greedy_close_to_dp_on_small_queries() {
        let db = TestDb::chain(5, 1000);
        let graph = chain_query(&db, 5);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (g, _) = greedy_plan(&graph, db.db.catalog(), &model, &cards);
        let (d, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        let gc = model.plan_cost(&graph, &PhysicalPlan::new(g), &cards).total;
        let dc = model.plan_cost(&graph, &PhysicalPlan::new(d), &cards).total;
        assert!(
            dc <= gc * 1.0001,
            "dp {dc} should never lose to greedy {gc}"
        );
        // Greedy should stay within an order of magnitude on easy chains.
        assert!(gc <= dc * 10.0, "greedy {gc} too far from dp {dc}");
    }

    #[test]
    fn greedy_beats_random_on_stars() {
        let db = TestDb::star(6, 2000);
        let graph = star_query(&db, 6);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (g, _) = greedy_plan(&graph, db.db.catalog(), &model, &cards);
        let gc = model.plan_cost(&graph, &PhysicalPlan::new(g), &cards).total;
        let mut rng = StdRng::seed_from_u64(11);
        let mut random_better = 0;
        for _ in 0..30 {
            let (_, rc) = random_plan(&graph, db.db.catalog(), &model, &cards, &mut rng);
            let rc = rc.total;
            if rc < gc {
                random_better += 1;
            }
        }
        // Random may occasionally tie greedy, but not usually.
        assert!(
            random_better <= 3,
            "random beat greedy {random_better}/30 times"
        );
    }
}
