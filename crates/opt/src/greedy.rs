//! Greedy bottom-up join ordering (the beyond-threshold fallback).
//!
//! Each step scans every pair of the [`PlanForest`]'s slots. Whether a
//! pair is connected is a bit test on the forest's adjacency masks, and a
//! pair is priced from its inputs' estimates and its union's rows, once:
//! a merge leaves every other slot as it was, so a pair's price is kept
//! until one of its slots is merged away. The expert hands in a
//! [`hfqo_stats::QueryCardinality`], so those rows are products of
//! factors looked up once per query.

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
/// PostgreSQL. Each step scans the pairs `i < j`, `i` on the left, and
/// takes the first strict minimum; the [`PlanForest`] builds only the
/// merge taken. A pair is priced the first time the scan needs it, so a
/// run prices O(n²) pairs in all, not per step.
pub(crate) fn greedy_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let mut forest = PlanForest::best_access_paths(graph, catalog, model, cards);
    let mut prices = PriceCache::new(forest.len());
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
                let price = prices.get_or_price(i, j, || forest.price(i, j, true, model, cards));
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
        prices.merge(i, j);
    }
    forest.take_root()
}

/// The prices of the pairs of a [`PlanForest`]'s slots, kept across its
/// merges. Each slot holds a lane, a stable id that follows it as
/// [`PlanForest::merge`] moves it; the merged slot takes its left input's
/// lane, so a forest of `n` leaves needs `n` lanes and an `n × n` table.
/// Slots keep their relative order, so a pair's lower slot is always the
/// same one and indexes the table's row.
struct PriceCache {
    /// Each slot's lane, in slot order.
    lanes: Vec<usize>,
    /// The price of the pair in lanes `(a, b)`, at `a * width + b`, once
    /// priced.
    prices: Vec<Option<JoinPrice>>,
    width: usize,
}

impl PriceCache {
    fn new(width: usize) -> Self {
        Self {
            lanes: (0..width).collect(),
            prices: vec![None; width * width],
            width,
        }
    }

    /// The price of slots `i < j`, from `price` the first time it is asked.
    #[inline]
    fn get_or_price(&mut self, i: usize, j: usize, price: impl FnOnce() -> JoinPrice) -> JoinPrice {
        let cell = self.lanes[i] * self.width + self.lanes[j];
        *self.prices[cell].get_or_insert_with(price)
    }

    /// Follows [`PlanForest::merge`] of slots `i < j`: both leave, and the
    /// merged slot, appended, takes `i`'s lane with none of its prices.
    fn merge(&mut self, i: usize, j: usize) {
        debug_assert!(i < j, "greedy merges a pair in slot order");
        self.lanes.remove(j);
        let lane = self.lanes.remove(i);
        for other in 0..self.width {
            self.prices[lane * self.width + other] = None;
            self.prices[other * self.width + lane] = None;
        }
        self.lanes.push(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_plan;
    use crate::random::random_plan;
    use crate::test_support::{chain_query, random_query, star_query, CountingCardinality, TestDb};
    use hfqo_cost::CostParams;
    use hfqo_query::PhysicalPlan;
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Greedy as it was before prices were kept across steps: every step
    /// prices every pair the scan reaches.
    fn reference_greedy<C: CardinalitySource>(
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
                    if best.is_some_and(|(.., best_conn)| best_conn && !connected) {
                        continue;
                    }
                    let price = forest.price(i, j, true, model, cards);
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

    /// Keeping prices across steps moves no plan and no cost bit: on
    /// random, tie-heavy graphs of 2–17 relations, disconnected ones
    /// included, greedy plans as the rescanning reference does.
    #[test]
    fn kept_prices_match_the_rescanning_reference() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let mut rng = StdRng::seed_from_u64(23);
        for case in 0..320 {
            let n = 2 + case % 16;
            let p = [0.05, 0.15, 0.3, 0.7][case % 4];
            let graph = random_query(n, p, &mut rng);
            let (plan, cost) = greedy_plan(&graph, db.db.catalog(), &model, &cards);
            let (ref_plan, ref_cost) = reference_greedy(&graph, db.db.catalog(), &model, &cards);
            assert_eq!(plan, ref_plan, "case {case}: {graph:?}");
            assert_eq!(
                cost.total.to_bits(),
                ref_cost.total.to_bits(),
                "case {case}"
            );
            PhysicalPlan::new(plan).validate(&graph).unwrap();
        }
    }

    /// In one greedy run every union's rows are asked for at most once.
    /// The forest's slots form a laminar family, so two distinct pairs
    /// have distinct unions: a union asked twice is a pair priced twice.
    #[test]
    fn each_pair_is_priced_once() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let mut rng = StdRng::seed_from_u64(29);
        for case in 0..64 {
            let graph = random_query(2 + case % 16, [0.1, 0.3][case % 2], &mut rng);
            let cards = CountingCardinality::new(EstimatedCardinality::new(&db.stats));
            greedy_plan(&graph, db.db.catalog(), &model, &cards);
            let asked = cards.asked.into_inner();
            assert!(
                asked.values().all(|&times| times == 1),
                "case {case}: {asked:?}"
            );
        }
    }

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
