//! Selinger-style bottom-up dynamic programming (DPsize, bushy).

use crate::physical::{best_access_path, build_join, price_join, Costed};
use hfqo_catalog::Catalog;
use hfqo_cost::CostModel;
use hfqo_query::{QueryGraph, RelSet};
use hfqo_stats::CardinalitySource;
use std::cmp::Reverse;
use std::collections::HashMap;

/// Finds the cheapest (bushy) join plan by dynamic programming over
/// connected subgraphs, in the style of System R / PostgreSQL's standard
/// join search.
///
/// A pair is priced from its two table entries' estimates; the union's
/// entry is built, by cloning both inputs, only when new or strictly cheaper.
///
/// Cross products are only considered when the query graph is
/// disconnected (the leftover components are combined at the end), which
/// matches PostgreSQL's behaviour and keeps the table size manageable.
///
/// Complexity is exponential in the number of relations; callers switch to
/// [`greedy`](crate::greedy) beyond a threshold exactly like PostgreSQL
/// switches to GEQO.
pub fn dp_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let n = graph.relation_count();
    debug_assert!(n >= 1);
    let mut table: HashMap<RelSet, Costed> = HashMap::new();
    // Size-1: best access paths.
    let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
    for rel in graph.all_rels().iter() {
        let set = RelSet::single(rel);
        table.insert(set, best_access_path(graph, rel, catalog, model, cards));
        by_size[1].push(set);
    }
    // Sizes 2..=n: combine connected disjoint pairs.
    for size in 2..=n {
        let mut found: Vec<RelSet> = Vec::new();
        for l_size in 1..=(size / 2) {
            for &lset in &by_size[l_size] {
                for &rset in &by_size[size - l_size] {
                    if !lset.is_disjoint(rset) || !graph.sets_connected(lset, rset) {
                        continue;
                    }
                    let union = lset.union(rset);
                    let (lplan, lcost) = &table[&lset];
                    let (rplan, rcost) = &table[&rset];
                    let price =
                        price_join(graph, (lset, *lcost), (rset, *rcost), true, model, cards);
                    if table
                        .get(&union)
                        .is_some_and(|(_, c)| c.total <= price.2.total)
                    {
                        continue;
                    }
                    let entry =
                        build_join(graph, price, (lset, rset), lplan.clone(), rplan.clone());
                    if table.insert(union, entry).is_none() {
                        found.push(union);
                    }
                }
            }
        }
        by_size[size] = found;
    }
    let full = graph.all_rels();
    if let Some(plan) = table.remove(&full) {
        return plan;
    }
    // Disconnected query graph: combine the best plans of the maximal
    // connected components with cross joins.
    combine_components(graph, table, model, cards)
}

/// Crosses the maximal connected components, largest first and, among
/// equal sizes, the one holding the lowest relation first — an order
/// that does not depend on the table's iteration order.
fn combine_components<C: CardinalitySource>(
    graph: &QueryGraph,
    table: HashMap<RelSet, Costed>,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    // Every connected subset has an entry, so taking the largest entries
    // that fit what is left takes exactly the components.
    let mut entries: Vec<(RelSet, Costed)> = table.into_iter().collect();
    entries.sort_by_key(|(set, _)| (Reverse(set.len()), set.0.trailing_zeros()));
    let mut remaining = graph.all_rels();
    entries.retain(|&(set, _)| {
        let fits = remaining.is_superset(set);
        if fits {
            remaining = remaining.minus(set);
        }
        fits
    });
    debug_assert!(remaining.is_empty(), "singletons always cover the rest");
    let mut parts = entries.into_iter();
    let (mut acc_set, mut acc) = parts.next().expect("at least one component");
    for (set, (plan, cost)) in parts {
        let price = price_join(graph, (acc_set, acc.1), (set, cost), true, model, cards);
        acc = build_join(graph, price, (acc_set, set), acc.0, plan);
        acc_set = acc_set.union(set);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_plan;
    use crate::test_support::{chain_query, star_query, TestDb};
    use hfqo_cost::CostParams;
    use hfqo_query::{PhysicalPlan, PlanNode};
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dp_plan_is_valid_on_chains() {
        for n in 1..=6 {
            let db = TestDb::chain(n, 1000);
            let graph = chain_query(&db, n);
            let params = CostParams::default();
            let model = CostModel::new(&params, &db.stats);
            let cards = EstimatedCardinality::new(&db.stats);
            let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
            PhysicalPlan::new(plan).validate(&graph).unwrap();
        }
    }

    #[test]
    fn dp_beats_random_plans() {
        let db = TestDb::chain(6, 2000);
        let graph = chain_query(&db, 6);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (dp, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        let dp_cost = model
            .plan_cost(&graph, &PhysicalPlan::new(dp), &cards)
            .total;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let (_, rnd_cost) = random_plan(&graph, db.db.catalog(), &model, &cards, &mut rng);
            let rnd_cost = rnd_cost.total;
            assert!(
                dp_cost <= rnd_cost * 1.0001,
                "dp {dp_cost} worse than random {rnd_cost}"
            );
        }
    }

    #[test]
    fn dp_handles_star_queries() {
        let db = TestDb::star(5, 1000);
        let graph = star_query(&db, 5);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        PhysicalPlan::new(plan).validate(&graph).unwrap();
    }

    #[test]
    fn dp_handles_disconnected_graph() {
        // Two relations, no join edge: must produce a cross join.
        let db = TestDb::chain(2, 100);
        let mut graph = chain_query(&db, 2);
        graph =
            hfqo_query::QueryGraph::new(graph.relations().to_vec(), vec![], vec![], vec![], vec![]);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        PhysicalPlan::new(plan).validate(&graph).unwrap();
    }

    #[test]
    fn single_relation_query() {
        let db = TestDb::chain(1, 100);
        let graph = chain_query(&db, 1);
        let params = CostParams::default();
        let model = CostModel::new(&params, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        assert!(matches!(plan, PlanNode::Scan { .. }));
    }
}
