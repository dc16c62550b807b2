//! Selinger-style bottom-up dynamic programming (DPsize, bushy) over a
//! dense table: one slot per connected relation set, found through an
//! index with a word per subset of the query's relations.

use crate::physical::{best_access_path, build_join, price_join, price_join_with_rows, Costed};
use hfqo_catalog::Catalog;
use hfqo_cost::{CostEstimate, CostModel};
use hfqo_query::{JoinAlgo, PlanNode, QueryGraph, RelSet};
use hfqo_stats::CardinalitySource;
use std::cmp::Reverse;
use std::ops::Range;

/// The most relations [`dp_plan`] takes: its index holds a word for each
/// subset of the relations (4 MiB at 20).
/// [`TraditionalPlanner`](crate::TraditionalPlanner) plans a larger
/// query greedily, whatever its threshold.
pub const MAX_RELATIONS: usize = 20;

/// An index entry for a set no slot holds.
const NO_SLOT: u32 = u32::MAX;

/// One connected relation set and the cheapest plan found for it.
struct Slot {
    set: RelSet,
    /// The relations a join edge reaches from the set, so a disjoint set
    /// is connected to it exactly when the two intersect.
    neighbors: RelSet,
    /// The cheapest plan's estimate. Its `output_rows` are the set's rows,
    /// asked of the cardinality source once, when the slot is made.
    cost: CostEstimate,
    /// The two slots the cheapest plan joins, in the order they were
    /// priced, and the chosen algorithm and side swap; `None` for a base
    /// relation, whose slot index is its relation id.
    join: Option<(u32, u32, JoinAlgo, bool)>,
}

/// Finds the cheapest (bushy) join plan by dynamic programming over
/// connected subgraphs, in the style of System R / PostgreSQL's standard
/// join search.
///
/// Sizes grow from 1: each union of two disjoint, connected smaller sets
/// is priced from their slots' estimates and the union's rows, and takes
/// the union's slot when it is new or strictly cheaper. Pairs are tried
/// smaller side first, each side in the order its slots were found; that
/// order breaks cost ties. A slot records only which two slots it joins,
/// so each plan node is built once, at the end, and only for the winner.
///
/// Cross products are only considered when the query graph is
/// disconnected (the leftover components are combined at the end), which
/// matches PostgreSQL's behaviour and keeps the table size manageable.
///
/// Complexity is exponential in the number of relations; callers switch to
/// [`greedy`](crate::greedy) beyond a threshold exactly like PostgreSQL
/// switches to GEQO, and always beyond [`MAX_RELATIONS`].
pub fn dp_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let n = graph.relation_count();
    debug_assert!((1..=MAX_RELATIONS).contains(&n));
    let mut table = Table {
        index: vec![NO_SLOT; 1 << n],
        slots: Vec::new(),
        scans: Vec::with_capacity(n),
    };
    // Size 1: best access paths.
    let neighbors = graph.neighbor_masks();
    for rel in graph.all_rels().iter() {
        let (scan, cost) = best_access_path(graph, rel, catalog, model, cards);
        table.push(RelSet::single(rel), neighbors[rel.index()], cost, None);
        table.scans.push(scan);
    }
    // Sizes 2..=n: join connected disjoint pairs. `by_size[k]` holds the
    // slots of size-k sets, in the order they were found.
    let mut by_size: Vec<Range<usize>> = vec![0..0; n + 1];
    by_size[1] = 0..n;
    for size in 2..=n {
        let start = table.slots.len();
        for l_size in 1..=(size / 2) {
            let r_size = size - l_size;
            for li in by_size[l_size].clone() {
                // Between equal sizes a pair's mirror came first and
                // prices the same, so it can never win: skip it.
                let rights = if l_size == r_size {
                    li + 1..by_size[r_size].end
                } else {
                    by_size[r_size].clone()
                };
                for ri in rights {
                    let (l, r) = (&table.slots[li], &table.slots[ri]);
                    if !l.set.is_disjoint(r.set) || l.neighbors.is_disjoint(r.set) {
                        continue;
                    }
                    let union = l.set.union(r.set);
                    let at = table.index[union.0 as usize];
                    let rows = match at {
                        NO_SLOT => cards.set_rows(graph, union),
                        at => table.slots[at as usize].cost.output_rows,
                    };
                    let (algo, flipped, cost) = price_join_with_rows(
                        graph,
                        (l.set, l.cost),
                        (r.set, r.cost),
                        true,
                        rows,
                        model,
                    );
                    let join = Some((li as u32, ri as u32, algo, flipped));
                    if at == NO_SLOT {
                        let neighbors = l.neighbors.union(r.neighbors);
                        table.push(union, neighbors, cost, join);
                    } else {
                        let slot = &mut table.slots[at as usize];
                        if cost.total < slot.cost.total {
                            (slot.cost, slot.join) = (cost, join);
                        }
                    }
                }
            }
        }
        by_size[size] = start..table.slots.len();
    }
    match table.index[graph.all_rels().0 as usize] {
        NO_SLOT => combine_components(graph, &table, model, cards),
        full => table.build(graph, full),
    }
}

/// The DP table: slots in the order they were found (the base relations
/// first, in relation order), the index from each set to its slot, and
/// the base relations' chosen scans.
struct Table {
    index: Vec<u32>,
    slots: Vec<Slot>,
    scans: Vec<PlanNode>,
}

impl Table {
    fn push(
        &mut self,
        set: RelSet,
        neighbors: RelSet,
        cost: CostEstimate,
        join: Option<(u32, u32, JoinAlgo, bool)>,
    ) {
        self.index[set.0 as usize] = self.slots.len() as u32;
        self.slots.push(Slot {
            set,
            neighbors,
            cost,
            join,
        });
    }

    /// Builds the cheapest plan of slot `at`, following its joins down.
    fn build(&self, graph: &QueryGraph, at: u32) -> Costed {
        let slot = &self.slots[at as usize];
        let Some((l, r, algo, flipped)) = slot.join else {
            return (self.scans[at as usize].clone(), slot.cost);
        };
        let (left, _) = self.build(graph, l);
        let (right, _) = self.build(graph, r);
        let sets = (self.slots[l as usize].set, self.slots[r as usize].set);
        build_join(graph, (algo, flipped, slot.cost), sets, left, right)
    }
}

/// Crosses the maximal connected components, largest first and, among
/// equal sizes, the one holding the lowest relation first.
fn combine_components<C: CardinalitySource>(
    graph: &QueryGraph,
    table: &Table,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    // Every connected subset has a slot, so taking the largest slots that
    // fit what is left takes exactly the components.
    let mut order: Vec<u32> = (0..table.slots.len() as u32).collect();
    order.sort_by_key(|&at| {
        let set = table.slots[at as usize].set;
        (Reverse(set.len()), set.0.trailing_zeros())
    });
    let mut remaining = graph.all_rels();
    order.retain(|&at| {
        let set = table.slots[at as usize].set;
        let fits = remaining.is_superset(set);
        if fits {
            remaining = remaining.minus(set);
        }
        fits
    });
    debug_assert!(remaining.is_empty(), "singletons always cover the rest");
    let mut parts = order.into_iter();
    let first = parts.next().expect("at least one component");
    let mut acc_set = table.slots[first as usize].set;
    let mut acc = table.build(graph, first);
    for at in parts {
        let set = table.slots[at as usize].set;
        let (plan, cost) = table.build(graph, at);
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
    use hfqo_catalog::{ColumnId, TableId};
    use hfqo_cost::CostParams;
    use hfqo_query::{BoundColumn, JoinEdge, Lit, PhysicalPlan, RelId, Relation, Selection};
    use hfqo_sql::CompareOp;
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::HashMap;

    #[test]
    fn dp_plan_is_valid_on_chains() {
        for n in 1..=6 {
            let db = TestDb::chain(n, 1000);
            let graph = chain_query(&db, n);
            let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
            let cards = EstimatedCardinality::new(&db.stats);
            let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
            PhysicalPlan::new(plan).validate(&graph).unwrap();
        }
    }

    #[test]
    fn dp_beats_random_plans() {
        let db = TestDb::chain(6, 2000);
        let graph = chain_query(&db, 6);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
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
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
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
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        PhysicalPlan::new(plan).validate(&graph).unwrap();
    }

    #[test]
    fn single_relation_query() {
        let db = TestDb::chain(1, 100);
        let graph = chain_query(&db, 1);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let (plan, _) = dp_plan(&graph, db.db.catalog(), &model, &cards);
        assert!(matches!(plan, PlanNode::Scan { .. }));
    }

    /// The DPsize search as a map from set to plan: every ordered
    /// same-size-class pair is priced, and the union's plan is rebuilt
    /// from clones of its inputs whenever it is new or strictly cheaper.
    fn reference_dp<C: CardinalitySource>(
        graph: &QueryGraph,
        catalog: &Catalog,
        model: &CostModel<'_>,
        cards: &C,
    ) -> Costed {
        let n = graph.relation_count();
        let mut table: HashMap<RelSet, Costed> = HashMap::new();
        let mut by_size: Vec<Vec<RelSet>> = vec![Vec::new(); n + 1];
        for rel in graph.all_rels().iter() {
            let set = RelSet::single(rel);
            table.insert(set, best_access_path(graph, rel, catalog, model, cards));
            by_size[1].push(set);
        }
        for size in 2..=n {
            let mut found = Vec::new();
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
        let mut parts = entries.into_iter();
        let (mut acc_set, mut acc) = parts.next().expect("at least one component");
        for (set, (plan, cost)) in parts {
            let price = price_join(graph, (acc_set, acc.1), (set, cost), true, model, cards);
            acc = build_join(graph, price, (acc_set, set), acc.0, plan);
            acc_set = acc_set.union(set);
        }
        acc
    }

    /// A random query over `n` relations drawn, with repeats, from the
    /// first three tables of a chain fixture — so equal-cost ties are
    /// common. Each pair is joined with probability `p`, by `=` or,
    /// one time in four, by `<`; a few relations get a selection.
    fn random_query(n: usize, p: f64, rng: &mut StdRng) -> QueryGraph {
        let relations = (0..n)
            .map(|i| Relation {
                table: TableId(rng.gen_range(0..3u32)),
                alias: format!("r{i}"),
            })
            .collect();
        let mut joins = Vec::new();
        for a in 0..n as u32 {
            for b in a + 1..n as u32 {
                if rng.gen_bool(p) {
                    let op = if rng.gen_range(0..4) == 0 {
                        CompareOp::Lt
                    } else {
                        CompareOp::Eq
                    };
                    joins.push(JoinEdge {
                        left: BoundColumn::new(RelId(a), ColumnId(0)),
                        op,
                        right: BoundColumn::new(RelId(b), ColumnId(1)),
                    });
                }
            }
        }
        let mut selections = Vec::new();
        for rel in 0..n as u32 {
            if rng.gen_range(0..3) == 0 {
                selections.push(Selection {
                    column: BoundColumn::new(RelId(rel), ColumnId(0)),
                    op: CompareOp::Lt,
                    value: Lit::Int(rng.gen_range(1..300)),
                });
            }
        }
        QueryGraph::new(relations, joins, selections, vec![], vec![])
    }

    /// The dense table finds the plan, tie-breaks included, and the cost
    /// bits of the DPsize search it replaced, on chains, stars and random
    /// connected and disconnected shapes of up to nine relations.
    #[test]
    fn dense_table_matches_the_reference_search() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let star_db = TestDb::star(7, 2000);
        let star_model = CostModel::new(&CostParams::POSTGRES_LIKE, &star_db.stats);
        let star_cards = EstimatedCardinality::new(&star_db.stats);
        let (star, star_cat) = (star_query(&star_db, 7), star_db.db.catalog());
        let dp = dp_plan(&star, star_cat, &star_model, &star_cards);
        assert_eq!(dp, reference_dp(&star, star_cat, &star_model, &star_cards));
        let mut rng = StdRng::seed_from_u64(17);
        for case in 0..300 {
            let n = 1 + case % 9;
            let p = [0.15, 0.3, 0.6, 1.0][case % 4];
            let graph = random_query(n, p, &mut rng);
            let (plan, cost) = dp_plan(&graph, db.db.catalog(), &model, &cards);
            let (ref_plan, ref_cost) = reference_dp(&graph, db.db.catalog(), &model, &cards);
            assert_eq!(plan, ref_plan, "case {case}: {graph:?}");
            assert_eq!(
                cost.total.to_bits(),
                ref_cost.total.to_bits(),
                "case {case}"
            );
            let recosted = model.node_cost(&graph, &plan, &cards);
            assert_eq!(
                cost.total.to_bits(),
                recosted.total.to_bits(),
                "case {case}"
            );
            PhysicalPlan::new(plan).validate(&graph).unwrap();
        }
    }

    /// A cardinality source that counts how often each set's rows are
    /// asked for.
    struct Counting<'a> {
        inner: EstimatedCardinality<'a>,
        asked: RefCell<HashMap<RelSet, usize>>,
    }

    impl CardinalitySource for Counting<'_> {
        fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64 {
            self.inner.base_rows(graph, rel)
        }

        fn set_rows(&self, graph: &QueryGraph, set: RelSet) -> f64 {
            *self.asked.borrow_mut().entry(set).or_default() += 1;
            self.inner.set_rows(graph, set)
        }
    }

    /// Each connected set's rows are asked for once, however many pairs
    /// make it; on a disconnected query, each crossing asks once more.
    #[test]
    fn each_sets_rows_are_asked_once() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..40 {
            let graph = random_query(2 + case % 7, [0.3, 1.0][case % 2], &mut rng);
            let cards = Counting {
                inner: EstimatedCardinality::new(&db.stats),
                asked: RefCell::default(),
            };
            dp_plan(&graph, db.db.catalog(), &model, &cards);
            let asked = cards.asked.into_inner();
            assert!(asked.values().all(|&times| times == 1), "{asked:?}");
            for bits in 1..1u64 << graph.relation_count() {
                let set = RelSet(bits);
                if set.len() > 1 && graph.is_connected(set) {
                    assert!(asked.contains_key(&set), "case {case}: {set} never asked");
                }
            }
        }
    }
}
