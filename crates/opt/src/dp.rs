//! Selinger-style bottom-up dynamic programming (DPsize, bushy) over a
//! dense table: one slot per connected relation set, found through an
//! index with a word per subset of the query's relations.
//!
//! Each piece of work is done once. A closed size class gets one bitset
//! per relation over its slots, so a left slot finds the connected
//! disjoint sets it can join by OR-ing bitsets, not by testing every set
//! of the class. Each slot counts the join conditions inside its set, so a
//! pair's conditions are a subtraction, not a pass over the edges. And a
//! pair is priced only when [`CostModel::join_cost_floor`] says it could
//! still beat its union's best plan.

use crate::physical::{
    best_access_path, build_join, price_join, price_join_given, Costed, JoinConds,
};
use hfqo_catalog::Catalog;
use hfqo_cost::{CostEstimate, CostModel};
use hfqo_query::{JoinAlgo, PlanNode, QueryGraph, RelSet};
use hfqo_sql::CompareOp;
use hfqo_stats::CardinalitySource;
use std::cmp::Reverse;
use std::ops::Range;

/// The most relations [`dp_plan`] takes: its index holds a word for each
/// subset of the relations (4 MiB at 20).
/// [`TraditionalPlanner`](crate::TraditionalPlanner) plans a larger
/// query greedily, whatever its threshold.
pub(crate) const MAX_RELATIONS: usize = 20;

/// An index entry for a set no slot holds.
const NO_SLOT: u32 = u32::MAX;

/// One connected relation set and the cheapest plan found for it.
struct Slot {
    set: RelSet,
    /// The relations a join edge reaches from the set, so a disjoint set
    /// is connected to it exactly when the two intersect.
    neighbors: RelSet,
    /// The join conditions with both ends in the set.
    conds: JoinConds,
    /// The cheapest plan's estimate. Its `output_rows` are the set's rows,
    /// asked of the cardinality source once, when the slot is made.
    cost: CostEstimate,
    /// The two slots the cheapest plan joins, in the order they were
    /// priced, and the chosen algorithm and side swap; `None` for a base
    /// relation, whose slot index is its relation id.
    join: Option<(u32, u32, JoinAlgo, bool)>,
}

#[cfg(test)]
thread_local! {
    /// How many pairs [`dp_plan`] has visited, and how many of them it
    /// has priced, on this thread.
    static PAIRS: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Finds the cheapest (bushy) join plan by dynamic programming over
/// connected subgraphs, in the style of System R / PostgreSQL's standard
/// join search.
///
/// Sizes grow from 1: each union of two disjoint, connected smaller sets
/// is priced from their slots' estimates and the union's rows, and takes
/// the union's slot when it is new or strictly cheaper. Pairs are tried
/// smaller side first, each side in the order its slots were found; that
/// order breaks cost ties. A pair whose cost floor already reaches the
/// union's best cost is not priced: it could not be strictly cheaper. A
/// slot records only which two slots it joins, so each plan node is built
/// once, at the end, and only for the winner.
///
/// Cross products are only considered when the query graph is
/// disconnected (the leftover components are combined at the end), which
/// matches PostgreSQL's behaviour and keeps the table size manageable.
///
/// Complexity is exponential in the number of relations; callers switch to
/// [`greedy`](crate::greedy) beyond a threshold exactly like PostgreSQL
/// switches to GEQO, and always beyond [`MAX_RELATIONS`].
pub(crate) fn dp_plan<C: CardinalitySource>(
    graph: &QueryGraph,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let n = graph.relation_count();
    debug_assert!((1..=MAX_RELATIONS).contains(&n));
    let conds_within = |set: RelSet| {
        let mut conds = JoinConds::default();
        for edge in graph.joins() {
            if set.contains(edge.left.rel) && set.contains(edge.right.rel) {
                conds.add(edge.op == CompareOp::Eq);
            }
        }
        conds
    };
    let mut table = Table {
        index: vec![NO_SLOT; 1 << n],
        slots: Vec::new(),
        scans: Vec::with_capacity(n),
    };
    // Size 1: best access paths.
    let neighbors = graph.neighbor_masks();
    for rel in graph.all_rels().iter() {
        let (scan, cost) = best_access_path(graph, rel, catalog, model, cards);
        let set = RelSet::single(rel);
        table.push(set, neighbors[rel.index()], conds_within(set), cost, None);
        table.scans.push(scan);
    }
    // Sizes 2..=n: join connected disjoint pairs.
    let mut classes = SizeClasses::new(n);
    classes.close(1, 0..n, &table.slots);
    for size in 2..=n {
        let start = table.slots.len();
        for l_size in 1..=(size / 2) {
            let r_size = size - l_size;
            let lefts = classes.slots(l_size);
            for li in lefts.clone() {
                let (l_set, l_neighbors) = (table.slots[li].set, table.slots[li].neighbors);
                // Between equal sizes a pair's mirror came first and
                // prices the same, so it can never win: skip it.
                let first = if l_size == r_size {
                    li + 1 - lefts.start
                } else {
                    0
                };
                for ri in classes.joinable(r_size, l_set, l_neighbors, first) {
                    count_pair(false);
                    let (l, r) = (&table.slots[li], &table.slots[ri]);
                    let union = l.set.union(r.set);
                    let at = table.index[union.0 as usize];
                    let (rows, conds) = match at {
                        NO_SLOT => (cards.set_rows(graph, union), conds_within(union)),
                        at => {
                            let slot = &table.slots[at as usize];
                            let rows = slot.cost.output_rows;
                            if model.join_cost_floor(l.cost, r.cost, rows) >= slot.cost.total {
                                continue;
                            }
                            (rows, slot.conds)
                        }
                    };
                    let pair_conds = conds.minus(l.conds).minus(r.conds);
                    let (algo, flipped, cost) =
                        price_join_given(pair_conds, l.cost, r.cost, true, rows, model);
                    count_pair(true);
                    let join = Some((li as u32, ri as u32, algo, flipped));
                    if at == NO_SLOT {
                        let neighbors = l.neighbors.union(r.neighbors);
                        table.push(union, neighbors, conds, cost, join);
                    } else {
                        let slot = &mut table.slots[at as usize];
                        if cost.total < slot.cost.total {
                            (slot.cost, slot.join) = (cost, join);
                        }
                    }
                }
            }
        }
        if size < n {
            classes.close(size, start..table.slots.len(), &table.slots);
        }
    }
    match table.index[graph.all_rels().0 as usize] {
        NO_SLOT => combine_components(graph, &table, model, cards),
        full => table.build(graph, full),
    }
}

/// Counts one visited pair, or one priced pair, for the tests that bound
/// how many pairs DP visits and prices.
#[inline]
fn count_pair(_priced: bool) {
    #[cfg(test)]
    PAIRS.with(|pairs| {
        let (visited, priced) = pairs.get();
        pairs.set(match _priced {
            false => (visited + 1, priced),
            true => (visited, priced + 1),
        });
    });
}

/// The closed size classes: each one's slots, in the order they were
/// found, with one bitset per relation over the class's positions (bit
/// `p` of relation `rel`'s bitset is set when the class's `p`-th slot
/// holds `rel`), all in one buffer.
struct SizeClasses {
    /// The query's relation count: each class has that many bitsets.
    n: usize,
    /// Per size, its slots and where its bitsets start in `bits`.
    classes: [(Range<usize>, usize); MAX_RELATIONS],
    bits: Vec<u64>,
}

impl SizeClasses {
    fn new(n: usize) -> Self {
        Self {
            n,
            classes: std::array::from_fn(|_| (0..0, 0)),
            bits: Vec::with_capacity(n * n),
        }
    }

    /// The slots of size-`size` sets.
    fn slots(&self, size: usize) -> Range<usize> {
        self.classes[size].0.clone()
    }

    /// Closes the size-`size` class: `range` of `slots`.
    fn close(&mut self, size: usize, range: Range<usize>, slots: &[Slot]) {
        let (at, words) = (self.bits.len(), range.len().div_ceil(64));
        self.bits.resize(at + self.n * words, 0);
        for (pos, slot) in slots[range.clone()].iter().enumerate() {
            for rel in slot.set.iter() {
                self.bits[at + rel.index() * words + pos / 64] |= 1 << (pos % 64);
            }
        }
        self.classes[size] = (range, at);
    }

    /// The slots of the size-`size` class, from position `first` on,
    /// whose sets are disjoint from `set` and meet `neighbors` (so a join
    /// edge connects the two), in ascending order.
    fn joinable(
        &self,
        size: usize,
        set: RelSet,
        neighbors: RelSet,
        first: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let (slots, at) = &self.classes[size];
        let (base, words) = (slots.start, slots.len().div_ceil(64));
        let bits = &self.bits[*at..*at + self.n * words];
        let reach = neighbors.minus(set);
        (first / 64..words).flat_map(move |w| {
            let column = |rels: RelSet| {
                (rels.iter()).fold(0u64, |acc, rel| acc | bits[rel.index() * words + w])
            };
            let mut word = column(reach) & !column(set);
            if w == first / 64 {
                word &= u64::MAX << (first % 64);
            }
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    base + w * 64 + bit
                })
            })
        })
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
        conds: JoinConds,
        cost: CostEstimate,
        join: Option<(u32, u32, JoinAlgo, bool)>,
    ) {
        self.index[set.0 as usize] = self.slots.len() as u32;
        self.slots.push(Slot {
            set,
            neighbors,
            conds,
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
    use crate::test_support::{chain_query, random_query, star_query, CountingCardinality, TestDb};
    use hfqo_cost::CostParams;
    use hfqo_query::PhysicalPlan;
    use hfqo_stats::EstimatedCardinality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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

    /// The dense table finds the plan, tie-breaks included, and the cost
    /// bits of the DPsize search it replaced, on chains, stars and random
    /// connected and disconnected shapes of up to nine relations, and
    /// sparse ones of ten to twelve. The reference tests every pair of a
    /// size class and prices every connected one, so this holds both the
    /// bitset enumeration and the cost-floor skip to its choices.
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
        let small = (0..300).map(|case| (1 + case % 9, [0.15, 0.3, 0.6, 1.0][case % 4]));
        let sparse = (0..36).map(|case| (10 + case % 3, [0.1, 0.15, 0.2, 0.25][case % 4]));
        for (case, (n, p)) in small.chain(sparse).enumerate() {
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

    /// Each connected set's rows are asked for once, however many pairs
    /// make it; on a disconnected query, each crossing asks once more.
    #[test]
    fn each_sets_rows_are_asked_once() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..40 {
            let graph = random_query(2 + case % 7, [0.3, 1.0][case % 2], &mut rng);
            let cards = CountingCardinality::new(EstimatedCardinality::new(&db.stats));
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

    /// The csg–cmp pairs of `graph`: unordered pairs of disjoint connected
    /// sets that a join edge connects, each a split of a connected union.
    fn csg_cmp_pairs(graph: &QueryGraph) -> usize {
        let n = graph.relation_count();
        let connected: Vec<bool> = (0..1u64 << n)
            .map(|bits| graph.is_connected(RelSet(bits)))
            .collect();
        let mut pairs = 0;
        for union in (1..1u64 << n).filter(|&u| connected[u as usize]) {
            // Each split once: the left part holds the union's lowest bit.
            let low = union & union.wrapping_neg();
            let mut left = (union - 1) & union;
            while left != 0 {
                let right = union & !left;
                if left & low != 0 && connected[left as usize] && connected[right as usize] {
                    pairs += usize::from(graph.sets_connected(RelSet(left), RelSet(right)));
                }
                left = (left - 1) & union;
            }
        }
        pairs
    }

    /// DP visits each csg–cmp pair of the query exactly once, the
    /// smaller side first, and prices no more of them: the cost floor
    /// skips some outright.
    #[test]
    fn dp_prices_at_most_the_csg_cmp_pairs() {
        let db = TestDb::chain(3, 300);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &db.stats);
        let cards = EstimatedCardinality::new(&db.stats);
        let mut rng = StdRng::seed_from_u64(31);
        let (mut priced_total, mut pairs_total) = (0, 0);
        for case in 0..60 {
            let n = 2 + case % 10;
            let graph = random_query(n, [0.2, 0.4, 1.0][case % 3], &mut rng);
            PAIRS.with(|pairs| pairs.set((0, 0)));
            dp_plan(&graph, db.db.catalog(), &model, &cards);
            let (visited, priced) = PAIRS.with(|pairs| pairs.get());
            let pairs = csg_cmp_pairs(&graph);
            assert_eq!(visited, pairs, "case {case}: {graph:?}");
            assert!(
                priced <= pairs,
                "case {case}: {priced} priced, {pairs} pairs"
            );
            (priced_total, pairs_total) = (priced_total + priced, pairs_total + pairs);
        }
        assert!(
            priced_total < pairs_total,
            "the floor skipped no pair: {priced_total} of {pairs_total} priced"
        );
    }
}
