//! Access-path and physical-operator selection, with the one join pricer
//! every planner shares: `price_join` prices a pair from its inputs'
//! estimates, and `build_join` builds only the winner, so no subtree is
//! cloned or re-costed to price a join. [`access_paths`] and
//! [`legal_join_algos`] are the one statement of which scans and which
//! join algorithms a plan may use.

use crate::cost::{CostEstimate, CostModel};
use hfqo_query::sql::CompareOp;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PlanNode, QueryGraph, RelId, RelSet};
use hfqo_stats::CardinalitySource;
use hfqo_storage::catalog::{Catalog, ColumnRef};

/// A sub-plan with its cost.
pub type Costed = (PlanNode, CostEstimate);

/// What [`price_join`] chose: the algorithm, whether the inputs swap
/// sides, and the join's cost.
pub(crate) type JoinPrice = (JoinAlgo, bool, CostEstimate);

/// The access paths `rel` may use, in candidate order: a sequential scan,
/// then, per selection predicate, each index that can drive it (every
/// comparison shape except `<>`).
pub fn access_paths<'a>(
    graph: &'a QueryGraph,
    rel: RelId,
    catalog: &'a Catalog,
) -> impl Iterator<Item = AccessPath> + 'a {
    let table = graph.relation(rel).table;
    let index_scans = graph
        .selections_on(rel)
        .filter(move |&sel_idx| graph.selections()[sel_idx].op != CompareOp::Neq)
        .flat_map(move |sel_idx| {
            let col = ColumnRef::new(table, graph.selections()[sel_idx].column.column);
            catalog
                .indexes_on(col)
                .map(move |(index, _)| AccessPath::IndexScan {
                    index,
                    driving_selection: sel_idx,
                })
        });
    std::iter::once(AccessPath::SeqScan).chain(index_scans)
}

/// The `path` scan of `rel`, with its cost.
#[inline]
pub fn build_scan<C: CardinalitySource>(
    graph: &QueryGraph,
    rel: RelId,
    path: AccessPath,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let node = PlanNode::Scan { rel, path };
    let cost = model.node_cost(graph, &node, cards);
    (node, cost)
}

/// Chooses the cheapest of [`access_paths`] for `rel`; the first strict
/// minimum wins.
pub fn best_access_path<C: CardinalitySource>(
    graph: &QueryGraph,
    rel: RelId,
    catalog: &Catalog,
    model: &CostModel<'_>,
    cards: &C,
) -> Costed {
    let mut best: Option<Costed> = None;
    for path in access_paths(graph, rel, catalog) {
        let cand = build_scan(graph, rel, path, model, cards);
        if best.as_ref().is_none_or(|(_, c)| cand.1.total < c.total) {
            best = Some(cand);
        }
    }
    best.expect("a sequential scan is always a candidate")
}

/// Which of [`JoinAlgo::ALL`] may join the inputs over `left` and
/// `right`: a nested loop always; hash and merge only when an `=`
/// condition spans the inputs.
#[inline]
pub fn legal_join_algos(graph: &QueryGraph, left: RelSet, right: RelSet) -> [bool; 3] {
    join_conditions(graph, left, right).legal()
}

/// A count of join conditions, and of the `=` ones among them: all that
/// pricing a join needs to know of its conditions. Counts over disjoint
/// edge sets add and subtract, so the conditions between two disjoint
/// relation sets are the count inside their union minus the counts
/// inside each.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct JoinConds {
    pub(crate) all: u32,
    pub(crate) eq: u32,
}

impl JoinConds {
    /// Adds one condition, an `=` one when `eq`.
    #[inline]
    pub(crate) fn add(&mut self, eq: bool) {
        self.all += 1;
        self.eq += u32::from(eq);
    }

    /// The conditions of `self` that are not in `other`, a subset of it.
    #[inline]
    pub(crate) fn minus(self, other: JoinConds) -> JoinConds {
        JoinConds {
            all: self.all - other.all,
            eq: self.eq - other.eq,
        }
    }

    /// [`legal_join_algos`] for these conditions.
    #[inline]
    fn legal(self) -> [bool; 3] {
        JoinAlgo::ALL.map(|algo| algo == JoinAlgo::NestedLoop || self.eq > 0)
    }
}

/// The join conditions between `left` and `right`, from one pass over
/// the edges.
#[inline]
fn join_conditions(graph: &QueryGraph, left: RelSet, right: RelSet) -> JoinConds {
    let mut conds = JoinConds::default();
    for (_, edge) in graph.edges_between(left, right) {
        conds.add(edge.op == CompareOp::Eq);
    }
    conds
}

/// Prices the cheapest join of two inputs, each given as its relation
/// set and estimate, by [`price_join_given`] of their conditions and
/// their union's rows. The cost has the bits [`CostModel::node_cost`]
/// gives the built join.
#[inline]
pub(crate) fn price_join<C: CardinalitySource>(
    graph: &QueryGraph,
    (left_set, left): (RelSet, CostEstimate),
    (right_set, right): (RelSet, CostEstimate),
    may_flip: bool,
    model: &CostModel<'_>,
    cards: &C,
) -> JoinPrice {
    let out_rows = cards.set_rows(graph, left_set.union(right_set));
    let conds = join_conditions(graph, left_set, right_set);
    price_join_given(conds, left, right, may_flip, out_rows, model)
}

/// Prices the cheapest join of two inputs, given their estimates, the
/// `conds` between them and their union's rows as the cardinality source
/// gives them. Every legal algorithm (a nested loop always; hash and
/// merge when a condition is `=`) is tried, in [`JoinAlgo::ALL`] order,
/// with the sides as given; a hash join, when `may_flip`, is then tried
/// with them swapped. The first strict minimum wins. Nested-loop and
/// merge joins cost the same bits either way round (a property test in
/// [`crate::cost`] holds them to it), so their swap could never win.
#[inline]
pub(crate) fn price_join_given(
    conds: JoinConds,
    left: CostEstimate,
    right: CostEstimate,
    may_flip: bool,
    out_rows: f64,
    model: &CostModel<'_>,
) -> JoinPrice {
    let n_conds = conds.all as usize;
    let mut best: Option<JoinPrice> = None;
    for (algo, legal) in JoinAlgo::ALL.into_iter().zip(conds.legal()) {
        if !legal {
            continue;
        }
        let flips = may_flip && algo == JoinAlgo::Hash;
        let sides: &[bool] = if flips { &[false, true] } else { &[false] };
        for &flipped in sides {
            let (l, r) = if flipped {
                (right, left)
            } else {
                (left, right)
            };
            let cost = model.join_cost(algo, n_conds, l, r, out_rows);
            if best.is_none_or(|(_, _, c)| cost.total < c.total) {
                best = Some((algo, flipped, cost));
            }
        }
    }
    best.expect("nested loop is always legal")
}

/// Builds the join `price` chose for the inputs `left` and `right` (in
/// the order they were priced, over relation sets `sets`), with every
/// join condition between them.
#[inline]
pub(crate) fn build_join(
    graph: &QueryGraph,
    (algo, flipped, cost): JoinPrice,
    sets: (RelSet, RelSet),
    left: PlanNode,
    right: PlanNode,
) -> Costed {
    let (left, right) = if flipped {
        (right, left)
    } else {
        (left, right)
    };
    let node = PlanNode::Join {
        algo,
        conds: graph.joins_between(sets.0, sets.1),
        left: Box::new(left),
        right: Box::new(right),
    };
    (node, cost)
}

/// Whether the query needs an aggregate root.
#[inline]
pub fn needs_aggregate(graph: &QueryGraph) -> bool {
    !graph.aggregates().is_empty() || !graph.group_by().is_empty()
}

/// Wraps `input` in an `algo` aggregate, priced from the input's estimate
/// by [`CostModel::aggregate_cost`].
#[inline]
pub fn build_aggregate(
    graph: &QueryGraph,
    algo: AggAlgo,
    (input, input_cost): Costed,
    model: &CostModel<'_>,
) -> Costed {
    let cost = model.aggregate_cost(algo, !graph.group_by().is_empty(), input_cost);
    let node = PlanNode::Aggregate {
        algo,
        input: Box::new(input),
    };
    (node, cost)
}

/// Wraps `input` in the cheaper aggregation operator when the query
/// [`needs_aggregate`] (the first wins a tie); otherwise returns it
/// unchanged.
#[inline]
pub fn best_aggregate_if_needed(
    graph: &QueryGraph,
    input: Costed,
    model: &CostModel<'_>,
) -> Costed {
    if !needs_aggregate(graph) {
        return input;
    }
    let grouped = !graph.group_by().is_empty();
    let cost = |algo| model.aggregate_cost(algo, grouped, input.1).total;
    let cheaper = |best, algo| if cost(algo) < cost(best) { algo } else { best };
    let algo = AggAlgo::ALL
        .into_iter()
        .reduce(cheaper)
        .expect("two candidates");
    build_aggregate(graph, algo, input, model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostParams;
    use hfqo_query::{BoundColumn, JoinEdge, Lit, Relation, Selection};
    use hfqo_stats::{ColumnStats, EstimatedCardinality, Histogram, StatsCatalog, TableStats};
    use hfqo_storage::catalog::{Column, ColumnId, ColumnStatsMeta, ColumnType, TableSchema};

    fn setup() -> (Catalog, StatsCatalog, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![
                    Column::new("id", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![Column::new("a_id", ColumnType::Int)],
            ))
            .unwrap();
        cat.add_index("a_id_idx", a, ColumnId(0), true).unwrap();
        let col = |ndv: f64, max: f64| ColumnStats {
            meta: ColumnStatsMeta {
                ndv,
                min: 0.0,
                max,
                null_frac: 0.0,
            },
            histogram: Histogram::build((0..200).map(|i| max * (i as f64) / 199.0).collect(), 20),
            mcvs: vec![],
        };
        let stats = StatsCatalog::new(vec![
            TableStats {
                row_count: 100_000.0,
                row_width: 16.0,
                columns: vec![col(100_000.0, 99_999.0), col(100.0, 99.0)],
            },
            TableStats {
                row_count: 1_000.0,
                row_width: 8.0,
                columns: vec![col(1_000.0, 99_999.0)],
            },
        ]);
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                value: Lit::Int(42),
            }],
            vec![],
            vec![],
        );
        (cat, stats, graph)
    }

    /// Prices and builds the cheapest join of two inputs, either side
    /// order allowed.
    fn join_either_way(
        graph: &QueryGraph,
        (l, lc): Costed,
        (r, rc): Costed,
        model: &CostModel<'_>,
        cards: &EstimatedCardinality<'_>,
    ) -> Costed {
        let sets = (l.rel_set(), r.rel_set());
        let price = price_join(graph, (sets.0, lc), (sets.1, rc), true, model, cards);
        build_join(graph, price, sets, l, r)
    }

    #[test]
    fn selective_predicate_picks_index_scan() {
        let (cat, stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let (node, _) = best_access_path(&graph, RelId(0), &cat, &model, &cards);
        assert!(
            matches!(
                node,
                PlanNode::Scan {
                    path: AccessPath::IndexScan { .. },
                    ..
                }
            ),
            "expected index scan, got {node:?}"
        );
    }

    /// The `<>` predicate on an indexed column gets no index scan; the
    /// range predicate beside it does.
    #[test]
    fn neq_predicate_gets_no_index_scan() {
        let (cat, _, graph) = setup();
        let on_id = |op| Selection {
            column: BoundColumn::new(RelId(0), ColumnId(0)),
            op,
            value: Lit::Int(42),
        };
        let graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![on_id(CompareOp::Neq), on_id(CompareOp::Lt)],
            vec![],
            vec![],
        );
        let paths: Vec<AccessPath> = access_paths(&graph, RelId(0), &cat).collect();
        assert_eq!(paths.len(), 2, "{paths:?}");
        assert!(matches!(paths[0], AccessPath::SeqScan));
        assert!(matches!(
            paths[1],
            AccessPath::IndexScan {
                driving_selection: 1,
                ..
            }
        ));
    }

    #[test]
    fn relation_without_index_uses_seq_scan() {
        let (cat, stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let (node, _) = best_access_path(&graph, RelId(1), &cat, &model, &cards);
        assert!(matches!(
            node,
            PlanNode::Scan {
                path: AccessPath::SeqScan,
                ..
            }
        ));
    }

    #[test]
    fn best_join_picks_an_equality_algorithm_on_large_inputs() {
        let (cat, stats, graph) = setup();
        // Drop the pk selection: both inputs stay large, so the quadratic
        // nested loop must lose to hash/merge.
        let graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![],
            vec![],
            vec![],
        );
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let l = best_access_path(&graph, RelId(0), &cat, &model, &cards);
        let r = best_access_path(&graph, RelId(1), &cat, &model, &cards);
        let (join, cost) = join_either_way(&graph, l, r, &model, &cards);
        match &join {
            PlanNode::Join { algo, conds, .. } => {
                assert_ne!(*algo, JoinAlgo::NestedLoop);
                assert_eq!(conds, &vec![0]);
            }
            other => panic!("expected join, got {other:?}"),
        }
        assert!(cost.total > 0.0);
        let recursive = model.node_cost(&graph, &join, &cards);
        assert_eq!(cost.total.to_bits(), recursive.total.to_bits());
    }

    #[test]
    fn tiny_outer_prefers_nested_loop() {
        // With the pk equality selection, relation a shrinks to ~1 row and
        // the nested loop becomes the cheapest strategy — the classic
        // reason real optimizers keep NLJ around.
        let (cat, stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let l = best_access_path(&graph, RelId(0), &cat, &model, &cards);
        let r = best_access_path(&graph, RelId(1), &cat, &model, &cards);
        let (join, _) = join_either_way(&graph, l, r, &model, &cards);
        assert!(matches!(
            join,
            PlanNode::Join {
                algo: JoinAlgo::NestedLoop,
                ..
            }
        ));
    }

    #[test]
    fn aggregate_added_only_when_needed() {
        let (cat, stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let scan = best_access_path(&graph, RelId(0), &cat, &model, &cards);
        let unchanged = best_aggregate_if_needed(&graph, scan.clone(), &model);
        assert_eq!(unchanged, scan);

        let agg_graph = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            graph.selections().to_vec(),
            vec![hfqo_query::AggExpr {
                func: hfqo_query::sql::AggFunc::Count,
                column: None,
            }],
            vec![],
        );
        let (wrapped, cost) = best_aggregate_if_needed(&agg_graph, scan, &model);
        assert!(matches!(wrapped, PlanNode::Aggregate { .. }));
        let recursive = model.node_cost(&agg_graph, &wrapped, &cards);
        assert_eq!(cost.total.to_bits(), recursive.total.to_bits());
    }

    /// The candidate order: a nested loop prices alike with the sides as
    /// given and swapped, and the as-given sides win that tie; fixed
    /// sides are never swapped, even when swapping is cheaper.
    #[test]
    fn ties_keep_the_given_sides_and_fixed_sides_never_flip() {
        let (cat, stats, graph) = setup();
        let cross = QueryGraph::new(graph.relations().to_vec(), vec![], vec![], vec![], vec![]);
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let cards = EstimatedCardinality::new(&stats);
        let scan = |g: &QueryGraph, rel: u32| {
            let (node, cost) = best_access_path(g, RelId(rel), &cat, &model, &cards);
            (node.rel_set(), cost)
        };
        for (l, r) in [(0, 1), (1, 0)] {
            let price = price_join(
                &cross,
                scan(&cross, l),
                scan(&cross, r),
                true,
                &model,
                &cards,
            );
            assert_eq!((price.0, price.1), (JoinAlgo::NestedLoop, false));
        }
        // Hashing the large `a` (the right input) loses to hashing `b`.
        let equi = QueryGraph::new(
            graph.relations().to_vec(),
            graph.joins().to_vec(),
            vec![],
            vec![],
            vec![],
        );
        let (big, small) = (scan(&equi, 0), scan(&equi, 1));
        let flippable = price_join(&equi, small, big, true, &model, &cards);
        assert!(flippable.1, "swapping is cheaper here");
        let fixed = price_join(&equi, small, big, false, &model, &cards);
        assert!(!fixed.1);
        assert!(fixed.2.total > flippable.2.total);
    }
}
