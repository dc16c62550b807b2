//! Cardinality estimation.

use crate::column_stats::TableStats;
use crate::selectivity::{selection_selectivity, DEFAULT_RANGE_SELECTIVITY};
use hfqo_catalog::TableId;
use hfqo_query::{QueryGraph, RelId, RelSet};
use hfqo_sql::CompareOp;

/// Statistics for every table of a database, indexed by [`TableId`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatsCatalog {
    tables: Vec<TableStats>,
}

impl StatsCatalog {
    /// Wraps per-table statistics (position `i` belongs to `TableId(i)`).
    pub fn new(tables: Vec<TableStats>) -> Self {
        Self { tables }
    }

    /// Statistics for one table.
    ///
    /// Panics if the id is out of range; stats catalogs are always built
    /// from the same catalog the ids come from.
    pub fn table(&self, id: TableId) -> &TableStats {
        &self.tables[id.index()]
    }

    /// Replaces one table's statistics (a re-scan after its data
    /// moved). Panics if the id is out of range, as [`Self::table`] does.
    pub fn set_table(&mut self, id: TableId, stats: TableStats) {
        self.tables[id.index()] = stats;
    }

    /// Number of tables covered.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }
}

/// A source of cardinalities for plan costing.
///
/// Two implementations exist: [`EstimatedCardinality`] (histograms +
/// independence assumptions — what the traditional optimizer uses) and the
/// execution-backed `TrueCardinality` oracle in `hfqo-exec` (what the
/// latency model uses). The cost model is generic over this trait, which is
/// exactly the lever the paper's §5.2 pulls: the same cost formulas driven
/// by estimated vs true cardinalities produce the cost-vs-latency gap.
pub trait CardinalitySource {
    /// Rows produced by scanning `rel` and applying all its selections.
    fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64;

    /// Rows produced by joining the relations of `set` (with all
    /// selections on those relations and all join edges within `set`
    /// applied).
    fn set_rows(&self, graph: &QueryGraph, set: RelSet) -> f64;
}

/// Histogram-based estimator with the classic independence assumptions.
#[derive(Debug, Clone, Copy)]
pub struct EstimatedCardinality<'a> {
    stats: &'a StatsCatalog,
}

impl<'a> EstimatedCardinality<'a> {
    /// Creates an estimator over a stats catalog.
    pub fn new(stats: &'a StatsCatalog) -> Self {
        Self { stats }
    }

    /// The underlying stats catalog.
    pub fn stats(&self) -> &'a StatsCatalog {
        self.stats
    }

    /// Estimated selectivity of join edge `edge_idx` of `graph`.
    ///
    /// Equijoins use the textbook `1 / max(ndv_left, ndv_right)`; other
    /// comparison joins fall back to the default inequality selectivity.
    pub fn edge_selectivity(&self, graph: &QueryGraph, edge_idx: usize) -> f64 {
        let edge = &graph.joins()[edge_idx];
        match edge.op {
            CompareOp::Eq => {
                let lt = graph.relation(edge.left.rel).table;
                let rt = graph.relation(edge.right.rel).table;
                let l_ndv = self
                    .stats
                    .table(lt)
                    .columns
                    .get(edge.left.column.index())
                    .map_or(1.0, |c| c.meta.ndv);
                let r_ndv = self
                    .stats
                    .table(rt)
                    .columns
                    .get(edge.right.column.index())
                    .map_or(1.0, |c| c.meta.ndv);
                1.0 / l_ndv.max(r_ndv).max(1.0)
            }
            CompareOp::Neq => 1.0,
            _ => DEFAULT_RANGE_SELECTIVITY,
        }
    }

    /// Estimated selectivity product of all selections on `rel`.
    pub fn selection_selectivity_of(&self, graph: &QueryGraph, rel: RelId) -> f64 {
        graph
            .selections_on(rel)
            .map(|i| selection_selectivity(self.stats, graph, &graph.selections()[i]))
            .product()
    }
}

impl CardinalitySource for EstimatedCardinality<'_> {
    fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64 {
        let table = graph.relation(rel).table;
        let rows = self.stats.table(table).row_count;
        (rows * self.selection_selectivity_of(graph, rel)).max(1.0)
    }

    fn set_rows(&self, graph: &QueryGraph, set: RelSet) -> f64 {
        let mut rows = 1.0;
        for rel in set.iter() {
            rows *= self.base_rows(graph, rel);
        }
        for (i, edge) in graph.joins().iter().enumerate() {
            if set.contains(edge.left.rel) && set.contains(edge.right.rel) {
                rows *= self.edge_selectivity(graph, i);
            }
        }
        rows.max(1.0)
    }
}

/// [`EstimatedCardinality`] memoised for one query: every relation's
/// `base_rows` and every join edge's selectivity, looked up once when the
/// memo is built. [`Self::rows`] multiplies them in
/// [`EstimatedCardinality::set_rows`]'s order — relations ascending, then
/// edges in the graph's order — so every row count has the estimator's
/// bits. A planner builds one per (query, estimator) and prices every set
/// it meets from it; the memo answers only for the graph it was built
/// from, which [`Self::rows`] takes as read.
#[derive(Debug, Clone)]
pub struct QueryCardinality {
    /// The relation count: `factors` holds the relations' first.
    relations: usize,
    /// Every factor of a set's rows, in one allocation: each relation's
    /// `base_rows` at its index (beside its singleton, so relations and
    /// edges share a layout), then each join edge's selectivity beside
    /// its endpoints, in the graph's order.
    factors: Vec<(RelSet, f64)>,
}

impl QueryCardinality {
    /// Looks up `graph`'s factors in `est`.
    pub fn new(graph: &QueryGraph, est: &EstimatedCardinality<'_>) -> Self {
        let relations = graph.all_rels().iter();
        let relations = relations.map(|rel| (RelSet::single(rel), est.base_rows(graph, rel)));
        let edges = graph.joins().iter().enumerate().map(|(i, edge)| {
            let ends = RelSet::single(edge.left.rel).union(RelSet::single(edge.right.rel));
            (ends, est.edge_selectivity(graph, i))
        });
        Self {
            relations: graph.relation_count(),
            factors: relations.chain(edges).collect(),
        }
    }

    /// [`CardinalitySource::set_rows`] of the memo's own graph: the
    /// product of the factors whose relations `set` holds.
    #[inline]
    pub fn rows(&self, set: RelSet) -> f64 {
        let (relations, edges) = self.factors.split_at(self.relations);
        let mut rows = 1.0;
        for rel in set.iter() {
            rows *= relations[rel.index()].1;
        }
        for &(ends, selectivity) in edges {
            if set.is_superset(ends) {
                rows *= selectivity;
            }
        }
        rows.max(1.0)
    }

    /// Catches a memo asked about a graph other than its own, as far as
    /// the relation and edge counts tell.
    #[inline]
    fn debug_check(&self, graph: &QueryGraph) {
        let edges = self.factors.len() - self.relations;
        debug_assert!(
            graph.relation_count() == self.relations && graph.joins().len() == edges,
            "a memo of {} relations and {edges} edges asked about a graph of {} and {}",
            self.relations,
            graph.relation_count(),
            graph.joins().len(),
        );
    }
}

impl CardinalitySource for QueryCardinality {
    #[inline]
    fn base_rows(&self, graph: &QueryGraph, rel: RelId) -> f64 {
        self.debug_check(graph);
        self.factors[rel.index()].1
    }

    #[inline]
    fn set_rows(&self, graph: &QueryGraph, set: RelSet) -> f64 {
        self.debug_check(graph);
        self.rows(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column_stats::{ColumnStats, TableStats};
    use hfqo_catalog::{ColumnId, ColumnStatsMeta};
    use hfqo_query::{BoundColumn, JoinEdge, Lit, Relation, Selection};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn col(ndv: f64, min: f64, max: f64) -> ColumnStats {
        ColumnStats {
            meta: ColumnStatsMeta {
                ndv,
                min,
                max,
                null_frac: 0.0,
            },
            histogram: crate::Histogram::build(
                (0..100)
                    .map(|i| min + (max - min) * (i as f64) / 99.0)
                    .collect(),
                10,
            ),
            mcvs: vec![],
        }
    }

    /// Two tables: `a` (1000 rows, pk 0..1000) and `b` (10000 rows, fk into a).
    fn setup() -> (StatsCatalog, QueryGraph) {
        let a = TableStats {
            row_count: 1000.0,
            row_width: 16.0,
            columns: vec![col(1000.0, 0.0, 999.0), col(10.0, 0.0, 9.0)],
        };
        let b = TableStats {
            row_count: 10000.0,
            row_width: 16.0,
            columns: vec![col(1000.0, 0.0, 999.0), col(100.0, 0.0, 99.0)],
        };
        let stats = StatsCatalog::new(vec![a, b]);
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: TableId(0),
                    alias: "a".into(),
                },
                Relation {
                    table: TableId(1),
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![Selection {
                column: BoundColumn::new(RelId(1), ColumnId(1)),
                op: CompareOp::Eq,
                value: Lit::Int(5),
            }],
            vec![],
            vec![],
        );
        (stats, graph)
    }

    #[test]
    fn base_rows_apply_selections() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        assert_eq!(est.base_rows(&graph, RelId(0)), 1000.0);
        // b has an equality selection on a 100-ndv column: ~1% of 10000.
        let b = est.base_rows(&graph, RelId(1));
        assert!((b - 100.0).abs() < 20.0, "got {b}");
    }

    #[test]
    fn equijoin_uses_max_ndv() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        let sel = est.edge_selectivity(&graph, 0);
        assert!((sel - 0.001).abs() < 1e-9);
    }

    #[test]
    fn set_rows_combine_edges_and_selections() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        let both = est.set_rows(&graph, RelSet::full(2));
        // 1000 * ~100 * 0.001 = ~100.
        assert!((both - 100.0).abs() < 30.0, "got {both}");
        // Single-relation sets match base_rows.
        assert_eq!(
            est.set_rows(&graph, RelSet::single(RelId(0))),
            est.base_rows(&graph, RelId(0))
        );
    }

    #[test]
    fn cross_join_has_no_edge_reduction() {
        let (stats, mut graph) = setup();
        // Remove the join edge: set_rows becomes the full product.
        graph = QueryGraph::new(
            graph.relations().to_vec(),
            vec![],
            graph.selections().to_vec(),
            vec![],
            vec![],
        );
        let est = EstimatedCardinality::new(&stats);
        let both = est.set_rows(&graph, RelSet::full(2));
        assert!(both > 50_000.0, "got {both}");
    }

    #[test]
    fn rows_never_below_one() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        assert!(est.set_rows(&graph, RelSet::full(2)) >= 1.0);
    }

    /// A query over `n` two-column tables of random sizes: a chain, a
    /// star, a cycle, or two chains with no edge between them. Edges mix
    /// `=`, `<` and `<>` over columns of random ndv; about a third of the
    /// relations carry a selection.
    fn random_graph(shape: u8, n: usize, rng: &mut StdRng) -> (StatsCatalog, QueryGraph) {
        let tables = (0..n)
            .map(|_| {
                let rows = rng.gen_range(1.0..50_000.0f64).round();
                TableStats {
                    row_count: rows,
                    row_width: 16.0,
                    columns: vec![
                        col(rng.gen_range(1.0..rows + 1.0).round(), 0.0, 999.0),
                        col(rng.gen_range(1.0..200.0f64).round(), 0.0, 99.0),
                    ],
                }
            })
            .collect();
        let relations = (0..n)
            .map(|i| Relation {
                table: TableId(i as u32),
                alias: format!("t{i}"),
            })
            .collect();
        let pairs: Vec<(usize, usize)> = match shape % 4 {
            0 => (1..n).map(|i| (i - 1, i)).collect(),
            1 => (1..n).map(|i| (0, i)).collect(),
            2 => (1..n)
                .map(|i| (i - 1, i))
                .chain((n > 2).then_some((n - 1, 0)))
                .collect(),
            _ => (1..n).filter(|&i| i != n / 2).map(|i| (i - 1, i)).collect(),
        };
        let ops = [CompareOp::Eq, CompareOp::Eq, CompareOp::Lt, CompareOp::Neq];
        let joins = (pairs.into_iter())
            .map(|(l, r)| JoinEdge {
                left: BoundColumn::new(RelId(l as u32), ColumnId(rng.gen_range(0..2u32))),
                op: ops[rng.gen_range(0..ops.len())],
                right: BoundColumn::new(RelId(r as u32), ColumnId(rng.gen_range(0..2u32))),
            })
            .collect();
        let ops = [CompareOp::Eq, CompareOp::Lt, CompareOp::Ge];
        let mut selections = Vec::new();
        for i in 0..n {
            if rng.gen_range(0..3u32) == 0 {
                selections.push(Selection {
                    column: BoundColumn::new(RelId(i as u32), ColumnId(1)),
                    op: ops[rng.gen_range(0..ops.len())],
                    value: Lit::Int(rng.gen_range(0..100)),
                });
            }
        }
        let graph = QueryGraph::new(relations, joins, selections, vec![], vec![]);
        (StatsCatalog::new(tables), graph)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The memo gives the estimator's bits for every relation and for
        /// every subset of the relations, connected or not.
        #[test]
        fn memo_has_the_estimators_bits_on_every_subset(
            shape in 0u8..4,
            n in 1usize..=10,
            seed in 0u64..1_000_000,
        ) {
            let (stats, graph) = random_graph(shape, n, &mut StdRng::seed_from_u64(seed));
            let est = EstimatedCardinality::new(&stats);
            let memo = QueryCardinality::new(&graph, &est);
            for rel in graph.all_rels().iter() {
                prop_assert_eq!(
                    memo.base_rows(&graph, rel).to_bits(),
                    est.base_rows(&graph, rel).to_bits()
                );
            }
            for bits in 1..1u64 << n {
                let set = RelSet(bits);
                prop_assert_eq!(
                    memo.set_rows(&graph, set).to_bits(),
                    est.set_rows(&graph, set).to_bits(),
                    "{:?}",
                    set
                );
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a memo of 2 relations and 1 edges")]
    fn memo_catches_another_graph() {
        let (stats, graph) = setup();
        let memo = QueryCardinality::new(&graph, &EstimatedCardinality::new(&stats));
        let other = QueryGraph::new(graph.relations().to_vec(), vec![], vec![], vec![], vec![]);
        memo.set_rows(&other, RelSet::full(2));
    }
}
