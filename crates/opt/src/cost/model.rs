//! The analytic plan cost model.

use super::params::CostParams;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PhysicalPlan, PlanNode, QueryGraph, RelSet};
use hfqo_stats::{selection_selectivity, CardinalitySource, StatsCatalog};

/// Cost and output cardinality of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Total cost in abstract planner units.
    pub total: f64,
    /// Estimated rows produced.
    pub output_rows: f64,
}

/// The cost model: parameters + physical table statistics, generic at call
/// time over the cardinality source.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    params: &'a CostParams,
    stats: &'a StatsCatalog,
}

impl<'a> CostModel<'a> {
    /// Creates a cost model.
    pub fn new(params: &'a CostParams, stats: &'a StatsCatalog) -> Self {
        Self { params, stats }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &CostParams {
        self.params
    }

    /// Costs a full plan.
    pub fn plan_cost<C: CardinalitySource>(
        &self,
        graph: &QueryGraph,
        plan: &PhysicalPlan,
        cards: &C,
    ) -> CostEstimate {
        self.node_cost(graph, &plan.root, cards)
    }

    /// Costs one plan node (recursively).
    pub fn node_cost<C: CardinalitySource>(
        &self,
        graph: &QueryGraph,
        node: &PlanNode,
        cards: &C,
    ) -> CostEstimate {
        let p = self.params;
        match node {
            PlanNode::Scan { rel, path } => {
                let table = graph.relation(*rel).table;
                let tstats = self.stats.table(table);
                let raw_rows = tstats.row_count.max(1.0);
                let out_rows = cards.base_rows(graph, *rel);
                let n_sels = graph.selections_on(*rel).count() as f64;
                match path {
                    AccessPath::SeqScan => {
                        let total = tstats.pages() * p.seq_page_cost
                            + raw_rows * p.cpu_tuple_cost
                            + raw_rows * n_sels * p.cpu_operator_cost;
                        CostEstimate {
                            total,
                            output_rows: out_rows,
                        }
                    }
                    AccessPath::IndexScan {
                        driving_selection, ..
                    } => {
                        // Rows matched by the driving predicate alone.
                        let driving_sel = selection_selectivity(
                            self.stats,
                            graph,
                            &graph.selections()[*driving_selection],
                        );
                        let matched = (raw_rows * driving_sel).max(1.0);
                        let descend = (raw_rows + 1.0).log2().max(1.0) * p.cpu_operator_cost;
                        // Heap fetches: one random page per matched row,
                        // capped at the table size (uncorrelated index).
                        let fetches = matched.min(tstats.pages());
                        let residual_ops = (n_sels - 1.0).max(0.0);
                        let total = descend
                            + matched * p.cpu_index_tuple_cost
                            + fetches * p.random_page_cost
                            + matched * p.cpu_tuple_cost
                            + matched * residual_ops * p.cpu_operator_cost;
                        CostEstimate {
                            total,
                            output_rows: out_rows,
                        }
                    }
                }
            }
            PlanNode::Join {
                algo,
                conds,
                left,
                right,
            } => {
                let l = self.node_cost(graph, left, cards);
                let r = self.node_cost(graph, right, cards);
                let out_set: RelSet = left.rel_set().union(right.rel_set());
                let out_rows = cards.set_rows(graph, out_set);
                self.join_cost(*algo, conds.len(), l, r, out_rows)
            }
            PlanNode::Aggregate { algo, input } => {
                let i = self.node_cost(graph, input, cards);
                self.aggregate_cost(*algo, !graph.group_by().is_empty(), i)
            }
        }
    }

    /// Costs one join from its inputs' estimates: `algo` over `n_conds`
    /// join conditions, producing `out_rows`. This is the whole of
    /// [`Self::node_cost`]'s join arm, so a caller that already holds
    /// the two input estimates prices a join without walking (or
    /// cloning) the subtrees — and gets the bits the recursion gives.
    /// (`#[inline]`: `node_cost` is generic and instantiated in its
    /// callers' crates; its arms stay inline there.)
    #[inline]
    pub fn join_cost(
        &self,
        algo: JoinAlgo,
        n_conds: usize,
        left: CostEstimate,
        right: CostEstimate,
        out_rows: f64,
    ) -> CostEstimate {
        let p = self.params;
        let (l, r) = (left, right);
        let n_conds = n_conds.max(1) as f64;
        let join_work = match algo {
            JoinAlgo::NestedLoop => {
                // Inner is materialised once; the quadratic term is
                // the pairwise predicate evaluation.
                l.output_rows * r.output_rows * n_conds * p.cpu_operator_cost
            }
            JoinAlgo::Hash => {
                r.output_rows * p.hash_build_factor * p.cpu_operator_cost
                    + l.output_rows * n_conds * p.cpu_operator_cost
            }
            JoinAlgo::Merge => {
                let sort =
                    |n: f64| n.max(2.0) * n.max(2.0).log2() * p.sort_factor * p.cpu_operator_cost;
                sort(l.output_rows)
                    + sort(r.output_rows)
                    + (l.output_rows + r.output_rows) * p.cpu_operator_cost
            }
        };
        CostEstimate {
            total: l.total + r.total + join_work + out_rows * p.cpu_tuple_cost,
            output_rows: out_rows,
        }
    }

    /// A floor under every [`Self::join_cost`] of `left` and `right`
    /// producing `out_rows`, whatever the algorithm, condition count or
    /// side order: `join_cost` adds a non-negative join work to this same
    /// sum (every [`CostParams`] factor is non-negative), and IEEE
    /// rounding is monotone, so no join of the two can cost less. A
    /// search that keeps a candidate only when strictly cheaper than the
    /// best so far may skip pricing a pair whose floor is not.
    #[inline]
    pub(crate) fn join_cost_floor(
        &self,
        left: CostEstimate,
        right: CostEstimate,
        out_rows: f64,
    ) -> f64 {
        left.total + right.total + out_rows * self.params.cpu_tuple_cost
    }

    /// Costs one aggregate from its input's estimate — the whole of
    /// [`Self::node_cost`]'s aggregate arm, as [`Self::join_cost`] is of
    /// the join arm. `grouped` says whether the query has a `GROUP BY`.
    #[inline]
    pub fn aggregate_cost(
        &self,
        algo: AggAlgo,
        grouped: bool,
        input: CostEstimate,
    ) -> CostEstimate {
        let p = self.params;
        let i = input;
        // Group-count heuristic: no GROUP BY → 1 group; otherwise
        // square-root of the input (a standard planner fallback
        // when group columns lack joint statistics).
        let groups = if grouped {
            i.output_rows.sqrt().max(1.0)
        } else {
            1.0
        };
        let work = match algo {
            AggAlgo::Hash => i.output_rows * p.hash_build_factor * p.cpu_operator_cost,
            AggAlgo::Sort => {
                i.output_rows.max(2.0)
                    * i.output_rows.max(2.0).log2()
                    * p.sort_factor
                    * p.cpu_operator_cost
            }
        };
        CostEstimate {
            total: i.total + work + groups * p.cpu_tuple_cost,
            output_rows: groups,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::sql::CompareOp;
    use hfqo_query::{BoundColumn, JoinEdge, Lit, RelId, Relation, Selection};
    use hfqo_stats::{ColumnStats, EstimatedCardinality, Histogram, TableStats};
    use hfqo_storage::catalog::{ColumnId, ColumnStatsMeta, TableId};
    use proptest::prelude::*;

    fn col_stats(ndv: f64, min: f64, max: f64) -> ColumnStats {
        ColumnStats {
            meta: ColumnStatsMeta {
                ndv,
                min,
                max,
                null_frac: 0.0,
            },
            histogram: Histogram::build(
                (0..100)
                    .map(|i| min + (max - min) * (i as f64) / 99.0)
                    .collect(),
                20,
            ),
            mcvs: vec![],
        }
    }

    /// a: 1,000 rows; b: 100,000 rows with an FK to a and a selective filter.
    fn setup() -> (StatsCatalog, QueryGraph) {
        let a = TableStats {
            row_count: 1_000.0,
            row_width: 16.0,
            columns: vec![col_stats(1_000.0, 0.0, 999.0)],
        };
        let b = TableStats {
            row_count: 100_000.0,
            row_width: 16.0,
            columns: vec![
                col_stats(1_000.0, 0.0, 999.0),
                col_stats(1_000.0, 0.0, 999.0),
            ],
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
                value: Lit::Int(7),
            }],
            vec![],
            vec![],
        );
        (stats, graph)
    }

    fn scan(rel: u32) -> PlanNode {
        PlanNode::Scan {
            rel: RelId(rel),
            path: AccessPath::SeqScan,
        }
    }

    fn join(algo: JoinAlgo, l: PlanNode, r: PlanNode) -> PlanNode {
        PlanNode::Join {
            algo,
            conds: vec![0],
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn hash_beats_nested_loop_on_large_inputs() {
        let (stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let nl = model.plan_cost(
            &graph,
            &PhysicalPlan::new(join(JoinAlgo::NestedLoop, scan(1), scan(0))),
            &est,
        );
        let hash = model.plan_cost(
            &graph,
            &PhysicalPlan::new(join(JoinAlgo::Hash, scan(1), scan(0))),
            &est,
        );
        assert!(
            hash.total < nl.total,
            "hash {} should beat NL {}",
            hash.total,
            nl.total
        );
        assert_eq!(hash.output_rows, nl.output_rows);
    }

    #[test]
    fn index_scan_beats_seq_scan_for_selective_predicate() {
        let (stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let seq = model.node_cost(&graph, &scan(1), &est);
        let idx = model.node_cost(
            &graph,
            &PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::IndexScan {
                    index: hfqo_storage::catalog::IndexId(0),
                    driving_selection: 0,
                },
            },
            &est,
        );
        // 0.1% selectivity: the index scan should win clearly.
        assert!(
            idx.total < seq.total / 2.0,
            "idx {} vs seq {}",
            idx.total,
            seq.total
        );
        assert_eq!(idx.output_rows, seq.output_rows);
    }

    #[test]
    fn cross_join_is_catastrophic() {
        let (stats, filtered) = setup();
        // Same query without the selective filter on b: the cross product
        // is now 1000 × 100,000 pairs.
        let graph = QueryGraph::new(
            filtered.relations().to_vec(),
            filtered.joins().to_vec(),
            vec![],
            vec![],
            vec![],
        );
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let good = model.plan_cost(
            &graph,
            &PhysicalPlan::new(join(JoinAlgo::Hash, scan(1), scan(0))),
            &est,
        );
        let cross = model.plan_cost(
            &graph,
            &PhysicalPlan::new(PlanNode::Join {
                algo: JoinAlgo::NestedLoop,
                conds: vec![],
                left: Box::new(scan(1)),
                right: Box::new(scan(0)),
            }),
            &est,
        );
        assert!(cross.total > 10.0 * good.total);
    }

    #[test]
    fn aggregate_adds_cost_on_top() {
        let (stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let plain = model.plan_cost(
            &graph,
            &PhysicalPlan::new(join(JoinAlgo::Hash, scan(1), scan(0))),
            &est,
        );
        let agg = model.plan_cost(
            &graph,
            &PhysicalPlan::new(PlanNode::Aggregate {
                algo: AggAlgo::Hash,
                input: Box::new(join(JoinAlgo::Hash, scan(1), scan(0))),
            }),
            &est,
        );
        assert!(agg.total > plain.total);
        assert_eq!(agg.output_rows, 1.0);
    }

    /// `join_cost` and `aggregate_cost` are `node_cost`'s own arms: a
    /// cost composed from the inputs' estimates has the recursion's bits
    /// for every algorithm, either side order, and on top of a join.
    #[test]
    fn composed_costs_equal_recursive_costs() {
        let (stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let same = |a: CostEstimate, b: CostEstimate| {
            assert_eq!(a.total.to_bits(), b.total.to_bits());
            assert_eq!(a.output_rows.to_bits(), b.output_rows.to_bits());
        };
        let out_rows = est.set_rows(&graph, graph.all_rels());
        for algo in JoinAlgo::ALL {
            for (l, r) in [(0, 1), (1, 0)] {
                let node = join(algo, scan(l), scan(r));
                let (lc, rc) = (
                    model.node_cost(&graph, &scan(l), &est),
                    model.node_cost(&graph, &scan(r), &est),
                );
                let composed = model.join_cost(algo, 1, lc, rc, out_rows);
                same(composed, model.node_cost(&graph, &node, &est));
                for agg in AggAlgo::ALL {
                    let top = PlanNode::Aggregate {
                        algo: agg,
                        input: Box::new(node.clone()),
                    };
                    same(
                        model.aggregate_cost(agg, false, composed),
                        model.node_cost(&graph, &top, &est),
                    );
                }
            }
        }
    }

    #[test]
    fn costs_are_positive_and_monotone_in_inputs() {
        let (stats, graph) = setup();
        let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
        let est = EstimatedCardinality::new(&stats);
        let small = model.node_cost(&graph, &scan(0), &est);
        let large = model.node_cost(&graph, &scan(1), &est);
        assert!(small.total > 0.0);
        assert!(large.total > small.total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Nested-loop and merge joins cost the same bits with their
        /// inputs swapped, which is why the optimizer's join pricer tries
        /// only hash joins both ways round. Rows and totals span
        /// 1…10⁹, so the merge join's sort floor of two rows is crossed.
        #[test]
        fn nested_loop_and_merge_cost_the_same_bits_either_way_round(
            n_conds in 0usize..4,
            l_rows in 0.0f64..9.0,
            r_rows in 0.0f64..9.0,
            l_total in 0.0f64..9.0,
            r_total in 0.0f64..9.0,
            out_rows in 0.0f64..9.0,
        ) {
            let stats = StatsCatalog::new(vec![]);
            let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
            let estimate = |rows: f64, total: f64| CostEstimate {
                total: 10f64.powf(total),
                output_rows: 10f64.powf(rows),
            };
            let (l, r) = (estimate(l_rows, l_total), estimate(r_rows, r_total));
            let out_rows = 10f64.powf(out_rows);
            for algo in [JoinAlgo::NestedLoop, JoinAlgo::Merge] {
                let given = model.join_cost(algo, n_conds, l, r, out_rows);
                let swapped = model.join_cost(algo, n_conds, r, l, out_rows);
                prop_assert_eq!(
                    given.total.to_bits(),
                    swapped.total.to_bits(),
                    "{:?} costs differ with its sides swapped: restore the flip of every \
                     algorithm in hfqo_opt::physical::price_join_given",
                    algo
                );
            }
        }

        /// [`CostModel::join_cost_floor`] is at or under the cost of every
        /// join of its inputs, for every algorithm and both sides of a
        /// hash join, which is what lets the optimizer's DP skip pricing
        /// a pair whose floor already reaches its union's best cost.
        #[test]
        fn join_cost_floor_is_under_every_join_cost(
            n_conds in 0usize..4,
            l_rows in 0.0f64..9.0,
            r_rows in 0.0f64..9.0,
            l_total in -1.0f64..9.0,
            r_total in -1.0f64..9.0,
            out_rows in 0.0f64..9.0,
        ) {
            let stats = StatsCatalog::new(vec![]);
            let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
            let estimate = |rows: f64, total: f64| CostEstimate {
                total: 10f64.powf(total),
                output_rows: 10f64.powf(rows),
            };
            let (l, r) = (estimate(l_rows, l_total), estimate(r_rows, r_total));
            let out_rows = 10f64.powf(out_rows);
            let floor = model.join_cost_floor(l, r, out_rows);
            for algo in JoinAlgo::ALL {
                for (left, right) in [(l, r), (r, l)] {
                    let cost = model.join_cost(algo, n_conds, left, right, out_rows);
                    prop_assert!(
                        floor <= cost.total,
                        "{:?}: floor {} above cost {}",
                        algo,
                        floor,
                        cost.total
                    );
                }
            }
        }
    }
}
