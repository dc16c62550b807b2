//! EXPLAIN-style plan printing.

use crate::graph::QueryGraph;
use crate::physical::{AccessPath, PlanNode};
use std::fmt::Write as _;

/// Renders a plan as an indented EXPLAIN-style tree.
pub fn explain(node: &PlanNode, graph: &QueryGraph) -> String {
    let mut out = String::new();
    write_node(node, graph, 0, &mut out);
    out
}

fn write_node(node: &PlanNode, graph: &QueryGraph, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    match node {
        PlanNode::Scan { rel, path } => {
            let alias = &graph.relation(*rel).alias;
            match path {
                AccessPath::SeqScan => {
                    let _ = writeln!(out, "SeqScan on {alias}");
                }
                AccessPath::IndexScan {
                    index,
                    driving_selection,
                } => {
                    let sel = &graph.selections()[*driving_selection];
                    let _ = writeln!(out, "IndexScan on {alias} using {index} ({sel})");
                }
            }
        }
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            let cond_str = if conds.is_empty() {
                "cross".to_string()
            } else {
                conds
                    .iter()
                    .map(|&c| graph.joins()[c].to_string())
                    .collect::<Vec<_>>()
                    .join(" AND ")
            };
            let _ = writeln!(out, "{} ({cond_str})", algo.name());
            write_node(left, graph, depth + 1, out);
            write_node(right, graph, depth + 1, out);
        }
        PlanNode::Aggregate { algo, input } => {
            let aggs = graph
                .aggregates()
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(out, "{} [{aggs}]", algo.name());
            write_node(input, graph, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RelId, Relation};
    use crate::physical::{AggAlgo, JoinAlgo};
    use crate::predicate::{AggExpr, BoundColumn, CompareOp, JoinEdge};
    use crate::sql::AggFunc;
    use hfqo_storage::catalog::{ColumnId, TableId};

    #[test]
    fn explain_renders_tree() {
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: TableId(0),
                    alias: "t".into(),
                },
                Relation {
                    table: TableId(1),
                    alias: "ci".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(1)),
            }],
            vec![],
            vec![AggExpr {
                func: AggFunc::Count,
                column: None,
            }],
            vec![],
        );
        let plan = PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(PlanNode::Scan {
                    rel: RelId(0),
                    path: AccessPath::SeqScan,
                }),
                right: Box::new(PlanNode::Scan {
                    rel: RelId(1),
                    path: AccessPath::SeqScan,
                }),
            }),
        };
        let text = explain(&plan, &graph);
        assert!(text.contains("HashAggregate [COUNT(*)]"));
        assert!(text.contains("HashJoin (r0.c0 = r1.c1)"));
        assert!(text.contains("  SeqScan on t"));
        assert!(text.contains("    SeqScan on ci") || text.contains("  SeqScan on ci"));
    }
}
