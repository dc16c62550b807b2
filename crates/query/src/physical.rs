//! Physical plans.
//!
//! A [`PhysicalPlan`] pairs a [`QueryGraph`] reference shape (predicates are
//! referenced *by index* into the graph) with a tree of physical operator
//! choices. Both the cost model and the executor interpret a plan only
//! together with its graph.

use crate::error::QueryError;
use crate::graph::{QueryGraph, RelId, RelSet};
use crate::logical::JoinTree;
use hfqo_storage::catalog::IndexId;

/// How a base relation is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Full sequential scan; all selections applied as filters.
    SeqScan,
    /// Index scan driven by the selection predicate at
    /// `driving_selection` (an index into the graph's selection list);
    /// remaining selections applied as residual filters.
    IndexScan {
        /// Which catalog index to probe.
        index: IndexId,
        /// Index into `QueryGraph::selections` of the driving predicate.
        driving_selection: usize,
    },
}

/// Join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// Tuple-at-a-time nested loops; the only algorithm that can evaluate
    /// non-equality join predicates (and cross joins).
    NestedLoop,
    /// Build a hash table on the right input, probe with the left.
    Hash,
    /// Sort both inputs on the join key and merge. Equality joins only.
    Merge,
}

impl JoinAlgo {
    /// All algorithms, in the order the full-plan RL action space uses.
    pub const ALL: [JoinAlgo; 3] = [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinAlgo::NestedLoop => "NestedLoopJoin",
            JoinAlgo::Hash => "HashJoin",
            JoinAlgo::Merge => "MergeJoin",
        }
    }
}

/// Aggregation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggAlgo {
    /// Hash aggregation.
    Hash,
    /// Sort-based aggregation.
    Sort,
}

impl AggAlgo {
    /// All algorithms, in the order the full-plan RL action space uses.
    pub const ALL: [AggAlgo; 2] = [AggAlgo::Hash, AggAlgo::Sort];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AggAlgo::Hash => "HashAggregate",
            AggAlgo::Sort => "SortAggregate",
        }
    }
}

/// A node of a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Read one base relation.
    Scan {
        /// Which query relation.
        rel: RelId,
        /// How it is read.
        path: AccessPath,
    },
    /// Join two subplans.
    Join {
        /// Algorithm.
        algo: JoinAlgo,
        /// Indices into `QueryGraph::joins` applied at this node.
        conds: Vec<usize>,
        /// Left input (probe side for hash joins).
        left: Box<PlanNode>,
        /// Right input (build side for hash joins).
        right: Box<PlanNode>,
    },
    /// Aggregate the input (terminal node when the query has aggregates).
    Aggregate {
        /// Algorithm.
        algo: AggAlgo,
        /// Input.
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    /// The set of relations this subplan covers.
    pub fn rel_set(&self) -> RelSet {
        match self {
            PlanNode::Scan { rel, .. } => RelSet::single(*rel),
            PlanNode::Join { left, right, .. } => left.rel_set().union(right.rel_set()),
            PlanNode::Aggregate { input, .. } => input.rel_set(),
        }
    }

    /// The logical join tree skeleton of this plan (aggregates stripped).
    pub fn join_tree(&self) -> JoinTree {
        match self {
            PlanNode::Scan { rel, .. } => JoinTree::leaf(*rel),
            PlanNode::Join { left, right, .. } => {
                JoinTree::join(left.join_tree(), right.join_tree())
            }
            PlanNode::Aggregate { input, .. } => input.join_tree(),
        }
    }
}

/// A complete physical plan for a query graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Root node.
    pub root: PlanNode,
}

impl PhysicalPlan {
    /// Wraps a root node.
    pub fn new(root: PlanNode) -> Self {
        Self { root }
    }

    /// Validates the plan against its graph:
    /// * covers every relation exactly once,
    /// * join/selection indices are in range,
    /// * every join condition connects the node's two inputs,
    /// * hash/merge joins have at least one equality condition,
    /// * an aggregate node appears only at the root.
    pub fn validate(&self, graph: &QueryGraph) -> Result<(), QueryError> {
        let mut seen = RelSet::EMPTY;
        Self::validate_node(&self.root, graph, &mut seen, true)?;
        if seen != graph.all_rels() {
            return Err(QueryError::InvalidPlan(format!(
                "plan covers {seen} but the query has {}",
                graph.all_rels()
            )));
        }
        Ok(())
    }

    fn validate_node(
        node: &PlanNode,
        graph: &QueryGraph,
        seen: &mut RelSet,
        is_root: bool,
    ) -> Result<(), QueryError> {
        match node {
            PlanNode::Scan { rel, path } => {
                if rel.index() >= graph.relation_count() {
                    return Err(QueryError::InvalidPlan(format!(
                        "scan of unknown relation r{}",
                        rel.0
                    )));
                }
                if seen.contains(*rel) {
                    return Err(QueryError::InvalidPlan(format!(
                        "relation r{} scanned twice",
                        rel.0
                    )));
                }
                seen.insert(*rel);
                if let AccessPath::IndexScan {
                    driving_selection, ..
                } = path
                {
                    let sel = graph.selections().get(*driving_selection).ok_or_else(|| {
                        QueryError::InvalidPlan(format!(
                            "driving selection #{driving_selection} out of range"
                        ))
                    })?;
                    if sel.column.rel != *rel {
                        return Err(QueryError::InvalidPlan(format!(
                            "driving selection #{driving_selection} is not on relation r{}",
                            rel.0
                        )));
                    }
                }
                Ok(())
            }
            PlanNode::Join {
                algo,
                conds,
                left,
                right,
            } => {
                Self::validate_node(left, graph, seen, false)?;
                Self::validate_node(right, graph, seen, false)?;
                let lset = left.rel_set();
                let rset = right.rel_set();
                for &c in conds {
                    let edge = graph.joins().get(c).ok_or_else(|| {
                        QueryError::InvalidPlan(format!("join condition #{c} out of range"))
                    })?;
                    let l = edge.left.rel;
                    let r = edge.right.rel;
                    let spans = (lset.contains(l) && rset.contains(r))
                        || (lset.contains(r) && rset.contains(l));
                    if !spans {
                        return Err(QueryError::InvalidPlan(format!(
                            "join condition #{c} does not connect {lset} with {rset}"
                        )));
                    }
                }
                if matches!(algo, JoinAlgo::Hash | JoinAlgo::Merge) {
                    let has_eq = conds
                        .iter()
                        .any(|&c| graph.joins()[c].op == crate::sql::CompareOp::Eq);
                    if !has_eq {
                        return Err(QueryError::InvalidPlan(format!(
                            "{} requires an equality condition",
                            algo.name()
                        )));
                    }
                }
                Ok(())
            }
            PlanNode::Aggregate { input, .. } => {
                if !is_root {
                    return Err(QueryError::InvalidPlan(
                        "aggregate below the plan root".into(),
                    ));
                }
                Self::validate_node(input, graph, seen, false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{BoundColumn, CompareOp, JoinEdge};
    use hfqo_storage::catalog::{ColumnId, TableId};

    fn graph2() -> QueryGraph {
        QueryGraph::new(
            vec![
                crate::graph::Relation {
                    table: TableId(0),
                    alias: "a".into(),
                },
                crate::graph::Relation {
                    table: TableId(1),
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![],
            vec![],
            vec![],
        )
    }

    fn scan(rel: u32) -> PlanNode {
        PlanNode::Scan {
            rel: RelId(rel),
            path: AccessPath::SeqScan,
        }
    }

    #[test]
    fn valid_hash_join_plan() {
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
        });
        plan.validate(&graph2()).unwrap();
        assert_eq!(plan.root.rel_set(), RelSet::full(2));
    }

    #[test]
    fn missing_relation_rejected() {
        let plan = PhysicalPlan::new(scan(0));
        assert!(plan.validate(&graph2()).is_err());
    }

    #[test]
    fn duplicate_relation_rejected() {
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(scan(0)),
            right: Box::new(scan(0)),
        });
        assert!(plan.validate(&graph2()).is_err());
    }

    #[test]
    fn hash_join_without_equality_rejected() {
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![],
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
        });
        assert!(plan.validate(&graph2()).is_err());
        // Nested loop without conditions (cross join) is fine.
        let cross = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
        });
        cross.validate(&graph2()).unwrap();
    }

    #[test]
    fn condition_must_span_inputs() {
        // Self-joining r0 with a condition to r1 that is absent.
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![9],
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
        });
        assert!(plan.validate(&graph2()).is_err());
    }

    #[test]
    fn aggregate_only_at_root() {
        let inner = PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(scan(0)),
        };
        let plan = PhysicalPlan::new(PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![],
            left: Box::new(inner),
            right: Box::new(scan(1)),
        });
        assert!(plan.validate(&graph2()).is_err());

        let ok = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Sort,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Merge,
                conds: vec![0],
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
            }),
        });
        ok.validate(&graph2()).unwrap();
    }

    #[test]
    fn join_tree_skeleton() {
        let plan = PhysicalPlan::new(PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            input: Box::new(PlanNode::Join {
                algo: JoinAlgo::Hash,
                conds: vec![0],
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
            }),
        });
        assert_eq!(plan.root.join_tree().compact(), "(0 ⋈ 1)");
    }
}
