//! The derivation pass: a plan tree becomes a flat stage list.
//!
//! Everything the evaluator ([`crate::parallel`]) needs to know about a
//! plan's *shape* is worked out here, once per execute, in one
//! post-order walk of the tree: the checks of
//! [`hfqo_query::PhysicalPlan::validate`], every node's output columns
//! and their types, every join's conditions resolved to input slots,
//! which input slot each of its output columns gathers from, and which
//! of its conditions it keys on (`Keys`). The result is a
//! `StageList`: one `Stage` per plan node in post-order, which the
//! evaluator runs over an operand stack — a scan pushes its output, a
//! join pops its two inputs and pushes its own, the root aggregate pops
//! its input. The list's buffers belong to the evaluator's per-thread
//! arena and are refilled, not reallocated, on every execute.
//!
//! A stage list holds no literal: selections are read by the scans when
//! they run, so two constants of one template derive the same list.
//!
//! ## Projection rules
//!
//! Each node's output carries only the columns *required above it*. The
//! root requirement is every column for plain queries (so results are
//! column-identical to the row engine), only the `GROUP BY` keys and
//! aggregate inputs under an aggregate, and nothing at all for counting
//! runs (`Carry::Nothing`: `execute_for_stats`, the true-cardinality
//! oracle). Every join adds its condition columns to its children's
//! requirement and drops them again from its own output unless an
//! ancestor needs them; selection columns are consumed inside the scan.
//! A requirement is a bitset over every relation's columns, one bit per
//! `(relation, column)`, copied once per join.
//!
//! Output order is always *leaf order, column-id order within a leaf*,
//! so a fully-required output is slot-identical to the row engine's
//! [`Layout`](crate::row::Layout) and the two engines emit rows with
//! identical column ordering. A join's build side is always its *right*
//! child, as in the row engine.

use crate::error::ExecError;
use crate::ops::agg::AggSpec;
use crate::ops::{resolve_conds, SlotCond};
use hfqo_query::sql::CompareOp;
use hfqo_query::{
    AccessPath, AggAlgo, BoundColumn, JoinAlgo, PlanNode, QueryError, QueryGraph, RelId, RelSet,
};
use hfqo_storage::catalog::{Catalog, ColumnId, ColumnType};
use std::ops::Range;

/// What a plan's root carries when it is not an aggregate (an
/// aggregate's input always carries its keys and inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Carry {
    /// Every column of every relation: the row engine's layout.
    Everything,
    /// No column: a counting run, whose output is its row count.
    Nothing,
}

/// Where a join output column is gathered from: a slot of the left
/// (probe) input or a slot of the right (build) input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    Left(usize),
    Right(usize),
}

/// One plan node, ready to run: what it does, and the output columns
/// it produces (a range of [`StageList::columns`] and
/// [`StageList::types`]).
pub(crate) struct Stage {
    pub(crate) op: Op,
    out: Range<usize>,
}

/// What a stage does.
pub(crate) enum Op {
    /// Reads `rel` via `path`.
    Scan { rel: RelId, path: AccessPath },
    /// Joins the two operands on top of the stack (left below right).
    /// `conds` and `out_map` are ranges of [`StageList::conds`] and
    /// [`StageList::out_map`].
    Join {
        algo: JoinAlgo,
        conds: Range<usize>,
        out_map: Range<usize>,
        keys: Keys,
    },
    /// Aggregates the operand on top of the stack, as
    /// [`StageList::aggregate`] says.
    Aggregate { algo: AggAlgo },
}

/// Which of a join's conditions it applies as keys, read off the
/// condition operators and the input column types. Positions index the
/// join's own conditions.
pub(crate) struct Keys {
    /// The key: a hash or merge join's first `=`; a nested loop's first
    /// `=` between two integer columns, if any.
    pub(crate) key: Option<usize>,
    /// Whether the key's two columns are integers, so it is applied on
    /// typed slices and matches need not check it again.
    pub(crate) int_key: bool,
    /// A hash join's second `=` between two integer columns, which the
    /// table is keyed on beside the first.
    pub(crate) second: Option<usize>,
    /// The conditions a match must still satisfy: every condition not
    /// applied as a typed key. A range of [`StageList::residual`].
    pub(crate) residual: Range<usize>,
    /// A hash join whose output is zero-width and which has nothing
    /// left to check: its table keeps counts, not rows.
    pub(crate) counting: bool,
}

/// A plan's stages in post-order, and the derivation's own buffers.
#[derive(Default)]
pub(crate) struct StageList {
    stages: Vec<Stage>,
    columns: Vec<BoundColumn>,
    types: Vec<ColumnType>,
    conds: Vec<SlotCond>,
    residual: Vec<SlotCond>,
    out_map: Vec<Side>,
    aggregate: AggSpec,
    /// `base[r]..base[r + 1]`: relation `r`'s bits in a requirement.
    base: Vec<usize>,
    /// Requirement bitsets, one frame per open join, `words` long each.
    bits: Vec<u64>,
    words: usize,
}

/// A derived operand: its output range and the relations under it.
struct Operand {
    out: Range<usize>,
    rels: RelSet,
}

impl StageList {
    /// Derives the stage list of `root`. With `cover`, the plan must
    /// scan every relation of `graph` once ([`PhysicalPlan::validate`]);
    /// without, it may cover a subset (the true-cardinality oracle's
    /// sub-plans). Every other check of `validate` is made either way,
    /// in `validate`'s order and with its messages.
    ///
    /// [`PhysicalPlan::validate`]: hfqo_query::PhysicalPlan::validate
    pub(crate) fn derive(
        &mut self,
        catalog: &Catalog,
        graph: &QueryGraph,
        root: &PlanNode,
        carry: Carry,
        cover: bool,
    ) -> Result<(), ExecError> {
        self.stages.clear();
        self.columns.clear();
        self.types.clear();
        self.conds.clear();
        self.residual.clear();
        self.out_map.clear();
        self.base.clear();
        self.bits.clear();
        let mut total = 0;
        for rel in graph.relations() {
            self.base.push(total);
            total += catalog.table(rel.table).map(|t| t.arity()).unwrap_or(0);
        }
        self.base.push(total);
        self.words = total.div_ceil(64);
        self.bits.resize(self.words, 0);

        let (input, aggregate) = match root {
            PlanNode::Aggregate { algo, input } => (&**input, Some(*algo)),
            node => (node, None),
        };
        if aggregate.is_some() {
            let inputs = graph.aggregates().iter().filter_map(|a| a.column);
            for col in graph.group_by().iter().copied().chain(inputs) {
                self.require(0, col);
            }
        } else if carry == Carry::Everything {
            for bit in 0..total {
                self.bits[bit / 64] |= 1 << (bit % 64);
            }
        }
        let mut seen = RelSet::EMPTY;
        let out = self.node(catalog, graph, input, 0, &mut seen)?;
        if cover && seen != graph.all_rels() {
            return Err(QueryError::InvalidPlan(format!(
                "plan covers {seen} but the query has {}",
                graph.all_rels()
            ))
            .into());
        }
        if let Some(algo) = aggregate {
            let input = &self.columns[out.out.clone()];
            let types = &self.types[out.out.clone()];
            self.aggregate.resolve(graph, input, types)?;
            let start = self.types.len();
            self.types.extend_from_slice(&self.aggregate.out_types);
            self.stages.push(Stage {
                op: Op::Aggregate { algo },
                out: start..self.types.len(),
            });
        }
        Ok(())
    }

    /// The stages, in the order they run.
    pub(crate) fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// A scan's or a join's output columns (an aggregate's outputs are
    /// values, not columns: only its [`Self::types`] are kept).
    pub(crate) fn columns(&self, stage: &Stage) -> &[BoundColumn] {
        &self.columns[stage.out.clone()]
    }

    /// A stage's output column types.
    pub(crate) fn types(&self, stage: &Stage) -> &[ColumnType] {
        &self.types[stage.out.clone()]
    }

    /// A join's conditions, resolved to input slots.
    pub(crate) fn conds(&self, range: &Range<usize>) -> &[SlotCond] {
        &self.conds[range.clone()]
    }

    /// A join's output map: per output slot, the input slot it gathers.
    pub(crate) fn out_map(&self, range: &Range<usize>) -> &[Side] {
        &self.out_map[range.clone()]
    }

    /// A join's residual conditions ([`Keys::residual`]).
    pub(crate) fn residual(&self, keys: &Keys) -> &[SlotCond] {
        &self.residual[keys.residual.clone()]
    }

    /// The root aggregate, resolved against its input.
    pub(crate) fn aggregate(&self) -> &AggSpec {
        &self.aggregate
    }

    /// The bit of `col` in a requirement, if its relation has it.
    fn bit(&self, col: BoundColumn) -> Option<usize> {
        let (lo, hi) = (
            *self.base.get(col.rel.index())?,
            *self.base.get(col.rel.index() + 1)?,
        );
        let bit = lo + col.column.index();
        (bit < hi).then_some(bit)
    }

    /// Adds `col` to the requirement frame at word `frame`.
    fn require(&mut self, frame: usize, col: BoundColumn) {
        if let Some(bit) = self.bit(col) {
            self.bits[frame + bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Whether the requirement frame at word `frame` holds `col`.
    fn requires(&self, frame: usize, col: BoundColumn) -> bool {
        self.bit(col)
            .is_some_and(|bit| self.bits[frame + bit / 64] & (1 << (bit % 64)) != 0)
    }

    /// Derives `node`'s stages under the requirement frame at `req`.
    fn node(
        &mut self,
        catalog: &Catalog,
        graph: &QueryGraph,
        node: &PlanNode,
        req: usize,
        seen: &mut RelSet,
    ) -> Result<Operand, ExecError> {
        match node {
            PlanNode::Scan { rel, path } => {
                check_scan(graph, *rel, path, seen)?;
                let start = self.columns.len();
                let arity = self.base[rel.index() + 1] - self.base[rel.index()];
                let schema = catalog.table(graph.relation(*rel).table).ok();
                for c in 0..arity {
                    let col = BoundColumn::new(*rel, ColumnId(c as u32));
                    if self.requires(req, col) {
                        self.columns.push(col);
                        self.types.push(
                            schema
                                .and_then(|t| t.column(col.column))
                                .map_or(ColumnType::Int, |c| c.ty()),
                        );
                    }
                }
                let out = start..self.columns.len();
                self.stages.push(Stage {
                    op: Op::Scan {
                        rel: *rel,
                        path: *path,
                    },
                    out: out.clone(),
                });
                Ok(Operand {
                    out,
                    rels: RelSet::single(*rel),
                })
            }
            PlanNode::Join {
                algo,
                conds,
                left,
                right,
            } => {
                // The children must also carry this join's condition
                // columns; its own output drops them again unless an
                // ancestor requires them.
                let child = self.bits.len();
                self.bits.extend_from_within(req..req + self.words);
                for &c in conds {
                    if let Some(edge) = graph.joins().get(c) {
                        self.require(child, edge.left);
                        self.require(child, edge.right);
                    }
                }
                let left = self.node(catalog, graph, left, child, seen)?;
                let right = self.node(catalog, graph, right, child, seen)?;
                self.bits.truncate(child);
                check_join(graph, *algo, conds, left.rels, right.rels)?;
                self.join(graph, *algo, conds, &left, &right, req)?;
                Ok(Operand {
                    out: self.stages.last().map_or(0..0, |s| s.out.clone()),
                    rels: left.rels.union(right.rels),
                })
            }
            PlanNode::Aggregate { .. } => {
                Err(QueryError::InvalidPlan("aggregate below the plan root".into()).into())
            }
        }
    }

    /// Pushes the stage of a join of `left` and `right` whose output
    /// carries what the frame at `req` requires.
    fn join(
        &mut self,
        graph: &QueryGraph,
        algo: JoinAlgo,
        conds: &[usize],
        left: &Operand,
        right: &Operand,
        req: usize,
    ) -> Result<(), ExecError> {
        let cond_start = self.conds.len();
        let (l_cols, r_cols) = (
            &self.columns[left.out.clone()],
            &self.columns[right.out.clone()],
        );
        resolve_conds(
            graph,
            conds,
            |c| l_cols.iter().position(|&x| x == c),
            |c| r_cols.iter().position(|&x| x == c),
            &mut self.conds,
        )?;
        let cond_range = cond_start..self.conds.len();

        let (out_start, map_start) = (self.columns.len(), self.out_map.len());
        for (slot, at) in left.out.clone().enumerate() {
            let col = self.columns[at];
            if self.requires(req, col) {
                self.columns.push(col);
                self.types.push(self.types[at]);
                self.out_map.push(Side::Left(slot));
            }
        }
        for (slot, at) in right.out.clone().enumerate() {
            let col = self.columns[at];
            if self.requires(req, col) {
                self.columns.push(col);
                self.types.push(self.types[at]);
                self.out_map.push(Side::Right(slot));
            }
        }
        let out_map = map_start..self.out_map.len();
        let keys = self.keys(algo, cond_range.clone(), left, right, out_map.is_empty());
        // Every pair a typed integer `=` key emits holds one value on both
        // sides of it, so the build's key column is served from the
        // probe's. A merge join's or a `Value` key keeps its build column.
        if let Some(at) = keys.key.filter(|_| keys.int_key && algo != JoinAlgo::Merge) {
            let key = self.conds[cond_range.start + at];
            for side in &mut self.out_map[out_map.clone()] {
                if matches!(*side, Side::Right(slot) if slot == key.r_slot) {
                    *side = Side::Left(key.l_slot);
                }
            }
        }
        self.stages.push(Stage {
            op: Op::Join {
                algo,
                conds: cond_range,
                out_map,
                keys,
            },
            out: out_start..self.columns.len(),
        });
        Ok(())
    }

    /// The key form of a join over `conds` (a range of
    /// [`Self::conds`]).
    fn keys(
        &mut self,
        algo: JoinAlgo,
        conds: Range<usize>,
        left: &Operand,
        right: &Operand,
        zero_width: bool,
    ) -> Keys {
        let slots = &self.conds[conds.clone()];
        let (l_types, r_types) = (
            &self.types[left.out.clone()],
            &self.types[right.out.clone()],
        );
        let is_int = |at: usize| {
            let c = slots[at];
            l_types[c.l_slot] == ColumnType::Int && r_types[c.r_slot] == ColumnType::Int
        };
        let is_eq = |at: &usize| slots[*at].op == CompareOp::Eq;
        // `check_join` saw an `=` among a hash or merge join's conditions.
        let first_eq = (0..slots.len()).find(is_eq);
        let (key, second) = match algo {
            JoinAlgo::Hash => {
                let second = (0..slots.len())
                    .filter(is_eq)
                    .find(|&i| Some(i) != first_eq && is_int(i));
                (first_eq, second)
            }
            JoinAlgo::NestedLoop => ((0..slots.len()).filter(is_eq).find(|&i| is_int(i)), None),
            JoinAlgo::Merge => (first_eq, None),
        };
        let int_key = key.is_some_and(is_int);
        let applied = |at: usize| (int_key && key == Some(at)) || second == Some(at);
        let start = self.residual.len();
        let kept = slots.iter().enumerate().filter(|&(at, _)| !applied(at));
        self.residual.extend(kept.map(|(_, &c)| c));
        let residual = start..self.residual.len();
        Keys {
            key,
            int_key,
            second,
            counting: algo == JoinAlgo::Hash && zero_width && residual.is_empty(),
            residual,
        }
    }
}

/// `validate`'s checks of a scan, in its order.
fn check_scan(
    graph: &QueryGraph,
    rel: RelId,
    path: &AccessPath,
    seen: &mut RelSet,
) -> Result<(), QueryError> {
    if rel.index() >= graph.relation_count() {
        return Err(QueryError::InvalidPlan(format!(
            "scan of unknown relation r{}",
            rel.0
        )));
    }
    if seen.contains(rel) {
        return Err(QueryError::InvalidPlan(format!(
            "relation r{} scanned twice",
            rel.0
        )));
    }
    seen.insert(rel);
    if let AccessPath::IndexScan {
        driving_selection, ..
    } = path
    {
        let sel = graph.selections().get(*driving_selection).ok_or_else(|| {
            QueryError::InvalidPlan(format!(
                "driving selection #{driving_selection} out of range"
            ))
        })?;
        if sel.column.rel != rel {
            return Err(QueryError::InvalidPlan(format!(
                "driving selection #{driving_selection} is not on relation r{}",
                rel.0
            )));
        }
    }
    Ok(())
}

/// `validate`'s checks of a join over inputs covering `lset` and
/// `rset`, in its order.
fn check_join(
    graph: &QueryGraph,
    algo: JoinAlgo,
    conds: &[usize],
    lset: RelSet,
    rset: RelSet,
) -> Result<(), QueryError> {
    for &c in conds {
        let edge = graph
            .joins()
            .get(c)
            .ok_or_else(|| QueryError::InvalidPlan(format!("join condition #{c} out of range")))?;
        let (l, r) = (edge.left.rel, edge.right.rel);
        let spans =
            (lset.contains(l) && rset.contains(r)) || (lset.contains(r) && rset.contains(l));
        if !spans {
            return Err(QueryError::InvalidPlan(format!(
                "join condition #{c} does not connect {lset} with {rset}"
            )));
        }
    }
    if matches!(algo, JoinAlgo::Hash | JoinAlgo::Merge)
        && !conds.iter().any(|&c| graph.joins()[c].op == CompareOp::Eq)
    {
        return Err(QueryError::InvalidPlan(format!(
            "{} requires an equality condition",
            algo.name()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Layout;
    use hfqo_query::{JoinEdge, Relation};
    use hfqo_storage::catalog::{Column, TableSchema};

    /// Relations `l` and `r` (and `s`) of one table `(i, f, t, j)` — an
    /// integer, a float, a text and a second integer column — and edges
    /// 0 `l.i = r.i`, 1 `l.f = r.f`, 2 `l.t = r.t`, 3 `l.i < r.i`, 4
    /// `l.j = r.i`, 5 `r.i = s.i`, 6 `r.f = s.f`, 7 `r.t = s.t`.
    fn world() -> (Catalog, QueryGraph) {
        let mut catalog = Catalog::new();
        let cols = [
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("t", ColumnType::Text),
            ("j", ColumnType::Int),
        ];
        let schema = cols.map(|(name, ty)| Column::new(name, ty)).to_vec();
        let table = catalog.add_table(TableSchema::new("x", schema)).unwrap();
        let col = |rel, c| BoundColumn::new(RelId(rel), ColumnId(c));
        let edge = |l, lc, op, r, rc| JoinEdge {
            left: col(l, lc),
            op,
            right: col(r, rc),
        };
        let relations = ["l", "r", "s"].map(|alias| Relation {
            table,
            alias: alias.into(),
        });
        let graph = QueryGraph::new(
            relations.to_vec(),
            vec![
                edge(0, 0, CompareOp::Eq, 1, 0),
                edge(0, 1, CompareOp::Eq, 1, 1),
                edge(0, 2, CompareOp::Eq, 1, 2),
                edge(0, 0, CompareOp::Lt, 1, 0),
                edge(0, 3, CompareOp::Eq, 1, 0),
                edge(1, 0, CompareOp::Eq, 2, 0),
                edge(1, 1, CompareOp::Eq, 2, 1),
                edge(1, 2, CompareOp::Eq, 2, 2),
            ],
            vec![],
            vec![],
            vec![],
        );
        (catalog, graph)
    }

    fn scan(rel: u32) -> Box<PlanNode> {
        Box::new(PlanNode::Scan {
            rel: RelId(rel),
            path: AccessPath::SeqScan,
        })
    }

    /// The output map of `l ⋈ r` by `algo` on `conds`, of which the root
    /// `⋈ s` on edge `above` asks one column of `r` and nothing else.
    fn out_map(algo: JoinAlgo, conds: &[usize], above: usize) -> Vec<Side> {
        let (catalog, graph) = world();
        let lower = PlanNode::Join {
            algo,
            conds: conds.to_vec(),
            left: scan(0),
            right: scan(1),
        };
        let root = PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![above],
            left: Box::new(lower),
            right: scan(2),
        };
        let mut list = StageList::default();
        list.derive(&catalog, &graph, &root, Carry::Nothing, false)
            .expect("a valid plan");
        let Op::Join { out_map, .. } = &list.stages()[2].op else {
            panic!("the lower join is the third stage");
        };
        list.out_map(out_map).to_vec()
    }

    #[test]
    fn only_a_typed_integer_key_serves_the_build_key_from_the_probe_side() {
        // The root asks for `r.i` (edge 5), `r.f` (6) or `r.t` (7). Each
        // side carries the columns of the conditions in column order, so
        // with one condition the key is slot 0 on both sides.
        let (hash, nested, merge) = (JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::Merge);
        assert_eq!(out_map(hash, &[0], 5), [Side::Left(0)]);
        assert_eq!(out_map(nested, &[0], 5), [Side::Left(0)]);
        assert_eq!(out_map(hash, &[0, 3], 5), [Side::Left(0)]);
        // Another integer `=` on `r.i`: served from `l.j`.
        assert_eq!(out_map(hash, &[4], 5), [Side::Left(0)]);
        // A merge join keeps its build column.
        assert_eq!(out_map(merge, &[0], 5), [Side::Right(0)]);
        // Float and text keys keep theirs.
        assert_eq!(out_map(hash, &[1], 6), [Side::Right(0)]);
        assert_eq!(out_map(hash, &[2], 7), [Side::Right(0)]);
        assert_eq!(out_map(nested, &[0, 1], 6), [Side::Right(1)]);
        // A float key with a second, integer `=`: only the key is served,
        // and it is no typed key.
        assert_eq!(out_map(hash, &[1, 0], 5), [Side::Right(0)]);
        assert_eq!(out_map(hash, &[1, 0], 6), [Side::Right(1)]);
        // A nested loop with no `=` has no key.
        assert_eq!(out_map(nested, &[3], 5), [Side::Right(0)]);
    }

    #[test]
    fn build_columns_other_than_the_key_keep_the_build_side() {
        // Everything carried: the build key `r.i` (output slot 4) comes
        // from the probe's `l.i`, the other build columns from the build.
        let (catalog, graph) = world();
        let root = PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![0],
            left: scan(0),
            right: scan(1),
        };
        let mut list = StageList::default();
        list.derive(&catalog, &graph, &root, Carry::Everything, false)
            .expect("a valid plan");
        let join = &list.stages()[2];
        let Op::Join { out_map, .. } = &join.op else {
            panic!("the join is the third stage");
        };
        let expected: Vec<Side> = (0..4)
            .map(Side::Left)
            .chain([Side::Left(0)])
            .chain((1..4).map(Side::Right))
            .collect();
        assert_eq!(list.out_map(out_map), expected);
    }

    #[test]
    fn an_everything_root_is_column_identical_to_the_row_layout() {
        let (catalog, graph) = world();
        let lower = PlanNode::Join {
            algo: JoinAlgo::NestedLoop,
            conds: vec![0, 4],
            left: scan(0),
            right: scan(1),
        };
        let root = PlanNode::Join {
            algo: JoinAlgo::Hash,
            conds: vec![5],
            left: scan(2),
            right: Box::new(lower),
        };
        let mut list = StageList::default();
        list.derive(&catalog, &graph, &root, Carry::Everything, true)
            .expect("a valid plan");
        let columns = list.columns(list.stages().last().expect("a stage"));
        let layout = Layout::for_node(&root, &graph, &catalog);
        assert_eq!(columns.len(), layout.width());
        for (slot, &col) in columns.iter().enumerate() {
            assert_eq!(layout.slot(col), Some(slot), "{col:?}");
        }
    }
}
