//! The query graph and relation bitsets.

use crate::predicate::{AggExpr, BoundColumn, JoinEdge, Selection};
use hfqo_storage::catalog::TableId;
use std::fmt;

/// Index of a relation within a query's FROM clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

impl RelId {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A set of query relations, packed into a 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct RelSet(pub u64);

impl RelSet {
    /// The empty set.
    pub const EMPTY: RelSet = RelSet(0);

    /// A singleton set.
    #[inline]
    pub fn single(rel: RelId) -> Self {
        RelSet(1u64 << rel.0)
    }

    /// The full set over `n` relations.
    #[inline]
    pub fn full(n: usize) -> Self {
        debug_assert!(n <= 64);
        if n == 64 {
            RelSet(u64::MAX)
        } else {
            RelSet((1u64 << n) - 1)
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of relations in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `rel` is a member.
    #[inline]
    pub fn contains(self, rel: RelId) -> bool {
        self.0 & (1u64 << rel.0) != 0
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: RelSet) -> RelSet {
        RelSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub fn minus(self, other: RelSet) -> RelSet {
        RelSet(self.0 & !other.0)
    }

    /// Whether the sets share no relations.
    #[inline]
    pub fn is_disjoint(self, other: RelSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Whether `self` contains every relation of `other`.
    #[inline]
    pub fn is_superset(self, other: RelSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Adds a relation.
    #[inline]
    pub fn insert(&mut self, rel: RelId) {
        self.0 |= 1u64 << rel.0;
    }

    /// Iterates members in increasing order.
    pub fn iter(self) -> impl Iterator<Item = RelId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(RelId(i))
            }
        })
    }
}

impl fmt::Display for RelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", r.0)?;
        }
        write!(f, "}}")
    }
}

/// One relation of a query: a catalog table under an alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    /// Backing catalog table.
    pub table: TableId,
    /// FROM-clause alias.
    pub alias: String,
}

/// A bound query: relations, join edges, selections, and the aggregate /
/// grouping shape of the output.
///
/// This is the single structure both the traditional optimizer and the RL
/// environments search over. Plans reference its predicates by index.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryGraph {
    relations: Vec<Relation>,
    joins: Vec<JoinEdge>,
    selections: Vec<Selection>,
    aggregates: Vec<AggExpr>,
    group_by: Vec<BoundColumn>,
    /// Optional label (e.g. the JOB-style query name "8c").
    pub label: Option<String>,
}

impl QueryGraph {
    /// Creates a graph. The binder is the usual constructor; tests and
    /// generators may build graphs directly.
    pub fn new(
        relations: Vec<Relation>,
        joins: Vec<JoinEdge>,
        selections: Vec<Selection>,
        aggregates: Vec<AggExpr>,
        group_by: Vec<BoundColumn>,
    ) -> Self {
        Self {
            relations,
            joins,
            selections,
            aggregates,
            group_by,
            label: None,
        }
    }

    /// Sets the display label (builder style).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// All relations in FROM order.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// The relation with the given id.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// All join edges.
    pub fn joins(&self) -> &[JoinEdge] {
        &self.joins
    }

    /// All selection predicates.
    pub fn selections(&self) -> &[Selection] {
        &self.selections
    }

    /// Aggregate outputs.
    pub fn aggregates(&self) -> &[AggExpr] {
        &self.aggregates
    }

    /// GROUP BY columns.
    pub fn group_by(&self) -> &[BoundColumn] {
        &self.group_by
    }

    /// The full relation set of the query.
    pub fn all_rels(&self) -> RelSet {
        RelSet::full(self.relations.len())
    }

    /// Indices of selection predicates on `rel`.
    pub fn selections_on(&self, rel: RelId) -> impl Iterator<Item = usize> + '_ {
        self.selections
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.column.rel == rel)
            .map(|(i, _)| i)
    }

    /// Join edges connecting `left` with `right` (one endpoint in each
    /// set), with their indices, in index order.
    pub fn edges_between(
        &self,
        left: RelSet,
        right: RelSet,
    ) -> impl Iterator<Item = (usize, &JoinEdge)> + '_ {
        self.joins.iter().enumerate().filter(move |(_, e)| {
            let (l, r) = (e.left.rel, e.right.rel);
            (left.contains(l) && right.contains(r)) || (left.contains(r) && right.contains(l))
        })
    }

    /// Indices of join edges connecting `left` with `right`.
    pub fn joins_between(&self, left: RelSet, right: RelSet) -> Vec<usize> {
        self.edges_between(left, right).map(|(i, _)| i).collect()
    }

    /// Whether at least one join edge connects the two (disjoint) sets.
    pub fn sets_connected(&self, left: RelSet, right: RelSet) -> bool {
        self.edges_between(left, right).next().is_some()
    }

    /// Whether the induced subgraph on `set` is connected (singletons are
    /// connected; the empty set is not).
    pub fn is_connected(&self, set: RelSet) -> bool {
        let Some(first) = set.iter().next() else {
            return false;
        };
        let mut reached = RelSet::single(first);
        loop {
            let mut grew = false;
            for e in &self.joins {
                let l = e.left.rel;
                let r = e.right.rel;
                if set.contains(l) && set.contains(r) {
                    if reached.contains(l) && !reached.contains(r) {
                        reached.insert(r);
                        grew = true;
                    } else if reached.contains(r) && !reached.contains(l) {
                        reached.insert(l);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        reached == set
    }

    /// Every relation's neighbours — the relations a join edge connects
    /// it to — indexed by relation, from one pass over the edges (a
    /// [`RelSet`] holds at most 64 relations).
    pub fn neighbor_masks(&self) -> [RelSet; 64] {
        let mut masks = [RelSet::EMPTY; 64];
        for e in &self.joins {
            masks[e.left.rel.index()].insert(e.right.rel);
            masks[e.right.rel.index()].insert(e.left.rel);
        }
        masks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Lit};
    use hfqo_storage::catalog::ColumnId;

    /// A chain query r0 - r1 - r2 with one selection on r1.
    pub(crate) fn chain3() -> QueryGraph {
        let rels = (0..3)
            .map(|i| Relation {
                table: TableId(i),
                alias: format!("t{i}"),
            })
            .collect();
        let joins = vec![
            JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            },
            JoinEdge {
                left: BoundColumn::new(RelId(1), ColumnId(1)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(2), ColumnId(0)),
            },
        ];
        let sels = vec![Selection {
            column: BoundColumn::new(RelId(1), ColumnId(2)),
            op: CompareOp::Gt,
            value: Lit::Int(5),
        }];
        QueryGraph::new(rels, joins, sels, vec![], vec![])
    }

    #[test]
    fn relset_basics() {
        let mut s = RelSet::EMPTY;
        assert!(s.is_empty());
        s.insert(RelId(3));
        s.insert(RelId(5));
        assert_eq!(s.len(), 2);
        assert!(s.contains(RelId(3)));
        assert!(!s.contains(RelId(4)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![RelId(3), RelId(5)]);
        assert_eq!(s.to_string(), "{3,5}");
    }

    #[test]
    fn relset_algebra() {
        let a = RelSet::single(RelId(0)).union(RelSet::single(RelId(1)));
        let b = RelSet::single(RelId(1)).union(RelSet::single(RelId(2)));
        assert_eq!(a.minus(b), RelSet::single(RelId(0)));
        assert!(!a.is_disjoint(b));
        assert!(a.union(b).is_superset(a));
        assert_eq!(RelSet::full(3).len(), 3);
        assert_eq!(RelSet::full(64).len(), 64);
    }

    #[test]
    fn graph_connectivity() {
        let g = chain3();
        assert!(g.is_connected(RelSet::full(3)));
        // {0, 2} is not connected without r1 in the set.
        let s02 = RelSet::single(RelId(0)).union(RelSet::single(RelId(2)));
        assert!(!g.is_connected(s02));
        assert!(g.is_connected(RelSet::single(RelId(1))));
        assert!(!g.is_connected(RelSet::EMPTY));
    }

    #[test]
    fn joins_between_sets() {
        let g = chain3();
        let left = RelSet::single(RelId(0)).union(RelSet::single(RelId(1)));
        let right = RelSet::single(RelId(2));
        assert_eq!(g.joins_between(left, right), vec![1]);
        assert!(g.sets_connected(left, right));
        assert!(!g.sets_connected(RelSet::single(RelId(0)), right));
    }

    #[test]
    fn selections_and_neighbors() {
        let g = chain3();
        assert_eq!(g.selections_on(RelId(1)).collect::<Vec<_>>(), vec![0]);
        assert_eq!(g.selections_on(RelId(0)).count(), 0);
        let masks = g.neighbor_masks();
        let one = |rel| RelSet::single(RelId(rel));
        assert_eq!(masks[0], one(1));
        assert_eq!(masks[1], one(0).union(one(2)));
        assert_eq!(masks[2], one(1));
        assert!(masks[3..].iter().all(|mask| mask.is_empty()));
    }

    #[test]
    fn label_builder() {
        let g = chain3().with_label("8c");
        assert_eq!(g.label.as_deref(), Some("8c"));
    }
}
