//! Scan resolution: sequential and index scans.
//!
//! The scan is the only stage that reads storage. It visits rows in
//! windows, evaluates the relation's selection predicates with typed
//! kernels compiled once per scan (see `crate::ops::filter`) into a
//! selection vector of passing row ids, and bulk-gathers only the
//! *projected* columns of those rows, column by column.
//!
//! The resolution work — binding selections to table columns, probing
//! indexes, mapping projection slots to storage columns — lives in
//! `ScanSpec`: the single definition of what a scan *visits* and
//! *emits*, which the evaluator's morsel workers ([`crate::parallel`])
//! run window by window.

use crate::error::ExecError;
use crate::ops::filter::Pred;
use crate::row::lit_to_value;
use hfqo_query::{AccessPath, BoundColumn, QueryGraph, RelId};
use hfqo_storage::{ColumnVector, Database, Table};

#[derive(Debug)]
enum Source {
    /// Visit every row id in `0..row_count`.
    Seq,
    /// Visit exactly these row ids (resolved from the index).
    Index(Vec<u32>),
}

/// A fully-resolved scan: the table, the projected columns, the
/// residual filters, and the visit order.
pub(crate) struct ScanSpec<'a> {
    table: &'a Table,
    /// The output columns, in slot order: each names its table column.
    columns: &'a [BoundColumn],
    /// Predicates evaluated during the scan (for index scans: the
    /// residual predicates, the driving one being consumed by the
    /// probe), compiled once against the table's column encodings (see
    /// [`crate::ops::filter`]).
    filters: Vec<Pred>,
    source: Source,
}

impl<'a> ScanSpec<'a> {
    /// Resolves a scan of `rel` via `path` producing `columns`. Index
    /// probes run here (plan-shape errors surface at build time; the
    /// probe itself is charge-free in the row engine too — only row
    /// visits cost work). The literals are read here, on every run.
    /// `filters` and `visits` are spare buffers the spec fills;
    /// [`Self::into_buffers`] hands them back.
    pub(crate) fn new(
        db: &'a Database,
        graph: &QueryGraph,
        rel: RelId,
        path: &AccessPath,
        columns: &'a [BoundColumn],
        (mut filters, mut visits): (Vec<Pred>, Vec<u32>),
    ) -> Result<Self, ExecError> {
        let table_id = graph.relation(rel).table;
        let table = db.table(table_id)?;
        let cols = table.columns();
        let resolve = |i: usize| {
            let sel = &graph.selections()[i];
            let col = sel.column.column.index();
            Pred::compile(col, sel.op, lit_to_value(&sel.value), &cols[col])
        };
        filters.clear();
        let source = match path {
            AccessPath::SeqScan => {
                filters.extend(graph.selections_on(rel).map(resolve));
                Source::Seq
            }
            AccessPath::IndexScan {
                index,
                driving_selection,
            } => {
                visits.clear();
                super::index_row_ids(db, graph, rel, *index, *driving_selection, &mut visits)?;
                let residual = graph
                    .selections_on(rel)
                    .filter(|&i| i != *driving_selection);
                filters.extend(residual.map(resolve));
                Source::Index(visits)
            }
        };
        Ok(Self {
            table,
            columns,
            filters,
            source,
        })
    }

    /// The spec's buffers, for the next scan: its filters, cleared, and
    /// its visit list, if it had one.
    pub(crate) fn into_buffers(self) -> (Vec<Pred>, Option<Vec<u32>>) {
        let mut filters = self.filters;
        filters.clear();
        match self.source {
            Source::Seq => (filters, None),
            Source::Index(visits) => (filters, Some(visits)),
        }
    }

    /// Number of rows the scan visits (each one costs a unit of work).
    #[inline]
    pub(crate) fn visit_count(&self) -> usize {
        match &self.source {
            Source::Seq => self.table.row_count(),
            Source::Index(ids) => ids.len(),
        }
    }

    /// An unfiltered sequential scan emits every visited row in storage
    /// order — contiguous ranges copy column-wise without a gather.
    #[inline]
    pub(crate) fn is_plain_seq(&self) -> bool {
        matches!(self.source, Source::Seq) && self.filters.is_empty()
    }

    /// Appends to `sel` the table row ids of visits `from .. from + n`
    /// that pass every filter, in visit order: the first predicate's
    /// kernel fills the selection vector over the whole window, the
    /// rest intersect it ([`Pred::refine`]). This is the single
    /// definition of which rows a scan emits.
    pub(crate) fn filter_visits(&self, from: usize, n: usize, sel: &mut Vec<u32>) {
        let cols = self.table.columns();
        match &self.source {
            Source::Seq => {
                let Some((first, rest)) = self.filters.split_first() else {
                    sel.extend(from as u32..(from + n) as u32);
                    return;
                };
                first.filter_range(cols, from, from + n, sel);
                for f in rest {
                    if sel.is_empty() {
                        return;
                    }
                    f.refine(cols, sel);
                }
            }
            Source::Index(ids) => {
                sel.extend_from_slice(&ids[from..from + n]);
                for f in &self.filters {
                    if sel.is_empty() {
                        return;
                    }
                    f.refine(cols, sel);
                }
            }
        }
    }

    /// The projected storage columns, one per output slot.
    #[inline]
    pub(crate) fn projected_columns(&self) -> impl Iterator<Item = &ColumnVector> {
        let cols = self.table.columns();
        self.columns.iter().map(move |c| &cols[c.column.index()])
    }
}
