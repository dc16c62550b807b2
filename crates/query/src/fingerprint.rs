//! Query fingerprinting for the plan cache: the two-part
//! (template, params) key plus the exact per-query fingerprint.
//!
//! Production traffic is overwhelmingly *templated*: one query shape
//! served millions of times with different constants (`id = 3`,
//! `id = 7141`, …). A cache keyed on literal values gets a 0% hit rate
//! on exactly that workload, so fingerprinting is split in two:
//!
//! * [`TemplateFingerprint`] — a stable 128-bit hash of the query's
//!   *structure*: relations, join edges, and for every selection
//!   predicate its column, operator, and the literal's **type tag**
//!   (int / float / string) — a typed *slot*, not the value. Two
//!   queries share a template fingerprint exactly when they are the
//!   same statement with different constants bound into the same
//!   slots, which means a physical plan produced for one is
//!   structurally valid (predicate indices and all) for the other.
//! * [`ParamVector`] — the literal values extracted from the selection
//!   slots, in slot (stored selection) order. Together with the
//!   template it reconstitutes the exact query. The serving cache
//!   decides whether a cached plan still fits the current constants by
//!   scoring the bound graph's selections (see
//!   `hfqo_stats::selection_selectivities`).
//! * [`QueryFingerprint`] — the exact fingerprint, hashing literal
//!   *values* as before. Two graphs share it exactly when they are the
//!   same query, constants included. The serving cache keeps it as a
//!   fast path *within* a template entry: a repeated exact query skips
//!   selectivity scoring entirely.
//!
//! ## Normalization rules
//!
//! Both fingerprints include (all in stored order — plans reference
//! join conditions, selections, and relations *by index*, so permuting
//! any of these lists changes what a cached plan means):
//!
//! * relations, as catalog [`TableId`]s in FROM order;
//! * join edges: `(left rel, left column, operator, right rel, right
//!   column)` per edge (the binder already stores `left.rel <
//!   right.rel`, so edge orientation is canonical);
//! * selection predicates' columns and operators, in stored order;
//! * aggregate expressions and GROUP BY columns (they decide whether a
//!   plan carries an aggregate root and what it computes).
//!
//! They differ on exactly one rule: the **exact** fingerprint hashes
//! each selection literal's type tag *and value*, while the
//! **template** fingerprint hashes only the type tag and exports the
//! value through the [`ParamVector`]. A changed literal therefore
//! changes the exact fingerprint but not the template; a changed
//! literal *type* (e.g. `Int` → `Float`) changes both.
//!
//! Both exclude (plan-irrelevant presentation):
//!
//! * relation *aliases* — `FROM title t` and `FROM title x` bind to the
//!   same positional [`RelId`](crate::RelId)s, produce identical plans and identical
//!   row values, and differ only in output column naming (recomputed per
//!   execution, never cached);
//! * the optional display `label`.
//!
//! ## Hash construction
//!
//! The content is folded through two FNV-1a-64 streams (different
//! offset bases) concatenated into a `u128`. FNV is chosen
//! over `std`'s `DefaultHasher` because it is *stable*: fingerprints are
//! reproducible across processes, runs, and Rust versions, so cache
//! behaviour is deterministic and testable. At 128 bits, accidental
//! collisions are not a practical concern; the cache trusts the
//! fingerprint and performs no structural verification on hit. Template
//! and exact fingerprints are distinct Rust types, so they can never be
//! compared or keyed against each other by accident.
//!
//! What the two lanes do **not** give is 128 independently mixed bits.
//! Both lanes multiply by the same prime and differ only in their
//! offset bases, which are an odd constant apart: XOR-ing in a byte and
//! multiplying by an odd number both preserve bit 0 of that difference,
//! so bit 0 of `a ^ b` is 1 for every input, and the bits just above it
//! are correlated between the lanes. Within one lane FNV's low bits are
//! also its weakest. The full 128-bit value is a sound map key;
//! anything that wants *a few bits* of it — a shard, a partition, a
//! bucket index — must mix first (multiply one lane by an odd 64-bit
//! constant and take high bits, as the plan cache's shard choice does),
//! never mask raw bits or fold the lanes together.

use crate::graph::QueryGraph;
use crate::predicate::{BoundColumn, Lit};
use crate::sql::{AggFunc, CompareOp};
use hfqo_storage::catalog::TableId;
use std::fmt;

/// A stable 128-bit fingerprint of a query graph's plan-relevant
/// content, literal values included. See the [module docs](self) for
/// the normalization rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryFingerprint(pub u128);

impl fmt::Display for QueryFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A stable 128-bit fingerprint of a query graph's *structure*:
/// literal values are reduced to typed slots, so every parameterization
/// of one query template shares the same value. See the
/// [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateFingerprint(pub u128);

impl fmt::Display for TemplateFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The literal values of a query's selection slots, in slot (stored
/// selection) order. `(TemplateFingerprint, ParamVector)` identifies a
/// query exactly; the vector alone is what selectivity estimation
/// scores against a template's cached plans.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamVector(Vec<Lit>);

impl ParamVector {
    /// Wraps literals already in slot order.
    pub fn new(params: Vec<Lit>) -> Self {
        Self(params)
    }

    /// The literals, in slot order.
    pub fn params(&self) -> &[Lit] {
        &self.0
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the template has no literal slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for ParamVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

/// Two chained FNV-1a-64 streams with distinct offset bases.
struct Fnv2 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
const FNV_OFFSET_A: u64 = 0xCBF2_9CE4_8422_2325;
// A second stream: the standard offset basis folded over an arbitrary
// odd constant so the two lanes differ from byte one. Not independent
// of the first at the low bits: see "Hash construction" above.
const FNV_OFFSET_B: u64 = 0xCBF2_9CE4_8422_2325 ^ 0x9E37_79B9_7F4A_7C15;

impl Fnv2 {
    fn new() -> Self {
        Self {
            a: FNV_OFFSET_A,
            b: FNV_OFFSET_B,
        }
    }

    /// Length-prefixed variable-size payload, so adjacent fields cannot
    /// alias (`"ab" + "c"` vs `"a" + "bc"`).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// What [`fold_graph`] folds a graph into: its content bytes, and each
/// selection literal, the one thing the two fingerprints hash
/// differently.
trait Sink {
    fn byte(&mut self, v: u8);

    fn literal(&mut self, lit: &Lit);

    fn bytes(&mut self, vs: &[u8]) {
        for &v in vs {
            self.byte(v);
        }
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The exact fingerprint: a literal's type tag and value.
impl Sink for Fnv2 {
    fn byte(&mut self, v: u8) {
        self.a = (self.a ^ u64::from(v)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(v)).wrapping_mul(FNV_PRIME);
    }

    fn literal(&mut self, lit: &Lit) {
        self.byte(lit_tag(lit));
        match lit {
            Lit::Int(v) => self.u64(*v as u64),
            Lit::Float(v) => self.u64(v.to_bits()),
            Lit::Str(s) => self.str(s),
        }
    }
}

/// The template fingerprint: a literal's type tag, its value kept
/// aside, in slot order.
struct Template {
    h: Fnv2,
    params: Vec<Lit>,
}

impl Sink for Template {
    fn byte(&mut self, v: u8) {
        self.h.byte(v);
    }

    fn literal(&mut self, lit: &Lit) {
        self.h.byte(lit_tag(lit));
        self.params.push(lit.clone());
    }
}

/// Both fingerprints from one walk: two states fed the same bytes
/// except at a literal, where the template state takes only the tag.
struct Both {
    template: Fnv2,
    exact: Fnv2,
}

impl Sink for Both {
    fn byte(&mut self, v: u8) {
        self.template.byte(v);
        self.exact.byte(v);
    }

    fn literal(&mut self, lit: &Lit) {
        self.template.byte(lit_tag(lit));
        self.exact.literal(lit);
    }
}

fn column(h: &mut impl Sink, c: BoundColumn) {
    h.u32(c.rel.0);
    h.u32(c.column.0);
}

fn compare_op(h: &mut impl Sink, op: CompareOp) {
    // Explicit discriminants: reordering the enum must not silently
    // change fingerprints.
    h.byte(match op {
        CompareOp::Eq => 0,
        CompareOp::Neq => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    });
}

/// The literal's type tag: the part of a literal the template hashes.
fn lit_tag(lit: &Lit) -> u8 {
    match lit {
        Lit::Int(_) => 0,
        Lit::Float(_) => 1,
        Lit::Str(_) => 2,
    }
}

fn agg_func(h: &mut impl Sink, f: AggFunc) {
    h.byte(match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Min => 2,
        AggFunc::Max => 3,
        AggFunc::Avg => 4,
    });
}

/// Folds the graph's plan-relevant content into `h`. Each selection
/// literal goes to [`Sink::literal`]; everything else is the same
/// bytes whichever fingerprint `h` computes.
fn fold_graph(h: &mut impl Sink, graph: &QueryGraph) {
    // Relations: catalog table per FROM slot. Aliases are presentation
    // only (see module docs) and are deliberately not hashed.
    h.u64(graph.relation_count() as u64);
    for rel in graph.relations() {
        let TableId(t) = rel.table;
        h.u32(t);
    }
    // Join edges, in stored order (plans index into this list).
    h.u64(graph.joins().len() as u64);
    for edge in graph.joins() {
        column(h, edge.left);
        compare_op(h, edge.op);
        column(h, edge.right);
    }
    // Selections, in stored order.
    h.u64(graph.selections().len() as u64);
    for sel in graph.selections() {
        column(h, sel.column);
        compare_op(h, sel.op);
        h.literal(&sel.value);
    }
    // Output shape: aggregates and grouping decide the aggregate root.
    h.u64(graph.aggregates().len() as u64);
    for agg in graph.aggregates() {
        agg_func(h, agg.func);
        match agg.column {
            Some(c) => {
                h.byte(1);
                column(h, c);
            }
            None => h.byte(0),
        }
    }
    h.u64(graph.group_by().len() as u64);
    for &c in graph.group_by() {
        column(h, c);
    }
}

/// Computes the exact fingerprint of `graph` (literal values included)
/// under the normalization rules in the [module docs](self).
pub fn fingerprint(graph: &QueryGraph) -> QueryFingerprint {
    let mut h = Fnv2::new();
    fold_graph(&mut h, graph);
    QueryFingerprint(h.finish())
}

/// Computes the template fingerprint of `graph` (literal values reduced
/// to typed slots) and extracts the parameter vector, in slot order.
/// See the [module docs](self).
pub fn template_fingerprint(graph: &QueryGraph) -> (TemplateFingerprint, ParamVector) {
    let mut h = Template {
        h: Fnv2::new(),
        params: Vec::with_capacity(graph.selections().len()),
    };
    fold_graph(&mut h, graph);
    (
        TemplateFingerprint(h.h.finish()),
        ParamVector::new(h.params),
    )
}

/// Both fingerprints of `graph` from one walk over it:
/// `(template_fingerprint(graph).0, fingerprint(graph))`, with no
/// parameter vector built.
pub fn fingerprints(graph: &QueryGraph) -> (TemplateFingerprint, QueryFingerprint) {
    let mut h = Both {
        template: Fnv2::new(),
        exact: Fnv2::new(),
    };
    fold_graph(&mut h, graph);
    (
        TemplateFingerprint(h.template.finish()),
        QueryFingerprint(h.exact.finish()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RelId, Relation};
    use crate::predicate::{AggExpr, JoinEdge, Selection};
    use hfqo_storage::catalog::ColumnId;

    fn graph() -> QueryGraph {
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
        let aggs = vec![AggExpr {
            func: AggFunc::Count,
            column: None,
        }];
        QueryGraph::new(rels, joins, sels, aggs, vec![])
    }

    /// Rebuilds `g` with its selections replaced.
    fn with_selections(g: &QueryGraph, sels: Vec<Selection>) -> QueryGraph {
        QueryGraph::new(
            g.relations().to_vec(),
            g.joins().to_vec(),
            sels,
            g.aggregates().to_vec(),
            g.group_by().to_vec(),
        )
    }

    #[test]
    fn deterministic_and_stable() {
        let g = graph();
        assert_eq!(fingerprint(&g), fingerprint(&g));
        assert_eq!(fingerprint(&g), fingerprint(&graph()));
        // Pinned value: the fingerprint must be reproducible across
        // processes, runs, and releases (cache keys are allowed to
        // outlive a session). Update this constant deliberately if the
        // normalization rules or hash construction change.
        assert_eq!(
            fingerprint(&g).to_string(),
            "09b7d33011cbe9dc8ac1bd258a8ae4c5"
        );
    }

    #[test]
    fn template_is_deterministic_and_stable() {
        let g = graph();
        let (t1, p1) = template_fingerprint(&g);
        let (t2, p2) = template_fingerprint(&graph());
        assert_eq!(t1, t2);
        assert_eq!(p1, p2);
        assert_eq!(p1.params(), &[Lit::Int(5)]);
        // Pinned like the exact fingerprint: template keys may outlive
        // a session too. Update deliberately on rule changes.
        assert_eq!(t1.to_string(), "e90d1cc838be9301f3d7f13dedd93638");
    }

    #[test]
    fn different_literals_share_a_template_but_not_an_exact_fingerprint() {
        let base = graph();
        let changed = with_selections(
            &base,
            vec![Selection {
                column: BoundColumn::new(RelId(1), ColumnId(2)),
                op: CompareOp::Gt,
                value: Lit::Int(99_999),
            }],
        );
        let (tb, pb) = template_fingerprint(&base);
        let (tc, pc) = template_fingerprint(&changed);
        assert_eq!(tb, tc, "literal values are not part of the template");
        assert_ne!(pb, pc, "parameter vectors carry the values");
        assert_ne!(
            fingerprint(&base),
            fingerprint(&changed),
            "exact fingerprints keep hashing values"
        );
    }

    #[test]
    fn literal_type_tags_are_part_of_the_template() {
        let base = graph();
        let float = with_selections(
            &base,
            vec![Selection {
                column: BoundColumn::new(RelId(1), ColumnId(2)),
                op: CompareOp::Gt,
                value: Lit::Float(5.0),
            }],
        );
        let (tb, _) = template_fingerprint(&base);
        let (tf, _) = template_fingerprint(&float);
        assert_ne!(tb, tf, "Int and Float slots are different templates");
    }

    #[test]
    fn template_slot_order_matters() {
        let two = with_selections(
            &graph(),
            vec![
                Selection {
                    column: BoundColumn::new(RelId(0), ColumnId(1)),
                    op: CompareOp::Lt,
                    value: Lit::Int(1),
                },
                Selection {
                    column: BoundColumn::new(RelId(1), ColumnId(2)),
                    op: CompareOp::Gt,
                    value: Lit::Int(2),
                },
            ],
        );
        let mut sels = two.selections().to_vec();
        sels.swap(0, 1);
        let permuted = with_selections(&two, sels);
        let (t, p) = template_fingerprint(&two);
        let (tp, pp) = template_fingerprint(&permuted);
        assert_ne!(t, tp, "plans index selections by slot");
        assert_ne!(p, pp, "params are extracted in slot order");
    }

    #[test]
    fn template_hashes_structure() {
        let base = graph();
        let (t_base, _) = template_fingerprint(&base);
        // Changed comparison operator.
        let mut sels = base.selections().to_vec();
        sels[0].op = CompareOp::Ge;
        let (t_op, _) = template_fingerprint(&with_selections(&base, sels));
        assert_ne!(t_op, t_base, "operators are structural");
        // Changed backing table.
        let mut rels = base.relations().to_vec();
        rels[2].table = TableId(9);
        let g = QueryGraph::new(
            rels,
            base.joins().to_vec(),
            base.selections().to_vec(),
            base.aggregates().to_vec(),
            base.group_by().to_vec(),
        );
        let (t_table, _) = template_fingerprint(&g);
        assert_ne!(t_table, t_base, "tables are structural");
        // Aliases stay presentation-only.
        let renamed = QueryGraph::new(
            base.relations()
                .iter()
                .map(|r| Relation {
                    table: r.table,
                    alias: format!("x_{}", r.alias),
                })
                .collect(),
            base.joins().to_vec(),
            base.selections().to_vec(),
            base.aggregates().to_vec(),
            base.group_by().to_vec(),
        );
        let (t_renamed, _) = template_fingerprint(&renamed);
        assert_eq!(t_renamed, t_base, "aliases are presentation");
    }

    #[test]
    fn aliases_and_labels_are_ignored() {
        let base = fingerprint(&graph());
        let mut renamed = graph();
        renamed = QueryGraph::new(
            renamed
                .relations()
                .iter()
                .map(|r| Relation {
                    table: r.table,
                    alias: format!("x_{}", r.alias),
                })
                .collect(),
            renamed.joins().to_vec(),
            renamed.selections().to_vec(),
            renamed.aggregates().to_vec(),
            renamed.group_by().to_vec(),
        );
        assert_eq!(fingerprint(&renamed), base, "aliases are presentation");
        let labelled = graph().with_label("8c");
        assert_eq!(fingerprint(&labelled), base, "labels are presentation");
    }

    #[test]
    fn literals_tables_and_operators_matter() {
        let base = fingerprint(&graph());
        // Changed literal.
        let mut g = graph();
        let mut sels = g.selections().to_vec();
        sels[0].value = Lit::Int(6);
        g = with_selections(&g, sels);
        assert_ne!(fingerprint(&g), base, "literal values are hashed");
        // Changed comparison operator.
        let mut g = graph();
        let mut sels = g.selections().to_vec();
        sels[0].op = CompareOp::Ge;
        g = with_selections(&g, sels);
        assert_ne!(fingerprint(&g), base, "operators are hashed");
        // Changed backing table.
        let mut rels = graph().relations().to_vec();
        rels[2].table = TableId(9);
        let g = QueryGraph::new(
            rels,
            graph().joins().to_vec(),
            graph().selections().to_vec(),
            graph().aggregates().to_vec(),
            graph().group_by().to_vec(),
        );
        assert_ne!(fingerprint(&g), base, "tables are hashed");
    }

    #[test]
    fn list_order_matters() {
        // Plans reference join conditions by index: a permuted join list
        // is a *different* cache key even though the edge set is equal.
        let g = graph();
        let mut joins = g.joins().to_vec();
        joins.swap(0, 1);
        let permuted = QueryGraph::new(
            g.relations().to_vec(),
            joins,
            g.selections().to_vec(),
            g.aggregates().to_vec(),
            g.group_by().to_vec(),
        );
        assert_ne!(fingerprint(&permuted), fingerprint(&g));
    }

    #[test]
    fn output_shape_matters() {
        let g = graph();
        let no_agg = QueryGraph::new(
            g.relations().to_vec(),
            g.joins().to_vec(),
            g.selections().to_vec(),
            vec![],
            vec![],
        );
        assert_ne!(fingerprint(&no_agg), fingerprint(&g));
        let grouped = QueryGraph::new(
            g.relations().to_vec(),
            g.joins().to_vec(),
            g.selections().to_vec(),
            g.aggregates().to_vec(),
            vec![BoundColumn::new(RelId(0), ColumnId(1))],
        );
        assert_ne!(fingerprint(&grouped), fingerprint(&g));
        let (t_no_agg, _) = template_fingerprint(&no_agg);
        let (t_g, _) = template_fingerprint(&g);
        assert_ne!(t_no_agg, t_g, "output shape is structural");
    }

    #[test]
    fn adjacent_strings_cannot_alias() {
        let a = {
            let mut h = Fnv2::new();
            h.str("ab");
            h.str("c");
            h.finish()
        };
        let b = {
            let mut h = Fnv2::new();
            h.str("a");
            h.str("bc");
            h.finish()
        };
        assert_ne!(a, b);
    }
}
