//! New constants in a bound template, without binding again.
//!
//! A statement's selection *slots* are its `column op literal`
//! predicates in WHERE order: the binder pushes one selection per such
//! predicate, and literals occur nowhere else in a statement, so the
//! k-th literal of a text is slot k — the order
//! [`template_fingerprint`](crate::template_fingerprint) extracts its
//! [`ParamVector`](crate::ParamVector) in. The parser and the binder
//! read a literal's kind, never its value, so two texts whose tokens
//! differ only in literal values bind to graphs that differ only in
//! their slots' values, and [`substitute`] makes the second graph from
//! the first.

use crate::graph::QueryGraph;
use crate::predicate::{Lit, Selection};
use std::mem::discriminant;

/// `template` with `params` as its selections' literals, in slot order:
/// the graph binding `template`'s statement with those constants gives.
/// Everything else — relations and aliases, joins, columns, operators,
/// aggregates, grouping and the label — is `template`'s, so the result
/// has `template`'s [`TemplateFingerprint`](crate::TemplateFingerprint);
/// its exact fingerprint is its own.
///
/// # Panics
///
/// If `params` holds more or fewer literals than `template` has slots,
/// or a literal of another kind than its slot's (an `Int` for a
/// `Float`): either would be another template.
pub fn substitute(template: &QueryGraph, params: impl IntoIterator<Item = Lit>) -> QueryGraph {
    let mut params = params.into_iter();
    let selections = template
        .selections()
        .iter()
        .map(|slot| {
            let value = params.next().expect("a literal for every slot");
            assert!(
                discriminant(&value) == discriminant(&slot.value),
                "literal {value} does not fit slot {slot}"
            );
            Selection { value, ..*slot }
        })
        .collect();
    assert!(params.next().is_none(), "more literals than slots");
    let mut graph = QueryGraph::new(
        template.relations().to_vec(),
        template.joins().to_vec(),
        selections,
        template.aggregates().to_vec(),
        template.group_by().to_vec(),
    );
    graph.label.clone_from(&template.label);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse_select;
    use crate::{bind_select, fingerprints, template_fingerprint};
    use hfqo_storage::catalog::{Catalog, Column, ColumnType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("id", ColumnType::Int),
                Column::new("score", ColumnType::Float),
                Column::new("name", ColumnType::Text),
            ],
        ))
        .unwrap();
        c
    }

    fn bind(sql: &str) -> QueryGraph {
        bind_select(&parse_select(sql).unwrap(), &catalog()).unwrap()
    }

    const TEMPLATE: &str = "SELECT COUNT(*) FROM t a, t b \
        WHERE a.id = b.id AND a.id < 3 AND b.score >= 2.5 AND a.name = 'x'";

    /// Substituting a text's literals gives the graph binding that text
    /// gives, and keeps the template fingerprint.
    #[test]
    fn substituting_equals_binding_the_other_constants() {
        let template = bind(TEMPLATE);
        let other = "SELECT COUNT(*) FROM t a, t b \
            WHERE a.id = b.id AND a.id < -7 AND b.score >= -0.0 AND a.name = 'it''s'";
        let params = vec![Lit::Int(-7), Lit::Float(-0.0), Lit::Str("it's".into())];
        let substituted = substitute(&template, params.clone());
        assert_eq!(substituted, bind(other));
        let (t, p) = template_fingerprint(&substituted);
        assert_eq!(t, template_fingerprint(&template).0);
        assert_eq!(p.params(), &params[..]);
        assert_eq!(fingerprints(&substituted), fingerprints(&bind(other)));
        let labelled = template.with_label("q1");
        assert_eq!(substitute(&labelled, params).label.as_deref(), Some("q1"));
    }

    #[test]
    #[should_panic(expected = "does not fit slot")]
    fn a_literal_of_another_kind_is_refused() {
        let params = [Lit::Float(3.0), Lit::Float(2.5), Lit::Str("x".into())];
        substitute(&bind(TEMPLATE), params);
    }

    #[test]
    #[should_panic(expected = "a literal for every slot")]
    fn too_few_literals_are_refused() {
        substitute(&bind(TEMPLATE), [Lit::Int(3)]);
    }

    #[test]
    #[should_panic(expected = "more literals than slots")]
    fn too_many_literals_are_refused() {
        let params = [
            Lit::Int(3),
            Lit::Float(2.5),
            Lit::Str("x".into()),
            Lit::Int(4),
        ];
        substitute(&bind(TEMPLATE), params);
    }
}
