//! The SQL front-end: lexer, AST, and recursive-descent parser for the
//! subset the workloads use —
//!
//! ```sql
//! SELECT t.a, COUNT(*), MIN(s.b)
//! FROM title AS t, cast_info AS ci, ...
//! WHERE t.id = ci.movie_id AND t.production_year > 1990 AND ci.note = 'actor'
//! GROUP BY t.a;
//! ```
//!
//! The parser produces an *unbound* AST ([`SelectStmt`]); name
//! resolution against a catalog happens in the binder
//! ([`bind_select`](crate::bind_select)). Nothing in this module reads
//! the catalog, so the workload generators print SQL and round-trip it
//! through the parser in tests.

mod ast;
mod error;
mod parser;
mod token;

pub use ast::{
    AggFunc, ColumnName, CompareOp, Literal, SelectItem, SelectStmt, TableRef, WherePred,
};
pub use error::ParseError;
pub use parser::parse_select;
pub use token::{tokenize, Token};
