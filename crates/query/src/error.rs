//! Query-layer errors.

use hfqo_storage::catalog::CatalogError;
use std::fmt;

/// Errors raised while binding or validating queries and plans.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// An alias in the FROM clause appears twice.
    DuplicateAlias(String),
    /// A predicate references an alias not in the FROM clause.
    UnknownAlias(String),
    /// Catalog lookup failure (unknown table/column).
    Catalog(CatalogError),
    /// A comparison mixes incompatible types.
    TypeMismatch(String),
    /// More relations than [`RelSet`](crate::RelSet) supports (64).
    TooManyRelations(usize),
    /// A plan was structurally invalid (wrong relation coverage, bad
    /// predicate index, etc.).
    InvalidPlan(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateAlias(a) => write!(f, "duplicate alias `{a}` in FROM clause"),
            Self::UnknownAlias(a) => write!(f, "unknown alias `{a}`"),
            Self::Catalog(e) => write!(f, "{e}"),
            Self::TypeMismatch(msg) => write!(f, "type mismatch: {msg}"),
            Self::TooManyRelations(n) => {
                write!(f, "query has {n} relations; the engine supports at most 64")
            }
            Self::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Catalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CatalogError> for QueryError {
    fn from(e: CatalogError) -> Self {
        Self::Catalog(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(QueryError::DuplicateAlias("t".into())
            .to_string()
            .contains("duplicate alias"));
        assert!(QueryError::TooManyRelations(70).to_string().contains("70"));
    }
}
