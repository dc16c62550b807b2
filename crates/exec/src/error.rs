//! Executor errors.

use hfqo_query::QueryError;
use hfqo_storage::StorageError;
use std::fmt;

/// Errors raised during plan execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The work budget was exhausted (the plan is catastrophically bad, or
    /// the budget was configured too low).
    BudgetExceeded {
        /// Rows of work performed before aborting.
        work_done: u64,
        /// The configured budget.
        budget: u64,
    },
    /// Plan-shape problem discovered at runtime.
    Plan(QueryError),
    /// Storage-level failure.
    Storage(StorageError),
    /// An index scan referenced an index that has not been built.
    IndexNotBuilt(String),
    /// An aggregate was applied to an incompatible value.
    BadAggregate(String),
    /// A worker thread of the evaluator panicked. The query fails; the
    /// calling thread, and whatever session it serves, carries on.
    WorkerPanicked,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExceeded { work_done, budget } => write!(
                f,
                "execution budget exceeded: {work_done} rows of work against a budget of {budget}"
            ),
            Self::Plan(e) => write!(f, "plan error: {e}"),
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::IndexNotBuilt(name) => write!(f, "index `{name}` has not been built"),
            Self::BadAggregate(msg) => write!(f, "bad aggregate: {msg}"),
            Self::WorkerPanicked => write!(f, "an executor worker thread panicked"),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Plan(e) => Some(e),
            Self::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for ExecError {
    fn from(e: QueryError) -> Self {
        Self::Plan(e)
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = ExecError::BudgetExceeded {
            work_done: 100,
            budget: 50,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("50"));
    }
}
