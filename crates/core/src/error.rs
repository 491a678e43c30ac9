//! Evaluation errors.

use std::fmt;

/// A runtime evaluation failure: undefined variables, type errors in
/// contexts the language defines as errors (rather than `null`), arithmetic
/// overflow, missing parameters, and the like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Human-readable description.
    pub msg: String,
}

impl EvalError {
    /// Builds an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        EvalError { msg: msg.into() }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {}", self.msg)
    }
}

impl std::error::Error for EvalError {}

impl From<cypher_graph::GraphError> for EvalError {
    fn from(e: cypher_graph::GraphError) -> Self {
        EvalError::new(e.to_string())
    }
}

/// Shorthand for `Err(EvalError::new(…))`.
pub fn err<T>(msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError::new(msg))
}
