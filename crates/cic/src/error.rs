//! CIC error type.

use std::fmt;

/// Errors raised by the CIC model, the translator and the exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The CIC model is ill-formed.
    Model(String),
    /// A mapping violates a constraint.
    Mapping(String),
    /// Execution of the model failed.
    Exec(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Model(m) => write!(f, "ill-formed CIC model: {m}"),
            Error::Mapping(m) => write!(f, "invalid mapping: {m}"),
            Error::Exec(m) => write!(f, "execution error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
