//! Recoder error type.

use std::fmt;

/// Errors raised by recoding transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A function/statement/variable was not found.
    NotFound(String),
    /// The transformation's preconditions do not hold; the message explains
    /// which analysis failed — the designer may *"concur, augment or
    /// overrule"* (Section VI), but the default is to refuse.
    Precondition(String),
    /// The source text did not parse.
    Parse(String),
    /// Nothing to undo.
    NothingToUndo,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(n) => write!(f, "`{n}` not found"),
            Error::Precondition(m) => write!(f, "transformation precondition failed: {m}"),
            Error::Parse(m) => write!(f, "source does not parse: {m}"),
            Error::NothingToUndo => write!(f, "nothing to undo"),
        }
    }
}

impl std::error::Error for Error {}

impl From<mpsoc_minic::Error> for Error {
    fn from(e: mpsoc_minic::Error) -> Self {
        Error::Parse(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
