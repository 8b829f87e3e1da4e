//! MAPS error type.

use std::fmt;

/// Errors raised by the MAPS flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A named function/application/PE was not found.
    NotFound(String),
    /// Invalid parameters.
    Config(String),
    /// The mini-C front end rejected the input.
    FrontEnd(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(n) => write!(f, "`{n}` not found"),
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
            Error::FrontEnd(m) => write!(f, "front end error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<mpsoc_minic::Error> for Error {
    fn from(e: mpsoc_minic::Error) -> Self {
        Error::FrontEnd(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
