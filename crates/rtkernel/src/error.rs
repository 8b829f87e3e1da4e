//! Kernel-model error type.

use std::fmt;

/// Errors raised by the real-time kernel models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A workload or platform parameter was invalid.
    Config(String),
    /// Admission control rejected a task set.
    AdmissionRejected {
        /// The task that could not be admitted.
        task: String,
        /// Why.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(m) => write!(f, "invalid configuration: {m}"),
            Error::AdmissionRejected { task, reason } => {
                write!(f, "task `{task}` rejected by admission control: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = Error::Config("zero cores".into());
        assert_eq!(e.to_string(), "invalid configuration: zero cores");
    }
}
