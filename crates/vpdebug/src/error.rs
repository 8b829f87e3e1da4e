//! Debugger error type.

use std::fmt;

/// Errors raised by the virtual-platform debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An underlying platform error (bad core id, unmapped address, …).
    Platform(String),
    /// A time-travel operation was requested but time travel is not
    /// enabled ([`Debugger::enable_time_travel`] was never called).
    ///
    /// [`Debugger::enable_time_travel`]: crate::Debugger::enable_time_travel
    TimeTravelDisabled,
    /// A fault campaign's [`detect_addr`] or a word of its output region
    /// is not readable RAM on the platform the campaign image hydrates to.
    ///
    /// [`detect_addr`]: crate::campaign::CampaignConfig::detect_addr
    CampaignAddress {
        /// Which configured address: `"detect_addr"` or `"output region"`.
        what: &'static str,
        /// The first offending word address.
        addr: u32,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Platform(m) => write!(f, "platform: {m}"),
            Error::TimeTravelDisabled => write!(f, "time travel is not enabled"),
            Error::CampaignAddress { what, addr } => write!(
                f,
                "campaign config: {what} word {addr:#x} is not readable RAM on this platform"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<mpsoc_platform::Error> for Error {
    fn from(e: mpsoc_platform::Error) -> Self {
        Error::Platform(e.to_string())
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, Error>;
