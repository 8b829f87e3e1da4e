//! Platform error types.

use std::fmt;

use crate::isa::Word;

/// Errors raised while building or simulating a platform.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A memory access fell outside every mapped region.
    UnmappedAddress {
        /// The offending word address.
        addr: u32,
    },
    /// A peripheral register address does not exist on the device.
    BadPeripheralRegister {
        /// Peripheral instance name.
        peripheral: String,
        /// Register offset within the device page.
        offset: u32,
    },
    /// Execution fell off the end of a program or jumped outside it.
    PcOutOfRange {
        /// The core whose program counter escaped.
        core: usize,
        /// The escaped program counter.
        pc: u32,
    },
    /// An integer division by zero was executed.
    DivideByZero {
        /// The core that divided by zero.
        core: usize,
        /// The program counter of the faulting instruction.
        pc: u32,
    },
    /// The assembler rejected a source line.
    Assembler {
        /// 1-based source line.
        line: usize,
        /// Human-readable reason.
        msg: String,
    },
    /// A platform was configured inconsistently.
    Config(String),
    /// A core id referred to a core that does not exist.
    NoSuchCore(usize),
    /// A named signal or peripheral was not found.
    NotFound(String),
    /// A store wrote an unrepresentable value to a peripheral register.
    BadRegisterValue {
        /// Peripheral instance name.
        peripheral: String,
        /// Register offset within the device page.
        offset: u32,
        /// The rejected value.
        value: Word,
    },
    /// A platform checkpoint could not be captured or restored (corrupt
    /// image, version mismatch, or a peripheral without snapshot support).
    Snapshot(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnmappedAddress { addr } => {
                write!(f, "unmapped word address {addr:#x}")
            }
            Error::BadPeripheralRegister { peripheral, offset } => {
                write!(f, "peripheral `{peripheral}` has no register {offset:#x}")
            }
            Error::PcOutOfRange { core, pc } => {
                write!(f, "core {core} program counter {pc:#x} out of range")
            }
            Error::DivideByZero { core, pc } => {
                write!(f, "core {core} divided by zero at pc {pc:#x}")
            }
            Error::Assembler { line, msg } => write!(f, "assembler error at line {line}: {msg}"),
            Error::Config(msg) => write!(f, "invalid platform configuration: {msg}"),
            Error::NoSuchCore(id) => write!(f, "no core with id {id}"),
            Error::NotFound(name) => write!(f, "no signal or peripheral named `{name}`"),
            Error::BadRegisterValue {
                peripheral,
                offset,
                value,
            } => write!(
                f,
                "peripheral `{peripheral}` register {offset:#x} rejected value {value}"
            ),
            Error::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for platform results.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = Error::PcOutOfRange { core: 2, pc: 0x44 };
        let s = e.to_string();
        assert!(s.contains("core 2"));
        assert!(s.contains("0x44"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(Error::NoSuchCore(3));
    }
}
