//! # mpsoc-gdbrsp — GDB Remote Serial Protocol server for the virtual platform
//!
//! Section VII of the paper makes virtual-platform debugging the payoff of
//! MPSoC simulation; this crate gives the [`mpsoc_vpdebug`] layer a wire
//! protocol, so a stock `gdb` (or anything speaking RSP) can attach to a
//! simulated platform, inspect every core, set breakpoints and
//! watchpoints — and drive the capabilities GDB has no verbs for
//! (time travel, checkpoints, stimulus recording) through `monitor`
//! commands.
//!
//! The protocol is hand-rolled: RSP is a line-of-text protocol
//! (`$payload#checksum`), and the suite's build is hermetic — zero
//! external dependencies.
//!
//! ## Layers
//!
//! * [`packet`] — framing: checksums, escapes, acks, an incremental
//!   [`Framer`] that never panics on hostile bytes.
//! * [`target`] — the [`Target`] trait: the flat debug surface the
//!   session drives. The headless test runner (`mpsoc-test` in
//!   `mpsoc-apps`) drives the *same* trait, so scripted CI scenarios and
//!   live debugger attaches exercise one code path.
//! * [`adapter`] — [`DebugTarget`]: [`Target`] over a
//!   [`Debugger`](mpsoc_vpdebug::Debugger).
//! * [`session`] — the packet dispatcher ([`Session`]).
//! * [`transport`] — TCP ([`GdbServer`]) and an in-memory duplex pipe
//!   ([`duplex_pair`]) for socket-free protocol tests, plus the
//!   [`RspClient`] test client.
//!
//! ## A session, end to end
//!
//! ```
//! use mpsoc_gdbrsp::{duplex_pair, serve, DebugTarget, RspClient, Session};
//! use mpsoc_platform::isa::assemble;
//! use mpsoc_platform::platform::PlatformBuilder;
//! use mpsoc_platform::Frequency;
//! use mpsoc_vpdebug::Debugger;
//!
//! let mut p = PlatformBuilder::new()
//!     .cores(1, Frequency::mhz(100))
//!     .shared_words(256)
//!     .cache(None)
//!     .build()
//!     .unwrap();
//! p.load_program(0, assemble("movi r1, 7\nhalt").unwrap(), 0).unwrap();
//!
//! let (server_end, client_end) = duplex_pair();
//! let server = std::thread::spawn(move || {
//!     let mut session = Session::new(DebugTarget::new(Debugger::new(p)));
//!     let mut end = server_end;
//!     serve(&mut session, &mut end).unwrap();
//! });
//! let mut gdb = RspClient::new(client_end);
//! assert_eq!(gdb.command("?").unwrap(), "S05");
//! assert_eq!(gdb.command("c").unwrap(), "W00"); // ran to completion
//! assert_eq!(gdb.command("D").unwrap(), "OK");
//! server.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod adapter;
pub mod error;
pub mod packet;
pub mod session;
pub mod target;
pub mod transport;

pub use crate::adapter::{parse_num, DebugTarget, NUM_REGS, PC_REG};
pub use crate::error::{Error, Result};
pub use crate::packet::{encode_packet, Framer, Item};
pub use crate::session::Session;
pub use crate::target::{StopReason, Target, WatchKind};
pub use crate::transport::{duplex_pair, serve, DuplexEnd, GdbServer, RspClient};
