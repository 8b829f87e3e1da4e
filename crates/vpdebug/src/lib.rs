//! # mpsoc-vpdebug — debugging with virtual platforms (Section VII)
//!
//! CoWare's position in *"Programming MPSoC Platforms: Road Works Ahead!"*
//! (DATE 2009, Section VII) is that MPSoC software debugging needs a
//! *virtual platform*: a functionally accurate simulator that can be
//! *synchronously suspended* without perturbing the system, offers a
//! *consistent view* of all cores, peripherals, and signals, and supports
//! *scriptable system-level assertions* and *trace histories*. This crate
//! is that debugger, built on the deterministic
//! [`mpsoc-platform`](mpsoc_platform) simulator (the assertion language
//! itself is the `assert` line of `mpsoc-apps`' `.mts` test scripts, which
//! reads platform state through the inspection API here):
//!
//! * [`debugger`] — run control, breakpoints, memory/signal/peripheral
//!   access watchpoints, non-intrusive inspection, and (for contrast) the
//!   intrusive single-core halt of real-hardware debugging.
//! * [`trace`] — bounded execution/access history with per-address
//!   queries (E9 finds the race's lost updates in the counter's stream).
//! * [`heisenbug`] — the reproducible demonstration that intrusive
//!   debugging makes a shared-memory race vanish while virtual-platform
//!   suspension reproduces it bit-exactly (experiment E9).
//! * [`timetravel`] — a byte-bounded ring of one full base checkpoint plus
//!   delta checkpoints (dirty RAM pages + small component states), with
//!   deterministic forward replay giving `step-back` and
//!   `reverse-continue` without ever simulating backwards.
//! * [`stimulus`] — a timestamped record of external injections (mailbox
//!   pushes, signal writes, interrupt posts, DMA descriptors, memory and
//!   register writes) that replays through rewinds, closing the
//!   determinism gap interactive debugging opens.
//! * [`campaign`] — deterministic fault-injection campaigns over a
//!   checkpoint image: inject, run to a verdict, roll back to the base via
//!   O(dirty-state) delta restores, sweep in parallel with bit-identical
//!   results at any thread count; each distinct fault the golden run can
//!   observe is simulated once, the rest answered from that run.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_platform::platform::PlatformBuilder;
//! use mpsoc_platform::isa::assemble;
//! use mpsoc_platform::Frequency;
//! use mpsoc_vpdebug::debugger::{Debugger, Stop};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut p = PlatformBuilder::new().cores(1, Frequency::mhz(100)).shared_words(256).build()?;
//! p.load_program(0, assemble("movi r1, 5\nmovi r2, 6\nmul r3, r1, r2\nhalt")?, 0)?;
//! let mut dbg = Debugger::new(p);
//! dbg.add_breakpoint(0, 2);
//! assert!(matches!(dbg.run(100)?, Stop::Breakpoint { pc: 2, .. }));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod debugger;
pub mod error;
pub mod heisenbug;
pub mod stimulus;
pub mod timetravel;
pub mod trace;

pub use crate::campaign::{
    generate_faults, run_campaign, run_campaign_delta, CampaignConfig, CampaignReport, FaultSpace,
    FaultSpec, Verdict,
};
pub use crate::debugger::{Breakpoint, Debugger, OriginFilter, Stop, Watchpoint};
pub use crate::error::{Error, Result};
pub use crate::heisenbug::{build_race_platform, load_race_programs, run_race, DebugMode};
pub use crate::stimulus::StimulusKind;
pub use crate::trace::TraceEntry;
