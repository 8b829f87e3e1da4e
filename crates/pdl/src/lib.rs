//! # mpsoc-pdl — declarative platform description language
//!
//! The paper's premise is that MPSoC platforms are handed to the
//! programmer as fixed artifacts ("road works ahead" — the platform is the
//! road). This crate makes the platform itself a described, generated, and
//! *swept* object:
//!
//! * **Language** (`.soc` files): a hand-rolled declarative format — same
//!   lexer/parser idiom as the mini-C front end, zero external
//!   dependencies — describing cores (class/frequency/cluster), memories,
//!   caches, bus or mesh interconnect, and peripherals, with optional
//!   area/power budgets. See [`parser`] for the grammar.
//! * **Compiler**: [`compile::compile`] turns a source into a live
//!   [`mpsoc_platform::Platform`] via `PlatformBuilder`, with every failure
//!   (unknown references, duplicate names, out-of-range attributes, budget
//!   violations, builder rejections) reported as a source-located
//!   [`error::Error`] — the front end never panics on malformed input.
//! * **Generator**: [`generate::generate`] emits distinct, always-valid
//!   `.soc` sources from a seed (heterogeneous APU/RPU/DSP clusters,
//!   accelerators, budget-constrained variants).
//! * **Joint DSE**: [`dse::joint_sweep`] sweeps (topology seed, mapping)
//!   pairs on the deterministic explore engine and emits a Pareto front
//!   over (makespan, area, power) that is bit-identical at any thread
//!   count.
//!
//! ```
//! let src = "platform demo {
//!     core host { class = apu; freq_mhz = 600; }
//!     core dsp0 { class = dsp; freq_mhz = 200; }
//!     memory { shared_words = 4096; }
//!     timer tick;
//! }";
//! let platform = mpsoc_pdl::compile(src).unwrap();
//! assert_eq!(platform.num_cores(), 2);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod dse;
pub mod error;
pub mod generate;
pub mod lexer;
pub mod parser;
pub mod token;

pub use crate::compile::compile;
pub use crate::dse::{joint_sweep, JointConfig, JointReport};
pub use crate::error::{Error, Result};
pub use crate::generate::generate;
pub use crate::parser::parse;
