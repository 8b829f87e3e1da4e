//! # mpsoc-recoder — designer-controlled source recoding (Section VI)
//!
//! UC Irvine's Source Recoder, as presented in *"Programming MPSoC
//! Platforms: Road Works Ahead!"* (DATE 2009, Section VI and Figure 3),
//! attacks the *specification bottleneck*: *"about 90% of the system design
//! time is spent on coding and re-coding of MPSoC models even in the
//! presence of algorithms available as C code."* Instead of a fully
//! automatic parallelising compiler, it offers *interactive, chained,
//! designer-controlled transformations* over a model that is kept
//! simultaneously as text and as an AST.
//!
//! * [`recoder`] — the editor/AST union of Figure 3: document ↔ AST
//!   synchronisation, undo, and the productivity ledger.
//! * [`transforms`] — the three transformations the experiments run from
//!   the paper's walkthrough: loop splitting, pointer recoding and
//!   control-structure pruning.
//!
//! Every transformation refuses to run when its static preconditions fail,
//! mirroring the paper's stance that the tool and the designer share the
//! responsibility for correctness. The test-suite additionally verifies
//! semantic preservation with the mini-C interpreter.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_recoder::recoder::Recoder;
//! use mpsoc_recoder::transforms::split_loop;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut session = Recoder::from_source(
//!     "void fill(int n, int out[]) {\n\
//!      for (i = 0; i < 64; i = i + 1) { out[i] = i * 3; }\n\
//!      }",
//! )?;
//! session.apply(|unit| split_loop(unit, "fill", 0, 4))?;
//! assert_eq!(session.document().matches("for (").count(), 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod recoder;
pub mod transforms;

pub use crate::error::{Error, Result};
pub use crate::recoder::Recoder;
