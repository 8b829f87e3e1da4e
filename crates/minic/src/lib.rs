//! # mpsoc-minic — a mini-C front end for MPSoC programming tools
//!
//! Three of the systems described in *"Programming MPSoC Platforms: Road
//! Works Ahead!"* (DATE 2009) operate on C source code: the MAPS
//! parallelization flow (Section IV) consumes *"sequential C code"*, the
//! HOPES CIC tasks (Section V) carry C bodies, and the Source Recoder
//! (Section VI) interactively transforms *"applications written in a C-based
//! SLDL"*. This crate is the shared front end they all build on:
//!
//! * [`lexer`] / [`parser`] — a restricted but genuine C subset: `int`
//!   scalars, arrays, pointers, functions, `if`/`while`/canonical `for`.
//! * [`ast`] — statements carry stable [`ast::NodeId`]s so interactive
//!   transformations can track identity across edits.
//! * [`printer`] — AST back to source (the recoder's code generator).
//! * [`symbols`] — scope resolution and semantic checks.
//! * [`analysis`] — def/use footprints, dependence graphs, and the
//!   analyzability score that pointer recoding improves.
//! * [`cost`] — the coarse static cost model MAPS partitions with.
//! * [`interp`] — a reference interpreter used as the semantic oracle in
//!   transformation and retargeting tests.
//!
//! ## Quickstart
//!
//! ```
//! use mpsoc_minic::{parser::parse, analysis, interp::Interp};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let unit = parse("int dot(int n, int a[], int b[]) {\n\
//!                   int s = 0;\n\
//!                   for (i = 0; i < n; i = i + 1) { s = s + a[i] * b[i]; }\n\
//!                   return s; }")?;
//! // Dependence analysis sees the loop-carried reduction on `s`.
//! let deps = analysis::dependences(&unit.functions[0].body);
//! assert!(!deps.is_empty());
//! // And the interpreter can execute it.
//! let mut it = Interp::new(&unit);
//! let a = it.alloc_array(&[1, 2, 3]);
//! let b = it.alloc_array(&[4, 5, 6]);
//! assert_eq!(it.run("dot", &[3, a, b])?, Some(32));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod cost;
pub mod error;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod symbols;
pub mod token;

pub use crate::ast::{Expr, Function, LValue, Stmt, StmtKind, Type, Unit};
pub use crate::error::{Error, Result};
pub use crate::parser::parse;
pub use crate::printer::print_unit;
