//! Polyhedral program representation for cache simulation.
//!
//! This crate is the substitute for `pet` (the Polyhedral Extraction Tool)
//! used by the paper *Warping Cache Simulation of Polyhedral Programs*
//! (Morelli & Reineke, PLDI 2022).  It provides:
//!
//! * the tree-structured SCoP representation of §3.2 of the paper —
//!   [`LoopNode`]s with iteration domains and [`AccessNode`]s with iteration
//!   domains and affine access functions ([`tree`]),
//! * a small abstract syntax tree for affine loop nests ([`ast`]) together
//!   with an elaborator that turns it into the tree representation,
//!   assigning array base addresses and linearising subscripts
//!   ([`elaborate()`]),
//! * a mini-C frontend ([`parser`]) that parses affine loop nests written in
//!   a C-like syntax (the shape of the PolyBench kernels) into the AST,
//! * parametric kernel **families** ([`param`]): sources may declare
//!   symbolic parameters (`param N, T;`) used in extents, bounds and
//!   strides; a [`ParametricScop`] parses the template once and stamps out
//!   concrete instances per [`ParamBindings`] without re-parsing.
//!
//! # Example
//!
//! ```
//! use scop::parse_scop;
//!
//! // The 1D stencil running example of the paper (Figure 1).
//! let source = r#"
//!     double A[1000];
//!     double B[1000];
//!     for (i = 1; i < 999; i++)
//!         B[i-1] = A[i-1] + A[i];
//! "#;
//! let scop = parse_scop(source).expect("valid SCoP");
//! assert_eq!(scop.arrays().len(), 2);
//! assert_eq!(scop.access_nodes().count(), 3); // A[i-1], A[i], B[i-1]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod canon;
pub mod compile;
pub mod elaborate;
pub mod param;
pub mod parser;
pub mod tree;
pub mod walk;

pub use ast::{ArrayAccess, ArrayDecl, CmpOp, Condition, Expr, Program, Statement};
pub use canon::{canonical_text, canonicalize};
pub use compile::{
    compile, for_each_group_at, AccessRun, CompiledAccess, CompiledLoop, CompiledNode,
    CompiledScop, LoopEntry, RunGroup, WalkScratch,
};
pub use elaborate::{elaborate, ElaborateError, ElaborateOptions};
pub use param::{ParamBindings, ParamError, ParametricScop};
pub use parser::{parse_program, ParseError};
pub use tree::{AccessNode, ArrayInfo, LoopNode, Node, Scop};
pub use walk::{count_accesses, exceeds_access_count, for_each_access, DynamicAccess};

/// Parses a mini-C source text and elaborates it into a [`Scop`], using the
/// default elaboration options (array accesses only, 64-byte alignment).
///
/// # Errors
///
/// Returns an error string if parsing or elaboration fails.
pub fn parse_scop(source: &str) -> Result<Scop, String> {
    let program = parse_program(source).map_err(|e| e.to_string())?;
    elaborate(&program, &ElaborateOptions::default()).map_err(|e| e.to_string())
}
