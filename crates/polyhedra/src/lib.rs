//! Presburger-style integer sets and affine maps.
//!
//! This crate is a from-scratch substitute for the subset of the
//! [isl](https://libisl.sourceforge.io/) integer set library that warping
//! cache simulation of polyhedral programs needs:
//!
//! * affine expressions over integer dimensions ([`Aff`]),
//! * affine constraints ([`Constraint`]),
//! * conjunctions of constraints ([`BasicSet`]) and finite unions of those
//!   ([`Set`]),
//! * single-valued affine maps ([`AffMap`]),
//! * the queries used by the simulator: membership, intersection, union,
//!   difference, emptiness, lexicographic minima/maxima (optionally with a
//!   fixed prefix of outer dimensions), lexicographic intervals and bounded
//!   point enumeration.
//!
//! # Exactness
//!
//! All operations are exact for bounded sets.  Lexicographic optimisation is
//! implemented by a bounded recursive search over dimensions whose per-level
//! bounds come from a rational Fourier–Motzkin projection; the projection can
//! only over-approximate, and every candidate value is verified recursively,
//! so a returned point is always correct and minimal.  When a query would
//! exceed its work budget (e.g. for an unbounded set) the result is
//! [`LexResult::Unknown`]; callers in the simulator treat `Unknown`
//! conservatively ("do not warp"), which preserves soundness.
//!
//! # Example
//!
//! ```
//! use polyhedra::{BasicSet, Aff, Set, LexResult};
//!
//! // { (i, j) | 0 <= i < 4, i <= j < 4 }
//! let dims = 2;
//! let i = Aff::var(dims, 0);
//! let j = Aff::var(dims, 1);
//! let four = Aff::constant(dims, 4);
//! let tri = BasicSet::universe(dims)
//!     .with_ge(i.clone())                    // i >= 0
//!     .with_gt(four.clone().sub(&i))         // 4 - i > 0   (i < 4)
//!     .with_ge(j.clone().sub(&i))            // j - i >= 0
//!     .with_gt(four.sub(&j));                // j < 4
//! assert!(tri.contains(&[1, 3]));
//! assert!(!tri.contains(&[3, 1]));
//! let set = Set::from_basic(tri);
//! assert_eq!(set.lexmin(), LexResult::Point(vec![0, 0]));
//! assert_eq!(set.lexmax(), LexResult::Point(vec![3, 3]));
//! assert_eq!(set.count_upto(100), Some(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aff;
mod basic_set;
mod constraint;
mod map;
mod set;

pub use aff::Aff;
pub use basic_set::{BasicSet, BoundRows, DimBounds};
pub use constraint::{Constraint, ConstraintKind};
pub use map::AffMap;
pub use set::{LexResult, Set};

/// Default work budget (number of search nodes) for lexicographic queries.
pub const DEFAULT_WORK_BUDGET: usize = 1 << 20;

/// Compares two integer tuples lexicographically.
///
/// Both tuples must have the same length.
///
/// # Panics
///
/// Panics if the tuples have different lengths.
///
/// ```
/// use std::cmp::Ordering;
/// assert_eq!(polyhedra::lex_cmp(&[1, 5], &[2, 0]), Ordering::Less);
/// ```
pub fn lex_cmp(a: &[i64], b: &[i64]) -> std::cmp::Ordering {
    assert_eq!(a.len(), b.len(), "lex_cmp requires equal-length tuples");
    a.cmp(b)
}
