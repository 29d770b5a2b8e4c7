//! Conjunctions of affine constraints (basic sets).

use crate::constraint::{Constraint, ConstraintKind};
use crate::Aff;
use std::fmt;

/// A basic set: the integer points of `Z^dims` satisfying a conjunction of
/// affine constraints.
///
/// ```
/// use polyhedra::{Aff, BasicSet};
/// // { i | 0 <= i < 10 }
/// let s = BasicSet::universe(1)
///     .with_ge(Aff::var(1, 0))
///     .with_gt(Aff::constant(1, 10).sub(&Aff::var(1, 0)));
/// assert!(s.contains(&[0]) && s.contains(&[9]) && !s.contains(&[10]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BasicSet {
    dims: usize,
    constraints: Vec<Constraint>,
}

/// Integer bounds `(lower, upper)` for one dimension; `None` means unbounded
/// in that direction.
pub type DimBounds = (Option<i64>, Option<i64>);

impl BasicSet {
    /// The universe set over `dims` dimensions (no constraints).
    pub fn universe(dims: usize) -> Self {
        BasicSet {
            dims,
            constraints: Vec::new(),
        }
    }

    /// Builds a basic set from constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint has a different dimensionality.
    pub fn from_constraints(dims: usize, constraints: Vec<Constraint>) -> Self {
        for c in &constraints {
            assert_eq!(c.dims(), dims, "constraint dimensionality mismatch");
        }
        BasicSet { dims, constraints }
    }

    /// A rectangular box `lo[d] <= x_d <= hi[d]` (inclusive).
    pub fn rect(bounds: &[(i64, i64)]) -> Self {
        let dims = bounds.len();
        let mut s = BasicSet::universe(dims);
        for (d, (lo, hi)) in bounds.iter().enumerate() {
            let x = Aff::var(dims, d);
            s = s
                .with_ge(x.clone().offset(-lo))
                .with_ge(Aff::constant(dims, *hi).sub(&x));
        }
        s
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The constraints of the set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint in place.
    ///
    /// # Panics
    ///
    /// Panics if the constraint has a different dimensionality.
    pub fn add_constraint(&mut self, c: Constraint) {
        assert_eq!(c.dims(), self.dims, "constraint dimensionality mismatch");
        self.constraints.push(c);
    }

    /// Adds the constraint `aff >= 0`, returning `self` for chaining.
    pub fn with_ge(mut self, aff: Aff) -> Self {
        self.add_constraint(Constraint::ge(aff));
        self
    }

    /// Adds the constraint `aff > 0`, returning `self` for chaining.
    pub fn with_gt(mut self, aff: Aff) -> Self {
        self.add_constraint(Constraint::gt(aff));
        self
    }

    /// Adds the constraint `aff == 0`, returning `self` for chaining.
    pub fn with_eq(mut self, aff: Aff) -> Self {
        self.add_constraint(Constraint::eq(aff));
        self
    }

    /// Adds a constraint, returning `self` for chaining.
    pub fn with_constraint(mut self, c: Constraint) -> Self {
        self.add_constraint(c);
        self
    }

    /// Whether `point` satisfies all constraints.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != self.dims()`.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        self.constraints.iter().all(|c| c.holds(point))
    }

    /// Intersection with another basic set over the same dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn intersect(&self, other: &BasicSet) -> BasicSet {
        assert_eq!(self.dims, other.dims, "dimensionality mismatch");
        let mut constraints = self.constraints.clone();
        constraints.extend(other.constraints.iter().cloned());
        BasicSet {
            dims: self.dims,
            constraints,
        }
    }

    /// True if one of the constraints is a syntactic contradiction.
    pub fn has_trivial_contradiction(&self) -> bool {
        self.constraints.iter().any(|c| c.is_contradiction())
    }

    /// Drops constraints that are syntactic tautologies.
    pub fn simplify(&self) -> BasicSet {
        BasicSet {
            dims: self.dims,
            constraints: self
                .constraints
                .iter()
                .filter(|c| !c.is_tautology())
                .cloned()
                .collect(),
        }
    }

    /// Extends the set to `new_dims` dimensions; the new trailing dimensions
    /// are unconstrained.
    pub fn extend_dims(&self, new_dims: usize) -> BasicSet {
        BasicSet {
            dims: new_dims,
            constraints: self
                .constraints
                .iter()
                .map(|c| c.extend_dims(new_dims))
                .collect(),
        }
    }

    /// Inserts `count` unconstrained dimensions at position `at`.
    pub fn insert_dims(&self, at: usize, count: usize) -> BasicSet {
        BasicSet {
            dims: self.dims + count,
            constraints: self
                .constraints
                .iter()
                .map(|c| c.insert_dims(at, count))
                .collect(),
        }
    }

    /// Translates the set by `amount` along dimension `d`:
    /// `{ x + amount*e_d | x in self }`.
    pub fn translate_dim(&self, d: usize, amount: i64) -> BasicSet {
        BasicSet {
            dims: self.dims,
            constraints: self
                .constraints
                .iter()
                .map(|c| c.translate_dim(d, amount))
                .collect(),
        }
    }

    /// Fixes dimension `d` to `value` by adding an equality constraint.
    pub fn fix_dim(&self, d: usize, value: i64) -> BasicSet {
        let aff = Aff::var(self.dims, d).offset(-value);
        self.clone().with_eq(aff)
    }

    /// Rational Fourier–Motzkin elimination of all dimensions `>= keep`.
    ///
    /// The result constrains only the first `keep` dimensions and is an
    /// over-approximation of the integer projection: every point of the true
    /// projection satisfies the result, but the result may contain additional
    /// points.  This is exactly what the lexicographic search needs: the
    /// projected constraints provide valid (possibly loose) per-dimension
    /// bounds and candidate values are verified recursively.
    pub fn project_onto_prefix(&self, keep: usize) -> BasicSet {
        let mut ineqs: Vec<Aff> = Vec::new();
        for c in &self.constraints {
            for i in c.as_inequalities() {
                ineqs.push(i.aff().clone());
            }
        }
        for d in (keep..self.dims).rev() {
            let mut lower: Vec<Aff> = Vec::new(); // coeff(d) > 0
            let mut upper: Vec<Aff> = Vec::new(); // coeff(d) < 0
            let mut rest: Vec<Aff> = Vec::new();
            for a in ineqs {
                let c = a.coeff(d);
                if c > 0 {
                    lower.push(a);
                } else if c < 0 {
                    upper.push(a);
                } else {
                    rest.push(a);
                }
            }
            // Combine each lower bound with each upper bound:
            //   l: cl*x + al >= 0   (cl > 0)
            //   u: -cu*x + au >= 0  (cu > 0, coeff is -cu)
            //   =>  cu*al + cl*au >= 0
            for l in &lower {
                let cl = l.coeff(d);
                for u in &upper {
                    let cu = -u.coeff(d);
                    let combined = l.scale(cu).add(&u.scale(cl));
                    debug_assert_eq!(combined.coeff(d), 0);
                    rest.push(combined);
                }
            }
            ineqs = rest;
        }
        let constraints = ineqs
            .into_iter()
            .filter(|a| !a.involves_only_dims_below(0) || a.constant_term() < 0)
            .map(Constraint::ge)
            .filter(|c| !c.is_tautology())
            .collect();
        BasicSet {
            dims: self.dims,
            constraints,
        }
    }
}

/// The constraints of a basic set that bound one dimension `d` once the
/// dimensions before it are fixed, lowered to flat rows: every row reads
/// `a·x_d + p·x_{<d} + b >= 0` (an equality becomes two opposite rows).
///
/// Evaluating the rows against a concrete prefix allocates nothing, which
/// is what the compiled walk needs per loop entry and per guard, and what
/// the lexicographic search needs per search node.
///
/// ```
/// use polyhedra::{Aff, BasicSet, BoundRows};
/// // { (i, j) | 0 <= i < 5, i <= j < 5 }
/// let (i, j) = (Aff::var(2, 0), Aff::var(2, 1));
/// let t = BasicSet::universe(2)
///     .with_ge(i.clone())
///     .with_gt(Aff::constant(2, 5).sub(&i))
///     .with_ge(j.clone().sub(&i))
///     .with_gt(Aff::constant(2, 5).sub(&j));
/// let j_rows = BoundRows::new(t.constraints(), 1);
/// assert_eq!(j_rows.interval(&[2]), Some((Some(2), Some(4))));
/// assert!(j_rows.holds(&[2, 3]) && !j_rows.holds(&[2, 1]));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BoundRows {
    dim: usize,
    /// `dim + 2` values per row: `a`, the `dim` prefix coefficients, `b`.
    data: Vec<i64>,
}

impl BoundRows {
    /// Lowers the `constraints` that involve no dimension after `dim`;
    /// the others are left out (for loop-nest-shaped sets, where every
    /// constraint on `x_d` involves only dimensions `<= d`, the rows are
    /// exact; project the set first to account for the rest).
    pub fn new<'a>(constraints: impl IntoIterator<Item = &'a Constraint>, dim: usize) -> Self {
        let mut data = Vec::new();
        for c in constraints {
            let aff = c.aff();
            if !aff.involves_only_dims_below(dim + 1) {
                continue;
            }
            let coeff = |d: usize| aff.coeffs().get(d).copied().unwrap_or(0);
            let signs: &[i64] = match c.kind() {
                ConstraintKind::Ge => &[1],
                ConstraintKind::Eq => &[1, -1],
            };
            for &sign in signs {
                data.push(sign * coeff(dim));
                data.extend((0..dim).map(|d| sign * coeff(d)));
                data.push(sign * aff.constant_term());
            }
        }
        BoundRows { dim, data }
    }

    /// The bounded dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The rows as `(a, p, b)`: `a·x_d + p·x_{<d} + b >= 0`.
    pub fn rows(&self) -> impl Iterator<Item = (i64, &[i64], i64)> + '_ {
        self.data
            .chunks_exact(self.dim + 2)
            .map(|row| (row[0], &row[1..=self.dim], row[self.dim + 1]))
    }

    /// The integer bounds of `x_d` given concrete values for the
    /// dimensions before it (`prefix` may be longer; only its first `d`
    /// values are read).  An interval with `lower > upper` is empty;
    /// `None` means a row without `x_d` fails at `prefix`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is shorter than `d`.
    #[inline]
    pub fn interval(&self, prefix: &[i64]) -> Option<DimBounds> {
        let prefix = &prefix[..self.dim];
        let (mut lo, mut hi): DimBounds = (None, None);
        for (a, p, b) in self.rows() {
            let rest = b + dot(p, prefix);
            if a > 0 {
                // x_d >= ceil(-rest / a)
                let bound = div_ceil(-rest, a);
                lo = Some(lo.map_or(bound, |l| l.max(bound)));
            } else if a < 0 {
                // x_d <= floor(rest / -a)
                let bound = div_floor(rest, -a);
                hi = Some(hi.map_or(bound, |h| h.min(bound)));
            } else if rest < 0 {
                return None;
            }
        }
        Some((lo, hi))
    }

    /// Whether every row holds at `point` (its first `d + 1` values are
    /// read).
    ///
    /// # Panics
    ///
    /// Panics if `point` is shorter than `d + 1`.
    #[inline]
    pub fn holds(&self, point: &[i64]) -> bool {
        let (prefix, x) = (&point[..self.dim], point[self.dim]);
        self.rows().all(|(a, p, b)| a * x + dot(p, prefix) + b >= 0)
    }
}

#[inline]
fn dot(p: &[i64], x: &[i64]) -> i64 {
    p.iter().zip(x).map(|(a, b)| a * b).sum()
}

/// Floor division for `i64` (rounds towards negative infinity).
pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a < 0 {
        q - 1
    } else {
        q
    }
}

/// Ceiling division for `i64` (rounds towards positive infinity).
pub(crate) fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    let q = a / b;
    if a % b != 0 && a > 0 {
        q + 1
    } else {
        q
    }
}

impl fmt::Debug for BasicSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{ dims={} : ", self.dims)?;
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " and ")?;
            }
            write!(f, "{c:?}")?;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> BasicSet {
        // { (i, j) | 0 <= i < 5, i <= j < 5 }
        let i = Aff::var(2, 0);
        let j = Aff::var(2, 1);
        BasicSet::universe(2)
            .with_ge(i.clone())
            .with_gt(Aff::constant(2, 5).sub(&i))
            .with_ge(j.clone().sub(&i))
            .with_gt(Aff::constant(2, 5).sub(&j))
    }

    #[test]
    fn contains_triangle() {
        let t = triangle();
        assert!(t.contains(&[0, 0]));
        assert!(t.contains(&[2, 4]));
        assert!(!t.contains(&[3, 2]));
        assert!(!t.contains(&[5, 5]));
    }

    #[test]
    fn bound_rows_triangle() {
        let t = triangle();
        let rows = |d| BoundRows::new(t.constraints(), d);
        // Dimension 0 sees only the two constraints on i.
        assert_eq!(rows(0).rows().count(), 2);
        assert_eq!(rows(0).interval(&[]), Some((Some(0), Some(4))));
        assert_eq!(rows(1).interval(&[2]), Some((Some(2), Some(4))));
        assert_eq!(rows(1).interval(&[4]), Some((Some(4), Some(4))));
        // A prefix outside the rows on i alone: the prefix-only rows fail.
        assert_eq!(rows(1).interval(&[5]), None);
        assert!(rows(1).holds(&[2, 4]) && !rows(1).holds(&[3, 2]));
        // An equality lowers to two opposite rows.
        let fixed = BasicSet::rect(&[(0, 9)]).fix_dim(0, 3);
        let eq = BoundRows::new(fixed.constraints(), 0);
        assert_eq!(eq.rows().count(), 4);
        assert_eq!(eq.interval(&[]), Some((Some(3), Some(3))));
    }

    #[test]
    fn rect_and_fix() {
        let r = BasicSet::rect(&[(0, 3), (-2, 2)]);
        assert!(r.contains(&[3, -2]));
        assert!(!r.contains(&[4, 0]));
        let fixed = r.fix_dim(0, 2);
        assert!(fixed.contains(&[2, 0]));
        assert!(!fixed.contains(&[1, 0]));
    }

    #[test]
    fn projection_gives_valid_bounds() {
        // { (i, j) | 0 <= j < 10, i == 2*j } — projecting out j bounds i.
        let i = Aff::var(2, 0);
        let j = Aff::var(2, 1);
        let s = BasicSet::universe(2)
            .with_ge(j.clone())
            .with_gt(Aff::constant(2, 10).sub(&j))
            .with_eq(i.sub(&j.scale(2)));
        let p = s.project_onto_prefix(1);
        let b = BoundRows::new(p.constraints(), 0).interval(&[]).unwrap();
        assert_eq!(b, (Some(0), Some(18)));
    }

    #[test]
    fn div_rounding() {
        assert_eq!(div_floor(7, 2), 3);
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_ceil(7, 2), 4);
        assert_eq!(div_ceil(-7, 2), -3);
    }

    #[test]
    fn intersect_and_simplify() {
        let a = BasicSet::rect(&[(0, 10)]);
        let b = BasicSet::rect(&[(5, 20)]);
        let c = a.intersect(&b);
        assert!(c.contains(&[7]));
        assert!(!c.contains(&[3]));
        let taut = BasicSet::universe(1).with_ge(Aff::constant(1, 5));
        assert_eq!(taut.simplify().constraints().len(), 0);
    }

    #[test]
    fn insert_dims_shifts_constraints() {
        let s = BasicSet::rect(&[(0, 3)]);
        let t = s.insert_dims(0, 1);
        assert_eq!(t.dims(), 2);
        assert!(t.contains(&[99, 2]));
        assert!(!t.contains(&[99, 4]));
    }
}
