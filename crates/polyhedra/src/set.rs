//! Finite unions of basic sets and lexicographic queries.

use crate::basic_set::{BasicSet, BoundRows};
use crate::constraint::Constraint;
use crate::{Aff, DEFAULT_WORK_BUDGET};
use std::cmp::Ordering;
use std::fmt;

/// Result of a lexicographic query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LexResult {
    /// The optimum point.
    Point(Vec<i64>),
    /// The set is empty.
    Empty,
    /// The query exceeded its work budget (e.g. the set is unbounded in the
    /// direction of optimisation).  Callers must treat this conservatively.
    Unknown,
}

impl LexResult {
    /// Returns the point if the result is [`LexResult::Point`].
    pub fn point(&self) -> Option<&[i64]> {
        match self {
            LexResult::Point(p) => Some(p),
            _ => None,
        }
    }

    /// True if the result is [`LexResult::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, LexResult::Empty)
    }
}

/// A Presburger-style set: a finite union of [`BasicSet`]s over a common
/// number of dimensions.
///
/// ```
/// use polyhedra::{BasicSet, Set};
/// let a = Set::from_basic(BasicSet::rect(&[(0, 4)]));
/// let b = Set::from_basic(BasicSet::rect(&[(2, 8)]));
/// let diff = a.subtract(&b);
/// assert!(diff.contains(&[1]));
/// assert!(!diff.contains(&[2]));
/// assert_eq!(diff.count_upto(100), Some(2)); // {0, 1}
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Set {
    dims: usize,
    basics: Vec<BasicSet>,
}

impl Set {
    /// The empty set over `dims` dimensions.
    pub fn empty(dims: usize) -> Self {
        Set {
            dims,
            basics: Vec::new(),
        }
    }

    /// The universe set over `dims` dimensions.
    pub fn universe(dims: usize) -> Self {
        Set {
            dims,
            basics: vec![BasicSet::universe(dims)],
        }
    }

    /// A set with a single basic set.
    pub fn from_basic(basic: BasicSet) -> Self {
        Set {
            dims: basic.dims(),
            basics: vec![basic],
        }
    }

    /// A set containing exactly one point.
    pub fn from_point(point: &[i64]) -> Self {
        let dims = point.len();
        let mut b = BasicSet::universe(dims);
        for (d, v) in point.iter().enumerate() {
            b.add_constraint(Constraint::eq(Aff::var(dims, d).offset(-v)));
        }
        Set::from_basic(b)
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The basic sets making up this union.
    pub fn basics(&self) -> &[BasicSet] {
        &self.basics
    }

    /// Whether the union is syntactically empty (contains no basic sets).
    /// Use [`Set::is_empty`] for a semantic emptiness check.
    pub fn has_no_basics(&self) -> bool {
        self.basics.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, point: &[i64]) -> bool {
        self.basics.iter().any(|b| b.contains(point))
    }

    /// Union with another set.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn union(&self, other: &Set) -> Set {
        assert_eq!(self.dims, other.dims, "dimensionality mismatch");
        let mut basics = self.basics.clone();
        basics.extend(other.basics.iter().cloned());
        Set {
            dims: self.dims,
            basics,
        }
    }

    /// Intersection with another set (distributes over the unions).
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn intersect(&self, other: &Set) -> Set {
        assert_eq!(self.dims, other.dims, "dimensionality mismatch");
        let mut basics = Vec::new();
        for a in &self.basics {
            for b in &other.basics {
                let c = a.intersect(b).simplify();
                if !c.has_trivial_contradiction() {
                    basics.push(c);
                }
            }
        }
        Set {
            dims: self.dims,
            basics,
        }
    }

    /// Intersection with a single basic set.
    pub fn intersect_basic(&self, other: &BasicSet) -> Set {
        self.intersect(&Set::from_basic(other.clone()))
    }

    /// Set difference `self \ other`.
    ///
    /// Subtracting a union subtracts its basic sets one after another, and
    /// every step splits each piece once per negated constraint.  Between
    /// steps, pieces proved empty over the integers are dropped (pieces
    /// whose emptiness check runs out of budget stay), so the piece count
    /// does not multiply through empty pieces.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn subtract(&self, other: &Set) -> Set {
        assert_eq!(self.dims, other.dims, "dimensionality mismatch");
        let mut result = self.clone();
        for (i, b) in other.basics.iter().enumerate() {
            if i > 0 {
                result.basics.retain(|piece| {
                    basic_lexopt(piece, DEFAULT_WORK_BUDGET, false) != LexResult::Empty
                });
            }
            result = result.subtract_basic(b);
        }
        result
    }

    fn subtract_basic(&self, other: &BasicSet) -> Set {
        // A \ (c1 ∧ ... ∧ cm) = ⋃_i (A ∧ c1 ∧ ... ∧ c_{i-1} ∧ ¬c_i)
        let mut pieces: Vec<BasicSet> = Vec::new();
        for a in &self.basics {
            let mut context = a.clone();
            for c in other.constraints() {
                for neg in c.negate() {
                    let piece = context.clone().with_constraint(neg).simplify();
                    if !piece.has_trivial_contradiction() {
                        pieces.push(piece);
                    }
                }
                context.add_constraint(c.clone());
            }
        }
        Set {
            dims: self.dims,
            basics: pieces,
        }
    }

    /// Extends the set to `new_dims` dimensions (new trailing dimensions are
    /// unconstrained).
    pub fn extend_dims(&self, new_dims: usize) -> Set {
        Set {
            dims: new_dims,
            basics: self
                .basics
                .iter()
                .map(|b| b.extend_dims(new_dims))
                .collect(),
        }
    }

    /// Translates the set by `amount` along dimension `d`:
    /// `{ x + amount*e_d | x in self }`.
    pub fn translate_dim(&self, d: usize, amount: i64) -> Set {
        Set {
            dims: self.dims,
            basics: self
                .basics
                .iter()
                .map(|b| b.translate_dim(d, amount))
                .collect(),
        }
    }

    /// Fixes dimension `d` to `value` in every basic set.
    pub fn fix_dim(&self, d: usize, value: i64) -> Set {
        Set {
            dims: self.dims,
            basics: self.basics.iter().map(|b| b.fix_dim(d, value)).collect(),
        }
    }

    /// The lexicographic interval `{ k | lo ⪯ k ≺ hi }`.
    ///
    /// # Panics
    ///
    /// Panics if `lo` and `hi` have different lengths.
    pub fn lex_interval(lo: &[i64], hi: &[i64]) -> Set {
        assert_eq!(
            lo.len(),
            hi.len(),
            "interval endpoints must have equal length"
        );
        Set::lex_ge_point(lo).intersect(&Set::lex_lt_point(hi))
    }

    /// The set of points lexicographically `>=` the given point.
    pub fn lex_ge_point(p: &[i64]) -> Set {
        Set::lex_compare_point(p, true, true)
    }

    /// The set of points lexicographically `>` the given point.
    pub fn lex_gt_point(p: &[i64]) -> Set {
        Set::lex_compare_point(p, true, false)
    }

    /// The set of points lexicographically `<=` the given point.
    pub fn lex_le_point(p: &[i64]) -> Set {
        Set::lex_compare_point(p, false, true)
    }

    /// The set of points lexicographically `<` the given point.
    pub fn lex_lt_point(p: &[i64]) -> Set {
        Set::lex_compare_point(p, false, false)
    }

    fn lex_compare_point(p: &[i64], greater: bool, allow_eq: bool) -> Set {
        let dims = p.len();
        let mut basics = Vec::new();
        // One disjunct per position t where the strict comparison happens:
        // x_0 = p_0, ..., x_{t-1} = p_{t-1}, x_t > p_t (or <).
        for t in 0..dims {
            let mut b = BasicSet::universe(dims);
            for (d, v) in p.iter().enumerate().take(t) {
                b.add_constraint(Constraint::eq(Aff::var(dims, d).offset(-v)));
            }
            let x = Aff::var(dims, t).offset(-p[t]);
            let c = if greater {
                Constraint::gt(x)
            } else {
                Constraint::gt(x.neg())
            };
            b.add_constraint(c);
            basics.push(b);
        }
        if allow_eq {
            basics.push(
                Set::from_point(p)
                    .basics
                    .into_iter()
                    .next()
                    .expect("point set has one basic set"),
            );
        }
        Set { dims, basics }
    }

    /// Lexicographic minimum with the default work budget.
    pub fn lexmin(&self) -> LexResult {
        self.lexmin_budgeted(DEFAULT_WORK_BUDGET)
    }

    /// Lexicographic maximum with the default work budget.
    pub fn lexmax(&self) -> LexResult {
        self.lexmax_budgeted(DEFAULT_WORK_BUDGET)
    }

    /// Lexicographic minimum with an explicit work budget.
    pub fn lexmin_budgeted(&self, budget: usize) -> LexResult {
        self.lexopt(budget, false)
    }

    /// Lexicographic maximum with an explicit work budget.
    pub fn lexmax_budgeted(&self, budget: usize) -> LexResult {
        self.lexopt(budget, true)
    }

    /// Lexicographic minimum among the points whose first `prefix.len()`
    /// coordinates equal `prefix`.
    pub fn lexmin_with_prefix(&self, prefix: &[i64]) -> LexResult {
        self.with_prefix_fixed(prefix).lexmin()
    }

    /// Lexicographic maximum among the points whose first `prefix.len()`
    /// coordinates equal `prefix`.
    pub fn lexmax_with_prefix(&self, prefix: &[i64]) -> LexResult {
        self.with_prefix_fixed(prefix).lexmax()
    }

    /// Writes the lexicographic minimum among the points whose first
    /// `prefix.len()` coordinates equal `prefix` into `out`, returning
    /// whether such a point was found (`false` covers both an empty set
    /// and an exhausted work budget — callers that walk a domain skip
    /// the entry either way).
    ///
    /// Unlike [`Set::lexmin_with_prefix`] this seeds the search with the
    /// prefix instead of cloning the set with the prefix fixed, and only
    /// projects the dimensions actually searched: reference walks call
    /// it once per loop entry, so it reuses the caller's buffer and
    /// avoids the per-entry set clone entirely.
    pub fn lexmin_with_prefix_into(&self, prefix: &[i64], out: &mut Vec<i64>) -> bool {
        self.lexopt_seeded_into(prefix, out, DEFAULT_WORK_BUDGET, false)
    }

    /// The `lexmax` counterpart of [`Set::lexmin_with_prefix_into`].
    pub fn lexmax_with_prefix_into(&self, prefix: &[i64], out: &mut Vec<i64>) -> bool {
        self.lexopt_seeded_into(prefix, out, DEFAULT_WORK_BUDGET, true)
    }

    fn lexopt_seeded_into(
        &self,
        prefix: &[i64],
        out: &mut Vec<i64>,
        budget: usize,
        maximise: bool,
    ) -> bool {
        assert!(
            prefix.len() <= self.dims,
            "prefix longer than dimensionality"
        );
        let mut found = false;
        // A second buffer is only needed to compare candidates across a
        // union; the common single-conjunction domain never allocates it.
        let mut candidate: Vec<i64> = Vec::new();
        for b in &self.basics {
            let target = if found { &mut candidate } else { &mut *out };
            match basic_lexopt_seeded(b, prefix, target, budget, maximise) {
                SearchOutcome::Found => {
                    if found {
                        let ord = candidate.as_slice().cmp(out.as_slice());
                        if (maximise && ord == Ordering::Greater)
                            || (!maximise && ord == Ordering::Less)
                        {
                            std::mem::swap(out, &mut candidate);
                        }
                    }
                    found = true;
                }
                SearchOutcome::NotFound => {}
                // Budget exhaustion must be conservative: the optimum of
                // the union may live in the unexplored basic set.
                SearchOutcome::Budget => return false,
            }
        }
        found
    }

    fn with_prefix_fixed(&self, prefix: &[i64]) -> Set {
        let mut s = self.clone();
        for (d, v) in prefix.iter().enumerate() {
            s = s.fix_dim(d, *v);
        }
        s
    }

    fn lexopt(&self, budget: usize, maximise: bool) -> LexResult {
        let mut best: Option<Vec<i64>> = None;
        let mut exhausted_budget = false;
        for b in &self.basics {
            match basic_lexopt(b, budget, maximise) {
                LexResult::Point(p) => {
                    let better = match &best {
                        None => true,
                        Some(cur) => {
                            let ord = p.as_slice().cmp(cur.as_slice());
                            (maximise && ord == Ordering::Greater)
                                || (!maximise && ord == Ordering::Less)
                        }
                    };
                    if better {
                        best = Some(p);
                    }
                }
                LexResult::Empty => {}
                LexResult::Unknown => exhausted_budget = true,
            }
        }
        match (best, exhausted_budget) {
            (_, true) => LexResult::Unknown,
            (Some(p), false) => LexResult::Point(p),
            (None, false) => LexResult::Empty,
        }
    }

    /// Semantic emptiness check (with the default work budget).
    ///
    /// Returns `None` if the check exceeded its budget.
    pub fn is_empty(&self) -> Option<bool> {
        match self.lexmin() {
            LexResult::Point(_) => Some(false),
            LexResult::Empty => Some(true),
            LexResult::Unknown => None,
        }
    }

    /// Enumerates up to `cap` points of the set in lexicographic order.
    ///
    /// Returns `None` if enumeration exceeded the work budget or would exceed
    /// `cap` points.
    pub fn points_upto(&self, cap: usize) -> Option<Vec<Vec<i64>>> {
        let mut out = Vec::new();
        let mut cursor = match self.lexmin() {
            LexResult::Point(p) => p,
            LexResult::Empty => return Some(out),
            LexResult::Unknown => return None,
        };
        loop {
            out.push(cursor.clone());
            if out.len() > cap {
                return None;
            }
            let above = self.intersect(&Set::lex_gt_point(&cursor));
            match above.lexmin() {
                LexResult::Point(p) => cursor = p,
                LexResult::Empty => return Some(out),
                LexResult::Unknown => return None,
            }
        }
    }

    /// Counts the points of the set, up to `cap`.
    ///
    /// Returns `None` if the set has more than `cap` points or counting
    /// exceeded the work budget.
    pub fn count_upto(&self, cap: usize) -> Option<usize> {
        self.points_upto(cap).map(|p| p.len())
    }
}

/// Lexicographic optimisation over a single basic set.
fn basic_lexopt(set: &BasicSet, budget: usize, maximise: bool) -> LexResult {
    let mut out = Vec::new();
    match basic_lexopt_seeded(set, &[], &mut out, budget, maximise) {
        SearchOutcome::Found => LexResult::Point(out),
        SearchOutcome::NotFound => LexResult::Empty,
        SearchOutcome::Budget => LexResult::Unknown,
    }
}

/// Lexicographic optimisation over a single basic set among the points
/// whose first `seed.len()` coordinates equal `seed`, writing the
/// optimum into `out`.  Equivalent to fixing the seed dimensions and
/// optimising, but skips both the per-call set clone and the
/// projections of the seeded dimensions.
fn basic_lexopt_seeded(
    set: &BasicSet,
    seed: &[i64],
    out: &mut Vec<i64>,
    budget: usize,
    maximise: bool,
) -> SearchOutcome {
    if set.has_trivial_contradiction() {
        return SearchOutcome::NotFound;
    }
    let dims = set.dims();
    if seed.len() == dims {
        return if set.contains(seed) {
            out.clear();
            out.extend_from_slice(seed);
            SearchOutcome::Found
        } else {
            SearchOutcome::NotFound
        };
    }
    // Precompute, for each searched dimension d, the bound rows of the set
    // itself and of its projection onto the first d+1 dimensions, so that
    // bounds for d are available even when the original constraints
    // mention later dimensions.  Seeded dimensions are never consulted
    // (the search starts past them) and get no rows.
    let bounds: Vec<(BoundRows, BoundRows)> = (0..dims)
        .map(|d| {
            if d < seed.len() {
                (BoundRows::new([], d), BoundRows::new([], d))
            } else {
                let projected = set.project_onto_prefix(d + 1);
                (
                    BoundRows::new(set.constraints(), d),
                    BoundRows::new(projected.constraints(), d),
                )
            }
        })
        .collect();
    let mut work = 0usize;
    let mut cursor = Vec::with_capacity(dims);
    cursor.extend_from_slice(seed);
    search(set, &bounds, &mut cursor, out, &mut work, budget, maximise)
}

enum SearchOutcome {
    Found,
    NotFound,
    Budget,
}

#[allow(clippy::too_many_arguments)]
fn search(
    set: &BasicSet,
    bounds: &[(BoundRows, BoundRows)],
    prefix: &mut Vec<i64>,
    out: &mut Vec<i64>,
    work: &mut usize,
    budget: usize,
    maximise: bool,
) -> SearchOutcome {
    let d = prefix.len();
    if d == set.dims() {
        return if set.contains(prefix) {
            out.clear();
            out.extend_from_slice(prefix);
            SearchOutcome::Found
        } else {
            SearchOutcome::NotFound
        };
    }
    let (lo, hi) = match combined_bounds(&bounds[d], prefix) {
        Some(b) => b,
        None => return SearchOutcome::NotFound,
    };
    if let (Some(lo), Some(hi)) = (lo, hi) {
        if lo > hi {
            return SearchOutcome::NotFound;
        }
    }
    // The dimension must be bounded in the direction opposite to the search
    // (the search start); otherwise the optimum may not exist and we give up.
    let values: Box<dyn Iterator<Item = i64>> = match (maximise, lo, hi) {
        (false, Some(lo), Some(hi)) => Box::new(lo..=hi),
        (false, Some(lo), None) => Box::new(lo..),
        (true, Some(lo), Some(hi)) => Box::new((lo..=hi).rev()),
        (true, None, Some(hi)) => Box::new(std::iter::successors(Some(hi), |&x| Some(x - 1))),
        _ => return SearchOutcome::Budget,
    };
    for v in values {
        *work += 1;
        if *work > budget {
            return SearchOutcome::Budget;
        }
        prefix.push(v);
        let outcome = search(set, bounds, prefix, out, work, budget, maximise);
        prefix.pop();
        match outcome {
            SearchOutcome::Found => return SearchOutcome::Found,
            SearchOutcome::Budget => return SearchOutcome::Budget,
            SearchOutcome::NotFound => {}
        }
    }
    SearchOutcome::NotFound
}

fn combined_bounds(
    (direct, projected): &(BoundRows, BoundRows),
    prefix: &[i64],
) -> Option<(Option<i64>, Option<i64>)> {
    let direct = direct.interval(prefix)?;
    let projected = projected.interval(prefix)?;
    let lo = match (direct.0, projected.0) {
        (Some(a), Some(b)) => Some(a.max(b)),
        (a, b) => a.or(b),
    };
    let hi = match (direct.1, projected.1) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    Some((lo, hi))
}

impl fmt::Debug for Set {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.basics.is_empty() {
            return write!(f, "{{ dims={} : false }}", self.dims);
        }
        for (i, b) in self.basics.iter().enumerate() {
            if i > 0 {
                write!(f, " or ")?;
            }
            write!(f, "{b:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Set {
        // { (i, j) | 0 <= i < 5, i <= j < 5 }
        let i = Aff::var(2, 0);
        let j = Aff::var(2, 1);
        Set::from_basic(
            BasicSet::universe(2)
                .with_ge(i.clone())
                .with_gt(Aff::constant(2, 5).sub(&i))
                .with_ge(j.clone().sub(&i))
                .with_gt(Aff::constant(2, 5).sub(&j)),
        )
    }

    #[test]
    fn lexmin_lexmax_triangle() {
        let t = triangle();
        assert_eq!(t.lexmin(), LexResult::Point(vec![0, 0]));
        assert_eq!(t.lexmax(), LexResult::Point(vec![4, 4]));
        assert_eq!(t.lexmin_with_prefix(&[3]), LexResult::Point(vec![3, 3]));
        assert_eq!(t.lexmax_with_prefix(&[3]), LexResult::Point(vec![3, 4]));
    }

    #[test]
    fn count_triangle() {
        assert_eq!(triangle().count_upto(100), Some(15));
    }

    #[test]
    fn subtract_and_membership() {
        let a = Set::from_basic(BasicSet::rect(&[(0, 9)]));
        let b = Set::from_basic(BasicSet::rect(&[(3, 5)]));
        let d = a.subtract(&b);
        for x in 0..10 {
            assert_eq!(d.contains(&[x]), !(3..=5).contains(&x), "x = {x}");
        }
        assert_eq!(d.count_upto(100), Some(7));
    }

    #[test]
    fn subtracting_a_union_drops_empty_pieces() {
        // The guarded domain of a union SCoP: { (i, j) | i in [0, 99] u
        // [150, 299], j in {0, 3} }, four pieces, shifted by one along i
        // and subtracted from itself (a warp plan's periodicity check).
        let rect = |i: (i64, i64), j: (i64, i64)| Set::from_basic(BasicSet::rect(&[i, j]));
        let inner = rect((0, 99), (0, 3)).union(&rect((150, 299), (0, 3)));
        let ends = rect((0, 299), (0, 0)).union(&rect((0, 299), (3, 3)));
        let guard = inner.intersect(&ends);
        assert_eq!(guard.basics().len(), 4);
        let a = guard.translate_dim(0, 1);
        let pruned = a.subtract(&guard);
        let unpruned = guard
            .basics()
            .iter()
            .fold(a.clone(), |acc, b| acc.subtract_basic(b));
        for i in -2..=302 {
            for j in -1..=4 {
                let p = [i, j];
                assert_eq!(
                    pruned.contains(&p),
                    a.contains(&p) && !guard.contains(&p),
                    "{p:?}"
                );
            }
        }
        // The unpruned difference (16,384 pieces) agrees around every edge.
        for i in [-1, 0, 1, 2, 99, 100, 101, 102, 150, 151, 152, 299, 300, 301] {
            for j in -1..=4 {
                let p = [i, j];
                assert_eq!(pruned.contains(&p), unpruned.contains(&p), "{p:?}");
            }
        }
        assert!(
            pruned.basics().len() * 10 < unpruned.basics().len(),
            "{} pieces vs {}",
            pruned.basics().len(),
            unpruned.basics().len()
        );
        // A single basic subtrahend does the same work as before.
        let single = rect((0, 299), (0, 3));
        assert_eq!(
            a.subtract(&single).basics().len(),
            a.clone().subtract_basic(&single.basics()[0]).basics().len()
        );
    }

    #[test]
    fn lex_interval_matches_lex_order() {
        let lo = [1, 2];
        let hi = [2, 1];
        let interval = Set::lex_interval(&lo, &hi);
        for i in 0..4 {
            for j in 0..4 {
                let p = [i, j];
                let expected = p.as_slice() >= lo.as_slice() && p.as_slice() < hi.as_slice();
                assert_eq!(interval.contains(&p), expected, "point {p:?}");
            }
        }
    }

    #[test]
    fn empty_set_queries() {
        let e = Set::empty(2);
        assert_eq!(e.lexmin(), LexResult::Empty);
        assert_eq!(e.is_empty(), Some(true));
        assert_eq!(e.count_upto(10), Some(0));
        let contradiction =
            Set::from_basic(BasicSet::rect(&[(0, 5)]).with_ge(Aff::var(1, 0).offset(-10)));
        assert_eq!(contradiction.is_empty(), Some(true));
    }

    #[test]
    fn unbounded_set_is_unknown() {
        let half_line = Set::from_basic(BasicSet::universe(1).with_ge(Aff::var(1, 0)));
        assert_eq!(half_line.lexmax(), LexResult::Unknown);
        assert_eq!(half_line.lexmin(), LexResult::Point(vec![0]));
    }

    #[test]
    fn point_set_and_lex_builders() {
        let p = Set::from_point(&[2, 3]);
        assert!(p.contains(&[2, 3]));
        assert!(!p.contains(&[2, 4]));
        let ge = Set::lex_ge_point(&[2, 3]);
        assert!(ge.contains(&[2, 3]));
        assert!(ge.contains(&[3, 0]));
        assert!(!ge.contains(&[2, 2]));
        let lt = Set::lex_lt_point(&[2, 3]);
        assert!(lt.contains(&[2, 2]));
        assert!(lt.contains(&[1, 100]));
        assert!(!lt.contains(&[2, 3]));
    }

    #[test]
    fn points_enumeration_is_sorted() {
        let t = triangle();
        let pts = t.points_upto(100).unwrap();
        assert_eq!(pts.len(), 15);
        let mut sorted = pts.clone();
        sorted.sort();
        assert_eq!(pts, sorted);
    }

    #[test]
    fn equality_constraint_projection() {
        // { (i, j) | j == 2*i, 0 <= j <= 10 } — lexmin/lexmax must respect the
        // coupling even though i alone is unconstrained directly.
        let i = Aff::var(2, 0);
        let j = Aff::var(2, 1);
        let s = Set::from_basic(
            BasicSet::universe(2)
                .with_eq(j.clone().sub(&i.scale(2)))
                .with_ge(j.clone())
                .with_ge(Aff::constant(2, 10).sub(&j)),
        );
        assert_eq!(s.lexmin(), LexResult::Point(vec![0, 0]));
        assert_eq!(s.lexmax(), LexResult::Point(vec![5, 10]));
        assert_eq!(s.count_upto(100), Some(6));
    }
}

#[cfg(test)]
mod translate_tests {
    use super::*;

    #[test]
    fn translate_dim_shifts_membership() {
        let s = Set::from_basic(BasicSet::rect(&[(0, 4), (2, 6)]));
        let t = s.translate_dim(1, 3);
        assert!(t.contains(&[0, 5]));
        assert!(t.contains(&[4, 9]));
        assert!(!t.contains(&[0, 2]));
        // Translation by zero is the identity.
        let id = s.translate_dim(0, 0);
        for i in -1..6 {
            for j in 1..8 {
                assert_eq!(id.contains(&[i, j]), s.contains(&[i, j]));
            }
        }
    }
}
