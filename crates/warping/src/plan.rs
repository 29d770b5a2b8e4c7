//! Warp planning: the sufficient conditions of the symbolic warping theorem.
//!
//! Given a match between the symbolic cache state at the top of loop
//! iteration `v0` and the (equal up to rotation and shift) state at the top
//! of iteration `v1 = v0 + period`, [`plan_warp`] decides how many further
//! periods can be warped across soundly.  The checks are a conservative
//! implementation of Theorem 4 of the paper:
//!
//! 1. **Uniform shift** — every access node below the loop must shift its
//!    byte address by one common amount `δ = coeff · period` per period, and
//!    `δ` must be a multiple of the cache line size.  This makes the block
//!    bijection `π` of the theorem a global shift by `δ / linesize`, which
//!    preserves the partition into cache sets (`π ∈ Π_index=`).
//! 2. **Cache agreement** (the `CacheAgrees` check of the paper) — every
//!    cached line, at every *shifted* level, must be consistent with `π`:
//!    lines labelled by descendant access nodes shift by construction, and
//!    any other (stale) line forces `δ = 0`.  Levels matched as **frozen**
//!    ([`LevelWarpMode::Frozen`]) are exempt: their states are bit-identical
//!    between the matched iterations (equal labels under equal epochs), and
//!    the caller has verified they stay untouched across the warp window —
//!    either the shift is zero, or the level recorded zero accesses during
//!    the matched chunk, so the repeating access pattern never reaches it.
//! 3. **Domain periodicity** (the `FurthestByDomains` check) — the iteration
//!    domain of every descendant access node, restricted to the current
//!    values of the outer iterators, must be invariant under translation by
//!    `period` within the warp window.  The earliest violation truncates the
//!    window.  Most loop-nest domains answer this in closed form: when the
//!    domain is one conjunction and no constraint on the warped dimension
//!    involves a deeper one, it is an interval on the warped dimension times
//!    a slice that does not depend on it, and the interval comes from the
//!    domain's [`BoundRows`] at the outer values.  An empty domain, or an
//!    interval that covers the window, never truncates it.  Union domains,
//!    coupled constraints (`j <= i` below a warped `i`) and interval
//!    boundaries inside the window take the polyhedral query instead: two
//!    set differences and their lexicographic minima.
//!
//! Cross-node conflicts (the `FurthestByOverlap` check of the paper) cannot
//! arise under condition 1, because all nodes shift by the same amount.
//! Whenever a check cannot be decided (e.g. a polyhedral query exceeds its
//! budget) the plan is rejected and the simulator falls back to explicit
//! simulation, which keeps the miss counts exact.

use crate::symstate::SymLevel;
use polyhedra::{BoundRows, LexResult, Set};
use scop::AccessNode;

/// A validated warp: jump `chunks` periods ahead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WarpPlan {
    /// Number of periods (copies of the matched access sequence) to warp
    /// across.
    pub chunks: i64,
    /// The common byte shift of all accesses per period.
    pub byte_shift_per_chunk: i64,
}

/// How one cache level participates in a warp, reconstructed by the
/// simulator from the per-level label shift between the two matched states
/// (the difference of their epoch normalisers).
///
/// * A level whose labels advanced by exactly one period between the
///   matched states is [`Shifted`](LevelWarpMode::Shifted): it moves under
///   the block bijection `π`, its sets rotate and its labels advance.
/// * A level whose labels did not move at all is
///   [`Frozen`](LevelWarpMode::Frozen): its state is bit-identical between
///   the matched iterations and stays put across the warp.  This is the
///   shape L1-resident kernels leave behind in big hierarchies — the outer
///   levels were filled during warm-up and are never touched again — and
///   recognising it is what makes such kernels warpable at all.
/// * Any other label shift is inconsistent with a warp; the simulator
///   rejects the match before planning.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LevelWarpMode {
    /// The level moves under the uniform block shift: sets rotate, labels
    /// advance by `chunks * period`.
    Shifted,
    /// The level is bit-identical between the matched states and untouched
    /// across the warp window: warp application skips it.
    Frozen,
}

/// Decides whether and how far the simulation may warp.
///
/// * `nodes` — every access node of the program, indexed by id.
/// * `descendant_ids` — the ids of the access nodes below the warping loop,
///   in ascending order.
/// * `levels` — the symbolic cache levels, innermost first.
/// * `modes` — how each level participates (parallel to `levels`); frozen
///   levels are exempt from cache agreement, see [`LevelWarpMode`].
/// * `warp_depth` — the depth of the warping loop (its iterator is dimension
///   `warp_depth - 1`).
/// * `outer` — current values of the enclosing iterators
///   (length `warp_depth - 1`).
/// * `v0`, `v1` — warped-iterator values of the matched and current states.
/// * `v_last` — final value of the warped iterator for this loop execution.
///
/// # Panics
///
/// Panics if `modes` is shorter than `levels`.
#[allow(clippy::too_many_arguments)]
pub fn plan_warp(
    nodes: &[&AccessNode],
    descendant_ids: &[usize],
    levels: &[SymLevel],
    modes: &[LevelWarpMode],
    warp_depth: usize,
    outer: &[i64],
    v0: i64,
    v1: i64,
    v_last: i64,
) -> Option<WarpPlan> {
    assert!(modes.len() >= levels.len(), "one mode per level");
    let period = v1 - v0;
    if period <= 0 || descendant_ids.is_empty() {
        return None;
    }
    let descendants = || descendant_ids.iter().map(|&id| nodes[id]);
    let line_size = levels.first()?.config.line_size() as i64;

    // 1. Uniform, line-aligned shift across all access nodes of the body.
    let dim = warp_depth - 1;
    let mut shift: Option<i64> = None;
    for node in descendants() {
        let node_shift = node.address.coeff(dim) * period;
        match shift {
            None => shift = Some(node_shift),
            Some(s) if s == node_shift => {}
            Some(_) => return None,
        }
    }
    let byte_shift = shift.unwrap_or(0);
    if byte_shift != 0 && byte_shift % line_size != 0 {
        return None;
    }
    if byte_shift != 0
        && levels
            .iter()
            .any(|l| l.config.line_size() as i64 != line_size)
    {
        return None;
    }

    // 2. Cache agreement: every cached line of a *shifted* level must be
    //    consistent with the uniform shift.  Frozen levels are exempt: they
    //    are bit-identical between the matched states and the caller
    //    guaranteed they stay untouched across the window, so their lines
    //    (stale or not) simply persist.  Only the occupied sets can hold
    //    lines, so the scan is O(occupied), independent of the total number
    //    of sets.
    for (level, mode) in levels.iter().zip(modes) {
        if *mode == LevelWarpMode::Frozen {
            continue;
        }
        for line in level.sets().flat_map(|set| set.lines()).flatten() {
            let shifts_with_loop =
                descendant_ids.binary_search(&line.node).is_ok() && line.iter.len() >= warp_depth;
            let line_shift = if shifts_with_loop { byte_shift } else { 0 };
            if line_shift != byte_shift {
                return None;
            }
        }
    }

    // 3. Domain periodicity of every access node over the warp window, and
    //    the resulting furthest iteration.
    let mut v_fence = v_last + 1;
    for node in descendants() {
        let domain = &node.domain;
        let fence = closed_form_fence(domain, outer, dim, v0, v_last)
            .or_else(|| domain_periodicity_fence(domain, outer, dim, period, v0, v_last))?;
        v_fence = v_fence.min(fence);
    }

    if v_fence <= v1 {
        return None;
    }
    let chunks = (v_fence - 1 - v1) / period;
    if chunks <= 0 {
        return None;
    }
    Some(WarpPlan {
        chunks,
        byte_shift_per_chunk: byte_shift,
    })
}

/// The line phase of iteration `v` of a loop whose accesses all move
/// `coefficient` bytes per iteration, on lines of `line` bytes:
/// `coefficient · v` modulo `line`.  Two iterations share a phase exactly
/// when `coefficient · (v1 − v0)` is a multiple of `line`, the line-aligned
/// shift [`plan_warp`] requires, so a state can only warp against a state
/// of its own phase.  Computed on residues, so no coefficient or iterator
/// value overflows.
pub(crate) fn line_phase(coefficient: i64, v: i64, line: u64) -> u64 {
    let line = i128::from(line);
    let c = i128::from(coefficient).rem_euclid(line) as u128;
    let v = i128::from(v).rem_euclid(line) as u128;
    (c * v % line as u128) as u64
}

/// The fence of [`domain_periodicity_fence`] read off the bound rows of
/// `dim`, for any period: `Some(v_last + 1)` when `domain` is one
/// conjunction whose constraints on `dim` involve no deeper dimension, and
/// at the `outer` values it is either empty or its interval on `dim`
/// covers `[v0, v_last]`.  `None` means the closed form does not apply.
///
/// Such a domain is `{ (v, y) | v ∈ I, y ∈ S }` with the slice `S`
/// independent of `v`.  If it is empty, both sides of the periodicity
/// check are.  If `I ⊇ [v0, v_last]`, the window's shifted start and its
/// end are both `[v0 + period, v_last] × S`.
fn closed_form_fence(domain: &Set, outer: &[i64], dim: usize, v0: i64, v_last: i64) -> Option<i64> {
    let [basic] = domain.basics() else {
        return None;
    };
    let constraints = basic.constraints();
    if constraints
        .iter()
        .any(|c| c.aff().coeff(dim) != 0 && !c.aff().involves_only_dims_below(dim + 1))
    {
        return None;
    }
    let covered = match BoundRows::new(constraints, dim).interval(outer) {
        // A constraint on the outer iterators alone fails.
        None => true,
        Some((Some(lo), Some(hi))) if lo > hi => true,
        Some((lo, hi)) => lo.is_none_or(|lo| lo <= v0) && hi.is_none_or(|hi| hi >= v_last),
    };
    covered.then_some(v_last + 1)
}

/// Checks that `domain` (with the outer iterators fixed) is invariant under
/// translation by `period` along `dim` within `[v0, v_last]`.  Returns the
/// first iterator value at which periodicity is violated (or `v_last + 1`
/// if it never is), and `None` if the check could not be decided.
fn domain_periodicity_fence(
    domain: &Set,
    outer: &[i64],
    dim: usize,
    period: i64,
    v0: i64,
    v_last: i64,
) -> Option<i64> {
    // Fix the outer iterators to their current values.
    let mut domain = domain.clone();
    for (d, v) in outer.iter().enumerate() {
        domain = domain.fix_dim(d, *v);
    }
    let dims = domain.dims();
    let range = |lo: i64, hi: i64| {
        Set::from_basic(
            polyhedra::BasicSet::universe(dims)
                .with_ge(polyhedra::Aff::var(dims, dim).offset(-lo))
                .with_ge(polyhedra::Aff::constant(dims, hi).sub(&polyhedra::Aff::var(dims, dim))),
        )
    };
    // A = domain restricted to [v0, v_last - period], shifted forward.
    // B = domain restricted to [v0 + period, v_last].
    // Periodicity <=> translate(A) == B.
    let a = domain.intersect(&range(v0, v_last - period));
    let b = domain.intersect(&range(v0 + period, v_last));
    let a_shifted = a.translate_dim(dim, period);
    let forward = a_shifted.subtract(&b);
    let backward = b.subtract(&a_shifted);
    let earliest = |diff: &Set| -> Option<Option<i64>> {
        match diff.lexmin() {
            LexResult::Empty => Some(None),
            LexResult::Point(p) => Some(Some(p[dim])),
            LexResult::Unknown => None,
        }
    };
    let f = earliest(&forward)?;
    let g = earliest(&backward)?;
    Some(match (f, g) {
        (None, None) => v_last + 1,
        (Some(a), None) | (None, Some(a)) => a,
        (Some(a), Some(b)) => a.min(b),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_model::{AccessKind, CacheConfig, MemBlock, ReplacementPolicy};
    use polyhedra::{Aff, BasicSet};
    use scop::parse_scop;

    /// The id-indexed access table of `scop` and its ids, ascending.
    fn table(scop: &scop::Scop) -> (Vec<&AccessNode>, Vec<usize>) {
        let mut nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        nodes.sort_unstable_by_key(|a| a.id);
        let ids = nodes.iter().map(|a| a.id).collect();
        (nodes, ids)
    }

    fn empty_level() -> SymLevel {
        SymLevel::new(CacheConfig::with_sets(8, 2, 8, ReplacementPolicy::Lru))
    }

    /// All levels shifted — the classic (pre-epoch) planning mode.
    fn shifted(levels: &[SymLevel]) -> Vec<LevelWarpMode> {
        vec![LevelWarpMode::Shifted; levels.len()]
    }

    #[test]
    fn stencil_warps_to_the_end() {
        let scop = parse_scop(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let levels = vec![empty_level()];
        let plan = plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 998)
            .expect("warpable");
        assert_eq!(plan.byte_shift_per_chunk, 8);
        assert_eq!(plan.chunks, 998 - 6);
    }

    #[test]
    fn mixed_coefficients_are_rejected() {
        // A[i] and A[2*i] shift differently per iteration: no single
        // bijection relates consecutive iterations (the example of §5.2).
        let scop = parse_scop(
            "double A[4000];\n\
             for (i = 0; i < 1000; i++) A[i] = A[2*i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let levels = vec![empty_level()];
        assert!(plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 999).is_none());
    }

    #[test]
    fn unaligned_shift_is_rejected_until_period_matches() {
        // With 64-byte lines and 8-byte elements, a period of 1 shifts by 8
        // bytes (not line aligned), but a period of 8 shifts by a full line.
        // So a pair of states plans exactly when its period is a multiple
        // of 8, which is when both states have the same line phase: the
        // fact the simulator's phase-keyed match slots rely on.
        let scop = parse_scop(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let levels = vec![SymLevel::new(CacheConfig::with_sets(
            8,
            2,
            64,
            ReplacementPolicy::Lru,
        ))];
        let modes = shifted(&levels);
        for v0 in 1..17 {
            for v1 in v0 + 1..v0 + 33 {
                let plan = plan_warp(&nodes, &ids, &levels, &modes, 1, &[], v0, v1, 3998);
                let same_phase = line_phase(8, v0, 64) == line_phase(8, v1, 64);
                assert_eq!(same_phase, (v1 - v0) % 8 == 0, "{v0} -> {v1}");
                assert_eq!(plan.is_some(), same_phase, "{v0} -> {v1}");
            }
        }
        let plan =
            plan_warp(&nodes, &ids, &levels, &modes, 1, &[], 2, 10, 3998).expect("period 8 warps");
        assert_eq!(plan.byte_shift_per_chunk, 64);
    }

    #[test]
    fn line_phase_is_the_residue_of_the_byte_offset() {
        for (c, v, line) in [
            (8, 5, 64),
            (8, -3, 64),
            (i64::MAX, -1, 64),
            (i64::MAX - 7, i64::MIN, 64),
            (-24, 1_000_003, 48),
            (i64::MIN, i64::MAX, u64::MAX),
        ] {
            let expected = (i128::from(c) * i128::from(v)).rem_euclid(i128::from(line));
            assert_eq!(
                line_phase(c, v, line) as i128,
                expected,
                "{c} * {v} mod {line}"
            );
        }
        assert_eq!(line_phase(i64::MAX, -1, 64), 1);
    }

    #[test]
    fn stale_cache_lines_block_warping() {
        let scop = parse_scop(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let mut level = empty_level();
        // A line labelled by an access node that is not part of the loop.
        level.access(MemBlock(123_456), AccessKind::Read, 99, &[0]);
        let levels = vec![level];
        assert!(plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 998).is_none());
    }

    #[test]
    fn frozen_levels_are_exempt_from_cache_agreement() {
        // A two-level system: the L1 streams with the loop, the outer level
        // froze after warm-up and holds lines — stale and descendant alike —
        // that do not shift.  As a shifted level the stale line would veto
        // any non-zero shift; marked frozen the plan goes through.
        let scop = parse_scop(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let l1 = SymLevel::new(CacheConfig::with_sets(8, 2, 64, ReplacementPolicy::Lru));
        let mut outer = SymLevel::new(CacheConfig::with_sets(64, 4, 64, ReplacementPolicy::Lru));
        outer.access(MemBlock(123_456), AccessKind::Read, 99, &[0]);
        outer.access(MemBlock(7), AccessKind::Read, 0, &[56]);
        let levels = vec![l1, outer];
        let all_shifted = shifted(&levels);
        assert!(
            plan_warp(&nodes, &ids, &levels, &all_shifted, 1, &[], 2, 10, 3998).is_none(),
            "a shifted outer level with a stale line vetoes the shift"
        );
        let mixed = vec![LevelWarpMode::Shifted, LevelWarpMode::Frozen];
        let plan = plan_warp(&nodes, &ids, &levels, &mixed, 1, &[], 2, 10, 3998)
            .expect("a frozen outer level does not block the warp");
        assert_eq!(plan.byte_shift_per_chunk, 64);
    }

    #[test]
    fn guarded_domains_truncate_the_window() {
        // The access only executes for i < 500; beyond that the pattern
        // changes, so warping must stop before the guard boundary.
        let scop = parse_scop(
            "double A[2000]; double B[2000];\n\
             for (i = 1; i < 999; i++) if (i < 500) B[i-1] = A[i-1] + A[i];",
        )
        .unwrap();
        let (nodes, ids) = table(&scop);
        let levels = vec![empty_level()];
        let plan = plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 998)
            .expect("warp until guard");
        assert!(6 + plan.chunks < 500);
        assert!(6 + plan.chunks >= 498);
        // The guard bounds the interval inside the window, so the
        // polyhedral query, not the closed form, placed the fence.
        for node in &nodes {
            assert_eq!(closed_form_fence(&node.domain, &[], 0, 5, 998), None);
        }
    }

    #[test]
    fn invariant_bodies_warp_with_zero_shift() {
        // The body touches the same element every iteration: π is the
        // identity and warping covers the whole loop.
        let scop = parse_scop("double A[10];\nfor (i = 0; i < 100; i++) A[0] = A[0];").unwrap();
        let (nodes, ids) = table(&scop);
        let levels = vec![empty_level()];
        let plan = plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 1, 2, 99)
            .expect("identity warp");
        assert_eq!(plan.byte_shift_per_chunk, 0);
        assert_eq!(plan.chunks, 97);
    }

    /// A deterministic SplitMix64 stream of small integers.
    struct Draw(u64);

    impl Draw {
        /// A value in `[lo, hi]`.
        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + ((z ^ (z >> 31)) % (hi - lo + 1) as u64) as i64
        }

        fn rect(&mut self, dims: usize) -> BasicSet {
            let bounds: Vec<(i64, i64)> = (0..dims)
                .map(|_| {
                    let lo = self.int(0, 3);
                    (lo, lo + self.int(3, 12))
                })
                .collect();
            BasicSet::rect(&bounds)
        }

        /// A box over `dims` dimensions with up to three extra constraints
        /// (a triangular bound `x_b <= x_a`, a guard `x_d < c` or
        /// `x_d >= c` on any dimension, the warped one and the outer ones
        /// included, or an equality), sometimes joined by a second box.
        fn domain(&mut self, dims: usize) -> Set {
            let x = |d: usize| Aff::var(dims, d);
            let mut basic = self.rect(dims);
            for _ in 0..self.int(0, 3) {
                let a = self.int(0, dims as i64 - 2) as usize;
                let b = self.int(a as i64 + 1, dims as i64 - 1) as usize;
                let d = self.int(0, dims as i64 - 1) as usize;
                let c = self.int(0, 12);
                basic = match self.int(0, 4) {
                    0 => basic.with_ge(x(a).sub(&x(b))),
                    1 => basic.with_gt(Aff::constant(dims, c).sub(&x(d))),
                    2 => basic.with_ge(x(d).offset(-c)),
                    3 => basic.with_eq(x(b).sub(&x(a)).offset(-self.int(-2, 2))),
                    _ => basic.with_eq(x(d).offset(-c)),
                };
            }
            let domain = Set::from_basic(basic);
            if self.int(0, 4) == 0 {
                domain.union(&Set::from_basic(self.rect(dims)))
            } else {
                domain
            }
        }
    }

    #[test]
    fn closed_form_fence_agrees_with_the_polyhedral_oracle() {
        let mut draw = Draw(23);
        let (mut answered, mut nonempty, mut fallback) = (0, 0, 0);
        for case in 0..1500 {
            let dims = draw.int(2, 3) as usize;
            let dim = draw.int(0, dims as i64 - 1) as usize;
            let domain = draw.domain(dims);
            let outer: Vec<i64> = (0..dim).map(|_| draw.int(-1, 8)).collect();
            let period = draw.int(1, 4);
            let v0 = draw.int(-1, 8);
            let v_last = v0 + draw.int(0, 6);
            let oracle = domain_periodicity_fence(&domain, &outer, dim, period, v0, v_last);
            let Some(fence) = closed_form_fence(&domain, &outer, dim, v0, v_last) else {
                fallback += 1;
                continue;
            };
            assert_eq!(
                Some(fence),
                oracle,
                "case {case}: {domain:?} at outer {outer:?}, dim {dim}, \
                 period {period}, window [{v0}, {v_last}]"
            );
            answered += 1;
            let mut window = domain.intersect_basic(
                &BasicSet::universe(dims)
                    .with_ge(Aff::var(dims, dim).offset(-v0))
                    .with_ge(Aff::constant(dims, v_last).sub(&Aff::var(dims, dim))),
            );
            for (d, &v) in outer.iter().enumerate() {
                window = window.fix_dim(d, v);
            }
            if window.is_empty() == Some(false) {
                nonempty += 1;
            }
        }
        // Both paths run, and the closed form answers windows that hold
        // points, not only empty ones.
        assert!(
            answered >= 300 && fallback >= 300,
            "{answered} / {fallback}"
        );
        assert!(nonempty >= 100, "{nonempty} of {answered}");
    }
}
