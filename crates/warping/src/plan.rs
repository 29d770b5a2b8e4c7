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
//!    window.
//!
//! Cross-node conflicts (the `FurthestByOverlap` check of the paper) cannot
//! arise under condition 1, because all nodes shift by the same amount.
//! Whenever a check cannot be decided (e.g. a polyhedral query exceeds its
//! budget) the plan is rejected and the simulator falls back to explicit
//! simulation, which keeps the miss counts exact.

use crate::symstate::SymLevel;
use polyhedra::{LexResult, Set};
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
/// * `descendant_nodes` — the access nodes below the warping loop.
/// * `descendant_ids` — their ids in ascending order (for label
///   classification).
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
    descendant_nodes: &[&AccessNode],
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
    if period <= 0 || descendant_nodes.is_empty() {
        return None;
    }
    let line_size = levels.first()?.config.line_size() as i64;

    // 1. Uniform, line-aligned shift across all access nodes of the body.
    let dim = warp_depth - 1;
    let mut shift: Option<i64> = None;
    for node in descendant_nodes {
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
    for node in descendant_nodes {
        match domain_periodicity_fence(node, outer, dim, period, v0, v_last) {
            Some(fence) => v_fence = v_fence.min(fence),
            None => return None,
        }
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

/// Checks that `node`'s iteration domain (with the outer iterators fixed) is
/// invariant under translation by `period` along `dim` within
/// `[v0, v_last]`.  Returns the first iterator value at which periodicity is
/// violated (or `v_last + 1` if it never is), and `None` if the check could
/// not be decided.
fn domain_periodicity_fence(
    node: &AccessNode,
    outer: &[i64],
    dim: usize,
    period: i64,
    v0: i64,
    v_last: i64,
) -> Option<i64> {
    // Fix the outer iterators to their current values.
    let mut domain = node.domain.clone();
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
    use scop::parse_scop;

    /// Parses a single-loop SCoP and lists its access ids, ascending.
    fn nodes_of(src: &str) -> (scop::Scop, Vec<usize>) {
        let scop = parse_scop(src).unwrap();
        let mut ids: Vec<usize> = scop.access_nodes().map(|a| a.id).collect();
        ids.sort_unstable();
        (scop, ids)
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
        let (scop, ids) = nodes_of(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
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
        let (scop, ids) = nodes_of(
            "double A[4000];\n\
             for (i = 0; i < 1000; i++) A[i] = A[2*i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        let levels = vec![empty_level()];
        assert!(plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 999).is_none());
    }

    #[test]
    fn unaligned_shift_is_rejected_until_period_matches() {
        // With 64-byte lines and 8-byte elements, a period of 1 shifts by 8
        // bytes (not line aligned), but a period of 8 shifts by a full line.
        let (scop, ids) = nodes_of(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        let levels = vec![SymLevel::new(CacheConfig::with_sets(
            8,
            2,
            64,
            ReplacementPolicy::Lru,
        ))];
        assert!(plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 3998).is_none());
        let plan = plan_warp(
            &nodes,
            &ids,
            &levels,
            &shifted(&levels),
            1,
            &[],
            2,
            10,
            3998,
        )
        .expect("period 8 warps");
        assert_eq!(plan.byte_shift_per_chunk, 64);
    }

    #[test]
    fn stale_cache_lines_block_warping() {
        let (scop, ids) = nodes_of(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
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
        let (scop, ids) = nodes_of(
            "double A[4000]; double B[4000];\n\
             for (i = 1; i < 3999; i++) B[i-1] = A[i-1] + A[i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
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
        let (scop, ids) = nodes_of(
            "double A[2000]; double B[2000];\n\
             for (i = 1; i < 999; i++) if (i < 500) B[i-1] = A[i-1] + A[i];",
        );
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        let levels = vec![empty_level()];
        let plan = plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 5, 6, 998)
            .expect("warp until guard");
        assert!(6 + plan.chunks < 500);
        assert!(6 + plan.chunks >= 498);
    }

    #[test]
    fn invariant_bodies_warp_with_zero_shift() {
        // The body touches the same element every iteration: π is the
        // identity and warping covers the whole loop.
        let (scop, ids) = nodes_of("double A[10];\nfor (i = 0; i < 100; i++) A[0] = A[0];");
        let nodes: Vec<&AccessNode> = scop.access_nodes().collect();
        let levels = vec![empty_level()];
        let plan = plan_warp(&nodes, &ids, &levels, &shifted(&levels), 1, &[], 1, 2, 99)
            .expect("identity warp");
        assert_eq!(plan.byte_shift_per_chunk, 0);
        assert_eq!(plan.chunks, 97);
    }
}
