//! Walking the dynamic accesses of a SCoP in execution order.
//!
//! This module contains the reference traversal — Algorithm 1 of the paper
//! with the cache update replaced by a callback: loop nodes step through
//! their iteration domains in lexicographic order and access nodes report
//! the byte address they touch at the current iteration.  Every simulator
//! walks the compiled stream ([`crate::compile()`]) instead; this walk is the
//! differential oracle that stream is checked against, and the cap-aware
//! [`exceeds_access_count`] probe.

use crate::tree::{AccessNode, Node, Scop};
use cache_model::AccessKind;

/// One dynamic memory access produced by walking a SCoP.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DynamicAccess<'a> {
    /// The access node that produced this access.
    pub node: &'a AccessNode,
    /// The accessed byte address.
    pub address: u64,
    /// Read or write.
    pub kind: AccessKind,
}

/// Walks every dynamic access of the SCoP in execution order, invoking
/// `visit` for each.  Returns the number of accesses visited.
///
/// The traversal is exactly Algorithm 1 of the paper with the cache update
/// replaced by the callback: loop nodes iterate from `initial` to `final`
/// with their stride, checking domain membership to honour guards.
pub fn for_each_access<'a>(scop: &'a Scop, mut visit: impl FnMut(DynamicAccess<'a>)) -> u64 {
    for_each_access_at(scop, |access, _| visit(access))
}

/// [`for_each_access`], also passing each access's iteration vector (one
/// value per enclosing loop).
pub(crate) fn for_each_access_at<'a>(
    scop: &'a Scop,
    mut visit: impl FnMut(DynamicAccess<'a>, &[i64]),
) -> u64 {
    let mut count = 0;
    let mut pool = Vec::new();
    for root in scop.roots() {
        walk_node(root, &[], &mut pool, &mut visit, &mut count);
    }
    count
}

/// Derives the iteration interval of one loop entry: fills `i` with the
/// first iteration vector and returns the bound value of the innermost
/// dimension (the walk's stop value), or `None` when the entry is empty.
///
/// Both endpoints share the `outer` prefix, so the original full-vector
/// lexicographic comparisons of Algorithm 1 reduce to comparisons of the
/// innermost coordinate; `end` is scratch for the far endpoint, reused
/// across entries instead of allocating per entry.
fn entry_interval(
    l: &crate::tree::LoopNode,
    outer: &[i64],
    i: &mut Vec<i64>,
    end: &mut Vec<i64>,
) -> Option<i64> {
    let found = if l.stride < 0 {
        // Decreasing loops walk lexmax-first: the initial value of the
        // source loop is the domain's largest point, and the stride grid
        // is anchored there.
        l.last_into(outer, i) && l.initial_into(outer, end)
    } else {
        l.initial_into(outer, i) && l.last_into(outer, end)
    };
    found.then(|| end[l.depth - 1])
}

fn walk_node<'a>(
    node: &'a Node,
    outer: &[i64],
    pool: &mut Vec<Vec<i64>>,
    visit: &mut impl FnMut(DynamicAccess<'a>, &[i64]),
    count: &mut u64,
) {
    match node {
        Node::Access(a) => {
            if a.domain.contains(outer) {
                visit(
                    DynamicAccess {
                        node: a,
                        address: a.address_at(outer),
                        kind: a.kind,
                    },
                    outer,
                );
                *count += 1;
            }
        }
        Node::Loop(l) => {
            let mut i = pool.pop().unwrap_or_default();
            let mut end = pool.pop().unwrap_or_default();
            if let Some(bound) = entry_interval(l, outer, &mut i, &mut end) {
                pool.push(end);
                let d = l.depth - 1;
                while (l.stride > 0 && i[d] <= bound) || (l.stride < 0 && i[d] >= bound) {
                    if l.domain.contains(&i) {
                        for child in &l.children {
                            walk_node(child, &i, pool, visit, count);
                        }
                    }
                    // Stepping out of the `i64` range ends the loop.
                    let Some(next) = i[d].checked_add(l.stride) else {
                        break;
                    };
                    i[d] = next;
                }
            } else {
                pool.push(end);
            }
            pool.push(i);
        }
    }
}

/// Counts the dynamic accesses of a SCoP without doing anything else.
pub fn count_accesses(scop: &Scop) -> u64 {
    for_each_access(scop, |_| {})
}

/// Whether the SCoP performs strictly more than `cap` dynamic accesses.
///
/// Rectangular kernels answer in closed form from the compiled stream
/// ([`crate::CompiledScop::static_access_count`]).  Irregular domains fall
/// back to a walk that, unlike [`count_accesses`], stops as soon as the
/// answer is known, so probing a trillion-access kernel against a small
/// budget costs O(cap) instead of O(total).  Serving layers use it to
/// decide when to degrade a request to approximate simulation.
pub fn exceeds_access_count(scop: &Scop, cap: u64) -> bool {
    if let Some(total) = crate::compile(scop).static_access_count() {
        return total > cap;
    }
    let mut count = 0;
    let mut pool = Vec::new();
    for root in scop.roots() {
        if walk_node_capped(root, &[], &mut pool, cap, &mut count) {
            return true;
        }
    }
    false
}

/// Walks `node` counting accesses into `count`; returns `true` (abandoning
/// the walk) as soon as the count exceeds `cap`.
fn walk_node_capped(
    node: &Node,
    outer: &[i64],
    pool: &mut Vec<Vec<i64>>,
    cap: u64,
    count: &mut u64,
) -> bool {
    match node {
        Node::Access(a) => {
            if a.domain.contains(outer) {
                *count += 1;
            }
            *count > cap
        }
        Node::Loop(l) => {
            let mut i = pool.pop().unwrap_or_default();
            let mut end = pool.pop().unwrap_or_default();
            let mut exceeded = false;
            if let Some(bound) = entry_interval(l, outer, &mut i, &mut end) {
                pool.push(end);
                let d = l.depth - 1;
                'iterations: while (l.stride > 0 && i[d] <= bound)
                    || (l.stride < 0 && i[d] >= bound)
                {
                    if l.domain.contains(&i) {
                        for child in &l.children {
                            if walk_node_capped(child, &i, pool, cap, count) {
                                exceeded = true;
                                break 'iterations;
                            }
                        }
                    }
                    let Some(next) = i[d].checked_add(l.stride) else {
                        break;
                    };
                    i[d] = next;
                }
            } else {
                pool.push(end);
            }
            pool.push(i);
            exceeded
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elaborate, parse_program, ElaborateOptions};

    fn scop_of(src: &str) -> Scop {
        elaborate(&parse_program(src).unwrap(), &ElaborateOptions::default()).unwrap()
    }

    #[test]
    fn stencil_access_count_and_order() {
        let scop = scop_of(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        );
        let mut first_iteration = Vec::new();
        let total = for_each_access(&scop, |acc| {
            if first_iteration.len() < 3 {
                first_iteration.push((acc.node.id, acc.address));
            }
        });
        assert_eq!(total, 3 * 998);
        let a_base = scop.arrays()[0].base_address;
        let b_base = scop.arrays()[1].base_address;
        assert_eq!(
            first_iteration,
            vec![(0, a_base), (1, a_base + 8), (2, b_base)]
        );
    }

    #[test]
    fn triangular_loop_access_count() {
        // Figure 4: sum over i of (1 + 4 * (100 - i)) accesses.
        let scop = scop_of(
            "double A[100][100]; double x[100]; double c[100];\n\
             for (i = 0; i < 100; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 100; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        );
        let expected: u64 = (0..100u64).map(|i| 1 + 4 * (100 - i)).sum();
        assert_eq!(count_accesses(&scop), expected);
    }

    #[test]
    fn guarded_accesses_are_skipped() {
        let scop = scop_of(
            "double A[100];\n\
             for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;",
        );
        assert_eq!(count_accesses(&scop), 10);
    }

    #[test]
    fn empty_domain_loops_produce_nothing() {
        let scop = scop_of("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        assert_eq!(count_accesses(&scop), 0);
    }

    #[test]
    fn strided_loops_visit_only_the_stride_grid() {
        // i = 0, 2, ..., 98: 50 iterations of a strided stencil.
        let scop = scop_of(
            "double A[200]; double B[200];\n\
             for (i = 0; i < 100; i += 2) B[i] = A[i] + A[i+1];",
        );
        let mut addresses = Vec::new();
        let total = for_each_access(&scop, |acc| addresses.push(acc.address));
        assert_eq!(total, 3 * 50);
        let a_base = scop.arrays()[0].base_address;
        // The first iteration touches A[0], A[1], B[0]; the second A[2].
        assert_eq!(addresses[0], a_base);
        assert_eq!(addresses[1], a_base + 8);
        assert_eq!(addresses[3], a_base + 16);
    }

    #[test]
    fn decreasing_loops_walk_lexmax_first() {
        let scop = scop_of("double A[10]; for (i = 9; i >= 0; i--) A[i] = 0;");
        let mut addresses = Vec::new();
        let total = for_each_access(&scop, |acc| addresses.push(acc.address));
        assert_eq!(total, 10);
        let base = scop.arrays()[0].base_address;
        assert_eq!(addresses[0], base + 9 * 8, "starts at the initial value");
        assert_eq!(addresses[9], base, "ends at the lower bound");
        assert!(addresses.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn decreasing_stride_grid_anchors_at_the_top() {
        // i = 9, 6, 3, 0: the grid is anchored at the initial value, and a
        // `> 0` bound excludes 0... here `>= 0` includes it.
        let scop = scop_of("double A[10]; for (i = 9; i >= 0; i -= 3) A[i] = 0;");
        let mut addresses = Vec::new();
        assert_eq!(for_each_access(&scop, |acc| addresses.push(acc.address)), 4);
        let base = scop.arrays()[0].base_address;
        assert_eq!(
            addresses,
            vec![base + 72, base + 48, base + 24, base],
            "visits 9, 6, 3, 0"
        );
        // With a bound off the stride grid, only on-grid points are visited.
        let off = scop_of("double A[10]; for (i = 9; i > 1; i -= 3) A[i] = 0;");
        assert_eq!(count_accesses(&off), 3, "visits 9, 6, 3");
        // Guards compose with decreasing strides.
        let guarded = scop_of("double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;");
        assert_eq!(count_accesses(&guarded), 3, "visits 6, 3, 0");
    }

    #[test]
    fn nested_decreasing_loops_compose() {
        let scop = scop_of(
            "double A[8][8];\n\
             for (i = 0; i < 4; i++) for (j = 3; j >= 0; j--) A[i][j] = 0;",
        );
        let mut addresses = Vec::new();
        assert_eq!(
            for_each_access(&scop, |acc| addresses.push(acc.address)),
            16
        );
        let base = scop.arrays()[0].base_address;
        // First outer iteration: A[0][3], A[0][2], A[0][1], A[0][0].
        assert_eq!(
            &addresses[..4],
            &[base + 24, base + 16, base + 8, base],
            "inner loop walks backwards"
        );
    }

    #[test]
    fn capped_count_agrees_with_exact_count() {
        // The rectangular kernel answers in closed form, the triangular one
        // through the capped walk; both flip exactly at the walked total.
        let rectangular = scop_of(
            "double A[16][16];\n\
             for (i = 0; i < 16; i++) for (j = 0; j < 16; j++) A[i][j] = A[i][j];",
        );
        let triangular = scop_of(
            "double A[100][100]; double x[100]; double c[100];\n\
             for (i = 0; i < 100; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 100; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        );
        for (scop, closed_form) in [(rectangular, true), (triangular, false)] {
            let total = count_accesses(&scop);
            assert_eq!(
                crate::compile(&scop).static_access_count().is_some(),
                closed_form
            );
            assert!(exceeds_access_count(&scop, total - 1));
            assert!(!exceeds_access_count(&scop, total));
            assert!(exceeds_access_count(&scop, 0));
        }
        let empty = scop_of("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        assert!(!exceeds_access_count(&empty, 0));
    }

    #[test]
    fn stride_grid_skips_off_grid_upper_bounds() {
        // i = 0, 3, 6, 9: the bound 11 is not on the stride grid.
        let scop = scop_of("double A[20]; for (i = 0; i < 11; i += 3) A[i] = 0;");
        assert_eq!(count_accesses(&scop), 4);
        // Guards compose with strides: only i = 6, 9 pass the guard.
        let guarded = scop_of("double A[20]; for (i = 0; i < 11; i = i + 3) if (i >= 6) A[i] = 0;");
        assert_eq!(count_accesses(&guarded), 2);
    }
}
