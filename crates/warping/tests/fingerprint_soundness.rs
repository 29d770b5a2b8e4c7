//! Property tests of the incremental fingerprint machinery.
//!
//! Two properties protect the two-phase match pipeline:
//!
//! 1. **Incrementality** — after *any* interleaving of accesses and warp
//!    applications, the dirty-row-tracked rolling fingerprint of a
//!    [`SymLevel`] equals a from-scratch rebuild over its rows.
//! 2. **Filter neutrality** — fingerprint-filtered matching produces
//!    per-level statistics bit-identical to classic simulation on random
//!    kernels, geometries and policies.

use cache_model::{AccessKind, CacheConfig, MemBlock, MemoryConfig, ReplacementPolicy};
use polyhedra::Aff;
use proptest::prelude::*;
use scop::parse_scop;
use simulate::simulate_memory;
use warping::fingerprint::rebuild_level_fingerprint;
use warping::{SymLevel, WarpingSimulator};

const NUM_NODES: usize = 3;
const LINE_SIZE: u64 = 8;

/// Per-node affine address functions over one iterator, all with the same
/// coefficient (`LINE_SIZE` per iteration), so that every warp shifts every
/// cached line uniformly — the precondition `apply_warp` debug-asserts.
fn addresses() -> Vec<Aff> {
    (0..NUM_NODES)
        .map(|n| {
            Aff::var(1, 0)
                .scale(LINE_SIZE as i64)
                .offset((n * 4096) as i64 * 8)
        })
        .collect()
}

/// One step of a random symbolic-level history: an access (node, iteration,
/// kind) or a warp (period, chunks).
#[derive(Clone, Copy, Debug)]
enum Step {
    Access { node: usize, iter: i64, write: bool },
    Warp { period: i64, chunks: i64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0u64..10,
        0usize..NUM_NODES,
        0i64..64,
        prop::bool::ANY,
        1i64..4,
        1i64..5,
    )
        .prop_map(|(kind, node, iter, write, period, chunks)| {
            if kind < 7 {
                Step::Access { node, iter, write }
            } else {
                Step::Warp { period, chunks }
            }
        })
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(ReplacementPolicy::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn incremental_fingerprint_equals_rebuild(
        steps in proptest::collection::vec(arb_step(), 1..60),
        policy in arb_policy(),
        sets in prop::sample::select(vec![1usize, 2, 4, 8]),
        assoc in prop::sample::select(vec![2usize, 4]),
    ) {
        let addresses = addresses();
        let descendants: Vec<usize> = (0..NUM_NODES).collect();
        let mut level = SymLevel::new(CacheConfig::with_sets(sets, assoc, LINE_SIZE, policy));
        let total = steps.len();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Access { node, iter, write } => {
                    let address = addresses[node].eval(&[iter]);
                    prop_assert!(address >= 0);
                    let kind = if write { AccessKind::Write } else { AccessKind::Read };
                    level.access(MemBlock(address as u64 / LINE_SIZE), kind, node, &[iter]);
                }
                Step::Warp { period, chunks } => {
                    // Every cached line is labelled by a descendant with the
                    // common coefficient, so the uniform-shift precondition
                    // holds by construction.
                    let byte_shift = LINE_SIZE as i64 * period * chunks;
                    level.apply_warp(
                        |node, iter: &[i64]| addresses[node].eval(iter),
                        &descendants,
                        1,
                        period,
                        chunks,
                        byte_shift,
                    );
                }
            }
            // Flush only intermittently (and always at the end): real match
            // attempts are backoff-spaced, so several mutations — including
            // warps, which dirty every row — accumulate between flushes.
            if i % 3 != 0 && i + 1 != total {
                continue;
            }
            level.prepare_match();
            let rebuilt = rebuild_level_fingerprint(&level);
            for (d, word) in rebuilt.iter().enumerate() {
                prop_assert_eq!(
                    level.fingerprint(d),
                    Some(*word),
                    "incremental fingerprint diverged at dim {}",
                    d
                );
            }
        }
    }

    #[test]
    fn filtered_matching_is_stat_neutral(
        n in 200i64..2000,
        stride in 1i64..3,
        policy in arb_policy(),
        sets in prop::sample::select(vec![1usize, 4, 16]),
        assoc in prop::sample::select(vec![2usize, 4]),
        line in prop::sample::select(vec![8u64, 64]),
    ) {
        let scop = parse_scop(&format!(
            "double A[{size}]; double B[{size}];\n\
             for (i = 1; i < {n}; i += {stride}) B[i-1] = A[i-1] + A[i];",
            size = n + 1,
        ))
        .unwrap();
        let config = MemoryConfig::from(CacheConfig::with_sets(sets, assoc, line, policy));
        let reference = simulate_memory(&scop, &config);
        let outcome = WarpingSimulator::new(config.clone()).run(&scop);
        prop_assert_eq!(&outcome.result, &reference, "config={:?}", config);
    }
}
