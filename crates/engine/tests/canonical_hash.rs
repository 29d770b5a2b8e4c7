//! Property tests for [`SimRequest::canonical_hash`]: the content address
//! the serving layer caches under.
//!
//! Two requests must collide exactly when they are the *same simulation*:
//!
//! * invariant under α-renaming (array and iterator names), kernel display
//!   names, spelling of loop bounds (`< n` vs `<= n-1`) and the
//!   construction path of the memory config;
//! * distinct whenever any semantically meaningful field differs — loop
//!   extents, array sizes, access offsets, cache geometry, replacement
//!   policy, write policy or backend.

use cache_model::{CacheConfig, MemoryConfig, MemoryConfigError, ReplacementPolicy, WritePolicy};
use engine::{Backend, KernelSpec, SimRequest};
use proptest::prelude::*;

/// The semantic content of a small two-array kernel family; everything
/// *not* in here (names, bound spelling) must not affect the hash.
#[derive(Clone, Debug, PartialEq)]
struct Shape {
    /// Outer loop extent.
    n: u64,
    /// Extra slack in the array declarations beyond what accesses need.
    slack: u64,
    /// Offset of the read access (`B[i + offset]`).
    offset: u64,
    /// Whether a second, inner loop nest is emitted.
    two_loops: bool,
}

/// Spelling choices that are semantically irrelevant.
#[derive(Clone, Debug)]
struct Spelling {
    kernel_name: &'static str,
    write_array: &'static str,
    read_array: &'static str,
    outer_iter: &'static str,
    inner_iter: &'static str,
    /// Render the loop bound as `iter <= n-1` instead of `iter < n`.
    le_bound: bool,
}

fn render(shape: &Shape, spelling: &Spelling) -> KernelSpec {
    let Shape {
        n,
        slack,
        offset,
        two_loops,
    } = *shape;
    let Spelling {
        kernel_name,
        write_array,
        read_array,
        outer_iter,
        inner_iter,
        le_bound,
    } = *spelling;
    let size = n + offset + slack;
    let bound = |extent: u64| {
        if le_bound {
            format!("<= {}", extent - 1)
        } else {
            format!("< {extent}")
        }
    };
    let mut code = format!(
        "double {write_array}[{size}]; double {read_array}[{size}];\n\
         for ({outer_iter} = 0; {outer_iter} {}; {outer_iter}++)\n\
         {write_array}[{outer_iter}] = {read_array}[{outer_iter} + {offset}];\n",
        bound(n)
    );
    if two_loops {
        code.push_str(&format!(
            "for ({outer_iter} = 0; {outer_iter} {}; {outer_iter}++)\n\
             for ({inner_iter} = 0; {inner_iter} {}; {inner_iter}++)\n\
             {write_array}[{inner_iter}] = {write_array}[{outer_iter}];\n",
            bound(n),
            bound(n),
        ));
    }
    KernelSpec::source(kernel_name, code)
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (2u64..24, 0u64..3, 0u64..3, prop::bool::ANY).prop_map(|(n, slack, offset, two_loops)| Shape {
        n,
        slack,
        offset,
        two_loops,
    })
}

fn arb_spelling() -> impl Strategy<Value = Spelling> {
    (
        prop::sample::select(vec!["k", "jacobi", "renamed-kernel"]),
        prop::sample::select(vec![
            ("A", "B", "i", "j"),
            ("out", "in0", "p", "q"),
            ("x9", "y", "t", "s"),
        ]),
        prop::bool::ANY,
    )
        .prop_map(
            |(kernel_name, (write_array, read_array, outer_iter, inner_iter), le_bound)| Spelling {
                kernel_name,
                write_array,
                read_array,
                outer_iter,
                inner_iter,
                le_bound,
            },
        )
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(vec![
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ])
}

fn arb_memory() -> impl Strategy<Value = MemoryConfig> {
    (1usize..16, 1usize..5, arb_policy()).prop_map(|(sets, assoc, policy)| {
        MemoryConfig::single(CacheConfig::with_sets(sets, assoc, 64, policy))
    })
}

fn request(kernel: KernelSpec, memory: MemoryConfig, backend: Backend) -> SimRequest {
    SimRequest::new(kernel, memory, backend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hash_is_invariant_under_renaming_and_spelling(
        shape in arb_shape(),
        spelling_a in arb_spelling(),
        spelling_b in arb_spelling(),
        memory in arb_memory(),
    ) {
        let a = request(render(&shape, &spelling_a), memory.clone(), Backend::warping());
        let b = request(render(&shape, &spelling_b), memory, Backend::warping());
        prop_assert_eq!(
            a.canonical_hash(),
            b.canonical_hash(),
            "spellings {:?} vs {:?} of shape {:?} must collide",
            spelling_a,
            spelling_b,
            shape
        );
    }

    #[test]
    fn hash_is_invariant_under_memory_construction_path(
        shape in arb_shape(),
        spelling in arb_spelling(),
        sets in 1usize..16,
        assoc in 1usize..5,
        policy in arb_policy(),
    ) {
        let l1 = CacheConfig::with_sets(sets, assoc, 64, policy);
        let l2 = CacheConfig::with_sets(sets * 16, 16, 64, policy);
        if policy == ReplacementPolicy::Plru && !assoc.is_power_of_two() {
            // Not a simulable geometry: the validating constructor says so.
            prop_assert_eq!(
                MemoryConfig::new(vec![l1]).unwrap_err(),
                MemoryConfigError::PlruAssociativity { level: 0, assoc }
            );
        } else {
            // The same single-level system, two constructors.
            let single_a = MemoryConfig::single(l1.clone());
            let single_b = MemoryConfig::new(vec![l1.clone()]).expect("one level is valid");
            // The same two-level system, two constructors.
            let two_a = MemoryConfig::single(l1.clone())
                .with_level(l2.clone())
                .expect("two levels are valid");
            let two_b = MemoryConfig::new(vec![l1, l2]).expect("two levels are valid");
            for (left, right) in [(single_a, single_b), (two_a, two_b)] {
                let a = request(render(&shape, &spelling), left, Backend::Classic);
                let b = request(render(&shape, &spelling), right, Backend::Classic);
                prop_assert_eq!(a.canonical_hash(), b.canonical_hash());
            }
        }
    }

    #[test]
    fn hash_separates_semantic_differences(
        shape in arb_shape(),
        spelling in arb_spelling(),
        memory in arb_memory(),
    ) {
        let base = request(render(&shape, &spelling), memory.clone(), Backend::warping());
        let base_hash = base.canonical_hash();

        // Kernel-side mutations: each changes the simulated access stream.
        let mutations = [
            Shape { n: shape.n + 1, ..shape.clone() },
            Shape { slack: shape.slack + 1, ..shape.clone() },
            Shape { offset: shape.offset + 1, ..shape.clone() },
            Shape { two_loops: !shape.two_loops, ..shape.clone() },
        ];
        for mutated in mutations {
            let other = request(render(&mutated, &spelling), memory.clone(), Backend::warping());
            prop_assert!(
                base_hash != other.canonical_hash(),
                "shapes {:?} and {:?} must not collide",
                shape,
                mutated
            );
        }

        // Memory-side mutations: geometry, policy and write policy.
        let l1 = memory.l1().clone();
        let (sets, assoc, line) = (l1.num_sets(), l1.assoc(), l1.line_size());
        let memory_mutations = [
            MemoryConfig::single(CacheConfig::with_sets(sets * 2, assoc, line, l1.policy())),
            MemoryConfig::single(CacheConfig::with_sets(sets, assoc * 2, line, l1.policy())),
            MemoryConfig::single(CacheConfig::with_sets(sets, assoc, line * 2, l1.policy())),
            MemoryConfig::single(CacheConfig::with_sets(
                sets,
                assoc,
                line,
                if l1.policy() == ReplacementPolicy::Lru {
                    ReplacementPolicy::Fifo
                } else {
                    ReplacementPolicy::Lru
                },
            )),
            memory.clone().with_write_policy(
                if memory.write_policy() == WritePolicy::WriteThroughNoAllocate {
                    WritePolicy::WriteBackWriteAllocate
                } else {
                    WritePolicy::WriteThroughNoAllocate
                },
            ),
        ];
        for mutated in memory_mutations {
            let other = request(render(&shape, &spelling), mutated.clone(), Backend::warping());
            prop_assert!(
                base_hash != other.canonical_hash(),
                "memories {:?} and {:?} must not collide",
                memory,
                mutated
            );
        }

        // Backend mutations.
        for backend in [Backend::Classic, Backend::Haystack, Backend::Trace] {
            let other = request(render(&shape, &spelling), memory.clone(), backend);
            prop_assert!(base_hash != other.canonical_hash());
        }
    }
}
