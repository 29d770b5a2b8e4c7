//! Property test for the compiled walk: lowering a kernel into
//! strength-reduced access runs must be invisible.  Across random kernel
//! shapes (negative strides, non-unit steps, if-guards, triangular nests,
//! parametric tile instances), random replacement policies and depth-2/3
//! hierarchies, the compiled walk must
//!
//!   * emit the exact access stream of the reference walk, address by
//!     address and kind by kind, and
//!   * leave every backend of the engine reporting what the reference
//!     stream implies: classic, warping and trace the counts of
//!     [`simulate::simulate_reference`], sampled counts within their
//!     reported bound, HayStack the stack-distance profile of the reference
//!     block stream and PolyCache a per-set LRU replay of it.
//!
//! The reference walk ([`scop::for_each_access`]) is the oracle: every
//! backend consumes the compiled stream, so nothing else can vouch for it.
//!
//! The parser only builds domains of at most one conjunction, so a
//! hand-built SCoP ([`union_scop`]) covers the union-domain fallback:
//! loops and guards whose domains are unions of conjunctions.

use analytical::HaystackModel;
use cache_model::{AccessKind, CacheConfig, MemBlock, MemoryConfig, ReplacementPolicy};
use engine::{Backend, Engine, KernelSpec, SimRequest};
use polyhedra::{Aff, BasicSet, Set};
use proptest::prelude::*;
use scop::{AccessNode, ArrayInfo, LoopNode, Node, Scop};
use simulate::{simulate_reference, MultiLevelSystem};

/// The kernel shapes under test; each is stamped out from the same small
/// parameter tuple so shrinking stays meaningful.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// `for (i = 0; i < n; i += step) A[mult*i] = A[mult*i];`
    Strided,
    /// `for (i = n-1; i >= 0; i -= step) A[i] = A[i];`
    Decreasing,
    /// The strided loop with an `if (i < bound)` guard on the body.
    Guarded,
    /// `for (i ...) for (j = 0; j <= i; j++) B[j] = A[i];`
    Triangular,
    /// A tiled instance with ragged-tile guards, via the parametric path.
    Tiled,
}

const TEMPLATE: &str = "\
    param N, T;\n\
    double A[N];\n\
    double B[N];\n\
    for (ii = 0; ii < N; ii += T)\n\
        for (i = ii; i < ii + T; i++)\n\
            if (i < N) B[i] = A[i] + A[i];\n";

/// Renders one concrete kernel for a shape and its parameters.
fn kernel(shape: Shape, n: i64, step: i64, mult: i64) -> KernelSpec {
    match shape {
        Shape::Strided => KernelSpec::source(
            "strided",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 A[{mult}*i] = A[{mult}*i];",
                len = mult * n
            ),
        ),
        Shape::Decreasing => KernelSpec::source(
            "decreasing",
            format!(
                "double A[{n}]; for (i = {last}; i >= 0; i -= {step}) A[i] = A[i];",
                last = n - 1
            ),
        ),
        Shape::Guarded => KernelSpec::source(
            "guarded",
            format!(
                "double A[{len}]; for (i = 0; i < {n}; i += {step}) \
                 if (i < {bound}) A[{mult}*i] = A[{mult}*i];",
                len = mult * n,
                bound = n / 2 + 1
            ),
        ),
        Shape::Triangular => KernelSpec::source(
            "triangular",
            format!(
                "double A[{n}]; double B[{n}]; \
                 for (i = 0; i < {n}; i += {step}) \
                 for (j = 0; j <= i; j++) B[j] = A[i];"
            ),
        ),
        Shape::Tiled => KernelSpec::parametric("tiled", TEMPLATE, [("N", n), ("T", step)]),
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::sample::select(vec![
        Shape::Strided,
        Shape::Decreasing,
        Shape::Guarded,
        Shape::Triangular,
        Shape::Tiled,
    ])
}

fn arb_policy() -> impl Strategy<Value = ReplacementPolicy> {
    prop::sample::select(vec![
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Plru,
        ReplacementPolicy::Qlru,
    ])
}

/// A depth-2 or depth-3 hierarchy, small enough that the tiny kernels
/// still miss at every level.
fn memory(depth: usize, policy: ReplacementPolicy) -> MemoryConfig {
    let mut levels = vec![
        CacheConfig::new(1024, 2, 64, policy),
        CacheConfig::new(4 * 1024, 4, 64, policy),
    ];
    if depth == 3 {
        levels.push(CacheConfig::new(16 * 1024, 8, 64, policy));
    }
    MemoryConfig::new(levels).expect("hierarchy is compatible")
}

/// Per-level miss counts of an inclusive LRU hierarchy replayed set by
/// set over `addresses`: each set is an MRU-first stack of blocks, and a
/// level is consulted only when the level above it misses.
fn lru_replay(addresses: &[u64], levels: &[CacheConfig]) -> Vec<u64> {
    let mut sets: Vec<Vec<Vec<MemBlock>>> = levels
        .iter()
        .map(|level| vec![Vec::new(); level.num_sets()])
        .collect();
    let mut misses = vec![0; levels.len()];
    for &address in addresses {
        for (idx, level) in levels.iter().enumerate() {
            let block = MemBlock::of_address(address, level.line_size());
            let stack = &mut sets[idx][(block.0 % level.num_sets() as u64) as usize];
            let hit = match stack.iter().position(|b| *b == block) {
                Some(pos) => {
                    stack.remove(pos);
                    true
                }
                None => false,
            };
            stack.insert(0, block);
            stack.truncate(level.assoc());
            if hit {
                break;
            }
            misses[idx] += 1;
        }
    }
    misses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The compiled walk's access stream is the reference stream.
    #[test]
    fn compiled_stream_matches_reference(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
    ) {
        let scop = kernel(shape, n, step, mult).build().expect("kernel builds");
        let mut reference: Vec<(u64, AccessKind)> = Vec::new();
        let ref_count = scop::for_each_access(&scop, |access| {
            reference.push((access.address, access.kind));
        });
        let compiled = scop::compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut lowered: Vec<(u64, AccessKind)> = Vec::new();
        let low_count = compiled.for_each_access(&mut scratch, |_, address, kind| {
            lowered.push((address, kind));
        });
        prop_assert_eq!(ref_count, low_count, "{:?} n={} step={}", shape, n, step);
        prop_assert_eq!(reference, lowered, "{:?} n={} step={} mult={}", shape, n, step, mult);
    }

    /// Every backend reports what the reference stream implies.
    #[test]
    fn every_backend_is_walk_invariant(
        shape in arb_shape(),
        n in 4i64..48,
        step in 1i64..4,
        mult in 1i64..4,
        depth in prop::sample::select(vec![2usize, 3]),
        policy in arb_policy(),
    ) {
        let spec = kernel(shape, n, step, mult);
        let scop = spec.build().expect("kernel builds");
        let memory = memory(depth, policy);
        let tag = format!("{shape:?} n={n} step={step} mult={mult} depth={depth} policy={policy:?}");
        let engine = Engine::new().with_threads(1);
        let run = |memory: &MemoryConfig, backend: Backend| {
            engine
                .run(&SimRequest::new(spec.clone(), memory.clone(), backend))
                .expect("request runs")
        };

        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = run(&memory, backend);
            prop_assert_eq!(&report.result, &reference, "{} backend={}", tag, report.backend);
        }
        let sampled = run(&memory, Backend::Sampled(engine::SamplingOptions::DEFAULT));
        let approx = sampled.approx.expect("sampled reports carry bounds");
        prop_assert_eq!(sampled.result.accesses, reference.accesses, "{}", tag);
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(reference.levels[level].misses);
            prop_assert!(err <= *bound, "{} level {}: error {} > bound {}", tag, level, err, bound);
        }

        let mut addresses = Vec::new();
        scop::for_each_access(&scop, |access| addresses.push(access.address));

        let l1 = memory.levels()[0].clone();
        let haystack = run(&MemoryConfig::from(l1.clone()), Backend::Haystack);
        let profile = HaystackModel::new(l1.line_size()).analyze_blocks(
            addresses.iter().map(|&a| MemBlock::of_address(a, l1.line_size())),
        );
        let lines = l1.num_sets() * l1.assoc();
        prop_assert_eq!(haystack.result.accesses, profile.accesses, "{}", tag);
        prop_assert_eq!(haystack.result.levels[0].misses, profile.misses(lines), "{}", tag);

        let lru: Vec<CacheConfig> = memory.levels()[..2]
            .iter()
            .map(|level| {
                CacheConfig::with_sets(
                    level.num_sets(),
                    level.assoc(),
                    level.line_size(),
                    ReplacementPolicy::Lru,
                )
            })
            .collect();
        let polycache = run(&MemoryConfig::new(lru.clone()).expect("valid"), Backend::PolyCache);
        let misses: Vec<u64> = polycache.result.levels.iter().map(|l| l.misses).collect();
        prop_assert_eq!(polycache.result.accesses, addresses.len() as u64, "{}", tag);
        prop_assert_eq!(misses, lru_replay(&addresses, &lru), "{}", tag);
    }
}

/// A SCoP no source text can produce, every domain a union of
/// conjunctions:
///
/// ```text
/// for (i in [0, 99] ∪ [150, 299])        // increasing, union domain
///   A[i];
///   for (j in [0, 3])                     // nested under the union
///     if (j == 0 || j == 3) B[j][i] = ..; // union guard
///   A[i + 1];
/// for (k in [100, 130] ∪ [40, 70]; k -= 2) // decreasing, union domain
///   A[2k] = ..;
/// ```
///
/// Every access below `i` moves 8 bytes per iteration, so warping attempts
/// matches on the union loop.
fn union_scop() -> Scop {
    let union1 = |a: (i64, i64), b: (i64, i64)| {
        Set::from_basic(BasicSet::rect(&[a])).union(&Set::from_basic(BasicSet::rect(&[b])))
    };
    let outer = union1((0, 99), (150, 299));
    let inner = Set::from_basic(BasicSet::rect(&[(0, 99), (0, 3)]))
        .union(&Set::from_basic(BasicSet::rect(&[(150, 299), (0, 3)])));
    let ends = Set::from_basic(BasicSet::rect(&[(0, 299), (0, 0)]))
        .union(&Set::from_basic(BasicSet::rect(&[(0, 299), (3, 3)])));
    let guard = inner.intersect(&ends);
    assert!(guard.basics().len() > 1, "the guard stays a union");
    let decreasing = union1((100, 130), (40, 70));
    let b_base = 4096;
    let access = |id, depth, domain: &Set, address: Aff, kind| {
        Node::Access(AccessNode {
            id,
            array: usize::from(id == 1),
            depth,
            domain: domain.clone(),
            address,
            kind,
        })
    };
    let increasing = Node::Loop(LoopNode {
        depth: 1,
        domain: outer.clone(),
        stride: 1,
        children: vec![
            access(0, 1, &outer, Aff::var(1, 0).scale(8), AccessKind::Read),
            Node::Loop(LoopNode {
                depth: 2,
                domain: inner,
                stride: 1,
                children: vec![access(
                    1,
                    2,
                    &guard,
                    Aff::from_coeffs(vec![8, 8 * 512], b_base),
                    AccessKind::Write,
                )],
            }),
            access(
                2,
                1,
                &outer,
                Aff::var(1, 0).scale(8).offset(8),
                AccessKind::Read,
            ),
        ],
    });
    let decreasing = Node::Loop(LoopNode {
        depth: 1,
        domain: decreasing.clone(),
        stride: -2,
        children: vec![access(
            3,
            1,
            &decreasing,
            Aff::var(1, 0).scale(16),
            AccessKind::Write,
        )],
    });
    let array = |name: &str, extents: Vec<u64>, base_address| ArrayInfo {
        name: name.into(),
        extents,
        elem_size: 8,
        base_address,
    };
    Scop::new(
        vec![
            array("A", vec![512], 0),
            array("B", vec![4, 512], b_base as u64),
        ],
        vec![increasing, decreasing],
        4,
    )
}

#[test]
fn union_domains_match_the_reference_on_every_exact_backend() {
    let scop = union_scop();
    let mut reference = Vec::new();
    let ref_count = scop::for_each_access(&scop, |access| {
        reference.push((access.node.id, access.address, access.kind));
    });
    let compiled = scop::compile(&scop);
    let mut scratch = compiled.new_scratch();
    let mut lowered = Vec::new();
    let low_count = compiled.for_each_access(&mut scratch, |node, address, kind| {
        lowered.push((node, address, kind));
    });
    assert_eq!(ref_count, low_count);
    assert_eq!(reference, lowered);
    // 250 outer iterations × (2 + 2 guarded) plus 32 decreasing ones.
    assert_eq!(ref_count, 250 * 4 + 32);

    let spec = KernelSpec::prebuilt("unions", scop.clone());
    let engine = Engine::new().with_threads(1);
    for (depth, policy) in [(2, ReplacementPolicy::Lru), (3, ReplacementPolicy::Plru)] {
        let memory = memory(depth, policy);
        let tag = format!("depth={depth} policy={policy:?}");
        let run = |backend| {
            engine
                .run(&SimRequest::new(spec.clone(), memory.clone(), backend))
                .expect("request runs")
        };
        let reference = simulate_reference(&scop, &mut MultiLevelSystem::new(memory.clone()));
        for backend in [Backend::Classic, Backend::warping(), Backend::Trace] {
            let report = run(backend);
            assert_eq!(report.result, reference, "{tag} backend={}", report.backend);
            if let Some(stats) = report.warping {
                assert!(
                    stats.match_attempts > 0,
                    "{tag}: the union loop attempts matches"
                );
            }
        }
        let sampled = run(Backend::Sampled(engine::SamplingOptions::DEFAULT));
        let approx = sampled.approx.expect("sampled reports carry bounds");
        assert_eq!(sampled.result.accesses, reference.accesses, "{tag}");
        for (level, bound) in approx.per_level_error_bound.iter().enumerate() {
            let err = sampled.result.levels[level]
                .misses
                .abs_diff(reference.levels[level].misses);
            assert!(
                err <= *bound,
                "{tag} level {level}: error {err} > bound {bound}"
            );
        }
    }
}
